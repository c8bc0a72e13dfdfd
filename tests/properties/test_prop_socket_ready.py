"""Property: ``Socket.ready`` always equals select's readiness rule.

``ready`` is one maintained field that select and epoll read instead of
re-deriving readiness per probe.  The rule it caches: a listening
socket is ready when its accept queue is non-empty, any other socket
when it has buffered rx or has seen EOF.  A random program of socket
calls (listen, remote and local connects, accept, send, remote send,
recv, close, epoll registration and waits), each optionally followed
by one link latency's worth of link events, must keep the field equal to the rule on every socket after
every step.  Alongside it, the first socket-stack invariant: every
epoll ready set is a subset of its interest list.
"""

from hypothesis import given, settings, strategies as st

from tests.conftest import make_runtime

OPS = (
    "listen", "remote_connect", "connect", "accept", "send",
    "remote_send", "recv", "close", "remote_close", "epoll_add",
    "epoll_del", "epoll_wait",
)
PORT = 80
LATENCY_US = 40.0

STEP = st.tuples(
    st.sampled_from(OPS),
    st.integers(min_value=0, max_value=15),  # which socket
    st.integers(min_value=1, max_value=4),  # bytes (x100) / maxevents
    st.booleans(),  # then let one link latency of events fire
)


def rule(sock):
    if sock.state == "listening":
        return bool(sock.accept_queue)
    return bool(sock.rx) or sock.rx_eof


def every_socket(roots):
    """The given sockets, their peers, and every queued connection."""
    seen = {}
    todo = list(roots)
    while todo:
        sock = todo.pop()
        if sock is None or sock.sid in seen:
            continue
        seen[sock.sid] = sock
        todo.append(sock.peer)
        if sock.accept_queue:
            todo.extend(conn for conn, __ in sock.accept_queue)
    return list(seen.values())


def pick(items, i):
    return items[i % len(items)] if items else None


@settings(max_examples=200, deadline=None)
@given(st.lists(STEP, max_size=60))
def test_ready_field_matches_the_rule_after_every_step(program):
    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=LATENCY_US, rx_capacity=300)
    world = rt.world
    ep = stack.sys_epoll_create()
    # Start from one accepted remote client and one accepted local
    # connection, so short programs reach the data path.
    listener = stack.sys_socket()
    stack.sys_bind(listener, PORT)
    stack.sys_listen(listener, backlog=3)
    remote = [stack.remote_connect(PORT)]  # kernel-owned client endpoints
    client = stack.sys_socket()
    stack.sys_connect(client, PORT)
    while world.next_event_time() is not None:
        world.advance_to_next_event()
        world.fire_due()
    # library-side sockets; the index is the epoll fd
    local = [listener, client]
    local += [stack.sys_accept(listener), stack.sys_accept(listener)]

    for op, i, k, drain in program:
        live = [s for s in local if s.state != "closed"]
        if op == "listen":
            sock = stack.sys_socket()
            local.append(sock)
            if stack.sys_bind(sock, PORT + i % 2):
                stack.sys_listen(sock, backlog=1 + i % 3)
        elif op == "remote_connect":
            client = stack.remote_connect(PORT)
            if client is not None:
                remote.append(client)
        elif op == "connect":
            sock = stack.sys_socket()
            local.append(sock)
            stack.sys_connect(sock, PORT)
        elif op == "accept":
            sock = pick([s for s in live if s.state == "listening"], i)
            if sock is not None:
                conn = stack.sys_accept(sock)
                if conn is not None:
                    local.append(conn)
        elif op == "send":
            sock = pick([s for s in live if s.state == "connected"], i)
            if sock is not None and sock.peer.state != "closed":
                stack.sys_send(sock, 100 * k, None)
        elif op == "remote_send":
            client = pick(remote, i)
            if client is not None and client.state == "connected":
                stack.remote_send(client, 100 * k)
        elif op == "recv":  # prefer a socket with buffered data
            sock = pick([s for s in live if s.rx] or live, i)
            if sock is not None:
                stack.sys_recv(sock)
        elif op == "close":
            sock = pick(live, i)
            if sock is not None:
                stack.sys_close(sock)
        elif op == "remote_close":
            client = pick(remote, i)
            if client is not None:
                stack.remote_close(client)
        elif op == "epoll_add":
            sock = pick(live, i)
            if sock is not None:
                stack.sys_epoll_ctl(ep, "add", local.index(sock), sock)
        elif op == "epoll_del":
            if local:
                stack.sys_epoll_ctl(ep, "del", i % len(local))
        else:
            stack.sys_epoll_wait(ep, maxevents=k)
        if drain:
            horizon = world.now + world.cycles_for_us(LATENCY_US)
            while (world.next_event_time() or horizon + 1) <= horizon:
                world.advance_to_next_event()
                world.fire_due()

        for sock in every_socket(local + remote):
            assert sock.ready == rule(sock), (op, sock)
        assert set(ep.ready) <= set(ep.interest), (op, ep)
