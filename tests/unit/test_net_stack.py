"""Kernel-side socket layer, exercised without any threads.

Every test drives :class:`repro.unix.net.NetStack` syscalls directly
and advances the world's event queue by hand
(``advance_to_next_event``/``fire_due``), so the properties checked
here -- admission control, link latency, buffer backpressure, counter
bookkeeping -- are pinned independently of the thread library built on
top (that side lives in ``tests/integration/test_netlib.py``).
"""

from repro.unix.net import EOF, Message
from tests.conftest import make_runtime, rx_owner


def _stack(latency_us=80.0, **kwargs):
    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=latency_us, **kwargs)
    return rt, stack


def _drain(world, limit=200):
    """Fire every queued link event, advancing virtual time."""
    for _ in range(limit):
        if world.next_event_time() is None:
            return
        world.advance_to_next_event()
        world.fire_due()
    raise AssertionError("event queue did not drain in %d steps" % limit)


def _listener(stack, port=80, backlog=4):
    sock = stack.sys_socket()
    assert stack.sys_bind(sock, port)
    stack.sys_listen(sock, backlog)
    return sock


def _connected_pair(stack):
    """A connected library-side pair, built without the handshake."""
    a = stack.sys_socket()
    b = stack.sys_socket()
    stack._pair(a, b, 0)
    a.state = b.state = "connected"
    return a, b


class TestSyscallSurface:
    def test_socket_bind_listen_lifecycle(self):
        rt, stack = _stack()
        sock = stack.sys_socket()
        assert sock.state == "new"
        assert stack.sys_bind(sock, 80)
        assert sock.state == "bound"
        stack.sys_listen(sock, backlog=3)
        assert sock.state == "listening"
        assert stack.listeners[80] is sock
        assert rt.unix.syscall_counts["socket"] == 1
        assert rt.unix.syscall_counts["bind"] == 1
        assert rt.unix.syscall_counts["listen"] == 1

    def test_bind_rejects_taken_port(self):
        rt, stack = _stack()
        _listener(stack, port=80)
        other = stack.sys_socket()
        assert not stack.sys_bind(other, 80)
        assert other.state == "new"

    def test_syscalls_cost_cycles(self):
        rt, stack = _stack()
        before = rt.world.now
        stack.sys_socket()
        assert rt.world.now > before  # enter/exit + in-kernel work

    def test_close_unregisters_listener(self):
        rt, stack = _stack()
        sock = _listener(stack, port=80)
        stack.sys_close(sock)
        assert sock.state == "closed"
        assert 80 not in stack.listeners


class TestAdmission:
    def test_connect_without_listener_is_refused(self):
        rt, stack = _stack()
        assert stack.remote_connect(9999) is None
        assert stack.connections_refused == 1
        assert stack.connections_opened == 0

    def test_backlog_counts_inflight_claims(self):
        """Admission is decided at issue time: attempts still on the
        link count against the backlog exactly like queued ones."""
        rt, stack = _stack()
        _listener(stack, port=80, backlog=2)
        assert stack.remote_connect(80) is not None
        assert stack.remote_connect(80) is not None
        assert stack.remote_connect(80) is None  # two claims in flight
        assert stack.connections_refused == 1
        _drain(rt.world)
        assert stack.connections_opened == 2

    def test_sys_connect_refusal_returns_false(self):
        rt, stack = _stack()
        sock = stack.sys_socket()
        assert not stack.sys_connect(sock, 80)  # nobody listening
        assert stack.connections_refused == 1


class TestEstablishAndAccept:
    def test_connection_lands_after_one_link_latency(self):
        rt, stack = _stack(latency_us=80.0)
        listener = _listener(stack)
        t0 = rt.world.now_us
        client = stack.remote_connect(80)
        _drain(rt.world)
        assert client.state == "connected"
        assert len(listener.accept_queue) == 1
        elapsed = rt.world.now_us - t0
        assert 80.0 <= elapsed < 90.0  # latency + delivery work, no more

    def test_accept_pops_fifo_and_records_wait(self):
        rt, stack = _stack()
        listener = _listener(stack, backlog=4)
        first = stack.remote_connect(80)
        second = stack.remote_connect(80)
        _drain(rt.world)
        conn_a = stack.sys_accept(listener)
        conn_b = stack.sys_accept(listener)
        assert conn_a.peer is first
        assert conn_b.peer is second
        assert stack.sys_accept(listener) is None  # queue empty
        assert len(stack.accept_waits) == 2
        assert all(w >= 0 for w in stack.accept_waits)
        assert stack.accept_depths == [1, 2]


class TestDataPath:
    def test_remote_send_delivers_after_latency(self):
        rt, stack = _stack(latency_us=50.0)
        listener = _listener(stack)
        client = stack.remote_connect(80)
        _drain(rt.world)
        server = stack.sys_accept(listener)
        t0 = rt.world.now_us
        stack.remote_send(client, 512, meta={"rid": 7})
        assert stack.sys_recv(server) == "block"  # still on the link
        _drain(rt.world)
        msg = stack.sys_recv(server)
        assert isinstance(msg, Message)
        assert msg.nbytes == 512
        assert msg.meta["rid"] == 7
        assert rt.world.us(msg.delivered_at - msg.sent_at) >= 50.0
        assert rt.world.now_us - t0 >= 50.0
        assert stack.messages_delivered == 1
        assert stack.bytes_delivered == 512

    def test_kernel_owned_endpoint_consumes_via_callback(self):
        rt, stack = _stack()
        _listener(stack)
        got = []
        client = stack.remote_connect(
            80, owner=rx_owner(lambda s, m: got.append(m))
        )
        _drain(rt.world)
        server = client.peer
        stack.sys_send(server, 64, {"tag": "reply"})
        _drain(rt.world)
        assert len(got) == 1 and got[0].meta["tag"] == "reply"
        assert not client.rx  # never buffered

    def test_eof_arrives_after_buffered_data(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 100, None) == 100
        _drain(rt.world)
        stack.sys_close(a)
        _drain(rt.world)
        assert b.rx_eof
        assert stack.eof_delivered == 1
        msg = stack.sys_recv(b)  # data first...
        assert msg.nbytes == 100
        assert stack.sys_recv(b) is EOF  # ...then orderly EOF

    def test_delivery_after_close_is_dropped(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 100, None) == 100
        b.state = "closed"  # closes while the message is on the link
        _drain(rt.world)
        assert stack.messages_delivered == 0
        assert not b.rx


class TestBackpressure:
    def test_send_would_block_when_rx_budget_spent(self):
        """Admission counts buffered plus in-flight bytes against the
        receive window, so the link can never overcommit the buffer."""
        rt, stack = _stack(rx_capacity=100)
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 60, None) == 60
        assert stack.sys_send(a, 60, None) is None  # 60 in flight
        _drain(rt.world)
        assert stack.sys_send(a, 60, None) is None  # 60 buffered
        assert stack.sys_recv(b).nbytes == 60
        assert stack.sys_send(a, 60, None) == 60  # space freed

    def test_remote_sender_overcommit_counts_a_stall(self):
        rt, stack = _stack(rx_capacity=100)
        _listener(stack)
        client = stack.remote_connect(80)
        _drain(rt.world)
        stack.remote_send(client, 80)
        stack.remote_send(client, 80)  # over budget: queued anyway
        assert stack.backpressure_stalls == 1


class TestSelect:
    def test_select_reports_ready_descriptors(self):
        rt, stack = _stack()
        listener = _listener(stack)
        a, b = _connected_pair(stack)
        fdset = {3: listener, 4: b}
        assert stack.sys_select(fdset) == []
        stack.remote_connect(80)
        stack.sys_send(a, 10, None)
        _drain(rt.world)
        assert stack.sys_select(fdset) == [3, 4]
        assert stack.select_calls == 2

    def test_eof_makes_a_socket_readable(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        stack.sys_close(a)
        _drain(rt.world)
        assert b.ready
        assert stack.sys_select({5: b}) == [5]

    def test_per_descriptor_probe_is_charged(self):
        rt, stack = _stack()
        pairs = [_connected_pair(stack) for _ in range(4)]
        one = {3: pairs[0][1]}
        many = {3 + i: b for i, (a, b) in enumerate(pairs)}
        t0 = rt.world.now
        stack.sys_select(one)
        cost_one = rt.world.now - t0
        t1 = rt.world.now
        stack.sys_select(many)
        cost_many = rt.world.now - t1
        assert cost_many > cost_one  # scan scales with the fd set
