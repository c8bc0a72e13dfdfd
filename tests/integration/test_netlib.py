"""Thread-blocking socket calls: park, complete, wake exactly one.

The library layer (:mod:`repro.core.netlib`) on top of the kernel
sockets: every would-block call suspends only the calling thread, and
the completion -- via SIGIO demultiplexing or the first-class channel
-- wakes exactly the requester.  Cancellation and select timeouts run
the request teardown so the kernel never wakes a thread that stopped
waiting.
"""

import pytest

from repro.core.config import PTHREAD_CANCELED
from repro.core.errors import (
    EBADF,
    ECONNREFUSED,
    EINVAL,
    ENOTCONN,
    OK,
)
from tests.conftest import make_runtime, rx_owner


def _listening(pt, port=80, backlog=8):
    lfd = yield pt.socket()
    assert lfd >= 3
    err = yield pt.bind(lfd, port)
    assert err == OK
    err = yield pt.listen(lfd, backlog)
    assert err == OK
    return lfd


@pytest.mark.parametrize("first_class", [False, True])
def test_echo_round_trip_on_both_completion_paths(first_class):
    out = {}

    def server(pt, lfd):
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        err, msg = yield pt.recv(cfd)
        assert err == OK
        out["request"] = msg.nbytes
        err, sent = yield pt.send(cfd, 2 * msg.nbytes, meta=msg.meta)
        assert (err, sent) == (OK, 2 * msg.nbytes)
        err, eof = yield pt.recv(cfd)
        assert (err, eof) == (OK, None)
        yield pt.close(cfd)

    def client(pt, port):
        fd = yield pt.socket()
        err, got = yield pt.connect(fd, port)
        assert (err, got) == (OK, fd)
        err, sent = yield pt.send(fd, 300, meta={"rid": 1})
        assert (err, sent) == (OK, 300)
        err, msg = yield pt.recv(fd)
        assert err == OK
        out["reply"] = (msg.nbytes, msg.meta["rid"])
        yield pt.close(fd)

    def main(pt):
        lfd = yield from _listening(pt)
        srv = yield pt.create(server, lfd)
        cli = yield pt.create(client, 80)
        yield pt.join(srv)
        yield pt.join(cli)
        yield pt.close(lfd)

    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=40.0, first_class=first_class)
    rt.main(main, priority=100)
    rt.run()
    assert out["request"] == 300
    assert out["reply"] == (600, 1)
    if first_class:
        assert stack.fc_completions > 0 and stack.sigio_completions == 0
    else:
        assert stack.sigio_completions > 0 and stack.fc_completions == 0


def test_completion_wakes_exactly_the_requester():
    log = []

    def receiver(pt, fd, tag):
        err, msg = yield pt.recv(fd)
        assert err == OK
        log.append((tag, msg.nbytes))
        yield pt.close(fd)

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        remote_a = rt.net.remote_connect(80)
        err, fd_a = yield pt.accept(lfd)
        remote_b = rt.net.remote_connect(80)
        err, fd_b = yield pt.accept(lfd)
        ra = yield pt.create(receiver, fd_a, "a")
        rb = yield pt.create(receiver, fd_b, "b")
        yield pt.delay_us(200)  # both receivers parked
        rt.net.remote_send(remote_b, 222)
        yield pt.delay_us(300)  # b's message delivered and consumed
        assert log == [("b", 222)]  # a still blocked
        rt.net.remote_send(remote_a, 111)
        yield pt.join(ra)
        yield pt.join(rb)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert log == [("b", 222), ("a", 111)]


def test_select_times_out_on_an_idle_listener():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        t0 = rt.world.now_us
        err, ready = yield pt.select([lfd], timeout_us=400.0)
        out["dt"] = rt.world.now_us - t0
        out["ready"] = (err, ready)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["ready"] == (OK, [])
    # At least the timeout; plus SIGALRM delivery and dispatch overhead
    # (~160 us on the IPX), never more than ~1.3 ms.
    assert 400.0 <= out["dt"] < 1300.0


def test_select_wakes_on_arrival_and_cancels_its_timer():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        rt.net.remote_connect(80)  # lands after one 60 us latency
        err, ready = yield pt.select([lfd], timeout_us=5000.0)
        out["ready"] = (err, ready)
        out["at"] = rt.world.now_us
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=60.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["ready"][0] == OK and len(out["ready"][1]) == 1
    assert out["at"] < 5000.0  # readiness, not the timeout, woke it


def test_cancel_of_blocked_recv_runs_the_teardown():
    out = {}

    def receiver(pt, fd):
        yield pt.recv(fd)
        out["woke"] = True  # must never run

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        remote = rt.net.remote_connect(80)
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        sock = rt.fds.get(cfd)
        victim = yield pt.create(receiver, cfd)
        yield pt.delay_us(100)  # victim parks in recv
        assert len(sock.pending_recvs) == 1
        yield pt.cancel(victim)
        err, value = yield pt.join(victim)
        assert err == OK
        out["cancelled"] = value is PTHREAD_CANCELED
        # Teardown deregistered the request: the kernel has nobody to
        # wake, so a late delivery buffers quietly instead.
        assert not sock.pending_recvs
        rt.net.remote_send(remote, 64)
        yield pt.delay_us(300)
        assert len(sock.rx) == 1
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert out == {"cancelled": True}


def test_backpressure_blocks_the_sender_thread_not_the_process():
    out = {}

    def sender(pt, port):
        fd = yield pt.socket()
        err, _ = yield pt.connect(fd, port)
        assert err == OK
        for _ in range(4):
            err, sent = yield pt.send(fd, 60)
            assert (err, sent) == (OK, 60)
        yield pt.close(fd)

    def receiver(pt, cfd):
        got = 0
        while True:
            yield pt.delay_us(500)  # deliberately slow consumer
            err, msg = yield pt.recv(cfd)
            assert err == OK
            if msg is None:
                break
            got += msg.nbytes
        out["got"] = got
        yield pt.close(cfd)

    def main(pt):
        lfd = yield from _listening(pt)
        snd = yield pt.create(sender, 80)
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        rcv = yield pt.create(receiver, cfd)
        yield pt.join(snd)
        yield pt.join(rcv)
        yield pt.close(lfd)

    rt = make_runtime()
    # 100-byte window against 4 x 60-byte sends: the sender must stall
    # on the peer's buffer and resume as the receiver drains it.
    stack = rt.add_net_stack(latency_us=30.0, rx_capacity=100)
    rt.main(main, priority=100)
    rt.run()
    assert out["got"] == 240  # every byte arrived despite the stalls
    assert stack.backpressure_stalls >= 1


def test_read_write_route_to_sockets_through_the_fd_table():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        got = []
        remote = rt.net.remote_connect(
            80, owner=rx_owner(lambda s, m: got.append(m.nbytes))
        )
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        # write on a socket fd is send; read is recv.
        err, sent = yield pt.write(cfd, 80)
        assert (err, sent) == (OK, 80)
        rt.net.remote_send(remote, 55)
        err, msg = yield pt.read(cfd, 0)
        assert err == OK
        out["read"] = msg.nbytes
        yield pt.delay_us(200)
        out["peer_got"] = got
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["read"] == 55
    assert out["peer_got"] == [80]


def test_error_returns_follow_posix_shapes():
    out = {}

    def main(pt):
        out["bad_bind"] = yield pt.bind(99, 80)
        fd = yield pt.socket()
        out["refused"] = yield pt.connect(fd, 4242)  # nobody listening
        out["notconn"] = yield pt.send(fd, 10)
        out["close"] = yield pt.close(fd)
        out["double_close"] = yield pt.close(fd)

    rt = make_runtime()
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["bad_bind"] == EBADF
    assert out["refused"] == (ECONNREFUSED, -1)
    assert out["notconn"] == (ENOTCONN, 0)
    assert out["close"] == OK
    assert out["double_close"] == EBADF


def test_socket_without_a_stack_returns_minus_one():
    out = {}

    def main(pt):
        out["fd"] = yield pt.socket()

    rt = make_runtime()  # no add_net_stack
    rt.main(main, priority=100)
    rt.run()
    assert out["fd"] == -1


def test_select_reports_and_charges_a_repeated_fd_once():
    """An fd_set is a set: listing a descriptor twice reports it once
    and charges one probe, exactly like listing it once."""
    out = {}

    def main(pt, fds_of):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        rt.net.remote_connect(80)
        yield pt.delay_us(200)  # the connection waits in the accept queue
        t0 = rt.world.now
        out["ready"] = yield pt.select(fds_of(lfd), timeout_us=0)
        out["cycles"] = rt.world.now - t0
        yield pt.close(lfd)

    def run(fds_of):
        out.clear()
        rt = make_runtime()
        rt.add_net_stack(latency_us=40.0)
        rt.main(main, fds_of, priority=100)
        rt.run()
        return dict(out)

    once = run(lambda lfd: [lfd])
    twice = run(lambda lfd: [lfd, lfd, lfd])
    assert once["ready"] == (OK, [3])
    assert twice == once


@pytest.mark.parametrize("bad", ["unmapped", "negative", "epoll", "disk"])
def test_select_rejects_a_non_socket_fd_before_entering_the_kernel(bad):
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        if bad == "unmapped":
            bad_fd = 99
        elif bad == "negative":
            bad_fd = -1
        elif bad == "epoll":
            bad_fd = yield pt.epoll_create()
        else:
            bad_fd = rt.fds.alloc(rt.io_devices["disk0"])
        calls = rt.net.select_calls
        out["got"] = yield pt.select([lfd, bad_fd], timeout_us=100.0)
        out["calls"] = rt.net.select_calls - calls
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_io_device("disk0", latency_us=100.0)
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["got"] == (EBADF, [])
    assert out["calls"] == 0


def test_select_on_an_empty_set_waits_out_its_timeout():
    out = {}

    def main(pt):
        rt = pt.runtime
        t0 = rt.world.now_us
        out["got"] = yield pt.select([], timeout_us=100.0)
        out["dt"] = rt.world.now_us - t0

    rt = make_runtime()
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["got"] == (OK, [])
    assert out["dt"] >= 100.0
    assert rt.net.select_calls == 1


@pytest.mark.parametrize("maxevents", [0, -1])
def test_epoll_wait_rejects_a_nonpositive_maxevents_before_the_kernel(
    maxevents,
):
    """POSIX: ``maxevents <= 0`` is EINVAL, even with fds ready.  A
    zero must not read as "nothing ready" and a negative must not
    slice the ready list; the call charges nothing."""
    out = {}

    def main(pt):
        rt = pt.runtime
        epfd = yield pt.epoll_create()
        lfds = []
        for port in (80, 81, 82):
            lfd = yield from _listening(pt, port=port)
            yield pt.epoll_ctl(epfd, "add", lfd)
            rt.net.remote_connect(port)
            lfds.append(lfd)
        yield pt.delay_us(200)  # all three connections are queued
        waits, t0 = rt.net.epoll_waits, rt.world.now
        out["bad"] = yield pt.epoll_wait(epfd, maxevents=maxevents)
        out["cycles"] = rt.world.now - t0
        out["waits"] = rt.net.epoll_waits - waits
        out["ok"] = yield pt.epoll_wait(epfd, maxevents=3)
        out["lfds"] = lfds
        for fd in lfds + [epfd]:
            yield pt.close(fd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["bad"] == (EINVAL, [])
    assert out["waits"] == 0
    assert out["cycles"] == 0
    err, ready = out["ok"]
    assert err == OK and sorted(ready) == out["lfds"]
