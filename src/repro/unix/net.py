"""Simulated sockets: the kernel side of the networking subsystem.

The paper's asynchronous I/O layer wraps every potentially blocking
UNIX call in a non-blocking issue plus a ``SIGIO`` completion directed
at the requesting thread (delivery-model rule 4).  Disks exercise that
machinery one request at a time; serving network traffic is the
workload class the ROADMAP aims at, and it needs the full UNIX socket
surface: listening sockets with accept queues, connected sockets with
bounded receive buffers (backpressure), link latency/bandwidth, and a
``select`` service for single-threaded dispatchers.

This module is the *kernel* half.  Every service a thread invokes is a
syscall charged through :meth:`UnixKernel._enter` (enter/exit overhead
plus in-kernel work), exactly like the services in
:mod:`repro.unix.kernel`.  All services are non-blocking, as the
paper's library requires: a call that cannot complete returns "would
block" and the *library* (:mod:`repro.core.netlib`) parks the calling
thread and registers a :class:`NetRequest`.  When the kernel-side
event arrives (a connection established, a message delivered, buffer
space freed) the request completes through one of the two completion
paths the paper discusses:

- ``SIGIO`` through the universal handler, demultiplexed to the
  requesting thread by delivery rule 4 (the shipping design); or
- the first-class Marsh & Scott channel
  (:class:`repro.unix.firstclass.FirstClassInterface`), which hands
  the completion datum straight to the user-level scheduler at
  soft-interrupt cost (the paper's Open Problems proposal).

Messages are bookkeeping-only (a byte count plus metadata), like every
other payload in the simulation.  Construction of the stack spends no
cycles, so a runtime with networking present but idle is bit-identical
to one without it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hw import costs
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.sigset import SIGIO
from repro.unix.signals import SigCause


@dataclass
class Message:
    """One application message (bookkeeping only, no payload bytes)."""

    nbytes: int
    meta: Dict[str, Any] = field(default_factory=dict)
    sent_at: int = 0
    delivered_at: int = 0


@dataclass
class NetRequest:
    """One parked network operation awaiting a kernel-side event.

    The shape mirrors :class:`repro.unix.io.IoRequest` so both
    completion paths work unchanged: ``requester`` names the thread to
    wake (rule 4) and ``result`` is the value its library call returns.
    ``finisher`` lets the library map the raw kernel object to the
    caller-visible value (e.g. allocate an fd for an accepted socket)
    at completion time, with the kernel flag protection the waker
    already holds.
    """

    reqid: int
    op: str  # "accept" | "connect" | "recv" | "send" | "select" | "epoll"
    sock: Optional["Socket"]
    requester: Any
    issue_time: int
    nbytes: int = 0
    meta: Optional[Dict[str, Any]] = None
    entries: Optional[Dict[int, "Socket"]] = None  # select only: fd -> socket
    epoll: Optional["EpollInstance"] = None  # epoll_wait only
    finisher: Optional[Callable[[Any], Any]] = None
    done: bool = False
    cancelled: bool = False
    result: Any = None
    complete_time: int = 0


class Socket:
    """One simulated socket (listening, connected, or kernel-owned).

    ``kernel_owned`` marks remote endpoints driven by the load
    generator: they live entirely inside the kernel, consume arriving
    messages through their ``owner`` record immediately -- no
    buffering, no library thread.

    Memory discipline: at the sf100 scale fixture one run holds a few
    hundred thousand live sockets, so the class is ``__slots__``-based
    and its per-role queues are *lazy*.  Kernel-owned endpoints never
    allocate queues at all; ordinary sockets allocate ``rx``/
    ``pending_recvs``/``waiting_senders`` on first use, and the
    listening-side queues appear when ``listen()`` is called.  Every
    reader treats ``None`` as the empty queue.

    ``ready`` is select/epoll's readiness rule kept as one field: a
    listening socket is ready when its accept queue is non-empty, any
    other socket when it has buffered rx or has seen EOF.  Only
    :class:`NetStack` writes it, at the transitions that can change its
    value, so a readiness scan reads one attribute per descriptor.
    """

    __slots__ = (
        "sid", "stack", "state", "port", "kernel_owned",
        "backlog", "claims", "accept_queue", "pending_accepts",
        "peer", "rx", "rx_bytes", "rx_inflight", "rx_capacity", "rx_eof",
        "ready",
        "pending_recvs", "waiting_senders", "pending_connect",
        "selectors", "watchers", "owner",
    )

    def __init__(
        self, stack: "NetStack", rx_capacity: int, kernel_owned: bool = False
    ) -> None:
        self.sid = next(stack._sock_ids)
        self.stack = stack
        self.state = "new"  # new | bound | listening | connecting | connected | closed
        self.port: Optional[int] = None
        self.kernel_owned = kernel_owned
        # Listening side (queues allocated by sys_listen).
        self.backlog = 0
        self.claims = 0  # connections admitted but still in flight
        self.accept_queue: Optional[deque] = None  # (Socket, enqueued_at)
        self.pending_accepts: Optional[deque] = None  # NetRequests
        # Connected side (queues allocated on first use).
        self.peer: Optional["Socket"] = None
        self.rx: Optional[deque] = None  # Messages
        self.rx_bytes = 0
        self.rx_inflight = 0  # bytes transmitted but not yet delivered
        self.rx_capacity = rx_capacity
        self.rx_eof = False
        self.ready = False
        self.pending_recvs: Optional[deque] = None  # NetRequests
        self.waiting_senders: Optional[deque] = None  # NetRequests
        self.pending_connect: Optional[NetRequest] = None
        # select/poll watchers and epoll registrations ((epoll, fd)).
        self.selectors: Optional[List[NetRequest]] = None
        self.watchers: Optional[List[Tuple["EpollInstance", int]]] = None
        # Kernel-resident state record of a kernel-owned endpoint.
        self.owner: Optional[Any] = None

    def __repr__(self) -> str:
        return "Socket(#%d, %s, port=%s, rx=%d)" % (
            self.sid, self.state, self.port, self.rx_bytes,
        )


class EpollInstance:
    """A kernel-resident interest list: select() without the O(n) scan.

    ``interest`` maps fd -> socket for every registration; ``ready`` is
    an insertion-ordered set (a dict) of descriptors that pushed a
    readiness *edge* since the owner last consumed them.  Sockets hold
    back-references in ``Socket.watchers``, so a state change notifies
    only the epolls actually watching -- O(ready) per wakeup, never
    O(interest).  Semantics are level-triggered: a descriptor stays in
    ``ready`` until a wait observes it unreadable (stale entries are
    dropped at wait time, never probed in between).
    """

    __slots__ = ("epid", "stack", "interest", "ready", "waiter", "closed")

    def __init__(self, stack: "NetStack") -> None:
        self.epid = next(stack._epoll_ids)
        self.stack = stack
        self.interest: Dict[int, Socket] = {}
        self.ready: Dict[int, Socket] = {}
        self.waiter: Optional[NetRequest] = None
        self.closed = False

    def __repr__(self) -> str:
        return "EpollInstance(#%d, interest=%d, ready=%d)" % (
            self.epid, len(self.interest), len(self.ready),
        )


#: EOF sentinel returned by ``sys_recv`` on a half-closed socket.
EOF = None

def _ready_fds(fdset: Dict[int, Socket]) -> List[int]:
    """The fds of ``fdset`` whose socket is ready, in ``fdset`` order."""
    return list(
        itertools.compress(fdset, map(attrgetter("ready"), fdset.values()))
    )


class NetStack:
    """One machine's socket layer.

    Parameters
    ----------
    latency_us:
        Fixed one-way link latency; bandwidth is infinite.
    channel:
        Optional :class:`~repro.unix.firstclass.FirstClassInterface`;
        when set, completions bypass SIGIO entirely.
    """

    def __init__(
        self,
        world: World,
        kernel: UnixKernel,
        proc: Any,
        latency_us: float = 150.0,
        rx_capacity: int = 65536,
        channel: Any = None,
    ) -> None:
        if latency_us <= 0:
            raise ValueError("latency must be positive: %r" % latency_us)
        self._world = world
        self._kernel = kernel
        self._proc = proc
        #: Every link event (establish, message, EOF) lands this many
        #: cycles after its cause.
        self._link_cycles = max(world.cycles_for_us(latency_us), 1)
        self.rx_capacity = rx_capacity
        self.channel = channel
        self._req_ids = itertools.count(1)
        self._sock_ids = itertools.count(1)
        self._epoll_ids = itertools.count(1)
        self.listeners: Dict[int, Socket] = {}
        #: Kernel-resident client engine, when a load generator attached
        #: one (see :class:`ResidentClientEngine`; harvested by obs).
        self.resident: Optional["ResidentClientEngine"] = None
        # Counters (harvested by the observability layer).
        self.connections_opened = 0
        self.connections_refused = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.sigio_completions = 0
        self.fc_completions = 0
        self.backpressure_stalls = 0
        self.select_calls = 0
        self.eof_delivered = 0
        # Epoll counters (net.epoll.* in the obs report).
        self.epoll_instances = 0
        self.epoll_ctl_calls = 0
        self.epoll_waits = 0
        self.epoll_wakeups = 0  # parked waiters completed by an edge
        self.epoll_edges = 0  # readiness edges pushed to interest lists
        self.epoll_ready_returned = 0  # descriptors reported by waits
        self.epoll_stale_dropped = 0  # ready entries found unreadable
        # Accept-path measurements (cycles; the scenario layer converts).
        self.accept_waits: List[int] = []
        self.accept_depths: List[int] = []

    # -- syscall surface (each charged like a unix/kernel.py service) --------

    def sys_socket(self) -> Socket:
        self._kernel._enter("socket", costs.SOCKET_WORK)
        return Socket(self, self.rx_capacity)

    def sys_bind(self, sock: Socket, port: int) -> bool:
        """Bind to a port; False when the port is taken."""
        self._kernel._enter("bind", costs.BIND_WORK)
        if port in self.listeners:
            return False
        sock.port = port
        sock.state = "bound"
        return True

    def sys_listen(self, sock: Socket, backlog: int) -> None:
        self._kernel._enter("listen", costs.BIND_WORK)
        sock.backlog = max(1, backlog)
        sock.state = "listening"
        if sock.accept_queue is None:
            sock.accept_queue = deque()
            sock.pending_accepts = deque()
        self.listeners[sock.port] = sock

    def sys_accept(self, sock: Socket) -> Optional[Socket]:
        """Non-blocking accept: a connected socket, or None (would block)."""
        self._kernel._enter("accept", costs.ACCEPT_WORK)
        return self._accept_pop(sock)

    def sys_connect(self, sock: Socket, port: int) -> bool:
        """Issue a connection attempt; admission decided at issue time.

        Returns False when refused (no listener, or its accept queue --
        counting attempts already in flight -- is full).  On True the
        connection establishes after one link latency; the caller
        parks a ``"connect"`` request to learn when.
        """
        self._kernel._enter("connect", costs.CONNECT_WORK)
        listener = self.listeners.get(port)
        if listener is None or not self._admit_connection(listener):
            self.connections_refused += 1
            return False
        listener.claims += 1
        server_side = Socket(self, self.rx_capacity)
        self._pair(sock, server_side, port)
        sock.state = "connecting"
        self._world.schedule_in(
            self._link_cycles,
            lambda: self._establish(listener, server_side, sock),
            name="net-establish#%d" % server_side.sid,
        )
        return True

    def sys_send(self, sock: Socket, nbytes: int, meta: Optional[dict]) -> Optional[int]:
        """Non-blocking send: bytes queued on the link, or None (would
        block -- the peer's receive buffer is full)."""
        self._kernel._enter("send", costs.SEND_WORK)
        peer = sock.peer
        assert peer is not None
        if not self._rx_admit(peer, nbytes):
            return None
        self._transmit(peer, nbytes, meta)
        return nbytes

    def sys_recv(self, sock: Socket) -> Any:
        """Non-blocking recv: a :class:`Message`, :data:`EOF`, or the
        string ``"block"`` when nothing is available yet."""
        self._kernel._enter("recv", costs.RECV_WORK)
        if sock.rx:
            msg = self._rx_pop(sock)
            self._drain_senders(sock)
            return msg
        if sock.rx_eof:
            return EOF
        return "block"

    def sys_select(self, fdset: Dict[int, Socket]) -> List[int]:
        """One readiness scan over ``fdset`` (fd -> socket, each fd once).

        Charged as one syscall plus a per-descriptor probe, like the
        real thing; returns the ready fds in ``fdset`` order (possibly
        empty).  The scan itself reads each socket's ``ready`` field.
        """
        self._kernel._enter("select", costs.SELECT_WORK)
        if fdset:
            self._world.spend(
                costs.SELECT_PER_FD, times=len(fdset), fire=False
            )
        self.select_calls += 1
        return _ready_fds(fdset)

    def sys_close(self, sock: Socket) -> None:
        self._kernel._enter("net_close", costs.SOCKET_WORK)
        self._close(sock)

    # -- epoll-style interest lists (O(ready) readiness) ---------------------

    def sys_epoll_create(self) -> EpollInstance:
        self._kernel._enter("epoll_create", costs.EPOLL_WORK)
        self.epoll_instances += 1
        return EpollInstance(self)

    def sys_epoll_ctl(
        self, ep: EpollInstance, op: str, fd: int,
        sock: Optional[Socket] = None,
    ) -> bool:
        """Add or remove one registration; False on a bad op/fd."""
        self._kernel._enter("epoll_ctl", costs.EPOLL_CTL_WORK)
        self.epoll_ctl_calls += 1
        if ep.closed:
            return False
        if op == "add":
            if sock is None or fd in ep.interest:
                return False
            ep.interest[fd] = sock
            if sock.watchers is None:
                sock.watchers = []
            sock.watchers.append((ep, fd))
            if sock.ready:
                # Level-triggered add: already-buffered data must not
                # need a fresh edge to surface.
                self._epoll_mark(ep, fd, sock)
            return True
        if op == "del":
            cur = ep.interest.pop(fd, None)
            if cur is None:
                return False
            ep.ready.pop(fd, None)
            if cur.watchers is not None:
                try:
                    cur.watchers.remove((ep, fd))
                except ValueError:
                    pass
            return True
        return False

    def sys_epoll_wait(
        self, ep: EpollInstance, maxevents: Optional[int] = None
    ) -> Any:
        """One O(ready) readiness harvest.

        Returns the ready fds, or the string ``"block"`` when nothing
        is ready (the library then parks via :meth:`wait_epoll`).
        Entries whose socket went unreadable since their edge (consumed
        by an earlier wait, or closed) are dropped as stale here --
        cost is charged only per descriptor actually *reported*, which
        is the whole point versus select's per-registration probe.
        """
        self._kernel._enter("epoll_wait", costs.EPOLL_WAIT_WORK)
        self.epoll_waits += 1
        ready_fds: List[int] = []
        if ep.ready:
            stale: List[int] = []
            interest = ep.interest
            for fd, sock in ep.ready.items():
                if interest.get(fd) is sock and sock.ready:
                    ready_fds.append(fd)
                else:
                    stale.append(fd)
            if stale:
                self.epoll_stale_dropped += len(stale)
                for fd in stale:
                    del ep.ready[fd]
        if not ready_fds:
            return "block"
        if maxevents is not None and len(ready_fds) > maxevents:
            ready_fds = ready_fds[:maxevents]
        self._world.spend(
            costs.EPOLL_PER_READY, times=len(ready_fds), fire=False
        )
        self.epoll_ready_returned += len(ready_fds)
        return ready_fds

    def sys_epoll_close(self, ep: EpollInstance) -> None:
        """Close the interest list: every registration is dropped."""
        self._kernel._enter("net_close", costs.SOCKET_WORK)
        ep.closed = True
        for fd, sock in ep.interest.items():
            if sock.watchers is not None:
                try:
                    sock.watchers.remove((ep, fd))
                except ValueError:
                    pass
        ep.interest.clear()
        ep.ready.clear()
        if ep.waiter is not None:
            # Defensive: a waiter parked by another thread wakes empty.
            waiter, ep.waiter = ep.waiter, None
            self._complete(waiter, [])

    def _epoll_mark(self, ep: EpollInstance, fd: int, sock: Socket) -> None:
        """One readiness edge reaches ``ep``: wake its parked waiter
        (O(1) -- the edge carries the one newly ready fd) or record the
        fd in the ready set for the next wait."""
        waiter = ep.waiter
        if waiter is not None:
            ep.waiter = None
            self.epoll_wakeups += 1
            self._complete(waiter, [fd])
            return
        if fd not in ep.ready:
            ep.ready[fd] = sock

    def _epoll_edges(self, sock: Socket) -> None:
        """Push a readiness edge to every epoll watching ``sock``."""
        for ep, fd in sock.watchers:
            if ep.interest.get(fd) is sock:
                self.epoll_edges += 1
                self._epoll_mark(ep, fd, sock)

    # -- would-block registration (no extra syscall; the issue above
    #    already expressed interest, as with FASYNC on a real kernel) ------

    def _new_request(self, op: str, sock: Optional[Socket], requester: Any,
                     finisher: Optional[Callable] = None, **extra: Any) -> NetRequest:
        return NetRequest(
            reqid=next(self._req_ids),
            op=op,
            sock=sock,
            requester=requester,
            issue_time=self._world.now,
            finisher=finisher,
            **extra,
        )

    def wait_accept(self, sock: Socket, requester: Any,
                    finisher: Optional[Callable] = None) -> NetRequest:
        request = self._new_request("accept", sock, requester, finisher)
        sock.pending_accepts.append(request)
        return request

    def wait_connect(self, sock: Socket, requester: Any,
                     finisher: Optional[Callable] = None) -> NetRequest:
        request = self._new_request("connect", sock, requester, finisher)
        sock.pending_connect = request
        return request

    def wait_recv(self, sock: Socket, requester: Any,
                  finisher: Optional[Callable] = None) -> NetRequest:
        request = self._new_request("recv", sock, requester, finisher)
        if sock.pending_recvs is None:
            sock.pending_recvs = deque()
        sock.pending_recvs.append(request)
        return request

    def wait_send(self, sock: Socket, requester: Any, nbytes: int,
                  meta: Optional[dict],
                  finisher: Optional[Callable] = None) -> NetRequest:
        """Park a backpressured send on the *peer's* receive buffer."""
        request = self._new_request(
            "send", sock, requester, finisher, nbytes=nbytes, meta=meta
        )
        peer = sock.peer
        if peer.waiting_senders is None:
            peer.waiting_senders = deque()
        peer.waiting_senders.append(request)
        self.backpressure_stalls += 1
        return request

    def wait_select(self, fdset: Dict[int, Socket],
                    requester: Any) -> NetRequest:
        """Park a select caller on every socket of ``fdset``; the stack
        keeps the mapping until the request completes or is cancelled."""
        request = self._new_request(
            "select", None, requester, None, entries=fdset
        )
        for sock in fdset.values():
            if sock.selectors is None:
                sock.selectors = []
            sock.selectors.append(request)
        return request

    def wait_epoll(self, ep: EpollInstance, requester: Any) -> NetRequest:
        """Park an epoll_wait caller on its interest list; the next
        readiness edge completes it with the one ready fd (O(1))."""
        request = self._new_request("epoll", None, requester, None, epoll=ep)
        ep.waiter = request
        return request

    def cancel_request(self, request: NetRequest) -> None:
        """Teardown for a cancelled/timed-out waiter: deregister it so
        the kernel never wakes a thread that stopped waiting."""
        if request.done or request.cancelled:
            return
        request.cancelled = True
        sock = request.sock
        if request.op == "accept":
            _discard(sock.pending_accepts, request)
        elif request.op == "recv":
            _discard(sock.pending_recvs, request)
        elif request.op == "send":
            if sock.peer is not None:
                _discard(sock.peer.waiting_senders, request)
        elif request.op == "connect":
            if sock.pending_connect is request:
                sock.pending_connect = None
        elif request.op == "select":
            self._deregister_select(request)
        elif request.op == "epoll":
            ep = request.epoll
            if ep is not None and ep.waiter is request:
                ep.waiter = None

    # -- load-generator surface (kernel-resident remote hosts) ---------------

    def remote_connect(
        self,
        port: int,
        owner: Optional[Any] = None,
    ) -> Optional[Socket]:
        """A remote host connects: no syscall charge (it is not this
        machine's kernel entering), same admission and latency rules.

        ``owner`` attaches a kernel-resident state record (an object
        with ``connected``/``rx``/``eof`` methods, see
        :class:`ResidentClient`).  Without one the endpoint discards
        what it receives.
        """
        listener = self.listeners.get(port)
        if listener is None or not self._admit_connection(listener):
            self.connections_refused += 1
            return None
        listener.claims += 1
        client = Socket(self, self.rx_capacity, kernel_owned=True)
        client.owner = owner
        server_side = Socket(self, self.rx_capacity)
        self._pair(client, server_side, port)
        client.state = "connecting"
        self._world.schedule_in(
            self._link_cycles,
            lambda: self._establish(listener, server_side, client),
            name="net-establish#%d" % server_side.sid,
        )
        return client

    def remote_send(self, sock: Socket, nbytes: int,
                    meta: Optional[dict] = None) -> None:
        """A remote host sends (no syscall charge).  Remote senders are
        never backpressured mid-simulation: over-admission queues on
        the link and counts as a stall."""
        peer = sock.peer
        if peer is None or peer.state == "closed":
            return
        if not self._rx_admit(peer, nbytes):
            self.backpressure_stalls += 1
        self._transmit(peer, nbytes, meta)

    def remote_close(self, sock: Socket) -> None:
        self._close(sock)

    # -- kernel-internal machinery -------------------------------------------

    def _pair(self, a: Socket, b: Socket, port: int) -> None:
        a.peer = b
        b.peer = a
        a.port = port
        b.port = port

    def _admit_connection(self, listener: Socket) -> bool:
        if listener.state != "listening":
            return False
        return len(listener.accept_queue) + listener.claims < listener.backlog

    def _establish(self, listener: Socket, server_side: Socket,
                   client: Socket) -> None:
        """Link event: the connection reaches the listener."""
        self._world.spend(costs.NET_DELIVER, fire=False)
        listener.claims -= 1
        if listener.state != "listening":
            self.connections_refused += 1
            client.state = "closed"
            server_side.state = "closed"
            return
        server_side.state = "connected"
        client.state = "connected"
        self.connections_opened += 1
        listener.accept_queue.append((server_side, self._world.now))
        listener.ready = True
        self.accept_depths.append(len(listener.accept_queue))
        if listener.pending_accepts:
            request = listener.pending_accepts.popleft()
            conn = self._accept_pop(listener)
            self._complete(request, conn)
        else:
            self._notify_selectors(listener)
            if listener.watchers:
                self._epoll_edges(listener)
        # Tell the connecting side.
        if client.owner is not None:
            client.owner.connected(client)
        elif client.pending_connect is not None:
            request, client.pending_connect = client.pending_connect, None
            self._complete(request, client)

    def _accept_pop(self, sock: Socket) -> Optional[Socket]:
        if not sock.accept_queue:
            return None
        conn, enqueued_at = sock.accept_queue.popleft()
        sock.ready = bool(sock.accept_queue)
        self.accept_waits.append(self._world.now - enqueued_at)
        return conn

    def _rx_admit(self, sock: Socket, nbytes: int) -> bool:
        if sock.kernel_owned:
            return True  # remote endpoints consume on arrival
        return sock.rx_bytes + sock.rx_inflight + nbytes <= sock.rx_capacity

    def _rx_pop(self, sock: Socket) -> Message:
        msg = sock.rx.popleft()
        sock.rx_bytes -= msg.nbytes
        sock.ready = bool(sock.rx) or sock.rx_eof
        return msg

    def _transmit(self, dst: Socket, nbytes: int,
                  meta: Optional[dict]) -> None:
        dst.rx_inflight += nbytes
        msg = Message(nbytes=nbytes, meta=dict(meta or {}),
                      sent_at=self._world.now)
        self._world.schedule_in(
            self._link_cycles,
            lambda: self._deliver(dst, msg),
            name="net-deliver",
        )

    def _deliver(self, dst: Socket, msg: Message) -> None:
        """Link event: a message arrives at ``dst``."""
        self._world.spend(costs.NET_DELIVER, fire=False)
        dst.rx_inflight -= msg.nbytes
        if dst.state == "closed":
            return  # arrived after close: dropped on the floor
        msg.delivered_at = self._world.now
        self.messages_delivered += 1
        self.bytes_delivered += msg.nbytes
        if dst.kernel_owned:
            owner = dst.owner
            if owner is not None:
                owner.rx(dst, msg)
            return
        if dst.pending_recvs:
            # Direct handoff to the parked receiver: the bytes never
            # occupy the buffer, so that space stays free -- re-admit
            # any sender parked on it before the handoff.
            request = dst.pending_recvs.popleft()
            self._world.spend(costs.RECV_WORK, fire=False)
            self._complete(request, msg)
            self._drain_senders(dst)
            return
        if dst.rx is None:
            dst.rx = deque()
        dst.rx.append(msg)
        dst.rx_bytes += msg.nbytes
        dst.ready = True
        self._notify_selectors(dst)
        if dst.watchers:
            self._epoll_edges(dst)

    def _drain_senders(self, sock: Socket) -> None:
        """Receive-buffer space freed: resume backpressured senders."""
        while sock.waiting_senders:
            request = sock.waiting_senders[0]
            if not self._rx_admit(sock, request.nbytes):
                return
            sock.waiting_senders.popleft()
            self._transmit(sock, request.nbytes, request.meta)
            self._complete(request, request.nbytes)

    def _close(self, sock: Socket) -> None:
        if sock.state == "closed":
            return
        was_listening = sock.state == "listening"
        sock.state = "closed"
        sock.ready = bool(sock.rx) or sock.rx_eof
        if was_listening and self.listeners.get(sock.port) is sock:
            del self.listeners[sock.port]
        # Purge readiness state *now*, before the fd is recycled: a
        # stale interest-list or selector entry matching a reused fd
        # would wake a dispatcher for the wrong socket.
        if sock.watchers:
            for ep, fd in sock.watchers:
                if ep.interest.get(fd) is sock:
                    del ep.interest[fd]
                    ep.ready.pop(fd, None)
            del sock.watchers[:]
        if sock.selectors:
            del sock.selectors[:]
        peer = sock.peer
        if peer is not None and peer.state not in ("closed",):
            self._world.schedule_in(
                self._link_cycles,
                lambda: self._deliver_eof(peer),
                name="net-eof#%d" % peer.sid,
            )

    def _deliver_eof(self, sock: Socket) -> None:
        self._world.spend(costs.NET_DELIVER, fire=False)
        if sock.state == "closed" or sock.rx_eof:
            return
        sock.rx_eof = True
        sock.ready = True
        self.eof_delivered += 1
        if sock.kernel_owned:
            owner = sock.owner
            if owner is not None:
                owner.eof(sock)
            return
        # Buffered data drains first; EOF only wakes an *empty* socket.
        if not sock.rx:
            while sock.pending_recvs:
                self._complete(sock.pending_recvs.popleft(), EOF)
        self._notify_selectors(sock)
        if sock.watchers:
            self._epoll_edges(sock)

    # -- completion (both of the paper's paths) ------------------------------

    def _complete(self, request: NetRequest, raw: Any) -> None:
        if request.cancelled:
            return
        request.done = True
        request.complete_time = self._world.now
        if request.finisher is not None:
            request.result = request.finisher(raw)
        else:
            request.result = raw
        if self.channel is not None:
            # First-class path: the datum goes straight to the
            # user-level scheduler through shared memory.
            self.fc_completions += 1
            self.channel.notify(request.requester, request)
            return
        self.sigio_completions += 1
        cause = SigCause(kind="io", thread=request.requester, data=request)
        self._world.spend(costs.INSN, fire=False)
        self._kernel.post_signal(self._proc, SIGIO, cause)

    def _notify_selectors(self, sock: Socket) -> None:
        if not sock.selectors:
            return
        for request in list(sock.selectors):
            if request.done or request.cancelled:
                continue
            ready = _ready_fds(request.entries)
            if ready:
                self._deregister_select(request)
                self._complete(request, ready)

    def _deregister_select(self, request: NetRequest) -> None:
        for sock in request.entries.values():
            if sock.selectors and request in sock.selectors:
                sock.selectors.remove(request)

    def __repr__(self) -> str:
        return "NetStack(conns=%d, msgs=%d, stalls=%d)" % (
            self.connections_opened,
            self.messages_delivered,
            self.backpressure_stalls,
        )


class ResidentClient:
    """One kernel-resident simulated client: an O(1) state record.

    The paper's thesis applied to the load generator: a client needs
    no thread, no generator, no stack -- just kernel state advanced by
    event-horizon entries.  The record *is* the socket's owner; the
    kernel calls its ``connected``/``rx``/``eof`` methods directly from
    link events, and the only other entries it touches are its
    pre-scheduled arrival and its think-time wakeups.

    Lifecycle (the states are implicit in ``sock``/``sent``):

    ``CONNECT``(arrive) -> ``SEND`` -> ``AWAIT_REPLY``(rx) ->
    ``THINK``(timer) -> ``SEND`` ... -> ``CLOSE`` after
    ``requests_per_client`` replies.
    """

    __slots__ = ("engine", "cid", "sock", "sent")

    def __init__(self, engine: "ResidentClientEngine", cid: int) -> None:
        self.engine = engine
        self.cid = cid
        self.sock: Optional[Socket] = None
        self.sent = 0

    # -- CONNECT: the pre-scheduled arrival event ------------------------

    def arrive(self) -> None:
        eng = self.engine
        sock = eng.stack.remote_connect(eng.port, owner=self)
        if sock is None:
            eng.refused += 1
            collector = eng.collector
            if collector is not None:
                collector.refused += 1
            return
        self.sock = sock
        eng.active += 1
        if eng.active > eng.peak_active:
            eng.peak_active = eng.active

    # -- SEND ------------------------------------------------------------

    def send(self) -> None:
        eng = self.engine
        meta = {
            "t0": eng.world.now_us,
            "cid": self.cid,
            "rid": self.sent,
        }
        self.sent += 1
        eng.requests_sent += 1
        eng.stack.remote_send(self.sock, eng.req_bytes, meta)

    # -- kernel upcalls (socket owner protocol) --------------------------

    def connected(self, sock: Socket) -> None:
        self.send()

    def rx(self, sock: Socket, msg: Message) -> None:
        """AWAIT_REPLY satisfied: sample latency, then THINK or CLOSE."""
        eng = self.engine
        eng.replies += 1
        latency = eng.world.now_us - msg.meta["t0"]
        eng.latencies_us.append(latency)
        collector = eng.collector
        if collector is not None:
            collector.latencies_us.append(latency)
        if self.sent >= eng.requests_per_client:
            eng.stack.remote_close(self.sock)
            eng.completed += 1
            eng.active -= 1
            return
        eng.world.schedule_in(
            eng.think_cycles, self.send, name="client-%d-think" % self.cid
        )

    def eof(self, sock: Socket) -> None:
        """Server closed first: the record simply goes quiescent."""


class ResidentClientEngine:
    """The shared half of a kernel-resident client fleet.

    Holds everything common to the records (stack, protocol parameters,
    result counters) so each :class:`ResidentClient` is four slots.
    The front-end (:class:`repro.net.loadgen.LoadGenerator`) compiles
    the arrival process into pre-scheduled events whose actions are the
    records' bound ``arrive`` methods, and reads results back through
    this object.  Registers itself on ``stack.resident`` so the
    observability layer can harvest ``loadgen.resident.*`` counters.
    """

    __slots__ = (
        "stack", "world", "port", "requests_per_client", "req_bytes",
        "think_cycles", "collector", "latencies_us", "requests_sent",
        "replies", "refused", "completed", "spawned", "active",
        "peak_active",
    )

    def __init__(
        self,
        stack: NetStack,
        port: int,
        requests_per_client: int,
        req_bytes: int,
        think_us: float,
        collector: Optional[Any] = None,
    ) -> None:
        self.stack = stack
        self.world = stack._world
        self.port = port
        self.requests_per_client = requests_per_client
        self.req_bytes = req_bytes
        self.think_cycles = max(1, self.world.cycles_for_us(think_us))
        self.collector = collector
        self.latencies_us: List[float] = []
        self.requests_sent = 0
        self.replies = 0
        self.refused = 0
        self.completed = 0  # clients that finished all requests + closed
        self.spawned = 0
        self.active = 0  # arrived (admitted) and not yet closed
        self.peak_active = 0
        stack.resident = self

    def client(self, cid: int) -> ResidentClient:
        self.spawned += 1
        return ResidentClient(self, cid)

    def counters(self) -> Dict[str, int]:
        """Harvested as ``loadgen.resident.*`` by the obs layer."""
        return {
            "loadgen.resident.spawned": self.spawned,
            "loadgen.resident.active": self.active,
            "loadgen.resident.peak_active": self.peak_active,
            "loadgen.resident.completed": self.completed,
            "loadgen.resident.refused": self.refused,
            "loadgen.resident.requests_sent": self.requests_sent,
            "loadgen.resident.replies": self.replies,
        }


def _discard(queue: Optional[deque], request: NetRequest) -> None:
    if queue is None:
        return
    try:
        queue.remove(request)
    except ValueError:
        pass
