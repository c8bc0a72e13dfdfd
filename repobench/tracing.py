"""Per-layer host-time tracing for the traced benchmark run.

Spans are recorded from outside the program: :class:`LayerTracer`
replaces public functions of each layer (class attributes and module
functions) with thin wrappers for the duration of a traced pass and puts
the originals back afterwards.  Nothing under ``src/`` knows it is being
traced, and nothing a wrapper does reads or moves the simulated clock, so
simulated outputs stay bit-identical to an untraced run.

Every span is kept in memory in compact arrays (name, start, end,
parent).  :meth:`SpanLog.summary` computes each span's self time -- its
duration minus the time its child spans cover -- and sums it per name.
Counters that live on the program's own objects (event queues, register
windows, segment cache, socket stack) are harvested when each
``PthreadsRuntime.run`` returns, as deltas, so a runtime that is run
twice is not counted twice.
"""

from __future__ import annotations

import weakref
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Library entry-point families reported as ``core.libcall.<family>``.
LIBCALL_FAMILIES = ("mutex", "cond", "thread", "signal", "timer", "net", "other")

#: ``unix.net.<op>`` names and the NetStack methods folded into each:
#: the server side's ``sys_*``/``wait_*`` calls and the resident
#: clients' ``remote_*`` calls are both socket-layer work.
NET_OPS: Dict[str, Tuple[str, ...]] = {
    "accept": ("sys_accept", "wait_accept"),
    "connect": ("sys_connect", "wait_connect", "remote_connect"),
    "send": ("sys_send", "wait_send", "remote_send"),
    "recv": ("sys_recv", "wait_recv"),
    "select": ("sys_select", "wait_select"),
    "epoll_ctl": ("sys_epoll_ctl",),
    "epoll_wait": ("sys_epoll_wait", "wait_epoll"),
    "close": ("sys_close", "remote_close"),
}


class SpanLog:
    """Spans in memory: four parallel arrays plus the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``.

        ``self_s`` of a span is its duration minus its children's
        durations; summed over every span it equals the summed duration
        of the root spans (those with no parent).  ``roots_s`` carries
        that sum so callers can check the identity.
        """
        if self._stack:
            raise RuntimeError("summary() with %d spans open" % len(self._stack))
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0] * n
        roots = 0
        for sid in range(n):
            dur = end[sid] - start[sid]
            p = parent[sid]
            if p >= 0:
                child[p] += dur
            else:
                roots += dur
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for sid in range(n):
            dur = end[sid] - start[sid]
            nid = name[sid]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[sid]
        out = {
            nm: {"calls": calls[i], "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, nm in enumerate(self.names)
        }
        out["__roots__"] = {"calls": 0, "total_s": roots / 1e9, "self_s": 0.0}
        return out


class LayerTracer:
    """Install span wrappers around each layer's public functions.

    Use as a context manager around one traced pass; ``log`` holds the
    spans and ``counters`` the harvested per-layer counts afterwards.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._restore: List[Tuple[Any, str, Any]] = []
        self._seen: "weakref.WeakKeyDictionary[Any, Dict[str, float]]" = (
            weakref.WeakKeyDictionary()
        )

    # -- span helpers ---------------------------------------------------------

    def span(self, name: str):
        """Context manager for a benchmark-level span."""
        return _Span(self.log, self.log.name_id(name))

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(result, args)`` runs outside the span, for counters
        computed from the call's arguments or result.
        """
        orig = owner.__dict__[attr]
        log = self.log
        nid = log.name_id(name)
        open_, close = log.open, log.close

        if after is None:

            def wrapper(*args, **kwargs):
                sid = open_(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    close(sid)

        else:

            def wrapper(*args, **kwargs):
                sid = open_(nid)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    close(sid)
                after(result, args)
                return result

        wrapper.__wrapped__ = orig
        self._patch(owner, attr, wrapper)

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        from repro.check.explore import Explorer
        from repro.check.invariants import CheckContext
        from repro.core import (  # noqa: F401 - every LibraryOps subclass
            barrier, cancel, cleanup, cond, iolib, jmp, mutex, netlib, once,
            rwlock, semaphore, signals, stdio, threads, timerq, tsd,
        )
        from repro.core.libbase import LibraryOps
        from repro.core.runtime import PthreadsRuntime
        from repro.core.sigdeliver import SignalDelivery
        from repro.sim.events import Event, EventQueue
        from repro.sim.world import World
        from repro.unix.kernel import UnixKernel
        from repro.unix.net import NetStack, ResidentClient

        counters = self.counters
        try:
            # core.libcall.<family>: every registered entry point.  The
            # registry binds methods when a runtime is built, so class
            # attributes patched now are what new runtimes register.
            families = {
                mutex.MutexOps: "mutex",
                cond.CondOps: "cond",
                threads.ThreadOps: "thread",
                signals.SignalOps: "signal",
                timerq.TimerOps: "timer",
                netlib.NetOps: "net",
            }
            for ops in _subclasses(LibraryOps):
                family = families.get(ops, "other")
                for method in set(ops.__dict__.get("ENTRIES", {}).values()):
                    if method in ops.__dict__:
                        self._wrap(ops, method, "core.libcall." + family)

            def fired(result, args):
                counters["sim.events.fired"] += result

            self._wrap(EventQueue, "fire_due", "sim.events", fired)
            cancel = Event.__dict__["cancel"]

            def counted_cancel(event):
                if not (event.cancelled or event.fired):
                    counters["sim.events.cancelled"] += 1
                return cancel(event)

            self._patch(Event, "cancel", counted_cancel)

            advance = World.__dict__["advance_to_next_event"]
            nid_world = self.log.name_id("sim.world")
            log = self.log

            def idle(world):
                when = world.events.next_time()
                if when is not None and when > world.now:
                    counters["sim.world.idle_cycles"] += when - world.now
                counters["sim.world.idle_jumps"] += 1
                sid = log.open(nid_world)
                try:
                    return advance(world)
                finally:
                    log.close(sid)

            self._patch(World, "advance_to_next_event", idle)

            for method in ("direct_signal", "deliver_to_thread"):
                self._wrap(SignalDelivery, method, "core.sigdeliver")
            self._wrap(UnixKernel, "deliver_signals", "unix.deliver_signals")

            def select_fds(result, args):
                counters["unix.net.select_fds"] += len(args[1])

            for op, methods in NET_OPS.items():
                for method in methods:
                    after = select_fds if op == "select" else None
                    self._wrap(NetStack, method, "unix.net." + op, after)
            for method in ("arrive", "send", "rx"):
                self._wrap(ResidentClient, method, "net.loadgen")

            self._wrap(CheckContext, "on_kernel_release", "check.invariants")

            def explored(result, args):
                counters["check.choice_points"] += len(result.trail)

            self._wrap(Explorer, "run_once", "check.run", explored)

            def harvested(result, args):
                self._harvest(args[0])

            self._wrap(PthreadsRuntime, "run", "core.runtime", harvested)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- counters read off the program's objects ------------------------------

    def _harvest(self, rt: Any) -> None:
        now = _runtime_counters(rt)
        before = self._seen.get(rt, {})
        for key, value in now.items():
            self.counters[key] += value - before.get(key, 0)
        self._seen[rt] = now
        net = rt.net
        if net is not None and not before:
            world = rt.world
            self.samples["accept_wait_us"].extend(world.us(c) for c in net.accept_waits)
            self.counters["unix.net.accept_depth_max"] = max(
                self.counters["unix.net.accept_depth_max"],
                max(net.accept_depths, default=0),
            )


def _runtime_counters(rt: Any) -> Dict[str, float]:
    world = rt.world
    windows = world.windows
    out = {
        "hw.window_traps": windows.overflow_traps
        + windows.underflow_traps
        + windows.flush_traps,
        "sim.events.scheduled": world.events._seq,
        "sim.events.batch_pops": world.events.batch_pops,
        "sim.world.cycles": world.now,
        "core.steps": rt.steps,
        "core.kernel.enters": rt.kern.enters,
        "core.kernel.deferred": rt.kern.deferred_total,
        "core.dispatcher.context_switches": rt.dispatcher.context_switches,
        "core.pool.hits": rt.pool.hits,
        "core.pool.misses": rt.pool.misses,
        "unix.syscalls": rt.unix.total_syscalls,
    }
    segments = rt._segments
    if segments is not None:
        c = segments.counters()
        out["sim.segments.steps_replayed"] = c["exec.segment.steps_replayed"]
        out["sim.segments.hits"] = c["exec.segment.hits"]
        out["sim.segments.misses"] = c["exec.segment.misses"]
        out["sim.segments.record_failures"] = c["exec.segment.record_failures"]
    net = rt.net
    if net is not None:
        out["unix.net.backpressure_stalls"] = net.backpressure_stalls
        out["unix.net.epoll_waits"] = net.epoll_waits
        out["unix.net.epoll_ready_returned"] = net.epoll_ready_returned
        out["unix.net.epoll_stale_dropped"] = net.epoll_stale_dropped
    check = rt.check
    if check is not None:
        out["check.invariants.violations"] = check.violations_found
    return out


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


class _Span:
    __slots__ = ("log", "nid", "sid")

    def __init__(self, log: SpanLog, nid: int) -> None:
        self.log = log
        self.nid = nid

    def __enter__(self) -> None:
        self.sid = self.log.open(self.nid)

    def __exit__(self, *exc) -> None:
        self.log.close(self.sid)
