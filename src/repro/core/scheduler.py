"""The thread scheduler: ready-queue management and preemption checks.

Priority-driven preemptive scheduling: whenever a thread becomes ready
with a priority above the running thread's, the dispatcher flag is set
and the preemption happens on the next kernel exit.  Yielded and
time-sliced threads go to the tail of their priority level; preempted
threads go to the head (they did not choose to stop running).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.queues import ReadyQueue
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


class Scheduler:
    """Ready-queue operations, cost-charged."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self._runtime = runtime
        self.ready = ReadyQueue()

    def _charge_enqueue(self) -> None:
        self._runtime.world.spend(costs.READY_ENQUEUE, fire=False)

    # -- making threads runnable ------------------------------------------------

    def make_ready(self, tcb: Tcb, front: bool = False) -> None:
        """Transition a thread to READY and check for preemption.

        Must be called with the kernel flag set (all callers are
        library internals).
        """
        runtime = self._runtime
        runtime.world.spend(costs.READY_ENQUEUE, fire=False)
        tcb.state = ThreadState.READY
        tcb.wait = None
        self.ready.enqueue(tcb, front=front)
        current = runtime.current
        if current is None or (
            tcb.effective_priority > current.effective_priority
        ):
            runtime.kern.dispatcher_flag = True  # request_dispatch inline
        # Signals parked while the thread sat in an uninterruptible
        # wait get their fake calls installed before it runs again
        # (guarded here: the pending list is empty in the common case).
        if tcb.pending._order:
            runtime.sigdeliver.on_thread_runnable(tcb)

    def take(self, tcb: Tcb) -> bool:
        """Remove a specific thread from the ready queue."""
        return self.ready.remove(tcb)

    # -- displacing the running thread ---------------------------------------------

    def yield_current(self) -> None:
        """``pthread_yield``: current to the tail of its own level."""
        self._requeue_current(front=False)

    def preempt_current(self) -> None:
        """Preemption: current to the head of its own level."""
        self._requeue_current(front=True)

    def slice_current(self) -> None:
        """Time-slice expiry (signal action rule 2): tail of own level."""
        self._requeue_current(front=False)

    def pervert_current_to_lowest(self) -> None:
        """Perverted policies: current to the tail of the lowest queue."""
        current = self._must_current()
        self._runtime.world.spend(costs.READY_ENQUEUE, fire=False)
        current.state = ThreadState.READY
        self.ready.enqueue_lowest_tail(current)
        self._runtime.current = None
        self._runtime.kern.request_dispatch()

    def preempt_current_for_dispatch(self) -> None:
        """Dispatcher-internal preemption: like :meth:`preempt_current`
        but without re-requesting a dispatch (we are already in one)."""
        current = self._must_current()
        self._charge_enqueue()
        current.state = ThreadState.READY
        self.ready.enqueue(current, front=True)
        self._runtime.current = None

    def _requeue_current(self, front: bool) -> None:
        current = self._must_current()
        self._charge_enqueue()
        current.state = ThreadState.READY
        self.ready.enqueue(current, front=front)
        self._runtime.current = None
        self._runtime.kern.request_dispatch()

    def _must_current(self) -> Tcb:
        current = self._runtime.current
        if current is None:
            raise RuntimeError("no current thread to displace")
        return current

    # -- priority changes ----------------------------------------------------------

    def priority_changed(self, tcb: Tcb) -> None:
        """Re-file a thread after a priority adjustment.

        Ready threads are repositioned in the ready queue; the running
        thread may lose the CPU if someone ready now outranks it; a
        blocked thread's wait-queue position is the wait object's
        business (protocol code resorts it there).
        """
        runtime = self._runtime
        runtime.world.spend(costs.PRIO_ADJUST, fire=False)
        if tcb.state is ThreadState.READY:
            front = runtime.config.unboost_placement == "head"
            self.ready.reposition(tcb, front=front)
            current = runtime.current
            if current is not None and (
                tcb.effective_priority > current.effective_priority
            ):
                runtime.kern.request_dispatch()
        elif tcb is runtime.current:
            head = self.ready.peek()
            if head is not None and (
                head.effective_priority > tcb.effective_priority
            ):
                runtime.kern.request_dispatch()
