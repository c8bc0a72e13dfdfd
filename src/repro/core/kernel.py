"""The library kernel: a monolithic monitor.

The paper protects all library data structures with one coarse lock,
the *kernel flag*: while it is set, signal handling is deferred (the
universal handler only logs the signal and sets the *dispatcher flag*).
Leaving the kernel either simply clears the flag, or -- if the
dispatcher flag was set while inside -- invokes the dispatcher, which
may context-switch.

``enter``/``leave`` are the operations Table 2's first row times
("enter and exit Pthreads kernel"), the library's analogue of a UNIX
kernel call at a fraction of the cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.core.errors import PthreadsInternalError
from repro.hw import costs
from repro.unix.signals import SigCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


class LibKernel:
    """Kernel flag, dispatcher flag, and the deferred-signal log."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self._runtime = runtime
        self.kernel_flag = False
        self.dispatcher_flag = False
        #: Signals caught by the universal handler while the kernel flag
        #: was set; drained by the dispatcher (Figure 2's restart loop).
        self.deferred_signals: List[Tuple[int, SigCause]] = []
        #: First-class I/O upcalls that arrived while in the kernel
        #: (drained alongside the deferred signals).
        self.deferred_upcalls: List[object] = []
        self.enters = 0
        self.deferred_total = 0

    def enter(self) -> None:
        """Set the kernel flag (begin a library critical section)."""
        if self.kernel_flag:
            raise PthreadsInternalError(
                "nested Pthreads kernel entry (monitor is not re-entrant)"
            )
        world = self._runtime.world
        clock = world.clock
        world.spend(costs.ENTER_KERNEL, fire=False)
        self.kernel_flag = True
        self.enters += 1
        # Events due *now* fire inside the critical section, which is
        # exactly what exercises the defer-to-dispatcher machinery.
        # (fire_due's horizon gate, checked inline.)
        horizon = world.events._horizon
        if horizon is not None and horizon <= clock.cycles:
            world.fire_due()

    def leave(self) -> None:
        """Leave the kernel; run the dispatcher if it was requested."""
        if not self.kernel_flag:
            raise PthreadsInternalError("leaving Pthreads kernel while outside")
        runtime = self._runtime
        world = runtime.world
        clock = world.clock
        world.spend(costs.LEAVE_KERNEL, fire=False)
        # Drain events that became due during the critical section while
        # the flag is still set: their signals take the log-and-defer
        # path and are handled by the dispatcher below (Figure 2).
        events = world.events
        horizon = events._horizon
        if horizon is not None and horizon <= clock.cycles:
            world.fire_due()
        policy = runtime.policy
        if policy is not None:
            policy.on_kernel_exit(runtime)
        check = runtime.check
        if check is not None:
            # Every kernel-flag release is a point where the library's
            # shared state must be consistent: run the invariants here
            # (raises InvariantViolation on the first broken rule).
            check.on_kernel_release(runtime)
        if self.dispatcher_flag:
            # The dispatcher clears both flags itself (Figure 2).
            runtime.dispatcher.run()
        else:
            self.kernel_flag = False
        horizon = events._horizon
        if horizon is not None and horizon <= clock.cycles:
            world.fire_due()

    def request_dispatch(self) -> None:
        """Ask for the dispatcher on kernel exit (new thread ready,
        preemption needed, signal logged, ...)."""
        self.dispatcher_flag = True

    def log_deferred(self, sig: int, cause: SigCause) -> None:
        """Record a signal caught while the kernel flag was set."""
        self._runtime.world.spend(costs.SIG_LOG_IN_KERNEL, fire=False)
        self.deferred_signals.append((sig, cause))
        self.deferred_total += 1
        self.dispatcher_flag = True

    def __repr__(self) -> str:
        return "LibKernel(kernel=%s, dispatcher=%s, deferred=%d)" % (
            self.kernel_flag,
            self.dispatcher_flag,
            len(self.deferred_signals),
        )
