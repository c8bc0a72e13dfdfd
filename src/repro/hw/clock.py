"""The virtual cycle clock.

Everything in the reproduction is timed against this clock.  It counts
CPU cycles; the :class:`~repro.hw.costs.CostModel` of the simulated
machine converts cycles to microseconds, which is the unit the paper's
Table 2 reports.

The clock also supports *watchers*: callbacks fired whenever the clock
advances with the ``(before, after)`` cycle counts.  The cycle profiler
(``repro.obs.profile``) is the only user; it attributes every advance
to a category and a thread.  Timer expirations and external signals
do not use watchers -- the event queue fires them from ``World.spend``
and the executor's work-splitting loop.
"""

from __future__ import annotations

from typing import Callable, List

Watcher = Callable[[int, int], None]


class VirtualClock:
    """A monotonically increasing cycle counter.

    ``cycles`` is a plain attribute (executor hot paths read it tens of
    times per step; a property would dominate); treat it as read-only
    outside this class and advance via :meth:`advance`.

    Parameters
    ----------
    start:
        Initial cycle count (defaults to 0).
    """

    __slots__ = ("cycles", "_watchers")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start in the past: %r" % (start,))
        self.cycles = start
        self._watchers: List[Watcher] = []

    def advance(self, cycles: int) -> None:
        """Move the clock forward by ``cycles`` (must be >= 0)."""
        if cycles <= 0:
            if cycles == 0:
                return
            raise ValueError("cannot advance clock backwards: %r" % (cycles,))
        before = self.cycles
        self.cycles = after = before + cycles
        if self._watchers:
            for watcher in self._watchers:
                watcher(before, after)

    def advance_to(self, cycles: int) -> None:
        """Move the clock forward to an absolute instant (>= now)."""
        if cycles < self.cycles:
            raise ValueError(
                "cannot rewind clock from %d to %d" % (self.cycles, cycles)
            )
        self.advance(cycles - self.cycles)

    def add_watcher(self, watcher: Watcher) -> None:
        """Register ``watcher(before, after)`` to run on every advance."""
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: Watcher) -> None:
        self._watchers.remove(watcher)

    def __repr__(self) -> str:
        return "VirtualClock(cycles=%d)" % self.cycles
