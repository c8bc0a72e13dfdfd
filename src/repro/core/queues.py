"""Priority queues of threads.

Two queue shapes appear throughout the library:

- :class:`ReadyQueue`: one FIFO per priority level (the classic
  multi-level ready queue).  Supports head/tail insertion (preempted
  threads go to the head, yielded/sliced threads to the tail) and the
  perverted policies' "tail of the lowest priority queue" reposition.
- :class:`PrioWaitQueue`: a priority-ordered wait list (mutex and
  condition variable sleepers): the highest-priority waiter wakes
  first, FIFO among equals, and a waiter's position follows protocol
  priority boosts.

Host-speed notes: the ready queue maintains a bisect-sorted index of
occupied priority levels (``_index``, ascending) plus a thread->level
map (``_where``), so ``dequeue``/``peek``/``enqueue_lowest_tail`` never
re-derive the occupied set with ``sorted()`` and ``remove`` never scans
every level.  The wait queue keeps a parallel sort-key list so ``add``
is a bisect instead of a linear Python-level scan.  Behaviour is
identical to the naive implementations (asserted by the equivalence
property tests in ``tests/properties/test_prop_queue_equivalence.py``).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.core import config
from repro.core.tcb import Tcb


class ReadyQueue:
    """Multi-level FIFO ready queue, highest priority first."""

    __slots__ = ("_levels", "_index", "_where", "_count")

    def __init__(self) -> None:
        self._levels: Dict[int, Deque[Tcb]] = {}
        #: Ascending sorted list of priority levels with queued threads.
        self._index: List[int] = []
        #: Which level each queued thread is filed at (a perverted-policy
        #: reposition may file a thread away from its own priority).
        self._where: Dict[Tcb, int] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, tcb: Tcb) -> bool:
        return tcb in self._where

    def _file(self, tcb: Tcb, priority: int, front: bool) -> None:
        level = self._levels.get(priority)
        if level is None:
            level = self._levels[priority] = deque()
        if not level:
            insort(self._index, priority)
        if front:
            level.appendleft(tcb)
        else:
            level.append(tcb)
        self._where[tcb] = priority
        self._count += 1

    def enqueue(self, tcb: Tcb, front: bool = False) -> None:
        """Insert at the thread's current effective priority.

        (The body is :meth:`_file` inlined -- enqueue runs on every
        ready transition.)
        """
        priority = tcb.effective_priority
        level = self._levels.get(priority)
        if level is None:
            level = self._levels[priority] = deque()
        if not level:
            insort(self._index, priority)
        if front:
            level.appendleft(tcb)
        else:
            level.append(tcb)
        self._where[tcb] = priority
        self._count += 1

    def enqueue_lowest_tail(self, tcb: Tcb) -> None:
        """Perverted-policy reposition: tail of the lowest priority queue.

        The thread keeps its priority; it is merely *ordered* behind
        everything currently ready (the paper accepts that this may
        violate priority scheduling -- that is the point).
        """
        index = self._index
        lowest = index[0] if index else config.PTHREAD_MIN_PRIORITY
        self._file(tcb, lowest, front=False)

    def dequeue(self) -> Optional[Tcb]:
        """Pop the head of the highest non-empty priority level."""
        index = self._index
        if not index:
            return None
        priority = index[-1]
        level = self._levels[priority]
        tcb = level.popleft()
        if not level:
            index.pop()
        del self._where[tcb]
        self._count -= 1
        return tcb

    def peek(self) -> Optional[Tcb]:
        index = self._index
        if not index:
            return None
        return self._levels[index[-1]][0]

    def remove(self, tcb: Tcb) -> bool:
        """Remove a specific thread wherever it is queued."""
        priority = self._where.pop(tcb, None)
        if priority is None:
            return False
        level = self._levels[priority]
        level.remove(tcb)
        if not level:
            self._index.remove(priority)
        self._count -= 1
        return True

    def reposition(self, tcb: Tcb, front: bool = False) -> None:
        """Re-file a thread after its effective priority changed."""
        if self.remove(tcb):
            self.enqueue(tcb, front=front)

    def threads(self) -> List[Tcb]:
        """All queued threads, highest priority first, FIFO within."""
        out: List[Tcb] = []
        levels = self._levels
        for priority in reversed(self._index):
            out.extend(levels[priority])
        return out

    def all_at(self, priority: int) -> List[Tcb]:
        return list(self._levels.get(priority, ()))

    def __repr__(self) -> str:
        parts = [
            "%d:[%s]" % (p, ",".join(t.name for t in self._levels[p]))
            for p in reversed(self._index)
        ]
        return "ReadyQueue(%s)" % " ".join(parts)


class PrioWaitQueue:
    """Priority-ordered waiter list (highest first, FIFO among equals)."""

    __slots__ = ("_items", "_keys")

    def __init__(self) -> None:
        self._items: List[Tcb] = []
        #: Parallel sort keys (negated priority: ascending keys give the
        #: highest priority first; bisect_right keeps FIFO among equals).
        self._keys: List[int] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, tcb: Tcb) -> bool:
        return tcb in self._items

    def __iter__(self) -> Iterator[Tcb]:
        return iter(self._items)

    def add(self, tcb: Tcb) -> None:
        """Insert behind all waiters of >= priority (stable)."""
        key = -tcb.effective_priority
        # After every waiter of >= priority (equal keys sort before),
        # before the first strictly-lower-priority waiter.
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._items.insert(index, tcb)

    def pop_highest(self) -> Optional[Tcb]:
        if not self._items:
            return None
        del self._keys[0]
        return self._items.pop(0)

    def remove(self, tcb: Tcb) -> bool:
        try:
            index = self._items.index(tcb)
        except ValueError:
            return False
        del self._items[index]
        del self._keys[index]
        return True

    def resort(self, tcb: Tcb) -> None:
        """Re-file one waiter whose priority changed (boost/unboost)."""
        if self.remove(tcb):
            self.add(tcb)

    def highest_priority(self) -> Optional[int]:
        if not self._items:
            return None
        return self._items[0].effective_priority

    def threads(self) -> List[Tcb]:
        return list(self._items)

    def __repr__(self) -> str:
        return "PrioWaitQueue([%s])" % ", ".join(
            "%s@%d" % (t.name, t.effective_priority) for t in self._items
        )
