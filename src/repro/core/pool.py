"""The TCB/stack memory pool.

The paper measures thread creation with "the thread control block and
stack pre-cached in a memory pool to avoid dynamic memory allocation"
and notes that allocation otherwise accounts for ~70 % of creation
time.  :class:`ThreadPool` implements that cache; the ablation
benchmark (``benchmarks/test_ablation_pool.py``) reproduces the claim
by creating threads with and without it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hw import costs
from repro.hw.memory import Heap, Stack
from repro.sim.world import World

#: Simulated TCB footprint in bytes (bookkeeping only).
TCB_BYTES = 512


class ThreadPool:
    """Pre-cached (TCB address, stack) pairs.

    Parameters
    ----------
    world, heap:
        Cost accounting and backing storage.
    size:
        Number of pre-cached entries (0 disables pooling).
    stack_size:
        Stack size of pooled entries; requests for other sizes bypass
        the pool.
    """

    def __init__(
        self, world: World, heap: Heap, size: int, stack_size: int
    ) -> None:
        if size < 0:
            raise ValueError("pool size must be >= 0: %r" % size)
        self._world = world
        self._heap = heap
        self.stack_size = stack_size
        self.capacity = size
        self._entries: List[Tuple[int, Stack]] = []
        self.hits = 0
        self.misses = 0
        self.returns = 0
        for _ in range(size):
            self._entries.append(self._allocate(stack_size))

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(self, stack_size: Optional[int] = None) -> Tuple[int, Stack]:
        """Take a TCB/stack pair, from the pool when possible.

        A pool hit costs a couple of pointer moves; a miss pays full
        dynamic allocation (and possibly ``sbrk``).
        """
        want = stack_size if stack_size is not None else self.stack_size
        if self._entries and want <= self.stack_size:
            self.hits += 1
            self._world.spend(costs.POOL_POP, fire=False)
            tcb_addr, stack = self._entries.pop()
            stack.reset()
            return tcb_addr, stack
        self.misses += 1
        # A freshly allocated stack is cold: its first use takes
        # zero-fill page faults.  Cached stacks stay resident, which is
        # the cache's whole justification -- hits skip this entirely.
        self._world.spend(costs.STACK_FAULT_IN, fire=False)
        return self._allocate(want)

    def release(self, tcb_addr: int, stack: Stack) -> None:
        """Return a pair to the pool (or free it if it doesn't fit)."""
        fits = (
            stack.size == self.stack_size
            and len(self._entries) < self.capacity
        )
        if fits:
            self.returns += 1
            self._world.spend(costs.POOL_PUSH, fire=False)
            self._entries.append((tcb_addr, stack))
        else:
            self._heap.free(tcb_addr)
            self._heap.free(stack.base - stack.size)

    def _allocate(self, stack_size: int) -> Tuple[int, Stack]:
        tcb_addr = self._heap.malloc(TCB_BYTES)
        stack_lo = self._heap.malloc(stack_size)
        # A generous redzone doubles as the signal stack: fake-call
        # wrappers and handlers still run after user code exhausts the
        # regular area.
        stack = Stack(
            base=stack_lo + stack_size, size=stack_size, redzone=2048
        )
        return tcb_addr, stack
