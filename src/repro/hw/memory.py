"""Simulated memory: an ``sbrk``-backed heap and thread stacks.

The paper notes that thread creation/termination "involves allocation /
deallocation of heap space which sporadically may result in kernel calls
to ``sbrk``" and that allocation accounts for ~70 % of creation time --
motivating the TCB/stack pool (see :mod:`repro.core.pool` and the
pool-ablation benchmark).  This module models that cost structure: the
heap hands out blocks from an arena; when the arena is exhausted it
calls the (simulated, expensive) ``sbrk`` syscall to grow.

Stacks model a stack pointer with a redzone so the library can detect
overflow of a thread's stack -- the failure the paper's "no unlimited
stack growth" design objective protects against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.hw import costs
from repro.hw.clock import VirtualClock
from repro.hw.costs import CostModel


class MemoryError_(Exception):
    """Out of simulated memory."""


class StackOverflow(Exception):
    """A simulated thread stack grew past its redzone."""


class Heap:
    """A bump-with-freelist heap over an ``sbrk``-grown arena.

    Parameters
    ----------
    clock, model:
        Charge allocation costs.
    arena:
        Initial arena size in bytes.
    limit:
        Hard ceiling on total arena size (``sbrk`` fails past this).
    sbrk:
        Callback performing the simulated ``sbrk`` syscall (charged by
        the UNIX kernel); receives the grow amount.  When None, growth
        is charged locally at syscall cost.
    """

    def __init__(
        self,
        clock: VirtualClock,
        model: CostModel,
        arena: int = 1 << 20,
        limit: int = 1 << 28,
        sbrk: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._clock = clock
        self._model = model
        self._arena = arena
        self._limit = limit
        self._brk = 0  # high-water mark inside the arena
        self._free: Dict[int, list] = {}  # size -> [addresses]
        self._sizes: Dict[int, int] = {}  # address -> size
        self._next_addr = 0x1000
        self._sbrk = sbrk
        self.sbrk_calls = 0
        self.allocated_bytes = 0

    @property
    def live_bytes(self) -> int:
        return self.allocated_bytes

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns a simulated address."""
        if size <= 0:
            raise ValueError("allocation size must be positive: %r" % size)
        self._clock.advance(self._model.cost(costs.HEAP_ALLOC))
        bucket = self._free.get(size)
        if bucket:
            addr = bucket.pop()
        else:
            while self._brk + size > self._arena:
                self._grow(max(size, self._arena))
            self._brk += size
            addr = self._next_addr
            self._next_addr += size
        self._sizes[addr] = size
        self.allocated_bytes += size
        return addr

    def free(self, addr: int) -> None:
        """Release a block previously returned by :meth:`malloc`."""
        self._clock.advance(self._model.cost(costs.HEAP_FREE))
        try:
            size = self._sizes.pop(addr)
        except KeyError:
            raise MemoryError_("free of unallocated address %#x" % addr)
        self.allocated_bytes -= size
        self._free.setdefault(size, []).append(addr)

    def _grow(self, amount: int) -> None:
        if self._arena + amount > self._limit:
            raise MemoryError_(
                "heap limit exceeded: %d + %d > %d"
                % (self._arena, amount, self._limit)
            )
        self.sbrk_calls += 1
        if self._sbrk is not None:
            self._sbrk(amount)
        else:
            self._clock.advance(self._model.cost(costs.SYSCALL))
            self._clock.advance(self._model.cost(costs.SBRK_WORK))
        self._arena += amount


class Stack:
    """A downward-growing thread stack with a redzone.

    Frame pushes move the stack pointer down; crossing into the redzone
    raises :class:`StackOverflow`.  The Pthreads library sizes these
    from the thread attribute's ``stacksize``.
    """

    def __init__(self, base: int, size: int, redzone: int = 256) -> None:
        if size <= redzone:
            raise ValueError(
                "stack size %d not larger than redzone %d" % (size, redzone)
            )
        self.base = base  # numerically highest address
        self.size = size
        self.redzone = redzone
        self.sp = base  # current stack pointer
        self.high_water = 0  # deepest usage seen, in bytes

    @property
    def used(self) -> int:
        return self.base - self.sp

    @property
    def remaining(self) -> int:
        return self.size - self.redzone - self.used

    def push(self, nbytes: int, redzone_ok: bool = False) -> int:
        """Push a frame of ``nbytes``; returns the new stack pointer.

        ``redzone_ok`` lets signal-wrapper frames borrow the redzone
        (the library's stand-in for a signal stack), so a handler can
        still run after user code exhausted its stack.
        """
        if nbytes < 0:
            raise ValueError("frame size must be >= 0: %r" % nbytes)
        new_sp = self.sp - nbytes
        limit = self.size if redzone_ok else self.size - self.redzone
        if self.base - new_sp > limit:
            raise StackOverflow(
                "stack overflow: frame of %d bytes leaves sp %d bytes past "
                "%s (size=%d)"
                % (
                    nbytes,
                    self.base - new_sp,
                    "the stack end" if redzone_ok else "the redzone",
                    self.size,
                )
            )
        self.sp = new_sp
        self.high_water = max(self.high_water, self.used)
        return self.sp

    def pop(self, nbytes: int) -> int:
        """Pop a frame of ``nbytes``; returns the new stack pointer."""
        new_sp = self.sp + nbytes
        if new_sp > self.base:
            raise MemoryError_("stack pop past base")
        self.sp = new_sp
        return self.sp

    def reset(self) -> None:
        """Reset to empty (used when recycling a pooled stack)."""
        self.sp = self.base
        self.high_water = 0

    def __repr__(self) -> str:
        return "Stack(base=%#x, size=%d, used=%d)" % (
            self.base,
            self.size,
            self.used,
        )


# ---------------------------------------------------------------------------
# SMP cache coherence (see docs/SMP.md).
# ---------------------------------------------------------------------------


class CacheLine:
    """Directory state for one cache line shared between simulated CPUs.

    A line is either *exclusively owned* (``owner`` is a CPU index,
    ``sharers`` empty -- MESI M/E) or *shared* (``owner`` is None,
    ``sharers`` holds the CPU indices with a valid copy -- MESI S), or
    cold (neither).  ``version`` bumps on every write so spinners can
    tell "the word I am watching changed".  ``busy_until`` serializes
    exclusive transfers: the line can move to at most one new owner per
    transfer window, which is what makes a test-and-set storm degrade
    linearly with contenders, as on real coherence fabrics.
    """

    __slots__ = ("name", "owner", "sharers", "version", "busy_until",
                 "bounces")

    def __init__(self, name: str) -> None:
        self.name = name
        self.owner: Optional[int] = None
        self.sharers: set = set()
        self.version = 0
        self.busy_until = 0
        self.bounces = 0

    def holders(self) -> set:
        out = set(self.sharers)
        if self.owner is not None:
            out.add(self.owner)
        return out

    def __repr__(self) -> str:
        return "CacheLine(%s, owner=%r, sharers=%r, v=%d)" % (
            self.name, self.owner, sorted(self.sharers), self.version,
        )


class CacheDirectory:
    """Tracks cache-line ownership across N CPUs and prices transfers.

    The directory is the single source of inter-CPU contention cost:
    an access that hits the accessor's own cache costs nothing extra;
    pulling the line from another CPU costs a transfer (near or far by
    chip topology) *plus* any wait for an in-flight transfer of the
    same line (``busy_until``).  Shared (read) copies are cheap to join
    and do not serialize -- only exclusive moves bounce the line.

    ``table`` is a flat cost table (``CostModel.table()``).  Topology:
    CPUs ``[k*cpus_per_chip, (k+1)*cpus_per_chip)`` share a chip.
    """

    def __init__(
        self,
        ncpus: int,
        table: Dict[str, int],
        cpus_per_chip: int = 16,
    ) -> None:
        if ncpus < 1:
            raise ValueError("need at least one CPU: %r" % ncpus)
        if cpus_per_chip < 1:
            raise ValueError("cpus_per_chip must be >= 1: %r" % cpus_per_chip)
        self.ncpus = ncpus
        self.cpus_per_chip = cpus_per_chip
        self._near = table[costs.LINE_TRANSFER_NEAR]
        self._far = table[costs.LINE_TRANSFER_FAR]
        self._join = table[costs.LINE_SHARED_JOIN]
        self._lines: Dict[str, CacheLine] = {}
        self.transfers_near = 0
        self.transfers_far = 0
        self.shared_joins = 0
        self.bounces = 0

    def line(self, name: str) -> CacheLine:
        """Get or create the directory entry for ``name``."""
        entry = self._lines.get(name)
        if entry is None:
            entry = self._lines[name] = CacheLine(name)
        return entry

    def lines(self) -> Dict[str, CacheLine]:
        return dict(self._lines)

    def near(self, a: int, b: int) -> bool:
        """Are CPUs ``a`` and ``b`` on the same chip?"""
        per = self.cpus_per_chip
        return a // per == b // per

    def _transfer_cost(self, cpu: int, source: int) -> int:
        if self.near(cpu, source):
            self.transfers_near += 1
            return self._near
        self.transfers_far += 1
        return self._far

    def _nearest_holder(self, cpu: int, line: CacheLine) -> int:
        # Deterministic: prefer an on-chip holder, tie-break lowest index.
        holders = sorted(line.holders())
        for holder in holders:
            if self.near(cpu, holder):
                return holder
        return holders[0]

    def read(self, cpu: int, line: CacheLine, now: int) -> int:
        """Load from ``line`` on ``cpu`` at local time ``now``.

        Returns the *extra* cycles the access costs beyond the base
        instruction (0 on a local hit), and updates directory state.
        """
        if line.owner == cpu or cpu in line.sharers:
            return 0
        if line.owner is None:
            if not line.sharers:  # cold: fill from memory, no contention
                line.sharers.add(cpu)
                return 0
            # Join an existing sharer set: unserialized, cheap.
            source = self._nearest_holder(cpu, line)
            line.sharers.add(cpu)
            self.shared_joins += 1
            return self._join if self.near(cpu, source) else self._far
        # Modified elsewhere: one serialized transfer demotes it to shared.
        wait = line.busy_until - now
        if wait < 0:
            wait = 0
        cost = self._transfer_cost(cpu, line.owner)
        line.bounces += 1
        self.bounces += 1
        line.busy_until = now + wait + cost
        line.sharers = {line.owner, cpu}
        line.owner = None
        return wait + cost

    def write(self, cpu: int, line: CacheLine, now: int) -> int:
        """Store to ``line`` on ``cpu`` at local time ``now``.

        Returns the extra cycles (0 when ``cpu`` already owns the
        line); moves the line to exclusive ownership by ``cpu`` and
        bumps its version.
        """
        if line.owner == cpu:
            line.version += 1
            return 0
        others = line.holders()
        others.discard(cpu)
        if not others:
            # Cold line, or an upgrade from being the only sharer.
            line.owner = cpu
            line.sharers = set()
            line.version += 1
            return 0
        wait = line.busy_until - now
        if wait < 0:
            wait = 0
        source = (
            line.owner if line.owner is not None
            else self._nearest_holder(cpu, line)
        )
        cost = self._transfer_cost(cpu, source)
        line.bounces += 1
        self.bounces += 1
        line.busy_until = now + wait + cost
        line.owner = cpu
        line.sharers = set()
        line.version += 1
        return wait + cost

    def counters(self) -> Dict[str, int]:
        return {
            "smp.line_bounces": self.bounces,
            "smp.line_transfers_near": self.transfers_near,
            "smp.line_transfers_far": self.transfers_far,
            "smp.line_shared_joins": self.shared_joins,
        }

    def signature(self) -> tuple:
        """Stable summary for world digests (see ``World.state_digest``)."""
        return tuple(
            (name, entry.owner, tuple(sorted(entry.sharers)),
             entry.version, entry.busy_until)
            for name, entry in sorted(self._lines.items())
        )

    def __repr__(self) -> str:
        return "CacheDirectory(ncpus=%d, lines=%d, bounces=%d)" % (
            self.ncpus, len(self._lines), self.bounces,
        )
