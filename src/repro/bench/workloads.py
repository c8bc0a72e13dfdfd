"""Reusable synthetic workloads for benchmarks and stress tests.

The paper's evaluation is micro-benchmarks; these composite workloads
exercise the same primitives at scale (the "medium and fine-grain
models of parallelism" its Future Work contemplates) and are shared by
the scalability/ablation benches and the stress tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.attr import MutexAttr, ThreadAttr
from repro.core.runtime import PthreadsRuntime


def pipeline(stages: int, items: int, work_cycles: int = 500):
    """An ``stages``-deep pipeline over condvar-guarded queues.

    Returns a main generator; after the run, the returned dict (via
    the main thread's exit value) reports per-item latency.
    """

    def stage_body(pt, inbox, outbox, m, cv_in, cv_out):
        # Ops are immutable; building them once outside the loop keeps
        # the per-item path free of op allocation (bit-identical run).
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        wait_in = pt.cond_wait(cv_in, m)
        burn = pt.work(work_cycles)
        signal_out = None if cv_out is None else pt.cond_signal(cv_out)
        while True:
            yield lock
            while not inbox:
                yield wait_in
            item = inbox.pop(0)
            yield unlock
            if item is None:
                if outbox is not None:
                    yield lock
                    outbox.append(None)
                    yield signal_out
                    yield unlock
                return
            yield burn
            if outbox is not None:
                yield lock
                outbox.append(item)
                yield signal_out
                yield unlock

    def main(pt):
        m = yield pt.mutex_init()
        queues = [[] for _ in range(stages + 1)]
        conds = []
        for _ in range(stages + 1):
            conds.append((yield pt.cond_init()))
        threads = []
        for s in range(stages):
            outbox = queues[s + 1] if s + 1 < stages else None
            cv_out = conds[s + 1] if s + 1 < stages else None
            threads.append(
                (
                    yield pt.create(
                        stage_body, queues[s], outbox, m,
                        conds[s], cv_out, name="stage-%d" % s,
                    )
                )
            )
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        push = pt.cond_signal(conds[0])
        for item in list(range(items)) + [None]:
            yield lock
            queues[0].append(item)
            yield push
            yield unlock
        for t in threads:
            yield pt.join(t)
        return {"items": items, "stages": stages}

    return main


def fan_out_fan_in(workers: int, chunks: int, work_cycles: int = 1_000):
    """Scatter ``chunks`` of work over ``workers``; gather at a barrier."""

    def worker(pt, barrier, results, index):
        total = 0
        for chunk in range(chunks):
            yield pt.work(work_cycles)
            total += chunk
        results[index] = total
        yield pt.barrier_wait(barrier)

    def main(pt):
        barrier = yield pt.barrier_init(workers + 1)
        results = [None] * workers
        for i in range(workers):
            yield pt.create(
                worker, barrier, results, i,
                attr=ThreadAttr(priority=50), name="fan-%d" % i,
            )
        yield pt.barrier_wait(barrier)
        assert all(r == sum(range(chunks)) for r in results)
        return {"workers": workers}

    return main


def lock_storm(
    threads: int,
    iterations: int,
    protocol: str = "none",
    section_cycles: int = 200,
    spread_priorities: bool = True,
):
    """Heavy contention on one mutex (protocol selectable)."""

    def worker(pt, m, stats):
        # Prebound immutable ops: the loop body allocates nothing.
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        section = pt.work(section_cycles)
        gap = pt.work(50)
        for _ in range(iterations):
            yield lock
            yield section
            yield unlock
            yield gap
        stats["done"] += 1

    def main(pt):
        m = yield pt.mutex_init(
            MutexAttr(protocol=protocol, prioceiling=120)
        )
        stats = {"done": 0}
        ts = []
        for i in range(threads):
            prio = 20 + (i * 13 % 80) if spread_priorities else 50
            ts.append(
                (
                    yield pt.create(
                        worker, m, stats,
                        attr=ThreadAttr(priority=prio), name="ls-%d" % i,
                    )
                )
            )
        for t in ts:
            yield pt.join(t)
        assert stats["done"] == threads
        return {"mutex": m}

    return main


def signal_storm(victims: int, rounds: int, gap_cycles: int = 2_000):
    """Heavy internal-signal traffic: handlers interrupt blocked delays.

    ``rounds`` pthread_kills are sprayed round-robin over ``victims``
    high-priority threads parked in long delays; every signal runs a
    user handler via the fake-call machinery and EINTRs the delay.
    This is the event-queue stress case: each interrupted delay leaves
    a cancelled timer event behind in the heap.
    """
    from repro.unix.sigset import SIGUSR1

    hits = {"handled": 0}

    def handler(pt, sig):
        hits["handled"] += 1
        return
        yield  # pragma: no cover - makes it a generator

    def victim(pt):
        nap = pt.delay_us(10_000_000)
        while True:
            yield nap

    def main(pt):
        yield pt.sigaction(SIGUSR1, handler)
        vs = []
        for i in range(victims):
            vs.append(
                (
                    yield pt.create(
                        victim,
                        attr=ThreadAttr(priority=100),
                        name="storm-%d" % i,
                    )
                )
            )
        kills = [pt.kill(v, SIGUSR1) for v in vs]
        gap = pt.work(gap_cycles)
        for r in range(rounds):
            yield kills[r % victims]
            yield gap
        for v in vs:
            yield pt.cancel(v)
        for v in vs:
            yield pt.join(v)
        assert hits["handled"] == rounds
        return dict(hits)

    return main


def create_join_churn(rounds: int, burst: int = 8, work_cycles: int = 200):
    """Create/join churn: bursts of short-lived pooled threads."""

    def child(pt, index):
        del index
        yield pt.work(work_cycles)

    def main(pt):
        attr = ThreadAttr(priority=40)  # attrs are read-only: share one
        # Create ops are immutable: prebind one per burst slot so the
        # round loop allocates no ops (joins take fresh handles, so
        # they cannot be prebound).
        creates = [pt.create(child, i, attr=attr) for i in range(burst)]
        for _ in range(rounds):
            ts = []
            for op in creates:
                ts.append((yield op))
            for t in ts:
                yield pt.join(t)
        return {"rounds": rounds, "burst": burst}

    return main


#: The named workloads shared by ``python -m repro.bench`` (the host
#: suite), ``python -m repro.obs`` and ``python -m repro.check``:
#: name -> (factory(scale) -> workload main, main-thread priority).
WORKLOADS: Dict[str, Tuple[Callable[[int], Callable], int]] = {
    "lock_storm": (
        lambda scale: lock_storm(threads=8, iterations=25 * scale),
        100,
    ),
    "signal_storm": (
        lambda scale: signal_storm(victims=4, rounds=100 * scale),
        50,
    ),
    "pipeline": (
        lambda scale: pipeline(stages=4, items=25 * scale),
        100,
    ),
    "fan_out_fan_in": (
        lambda scale: fan_out_fan_in(workers=8, chunks=4 * scale),
        100,
    ),
    "create_join_churn": (
        lambda scale: create_join_churn(rounds=12 * scale, burst=8),
        100,
    ),
}


def run_workload(
    main_fn,
    model: str = "sparc-ipx",
    priority: int = 100,
    timeslice_us: Optional[float] = None,
    **runtime_kwargs: Any,
) -> Dict[str, Any]:
    """Run a workload main; returns summary statistics."""
    from repro.core.config import RuntimeConfig

    rt = PthreadsRuntime(
        model=model,
        config=RuntimeConfig(timeslice_us=timeslice_us, pool_size=64),
        **runtime_kwargs,
    )
    rt.main(main_fn, priority=priority)
    rt.run()
    return {
        "elapsed_us": rt.world.now_us,
        "context_switches": rt.dispatcher.context_switches,
        "syscalls": rt.unix.total_syscalls,
        "runtime": rt,
    }
