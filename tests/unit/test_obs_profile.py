"""Unit tests for cycle attribution (the profiler).

The central invariant: every cycle the clock advances while the
profiler is attached lands in exactly one category, so the category
total equals the clock span *exactly* -- no sampling error, no drift.
"""

import json
from pathlib import Path

import pytest

from repro.bench.workloads import WORKLOADS
from repro.core.attr import ThreadAttr
from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.hw import costs
from repro.obs.core import Observability
from repro.obs.profile import (
    CATEGORIES,
    CATEGORY_OF_KEY,
    COMPUTE,
    CycleProfiler,
    IDLE,
    SYNCHRONIZATION,
    WINDOW_TRAPS,
)


def run_observed(main_fn, **kwargs):
    obs = Observability()
    rt = PthreadsRuntime(
        config=RuntimeConfig(pool_size=16), obs=obs, **kwargs
    )
    rt.main(main_fn, priority=100)
    rt.run()
    return obs, rt


class TestCategoryMapping:
    def test_covers_exactly_the_cost_table(self):
        """Every cost key has a category; no stale keys linger."""
        keys = set(costs.all_cost_keys())
        mapped = set(CATEGORY_OF_KEY)
        assert keys == mapped

    def test_all_mapped_categories_are_known(self):
        assert set(CATEGORY_OF_KEY.values()) <= set(CATEGORIES)


class TestAttributionInvariant:
    def test_total_equals_clock_span(self):
        def worker(pt):
            yield pt.work(500)

        def main(pt):
            t = yield pt.create(worker, name="w")
            yield pt.work(1_000)
            yield pt.join(t)

        obs, rt = run_observed(main)
        profiler = obs.profiler
        assert profiler.total_cycles == profiler.attributed_span()
        assert profiler.total_cycles == rt.world.clock.cycles

    def test_compute_includes_work_bursts(self):
        def main(pt):
            yield pt.work(10_000)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[COMPUTE] >= 10_000

    def test_idle_cycles_attributed(self):
        def main(pt):
            yield pt.delay_us(100)

        obs, _ = run_observed(main)
        # The delay parks the only thread: the world idles to the
        # timer event, and those cycles land in "idle".
        assert obs.profiler.by_category[IDLE] > 0

    def test_contention_lands_in_synchronization(self):
        def holder(pt, m):
            yield pt.mutex_lock(m)
            yield pt.work(2_000)
            yield pt.mutex_unlock(m)

        def waiter(pt, m):
            yield pt.mutex_lock(m)
            yield pt.mutex_unlock(m)

        def main(pt):
            m = yield pt.mutex_init()
            a = yield pt.create(
                holder, m, name="holder", attr=ThreadAttr(priority=100)
            )
            b = yield pt.create(
                waiter, m, name="waiter", attr=ThreadAttr(priority=90)
            )
            yield pt.join(a)
            yield pt.join(b)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[SYNCHRONIZATION] > 0

    def test_window_traps_attributed_on_switches(self):
        def child(pt):
            yield pt.work(100)

        def main(pt):
            t = yield pt.create(child, name="kid")
            yield pt.join(t)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[WINDOW_TRAPS] > 0

    def test_by_thread_names_real_threads(self):
        def child(pt):
            yield pt.work(100)

        def main(pt):
            t = yield pt.create(child, name="kid")
            yield pt.join(t)

        obs, _ = run_observed(main)
        assert "main" in obs.profiler.by_thread
        assert "kid" in obs.profiler.by_thread
        assert sum(obs.profiler.by_thread.values()) == (
            obs.profiler.total_cycles
        )


class TestAttachDetach:
    def test_double_attach_rejected(self):
        def main(pt):
            yield pt.work(1)

        obs, rt = run_observed(main)
        with pytest.raises(RuntimeError):
            obs.profiler.attach_world(rt.world)

    def test_detach_restores_methods_and_stops_counting(self):
        def main(pt):
            yield pt.work(100)

        obs, rt = run_observed(main)
        world = rt.world
        profiler = obs.profiler
        # Instance-level shadows exist while attached...
        assert "spend" in world.__dict__
        total = profiler.total_cycles
        profiler.detach()
        # ...and are gone after detach (class methods resume).
        assert "spend" not in world.__dict__
        assert "advance_to_next_event" not in world.__dict__
        assert not profiler.attached
        world.spend(costs.INSN, 10, fire=False)
        assert profiler.total_cycles == total

    def test_detached_profiler_span_falls_back_to_total(self):
        p = CycleProfiler()
        assert p.attributed_span() == 0 == p.total_cycles


class TestVirtualTimeUnchanged:
    def test_observed_run_is_cycle_identical(self):
        """The whole point: observability must not move virtual time."""

        def worker(pt, m):
            for _ in range(5):
                yield pt.mutex_lock(m)
                yield pt.work(300)
                yield pt.mutex_unlock(m)

        def main(pt):
            m = yield pt.mutex_init()
            ts = []
            for i in range(3):
                t = yield pt.create(
                    worker, m, name="w%d" % i,
                    attr=ThreadAttr(priority=90 + i),
                )
                ts.append(t)
            for t in ts:
                yield pt.join(t)

        def bare_run():
            rt = PthreadsRuntime(config=RuntimeConfig(pool_size=16))
            rt.main(main, priority=100)
            rt.run()
            return rt.world.clock.cycles

        obs, rt = run_observed(main)
        assert rt.world.clock.cycles == bare_run()


GOLDEN_PROFILE = (
    Path(__file__).parent.parent / "data" / "golden_profile.json"
)


def _profile(factory, priority):
    obs = Observability()
    rt = PthreadsRuntime(
        model="sparc-ipx",
        config=RuntimeConfig(timeslice_us=None, pool_size=64),
        obs=obs,
    )
    rt.main(factory(2), priority=priority)
    rt.run()
    snap = obs.profiler.snapshot()
    return {
        "by_category": snap["by_category"],
        "by_thread": snap["by_thread"],
        "clock_cycles": rt.world.clock.cycles,
    }


class TestGoldenProfile:
    """Pins the per-category and per-thread split, not just the total.

    Every library charge goes through ``World.spend``, so the profiler
    observes the same code path the benchmarks time; a charge that
    moves between categories or threads changes this snapshot.
    Regenerate it only for a cost-model or semantics change::

        PYTHONPATH=src python - <<'EOF'
        import json
        from repro.bench.workloads import WORKLOADS
        from tests.unit.test_obs_profile import GOLDEN_PROFILE, _profile
        out = {n: _profile(f, p) for n, (f, p) in WORKLOADS.items()}
        json.dump(out, open(GOLDEN_PROFILE, "w"), indent=1, sort_keys=True)
        EOF
    """

    def test_workloads_match_snapshot(self):
        golden = json.loads(GOLDEN_PROFILE.read_text())
        fresh = {
            name: _profile(factory, priority)
            for name, (factory, priority) in WORKLOADS.items()
        }
        assert fresh == golden
