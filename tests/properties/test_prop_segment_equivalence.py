"""Segment-cache equivalence: replay must be bit-identical to
interpretation.

The segment compiler (:mod:`repro.sim.segments`) replays recorded
hot loops as batched clock spends.  Its contract is that a run with the
cache enabled is *observably indistinguishable* from one with the cache
disabled (``RuntimeConfig(segments=False)``): same state digest, same
simulated clock, same step count, same context switches -- and the same
clock value at every point a generator body happens to read
``world.now``.

Hypothesis drives random workload shapes and scheduling parameters;
two deterministic regression tests pin down specific historical bugs:

- mid-segment ``world.now`` reads saw a stale clock when replay only
  published the batched spend at segment exit (caught by the Table 2
  golden: mutex_pair_uncontended measured 0.19us instead of 1.48us);
- a timer expiring inside a formerly-straight-line run must fire at
  the exact interpreted cycle (replay refuses windows that reach the
  event horizon and falls back to interpretation).

Two more pin the replay exits that end a body: a ``SimException`` its
caller catches, and a foreign exception that crashes the program, both
raised by a resume inside a compiled loop.

The never-negative tests pin the cost side: a workload whose hot loops
compile records each of them once, and a location that cannot compile
is recorded once and then left to the interpreter.
"""

from __future__ import annotations

import functools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import (
    create_join_churn,
    lock_storm,
    pipeline,
    signal_storm,
)
from repro.core.attr import ThreadAttr
from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.sim.frames import ProgramCrash, SimException
from repro.sim.segments import _BLACKLISTED
from tests.conftest import make_runtime


def _run(main_fn, *, segments, seed=0, timeslice_us=None, priority=64):
    rt = make_runtime(
        seed=seed, timeslice_us=timeslice_us, segments=segments
    )
    rt.main(main_fn, priority=priority)
    rt.run(max_steps=5_000_000)
    return rt


def _fingerprint(rt):
    return (
        rt.state_digest(),
        rt.world.clock.cycles,
        rt.steps,
        rt.dispatcher.context_switches,
        rt.dispatcher.dispatch_calls,
    )


def assert_equivalent(main_factory, **kwargs):
    """Run the workload in both modes; all observables must match."""
    on = _run(main_factory(), segments=True, **kwargs)
    off = _run(main_factory(), segments=False, **kwargs)
    assert on._segments is not None and off._segments is None
    assert _fingerprint(on) == _fingerprint(off)
    return on


WORKLOADS = {
    "lock_storm": lambda n, k: lock_storm(threads=2 + n % 5,
                                          iterations=2 + k % 9),
    "pipeline": lambda n, k: pipeline(stages=1 + n % 4, items=1 + k % 8),
    "churn": lambda n, k: create_join_churn(rounds=1 + k % 4,
                                            burst=1 + n % 6),
    "signal_storm": lambda n, k: signal_storm(victims=1 + n % 3,
                                              rounds=1 + k % 12),
}


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(WORKLOADS)),
    n=st.integers(min_value=0, max_value=63),
    k=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
    slice_us=st.sampled_from([None, 500.0, 2000.0]),
)
def test_random_workloads_replay_equivalent(name, n, k, seed, slice_us):
    prio = 50 if name == "signal_storm" else 100
    assert_equivalent(
        lambda: WORKLOADS[name](n, k),
        seed=seed,
        timeslice_us=slice_us,
        priority=prio,
    )


def test_hot_loop_actually_replays():
    """Sanity: the equivalence above is not vacuous -- a long
    straight-line loop must be served from the cache."""

    def main(pt):
        m = yield pt.mutex_init()
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        burn = pt.work(100)
        for _ in range(400):
            yield lock
            yield burn
            yield unlock

    on = _run(lambda pt: main(pt), segments=True)
    seg = on._segments
    assert seg.segments_compiled >= 1
    assert seg.steps_replayed > 500


def test_mid_segment_now_reads_are_exact():
    """Regression: generator bodies read ``world.now`` *between* the
    ops of a compiled segment; replay must publish the clock before
    every resume, not once at segment exit.

    Before the fix, the marks below diverged from interpretation as
    soon as the loop compiled (same final clock, wrong intermediate
    values) -- the bug that skewed Table 2's mutex_pair_uncontended
    from 1.48us to 0.19us.
    """
    def make(marks):
        def main(pt):
            world = pt.runtime.world
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            for _ in range(200):
                yield lock
                marks.append(world.now)
                yield unlock
                marks.append(world.now)

        return main

    marks_on: list = []
    marks_off: list = []
    on = _run(make(marks_on), segments=True)
    _run(make(marks_off), segments=False)
    assert on._segments.steps_replayed > 0
    assert marks_on == marks_off


def test_timer_expiry_inside_formerly_straight_line_run():
    """Regression: a delay timer armed by a high-priority thread must
    preempt a hot (compiled) low-priority loop at the exact
    interpreted cycle.

    Replay computes a ``limit`` from the event horizon and refuses any
    window that reaches it, so the expiry lands in interpreted code,
    which clamps work chunks to the horizon and fires due events
    per-step (the ``spend(..., fire=True)`` boundary audited in
    docs/INTERNALS.md).
    """
    def make(log):
        def sleeper(pt):
            world = pt.runtime.world
            for _ in range(40):
                yield pt.delay_us(200.0)
                log.append(world.now)

        def main(pt):
            world = pt.runtime.world
            t = yield pt.create(
                sleeper, attr=ThreadAttr(priority=120), name="sleeper"
            )
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(60)
            # Hot straight-line loop: compiles after a few visits, so
            # most expiries would land mid-segment if replay ignored
            # the horizon.
            for _ in range(3000):
                yield lock
                yield burn
                yield unlock
            log.append(("loop-done", world.now))
            yield pt.join(t)

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True, priority=50)
    off = _run(make(log_off), segments=False, priority=50)
    assert on._segments.steps_replayed > 0
    assert log_on == log_off
    assert _fingerprint(on) == _fingerprint(off)


def test_pipeline_records_only_loops_that_compile():
    """Never negative: every pipeline stage's hot loop compiles on its
    one recording, and the ops a loop does not cover are interpreted
    without recording a new variant."""
    on = _run(pipeline(stages=4, items=100), segments=True)
    seg = on._segments
    assert seg.steps_replayed > 0
    assert seg.record_failures == 0


def test_uncompilable_locations_fail_once():
    """Never negative: a location whose recording fails is blacklisted
    on the spot, so signal_storm (which compiles nothing) pays one
    failed recording per location it visits often enough to record."""
    on = _run(signal_storm(victims=2, rounds=50), segments=True, priority=50)
    seg = on._segments
    blacklisted = sum(
        entry is _BLACKLISTED
        for table in seg._by_code.values()
        for entry in table.values()
    )
    assert blacklisted > 0
    assert seg.record_failures == blacklisted


def test_dfs_exploration_identical_with_segments_disabled(monkeypatch):
    """repro.check must see every choice point: segments bypass when a
    choice source / scheduling policy is attached, so DFS reports are
    byte-identical with the cache compiled in or configured out."""
    from repro.check import explore as explore_mod

    def explore():
        return explore_mod.Explorer(
            lambda: lock_storm(threads=3, iterations=3),
            priority=100,
            max_depth=40,
            max_branch=3,
        ).explore_dfs(max_runs=8)

    with_cache = explore()
    monkeypatch.setattr(
        explore_mod,
        "RuntimeConfig",
        functools.partial(RuntimeConfig, segments=False),
    )
    without_cache = explore()
    assert with_cache == without_cache
    assert with_cache.render() == without_cache.render()


def test_signal_into_hot_loop_is_exact():
    """A pthread_kill from a peer lands in a victim's compiled loop:
    the fake-call wrapper, mask save/restore, and EINTR bookkeeping
    must leave every observable identical to interpretation."""
    from repro.unix.sigset import SIGUSR1

    def make(log):
        hits = {"n": 0}

        def handler(pt, sig):
            hits["n"] += 1
            return
            yield  # pragma: no cover - generator marker

        def victim(pt, m):
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(80)
            for _ in range(600):
                yield lock
                yield burn
                yield unlock

        def main(pt):
            world = pt.runtime.world
            yield pt.sigaction(SIGUSR1, handler)
            m = yield pt.mutex_init()
            v = yield pt.create(
                victim, m, attr=ThreadAttr(priority=40), name="victim"
            )
            for _ in range(10):
                yield pt.delay_us(300.0)
                yield pt.kill(v, SIGUSR1)
                log.append((world.now, hits["n"]))
            yield pt.join(v)
            log.append(("joined", world.now, hits["n"]))

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True, priority=80)
    off = _run(make(log_off), segments=False, priority=80)
    assert on._segments.steps_replayed > 0
    assert log_on == log_off
    assert _fingerprint(on) == _fingerprint(off)


class _Boom(SimException):
    pass


def _raising_loop(exc_type, after, log, at=300):
    """A called frame runs a lock/work/unlock/work loop that compiles,
    then, once hot, raises ``exc_type`` right after its ``after`` op
    ("burn": mutex held, "unlock": mutex free).  A catching caller logs
    the mutex state the exit left behind."""

    def body(pt, m):
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        burn = pt.work(100)
        for i in range(1000):
            yield lock
            yield burn
            if i == at and after == "burn":
                raise exc_type("raised by a replayed resume")
            yield unlock
            if i == at and after == "unlock":
                raise exc_type("raised by a replayed resume")
            yield burn

    def main(pt):
        m = yield pt.mutex_init()
        try:
            yield pt.call(body, m)
        except _Boom:
            tcb = pt.runtime.current
            log.append((
                m.owner is tcb,
                m.cell.value,
                m.acquisitions,
                m.lock_sequence.runs,
                len(tcb.held_mutexes),
            ))
            if m.owner is tcb:
                log.append((yield pt.mutex_unlock(m)))
        yield pt.work(50)

    return main


def _resume_exits(monkeypatch):
    """Log (exception type, caller) for every resume that raised."""
    exits = []
    original = PthreadsRuntime._resume_ended

    def spy(self, tcb, frame, exc, started):
        exits.append((type(exc), sys._getframe(1).f_code.co_name))
        return original(self, tcb, frame, exc, started)

    monkeypatch.setattr(PthreadsRuntime, "_resume_ended", spy)
    return exits


@pytest.mark.parametrize("after", ["burn", "unlock"])
def test_sim_exception_raised_inside_replay_is_exact(monkeypatch, after):
    """The body's SimException leaves replay mid-iteration and unwinds
    into the catching caller exactly as interpretation does, with the
    mutex state of the ops completed before it."""
    exits = _resume_exits(monkeypatch)
    logs: list = []

    def make():
        logs.append([])
        return _raising_loop(_Boom, after, logs[-1])

    on = assert_equivalent(make)
    assert on._segments.hits > 0
    assert (_Boom, "_replay") in exits
    assert (_Boom, "_interpret") in exits  # the segments=False run
    assert logs[0] == logs[1] and logs[0]


def test_foreign_exception_inside_replay_crashes_alike(monkeypatch):
    """A plain ValueError raised by a replayed resume crashes the
    program with the same ProgramCrash, step count and clock as
    interpretation."""
    exits = _resume_exits(monkeypatch)
    crashes = {}
    for segments in (True, False):
        rt = make_runtime(seed=0, timeslice_us=None, segments=segments)
        rt.main(_raising_loop(ValueError, "burn", []), priority=64)
        with pytest.raises(ProgramCrash) as info:
            rt.run(max_steps=5_000_000)
        crash = info.value
        crashes[segments] = (
            crash.frame_name,
            type(crash.original),
            rt.steps,
            rt.world.clock.cycles,
        )
        if segments:
            assert rt._segments.hits > 0
    assert crashes[True] == crashes[False]
    assert crashes[True][:2] == ("body", ValueError)
    assert (ValueError, "_replay") in exits
