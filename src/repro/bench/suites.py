"""The benchmark suite runners, callable from anywhere.

This module is the one home for the measurement loops: the
``benchmarks/`` modules and the ``python -m repro.bench run`` CLI both
call in here, so a suite run from CI and a suite run from the shell
produce the same records.  Every runner returns a validated
:class:`~repro.bench.schema.SuiteResult`; each record's unit,
direction and tolerance are set on the line that measures its value.

Direction policy (metric definitions live in ``docs/BENCHMARKING.md``):

- **virtual-clock outputs** (simulated time, step and schedule counts,
  makespans) are ``exact`` -- the simulation is deterministic, so any
  difference is a semantics change that needs a deliberate baseline
  regeneration;
- **wall-clock rates** (``steps_per_sec``) are ``higher`` with the
  gate's default band; fleet wall-clock *ratios* carry the wider
  :data:`WALL_RATIO_TOLERANCE` because CI runners are shared and noisy;
- **harvested counters and raw wall times** are ``info``: archived for
  the trend history, never gated.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.bench import workloads
from repro.bench.schema import SuiteResult, env_fingerprint, records_from_metrics

#: Wall-clock speedup ratios on shared CI runners need a wide band.
WALL_RATIO_TOLERANCE = 0.5

# ---------------------------------------------------------------------------
# host throughput
# ---------------------------------------------------------------------------

#: The host benchmark matrix, in report order (a subset of
#: :data:`repro.bench.workloads.WORKLOADS`).
HOST_WORKLOADS = ("lock_storm", "signal_storm", "pipeline", "create_join_churn")


def standard_workloads(scale: int) -> Dict[str, Dict[str, Any]]:
    """The host benchmark matrix.  ``scale`` multiplies iteration counts."""
    out = {}
    for name in HOST_WORKLOADS:
        factory, priority = workloads.WORKLOADS[name]
        out[name] = {
            "factory": functools.partial(factory, scale),
            "priority": priority,
        }
    return out


def _measure_host(
    result: SuiteResult,
    name: str,
    factory: Callable[[], Callable],
    priority: int,
    model: str,
    repeat: int,
) -> None:
    """Run one workload ``repeat`` times; best wall time wins (minimum
    is the standard noise-rejection estimator for throughput)."""
    best_wall = None
    simulated_us = None
    for _ in range(repeat):
        main_fn = factory()
        start = time.perf_counter()
        stats = workloads.run_workload(main_fn, model=model, priority=priority)
        wall = time.perf_counter() - start
        if simulated_us is not None and simulated_us != stats["elapsed_us"]:
            raise AssertionError(
                "%s: non-deterministic simulated time (%r != %r)"
                % (name, simulated_us, stats["elapsed_us"])
            )
        simulated_us = stats["elapsed_us"]
        if best_wall is None or wall < best_wall:
            best_wall = wall
    rt = stats["runtime"]
    add = functools.partial(result.add, name)
    add("steps_per_sec", round(rt.steps / best_wall, 1), "steps/s", "higher")
    add("wall_seconds", round(best_wall, 6), "s", "info")
    add("simulated_us", simulated_us, "us", "exact")
    add("simulated_us_per_sec", round(simulated_us / best_wall, 1), "us/s",
        "info")
    add("steps", rt.steps, "count", "exact")
    add("context_switches", stats["context_switches"], "count", "info")
    if rt._segments is not None:
        result.records.extend(
            records_from_metrics(rt._segments.counters(), result.suite, name)
        )


def run_host(
    scale: int = 4, repeat: int = 3, model: str = "sparc-ipx"
) -> SuiteResult:
    """Executor throughput on the host matrix: steps/s per workload,
    with simulated time as the determinism oracle."""
    result = SuiteResult(
        suite="host",
        env=env_fingerprint(scale=scale),
        config={"scale": scale, "repeat": repeat, "model": model},
    )
    for name, spec in standard_workloads(scale).items():
        _measure_host(
            result, name, spec["factory"], spec["priority"], model, repeat
        )
    return result.validate()


# ---------------------------------------------------------------------------
# net architecture sweep
# ---------------------------------------------------------------------------

#: Open-loop load: one request per connection, arrivals ~Poisson(150us),
#: no think time -- the connection mix, not any client's patience,
#: determines the backlog.
NET_LOAD: Dict[str, Any] = dict(
    requests_per_client=1,
    service_cycles=300,
    think_us=0.0,
    arrival="poisson",
    mean_gap_us=150.0,
    workers=16,
    seed=42,
    latency_us=60.0,
    first_class=True,  # identical completion path for all three archs
)

NET_ARCHS = ("perconn", "pool", "select", "epoll")
NET_CLIENT_SWEEP = (50, 200, 1000)
NET_CACHE_POOL_SIZE = 64

#: Closed-loop scale-factor fixtures: long-lived connections, many
#: request rounds, think time far above the arrival window so peak
#: concurrency equals the client count.  This is the regime the epoll
#: interest list exists for -- a huge watched set that is mostly idle
#: at any instant -- and the regime where select's O(n) scan per
#: wakeup stops amortizing.  ``archs`` is part of the fixture: sf10 up
#: runs the epoll dispatcher only, because the archived sf baseline has
#: no select rows there (select's host cost at sf10 is now on par with
#: epoll's, see docs/NETWORKING.md).
NET_SF_FIXTURES: Dict[str, Dict[str, Any]] = {
    "sf1": dict(
        clients=1000,
        requests_per_client=8,
        mean_gap_us=150.0,
        archs=("select", "epoll"),
    ),
    "sf10": dict(
        clients=10000,
        requests_per_client=4,
        mean_gap_us=15.0,
        archs=("epoll",),
    ),
    "sf100": dict(  # opt-in: ~10^5 concurrent clients, minutes of host time
        clients=100000,
        requests_per_client=2,
        mean_gap_us=1.5,
        archs=("epoll",),
    ),
}

#: sf100 stays out of the default (and therefore archived/CI) set.
NET_SF_DEFAULT = ("sf1", "sf10")

#: Load shape shared by every sf fixture (clients/gap/rounds vary).
NET_SF_LOAD: Dict[str, Any] = dict(
    arrival="poisson",
    think_us=200000.0,
    service_cycles=100,
    req_bytes=256,
    resp_bytes=1024,
    seed=42,
    latency_us=60.0,
)


def run_net_point(
    result: SuiteResult,
    arch: str,
    clients: int,
    pool_size: int,
    load: Optional[Dict[str, Any]] = None,
    sweep: str = "cold",
) -> None:
    """One grid cell: run the scenario, record its row.

    Every number is virtual-time and bit-deterministic, so
    ``elapsed_us`` is the cell's ``exact`` divergence oracle;
    throughput and tail latency also get tolerance bands so a
    regression reads as a regression, not just "something diverged".
    """
    from repro.net.scenario import run_scenario

    load = dict(NET_LOAD if load is None else load)
    report = run_scenario(
        arch=arch, clients=clients, pool_size=pool_size, **load
    )
    assert report.requests_served == clients  # every request answered
    assert report.refused == 0
    add = functools.partial(
        result.add, arch, clients=clients, pool_size=pool_size, sweep=sweep
    )
    add("elapsed_us", round(report.elapsed_us, 1), "us", "exact")
    add("throughput_rps", round(report.throughput_rps, 1), "req/s", "higher")
    add("latency_p50_us", round(report.latency_p50_us, 1), "us", "info")
    add("latency_p99_us", round(report.latency_p99_us, 1), "us", "lower")
    add("accept_wait_p50_us", round(report.accept_wait_p50_us, 1), "us",
        "info")
    add("accept_wait_p99_us", round(report.accept_wait_p99_us, 1), "us",
        "lower")
    add("accept_depth_max", report.accept_depth_max, "count", "info")
    add("syscalls", report.syscalls, "count", "info")
    add("context_switches", report.context_switches, "count", "info")
    add("completions_sigio", report.completions_sigio, "count", "info")
    add("completions_fc", report.completions_fc, "count", "info")
    add("queue_wait_p99_us", round(report.queue_wait_p99_us, 1), "us", "info")


def run_sf_point(result: SuiteResult, sf: str, arch: str) -> None:
    """One scale-factor cell: run the fixture, record a normalized row.

    Every rate/percentile is per-sample (per reply), so rows are
    comparable across fixtures whose client and request counts differ
    by orders of magnitude.
    """
    from repro.net.scenario import run_scenario

    fixture = dict(NET_SF_FIXTURES[sf])
    fixture.pop("archs")
    clients = fixture.pop("clients")
    report = run_scenario(
        arch=arch, clients=clients, backlog=clients,
        **fixture, **NET_SF_LOAD
    )
    expected = clients * report.requests_per_client
    assert report.refused == 0
    assert report.replies == expected  # every request answered
    assert report.peak_clients == clients  # all concurrently resident
    add = functools.partial(
        result.add, arch, sf=sf, clients=clients, sweep="sf"
    )
    add("elapsed_us", round(report.elapsed_us, 1), "us", "exact")
    add("peak_clients", report.peak_clients, "count", "exact")
    add("throughput_rps", round(report.throughput_rps, 1), "req/s", "higher")
    add("latency_p50_us", round(report.latency_p50_us, 1), "us", "info")
    add("latency_p99_us", round(report.latency_p99_us, 1), "us", "lower")
    add("latency_mean_us", round(report.latency_mean_us, 1), "us", "info")
    add("syscalls_per_request", round(report.syscalls / report.replies, 3),
        "count", "lower")
    add("replies", report.replies, "count", "info")
    add("epoll_waits", report.epoll_waits, "count", "info")
    add("epoll_wakeups", report.epoll_wakeups, "count", "info")
    add("epoll_ctl_calls", report.epoll_ctl_calls, "count", "info")
    add("epoll_ready_returned", report.epoll_ready_returned, "count", "info")
    add("epoll_stale_dropped", report.epoll_stale_dropped, "count", "info")


def run_net(
    client_sweep: Sequence[int] = NET_CLIENT_SWEEP,
    archs: Sequence[str] = NET_ARCHS,
    cache_pool_size: int = NET_CACHE_POOL_SIZE,
    load: Optional[Dict[str, Any]] = None,
    sf: Sequence[str] = NET_SF_DEFAULT,
) -> SuiteResult:
    """The full architecture sweep.

    The headline grid (``sweep="cold"``) disables the TCB/stack cache
    (``pool_size=0``) to isolate the architecture comparison; a second
    sweep (``"warm"``) at the top client count re-enables the cache and
    shows the gap narrow -- ``pthread_create`` pre-caching is itself a
    thread pool, one layer down.  The ``sf`` scale-factor fixtures then
    push the dispatcher architectures into the long-lived
    high-concurrency regime (``NET_SF_FIXTURES``); sf100 is opt-in
    (pass ``sf`` explicitly).
    """
    load = dict(NET_LOAD if load is None else load)
    result = SuiteResult(
        suite="net",
        env=env_fingerprint(),
        config={
            "client_sweep": sorted(set(client_sweep)),
            "archs": sorted(set(archs)),
            "cache_pool_size": cache_pool_size,
            "load": dict(load),
            "model": "sparc-ipx",
            "sf": sorted(set(sf)),
        },
    )
    for clients in client_sweep:
        for arch in archs:
            run_net_point(result, arch, clients, 0, load=load, sweep="cold")
    for arch in archs:
        run_net_point(result, arch, client_sweep[-1], cache_pool_size,
                      load=load, sweep="warm")
    for name in sf:
        for arch in NET_SF_FIXTURES[name]["archs"]:
            run_sf_point(result, name, arch)
    return result.validate()


# ---------------------------------------------------------------------------
# check exploration sweep
# ---------------------------------------------------------------------------


def run_check(
    runs: int = 15,
    seed: int = 99,
    scale: int = 1,
    names: Optional[Sequence[str]] = None,
) -> SuiteResult:
    """Seeded random-walk exploration over the checker workloads.

    Everything but ``wall_seconds`` is deterministic for a fixed
    library: the same seed replays the same schedules, runs the same
    invariant sweeps, and must keep finding nothing.
    """
    from repro.check.cli import WORKLOADS
    from repro.check.explore import Explorer

    result = SuiteResult(
        suite="check",
        env=env_fingerprint(scale=scale),
        config={"runs": runs, "seed": seed, "scale": scale},
    )
    chosen = sorted(WORKLOADS) if names is None else list(names)
    for name in chosen:
        factory, priority = WORKLOADS[name]
        explorer = Explorer(lambda: factory(scale), priority=priority)
        start = time.perf_counter()
        report = explorer.explore_random(runs=runs, seed=seed)
        wall = time.perf_counter() - start
        add = functools.partial(
            result.add, name, mode="random", runs=runs, seed=seed
        )
        add("schedules_explored", report.schedules_explored, "count",
            "exact")
        add("checks_run", report.checks_run, "count", "exact")
        add("failures", len(report.failures), "count", "exact")
        add("wall_seconds", round(wall, 6), "s", "info")
    return result.validate()


# ---------------------------------------------------------------------------
# fleet scaling sweep
# ---------------------------------------------------------------------------


def run_fleet(
    max_runs: int = 40,
    rounds: int = 800,
    max_depth: int = 2000,
    max_branch: int = 4,
    jobs: int = 4,
    grid: bool = True,
    grid_repeat: int = 3,
) -> SuiteResult:
    """DFS snapshot sweep (workload ``dfs``) and scenario compare grid
    (workload ``compare_grid``).  Needs :func:`os.fork`.

    The DFS speedup is algorithmic (prefix checkpoints cut simulated
    steps), so it holds on a single-core host; the grid speedup is
    pure fan-out and is bounded by the host's core count.  The
    algorithmic facts (schedules explored, byte-identical reports, the
    full replay step count) are ``exact``; snapshot placement counters
    depend on speculation timing, so they are harvested per ``phase``
    as ``info``.
    """
    import dataclasses
    import os

    from repro.bench.workloads import signal_storm
    from repro.check.explore import Explorer
    from repro.net.scenario import compare_scenarios

    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
        raise RuntimeError("the fleet suite needs os.fork")

    result = SuiteResult(
        suite="fleet",
        env=env_fingerprint(),
        config={
            "workload": "signal_storm",
            "max_runs": max_runs,
            "rounds": rounds,
            "max_depth": max_depth,
            "max_branch": max_branch,
            "grid": grid,
        },
    )

    def make_explorer() -> Explorer:
        # rounds=800 (scale 8): the trail is ~1600 choice points spread
        # across the whole run, so deep DFS children share long
        # prefixes -- the workload prefix snapshots were built for.
        return Explorer(
            lambda: signal_storm(victims=4, rounds=rounds),
            priority=50,  # the bench registry's tuning for this workload
            max_depth=max_depth,
            max_branch=max_branch,
        )

    def timed_dfs(dfs_jobs: int, snapshot: bool):
        explorer = make_explorer()
        start = time.perf_counter()
        report = explorer.explore_dfs(
            max_runs=max_runs, jobs=dfs_jobs, snapshot=snapshot
        )
        return report, time.perf_counter() - start

    seq_report, seq_s = timed_dfs(dfs_jobs=1, snapshot=False)
    snap_report, snap_s = timed_dfs(dfs_jobs=1, snapshot=True)
    par_report, par_s = timed_dfs(dfs_jobs=jobs, snapshot=True)

    dfs_identical = (
        snap_report == seq_report
        and par_report == seq_report
        and par_report.render() == seq_report.render()
    )
    dfs = functools.partial(result.add, "dfs")
    dfs("schedules_explored", seq_report.schedules_explored, "count", "exact")
    dfs("sequential_s", round(seq_s, 3), "s", "info")
    dfs("snapshot_jobs1_s", round(snap_s, 3), "s", "info")
    dfs("jobs4_s", round(par_s, 3), "s", "info")
    dfs("speedup_snapshot_jobs1", round(seq_s / snap_s, 2), "ratio",
        "higher", WALL_RATIO_TOLERANCE)
    dfs("speedup_jobs4", round(seq_s / par_s, 2), "ratio", "higher",
        WALL_RATIO_TOLERANCE)
    dfs("reports_identical", dfs_identical, "bool", "exact")
    dfs("steps_full", seq_report.fleet.steps_full, "count", "exact")
    for phase, report in (
        ("sequential", seq_report),
        ("snapshot", snap_report),
        ("jobs4", par_report),
    ):
        stats = report.fleet
        counters = dict(dataclasses.asdict(stats), steps_saved=stats.steps_saved)
        result.records.extend(
            records_from_metrics(
                counters, result.suite, "dfs", params={"phase": phase}
            )
        )

    if grid:
        cells = [
            dict(arch=arch, clients=120, requests_per_client=2, workers=16,
                 seed=42, arrival=arrival, pool_size=pool_size)
            for arch in ("perconn", "pool", "select")
            for arrival in ("poisson", "bursty")
            for pool_size in (64, 0)
        ]

        # Best-of-N (the standard noise-rejection estimator, same as
        # the host-throughput runner): a single shot of a sub-second
        # grid is dominated by host jitter.
        def timed_grid(grid_jobs: int):
            best_s, best = None, None
            for _ in range(grid_repeat):
                start = time.perf_counter()
                reports = compare_scenarios(cells, jobs=grid_jobs)
                elapsed = time.perf_counter() - start
                if best_s is None or elapsed < best_s:
                    best_s, best = elapsed, reports
            return best, best_s

        grid_seq, grid_seq_s = timed_grid(grid_jobs=1)
        grid_par, grid_par_s = timed_grid(grid_jobs=jobs)
        grid_identical = grid_par == grid_seq and [
            r.render() for r in grid_par
        ] == [r.render() for r in grid_seq]
        cmp = functools.partial(result.add, "compare_grid")
        cmp("cells", len(cells), "count", "exact")
        cmp("sequential_s", round(grid_seq_s, 3), "s", "info")
        cmp("jobs4_s", round(grid_par_s, 3), "s", "info")
        cmp("speedup_jobs4", round(grid_seq_s / grid_par_s, 2), "ratio",
            "higher", WALL_RATIO_TOLERANCE)
        cmp("reports_identical", grid_identical, "bool", "exact")

    return result.validate()


# ---------------------------------------------------------------------------
# smp lock-algorithm zoo
# ---------------------------------------------------------------------------


def run_smp(
    acquisitions: int = 10,
    section_cycles: int = 400,
    think_cycles: int = 300,
    model: str = "niagara-t3",
    seed: int = 42,
    ipi_rounds: int = 40,
) -> SuiteResult:
    """The lock-zoo crossover sweep plus an IPI-routed signal workload.

    Every simulated number is deterministic in (model, seed, axes):
    the zoo's per-cell makespans come off per-CPU virtual clocks, and
    the IPI row (workload ``ipi_signal_storm``) runs ``signal_storm``
    on a 2-CPU world where every async signal crosses from the
    interrupt CPU as an IPI event.  A changed makespan is a changed
    contention semantics, so those records are ``exact``; the
    coherence/IPI counters are ``info``.  Only the wall times vary run
    to run.
    """
    from repro.locks.workload import run_zoo

    result = SuiteResult(
        suite="smp",
        env=env_fingerprint(),
        config={
            "acquisitions": acquisitions,
            "section_cycles": section_cycles,
            "think_cycles": think_cycles,
            "model": model,
            "seed": seed,
            "ipi_rounds": ipi_rounds,
        },
    )
    start = time.perf_counter()
    rows = run_zoo(
        acquisitions=acquisitions,
        section_cycles=section_cycles,
        think_cycles=think_cycles,
        model=model,
        seed=seed,
    )
    zoo_wall = time.perf_counter() - start
    for row in rows:
        algo = row["algo"]
        params = {"ncpus": row["ncpus"], "model": row["model"]}
        add = functools.partial(result.add, algo, **params)
        add("makespan_cycles", row["makespan_cycles"], "cycles", "exact")
        add("cycles_per_acquisition", row["cycles_per_acquisition"],
            "cycles", "exact")
        add("executor_steps", row["executor_steps"], "count", "exact")
        add("acquisitions", row["acquisitions"], "count", "exact")
        lock = {"lock.%s" % k: v for k, v in row["lock"].items()}
        for counters in (row["counters"], lock):
            result.records.extend(
                records_from_metrics(counters, result.suite, algo, params)
            )

    start = time.perf_counter()
    stats = workloads.run_workload(
        workloads.signal_storm(victims=4, rounds=ipi_rounds),
        model="sparc-ipx",  # signal costs calibrated on the paper's host
        priority=50,
        # A tight slice so timer expiries (async "timer" causes, the
        # IPI-routed kind) actually land inside this short run.
        timeslice_us=1_000.0,
        ncpus=2,
    )
    ipi_wall = time.perf_counter() - start
    rt = stats["runtime"]
    smp = rt.world.smp.counters()
    ipi = functools.partial(
        result.add, "ipi_signal_storm", ncpus=2, rounds=ipi_rounds
    )
    ipi("elapsed_us", stats["elapsed_us"], "us", "exact")
    ipi("ipis_sent", smp["smp.ipis_sent"], "count", "exact")
    ipi("ipis_delivered", smp["smp.ipis_delivered"], "count", "exact")
    ipi("ipi_posts", rt.proc.signals.ipi_posts, "count", "exact")
    ipi("context_switches", stats["context_switches"], "count", "info")

    result.add("suite", "zoo_wall_seconds", round(zoo_wall, 6), "s", "info")
    result.add("suite", "ipi_wall_seconds", round(ipi_wall, 6), "s", "info")
    return result.validate()


# ---------------------------------------------------------------------------
# the registry the CLI dispatches on
# ---------------------------------------------------------------------------

#: suite name -> runner.  The gate re-measures a baseline by feeding
#: its archived ``config`` back in as keyword arguments.
SUITE_RUNNERS: Dict[str, Callable[..., SuiteResult]] = {
    "host": run_host,
    "net": run_net,
    "check": run_check,
    "fleet": run_fleet,
    "smp": run_smp,
}

SUITES = tuple(sorted(SUITE_RUNNERS))
