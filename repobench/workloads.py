"""The benchmark's four workloads: fixed simulated work, checked outputs.

Each workload object has these phases:

- ``setup()``: build fixtures and warm the process (imports, the segment
  compiler's source cache, one small simulated run);
- ``piece(i)``: piece ``i`` of the fixed simulated work, ``parts`` pieces
  in all; one timed repetition runs one piece.  The pieces are the
  kernels and Table 2, the seeded arrival streams, or the checker
  models;
- ``summarize(pieces)``: fold the outputs of all pieces into the
  workload's simulated outputs, deterministic for a given seed;
- ``verify(out)``: the correctness checks on those outputs and any
  oracle the workload has, as ``(label, ok)`` pairs.

:func:`reference_panel` supplies the fidelity figures a workload does
not produce itself, so that every workload reports every end-to-end
metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE2 = ROOT / "tests" / "data" / "golden_table2.json"
ARCHIVED_NET = ROOT / "benchmarks" / "history" / "66980f8" / "net.json"

ARCHS = ("perconn", "pool", "select", "epoll")
MODELS = ("sparc-1+", "sparc-ipx")

#: Seed of the archived fixtures (``NET_LOAD`` and ``NET_SF_LOAD``) and
#: of the reference panel.
REFERENCE_SEED = 42

Check = Tuple[str, bool]


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    from repro.net.scenario import percentile as nearest_rank

    return nearest_rank(list(samples), q)


def table2() -> Dict[str, Dict[str, float]]:
    """Every Table 2 row on both simulated CPU models."""
    from repro.bench.metrics import measure_all

    return {model: measure_all(model) for model in MODELS}


def table2_err_pct(measured: Dict[str, Dict[str, float]]) -> float:
    """Largest |sim - paper| / paper over the paper's "Ours" cells, in %."""
    from repro.bench.table2 import PAPER_TABLE2

    worst = 0.0
    for row in PAPER_TABLE2:
        for model, paper in (("sparc-1+", row.ours_1plus), ("sparc-ipx", row.ours_ipx)):
            if paper is not None:
                worst = max(worst, abs(measured[model][row.key] - paper) / paper)
    return 100.0 * worst


def table2_checks(measured: Dict[str, Dict[str, float]]) -> List[Check]:
    golden = json.loads(GOLDEN_TABLE2.read_text())
    return [
        ("table2 %s equals golden" % model, measured[model] == golden[model])
        for model in MODELS
    ]


def scenario(
    arch: str,
    seed: int,
    clients: int,
    requests_per_client: int,
    mean_gap_us: float,
    think_us: float,
    service_cycles: int,
) -> Dict[str, Any]:
    """One server-under-load run, built like ``repro.net.scenario.run_scenario``
    with its defaults, but returning the raw samples so streams can be
    pooled.  Completions take the first-class channel on the dispatcher
    servers and SIGIO on the thread-based ones."""
    from repro.core.config import RuntimeConfig
    from repro.core.runtime import PthreadsRuntime
    from repro.net.scenario import build_main
    from repro.net.servers import Collector

    collector = Collector()
    rt = PthreadsRuntime(
        model="sparc-ipx", seed=seed, config=RuntimeConfig(pool_size=64)
    )
    rt.add_net_stack(latency_us=60.0, first_class=arch in ("select", "epoll"))
    box: Dict[str, Any] = {}
    main = build_main(
        arch,
        collector,
        clients=clients,
        requests_per_client=requests_per_client,
        workers=16,
        backlog=clients,
        service_cycles=service_cycles,
        req_bytes=256,
        resp_bytes=1024,
        arrival="poisson",
        mean_gap_us=mean_gap_us,
        think_us=think_us,
        latency_us=60.0,
        loadgen_box=box,
    )
    rt.main(main, priority=100)
    rt.run()
    gen = box["gen"]
    return {
        "elapsed_us": rt.world.now_us,
        "latencies_us": gen.latencies_us,
        "queue_waits_us": collector.queue_waits_us,
        "replies": gen.replies,
        "refused": gen.refused,
        "served": collector.requests_served,
        "peak_clients": gen.peak_concurrent_clients,
        "syscalls": rt.unix.total_syscalls,
    }


class Workload:
    """A workload whose fixed work is ``parts`` pieces."""

    name = ""
    archs: Tuple[str, ...] = ()
    parts = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def piece(self, i: int, tracer=None) -> Any:
        raise NotImplementedError

    def summarize(self, pieces: List[Any]) -> Dict[str, Any]:
        return pieces[0]

    def unit(self, tracer=None) -> Dict[str, Any]:
        """All of the fixed work, summarized."""
        return self.summarize([self.piece(i, tracer) for i in range(self.parts)])

    def latency(self, out: Dict[str, Any]) -> Dict[str, Tuple[float, float, int]]:
        return {}

    def schedules(self, out: Dict[str, Any]) -> Optional[int]:
        return None


# ---------------------------------------------------------------------------
# pthreads: the four library kernels plus Table 2
# ---------------------------------------------------------------------------

#: Per-kernel scale for ``repro.bench.suites.standard_workloads``.  The
#: segment-replayed pair (lock_storm, pipeline) and the switch-heavy pair
#: (signal_storm, create_join_churn) each take about half of ``host_s``.
KERNEL_SCALES = {
    "lock_storm": 10240,
    "pipeline": 1024,
    "signal_storm": 112,
    "create_join_churn": 128,
}
KERNELS = tuple(KERNEL_SCALES)


class Pthreads(Workload):
    """One piece per kernel, then Table 2.  They take no random input:
    ``seed`` is unused."""

    name = "pthreads"
    parts = len(KERNEL_SCALES) + 1

    def _kernel(self, name: str, scale: int, tracer=None) -> Dict[str, Any]:
        from repro.bench.suites import standard_workloads
        from repro.bench.workloads import run_workload

        spec = standard_workloads(scale)[name]
        if tracer is None:
            stats = run_workload(spec["factory"](), priority=spec["priority"])
        else:
            with tracer.span("core.kernel." + name):
                stats = run_workload(spec["factory"](), priority=spec["priority"])
        return {"elapsed_us": stats["elapsed_us"], "steps": stats["runtime"].steps}

    def setup(self) -> None:
        for name in KERNEL_SCALES:
            self._kernel(name, 2)
        table2()

    def piece(self, i: int, tracer=None) -> Dict[str, Any]:
        if i < len(KERNELS):
            name = KERNELS[i]
            return self._kernel(name, KERNEL_SCALES[name], tracer)
        return table2()

    def summarize(self, pieces: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {"kernels": dict(zip(KERNELS, pieces)), "table2": pieces[-1]}

    def sim_ms(self, out: Dict[str, Any]) -> float:
        return sum(k["elapsed_us"] for k in out["kernels"].values()) / 1000.0

    def verify(self, out: Dict[str, Any]) -> List[Check]:
        return table2_checks(out["table2"])


# ---------------------------------------------------------------------------
# the two net workloads: every server runs several seeded arrival streams
# ---------------------------------------------------------------------------


def _pool_streams(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    lat = [x for r in runs for x in r["latencies_us"]]
    waits = [x for r in runs for x in r["queue_waits_us"]]
    return {
        "elapsed_us": sum(r["elapsed_us"] for r in runs),
        "p50_us": percentile(lat, 50),
        "p99_us": percentile(lat, 99),
        "queue_wait_p99_us": percentile(waits, 99),
        "replies": sum(r["replies"] for r in runs),
        "served": sum(r["served"] for r in runs),
        "refused": sum(r["refused"] for r in runs),
        "peak_clients": min(r["peak_clients"] for r in runs),
        "syscalls": sum(r["syscalls"] for r in runs),
    }


class _Net(Workload):
    """Run ``archs`` on ``load``; piece ``i`` is arrival stream ``i``.

    The streams' replies are pooled, so each server's p99 rests on
    ``parts`` times the replies one stream gives.
    """

    load: Dict[str, Any] = {}

    def stream_seeds(self) -> List[int]:
        return [self.seed * self.parts + k for k in range(self.parts)]

    def setup(self) -> None:
        for arch in self.archs:
            scenario(arch, self.seed, **dict(self.load, clients=20))

    def piece(self, i: int, tracer=None) -> Dict[str, Any]:
        seed = self.stream_seeds()[i]
        out = {}
        for arch in self.archs:
            if tracer is None:
                out[arch] = scenario(arch, seed, **self.load)
            else:
                with tracer.span("bench.%s.%s" % (self.name, arch)):
                    out[arch] = scenario(arch, seed, **self.load)
        return out

    def summarize(self, pieces: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            arch: _pool_streams([p[arch] for p in pieces]) for arch in self.archs
        }

    def sim_ms(self, out: Dict[str, Any]) -> float:
        return sum(row["elapsed_us"] for row in out.values()) / 1000.0

    def latency(self, out: Dict[str, Any]) -> Dict[str, Tuple[float, float, int]]:
        return {a: (r["p50_us"], r["p99_us"], r["replies"]) for a, r in out.items()}

    def verify(self, out: Dict[str, Any]) -> List[Check]:
        expected = self.load["clients"] * self.load["requests_per_client"] * self.parts
        checks = []
        for arch, row in out.items():
            checks.append(("%s every request answered" % arch, row["replies"] == expected))
            checks.append(("%s every request served" % arch, row["served"] == expected))
            checks.append(("%s refused == 0" % arch, row["refused"] == 0))
        return checks + table2_checks(table2())


#: Open-loop churn load: ``NET_LOAD``'s request shape, a mean gap at
#: which every architecture stays below capacity, and the paper's
#: completion paths (SIGIO for the thread-based servers).
CHURN = dict(
    clients=2000,
    requests_per_client=1,
    mean_gap_us=3000.0,
    think_us=0.0,
    service_cycles=300,
)


class NetChurn(_Net):
    name = "net_churn"
    archs = ARCHS
    load = CHURN
    parts = 4


def _sf1_load() -> Dict[str, Any]:
    """The ``sf1`` scale-factor fixture of ``repro.bench.suites``."""
    from repro.bench.suites import NET_SF_FIXTURES, NET_SF_LOAD

    fixture = NET_SF_FIXTURES["sf1"]
    return dict(
        clients=fixture["clients"],
        requests_per_client=fixture["requests_per_client"],
        mean_gap_us=fixture["mean_gap_us"],
        think_us=NET_SF_LOAD["think_us"],
        service_cycles=NET_SF_LOAD["service_cycles"],
    )


def archived_sf1_rows() -> Dict[str, Dict[str, float]]:
    records = json.loads(ARCHIVED_NET.read_text())["records"]
    rows: Dict[str, Dict[str, float]] = {}
    for rec in records:
        if rec["params"].get("sf") == "sf1":
            rows.setdefault(rec["workload"], {})[rec["metric"]] = rec["value"]
    return rows


class NetKeepalive(_Net):
    name = "net_keepalive"
    archs = ("select", "epoll")  # select first: epoll is slower after it
    # Think time is fixed, so a stream's 8 request waves repeat one
    # arrival pattern: its tail rests on ~1000 independent clients.  One
    # stream's epoll p99 ranges over 750-2000 us between seeds, so a
    # steady pooled p99 needs three times net_churn's streams.
    parts = 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.load = _sf1_load()

    def verify(self, out: Dict[str, Any]) -> List[Check]:
        checks = super().verify(out)
        for arch, row in out.items():
            checks.append((
                "%s peak_clients == clients" % arch,
                row["peak_clients"] == self.load["clients"],
            ))
        # The archived sf1 rows are an exact oracle at their own seed.
        archived = archived_sf1_rows()
        for arch in self.archs:
            ref = scenario(arch, REFERENCE_SEED, **self.load)
            got = (
                round(ref["elapsed_us"], 1),
                round(percentile(ref["latencies_us"], 50), 1),
                round(percentile(ref["latencies_us"], 99), 1),
            )
            want = (
                archived[arch]["elapsed_us"],
                archived[arch]["latency_p50_us"],
                archived[arch]["latency_p99_us"],
            )
            checks.append(("%s sf1 row at seed %d equals archive" % (arch, REFERENCE_SEED), got == want))
        return checks


# ---------------------------------------------------------------------------
# check_explore: exhaustive bounded DFS over three checker workloads
# ---------------------------------------------------------------------------

#: (checker workload, scale): explored until the frontier is empty.
EXPLORE = (("cond_relay", 2), ("writer_cancel", 1), ("smp_timer_mutex", 1))

#: Each preseeded bug and the DFS (workload, scale, runs) that must
#: still find it.
PRESEED_FINDERS = {
    "grant-to-waker": ("cond_relay", 1, 30),
    "wrlock-cancel": ("writer_cancel", 1, 120),
}


def explorer(name: str, scale: int):
    from repro.check.cli import WORKLOADS
    from repro.check.explore import Explorer

    factory, priority = WORKLOADS[name]
    return Explorer(lambda: factory(scale), priority=priority)


def explore(name: str, scale: int) -> Dict[str, Any]:
    """Exhaustive DFS; also sums the simulated time of every schedule."""
    ex = explorer(name, scale)
    sim_us = [0.0]
    run_once = ex.run_once

    def timed_run(*args, **kwargs):
        result = run_once(*args, **kwargs)
        sim_us[0] += result.elapsed_us
        return result

    ex.run_once = timed_run
    report = ex.explore_dfs(max_runs=10 ** 9)
    return {
        "schedules": report.schedules_explored,
        "checks_run": report.checks_run,
        "failures": len(report.failures),
        "frontier_remaining": report.frontier_remaining,
        "sim_us": sim_us[0],
    }


class CheckExplore(Workload):
    """One piece per checker model.  Exhaustive search takes no random
    input: ``seed`` is unused."""

    name = "check_explore"
    parts = len(EXPLORE)

    def setup(self) -> None:
        for name, scale in EXPLORE:
            explorer(name, scale).run_once(())

    def piece(self, i: int, tracer=None) -> Dict[str, Any]:
        name, scale = EXPLORE[i]
        if tracer is None:
            return explore(name, scale)
        with tracer.span("bench.check_explore." + name):
            return explore(name, scale)

    def summarize(self, pieces: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {name: piece for (name, _), piece in zip(EXPLORE, pieces)}

    def sim_ms(self, out: Dict[str, Any]) -> float:
        return sum(row["sim_us"] for row in out.values()) / 1000.0

    def schedules(self, out: Dict[str, Any]) -> int:
        return sum(row["schedules"] for row in out.values())

    def verify(self, out: Dict[str, Any]) -> List[Check]:
        from repro.check.preseed import preseeded

        checks = []
        for name, row in out.items():
            checks.append(("%s no violations" % name, row["failures"] == 0))
            checks.append(("%s frontier empty" % name, row["frontier_remaining"] == 0))
        for bug, (name, scale, runs) in PRESEED_FINDERS.items():
            with preseeded(bug):
                report = explorer(name, scale).explore_dfs(max_runs=runs)
            checks.append(("preseed %s found" % bug, report.first_failure is not None))
        checks.extend(table2_checks(table2()))
        return checks


WORKLOADS = {
    w.name: w for w in (Pthreads, NetChurn, NetKeepalive, CheckExplore)
}


# ---------------------------------------------------------------------------
# the reference panel
# ---------------------------------------------------------------------------


def reference_panel(archs: Sequence[str], schedules: bool) -> Dict[str, Any]:
    """Fidelity figures for the parts of the program a workload skips.

    Every workload reports every end-to-end metric.  Where a workload
    does not run a server architecture, ``sim_p50_us.<arch>`` and
    ``sim_p99_us.<arch>`` come from one net_churn stream at the
    reference seed; where it does not explore, ``schedules`` is the
    exhaustive DFS count of ``writer_cancel(1)``.  The panel runs after
    the timed phase, so it is in neither ``host_s`` nor ``setup_s``.
    """
    out: Dict[str, Any] = {"latency": {}, "schedules": None}
    for arch in archs:
        lat = scenario(arch, REFERENCE_SEED, **CHURN)["latencies_us"]
        out["latency"][arch] = (percentile(lat, 50), percentile(lat, 99), len(lat))
    if schedules:
        out["schedules"] = explore("writer_cancel", 1)["schedules"]
    return out
