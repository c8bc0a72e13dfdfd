"""Repository benchmark: what the simulator costs, and whether it stays faithful.

Run from the repository root::

    python3 repobench/run.py --workload pthreads --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; each
check of a workload's outputs is one attempted operation.  Metric and
workload definitions are in ``repobench/METRICS.md``.

One host process, one thread: no fleet fan-out, no snapshots.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured this many times, each in a fresh process.
SETUP_PROBES = 5


def _load_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "repobench: %s/repro not found; run from a full checkout" % SRC
        )
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Seconds the calibration loop takes on the reference host.  Host times
#: are reported at that host's speed: wall time x CALIBRATION_REF_S / the
#: calibration time measured around it.
CALIBRATION_REF_S = 0.25


def calibrate() -> float:
    """Time a fixed interpreter-bound loop that uses none of the program.

    The shared host this benchmark runs on changes speed by up to 2x over
    minutes; timing this loop next to each repetition measures that
    speed, and dividing by it takes the drift out of ``host_s`` and
    ``setup_s``.  The loop does what the simulator's executor does most:
    generator resumption, slot attribute updates, heap and dict traffic.
    """

    class Task:
        __slots__ = ("gen", "steps")

        def __init__(self, gen) -> None:
            self.gen = gen
            self.steps = 0

    def body(k: int):
        x = 0
        while True:
            x = (yield x + k) or 0

    start = time.perf_counter()
    tasks = [Task(body(k)) for k in range(16)]
    for task in tasks:
        next(task.gen)
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    for i in range(300_000):
        task = tasks[i & 15]
        v = task.gen.send(i)
        task.steps += 1
        heapq.heappush(heap, (v & 1023, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 255] = v
    return time.perf_counter() - start


def at_reference_speed(wall: float, calib_before: float, calib_after: float) -> float:
    return wall * CALIBRATION_REF_S * 2.0 / (calib_before + calib_after)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, build and warm up, then say "ready"."""
    _load_program()
    import workloads

    workloads.WORKLOADS[workload](seed).setup()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process spawn to the first timed operation, at
    the reference host speed."""
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-probe", "--workload", workload, "--seed", str(seed),
    ]
    calib = calibrate()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed (exit %d)" % code)
        after = calibrate()
        samples.append(at_reference_speed(ready, calib, after))
        calib = after
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------


def timed_reps(wl: Any, seconds: float) -> Tuple[float, List[Any], List]:
    """Time repetitions of one piece each, cycling through the pieces.

    Runs every piece at least once, then stops when the next repetition
    would pass ``seconds``.  Returns the time of all of the workload's
    work at the reference host speed -- the sum over pieces of each
    piece's median time -- the first outputs of each piece, and a check
    per repeated piece that its simulated outputs equal its first run's.
    """
    parts = wl.parts
    times: List[List[float]] = [[] for _ in range(parts)]
    walls: List[float] = [0.0] * parts
    first: List[Any] = []
    dumps: List[str] = []
    checks = []
    start = time.perf_counter()
    calib = calibrate()
    n = 0
    while True:
        i = n % parts
        gc.collect()
        t0 = time.perf_counter()
        out = wl.piece(i)
        walls[i] = time.perf_counter() - t0
        after = calibrate()
        times[i].append(at_reference_speed(walls[i], calib, after))
        calib = after
        n += 1
        dump = json.dumps(out, sort_keys=True)
        if len(first) <= i:
            first.append(out)
            dumps.append(dump)
        else:
            checks.append((
                "repeat %d of piece %d: simulated outputs identical" % (len(times[i]) - 1, i),
                dump == dumps[i],
            ))
        spent = time.perf_counter() - start
        if n >= parts and spent + walls[n % parts] + calib > seconds:
            host_s = sum(statistics.median(t) for t in times)
            return host_s, first, checks


def end_to_end(wl: Any, seconds: float) -> Tuple[Dict[str, Any], List]:
    import workloads

    host_s, pieces, checks = timed_reps(wl, seconds)
    rss = _peak_rss_mb()
    out = wl.summarize(pieces)
    checks += wl.verify(out)
    t2 = out["table2"] if "table2" in out else workloads.table2()
    latency = dict(wl.latency(out))
    missing = [a for a in workloads.ARCHS if a not in latency]
    schedules = wl.schedules(out)
    panel = workloads.reference_panel(missing, schedules=schedules is None)
    latency.update(panel["latency"])
    if schedules is None:
        schedules = panel["schedules"]
    metrics = {
        "host_s": (host_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "table2_err_pct": (workloads.table2_err_pct(t2), "%"),
        "sim_ms": (wl.sim_ms(out), "sim_ms"),
    }
    for arch in workloads.ARCHS:
        p50, p99, n = latency[arch]
        metrics["sim_p50_us." + arch] = (p50, "sim_us")
        metrics["sim_p99_us." + arch] = (p99, "sim_us")
        checks.append(("%s p99 has >= 10 samples beyond it" % arch, n >= 1000))
    metrics["schedules"] = (schedules, "count")
    return metrics, checks


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl: Any, seconds: float) -> Tuple[Dict[str, Any], List]:
    """Alternate untraced and traced passes over all of the pieces.

    Counters are deterministic and read from one traced repetition; the
    self times come from the traced repetition with the median wall time.
    """
    import workloads
    from tracing import LIBCALL_FAMILIES, NET_OPS, LayerTracer

    plain_t, traced_t, traced, calibs = [], [], [], []
    plain_out = None
    checks = []
    start = time.perf_counter()
    calibs.append(calibrate())
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out = wl.unit()
        plain = time.perf_counter() - t0
        calibs.append(calibrate())
        plain_t.append(at_reference_speed(plain, calibs[-2], calibs[-1]))
        if plain_out is None:
            plain_out = json.dumps(out, sort_keys=True)
        tracer = LayerTracer()
        gc.collect()
        with tracer:
            t0 = time.perf_counter()
            out = wl.unit(tracer)
            wall = time.perf_counter() - t0
        calibs.append(calibrate())
        traced_t.append(at_reference_speed(wall, calibs[-2], calibs[-1]))
        checks.append((
            "traced repeat %d simulated outputs identical to untraced" % len(traced),
            json.dumps(out, sort_keys=True) == plain_out,
        ))
        summary = tracer.log.summary()
        traced.append((wall, summary, tracer))
        del tracer
        spent = time.perf_counter() - start
        per_pair = spent / len(traced)
        if spent + per_pair > seconds:
            break
    traced.sort(key=lambda item: item[0])
    wall, summary, tracer = traced[len(traced) // 2]
    c = tracer.counters
    host_plain = statistics.median(plain_t)
    host_traced = statistics.median(traced_t)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    m: Dict[str, Tuple[float, str]] = {}
    m["hw.window_traps"] = (c["hw.window_traps"], "count")
    m["sim.events.scheduled"] = (c["sim.events.scheduled"], "count")
    m["sim.events.fired"] = (c["sim.events.fired"], "count")
    m["sim.events.cancelled"] = (c["sim.events.cancelled"], "count")
    m["sim.events.batch_pops"] = (c["sim.events.batch_pops"], "count")
    m["sim.events.host_s"] = (self_s("sim.events"), "s")
    m["sim.world.idle_share"] = (
        _share(c["sim.world.idle_cycles"], c["sim.world.cycles"]), "share")
    m["sim.world.idle_jumps"] = (c["sim.world.idle_jumps"], "count")
    m["sim.world.host_s"] = (self_s("sim.world"), "s")
    seg_steps = c["sim.segments.steps_replayed"]
    m["sim.segments.replayed_share"] = (_share(seg_steps, c["core.steps"]), "share")
    m["sim.segments.hit_ratio"] = (
        _share(c["sim.segments.hits"], c["sim.segments.hits"] + c["sim.segments.misses"]),
        "share")
    m["sim.segments.record_failures"] = (c["sim.segments.record_failures"], "count")
    m["core.steps"] = (c["core.steps"], "count")
    m["core.host_ns_per_step"] = (_share(host_plain * 1e9, c["core.steps"]), "ns")
    m["core.runtime.host_s"] = (self_s("core.runtime"), "s")
    for kernel in workloads.KERNELS:
        m["core.kernel.%s.host_s" % kernel] = (
            summary.get("core.kernel." + kernel, {}).get("total_s", 0.0), "s")
    libcalls = 0
    for family in LIBCALL_FAMILIES:
        name = "core.libcall." + family
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".host_s"] = (self_s(name), "s")
        libcalls += calls(name)
    # Steps the segment compiler replays never reach the registry: the
    # interpreted share is what the libcall counts above cover.
    m["core.libcall.interpreted_share"] = (1.0 - m["sim.segments.replayed_share"][0], "share")
    m["core.kernel.enters"] = (c["core.kernel.enters"], "count")
    m["core.kernel.deferred"] = (c["core.kernel.deferred"], "count")
    m["core.dispatcher.context_switches"] = (c["core.dispatcher.context_switches"], "count")
    m["core.sigdeliver.calls"] = (calls("core.sigdeliver"), "count")
    m["core.sigdeliver.host_s"] = (self_s("core.sigdeliver"), "s")
    m["core.pool.hit_ratio"] = (
        _share(c["core.pool.hits"], c["core.pool.hits"] + c["core.pool.misses"]), "share")
    replies = sum(row.get("replies", 0) for row in _net_rows(wl, out))
    m["unix.syscalls_per_reply"] = (_share(c["unix.syscalls"], replies), "count")
    m["unix.deliver_signals.calls"] = (calls("unix.deliver_signals"), "count")
    m["unix.deliver_signals.host_s"] = (self_s("unix.deliver_signals"), "s")
    for op in NET_OPS:
        m["unix.net.%s.calls" % op] = (calls("unix.net." + op), "count")
        m["unix.net.%s.host_s" % op] = (self_s("unix.net." + op), "s")
    m["unix.net.select_fds_per_call"] = (
        _share(c["unix.net.select_fds"], calls("unix.net.select")), "count")
    m["unix.net.epoll_ready_per_wait"] = (
        _share(c["unix.net.epoll_ready_returned"], c["unix.net.epoll_waits"]), "count")
    m["unix.net.epoll_stale_share"] = (
        _share(c["unix.net.epoll_stale_dropped"],
               c["unix.net.epoll_stale_dropped"] + c["unix.net.epoll_ready_returned"]),
        "share")
    m["unix.net.accept_wait_p99_us"] = (
        workloads.percentile(tracer.samples["accept_wait_us"], 99), "sim_us")
    m["unix.net.accept_depth_max"] = (c["unix.net.accept_depth_max"], "count")
    m["unix.net.backpressure_stalls"] = (c["unix.net.backpressure_stalls"], "count")
    m["net.servers.queue_wait_p99_us"] = (
        max([row.get("queue_wait_p99_us", 0.0) for row in _net_rows(wl, out)], default=0.0),
        "sim_us")
    m["net.loadgen.host_s"] = (self_s("net.loadgen"), "s")
    m["net.loadgen.bytes_per_client"] = (_loadgen_bytes(wl), "B")
    runs = calls("check.run")
    m["check.runs"] = (runs, "count")
    m["check.host_ms_per_run"] = (
        _share(summary.get("check.run", {}).get("total_s", 0.0) * 1e3, runs), "ms")
    m["check.choice_points_per_run"] = (_share(c["check.choice_points"], runs), "count")
    m["check.invariants.calls"] = (calls("check.invariants"), "count")
    m["check.invariants.host_s"] = (self_s("check.invariants"), "s")
    m["check.invariants.violations"] = (c["check.invariants.violations"], "count")

    # Integrity: self times plus the untraced remainder sum to host_s.
    self_sum = sum(v["self_s"] for k, v in summary.items() if k != "__roots__")
    remainder = wall - summary["__roots__"]["total_s"]
    m["trace.host_s"] = (wall, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.remainder_s"] = (remainder, "s")
    m["trace.overhead_pct"] = (100.0 * (host_traced / host_plain - 1.0), "%")
    m["trace.spans"] = (len(tracer.log), "count")
    m["host.calibration_s"] = (statistics.median(calibs), "s")
    checks.append((
        "self times plus remainder sum to traced host_s",
        abs(self_sum + remainder - wall) < 1e-6 * max(1.0, wall),
    ))
    return m, checks


def _net_rows(wl: Any, out: Any) -> List[Dict[str, Any]]:
    return [out[a] for a in wl.archs if a in out]


def _loadgen_bytes(wl: Any) -> float:
    """Python heap per resident client: tracemalloc peak over one stream
    of the workload's load on the epoll server, divided by its clients.

    Measured in its own untimed pass: tracemalloc slows every allocation.
    """
    import tracemalloc

    import workloads

    if "epoll" not in wl.archs:
        return 0.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workloads.scenario("epoll", wl.stream_seeds()[0], **wl.load)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / wl.load["clients"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    _load_program()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit("repobench: unknown workload %r (have: %s)" % (
            workload, ", ".join(workloads.WORKLOADS)))
    setup_s = measure_setup(workload, seed) if not trace else None
    wl = workloads.WORKLOADS[workload](seed)
    wl.setup()
    if trace:
        metrics, checks = per_layer(wl, seconds)
    else:
        metrics, checks = end_to_end(wl, seconds)
        metrics = dict({"setup_s": (setup_s, "s")}, **metrics)
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print("FAILED CHECK: %s" % label, file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
