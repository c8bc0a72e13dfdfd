"""Self-checks of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q repobench

They take a few minutes: the layer-mapping check times real workload
pieces with and without an injected slowdown.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._load_program()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "repobench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def test_spec_names_match_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["repobench"]


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    done = _cli("--workload", "net_keepalive", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "pthreads", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seed_reaches_the_program():
    """A held-out seed gives different simulated outputs on the net
    workloads; the same seed gives the same outputs."""
    a = workloads.NetKeepalive(1001).piece(0)
    b = workloads.NetKeepalive(1002).piece(0)
    again = workloads.NetKeepalive(1001).piece(0)
    assert a == again
    assert a != b
    assert workloads.NetChurn(1001).piece(0) != workloads.NetChurn(1002).piece(0)


def test_traced_run_is_faithful_and_sums():
    """Traced simulated outputs equal the untraced ones; per-layer self
    times plus the untraced remainder sum to the traced host_s."""
    wl = workloads.NetKeepalive(7)
    wl.setup()
    metrics, checks = run.per_layer(wl, seconds=1.0)
    assert all(ok for _, ok in checks), [label for label, ok in checks if not ok]
    total = metrics["trace.self_sum_s"][0] + metrics["trace.remainder_s"][0]
    assert total == pytest.approx(metrics["trace.host_s"][0], rel=1e-6)
    assert metrics["unix.net.select.calls"][0] > 0
    assert metrics["unix.net.epoll_wait.calls"][0] > 0
    assert metrics["net.loadgen.bytes_per_client"][0] > 0
    assert "trace.overhead_pct" in metrics


def test_layer_mapping_slow_select_moves_only_net_keepalive():
    """Slow one layer from outside: a fixed delay in NetStack.sys_select
    must make net_keepalive's host_s worse beyond its bound, and leave
    pthreads and check_explore within it.  Plain and slowed repetitions
    alternate, so a drift in host speed hits both sides alike."""
    from repro.unix.net import NetStack

    bound = BOUNDS["host_s"]
    select = NetStack.sys_select

    def slow_select(self, entries):
        end = time.perf_counter() + 200e-6
        while time.perf_counter() < end:
            pass
        return select(self, entries)

    def timed_piece(wl, patched: bool) -> float:
        NetStack.sys_select = slow_select if patched else select
        try:
            start = time.perf_counter()
            wl.piece(0)
            return time.perf_counter() - start
        finally:
            NetStack.sys_select = select

    ratio = {}
    for wl in (workloads.NetKeepalive(1), workloads.Pthreads(1), workloads.CheckExplore(1)):
        wl.setup()
        plain, slowed = [], []
        for _ in range(3):
            plain.append(timed_piece(wl, False))
            slowed.append(timed_piece(wl, True))
        ratio[wl.name] = statistics.median(slowed) / statistics.median(plain)

    assert ratio["net_keepalive"] > 1 + bound, ratio
    assert ratio["pthreads"] <= 1 + bound, ratio
    assert ratio["check_explore"] <= 1 + bound, ratio
