"""Smoke tests for the host-throughput suite (wall-clock, not virtual).

Marked ``host``: unlike every other benchmark in ``benchmarks/``,
these measure *host* wall-clock speed, so they are noisy by nature and
excluded from tier-1 runs (``testpaths`` only collects ``tests/``; and
``pytest benchmarks -m "not host"`` skips them explicitly).  Run them
directly with::

    PYTHONPATH=src python -m pytest benchmarks/host -m host

They deliberately assert only what is stable on any machine: the suite
runs, every workload makes progress, and the virtual-clock results are
bit-identical across repeats (the determinism oracle that makes host
optimizations admissible at all).  Throughput numbers belong in the
records of ``python -m repro.bench run --suite host``, not in
assertions.
"""

from __future__ import annotations

import pytest

from repro.bench.suites import run_host, standard_workloads

pytestmark = pytest.mark.host


def test_suite_runs_and_is_deterministic():
    # run_host itself raises if simulated_us differs across repeats.
    result = run_host(scale=1, repeat=2)
    assert {r.workload for r in result.records} == set(standard_workloads(1))
    for name in standard_workloads(1):
        assert result.value(name, "steps") > 0
        assert result.value(name, "simulated_us") > 0
        assert result.value(name, "steps_per_sec") > 0


def test_both_models_simulate_different_virtual_time():
    # Sanity: the suite actually exercises the cost model (the slower
    # SPARC 1+ must accumulate more virtual microseconds than the IPX).
    ipx = run_host(scale=1, repeat=1)
    one = run_host(scale=1, repeat=1, model="sparc-1+")
    for name in standard_workloads(1):
        assert one.value(name, "simulated_us") > ipx.value(name, "simulated_us")
