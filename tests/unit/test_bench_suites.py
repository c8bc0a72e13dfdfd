"""The suite runners emit schema records directly.

Each runner sets a record's unit and direction where it measures the
value, so these tests pin that choice against the archived history
and pin the workload registry the bench, obs and check CLIs share.
"""

from pathlib import Path

from repro.bench import suites, workloads
from repro.bench.schema import SuiteResult

HISTORY = Path(__file__).resolve().parent.parent.parent / "benchmarks" / "history"


def test_check_records_match_the_archived_entry():
    archived = SuiteResult.load(HISTORY / "246d198" / "check.json")
    fresh = suites.run_check(runs=15, seed=99, scale=1)
    assert fresh.config == archived.config
    current = fresh.by_key()
    for key, old in archived.by_key().items():
        new = current[key]
        assert (new.unit, new.direction, new.tolerance) == (
            old.unit, old.direction, old.tolerance
        ), key
        if old.direction == "exact":
            assert new.value == old.value, key


def test_standard_workloads_are_the_registry_host_subset():
    matrix = suites.standard_workloads(3)
    assert tuple(matrix) == suites.HOST_WORKLOADS
    for name, spec in matrix.items():
        assert set(spec) == {"factory", "priority"}
        factory, priority = workloads.WORKLOADS[name]
        assert spec["priority"] == priority
        assert spec["factory"].func is factory
        assert spec["factory"].args == (3,)


def test_obs_and_check_share_the_registry():
    from repro.check.cli import WORKLOADS as CHECK_WORKLOADS
    from repro.obs.cli import WORKLOADS as OBS_WORKLOADS

    assert OBS_WORKLOADS is workloads.WORKLOADS
    for name, spec in workloads.WORKLOADS.items():
        assert CHECK_WORKLOADS[name] is spec
