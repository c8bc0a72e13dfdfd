"""Server-architecture load sweeps: writes ``bench-records/net.json``.

Marked ``net`` (excluded from tier-1; run directly)::

    PYTHONPATH=src python -m pytest benchmarks/test_net_throughput.py -m net

The sweep itself lives in :func:`repro.bench.suites.run_net` (shared
with ``python -m repro.bench run --suite net``); this module runs it,
persists its schema records (``bench-records/net.json``, the artifact
CI uploads and gates on), and asserts the architecture shapes.

One virtual CPU serves an open-loop Poisson request stream at three
offered loads; every number is virtual-time and bit-deterministic.
The headline sweep disables the library's own TCB/stack cache
(``pool_size=0``) to isolate the *architecture* comparison: with cold
creates, thread-per-connection pays allocation plus zero-fill stack
faults per connection, and the worker pool amortises thread lifecycle
across connections -- the paper's create-caching argument restated at
the server level.  A second sweep re-enables the cache and shows the
gap narrow: ``pthread_create`` pre-caching is itself a thread pool,
one layer down.

After the architecture grid, the ``sf`` scale-factor fixtures push the
dispatcher architectures into the long-lived high-concurrency regime:
thousands to tens of thousands of concurrently connected clients,
think time far above the arrival window, per-sample normalized rows.

Shape assertions (the acceptance bar for this subsystem):

- at the highest client count the pooled server sustains at least 2x
  the throughput of thread-per-connection;
- the select dispatcher holds the best accept latency (connections
  never wait on thread lifecycle to be picked up);
- select beats epoll on the short-lived connection sweep (epoll_ctl
  per accept never amortizes over a single request) and epoll beats
  select on sf1 (the watched set is large and mostly idle, so the
  O(n) scan stops amortizing) -- the crossover, pinned from both
  sides;
- sf rows hold their full client count concurrently resident
  (``peak_clients == clients``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.schema import SuiteResult
from repro.bench.suites import (
    NET_ARCHS as ARCHS,
    NET_CLIENT_SWEEP as CLIENT_SWEEP,
    NET_SF_DEFAULT,
    NET_SF_FIXTURES,
    run_net,
    run_net_point,
    run_sf_point,
)

pytestmark = pytest.mark.net

RECORDS = Path(__file__).resolve().parent.parent / "bench-records" / "net.json"
TOP = CLIENT_SWEEP[-1]


@pytest.fixture(scope="module")
def sweep():
    """The full grid, computed once and persisted as schema records."""
    result = run_net()
    result.save(RECORDS)
    return result


def cold(sweep, arch, clients, metric):
    return sweep.value(arch, metric, clients=clients, pool_size=0,
                       sweep="cold")


def warm(sweep, arch, metric):
    return sweep.value(arch, metric, clients=TOP,
                       pool_size=sweep.config["cache_pool_size"],
                       sweep="warm")


def sf_row(sweep, sf, arch, metric):
    return sweep.value(arch, metric, sf=sf,
                       clients=NET_SF_FIXTURES[sf]["clients"], sweep="sf")


def test_pool_doubles_perconn_throughput_at_saturation(sweep):
    pool = cold(sweep, "pool", TOP, "throughput_rps")
    perconn = cold(sweep, "perconn", TOP, "throughput_rps")
    ratio = pool / perconn
    assert ratio >= 2.0, (
        "pool %.1f rps vs perconn %.1f rps (ratio %.2f)"
        % (pool, perconn, ratio)
    )


def test_select_dispatcher_has_the_best_accept_latency(sweep):
    for other in ("perconn", "pool"):
        assert (
            cold(sweep, "select", TOP, "accept_wait_p99_us")
            < cold(sweep, other, TOP, "accept_wait_p99_us")
        ), "select should accept fastest at p99 (vs %s)" % other
        assert (
            cold(sweep, "select", TOP, "accept_wait_p50_us")
            <= cold(sweep, other, TOP, "accept_wait_p50_us")
        )


def test_create_cache_narrows_the_architecture_gap(sweep):
    """Re-enabling the TCB/stack cache is the paper's create-caching
    claim: perconn's per-connection thread create gets cheap, so the
    pool's advantage shrinks (but does not vanish -- syscalls and
    context switches still favour long-lived workers)."""
    cold_ratio = (
        cold(sweep, "pool", TOP, "throughput_rps")
        / cold(sweep, "perconn", TOP, "throughput_rps")
    )
    warm_ratio = (
        warm(sweep, "pool", "throughput_rps")
        / warm(sweep, "perconn", "throughput_rps")
    )
    assert warm_ratio < cold_ratio
    assert warm_ratio > 1.0


def test_the_crossover_short_lived_connections_favour_select(sweep):
    """One request per connection: the per-accept ``epoll_ctl`` is pure
    overhead (it never amortizes), so select wins the open-loop sweep
    at every offered load."""
    for clients in CLIENT_SWEEP:
        select = cold(sweep, "select", clients, "throughput_rps")
        epoll = cold(sweep, "epoll", clients, "throughput_rps")
        assert select > epoll, clients


def test_the_crossover_longlived_concurrency_favours_epoll(sweep):
    """sf1: 1000 clients stay connected for eight request rounds; the
    watched set is large and mostly idle, select's O(n) scan stops
    amortizing, and the one-time registration cost pays for itself."""

    def sf1(arch, metric):
        return sf_row(sweep, "sf1", arch, metric)

    assert sf1("epoll", "throughput_rps") >= sf1("select", "throughput_rps")
    assert sf1("epoll", "latency_p50_us") < sf1("select", "latency_p50_us")
    assert sf1("epoll", "latency_p99_us") < sf1("select", "latency_p99_us")


def test_sf_rows_hold_the_full_fleet_concurrently(sweep):
    for name in NET_SF_DEFAULT:
        fixture = NET_SF_FIXTURES[name]
        for arch in fixture["archs"]:
            assert sf_row(sweep, name, arch, "peak_clients") == (
                fixture["clients"]
            )
            assert sf_row(sweep, name, arch, "replies") == (
                fixture["clients"] * fixture["requests_per_client"]
            )


def test_sweep_is_deterministic(sweep):
    """Re-running one grid point reproduces its records bit-for-bit."""
    again = SuiteResult(suite="net")
    run_net_point(again, "pool", CLIENT_SWEEP[0], pool_size=0)
    cell = {"clients": CLIENT_SWEEP[0], "pool_size": 0, "sweep": "cold"}
    assert again.records == [
        r for r in sweep.records if r.workload == "pool" and r.params == cell
    ]


def test_output_file_is_valid_json(sweep):
    on_disk = SuiteResult.load(RECORDS)
    assert on_disk.records == sweep.records
    cold_cells = {
        (r.workload, r.params["clients"]) for r in on_disk.records
        if r.params["sweep"] == "cold"
    }
    assert len(cold_cells) == len(ARCHS) * len(CLIENT_SWEEP)


@pytest.mark.skipif(
    not os.environ.get("REPRO_NET_SF100"),
    reason="opt-in (REPRO_NET_SF100=1): ~10^5 clients, minutes of host time",
)
def test_sf100_holds_a_hundred_thousand_clients_concurrently():
    """The headline scale point: one epoll dispatcher thread owning
    10^5 concurrently connected clients, every request answered."""
    result = SuiteResult(suite="net")
    run_sf_point(result, "sf100", "epoll")
    assert sf_row(result, "sf100", "epoll", "peak_clients") == 100_000
    assert sf_row(result, "sf100", "epoll", "replies") == 200_000
    assert sf_row(result, "sf100", "epoll", "throughput_rps") > 0


def test_normalized_records_are_schema_valid(sweep):
    result = SuiteResult.load(RECORDS)
    assert result.suite == "net"
    # One elapsed_us oracle per grid cell: cold + warm + sf rows.
    sf_cells = sum(
        len(NET_SF_FIXTURES[name]["archs"]) for name in NET_SF_DEFAULT
    )
    oracles = [r for r in result.records if r.metric == "elapsed_us"]
    assert len(oracles) == (
        len(ARCHS) * len(CLIENT_SWEEP) + len(ARCHS) + sf_cells
    )
    assert all(r.direction == "exact" for r in oracles)
    assert result.config["sf"] == sorted(NET_SF_DEFAULT)
