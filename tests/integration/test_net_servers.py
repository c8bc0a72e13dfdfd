"""Server architectures under deterministic load, end to end.

Small scenarios (a handful of clients) so tier-1 stays fast; the big
sweeps live in ``benchmarks/test_net_throughput.py`` behind the ``net``
marker.
"""

import pytest

from repro.net import ARCHITECTURES, run_scenario
from repro.net.cli import main as net_cli

SMALL = dict(
    clients=6,
    requests_per_client=2,
    workers=3,
    seed=7,
    arrival="uniform",
    mean_gap_us=80.0,
    think_us=60.0,
    service_cycles=300,
    latency_us=40.0,
)


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_every_architecture_serves_every_request(arch):
    report = run_scenario(arch=arch, **SMALL)
    expected = SMALL["clients"] * SMALL["requests_per_client"]
    assert report.requests_served == expected
    assert report.replies == expected
    assert report.refused == 0
    assert report.connections_served == SMALL["clients"]
    assert report.elapsed_us > 0
    assert report.throughput_rps > 0
    assert report.latency_p50_us > 0
    # Two link latencies bound every request from below.
    assert report.latency_p50_us >= 2 * SMALL["latency_us"]


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_reports_are_bit_identical_across_runs(arch):
    first = run_scenario(arch=arch, **SMALL)
    second = run_scenario(arch=arch, **SMALL)
    assert first.as_dict() == second.as_dict()
    assert first.render() == second.render()


def test_seed_changes_the_schedule_but_not_the_work():
    a = run_scenario(arch="pool", **SMALL)
    b = run_scenario(arch="pool", **{**SMALL, "seed": 8, "arrival": "poisson"})
    assert a.requests_served == b.requests_served
    assert a.as_dict() != b.as_dict()


def test_pool_uses_its_work_queue():
    report = run_scenario(arch="pool", **SMALL)
    assert report.queue_wait_p99_us >= 0.0
    # Workers recv/send; the acceptor accepts: both syscall families
    # must show up in the kernel's books.
    assert report.syscall_counts["accept"] >= SMALL["clients"]
    assert report.syscall_counts["recv"] > 0
    assert report.syscall_counts["send"] > 0


def test_select_architecture_defaults_to_first_class_completions():
    # Long think times leave the dispatcher idle between requests, so
    # its select must actually park -- and the completion that wakes it
    # must ride the first-class channel, never SIGIO.
    report = run_scenario(arch="select", **{**SMALL, "think_us": 3000.0})
    assert report.completions_fc > 0
    assert report.completions_sigio == 0
    assert report.syscall_counts["select"] > 0


def test_thread_architectures_default_to_sigio_completions():
    report = run_scenario(arch="perconn", **SMALL)
    assert report.completions_sigio > 0
    assert report.completions_fc == 0


def test_cli_serve_renders_a_report(capsys):
    rc = net_cli(
        [
            "serve", "--arch", "pool", "--clients", "5", "--requests", "1",
            "--workers", "2", "--seed", "3", "--arrival", "uniform",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "arch=pool" in out
    assert "throughput" in out
    assert "requests served" in out


def test_cli_serve_is_deterministic(capsys):
    argv = [
        "serve", "--arch", "select", "--clients", "4", "--requests", "2",
        "--seed", "11",
    ]
    assert net_cli(argv) == 0
    first = capsys.readouterr().out
    assert net_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--latency-us", "0"],
        ["serve", "--mean-gap-us", "-5"],
        ["serve", "--clients", "-3"],
        ["serve", "--arch", "pool", "--workers", "0"],
        ["compare", "--workers", "0"],
        ["serve", "--requests", "0"],
        ["serve", "--burst", "0"],
        ["serve", "--req-bytes", "0"],
        ["compare", "--resp-bytes", "-1"],
        ["serve", "--think-us", "-1"],
        ["serve", "--service-cycles", "-1"],
        ["serve", "--latency-us", "nan"],
    ],
)
def test_cli_rejects_bad_numbers_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        net_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert "error: argument %s: must be" % argv[-2] in last


def test_cli_compare_lists_all_architectures(capsys):
    rc = net_cli(
        ["compare", "--clients", "4", "--requests", "1", "--workers", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    for arch in ARCHITECTURES:
        assert arch in out
