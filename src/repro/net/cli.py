"""``python -m repro.net`` -- run a server-under-load scenario.

Everything printed is derived from virtual time and deterministic
counters; the same arguments always print the same report.

Examples::

    python -m repro.net serve --arch pool --clients 1000 --seed 42
    python -m repro.net serve --arch select --clients 200 --arrival bursty
    python -m repro.net serve --arch epoll --sf sf10
    python -m repro.net compare --clients 200
    python -m repro.net compare --sf sf1 --jobs 2
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, List, Optional

from repro.fleet import FleetStats
from repro.net.loadgen import ARRIVALS
from repro.net.scenario import compare_scenarios, run_scenario
from repro.net.servers import ARCHITECTURES


def _number(kind: type, positive: bool) -> Callable[[str], Any]:
    """An argparse ``type``: parse ``kind``, then require a finite
    value that is > 0 (``positive``) or >= 0."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "not %s: %r" % ("an integer" if kind is int else "a number",
                                text)
            ) from None
        if not (math.isfinite(value) and (value > 0 if positive
                                          else value >= 0)):
            raise argparse.ArgumentTypeError(
                "must be %s: %r" % ("> 0" if positive else ">= 0", text)
            )
        return value

    return parse


_COUNT = _number(int, positive=True)
_DURATION = _number(float, positive=True)
_CYCLES = _number(int, positive=False)
_WAIT = _number(float, positive=False)


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--clients", type=_COUNT, default=50,
                     help="number of load-generator clients")
    sub.add_argument("--requests", type=_COUNT, default=3,
                     help="requests per client connection")
    sub.add_argument("--workers", type=_COUNT, default=16,
                     help="worker threads (pool architecture)")
    sub.add_argument("--seed", type=int, default=42,
                     help="world seed (drives arrival times)")
    sub.add_argument("--model", default="sparc-ipx",
                     help="machine model")
    sub.add_argument("--arrival", choices=ARRIVALS, default="poisson",
                     help="client inter-arrival process")
    sub.add_argument("--mean-gap-us", type=_DURATION, default=40.0,
                     help="mean inter-arrival gap (us)")
    sub.add_argument("--burst", type=_COUNT, default=8,
                     help="clients per burst (bursty arrivals)")
    sub.add_argument("--think-us", type=_WAIT, default=150.0,
                     help="client think time between requests (us)")
    sub.add_argument("--service-cycles", type=_CYCLES, default=400,
                     help="application cycles per request")
    sub.add_argument("--latency-us", type=_DURATION, default=60.0,
                     help="one-way link latency (us)")
    sub.add_argument("--req-bytes", type=_COUNT, default=256,
                     help="request size (bytes)")
    sub.add_argument("--resp-bytes", type=_COUNT, default=1024,
                     help="response size (bytes)")
    sub.add_argument("--first-class", choices=("auto", "on", "off"),
                     default="auto",
                     help="completion path: first-class channel vs SIGIO "
                          "(auto = first-class for the select and epoll "
                          "archs)")
    sub.add_argument("--sf", choices=("sf1", "sf10", "sf100"), default=None,
                     help="run a scale-factor fixture (long-lived "
                          "high-concurrency load; overrides the load flags)")


def _first_class(value: str) -> Optional[bool]:
    return {"auto": None, "on": True, "off": False}[value]


def _sf_cell(arch: str, name: str) -> dict:
    """A ``run_scenario`` cell for one scale-factor fixture."""
    from repro.bench.suites import NET_SF_FIXTURES, NET_SF_LOAD

    fixture = dict(NET_SF_FIXTURES[name])
    fixture.pop("archs")
    clients = fixture.pop("clients")
    cell = dict(arch=arch, clients=clients, backlog=clients)
    cell.update(fixture)
    cell.update(NET_SF_LOAD)
    return cell


def _sf_archs(name: str) -> tuple:
    from repro.bench.suites import NET_SF_FIXTURES

    return tuple(NET_SF_FIXTURES[name]["archs"])


def _cell(arch: str, args: argparse.Namespace) -> dict:
    if getattr(args, "sf", None):
        return _sf_cell(arch, args.sf)
    return dict(
        arch=arch,
        clients=args.clients,
        requests_per_client=args.requests,
        workers=args.workers,
        seed=args.seed,
        model=args.model,
        arrival=args.arrival,
        mean_gap_us=args.mean_gap_us,
        burst=args.burst,
        think_us=args.think_us,
        service_cycles=args.service_cycles,
        latency_us=args.latency_us,
        req_bytes=args.req_bytes,
        resp_bytes=args.resp_bytes,
        first_class=_first_class(args.first_class),
    )


def _run(arch: str, args: argparse.Namespace):
    return run_scenario(**_cell(arch, args))


def cmd_serve(args: argparse.Namespace) -> int:
    report = _run(args.arch, args)
    print(report.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every architecture under the identical load, side by side.

    ``--jobs N`` runs the cells on worker processes; stdout stays
    byte-identical (results merge by cell index), and the fleet note --
    execution detail, not data -- goes to stderr.
    """
    if args.archs:
        archs = [a.strip() for a in args.archs.split(",") if a.strip()]
        for arch in archs:
            if arch not in ARCHITECTURES:
                print("unknown architecture %r" % arch, file=sys.stderr)
                return 2
    elif args.sf:
        # Fixture-scoped default: each fixture names the architectures
        # its archived baseline covers.
        archs = list(_sf_archs(args.sf))
    else:
        archs = sorted(ARCHITECTURES)
    cells = [_cell(arch, args) for arch in archs]
    stats = FleetStats()
    reports = compare_scenarios(cells, jobs=args.jobs, stats=stats)
    if args.jobs > 1:
        # Execution detail even when the core-count cap degraded the
        # request to in-process -- the honest answer on a small host.
        print(
            "fleet: backend=%s jobs=%d tasks=%d"
            % (stats.backend, stats.jobs, stats.tasks),
            file=sys.stderr,
        )
    hdr = "%-10s %12s %12s %12s %12s %10s" % (
        "arch", "elapsed_us", "thruput_rps", "lat_p50_us",
        "lat_p99_us", "syscalls",
    )
    print(hdr)
    print("-" * len(hdr))
    for r in reports:
        print("%-10s %12.1f %12.1f %12.1f %12.1f %10d" % (
            r.arch, r.elapsed_us, r.throughput_rps,
            r.latency_p50_us, r.latency_p99_us, r.syscalls,
        ))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="simulated multithreaded servers under deterministic "
                    "load (virtual time only)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    serve = subs.add_parser("serve", help="run one architecture")
    serve.add_argument("--arch", choices=sorted(ARCHITECTURES),
                       default="pool", help="server architecture")
    _add_scenario_args(serve)
    serve.set_defaults(fn=cmd_serve)

    compare = subs.add_parser(
        "compare", help="run all architectures under identical load"
    )
    _add_scenario_args(compare)
    compare.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (output is byte-identical for any value)",
    )
    compare.add_argument(
        "--archs", default=None,
        help="comma-separated architectures (default: all, or the "
             "fixture's own set under --sf)",
    )
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
