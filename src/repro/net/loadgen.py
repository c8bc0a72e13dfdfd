"""Deterministic open-loop load generator for the simulated network.

Clients live *in the kernel* (remote peers), not in the library: each
one is a kernel-resident :class:`~repro.unix.net.ResidentClient` state
record -- no thread, no generator, no stack -- advanced directly by
event-horizon entries (its pre-scheduled arrival, link deliveries, and
think-time wakeups).  This front-end only *compiles* the arrival
process: arrival times, and nothing else, come from a salted fork of
the world RNG -- the same seed always produces the same arrival
schedule, byte counts, and therefore the same run.  The per-client
protocol and all result counters live in the shared
:class:`~repro.unix.net.ResidentClientEngine`, which this class
delegates to, so a client costs O(1) memory and the fleet scales to
the sf100 fixture (10^5 concurrent clients) and beyond.

Open-loop: client arrivals follow the configured process regardless of
how the server is coping (the server being slow does not slow the
offered load -- queues grow instead, which is exactly what the
architecture comparison wants to expose).  Within one connection the
client is closed-loop: it sends, waits for the reply, thinks for
``think_us``, then sends again, ``requests_per_client`` times, then
closes.

Each request's ``meta`` carries the send timestamp; the server echoes
``meta`` in its reply, and the reply's arrival at the client closes the
end-to-end latency sample (two link traversals plus all server-side
queueing and service).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.unix.net import NetStack, ResidentClientEngine

ARRIVALS = ("poisson", "bursty", "uniform")


class LoadGenerator:
    """Open-loop client fleet over a :class:`~repro.unix.net.NetStack`.

    ``arrival`` selects the inter-arrival process:

    - ``poisson``: exponential gaps with mean ``mean_gap_us`` (drawn
      from the salted world RNG);
    - ``bursty``: ``burst`` clients arrive simultaneously, bursts are
      spaced ``mean_gap_us * burst`` apart (same offered rate, maximal
      short-term pressure on the accept queue);
    - ``uniform``: fixed ``mean_gap_us`` gaps.
    """

    def __init__(
        self,
        stack: NetStack,
        port: int,
        clients: int,
        requests_per_client: int = 3,
        req_bytes: int = 256,
        arrival: str = "poisson",
        mean_gap_us: float = 40.0,
        burst: int = 8,
        think_us: float = 150.0,
        start_us: float = 10.0,
        rng_salt: int = 0x6E65,  # "ne"
        collector: Optional[Any] = None,
    ) -> None:
        if arrival not in ARRIVALS:
            raise ValueError(
                "unknown arrival process %r (have: %s)"
                % (arrival, ", ".join(ARRIVALS))
            )
        self._stack = stack
        self._world = stack._world
        self._port = port
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.req_bytes = req_bytes
        self.arrival = arrival
        self.mean_gap_us = mean_gap_us
        self.burst = max(1, burst)
        self.think_us = think_us
        self.start_us = start_us
        self._rng = self._world.rng.fork(rng_salt)
        self._engine = ResidentClientEngine(
            stack,
            port,
            requests_per_client=requests_per_client,
            req_bytes=req_bytes,
            think_us=think_us,
            collector=collector,
        )

    # -- schedule ------------------------------------------------------------

    def start(self) -> None:
        """Compile every client arrival to one pre-scheduled event.

        Costs zero cycles: the fleet exists purely as event-horizon
        entries whose actions are the records' bound ``arrive``
        methods.
        """
        world = self._world
        engine = self._engine
        t = self.start_us
        for i in range(self.clients):
            if self.arrival == "poisson":
                t += self._rng.expovariate(self.mean_gap_us)
            elif self.arrival == "bursty":
                if i and i % self.burst == 0:
                    t += self.mean_gap_us * self.burst
            else:  # uniform
                t += self.mean_gap_us
            world.schedule_in(
                max(1, world.cycles_for_us(t - world.now_us)),
                engine.client(i).arrive,
                name="client-%d-arrive" % i,
            )

    # -- results (all owned by the kernel-resident engine) ---------------------

    @property
    def latencies_us(self) -> List[float]:
        return self._engine.latencies_us

    @property
    def requests_sent(self) -> int:
        return self._engine.requests_sent

    @property
    def replies(self) -> int:
        return self._engine.replies

    @property
    def refused(self) -> int:
        return self._engine.refused

    @property
    def completed(self) -> int:
        """Clients that finished all their requests and closed."""
        return self._engine.completed

    @property
    def peak_concurrent_clients(self) -> int:
        """High-water mark of clients admitted and not yet closed."""
        return self._engine.peak_active
