"""Sustained-traffic soak harness: the intake path under steady load.

The differential suites prove the intake loop is *correct*; this module
measures whether it *holds up*: a tick loop drives Zipf-shaped synthetic
traffic (:mod:`repro.ingest.loadgen`) through the bounded queue
(:mod:`repro.ingest.queue`) into a tokenless :class:`RSPServer`'s
``receive_all``, and reports steady-state events/sec and p99 intake
latency after a warmup window.

Simulated time advances ``tick_seconds`` per tick (arrival times, outage
windows, ingest-lag telemetry all live on the simulated clock);
throughput and latency are measured on the host's monotonic clock, which
is the one deliberate wall-clock dependency in the package — the numbers
*are* the measurement, like the spans in :mod:`repro.durability.journal`.

Overload comes in through the same duck-typed ``fault_hook`` seam the
production servers use: the harness asks ``fault_hook.surge_factor(now)``
for an offered-load multiplier each tick (see
:class:`repro.faults.plan.IngestSurge`), so this module never imports
:mod:`repro.faults` and the ``faults-only-in-harness`` lint rule holds.
Callers that want a flash crowd pass a
:class:`~repro.faults.injector.FaultInjector` built from
:func:`~repro.faults.plan.overload_plan`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.ingest.loadgen import SyntheticTraffic, WorkloadConfig
from repro.ingest.queue import BoundedIntakeQueue
from repro.service.server import RSPServer
from repro.telemetry import Telemetry


def _stamp() -> float:
    """Monotonic wall-clock stamp for throughput/latency measurement."""
    return time.perf_counter()  # repro: allow[det-wall-clock]


@dataclass(frozen=True)
class SoakConfig:
    """One soak scenario: workload shape plus intake-path sizing."""

    # ----------------------------------------------------- workload shape
    n_users: int = 1_000_000
    n_entities: int = 300
    zipf_exponent: float = 1.1
    opinion_fraction: float = 0.25
    #: Small impurity fractions keep the dedup / seq-resolution / validation
    #: branches warm during the soak instead of measuring a clean-path lie.
    duplicate_fraction: float = 0.01
    stale_fraction: float = 0.01
    invalid_fraction: float = 0.01
    seed: int = 0
    # ------------------------------------------------------- intake sizing
    #: Total ticks; simulated time advances ``tick_seconds`` per tick.
    ticks: int = 60
    #: Ticks excluded from steady-state throughput / latency figures.
    warmup_ticks: int = 10
    #: Baseline envelopes offered per tick (scaled by any surge factor).
    arrivals_per_tick: int = 2_000
    #: Maximum envelopes handed to the server per drain.
    drain_limit: int = 2_500
    #: Bounded-queue capacity; the shed threshold under overload.
    queue_depth: int = 5_000
    tick_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("need at least one tick")
        if not 0 <= self.warmup_ticks < self.ticks:
            raise ValueError("warmup_ticks must lie in [0, ticks)")
        if self.arrivals_per_tick < 1 or self.drain_limit < 1:
            raise ValueError("arrivals_per_tick and drain_limit must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            n_users=self.n_users,
            n_entities=self.n_entities,
            zipf_exponent=self.zipf_exponent,
            opinion_fraction=self.opinion_fraction,
            duplicate_fraction=self.duplicate_fraction,
            stale_fraction=self.stale_fraction,
            invalid_fraction=self.invalid_fraction,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SoakReport:
    """What one soak run offered, shed, processed, and measured."""

    ticks: int
    offered: int
    admitted: int
    shed: int
    drained: int
    accepted: int
    rejected: int
    duplicates: int
    stale: int
    #: Deepest the bounded queue ever got.
    max_queue_depth: int
    #: Did the queue ever shed?  The overload scenarios assert this.
    shed_engaged: bool
    #: Envelopes ingested per wall-clock second, post-warmup ticks only.
    steady_events_per_sec: float
    #: 99th-percentile offer→ingested latency, wall-clock milliseconds,
    #: post-warmup ticks only (queue wait plus service time).
    p99_latency_ms: float
    wall_seconds: float

    def as_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "drained": self.drained,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "duplicates": self.duplicates,
            "stale": self.stale,
            "max_queue_depth": self.max_queue_depth,
            "shed_engaged": self.shed_engaged,
            "steady_events_per_sec": round(self.steady_events_per_sec, 1),
            "p99_latency_ms": round(self.p99_latency_ms, 3),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_soak(
    config: SoakConfig,
    telemetry: Telemetry | None = None,
    fault_hook=None,
) -> SoakReport:
    """Drive one soak scenario end to end and measure it.

    Event counts (offered/admitted/shed/accepted/…) are pure functions of
    the config and the hook — byte-for-byte reproducible.  Only the
    throughput and latency figures depend on the host.
    """
    telemetry = Telemetry() if telemetry is None else telemetry
    traffic = SyntheticTraffic(config.workload())
    server = RSPServer(traffic.catalog, require_tokens=False)
    server.attach_telemetry(telemetry)
    queue = BoundedIntakeQueue(config.queue_depth, telemetry=telemetry)

    #: Offer-time stamp per queued envelope, FIFO like the queue itself.
    offer_stamps: deque[float] = deque()
    latencies: list[float] = []
    steady_events = 0
    steady_wall = 0.0
    offered = 0
    now = 0.0

    def pump(now: float, in_steady: bool) -> None:
        """One drain → ingest step, with its measurement bookkeeping."""
        nonlocal steady_events, steady_wall
        start = _stamp()
        batch = queue.drain(config.drain_limit)
        if batch:
            server.receive_all(batch, now=now)
        end = _stamp()
        for _ in batch:
            queued_at = offer_stamps.popleft()
            if in_steady:
                latencies.append(end - queued_at)
        if in_steady:
            steady_events += len(batch)
            steady_wall += end - start

    wall_start = _stamp()
    for tick in range(config.ticks):
        now = tick * config.tick_seconds
        surge = 1.0 if fault_hook is None else fault_hook.surge_factor(now)
        arrivals = traffic.batch(int(config.arrivals_per_tick * surge), now)
        offered += len(arrivals)
        queued_at = _stamp()
        admitted = queue.offer_all(arrivals)
        offer_stamps.extend([queued_at] * admitted)
        pump(now, in_steady=tick >= config.warmup_ticks)
    # Drain the backlog so every admitted envelope is accounted for.
    while queue.depth:
        now += config.tick_seconds
        pump(now, in_steady=True)
    wall_seconds = _stamp() - wall_start

    p99 = float(np.percentile(latencies, 99)) if latencies else 0.0
    return SoakReport(
        ticks=config.ticks,
        offered=offered,
        admitted=queue.admitted,
        shed=queue.shed,
        drained=queue.admitted - queue.depth,
        accepted=server.accepted_envelopes,
        rejected=server.rejected_envelopes,
        duplicates=server.duplicates_suppressed,
        stale=server.opinions_stale,
        max_queue_depth=queue.high_watermark,
        shed_engaged=queue.shed > 0,
        steady_events_per_sec=(steady_events / steady_wall) if steady_wall else 0.0,
        p99_latency_ms=p99 * 1000.0,
        wall_seconds=wall_seconds,
    )
