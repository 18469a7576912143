"""``repro.ingest`` — the million-user intake front end.

Three pieces, composable but independent:

* :func:`ingest_all` — hands one batch of deliveries to either server
  deployment's ``receive_all``, which runs every envelope through the
  one intake loop, :func:`repro.service.intake.intake` (outage, nonce
  shape, token, nonce dedup, kind dispatch, WAL-before-ack).
* :mod:`repro.ingest.queue` — :class:`BoundedIntakeQueue`, admission
  control with deterministic shed-before-journal load-shedding and
  ``rsp.ingest.*`` telemetry.
* :mod:`repro.ingest.loadgen` / :mod:`repro.ingest.soak` — Zipf-shaped
  synthetic wire traffic at million-user scale and the sustained-traffic
  soak harness that measures steady-state events/sec and p99 intake
  latency over it.

This is harness-facing front-end code: it sits *in front of* the service
layer (it may import :mod:`repro.service` and :mod:`repro.scale`, never
the other way around) and it never imports :mod:`repro.faults` — overload
scenarios come in through the same duck-typed ``fault_hook`` seam the
servers use.  See ``docs/SCALING.md`` (ingest path) and
``docs/OBSERVABILITY.md`` (metric catalog).
"""

from __future__ import annotations

from repro.ingest.loadgen import SyntheticTraffic, WorkloadConfig, synthetic_catalog
from repro.ingest.queue import BoundedIntakeQueue
from repro.ingest.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "BoundedIntakeQueue",
    "SoakConfig",
    "SoakReport",
    "SyntheticTraffic",
    "WorkloadConfig",
    "ingest_all",
    "run_soak",
    "synthetic_catalog",
]


def ingest_all(server, deliveries, now: float | None = None) -> int:
    """Process one batch through ``server``'s intake loop.

    Works against any shard count and returns the number of accepted
    envelopes.  ``now`` overrides the time
    the outage check sees, as in ``receive_all``.
    """
    return server.receive_all(deliveries, now=now)
