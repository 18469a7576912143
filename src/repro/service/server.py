"""The RSP's service: the server half of Figure 2.

:class:`RSPServer` is the paper's single server.  It is the one-shard
deployment of :class:`~repro.scale.server.ShardedRSPServer`, the one
server implementation: one store layout, one maintenance path, one
review, counter and reshard surface for every shard count.  A one-shard
server can split into more shards live, like any other.
"""

from __future__ import annotations

from repro.fraud.attestation import AttestationVerifier
from repro.fraud.detector import DetectorConfig
from repro.scale.server import ExplicitReview, MaintenanceReport, ShardedRSPServer
from repro.world.entities import Entity

__all__ = ["ExplicitReview", "MaintenanceReport", "RSPServer", "build_server"]


class RSPServer(ShardedRSPServer):
    """The re-architected recommendation service, on one shard."""

    def __init__(
        self,
        catalog: list[Entity],
        quota_per_day: int = 48,
        key_seed: int = 0,
        key_bits: int = 512,
        require_tokens: bool = True,
        detector_config: DetectorConfig | None = None,
        attestation: AttestationVerifier | None = None,
        incremental: bool = True,
        workers: int = 0,
    ) -> None:
        super().__init__(
            catalog,
            quota_per_day=quota_per_day,
            key_seed=key_seed,
            key_bits=key_bits,
            require_tokens=require_tokens,
            detector_config=detector_config,
            attestation=attestation,
            n_shards=1,
            workers=workers,
            incremental=incremental,
        )

    # The benchmark's layer tracer (perfbench/tracer.py) wraps these three
    # in this class's own dict, so they are bound here as well.
    receive_all = ShardedRSPServer.receive_all
    run_maintenance = ShardedRSPServer.run_maintenance
    query = ShardedRSPServer.query


def build_server(
    catalog: list[Entity], n_shards: int = 1, **options
) -> ShardedRSPServer:
    """The service with ``n_shards`` store partitions.

    ``options`` are the server's keyword arguments.  One shard is
    :class:`RSPServer`, the paper's server; more are a
    :class:`~repro.scale.server.ShardedRSPServer`.  The two behave
    identically: this only picks the class name that instruments see.
    """
    if n_shards == 1:
        return RSPServer(catalog, **options)
    return ShardedRSPServer(catalog, n_shards=n_shards, **options)
