"""The RSP server and its horizontal scale-out.

The paper's repository must absorb implicit opinions from *every* user of
a service — orders of magnitude more input than today's explicit reviews
(Section 2, Table 1).  :class:`ShardedRSPServer` is the one server
implementation: it shards the four stores across N partitions keyed by a
prefix of the unlinkable ``hash(Ru, e)`` record identifier and runs the
maintenance cycle (fraud profiling → history filtering → opinion
summarization) shard-parallel across a ``concurrent.futures`` worker
pool.  The paper's single server, :class:`~repro.service.server.RSPServer`,
is its one-shard deployment, and any deployment can split or merge
shards live (:mod:`repro.reshard`).

The load-bearing promise is *equivalence*: for every input sequence every
shard count accepts exactly the envelopes the per-entity reference
monolith (``tests/oracle.py``) accepts, and its maintenance cycle
produces bit-identical reports, verdicts, and entity summaries for every
shard count and worker count.  ``tests/scale`` proves this
differentially and property-wise; ``docs/SCALING.md`` explains why it
holds.
"""

from repro.scale.merge import merge_counts, merge_folded, merge_histories, merge_pools
from repro.scale.parallel import MaintenancePool
from repro.scale.router import ShardRouter
from repro.scale.server import ShardedRSPServer
from repro.scale.shard import ShardState

__all__ = [
    "MaintenancePool",
    "ShardRouter",
    "ShardState",
    "ShardedRSPServer",
    "merge_counts",
    "merge_folded",
    "merge_histories",
    "merge_pools",
]
