"""The sharded RSP service: N store partitions behind one intake facade.

:class:`ShardedRSPServer` exposes the same surface as the monolithic
:class:`~repro.service.server.RSPServer` — intake, maintenance, search,
counters, ``fault_hook`` — but keys every piece of durable state to one
of N shards:

* interaction histories and inferred opinions route by their unlinkable
  ``hash(Ru, e)`` record identifier (so a record, its re-uploads, and its
  opinion all live together);
* explicit reviews and entity summaries route by entity identifier;
* the seen-nonce and spent-token tables are partitioned by their own key
  bytes, which keeps duplicate suppression and double-spend rejection
  *globally* exact: identical nonces (or token ids) always meet in the
  same bucket, whatever record they arrive with.

Every behaviour here is contractually bit-identical to the monolithic
server: same accepted/rejected/duplicate classification for every intake
sequence, same maintenance reports, verdicts, and summaries for every
shard and worker count.  ``tests/scale`` holds the proof obligations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.protocol import Envelope
from repro.fraud.attestation import AttestationVerifier
from repro.fraud.detector import DetectorConfig
from repro.fraud.profiles import profiles_from_pools
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionHistory
from repro.privacy.tokens import UploadToken
from repro.scale import parallel
from repro.scale.kernel import GatherFrame, build_gather, kept_counts
from repro.scale.merge import group_verdicts_by_entity, merge_pools
from repro.scale.router import ShardRouter
from repro.scale.shard import ShardState
from repro.service.incremental import MaintenanceEngine
from repro.service.intake import intake
from repro.service.server import (
    ExplicitReview,
    MaintenanceReport,
    ServiceFacade,
    emit_maintenance_telemetry,
)
from repro.telemetry import DEPLOYMENT
from repro.world.entities import Entity

if TYPE_CHECKING:
    from repro.serve.engine import ServeQuery, ServeResponse


class ShardedTokenRedeemer:
    """Double-spend protection with the spent set partitioned by token id.

    Buckets are chosen by the token's own identifier bytes, so the two
    copies of a replayed token always contend in the same bucket — the
    partition is invisible to the double-spend semantics.
    """

    def __init__(self, public_key, router: ShardRouter) -> None:
        self._public_key = public_key
        self._router = router
        self._spent: list[set[int]] = [set() for _ in range(router.n_shards)]

    def redeem(self, token: UploadToken) -> bool:
        bucket = self._spent[self._router.shard_of_bytes(token.token_id)]
        if token.token_id in bucket:
            return False
        if not self._public_key.verify(token.token_id, token.signature):
            return False
        bucket.add(token.token_id)
        return True

    @property
    def n_redeemed(self) -> int:
        return sum(len(bucket) for bucket in self._spent)


class ShardedStoreView:
    """:class:`~repro.service.incremental.StoreView` over the shards.

    Histories are concatenated in shard-index order — the engine sorts
    every per-entity list by history id before judging or summarizing,
    so the concatenation order is unobservable.
    """

    def __init__(self, server: "ShardedRSPServer") -> None:
        self._server = server

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]:
        histories: list[InteractionHistory] = []
        for shard in self._server.shards:
            histories.extend(shard.store.histories_for_entity(entity_id))
        return histories

    def opinion(self, history_id: str):
        shard = self._server.shards[self._server.router.shard_of(history_id)]
        return shard.opinions.get(history_id)

    def has_opinion(self, history_id: str) -> bool:
        return self.opinion(history_id) is not None

    def explicit_ratings(self, entity_id: str) -> list[float]:
        shard = self._server.shards[self._server.router.shard_of(entity_id)]
        return [float(review.rating) for review in shard.reviews.get(entity_id, [])]

    def review_entities(self) -> set[str]:
        entities: set[str] = set()
        for shard in self._server.shards:
            entities.update(shard.reviews)
        return entities

    def entities_with_histories(self) -> set[str]:
        entities: set[str] = set()
        for shard in self._server.shards:
            entities.update(shard.store.entity_ids())
        return entities


class ShardedRSPServer(ServiceFacade):
    """The re-architected service, partitioned for horizontal scale.

    A ``journal`` installed here is a per-shard-lane
    :class:`~repro.durability.journal.DurableJournal` built with
    ``lane_of=self.router.shard_of``, so each shard's mutations land in
    their own WAL file.  Aggregate telemetry carries the *same* names and
    values as the monolith's; per-shard detail goes under DEPLOYMENT
    scope, outside the invariant digest.
    """

    def __init__(
        self,
        catalog: list[Entity],
        quota_per_day: int = 48,
        key_seed: int = 0,
        key_bits: int = 512,
        require_tokens: bool = True,
        detector_config: DetectorConfig | None = None,
        attestation: AttestationVerifier | None = None,
        n_shards: int = 8,
        workers: int = 0,
        incremental: bool = True,
    ) -> None:
        super().__init__(
            catalog,
            quota_per_day,
            key_seed,
            key_bits,
            require_tokens,
            detector_config,
            attestation,
            incremental,
        )
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial)")
        self.router = ShardRouter(n_shards)
        #: Worker processes for maintenance (0 = in-process serial).
        self.workers = workers
        #: Kept for resharding: split/merge derive new shard seeds from it.
        self._key_seed = key_seed
        #: Monotone count of applied reshard operations, and the ops
        #: themselves — recovery replays these to rebuild the topology.
        self.reshard_seq = 0
        self.reshard_history: list[dict] = []
        self.shards = [ShardState(index, key_seed) for index in range(n_shards)]
        self._redeemer = ShardedTokenRedeemer(self.issuer.public_key, self.router)
        self._nonce_buckets: list[set[bytes]] = [set() for _ in range(n_shards)]
        # With ``incremental=True``, maintenance re-filters/re-summarizes
        # only dirty entities serially when the dirty set is small,
        # falling back to the pooled kernel when most of the deployment is
        # dirty anyway (the hybrid keeps both paths byte-identical —
        # ``tests/scale/test_incremental.py``).
        self._adopt_engine(
            MaintenanceEngine(ShardedStoreView(self), self.entity_kinds, detector_config)
        )
        self._gather: GatherFrame | None = None
        self._gather_versions: tuple[int, ...] | None = None
        #: Times the worker pool died and maintenance re-ran serially.
        self.pool_fallbacks = 0

    def _intake_lanes(self):
        return self.router, self.shards, self._nonce_buckets

    def receive_all(
        self, deliveries: list[Delivery[Envelope]], now: float | None = None
    ) -> int:
        """Process one batch: route each record once, then lane by lane.

        See :func:`repro.service.intake.intake`; returns how many were
        accepted, with one group commit across all WAL lanes.
        """
        return intake(self, deliveries, now)

    def query(self, query: "ServeQuery") -> "ServeResponse":
        """Answer a read-path query through the cached serving layer."""
        return self.serving.query(query)

    def post_review(
        self,
        # Explicit reviews are the attributed legacy path (Section 2
        # baseline); they never mix with the anonymous hash(Ru, e) stores.
        user_id: str,  # repro: allow[priv-server-identity]
        entity_id: str,
        rating: int,
        time: float,
    ) -> None:
        """Accept an explicit, attributed review (the legacy path)."""
        if entity_id not in self.catalog:
            raise KeyError(f"unknown entity {entity_id!r}")
        shard = self.shards[self.router.shard_of(entity_id)]
        # Construct-then-journal mirrors the monolith: validation runs
        # before the WAL sees the review, the WAL before the store does.
        review = ExplicitReview(
            user_id=user_id, entity_id=entity_id, rating=rating, time=time
        )
        if self.journal is not None:
            self.journal.log_review(user_id, entity_id, rating, time)
        shard.reviews.setdefault(entity_id, []).append(review)
        shard.dirty_entities.add(entity_id)
        self.telemetry.inc("rsp.reviews.posted")

    # -------------------------------------------------------- maintenance

    def gather_frame(self) -> GatherFrame:
        """The cross-shard summarization view, cached by store version."""
        versions = tuple(shard.version for shard in self.shards)
        if self._gather is None or self._gather_versions != versions:
            frames = [shard.frame(self.entity_kinds) for shard in self.shards]
            self._gather = build_gather(
                frames,
                [shard.opinions for shard in self.shards],
                self.router.shard_of,
                self.catalog,
            )
            self._gather_versions = versions
        return self._gather

    def run_maintenance(self, now: float | None = None) -> MaintenanceReport:
        """Shard-parallel maintenance with a deterministic global merge.

        The cycle plans with the shared incremental engine (per-shard
        dirty sets drained in, pooled profiles passed in) and then picks
        one of two byte-identical executions: when few entities are
        tracked, the engine re-judges and re-summarizes just those
        serially in the parent; when at least half the deployment is
        tracked — or ``incremental=False`` — the pooled kernel recompute
        is cheaper, fanned across the shards (serially when
        ``workers == 0``): **A** pools per-kind feature values per shard
        (cached by store version, merged in the parent so the caches
        survive the fork); **B** judges every shard's histories against
        the global profiles; **C** rebuilds entity summaries per entity
        partition.  All merges are order-independent (sums, sorted
        concatenations), so the report is bit-identical to the monolithic
        cycle for any shard and worker count, in either mode.

        Telemetry is recorded in the parent process only — increments in
        forked pool workers would die with the worker, and parent-side
        recording is also what keeps the aggregate export invariant
        across worker counts.  ``now`` timestamps the cycle's spans.
        """
        report = MaintenanceReport(
            n_histories=self.n_histories,
            n_opinions_received=self.n_opinions,
        )
        shard_indices = range(self.router.n_shards)
        # Drain the per-shard dirty sets into the engine (sorted — dirty
        # sets iterate in hash order, and `repro lint` holds the line).
        for shard in self.shards:
            for entity_id in sorted(shard.dirty_entities):
                self._engine.mark_dirty(entity_id)
            shard.dirty_entities.clear()
        # Warm the per-shard frames in the parent, *before* any pool
        # forks: workers then inherit read-only columnar caches and never
        # walk the store object graphs, which keeps fork-time
        # copy-on-write from duplicating the stores.
        for shard in self.shards:
            shard.frame(self.entity_kinds)
        # Phase A runs in the parent so the per-shard pool caches persist
        # across cycles; a worker-side cache write would die with the fork.
        profiles = profiles_from_pools(
            merge_pools([shard.pools(self.entity_kinds) for shard in self.shards])
        )
        full = not self.incremental
        plan = self._engine.plan(profiles=profiles, full=full)
        # Hybrid execution: the serial engine wins while the tracked set
        # is small; once half the deployment must recompute anyway, the
        # pooled kernel is cheaper.  Both sides are byte-identical, so
        # the threshold only moves work, never results.
        use_kernel = full or 2 * len(plan.judge_tracked) >= max(1, plan.n_entities)
        if use_kernel:
            self.gather_frame()
            with parallel.MaintenancePool(self, self.workers) as pool:
                judgements = pool.map(
                    parallel.judge_shard,
                    [
                        (index, plan.profiles, self._detector_config)
                        for index in shard_indices
                    ],
                )
                rejected = sorted(
                    (
                        verdict
                        for result in judgements
                        for verdict in result.verdicts
                    ),
                    key=lambda verdict: verdict.history_id,
                )
                rejected_ids = frozenset(verdict.history_id for verdict in rejected)
                partitions = pool.map(
                    parallel.summarize_partition,
                    [(index, rejected_ids) for index in shard_indices],
                )
            accepted_histories: dict[str, list[InteractionHistory]] = {}
            for shard in self.shards:
                for history in shard.store.all_histories():
                    if history.history_id in rejected_ids:
                        continue
                    accepted_histories.setdefault(history.entity_id, []).append(
                        history
                    )
            for histories in accepted_histories.values():
                histories.sort(key=lambda history: history.history_id)
            stats = self._engine.adopt_full(
                plan,
                accepted_histories,
                group_verdicts_by_entity(rejected),
                kept_counts(self.gather_frame(), rejected_ids),
                [summary for partition in partitions for summary in partition],
            )
        else:
            stats = self._engine.execute(plan)
        report.rejected = self._engine.rejected_verdicts()
        report.n_rejected_histories = len(report.rejected)
        report.n_opinions_kept = self._engine.n_opinions_kept
        emit_maintenance_telemetry(
            self.telemetry,
            report,
            stats,
            now,
            mode="incremental" if self.incremental else "full",
        )
        for shard in self.shards:
            self.telemetry.set_gauge(
                "rsp.shard.histories",
                shard.store.n_histories,
                scope=DEPLOYMENT,
                shard=shard.index,
            )
        if now is not None:
            for shard in self.shards:
                self.telemetry.span(
                    "shard.maintenance", now, now, scope=DEPLOYMENT, shard=shard.index
                )
        return report

    # -------------------------------------------------------- resharding
    #
    # Live topology changes.  These two methods are pure state migration:
    # no journaling, no telemetry — :func:`repro.reshard.ops.perform`
    # wraps them with the WAL record (journal-before-migrate) and the
    # ``rsp.reshard.*`` DEPLOYMENT metrics, and recovery calls them
    # directly when replaying a reshard record.  Both run between intake
    # batches (single-threaded deployment loop), so the router swap at
    # the end is atomic as far as any caller can observe.

    def split_shard(self, index: int) -> dict[str, int]:
        """Split shard ``index``: extend its prefix, move only its keys.

        The new shard takes the next free slot (``n_shards``) and adopts
        exactly the state whose keys route to it under the post-split
        table: whole histories (records and folded stats ride along),
        opinion slots (their ``seq`` ordering moves with them), explicit
        reviews, seen nonces, and spent tokens.  Dirty-entity marks move
        with the state *only for entities already marked* — marking a
        clean entity would change the incremental engine's tracked set
        and break AGGREGATE-telemetry identity with a static deployment.
        Returns per-kind moved counts.
        """
        router = self.router.split(index)
        new_index = self.n_shards_live
        source = self.shards[index]
        dest = ShardState(new_index, self._key_seed)
        moved_entities: set[str] = set()
        moved = {"histories": 0, "opinions": 0, "reviews": 0, "nonces": 0, "tokens": 0}
        for history in source.store.all_histories():
            if router.shard_of(history.history_id) == new_index:
                dest.store.adopt(source.store.release(history.history_id))
                moved_entities.add(history.entity_id)
                moved["histories"] += 1
        for history_id in sorted(source.opinions):
            if router.shard_of(history_id) == new_index:
                dest.opinions[history_id] = source.opinions.pop(history_id)
                moved["opinions"] += 1
        for entity_id in sorted(source.reviews):
            if router.shard_of(entity_id) == new_index:
                dest.reviews[entity_id] = source.reviews.pop(entity_id)
                moved_entities.add(entity_id)
                moved["reviews"] += len(dest.reviews[entity_id])
        dest.dirty_entities.update(
            entity_id
            for entity_id in moved_entities
            if entity_id in source.dirty_entities
        )
        source_nonces = self._nonce_buckets[index]
        moved_nonces = {
            nonce
            for nonce in source_nonces
            if router.shard_of_bytes(nonce) == new_index
        }
        source_nonces -= moved_nonces
        self._nonce_buckets.append(moved_nonces)
        moved["nonces"] = len(moved_nonces)
        source_tokens = self._redeemer._spent[index]
        moved_tokens = {
            token_id
            for token_id in source_tokens
            if router.shard_of_bytes(token_id) == new_index
        }
        source_tokens -= moved_tokens
        self._redeemer._spent.append(moved_tokens)
        moved["tokens"] = len(moved_tokens)
        self.shards.append(dest)
        self._finish_reshard(source, dest, router)
        return moved

    def merge_shards(self, a: int, b: int) -> dict[str, int]:
        """Merge shard ``b`` into shard ``a``; shards above ``b`` renumber.

        All of ``b``'s state lands on ``a`` through the commutative merge
        algebra: routing keeps the key spaces disjoint, so histories
        adopt into fresh slots, opinion slots and review lists transplant
        whole (review order within an entity is preserved — ``b`` owned
        the only list), nonce/token buckets union, and dirty marks union.
        Returns per-kind moved counts.
        """
        router = self.router.merge(a, b)
        source, dest = self.shards[b], self.shards[a]
        moved = {
            "histories": source.store.n_histories,
            "opinions": len(source.opinions),
            "reviews": sum(len(reviews) for reviews in source.reviews.values()),
            "nonces": len(self._nonce_buckets[b]),
            "tokens": len(self._redeemer._spent[b]),
        }
        for history in source.store.all_histories():
            dest.store.adopt(history)
        dest.opinions.update(source.opinions)
        for entity_id in sorted(source.reviews):
            dest.reviews.setdefault(entity_id, []).extend(source.reviews[entity_id])
        dest.dirty_entities |= source.dirty_entities
        self._nonce_buckets[a] |= self._nonce_buckets[b]
        del self._nonce_buckets[b]
        self._redeemer._spent[a] |= self._redeemer._spent[b]
        del self._redeemer._spent[b]
        del self.shards[b]
        for shard in self.shards[b:]:
            shard.renumber(shard.index - 1, self._key_seed)
        self._finish_reshard(source, dest, router)
        return moved

    def _finish_reshard(
        self, source: ShardState, dest: ShardState, router: ShardRouter
    ) -> None:
        """Swap the routing table in and invalidate every cached view."""
        source.store_version += 1
        source.version += 1
        dest.store_version += 1
        dest.version += 1
        self.router = router
        self._redeemer._router = router
        self._gather = None
        self._gather_versions = None
        if self.journal is not None:
            self.journal.remap_lanes(router.n_shards, router.shard_of)

    @property
    def n_shards_live(self) -> int:
        """The current shard count (changes across split/merge)."""
        return len(self.shards)

    # -------------------------------------------------------------- query

    def reviews_for(self, entity_id: str) -> list[ExplicitReview]:
        shard = self.shards[self.router.shard_of(entity_id)]
        return list(shard.reviews.get(entity_id, []))

    # ----------------------------------------------------------- counters

    @property
    def n_records(self) -> int:
        return sum(shard.store.n_records for shard in self.shards)

    @property
    def n_histories(self) -> int:
        return sum(shard.store.n_histories for shard in self.shards)

    @property
    def n_opinions(self) -> int:
        return sum(len(shard.opinions) for shard in self.shards)

    @property
    def n_explicit_reviews(self) -> int:
        return sum(
            len(reviews)
            for shard in self.shards
            for reviews in shard.reviews.values()
        )

    @property
    def n_unique_nonces(self) -> int:
        """Distinct envelope nonces accepted — duplicates never inflate this."""
        return sum(len(bucket) for bucket in self._nonce_buckets)
