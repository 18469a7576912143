"""The reference monolith every deployment is proven against.

:class:`OracleServer` is the RSP as one unpartitioned object: one
history store, one opinion dict, one review dict, one nonce set and one
spent-token set, with none of the server's routing, columnar kernel or
batched intake.  Two of its paths are the references the program
is checked against:

* **maintenance** is the per-entity engine pass
  (:meth:`~repro.service.incremental.MaintenanceEngine.execute` over a
  :class:`MonolithStoreView`) with fraud profiles rebuilt from every
  stored history each cycle; ``incremental=False`` runs the full
  per-entity recompute.  The server's columnar kernel and its hybrid
  serial path must match it byte for byte
  (``tests/scale/test_differential.py``, ``tests/scale/test_incremental.py``);
* **intake** is the original per-record ``receive``: one envelope at a
  time, every counter and telemetry instrument touched per envelope, no
  memoization, no inlined store appends, the store's own ``append`` and
  ``bound_entity`` doing the work.  :func:`repro.service.intake.intake`
  must produce the same classification, stores, counters, telemetry
  export and WAL bytes (``tests/ingest/test_differential.py``).

The oracle predates the nonce-shape check: a nonce that is neither
``None`` nor ``bytes`` is outside its domain (it accepts such an envelope
and, with a journal attached, crashes after the store write), so the
parity streams never carry one — ``tests/ingest/test_malformed_nonce.py``
pins that case on its own.

A deployment with several lanes processes a batch lane by lane (delivery
order kept within a lane); :func:`in_lane_order` gives the oracle the
same order, which is what makes WAL sequence numbers comparable.
:func:`oracle_server` has :func:`repro.service.server.build_server`'s
signature, so it can stand in for it in ``run_epochs``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload
from repro.core.discovery import DiscoveryService, Query, SearchResponse
from repro.core.protocol import Envelope
from repro.core.visualization import ComparativeVisualization, compare_entities
from repro.fraud.attestation import AttestationQuote, AttestationVerifier
from repro.fraud.detector import DetectorConfig
from repro.fraud.profiles import build_profiles
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import HistoryStore, InteractionHistory, InteractionUpload
from repro.privacy.tokens import TokenIssuer, TokenRedeemer
from repro.scale.router import ShardRouter
from repro.scale.server import ExplicitReview, MaintenanceReport
from repro.service.incremental import MaintenanceEngine
from repro.telemetry import DEPLOYMENT, NULL, Telemetry
from repro.telemetry.catalog import (
    DIRTY_SET_BUCKETS,
    INGEST_LAG_BUCKETS,
    INTAKE_BATCH_BUCKETS,
)
from repro.world.entities import Entity

if TYPE_CHECKING:
    from repro.serve.engine import ServeQuery, ServeResponse
    from repro.serve.facade import ServingLayer


def in_lane_order(deliveries, n_shards):
    """``deliveries`` in the order an ``n_shards`` deployment processes them."""
    router = ShardRouter(n_shards)

    def lane(delivery):
        key = getattr(delivery.payload.record, "history_id", None)
        return router.shard_of(key) if isinstance(key, str) else 0

    return sorted(deliveries, key=lane)


class MonolithStoreView:
    """:class:`StoreView` over the monolithic server's stores."""

    def __init__(self, history_store, opinions: dict, reviews: dict) -> None:
        self._store = history_store
        self._opinions = opinions
        self._reviews = reviews

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]:
        return self._store.histories_for_entity(entity_id)

    def opinion(self, history_id: str) -> OpinionUpload | None:
        return self._opinions.get(history_id)

    def has_opinion(self, history_id: str) -> bool:
        return history_id in self._opinions

    def explicit_ratings(self, entity_id: str) -> list[float]:
        return [float(r.rating) for r in self._reviews.get(entity_id, [])]

    def review_entities(self) -> set[str]:
        return set(self._reviews)

    def entities_with_histories(self) -> set[str]:
        return set(self._store.entity_ids())


class OracleServer:
    """The monolithic RSP: per-entity maintenance, per-record intake."""

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
    ) -> None:
        if not catalog:
            raise ValueError("catalog must be non-empty")
        self.catalog = {entity.entity_id: entity for entity in catalog}
        self.entity_kinds = {e.entity_id: e.kind.label for e in catalog}
        self.issuer = TokenIssuer(
            quota_per_day=quota_per_day, key_seed=key_seed, key_bits=key_bits
        )
        self.require_tokens = require_tokens
        self.attestation = attestation
        self.rejected_attestations = 0
        self._discovery = DiscoveryService(catalog)
        self._detector_config = detector_config
        #: ``False`` forces every maintenance cycle to recompute from
        #: scratch — the contractual baseline the incremental path must
        #: match byte for byte (``tests/scale/test_incremental.py``).
        self.incremental = incremental
        self.accepted_envelopes = 0
        self.rejected_envelopes = 0
        #: Network-level copies of accepted envelopes, suppressed by the
        #: nonce table — the idempotent dedup that makes retransmission
        #: over the ack-free channel safe.  Keyed on the envelope's random
        #: nonce, never on a payload or identity digest (see
        #: docs/RELIABILITY.md for why).
        self.duplicates_suppressed = 0
        #: Stale opinion re-uploads dropped by ``seq`` ordering (the
        #: envelope still counts as accepted; only the slot write is
        #: skipped — see docs/RELIABILITY.md).
        self.opinions_stale = 0
        #: Interaction uploads bounced because their history identifier
        #: is bound to a different entity (client bug or corruption
        #: attempt).
        self.history_mismatches = 0
        #: Envelopes that arrived while the endpoint was down (harness
        #: hook); the fire-and-forget sender never learns about these.
        self.dropped_by_outage = 0
        #: Optional harness hook with ``server_down(now) -> bool``.
        self.fault_hook = None
        #: Optional durability hook (duck-typed like ``fault_hook``): a
        #: :class:`repro.durability.journal.DurableJournal` installed by
        #: the deployment driver.  Accepted mutations are journaled
        #: *before* the acceptance commit; a journal failure propagates —
        #: the process must die rather than acknowledge unlogged state.
        self.journal = None
        #: Aggregate-only observability sink (no-op until a harness
        #: installs a real :class:`~repro.telemetry.Telemetry`).
        self.telemetry: Telemetry = NULL
        #: Lazily constructed read path (see :attr:`serving`).
        self._serving = None
        self._redeemer = TokenRedeemer(self.issuer.public_key)
        self.history_store = HistoryStore()
        # Latest inferred opinion per anonymous history (latest-wins: the
        # client re-uploads when its inference for an entity changes).
        self._opinions: dict[str, OpinionUpload] = {}
        self._reviews: dict[str, list[ExplicitReview]] = {}
        self._engine = MaintenanceEngine(
            MonolithStoreView(self.history_store, self._opinions, self._reviews),
            self.entity_kinds,
            detector_config,
        )
        self._summaries: dict[str, EntityOpinionSummary] = self._engine.summaries
        self._accepted_histories: dict[str, list[InteractionHistory]] = (
            self._engine.accepted
        )
        #: Nonces of accepted envelopes — the idempotent-dedup table.
        self._seen_nonces: set[bytes] = set()

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Install a shared telemetry sink on the server and its issuer."""
        self.telemetry = telemetry
        self.issuer.telemetry = telemetry

    # --------------------------------------------------------------- serving

    def attach_serving(self, **kwargs) -> "ServingLayer":
        """Build the indexed serving layer (see :mod:`repro.serve`).

        Keyword arguments are forwarded to
        :class:`~repro.serve.facade.ServingLayer` (``grid``, ``ranking``,
        ``max_cache_entries``).  Idempotent only in the trivial sense:
        attaching again replaces the layer and cold-starts its cache.
        """
        from repro.serve.facade import ServingLayer

        self._serving = ServingLayer(self, **kwargs)
        return self._serving

    @property
    def serving(self) -> "ServingLayer":
        """The read path, constructed on first use.

        Lazy on purpose: a deployment that never queries never subscribes
        to maintenance notifications and never emits ``rsp.serve.*``
        metrics, keeping query-free telemetry exports bit-stable.
        """
        if self._serving is None:
            self.attach_serving()
        return self._serving

    def query(self, query: "ServeQuery") -> "ServeResponse":
        """Answer a read-path query through the cached serving layer."""
        return self.serving.query(query)

    # ------------------------------------------------------------- intake

    def issue_tokens(
        self,
        # Issuance-side identity only: the signature is blind, so the token
        # redeemed later cannot be linked back to this device_id (Section 4.2).
        device_id: str,  # repro: allow[priv-server-identity]
        blinded_values: list[int],
        now: float,
        quote: AttestationQuote | None = None,
    ) -> list[int]:
        """Blind-sign upload tokens for an attested device.

        When the server was built with an attestation verifier (Section
        4.3's remote-attestation defense), a valid fresh quote from a
        genuine client build is required — modified clients are cut off
        from uploading *anything* because they can never obtain tokens.
        Issuance is a single-endpoint concern (quota windows are per
        device), so it is never partitioned; only redemption state is.
        """
        if self.attestation is not None:
            if quote is None or not self.attestation.verify(quote):
                self.rejected_attestations += 1
                raise PermissionError(
                    f"device {device_id} failed attestation; no tokens issued"
                )
        return self.issuer.issue(device_id, blinded_values, now=now)

    def receive(self, delivery: Delivery[Envelope], now: float | None = None) -> bool:
        """Process one anonymous envelope off the network.

        Intake order is deliberate: outage check first (a down endpoint
        processes nothing, so neither the token nor the nonce of a lost
        envelope is consumed and a retransmitted copy can still land);
        then the token trust boundary (only token-valid envelopes may
        *write* dedup state, so an unauthenticated sender can never squat
        a nonce and suppress someone's legitimate record); then idempotent
        nonce dedup; then record validation.  A nonce is marked seen only
        when its record is accepted, so a rejected upload can be repaired
        and retransmitted under the same nonce.  One classification
        nuance: a token failure whose nonce is already accepted is counted
        as a suppressed duplicate rather than a rejection — an identical
        network-replayed copy carries its original's spent token.

        Acceptance is transactional with store dispatch: the accept
        counter and the nonce table are touched only after the record is
        durably in its store, so a poisoned record that raises mid-append
        neither inflates the counters nor burns its nonce — the sender may
        repair and retransmit under the same nonce.

        ``now`` overrides the time the outage check sees: a catch-up
        batch job processing a backlog held through an outage passes its
        own (post-outage) processing time, because the endpoint being
        down when an envelope *queued* must not drop it once it is
        processed later (see :func:`repro.orchestration.epochs.run_epochs`).
        """
        envelope = delivery.payload
        if self.fault_hook is not None and self.fault_hook.server_down(
            delivery.arrival_time if now is None else now
        ):
            self.dropped_by_outage += 1
            self.telemetry.inc("rsp.envelopes.outage_dropped")
            return False
        nonce = getattr(envelope, "nonce", None)
        if self.require_tokens:
            if envelope.token is None or not self._redeemer.redeem(envelope.token):
                # A token failure on an already-accepted nonce is, with
                # overwhelming probability, a network-level duplicate of
                # the accepted envelope (its token was spent when the
                # first copy landed) — classify it as a suppressed
                # duplicate, not a fraud bounce.
                if nonce is not None and nonce in self._seen_nonces:
                    self.duplicates_suppressed += 1
                    self.telemetry.inc("rsp.envelopes.duplicate")
                else:
                    self.rejected_envelopes += 1
                    self.telemetry.inc("rsp.envelopes.rejected", reason="token")
                return False
        if nonce is not None and nonce in self._seen_nonces:
            self.duplicates_suppressed += 1
            self.telemetry.inc("rsp.envelopes.duplicate")
            return False
        token_id = (
            envelope.token.token_id
            if self.require_tokens and envelope.token is not None
            else None
        )
        record = envelope.record
        record_kind = None
        try:
            if isinstance(record, InteractionUpload):
                if record.entity_id not in self.catalog:
                    self.rejected_envelopes += 1
                    self.telemetry.inc("rsp.envelopes.rejected", reason="unknown-entity")
                    return False
                bound = self.history_store.bound_entity(record.history_id)
                if bound is not None and bound != record.entity_id:
                    # The identifier is bound to another entity: a client
                    # bug or a corruption attempt, not a storage failure —
                    # keep it out of the generic "unstored" bucket so
                    # fraud-facing dashboards see it.
                    self.history_mismatches += 1
                    self.rejected_envelopes += 1
                    self.telemetry.inc(
                        "rsp.envelopes.rejected", reason="history-mismatch"
                    )
                    return False
                stored = self.history_store.append(
                    record, arrival_time=delivery.arrival_time
                )
                if stored:
                    self._engine.mark_dirty(record.entity_id)
                record_kind = "interaction"
            elif isinstance(record, OpinionUpload):
                if record.entity_id not in self.catalog:
                    self.rejected_envelopes += 1
                    self.telemetry.inc("rsp.envelopes.rejected", reason="unknown-entity")
                    return False
                existing = self._opinions.get(record.history_id)
                if existing is None or record.seq > existing.seq:
                    self._opinions[record.history_id] = record
                    self._engine.note_opinion(
                        existing,
                        record,
                        owner=self.history_store.bound_entity(record.history_id),
                    )
                else:
                    # A delayed/reordered re-upload older than (or tying)
                    # the slot: drop the write, but accept the envelope —
                    # the sender behaved correctly and must not retransmit.
                    self.opinions_stale += 1
                    self.telemetry.inc("rsp.opinions.stale")
                stored = True
                record_kind = "opinion"
            else:
                self.rejected_envelopes += 1
                self.telemetry.inc("rsp.envelopes.rejected", reason="malformed")
                return False
        except Exception:
            # Store dispatch blew up: nothing was durably written, so
            # nothing may be marked accepted.
            self.rejected_envelopes += 1
            self.telemetry.inc("rsp.envelopes.rejected", reason="store-error")
            return False
        if stored:
            # WAL-before-ack: the mutation is journaled (and flushed)
            # before the accept counter and nonce burn commit, so a
            # crash on either side of this line is recoverable — see
            # docs/DURABILITY.md.
            if self.journal is not None:
                if record_kind == "interaction":
                    self.journal.log_interaction(
                        record, delivery.arrival_time, nonce, token_id
                    )
                else:
                    self.journal.log_opinion(record, nonce, token_id)
            self._mark_accepted(nonce)
            self.telemetry.inc("rsp.envelopes.accepted", record=record_kind)
            if record_kind == "interaction":
                self.telemetry.observe(
                    "rsp.ingest_lag",
                    delivery.arrival_time - record.event_time,
                    buckets=INGEST_LAG_BUCKETS,
                )
        else:
            self.rejected_envelopes += 1
            self.telemetry.inc("rsp.envelopes.rejected", reason="unstored")
        return stored

    def _mark_accepted(self, nonce: bytes | None) -> None:
        self.accepted_envelopes += 1
        if nonce is not None:
            self._seen_nonces.add(nonce)

    def receive_all(
        self, deliveries: list[Delivery[Envelope]], now: float | None = None
    ) -> int:
        self.telemetry.observe(
            "rsp.intake.batch", len(deliveries), buckets=INTAKE_BATCH_BUCKETS
        )
        accepted = sum(1 for delivery in deliveries if self.receive(delivery, now=now))
        if self.journal is not None:
            # Group commit: each accepted envelope's WAL frame was already
            # flushed before its ack; the batch boundary is where the
            # journal fsyncs for power-loss durability.
            self.journal.sync_to_disk()
        return accepted

    def post_review(
        self,
        # Explicit reviews are the attributed legacy path (Section 2 baseline);
        # they never mix with the anonymous hash(Ru, e) stores.
        user_id: str,  # repro: allow[priv-server-identity]
        entity_id: str,
        rating: int,
        time: float,
    ) -> None:
        """Accept an explicit, attributed review (the legacy path)."""
        if entity_id not in self.catalog:
            raise KeyError(f"unknown entity {entity_id!r}")
        # Constructing first validates the rating, so an invalid review
        # can never reach the WAL; journaling precedes the store append.
        review = ExplicitReview(
            user_id=user_id, entity_id=entity_id, rating=rating, time=time
        )
        if self.journal is not None:
            self.journal.log_review(user_id, entity_id, rating, time)
        self._reviews.setdefault(entity_id, []).append(review)
        self._engine.mark_dirty(entity_id)
        self.telemetry.inc("rsp.reviews.posted")

    # -------------------------------------------------------- maintenance

    def run_maintenance(self, now: float | None = None) -> MaintenanceReport:
        """Rebuild fraud profiles, filter histories, recompute summaries.

        ``now`` is the simulated time of the cycle; when given, the cycle
        is recorded as a ``maintenance`` span on the telemetry timeline.

        Aggregation inputs are put into *canonical order* (histories and
        opinions sorted by ``history_id``, entities visited in sorted
        order, verdicts sorted by ``history_id``) before any float math
        runs.  Floating-point reductions are order-dependent, so this is
        what makes the cycle's output a pure function of store *content*
        rather than arrival interleaving — and what lets the server's
        columnar kernel reproduce it bit for bit from any partitioning
        (see docs/SCALING.md).

        That same purity makes the cycle incremental: by default only
        entities dirtied since the last cycle (plus the profile-digest
        and verdict-flip cascades) are re-filtered and re-summarized;
        with ``incremental=False`` everything recomputes from scratch.
        The two modes are byte-identical in every report, summary, and
        aggregate telemetry value (``tests/scale/test_incremental.py``).
        """
        report = MaintenanceReport(
            n_histories=self.history_store.n_histories,
            n_opinions_received=len(self._opinions),
        )
        full = not self.incremental
        # From-scratch profiles: every stored history pooled every cycle.
        plan = self._engine.plan(build_profiles(self.history_store, self.entity_kinds))
        stats = self._engine.execute(plan, full=full)
        report.rejected = self._engine.rejected_verdicts()
        report.n_rejected_histories = len(report.rejected)
        report.n_opinions_kept = self._engine.n_opinions_kept
        telemetry = self.telemetry
        telemetry.inc("rsp.maintenance.cycles")
        telemetry.set_gauge("rsp.maintenance.histories", report.n_histories)
        telemetry.set_gauge(
            "rsp.maintenance.rejected_histories", report.n_rejected_histories
        )
        telemetry.set_gauge("rsp.maintenance.opinions_kept", report.n_opinions_kept)
        telemetry.set_gauge("rsp.maintenance.dirty_entities", stats.n_dirty)
        telemetry.set_gauge("rsp.maintenance.cached_entities", stats.n_judge_cached)
        telemetry.inc("rsp.maintenance.cache_hits", stats.n_judge_cached, phase="judge")
        telemetry.inc("rsp.maintenance.cache_skips", stats.n_judge_tracked, phase="judge")
        telemetry.inc(
            "rsp.maintenance.cache_hits", stats.n_summarize_cached, phase="summarize"
        )
        telemetry.inc(
            "rsp.maintenance.cache_skips", stats.n_summarize_tracked, phase="summarize"
        )
        telemetry.inc("rsp.maintenance.redirtied", stats.n_redirtied)
        telemetry.observe(
            "rsp.maintenance.dirty_set", stats.n_judge_tracked, buckets=DIRTY_SET_BUCKETS
        )
        if now is not None:
            mode = "incremental" if self.incremental else "full"
            telemetry.span("maintenance", now, now)
            telemetry.span("maintenance.incremental", now, now, scope=DEPLOYMENT, mode=mode)
        return report

    # -------------------------------------------------------------- query

    def summary(self, entity_id: str) -> EntityOpinionSummary | None:
        return self._summaries.get(entity_id)

    def all_summaries(self) -> dict[str, EntityOpinionSummary]:
        """Every entity summary from the latest maintenance cycle.

        Canonical (entity-id) order: the engine's cache is insertion-
        ordered by recompute history, which differs between incremental
        and full cycles and between deployments — sorting keeps every
        reader order-independent.
        """
        return {
            entity_id: self._summaries[entity_id]
            for entity_id in sorted(self._summaries)
        }

    def search(self, query: Query, compare_top: int = 3) -> SearchResponse:
        """Answer a query with ranked results plus comparative visualizations
        of the top candidates (Figure 3 as a product feature)."""
        response = self._discovery.search(query, self._summaries)
        visualization: ComparativeVisualization | None = None
        top = [r.entity.entity_id for r in response.results[:compare_top]]
        if top:
            visualization = compare_entities(
                {
                    entity_id: self._accepted_histories.get(entity_id, [])
                    for entity_id in top
                }
            )
        return SearchResponse(
            query=response.query, results=response.results, visualization=visualization
        )


    def reviews_for(self, entity_id: str) -> list[ExplicitReview]:
        return list(self._reviews.get(entity_id, []))

    def opinion(self, history_id: str) -> OpinionUpload | None:
        return self._opinions.get(history_id)

    @property
    def n_records(self) -> int:
        """Total interactions stored (shard-agnostic store-size accessor)."""
        return self.history_store.n_records

    @property
    def n_histories(self) -> int:
        return self.history_store.n_histories

    @property
    def n_unique_nonces(self) -> int:
        """Distinct envelope nonces accepted — duplicates never inflate this."""
        return len(self._seen_nonces)

    @property
    def n_explicit_reviews(self) -> int:
        return sum(len(reviews) for reviews in self._reviews.values())

    @property
    def n_opinions(self) -> int:
        return len(self._opinions)


def oracle_server(catalog, n_shards=1, workers=0, **options) -> OracleServer:
    """:func:`repro.service.server.build_server` with the oracle built
    instead; the shard and worker counts do not apply to it."""
    return OracleServer(catalog, **options)
