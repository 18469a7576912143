"""The RSP's service: the server half of Figure 2.

Holds the four stores (explicit reviews, anonymous interaction histories,
anonymous inferred opinions, spent tokens), runs the maintenance cycle
(fraud profiles → history filtering → opinion summaries), and answers
search queries with explicit reviews, inferred summaries, and comparative
visualizations side by side.

Token checking happens once per envelope, before dispatching the record
to its store — forged, replayed, or missing tokens bounce the whole
envelope.  Both deployments run that check in one batch loop,
:func:`repro.service.intake.intake`; :class:`ServiceFacade` is the rest
of the surface they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload
from repro.core.discovery import DiscoveryService, Query, SearchResponse
from repro.core.visualization import ComparativeVisualization, compare_entities
from repro.fraud.attestation import AttestationQuote, AttestationVerifier
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import HistoryStore, InteractionHistory
from repro.privacy.tokens import TokenIssuer, TokenRedeemer
from repro.core.protocol import Envelope
from repro.service.incremental import CycleStats, MaintenanceEngine, MonolithStoreView
from repro.service.intake import StoreLane, intake
from repro.telemetry import DEPLOYMENT, NULL, Telemetry
from repro.telemetry.catalog import DIRTY_SET_BUCKETS
from repro.world.entities import Entity

if TYPE_CHECKING:
    from repro.serve.engine import ServeQuery, ServeResponse
    from repro.serve.facade import ServingLayer


@dataclass(frozen=True)
class ExplicitReview:
    """A review posted under a user account, like on today's services."""

    # The legacy path is attributed *by design*: users post these under
    # their account exactly as on today's services (Section 2 baseline).
    user_id: str  # repro: allow[priv-server-identity]
    entity_id: str
    rating: int
    time: float

    def __post_init__(self) -> None:
        if not 1 <= self.rating <= 5:
            raise ValueError("rating must lie in 1..5")


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance cycle."""

    n_histories: int = 0
    n_rejected_histories: int = 0
    n_opinions_received: int = 0
    n_opinions_kept: int = 0
    rejected: list[HistoryVerdict] = field(default_factory=list)


def emit_maintenance_telemetry(
    telemetry: Telemetry,
    report: MaintenanceReport,
    stats: CycleStats,
    now: float | None,
    mode: str,
) -> None:
    """Record one maintenance cycle — shared by both deployments.

    Every aggregate value here derives from the report and the *tracked*
    cycle stats, which are identical across incremental and full modes
    and across shard/worker counts — so the AGGREGATE export stays
    byte-identical whatever actually executed.  The mode-dependent span
    lives under DEPLOYMENT scope, outside the invariant digest.
    """
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
        telemetry.span("maintenance", now, now)
        telemetry.span("maintenance.incremental", now, now, scope=DEPLOYMENT, mode=mode)


class ServiceFacade:
    """The surface both deployments share, defined once.

    Holds what does not depend on how the stores are partitioned: the
    catalog, token issuance, the intake counters, the harness hooks
    (``fault_hook``, ``journal``, ``telemetry``), the serving layer, and
    the summary/search read surface over the maintenance engine's caches.
    A subclass builds its stores, calls :meth:`_adopt_engine`, and
    describes its partitions to the intake loop in :meth:`_intake_lanes`.

    ``receive_all``, ``run_maintenance`` and ``query`` stay on each
    deployment's own class body: the benchmark's layer tracer
    (``perfbench/tracer.py``) wraps them where it finds them, in the
    class dict of :class:`RSPServer`.
    """

    def __init__(
        self,
        catalog: list[Entity],
        quota_per_day: int,
        key_seed: int,
        key_bits: int,
        require_tokens: bool,
        detector_config: DetectorConfig | None,
        attestation: AttestationVerifier | None,
        incremental: bool,
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

    def _adopt_engine(self, engine: MaintenanceEngine) -> None:
        self._engine = engine
        # Aliases into the engine's caches: the engine mutates these in
        # place only, so search/summary always see the latest cycle.
        self._summaries: dict[str, EntityOpinionSummary] = engine.summaries
        self._accepted_histories: dict[str, list[InteractionHistory]] = (
            engine.accepted
        )

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

    def _intake_lanes(self):
        """``(router, lanes, nonce_tables)`` for :func:`intake`: the
        deployment's :class:`StoreLane` list, one nonce table per lane,
        and the router mapping record ids and nonces to lanes (``None``
        for a single lane)."""
        raise NotImplementedError

    def receive(self, delivery: Delivery[Envelope], now: float | None = None) -> bool:
        """Process one anonymous envelope off the network.

        A batch of one through :func:`repro.service.intake.intake` (see
        there for the check order and what each outcome means): it records
        no intake-batch sample and does no group commit.
        """
        return intake(self, [delivery], now, batch=False) == 1

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


class RSPServer(ServiceFacade):
    """The re-architected recommendation service."""

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
        self._redeemer = TokenRedeemer(self.issuer.public_key)
        self.history_store = HistoryStore()
        # Latest inferred opinion per anonymous history (latest-wins: the
        # client re-uploads when its inference for an entity changes).
        self._opinions: dict[str, OpinionUpload] = {}
        self._reviews: dict[str, list[ExplicitReview]] = {}
        self._adopt_engine(
            MaintenanceEngine(
                MonolithStoreView(self.history_store, self._opinions, self._reviews),
                self.entity_kinds,
                detector_config,
            )
        )
        #: Nonces of accepted envelopes — the idempotent-dedup table.
        self._seen_nonces: set[bytes] = set()
        # The one lane: intake marks dirty entities straight into the
        # engine's set, which ``plan`` drains in place.
        self._lanes = [
            StoreLane(self.history_store, self._opinions, self._engine._dirty)
        ]
        self._nonce_tables = [self._seen_nonces]

    def _intake_lanes(self):
        return None, self._lanes, self._nonce_tables

    def receive_all(
        self, deliveries: list[Delivery[Envelope]], now: float | None = None
    ) -> int:
        """Process one batch of envelopes; returns how many were accepted."""
        return intake(self, deliveries, now)

    def query(self, query: "ServeQuery") -> "ServeResponse":
        """Answer a read-path query through the cached serving layer."""
        return self.serving.query(query)

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
        rather than arrival interleaving — and what lets the sharded
        maintenance path of :mod:`repro.scale` reproduce it bit for bit
        from any partitioning (see docs/SCALING.md).

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
        plan = self._engine.plan(full=full)
        stats = self._engine.execute(plan, full=full)
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
        return report

    # -------------------------------------------------------------- query

    def reviews_for(self, entity_id: str) -> list[ExplicitReview]:
        return list(self._reviews.get(entity_id, []))

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
