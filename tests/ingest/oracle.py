"""The per-record intake reference the intake loop is proven against.

:class:`OracleServer` is a monolithic :class:`RSPServer` whose
``receive``/``receive_all`` are the service's original per-record intake,
kept verbatim: one envelope at a time, every counter and telemetry
instrument touched per envelope, no memoization, no inlined store
appends, the store's own ``append`` and ``bound_entity`` doing the work.
The differential suite (``test_differential.py``) runs the same delivery
streams through it and through :func:`repro.service.intake.intake` on
both deployments, and requires the same classification, stores,
counters, telemetry export and WAL bytes.

The oracle predates the nonce-shape check: a nonce that is neither
``None`` nor ``bytes`` is outside its domain (it accepts such an envelope
and, with a journal attached, crashes after the store write), so the
parity streams never carry one — ``test_malformed_nonce.py`` pins that
case on its own.

The sharded deployment processes a batch lane by lane (delivery order
kept within a lane); :func:`in_lane_order` gives the oracle the same
order, which is what makes WAL sequence numbers comparable.
"""

from __future__ import annotations

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.scale.router import ShardRouter
from repro.service.server import RSPServer
from repro.telemetry.catalog import INGEST_LAG_BUCKETS, INTAKE_BATCH_BUCKETS


def in_lane_order(deliveries, n_shards):
    """``deliveries`` in the order an ``n_shards`` deployment processes them."""
    router = ShardRouter(n_shards)

    def lane(delivery):
        key = getattr(delivery.payload.record, "history_id", None)
        return router.shard_of(key) if isinstance(key, str) else 0

    return sorted(deliveries, key=lane)


class OracleServer(RSPServer):
    """A monolith running the original per-record intake."""

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

