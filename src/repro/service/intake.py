"""The intake loop: Figure 2's envelope check and store dispatch, per batch.

The server runs every envelope through :func:`intake`, one batch at
a time.  Each envelope goes through the same steps in the same order:

1. **outage** — a down endpoint processes nothing, so neither the token
   nor the nonce of a lost envelope is consumed and a retransmitted copy
   can still land;
2. **nonce shape** — a nonce is ``None`` or ``bytes``; anything else is
   ``rejected{reason=malformed}`` before it can reach the nonce table,
   the router or the journal;
3. **token** — the trust boundary: only token-valid envelopes may write
   dedup state, so an unauthenticated sender can never squat a nonce.  A
   token failure on an already-accepted nonce is counted as a suppressed
   duplicate, not a rejection: an identical network-replayed copy
   carries its original's spent token;
4. **nonce dedup** — idempotent suppression of retransmitted copies;
5. **kind dispatch** — interaction uploads append to their history (a
   history bound to another entity is a ``history-mismatch``), opinion
   uploads take their slot when their ``seq`` is newer (an older or tying
   re-upload is accepted but leaves the slot alone: ``rsp.opinions.stale``);
   a store write that raises is a ``store-error`` and writes nothing;
6. **WAL-before-ack** — the mutation is journaled (and flushed) before the
   acceptance commits: the accept count and the nonce burn.  A journal
   failure propagates; the process must die rather than acknowledge state
   its log never recorded.

The server is read by the loop through its *lanes*: one
:class:`~repro.scale.shard.ShardState` per store partition
(``server.shards``), one nonce table per lane, and the server's
``shard_of``/``shard_of_bytes`` routes from record ids and nonce bytes
to lane indexes.  With more than one lane the loop routes each record
once, groups the batch per lane (delivery order is kept within a lane)
and processes lane by lane — all state an envelope touches is keyed by
values the envelope carries, so the grouping changes no outcome.  With
one lane nothing is routed.

The loop is written for throughput: lookups are hoisted out of it, the
record kind is memoized per class, and the store append is inlined.
Counters and telemetry accumulate in locals and are committed once per
batch in a ``finally`` block — so a journal failure mid-batch still leaves
the counters agreeing with the stores.  Telemetry counters and histograms
are commutative integer arithmetic (:mod:`repro.telemetry.registry`), so
the export equals one emitted per envelope; an instrument is only touched
when its total is non-zero.
"""

from __future__ import annotations

from itertools import repeat

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import (
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)
from repro.telemetry.catalog import (
    INGEST_LAG_BUCKETS,
    INTAKE_BATCH_BUCKETS,
    SHARD_BATCH_BUCKETS,
)
from repro.telemetry.registry import DEPLOYMENT


#: Record-kind memo shared across batches: concrete class ->
#: ``"interaction"``, ``"opinion"`` or ``None`` (malformed).  Subclasses
#: resolve through one ``isinstance`` pass on first sighting.
_KIND_MEMO: dict[type, str | None] = {}


def _kind_of(record) -> str | None:
    if isinstance(record, InteractionUpload):
        kind = "interaction"
    elif isinstance(record, OpinionUpload):
        kind = "opinion"
    else:
        kind = None
    _KIND_MEMO[record.__class__] = kind
    return kind


def _lane_groups(deliveries, n_lanes, shard_of):
    """``(lane, [(delivery, route), ...])`` in processing order.

    Routes each record once.  A record without a string ``history_id``
    gets route ``None`` and sorts into lane 0; the store dispatch then
    re-derives its lane and fails as a ``store-error``.
    """
    if n_lanes == 1:
        return ((0, zip(deliveries, repeat(0))),)
    groups: list[list] = [[] for _ in range(n_lanes)]
    for delivery in deliveries:
        key = getattr(delivery.payload.record, "history_id", None)
        route = shard_of(key) if isinstance(key, str) else None
        groups[0 if route is None else route].append((delivery, route))
    return enumerate(groups)


def intake(server, deliveries, now: float | None = None, batch: bool = True) -> int:
    """Classify and store ``deliveries``; return how many were accepted.

    ``server`` supplies its lanes (``shards``, ``_nonce_buckets``,
    ``shard_of``, ``shard_of_bytes``) and everything the steps above
    consult: ``fault_hook``, ``require_tokens``, ``_redeemer``,
    ``catalog``, ``_engine``, ``journal``, ``telemetry`` and the intake
    counters.  ``now`` overrides the time the outage check
    sees: a catch-up job processing a backlog held through an outage
    passes its own (post-outage) processing time.

    ``batch=False`` is per-record intake (a batch of one): it records no
    ``rsp.intake.batch``/``rsp.shard.batch`` sample and leaves the group
    commit to the caller.  A full batch ends with ``journal.sync_to_disk``:
    each accepted envelope's WAL frame was already flushed before its ack;
    the batch boundary is where the journal fsyncs for power-loss
    durability.
    """
    lanes = server.shards
    nonce_tables = server._nonce_buckets
    n_lanes = len(lanes)
    telemetry = server.telemetry
    if batch:
        telemetry.observe(
            "rsp.intake.batch", len(deliveries), buckets=INTAKE_BATCH_BUCKETS
        )
    shard_of = server.shard_of
    shard_of_bytes = server.shard_of_bytes
    lane_tables = [
        (lane, lane.store._histories, lane.store._by_entity, lane.opinions,
         lane.dirty_entities.add)
        for lane in lanes
    ]
    hook = server.fault_hook
    journal = server.journal
    require_tokens = server.require_tokens
    redeem = server._redeemer.redeem
    catalog = server.catalog
    note_opinion = server._engine.note_opinion
    kind_memo = _KIND_MEMO
    kind_of = _kind_of
    stored_record = StoredRecord

    rejected: dict[str, int] = {}
    lags: list[float] = []
    lag = lags.append
    outage_dropped = duplicates = stale = mismatches = 0
    accepted_interactions = accepted_opinions = 0
    try:
        for lane_index, group in _lane_groups(deliveries, n_lanes, shard_of):
            if batch and n_lanes > 1 and group:
                telemetry.observe(
                    "rsp.shard.batch",
                    len(group),
                    buckets=SHARD_BATCH_BUCKETS,
                    scope=DEPLOYMENT,
                    shard=lane_index,
                )
            for delivery, route in group:
                envelope = delivery.payload
                arrival = delivery.arrival_time
                if hook is not None and hook.server_down(
                    arrival if now is None else now
                ):
                    outage_dropped += 1
                    continue
                # try/except over getattr-with-default: free when it hits
                # (the wire Envelope always carries a nonce).
                try:
                    nonce = envelope.nonce
                except AttributeError:
                    nonce = None
                if nonce is None:
                    nonce_bucket = None
                elif isinstance(nonce, bytes):
                    nonce_bucket = nonce_tables[shard_of_bytes(nonce)]
                else:
                    rejected["malformed"] = rejected.get("malformed", 0) + 1
                    continue
                if require_tokens:
                    token = envelope.token
                    if token is None or not redeem(token):
                        if nonce_bucket is not None and nonce in nonce_bucket:
                            duplicates += 1
                        else:
                            rejected["token"] = rejected.get("token", 0) + 1
                        continue
                if nonce_bucket is not None and nonce in nonce_bucket:
                    duplicates += 1
                    continue
                record = envelope.record
                try:
                    kind = kind_memo[record.__class__]
                except KeyError:
                    kind = kind_of(record)
                if kind is None:
                    rejected["malformed"] = rejected.get("malformed", 0) + 1
                    continue
                try:
                    entity_id = record.entity_id
                    if entity_id not in catalog:
                        rejected["unknown-entity"] = (
                            rejected.get("unknown-entity", 0) + 1
                        )
                        continue
                    history_id = record.history_id
                    lane, histories, by_entity, opinions, mark_dirty = lane_tables[
                        shard_of(history_id) if route is None else route
                    ]
                    if kind == "interaction":
                        # One dict probe serves both the mismatch check
                        # and the append.
                        history = histories.get(history_id)
                        if history is None:
                            history = InteractionHistory(
                                history_id=history_id, entity_id=entity_id
                            )
                            histories[history_id] = history
                            by_entity.setdefault(entity_id, []).append(history)
                        elif history.entity_id != entity_id:
                            # A client bug or a corruption attempt, kept
                            # apart so fraud-facing dashboards see it.
                            mismatches += 1
                            rejected["history-mismatch"] = (
                                rejected.get("history-mismatch", 0) + 1
                            )
                            continue
                        history.records.append(stored_record(record, arrival))
                        lane.store_version += 1
                        lane.version += 1
                        mark_dirty(entity_id)
                    else:
                        existing = opinions.get(history_id)
                        if existing is None or record.seq > existing.seq:
                            opinions[history_id] = record
                            lane.version += 1
                            owner = histories.get(history_id)
                            note_opinion(
                                existing,
                                record,
                                owner=None if owner is None else owner.entity_id,
                            )
                        else:
                            stale += 1
                except Exception:
                    # Nothing durably written, so nothing may be accepted:
                    # the sender may repair and retransmit under the same
                    # nonce.
                    rejected["store-error"] = rejected.get("store-error", 0) + 1
                    continue
                if journal is not None:
                    token_id = (
                        envelope.token.token_id
                        if require_tokens and envelope.token is not None
                        else None
                    )
                    if kind == "interaction":
                        journal.log_interaction(record, arrival, nonce, token_id)
                    else:
                        journal.log_opinion(record, nonce, token_id)
                if nonce_bucket is not None:
                    nonce_bucket.add(nonce)
                if kind == "interaction":
                    accepted_interactions += 1
                    lag(arrival - record.event_time)
                else:
                    accepted_opinions += 1
    finally:
        server.accepted_envelopes += accepted_interactions + accepted_opinions
        server.rejected_envelopes += sum(rejected.values())
        server.duplicates_suppressed += duplicates
        server.dropped_by_outage += outage_dropped
        server.opinions_stale += stale
        server.history_mismatches += mismatches
        inc = telemetry.inc
        if accepted_interactions:
            inc("rsp.envelopes.accepted", accepted_interactions, record="interaction")
        if accepted_opinions:
            inc("rsp.envelopes.accepted", accepted_opinions, record="opinion")
        for reason, count in rejected.items():
            inc("rsp.envelopes.rejected", count, reason=reason)
        if duplicates:
            inc("rsp.envelopes.duplicate", duplicates)
        if outage_dropped:
            inc("rsp.envelopes.outage_dropped", outage_dropped)
        if stale:
            inc("rsp.opinions.stale", stale)
        if lags:
            telemetry.observe_many("rsp.ingest_lag", lags, buckets=INGEST_LAG_BUCKETS)
    if batch and journal is not None:
        journal.sync_to_disk()
    return accepted_interactions + accepted_opinions
