"""Incremental maintenance: dirty-entity tracking with exact recompute.

The maintenance cycle (fraud profiles → history filtering → opinion
summaries) is a pure function of store *content* — the canonical-order
discipline of :meth:`repro.scale.server.ShardedRSPServer.run_maintenance`
makes it so.  That purity is what licenses incrementality: an entity
whose inputs did not change since the last cycle would recompute the
same accepted partition, the same verdicts, and the same summary, so the
cycle may skip it and keep the cached values — *byte-identical* output,
less work.  This module owns that bookkeeping for every deployment.

The invalidation contract (see docs/SCALING.md "Incremental
maintenance"):

* **Intake dirtying** — every accepted interaction, opinion, or review
  marks its entity dirty.  An opinion additionally dirties the *owner*
  entity of its history slot (a new slot changes the owner's kept-opinion
  count) and, on a cross-entity overwrite, the previously claimed entity.
* **Profile-digest guard** — fraud profiles are rebuilt every cycle
  (the server caches per-shard pools by store version, which is exact
  because pools depend only on stored interactions).  If the digest of
  a kind's profile — or of the
  :class:`~repro.fraud.detector.DetectorConfig` folded into every
  digest — changed since the previous cycle, every entity of that kind
  is conservatively re-dirtied, so verdicts can never go stale against a
  moved baseline.
* **Verdict-flip cascade** — re-judging a dirty entity may flip which of
  its histories survive.  A flipped history invalidates the summary of
  the entity its opinion slot *claims* (which need not be the owner), so
  the summarize set is ``dirty ∪ flipped-owners ∪ claimed(flipped)``.
* **Eviction** — an entity is re-summarized from its current parts; when
  every part is empty (e.g. its last history was rejected) the cached
  summary is deleted, exactly matching the key set a full recompute
  would produce.

Dirty sets are Python ``set``s and therefore iterate in hash order;
every loop below goes through ``sorted()`` before touching float math,
and the ``det-dirty-iteration`` lint rule holds the line.

This module must not import from :mod:`repro.scale` —
``repro.scale.server`` imports this module, so a scale import here would
be a cycle.  The server instead passes its pooled profiles into
:meth:`plan` and hands kernel results to :meth:`adopt_full`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload, summarize_entity
from repro.fraud.detector import DetectorConfig, FraudDetector, HistoryVerdict
from repro.fraud.profiles import TypicalProfile
from repro.privacy.history_store import InteractionHistory


class StoreView(Protocol):
    """The deployment-agnostic read surface the engine computes from."""

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]: ...

    def opinion(self, history_id: str) -> OpinionUpload | None: ...

    def has_opinion(self, history_id: str) -> bool: ...

    def explicit_ratings(self, entity_id: str) -> list[float]: ...

    def review_entities(self) -> set[str]: ...

    def entities_with_histories(self) -> set[str]: ...


def profile_digest(profile: TypicalProfile, config: DetectorConfig) -> str:
    """Digest of everything a verdict depends on besides the history itself.

    ``repr`` of the frozen dataclasses round-trips floats exactly, so two
    digests are equal iff the detector would judge identically.
    """
    payload = f"{profile!r}|{config!r}".encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class CyclePlan:
    """What one maintenance cycle must (at minimum) recompute."""

    dirty: set[str]
    profiles: dict[str, TypicalProfile]
    changed_kinds: set[str]
    redirtied: set[str]
    judge_tracked: set[str]
    n_entities: int
    prev_summary_keys: set[str]


@dataclass
class CycleStats:
    """Tracked work accounting for one cycle — identical across modes.

    All fields derive from *tracked* sets (what incrementality says must
    be recomputed), never from what a given mode actually executed, so
    the aggregate telemetry built from them is byte-identical between
    incremental and full recompute, for every shard count.
    """

    n_dirty: int = 0
    n_redirtied: int = 0
    n_judge_tracked: int = 0
    n_judge_cached: int = 0
    n_summarize_tracked: int = 0
    n_summarize_cached: int = 0


class MaintenanceEngine:
    """Caches maintenance state across cycles and recomputes only dirt.

    The engine owns the authoritative post-filter state: the accepted
    history partitions, the suspicious verdicts, the surviving-history
    set, per-owner kept-opinion counts, and the entity summaries.  The
    server aliases ``accepted`` and ``summaries`` directly (search reads
    them), so every update here mutates in place and never rebinds.
    """

    def __init__(
        self,
        view: StoreView,
        entity_kinds: dict[str, str],
        detector_config: DetectorConfig | None = None,
    ) -> None:
        self.view = view
        self.entity_kinds = entity_kinds
        self.config = detector_config or DetectorConfig()
        #: Entities touched by intake since the last cycle.
        self._dirty: set[str] = set()
        #: entity_id -> history ids whose opinion slot currently claims it
        #: (an opinion normally claims its owner entity, but the engine
        #: never assumes it).
        self._claims: dict[str, set[str]] = {}
        #: Post-filter state, keyed by entity (aliased by the servers).
        self.accepted: dict[str, list[InteractionHistory]] = {}
        self.summaries: dict[str, EntityOpinionSummary] = {}
        self.verdicts: dict[str, list[HistoryVerdict]] = {}
        self.kept: dict[str, int] = {}
        self._accepted_ids: dict[str, frozenset[str]] = {}
        self._surviving: set[str] = set()
        self._profile_digests: dict[str, str] = {}
        #: Cycle listeners (the serving layer's cache-invalidation hook).
        self._listeners: list[Callable[[frozenset[str]], None]] = []

    def subscribe(self, listener: Callable[[frozenset[str]], None]) -> None:
        """Register a listener called after every cycle with the tracked
        summary-change set (``summarize_tracked`` — every entity whose
        summary *could* have changed, identically in incremental, full,
        and adopted-kernel modes).  This is the cache-coherence feed of
        :class:`repro.serve.cache.SummaryVersionCache`."""
        self._listeners.append(listener)

    def _notify(self, summarize_tracked: set[str]) -> None:
        changed = frozenset(summarize_tracked)
        for listener in self._listeners:
            listener(changed)

    # ------------------------------------------------------------- intake

    def mark_dirty(self, entity_id: str) -> None:
        self._dirty.add(entity_id)

    def note_opinion(
        self,
        existing: OpinionUpload | None,
        record: OpinionUpload,
        owner: str | None,
    ) -> None:
        """Track a slot write (call after the opinion dict was updated).

        ``owner`` is the entity the history is bound to (``None`` if the
        history is not stored yet).  A brand-new slot changes the owner's
        kept-opinion count, so the owner is dirtied too; a cross-entity
        overwrite moves the claim and dirties the abandoned entity.
        """
        self._dirty.add(record.entity_id)
        if existing is None:
            self._claims.setdefault(record.entity_id, set()).add(record.history_id)
            if owner is not None:
                self._dirty.add(owner)
        elif existing.entity_id != record.entity_id:
            old = self._claims.get(existing.entity_id)
            if old is not None:
                old.discard(record.history_id)
            self._claims.setdefault(record.entity_id, set()).add(record.history_id)
            self._dirty.add(existing.entity_id)

    # ----------------------------------------------------------- planning

    def plan(self, profiles: dict[str, TypicalProfile]) -> CyclePlan:
        """Drain the dirty set and decide what this cycle must recompute.

        ``profiles`` are this cycle's per-kind fraud profiles, built from
        the whole store; a kind whose profile digest moved re-dirties
        every entity of that kind.
        """
        dirty = set(self._dirty)
        self._dirty.clear()
        entities = self.view.entities_with_histories()
        digests = {
            kind: profile_digest(profile, self.config)
            for kind, profile in sorted(profiles.items())
        }
        changed_kinds = {
            kind
            for kind in set(digests) | set(self._profile_digests)
            if digests.get(kind) != self._profile_digests.get(kind)
        }
        self._profile_digests = digests
        redirtied = {
            entity_id
            for entity_id in sorted(entities - dirty)
            if self.entity_kinds.get(entity_id) in changed_kinds
        }
        judge_tracked = (dirty | redirtied) & entities
        return CyclePlan(
            dirty=dirty,
            profiles=profiles,
            changed_kinds=changed_kinds,
            redirtied=redirtied,
            judge_tracked=judge_tracked,
            n_entities=len(entities),
            prev_summary_keys=set(self.summaries),
        )

    # ---------------------------------------------------------- execution

    def execute(self, plan: CyclePlan, full: bool = False) -> CycleStats:
        """Re-judge and re-summarize; incremental sets or everything.

        ``full`` widens the *executed* sets to every entity (the honest
        recompute baseline) — the tracked accounting in the returned
        :class:`CycleStats` is computed from the plan's sets either way,
        and recomputing a clean entity lands on the identical values, so
        the two modes cannot diverge.
        """
        detector = FraudDetector(plan.profiles, self.entity_kinds, self.config)
        if full:
            judge_set = self.view.entities_with_histories()
        else:
            judge_set = plan.judge_tracked
        flipped_owners: set[str] = set()
        flipped_ids: set[str] = set()
        for entity_id in sorted(judge_set):
            histories = sorted(
                self.view.histories_for_entity(entity_id),
                key=lambda history: history.history_id,
            )
            new_accepted: list[InteractionHistory] = []
            new_verdicts: list[HistoryVerdict] = []
            for history in histories:
                verdict = detector.judge(history)
                if verdict.suspicious:
                    new_verdicts.append(verdict)
                else:
                    new_accepted.append(history)
            new_ids = frozenset(history.history_id for history in new_accepted)
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                flipped_owners.add(entity_id)
                flipped_ids |= new_ids ^ old_ids
            self._surviving.difference_update(old_ids)
            self._surviving.update(new_ids)
            _set_or_pop(self.accepted, entity_id, new_accepted)
            _set_or_pop(self._accepted_ids, entity_id, new_ids)
            _set_or_pop(self.verdicts, entity_id, new_verdicts)
            _set_or_pop(
                self.kept,
                entity_id,
                sum(1 for history_id in new_ids if self.view.has_opinion(history_id)),
            )

        summarize_tracked = plan.dirty | flipped_owners | self._claimed_by(flipped_ids)
        if full:
            summarize_set = (
                set(self.accepted)
                | self._claimed_surviving()
                | self.view.review_entities()
            )
            self.summaries.clear()
        else:
            summarize_set = summarize_tracked
        for entity_id in sorted(summarize_set):
            self._resummarize(entity_id)
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _resummarize(self, entity_id: str) -> None:
        """Recompute one entity's summary from current parts; evict if bare."""
        histories = self.accepted.get(entity_id, [])
        inferred = [
            self.view.opinion(history_id)
            for history_id in sorted(self._claims.get(entity_id, ()))
            if history_id in self._surviving
        ]
        explicit = self.view.explicit_ratings(entity_id)
        if histories or inferred or explicit:
            self.summaries[entity_id] = summarize_entity(
                entity_id=entity_id,
                histories=histories,
                inferred=inferred,
                explicit_ratings=explicit,
            )
        else:
            self.summaries.pop(entity_id, None)

    def _claimed_by(self, history_ids: set[str]) -> set[str]:
        """Entities whose summaries depend on these (flipped) histories."""
        claimed: set[str] = set()
        for history_id in sorted(history_ids):
            opinion = self.view.opinion(history_id)
            if opinion is not None:
                claimed.add(opinion.entity_id)
        return claimed

    def _claimed_surviving(self) -> set[str]:
        """Entities claimed by at least one surviving opinion slot."""
        return self._claimed_by(self._surviving)

    def adopt_full(
        self,
        plan: CyclePlan,
        accepted_by_entity: dict[str, list[InteractionHistory]],
        verdicts_by_entity: dict[str, list[HistoryVerdict]],
        kept_by_entity: dict[str, int],
        summaries: list[EntityOpinionSummary],
    ) -> CycleStats:
        """Adopt a full recompute produced elsewhere (the sharded kernel).

        The flip/cascade accounting is still computed — against the
        pre-adoption caches, over the plan's tracked judge set — so the
        stats (and the telemetry built from them) are identical to what
        the incremental path would have reported.
        """
        flipped_owners: set[str] = set()
        flipped_ids: set[str] = set()
        for entity_id in sorted(plan.judge_tracked):
            new_ids = frozenset(
                history.history_id
                for history in accepted_by_entity.get(entity_id, [])
            )
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                flipped_owners.add(entity_id)
                flipped_ids |= new_ids ^ old_ids
        summarize_tracked = plan.dirty | flipped_owners | self._claimed_by(flipped_ids)

        self.accepted.clear()
        self.accepted.update(accepted_by_entity)
        self._accepted_ids = {
            entity_id: frozenset(history.history_id for history in histories)
            for entity_id, histories in accepted_by_entity.items()
        }
        self._surviving = set()
        for ids in self._accepted_ids.values():
            self._surviving.update(ids)
        self.verdicts.clear()
        self.verdicts.update(verdicts_by_entity)
        self.kept.clear()
        self.kept.update(kept_by_entity)
        self.summaries.clear()
        self.summaries.update({summary.entity_id: summary for summary in summaries})
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _stats(self, plan: CyclePlan, summarize_tracked: set[str]) -> CycleStats:
        return CycleStats(
            n_dirty=len(plan.dirty),
            n_redirtied=len(plan.redirtied),
            n_judge_tracked=len(plan.judge_tracked),
            n_judge_cached=plan.n_entities - len(plan.judge_tracked),
            n_summarize_tracked=len(summarize_tracked),
            n_summarize_cached=len(plan.prev_summary_keys - summarize_tracked),
        )

    # ------------------------------------------------------------ reading

    def rejected_verdicts(self) -> list[HistoryVerdict]:
        """All suspicious verdicts, in canonical (history-id) order."""
        return sorted(
            (
                verdict
                for verdicts in self.verdicts.values()
                for verdict in verdicts
            ),
            key=lambda verdict: verdict.history_id,
        )

    @property
    def n_opinions_kept(self) -> int:
        return sum(self.kept.values())


def _set_or_pop(mapping: dict, key: str, value) -> None:
    """Keep ``mapping`` sparse: empty/zero values delete the entry."""
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)
