"""The benchmark's three workloads, each a closed loop in one process.

Every workload builds its inputs from the seed alone (:meth:`setup`), then
runs one timed phase through the program's public entry points
(:meth:`execute`): ``run_epochs``, ``ingest_all``, ``run_maintenance``,
``query`` and ``recover_server``.  After the timed phase each workload
restarts its server from durable state (``recover_s``), and where the
timed phase serves no reads of its own it runs a read probe on the final
state (``query_*``), so every end-to-end metric is measured on every
workload.  Every repeat also re-derives its outputs -- digests and exact
integer counts -- so the harness can check them against the first repeat
and, at :data:`DEFAULT_SEED`, against the pins in ``pins.json``.

Sizes are set so one repeat takes a few seconds on a 2-CPU host and so a
repeat's work averages over enough users, envelopes and queries that ten
different seeds measure alike.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import ingest, reshard
from repro.durability import recovery
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.snapshot import capture_state, write_snapshot
from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.orchestration import epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.reshard import ReshardOp
from repro.scale.server import ShardedRSPServer
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import RSPServer
from repro.telemetry import Telemetry
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.geography import CityGrid
from repro.world.population import TownConfig, build_town

from tracer import Target, Tracer, durations

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 2016

perf_counter = time.perf_counter


@dataclass
class Repeat:
    """What one repeat of a workload measured and produced."""

    run_s: float = 0.0
    intake_envelopes: int = 0
    intake_s: float = 0.0
    #: Wall time of each maintenance cycle in the timed phase.
    refresh_s: list[float] = field(default_factory=list)
    #: ``recover_server`` plus one maintenance cycle on a fresh server.
    recover_s: float = 0.0
    #: Wall time of each read-path query.
    query_s: list[float] = field(default_factory=list)
    #: Ops offered (envelopes or queries) and ops whose outcome was wrong.
    attempted: int = 0
    failed: int = 0
    #: Digests and exact counts; identical across repeats of one seed.
    outputs: dict[str, object] = field(default_factory=dict)
    #: Peak resident set of the repeat, set-up included.
    peak_rss_mb: float = 0.0
    #: Per-layer counts and ratios read from the run's own telemetry.
    counts: dict[str, float] = field(default_factory=dict)
    #: Failed output checks, one line each.
    problems: list[str] = field(default_factory=list)

    def expect(self, what: str, got: object, want: object) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, expected {want!r}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summaries_digest(server) -> str:
    """The summary state readers see, as one digest."""
    return sha256_text(repr(list(server.all_summaries().items())))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def maintenance_counts(telemetry: Telemetry, n_entities: int) -> dict[str, float]:
    """Useful work of maintenance: entities re-judged per cycle over the catalog."""
    cycles = telemetry.total("rsp.maintenance.cycles")
    tracked = telemetry.value("rsp.maintenance.cache_skips", phase="judge") or 0
    return {"maintenance.dirty_frac": ratio(tracked, cycles * n_entities)}


def serve_counts(telemetry: Telemetry) -> dict[str, float]:
    hits = telemetry.total("rsp.serve.cache_hits")
    misses = telemetry.total("rsp.serve.cache_misses")
    return {
        "serve.queries": telemetry.total("rsp.serve.queries"),
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.cache_hit_rate": ratio(hits, hits + misses),
        "serve.invalidations": telemetry.total("rsp.serve.invalidations"),
    }


def intake_counts(telemetry: Telemetry) -> dict[str, float]:
    return {
        "ingest.accepted": telemetry.total("rsp.envelopes.accepted"),
        "ingest.rejected": telemetry.total("rsp.envelopes.rejected"),
        "ingest.duplicates": telemetry.total("rsp.envelopes.duplicate"),
    }


#: Restarts timed per repeat where a restart is short; ``recover_s`` is
#: their median.
SNAPSHOT_RESTARTS = 3


def recover_from_snapshot(live, make_fresh, work_dir: Path, repeat: Repeat):
    """Time restarts from a snapshot of ``live``; each must match it.

    Used where the workload runs without a journal: the snapshot is the
    durable image a restart would load.  ``make_fresh`` builds an empty
    server of the same deployment (outside the clock).  Returns the last
    restarted server.
    """
    live_summaries = summaries_digest(live)
    directory = Path(tempfile.mkdtemp(prefix="snapshot-", dir=work_dir))
    times = []
    try:
        write_snapshot(directory, 0, capture_state(live))
        for _ in range(SNAPSHOT_RESTARTS):
            fresh = make_fresh()
            start = perf_counter()
            recovery.recover_server(fresh, directory)
            fresh.run_maintenance()
            times.append(perf_counter() - start)
            repeat.expect("recovered summaries", summaries_digest(fresh), live_summaries)
            repeat.expect("recovered records", fresh.n_records, live.n_records)
    finally:
        shutil.rmtree(directory)
    repeat.recover_s = statistics.median(times)
    return fresh


#: The read probe: queries timed one by one against a workload's final
#: state, from a pool wide enough that about one read in eight is a cold
#: miss, so the p99 sits among a thousand-odd misses.
PROBE_QUERIES = 10_000
PROBE_DISTINCT_QUERIES = 2_048
#: Every this-many-th probe response is re-asked of the restarted server.
PROBE_CHECK_EVERY = 10


#: Where synthetic-traffic queries are centred.  ``synthetic_catalog`` lays
#: its entities on a 10 km x 1.2 km strip; zones along that strip give every
#: pooled query a comparable candidate set, so the read path's cost does not
#: hinge on which few queries a seed ranks most popular.
QUERY_GRID = CityGrid(size_km=10.0, rows=1, cols=5)


def probe_queries(catalog: list, seed: int, grid: CityGrid) -> list:
    pool = SyntheticQueries(
        catalog, QueryWorkload(n_distinct=PROBE_DISTINCT_QUERIES, seed=seed), grid=grid
    )
    return pool.batch(PROBE_QUERIES)


def read_probe(live, restarted, queries: list, repeat: Repeat) -> str:
    """Time each query on ``live``; a sample must read the same on ``restarted``.

    Returns the digest of every rendered response.
    """
    responses = []
    for query in queries:
        began = perf_counter()
        responses.append(live.query(query))
        repeat.query_s.append(perf_counter() - began)
    rendered = hashlib.sha256()
    mismatches = 0
    for index, (query, response) in enumerate(zip(queries, responses)):
        text = response.render()
        rendered.update(text.encode())
        if index % PROBE_CHECK_EVERY == 0 and restarted.query(query).render() != text:
            mismatches += 1
    repeat.expect("restarted server responses differing", mismatches, 0)
    return rendered.hexdigest()


# ------------------------------------------------------------- epochs_e2e

#: Independent towns per repeat.  One town's activity level and query-cost
#: tail depend on its random layout; a pair measures alike across seeds
#: where a single town does not.
EPOCH_TOWNS = 2
EPOCH_USERS = 50
EPOCH_DAYS = 60.0
EPOCH_COUNT = 3
#: Reads served inside ``run_epochs`` after every maintenance cycle (part
#: of the whole path and of ``serve_digest``).  Query latency is measured by
#: the read probe on the final state, whose pool is wider.
EPOCH_SERVE_QUERIES = 400

#: The server entry points ``run_epochs`` calls, timed in every repeat of
#: ``epochs_e2e`` (two spans per epoch).  This is not the layer tracer: it
#: times the same public calls the other workloads time inline, and it is
#: installed only around ``run_epochs``.
EPOCH_ENTRY_POINTS: tuple[Target, ...] = (
    Target("entry.receive_all", "repro.service.server:RSPServer", "receive_all"),
    Target("entry.run_maintenance", "repro.service.server:RSPServer", "run_maintenance"),
)


@dataclass
class EpochsWorld:
    """One town: its simulated world, trained classifier and probe queries."""

    town: object
    result: object
    config: PipelineConfig
    classifier: object
    queries: list


class EpochsE2E:
    """The whole path: world -> sensing -> client -> tokens -> mix -> server -> serve."""

    name = "epochs_e2e"

    def setup(self, seed: int) -> list[EpochsWorld]:
        return [self._town(EPOCH_TOWNS * seed + index) for index in range(EPOCH_TOWNS)]

    @staticmethod
    def _town(seed: int) -> EpochsWorld:
        town = build_town(TownConfig(n_users=EPOCH_USERS), seed=seed)
        result = BehaviorSimulator(
            town.users, town.entities, BehaviorConfig(duration_days=EPOCH_DAYS), seed=seed
        ).run()
        config = PipelineConfig(horizon_days=EPOCH_DAYS, seed=seed)
        classifier = train_classifier(
            town, result, EPOCH_DAYS * DAY, config.classifier, seed=seed
        )
        queries = probe_queries(town.entities, seed, town.grid)[: PROBE_QUERIES // EPOCH_TOWNS]
        return EpochsWorld(town, result, config, classifier, queries)

    def execute(self, worlds: list[EpochsWorld], work_dir: Path) -> Repeat:
        repeat = Repeat()
        sinks = []
        for index, world in enumerate(worlds):
            outputs, sink = self._run_town(world, work_dir, repeat)
            repeat.outputs[f"town{index}"] = outputs
            sinks.append(sink)
        telemetry = sinks[0].merged(*sinks[1:])
        repeat.counts = {
            "privacy.tokens_signed": telemetry.total("issuer.tokens.issued"),
            **intake_counts(telemetry),
            # Every town has the same catalog size (TownConfig fixes it).
            **maintenance_counts(telemetry, len(worlds[0].town.entities)),
            **serve_counts(telemetry),
        }
        return repeat

    def _run_town(self, world: EpochsWorld, work_dir: Path, repeat: Repeat):
        """One town through ``run_epochs``, then its restart and read probes.

        Returns the town's outputs and a copy of its telemetry taken before
        the probes added their own reads.
        """
        entry = Tracer(EPOCH_ENTRY_POINTS)
        with entry:
            start = perf_counter()
            outcome = epochs.run_epochs(
                world.town,
                world.result,
                world.config,
                n_epochs=EPOCH_COUNT,
                classifier=world.classifier,
                serve_queries=EPOCH_SERVE_QUERIES,
            )
            repeat.run_s += perf_counter() - start
        spans = entry.finished_spans()
        telemetry = outcome.telemetry
        sink = telemetry.merged()
        accepted = telemetry.total("rsp.envelopes.accepted")
        rejected = telemetry.total("rsp.envelopes.rejected")
        duplicates = telemetry.total("rsp.envelopes.duplicate")
        outage = telemetry.total("rsp.envelopes.outage_dropped")
        submitted = telemetry.total("client.envelopes.submitted")
        repeat.intake_envelopes += accepted + rejected + duplicates + outage
        repeat.intake_s += sum(durations(spans, "entry.receive_all"))
        repeat.refresh_s.extend(durations(spans, "entry.run_maintenance"))
        repeat.attempted += submitted
        # No faults are injected: every submitted envelope must be accepted.
        repeat.failed += submitted - accepted
        repeat.expect("envelopes accepted", accepted, submitted)
        repeat.expect("envelopes still pending", outcome.reports[-1].envelopes_deferred, 0)

        server = outcome.server
        config = world.config

        def make_fresh() -> RSPServer:
            return RSPServer(
                catalog=world.town.entities,
                quota_per_day=config.quota_per_day,
                key_seed=config.seed,
                key_bits=config.key_bits,
            )

        # A restart of the pair is both towns' restarts.
        recover_s = repeat.recover_s
        restarted = recover_from_snapshot(server, make_fresh, work_dir, repeat)
        repeat.recover_s += recover_s
        probe_digest = read_probe(server, restarted, world.queries, repeat)

        outputs = {
            "reports_sha256": sha256_text(outcome.reports_digest()),
            "serve_digest": outcome.serve_digest,
            "summaries_sha256": summaries_digest(server),
            "probe_sha256": probe_digest,
            "envelopes_submitted": submitted,
            "envelopes_accepted": accepted,
            "tokens_signed": sink.total("issuer.tokens.issued"),
            "records": server.n_records,
            "queries": sink.total("rsp.serve.queries"),
            "cache_hits": sink.total("rsp.serve.cache_hits"),
            "cache_misses": sink.total("rsp.serve.cache_misses"),
            "invalidations": sink.total("rsp.serve.invalidations"),
        }
        return outputs, sink


# ---------------------------------------------------------- write_durable

WRITE_SHARDS = 4
WRITE_ENTITIES = 1_200
WRITE_BATCHES = 24
WRITE_BATCH_SIZE = 1_000
#: A maintenance cycle (then a snapshot) after every this many mix batches.
WRITE_CYCLE_EVERY = 4
#: The live split of shard 0 lands before this batch.
WRITE_SPLIT_AT = 12
WRITE_BATCH_GAP = 6 * 3600.0


@dataclass
class WriteInputs:
    catalog: list
    batches: list[list]
    queries: list
    #: Expected intake outcome counts, derived from the traffic itself.
    expected: dict[str, int]


def expected_outcomes(batches: list[list], catalog: list) -> dict[str, int]:
    """The intake oracle: what every envelope's fate must be.

    An envelope whose nonce was already accepted is a duplicate; one naming
    an entity outside the catalog is rejected (and burns no nonce); the
    rest are accepted.
    """
    known = {entity.entity_id for entity in catalog}
    seen: set[bytes] = set()
    counts = {"accepted": 0, "rejected": 0, "duplicates": 0}
    for batch in batches:
        for delivery in batch:
            envelope = delivery.payload
            if envelope.nonce in seen:
                counts["duplicates"] += 1
            elif envelope.record.entity_id not in known:
                counts["rejected"] += 1
            else:
                counts["accepted"] += 1
                seen.add(envelope.nonce)
    return counts


def make_sharded(catalog: list, n_shards: int) -> ShardedRSPServer:
    """The tokenless sharded deployment the server-side workloads use."""
    return ShardedRSPServer(catalog, require_tokens=False, n_shards=n_shards)


class WriteDurable:
    """The server write path: journaled batched intake, snapshots, a live split."""

    name = "write_durable"

    def setup(self, seed: int) -> WriteInputs:
        traffic = SyntheticTraffic(
            WorkloadConfig(
                n_users=1_000_000,
                n_entities=WRITE_ENTITIES,
                duplicate_fraction=0.01,
                stale_fraction=0.01,
                invalid_fraction=0.01,
                seed=seed,
            )
        )
        batches = [
            traffic.batch(WRITE_BATCH_SIZE, WRITE_BATCH_GAP * (index + 1))
            for index in range(WRITE_BATCHES)
        ]
        return WriteInputs(
            catalog=traffic.catalog,
            batches=batches,
            queries=probe_queries(traffic.catalog, seed, QUERY_GRID),
            expected=expected_outcomes(batches, traffic.catalog),
        )

    def execute(self, inputs: WriteInputs, work_dir: Path) -> Repeat:
        repeat = Repeat()
        directory = Path(tempfile.mkdtemp(prefix="journal-", dir=work_dir))
        try:
            self._run(inputs, directory, repeat)
        finally:
            shutil.rmtree(directory)
        return repeat

    def _run(self, inputs: WriteInputs, directory: Path, repeat: Repeat) -> None:
        server = make_sharded(inputs.catalog, WRITE_SHARDS)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        journal = DurableJournal(
            directory,
            n_lanes=WRITE_SHARDS,
            lane_of=server.router.shard_of,
            telemetry=telemetry,
        )
        attach_journal(server, journal)
        moved: dict[str, int] = {}
        start = perf_counter()
        for index, batch in enumerate(inputs.batches):
            if index == WRITE_SPLIT_AT:
                moved = reshard.perform(server, ReshardOp.split(0))
            began = perf_counter()
            ingest.ingest_all(server, batch)
            repeat.intake_s += perf_counter() - began
            if (index + 1) % WRITE_CYCLE_EVERY == 0:
                began = perf_counter()
                server.run_maintenance(now=batch[0].arrival_time)
                repeat.refresh_s.append(perf_counter() - began)
                if index + 1 < len(inputs.batches):
                    journal.take_snapshot(server)
        repeat.run_s = perf_counter() - start
        journal.close()
        offered = sum(len(batch) for batch in inputs.batches)
        repeat.intake_envelopes = offered

        fresh = make_sharded(inputs.catalog, WRITE_SHARDS)
        start = perf_counter()
        report = recovery.recover_server(fresh, directory)
        fresh.run_maintenance()
        repeat.recover_s = perf_counter() - start

        probe_digest = read_probe(server, fresh, inputs.queries, repeat)

        counts = intake_counts(telemetry)
        accounted = (
            counts["ingest.accepted"] + counts["ingest.rejected"] + counts["ingest.duplicates"]
        )
        repeat.attempted = offered
        repeat.failed = offered - accounted
        for kind, want in inputs.expected.items():
            repeat.expect(f"envelopes {kind}", counts[f"ingest.{kind}"], want)
        repeat.expect(
            "server accepted counter", server.accepted_envelopes, counts["ingest.accepted"]
        )
        live_summaries = summaries_digest(server)
        repeat.expect("recovered summaries", summaries_digest(fresh), live_summaries)
        for counter in ("accepted_envelopes", "opinions_stale", "n_histories", "n_records"):
            repeat.expect(
                f"recovered {counter}", getattr(fresh, counter), getattr(server, counter)
            )

        repeat.outputs = {
            "summaries_sha256": live_summaries,
            "probe_sha256": probe_digest,
            "accepted": counts["ingest.accepted"],
            "rejected": counts["ingest.rejected"],
            "duplicates": counts["ingest.duplicates"],
            "opinions_stale": server.opinions_stale,
            "histories": server.n_histories,
            "records": server.n_records,
            "shards": server.router.n_shards,
            "wal_appends": telemetry.total("wal.appends"),
            "wal_bytes": telemetry.total("wal.bytes"),
            "histories_moved": moved.get("histories", 0),
            "replayed": report.n_replayed,
        }
        repeat.counts = {
            **counts,
            "durability.wal_appends": telemetry.total("wal.appends"),
            "durability.wal_bytes": telemetry.total("wal.bytes"),
            "durability.replayed": report.n_replayed,
            "reshard.keys_moved": sum(moved.values()),
            "reshard.histories_moved": moved.get("histories", 0),
            **maintenance_counts(telemetry, len(inputs.catalog)),
            **serve_counts(telemetry),
        }


# -------------------------------------------------------------- read_mixed

READ_SHARDS = 4
READ_ENTITIES = 1_200
#: Few enough senders that uploads extend existing histories: every round
#: then shifts most entity kinds' typical profiles, so every maintenance
#: cycle takes the same (pooled-kernel) path on every seed.  With a million
#: senders the path depends on the seed.
READ_USERS = 5_000
READ_WARM_BATCHES = 3
READ_WARM_BATCH_SIZE = 2_000
READ_ROUNDS = 20
READ_INTAKE_PER_ROUND = 100
READ_QUERIES_PER_ROUND = 500
#: Distinct queries in the Zipf pool: sized so about one read in seven
#: misses (cold or invalidated), so both the hit path and the miss path
#: (index + rank + Figure-3 panels) carry weight.
READ_DISTINCT_QUERIES = 1_024
#: Every this-many-th response is re-derived by the uncached oracle.
READ_ORACLE_EVERY = 50
READ_ROUND_GAP = 600.0


@dataclass
class ReadInputs:
    catalog: list
    server: ShardedRSPServer
    rounds: list[list]
    bursts: list[list]


class ReadMixed:
    """A warmed server under rounds of small writes, maintenance and Zipf reads."""

    name = "read_mixed"

    def setup(self, seed: int) -> ReadInputs:
        traffic = SyntheticTraffic(
            WorkloadConfig(
                n_users=READ_USERS,
                n_entities=READ_ENTITIES,
                opinion_fraction=0.30,
                seed=seed,
            )
        )
        server = make_sharded(traffic.catalog, READ_SHARDS)
        now = 0.0
        for _ in range(READ_WARM_BATCHES):
            now += READ_ROUND_GAP
            ingest.ingest_all(server, traffic.batch(READ_WARM_BATCH_SIZE, now))
        server.run_maintenance(now=now)
        server.attach_serving()
        rounds = []
        for _ in range(READ_ROUNDS):
            now += READ_ROUND_GAP
            rounds.append(traffic.batch(READ_INTAKE_PER_ROUND, now))
        queries = SyntheticQueries(
            traffic.catalog,
            QueryWorkload(n_distinct=READ_DISTINCT_QUERIES, seed=seed),
            grid=QUERY_GRID,
        )
        bursts = [queries.batch(READ_QUERIES_PER_ROUND) for _ in range(READ_ROUNDS)]
        return ReadInputs(traffic.catalog, server, rounds, bursts)

    def execute(self, inputs: ReadInputs, work_dir: Path) -> Repeat:
        repeat = Repeat()
        server = inputs.server
        # Counts cover the timed rounds only, not the warm-up.
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        serving = server.serving
        rendered = hashlib.sha256()
        mismatches = 0
        for batch, burst in zip(inputs.rounds, inputs.bursts):
            start = perf_counter()
            ingest.ingest_all(server, batch)
            after_intake = perf_counter()
            server.run_maintenance(now=batch[0].arrival_time)
            after_maintenance = perf_counter()
            responses = []
            for query in burst:
                began = perf_counter()
                responses.append(server.query(query))
                repeat.query_s.append(perf_counter() - began)
            repeat.run_s += perf_counter() - start
            repeat.intake_s += after_intake - start
            repeat.intake_envelopes += len(batch)
            repeat.refresh_s.append(after_maintenance - after_intake)
            # Checks run off the clock, before the next round changes state.
            for index, (query, response) in enumerate(zip(burst, responses)):
                text = response.render()
                rendered.update(text.encode())
                if index % READ_ORACLE_EVERY:
                    continue
                if serving.query_uncached(query).render() != text:
                    mismatches += 1

        repeat.attempted = len(repeat.query_s)
        repeat.failed = mismatches
        repeat.expect("responses differing from the uncached oracle", mismatches, 0)
        recover_from_snapshot(
            server, lambda: make_sharded(inputs.catalog, READ_SHARDS), work_dir, repeat
        )

        serve = serve_counts(telemetry)
        repeat.outputs = {
            "responses_sha256": rendered.hexdigest(),
            "summaries_sha256": summaries_digest(server),
            "records": server.n_records,
            "queries": serve["serve.queries"],
            "cache_hits": serve["serve.cache_hits"],
            "cache_misses": serve["serve.cache_misses"],
            "invalidations": serve["serve.invalidations"],
        }
        repeat.counts = {
            **intake_counts(telemetry),
            **maintenance_counts(telemetry, len(inputs.catalog)),
            **serve,
        }
        return repeat


WORKLOADS = {workload.name: workload for workload in (EpochsE2E(), WriteDurable(), ReadMixed())}
