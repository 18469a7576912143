"""The intake loop against the per-record reference: the identity obligation.

The server runs every envelope through one batch loop,
:func:`repro.service.intake.intake`, at every shard count.  This suite proves it equal to the
service's original per-record intake, kept verbatim in ``tests/oracle.py``:
for any delivery stream, with or without fault chaos and durability, the
loop produces

* the same accept/reject/duplicate classification for every envelope,
* the same epoch report digests, opinion summaries, and fraud verdicts,
* the same telemetry export — in both scopes on one lane, and in the
  deployment-invariant AGGREGATE scope on several,
* the same WAL, byte for byte, under the same global sequence numbers.

The epoch-level matrix drives the full pipeline with the oracle as the
baseline server and the loop across shard/worker configurations, clean
and under the chaos plan; the direct server-level tests pin each
classification branch (duplicate, stale seq, token bounce on a seen
nonce, malformed and poisoned records) where the epoch pipeline would
reach them only by luck.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal
from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.orchestration import epochs
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.anonymity import Delivery
from repro.privacy.tokens import TokenWallet
from repro.privacy.uploads import RetransmitPolicy
from repro.scale.router import ShardRouter
from repro.scale.server import ShardedRSPServer
from repro.service.server import RSPServer
from repro.telemetry import AGGREGATE, Telemetry
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town
from tests.oracle import OracleServer, in_lane_order, oracle_server

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
MAX_USERS = 8

CHAOS = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

#: A workload whose impurities exercise every classification branch.
IMPURE = WorkloadConfig(
    n_users=250,
    n_entities=40,
    opinion_fraction=0.35,
    duplicate_fraction=0.05,
    stale_fraction=0.2,
    invalid_fraction=0.05,
    seed=11,
)

COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "dropped_by_outage",
    "history_mismatches",
    "n_records",
    "n_opinions",
)


# ------------------------------------------------------- epoch-level matrix


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, n_shards=1, workers=0, plan=None, retransmit=None, oracle=False):
    """One ``run_epochs`` pass; ``oracle`` serves it from the oracle."""
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=5, retransmit=retransmit)
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(epochs, "build_server", oracle_server)
        return run_epochs(
            town,
            result,
            config,
            n_epochs=N_EPOCHS,
            classifier=classifier,
            max_users=MAX_USERS,
            fault_plan=plan,
            n_shards=n_shards,
            workers=workers,
        )


def verdict_set(outcome):
    return {
        (v.history_id, v.entity_id, v.flags)
        for report in outcome.reports
        if report.maintenance is not None
        for v in report.maintenance.rejected
    }


def assert_equivalent(baseline, candidate):
    assert candidate.reports_digest() == baseline.reports_digest()
    assert candidate.server.all_summaries() == baseline.server.all_summaries()
    assert verdict_set(candidate) == verdict_set(baseline)
    # The AGGREGATE telemetry scope is deployment-invariant by contract
    # (tests/telemetry/test_golden_snapshot.py), so every cell must
    # reproduce the oracle monolith's export exactly.
    assert candidate.telemetry.digest(scope=AGGREGATE) == baseline.telemetry.digest(
        scope=AGGREGATE
    )


@pytest.fixture(scope="module")
def clean_baseline(world):
    return run(world, oracle=True)


@pytest.fixture(scope="module")
def chaos_baseline(world):
    return run(world, plan=CHAOS, retransmit=RETRY, oracle=True)


class TestCleanMatrix:
    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_batched_intake_is_indistinguishable(
        self, world, clean_baseline, n_shards, workers
    ):
        outcome = run(world, n_shards=n_shards, workers=workers)
        assert_equivalent(clean_baseline, outcome)

    def test_baseline_is_not_vacuous(self, clean_baseline):
        assert isinstance(clean_baseline.server, OracleServer)
        assert clean_baseline.server.n_records > 0
        assert clean_baseline.server.accepted_envelopes > 0


class TestChaosMatrix:
    @pytest.mark.parametrize("n_shards,workers", [(1, 0), (4, 1), (8, 4)])
    def test_batched_chaos_is_indistinguishable(
        self, world, chaos_baseline, n_shards, workers
    ):
        outcome = run(
            world,
            n_shards=n_shards,
            workers=workers,
            plan=CHAOS,
            retransmit=RETRY,
        )
        assert_equivalent(chaos_baseline, outcome)
        assert (
            outcome.server.duplicates_suppressed
            == chaos_baseline.server.duplicates_suppressed
        )

    def test_chaos_actually_bites(self, chaos_baseline):
        assert chaos_baseline.injector.messages_dropped > 0
        assert chaos_baseline.server.duplicates_suppressed > 0


# --------------------------------------------------- direct server parity


def make_server(catalog, n_shards, require_tokens):
    if n_shards:
        return ShardedRSPServer(
            catalog, n_shards=n_shards, workers=0, require_tokens=require_tokens
        )
    return RSPServer(catalog, require_tokens=require_tokens)


def paired_servers(n_shards=0, require_tokens=False):
    """The oracle and the deployment under test, each with real telemetry,
    plus the traffic both are fed."""
    traffic = SyntheticTraffic(IMPURE)
    oracle = OracleServer(traffic.catalog, require_tokens=require_tokens)
    dut = make_server(traffic.catalog, n_shards, require_tokens)
    pairs = []
    for server in (oracle, dut):
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        pairs.append((server, telemetry))
    return pairs[0], pairs[1], traffic


def deliver(oracle, dut, deliveries, now=100.0):
    """One batch into both (the oracle sees it in the DUT's lane order);
    both must accept the same number of envelopes."""
    ordered = in_lane_order(deliveries, dut.router.n_shards)
    assert oracle.receive_all(ordered, now=now) == dut.receive_all(deliveries, now=now)


def assert_same_story(oracle_pair, dut_pair, scope=None):
    """Same counters, same telemetry export.

    With one lane the export is compared in full, both scopes: the loop
    emits once per batch what the oracle emits per envelope.  Per-shard
    detail (``rsp.shard.batch``, and after maintenance
    ``rsp.shard.histories``) lives under DEPLOYMENT scope, so with more
    lanes, or after maintenance, only AGGREGATE is compared.
    """
    (oracle, tele_o), (dut, tele_d) = oracle_pair, dut_pair
    for attr in COUNTERS:
        assert getattr(oracle, attr) == getattr(dut, attr), attr
    if dut.router.n_shards > 1:
        scope = AGGREGATE
    assert tele_o.metrics.export_json(scope) == tele_d.metrics.export_json(scope)


@pytest.mark.parametrize("n_shards", [0, 4])
def test_impure_stream_parity(n_shards):
    pair_o, pair_d, traffic = paired_servers(n_shards=n_shards)
    for tick in range(5):
        now = 100.0 * tick
        deliver(pair_o[0], pair_d[0], traffic.batch(400, now), now=now)
    assert_same_story(pair_o, pair_d)
    # The impurities actually exercised the interesting branches.
    assert pair_o[0].duplicates_suppressed > 0
    assert pair_o[0].rejected_envelopes > 0
    assert pair_o[0].opinions_stale > 0


@pytest.mark.parametrize("n_shards", [0, 4])
def test_maintenance_after_batched_intake_matches(n_shards):
    pair_o, pair_d, traffic = paired_servers(n_shards=n_shards)
    deliver(pair_o[0], pair_d[0], traffic.batch(1200, 100.0))
    report_o = pair_o[0].run_maintenance(now=200.0)
    report_d = pair_d[0].run_maintenance(now=200.0)
    assert pair_o[0].all_summaries() == pair_d[0].all_summaries()
    assert repr(report_o) == repr(report_d)
    assert_same_story(pair_o, pair_d, scope=AGGREGATE)


def entity_record(catalog):
    from repro.core.aggregation import OpinionUpload

    return OpinionUpload(
        history_id="h-parity", entity_id=catalog[0].entity_id, rating=4.0, seq=1
    )


def delivery_of(envelope, arrival=100.0):
    return Delivery(payload=envelope, arrival_time=arrival, channel_tag="t")


class TestTokenNuances:
    """The token-failure-on-seen-nonce branch, on both deployments."""

    def tokens_for(self, server, count):
        wallet = TokenWallet(device_id="parity-device")
        blinded = wallet.mint(server.issuer.public_key, count)
        signatures = server.issuer.issue("parity-device", blinded, now=100.0)
        wallet.accept_signatures(server.issuer.public_key, signatures)
        return [wallet.spend() for _ in range(count)]

    def test_spent_token_on_seen_nonce_is_a_duplicate(self):
        for n_shards in (0, 4):
            pair_o, pair_d, traffic = paired_servers(n_shards, require_tokens=True)
            record = entity_record(traffic.catalog)
            for server, _ in (pair_o, pair_d):
                (token,) = self.tokens_for(server, 1)
                envelope = Envelope(record=record, token=token, nonce=b"n-1" * 6)
                server.receive_all([delivery_of(envelope)], now=100.0)
                server.receive_all([delivery_of(envelope, 101.0)], now=100.0)
                assert server.accepted_envelopes == 1
                assert server.duplicates_suppressed == 1
                assert server.rejected_envelopes == 0
            assert_same_story(pair_o, pair_d)

    def test_missing_token_on_fresh_nonce_is_a_token_bounce(self):
        for n_shards in (0, 4):
            pair_o, pair_d, traffic = paired_servers(n_shards, require_tokens=True)
            envelope = Envelope(
                record=entity_record(traffic.catalog), token=None, nonce=b"n-2" * 6
            )
            deliver(pair_o[0], pair_d[0], [delivery_of(envelope)])
            for server, _ in (pair_o, pair_d):
                assert server.rejected_envelopes == 1
                assert server.accepted_envelopes == 0
            assert_same_story(pair_o, pair_d)


class _Exploding:
    """A record whose store dispatch blows up (but routes like a real one)."""

    history_id = "h-poison"

    @property
    def entity_id(self):
        raise RuntimeError("poisoned record")


class _ExplodingOpinion(OpinionUpload):
    """A well-typed opinion whose entity lookup raises mid-dispatch."""

    @property
    def entity_id(self):
        raise RuntimeError("poisoned record")


class TestPoisonedRecords:
    @pytest.mark.parametrize("n_shards", [0, 4])
    def test_malformed_record_parity(self, n_shards):
        pair_o, pair_d, traffic = paired_servers(n_shards=n_shards)
        bad = delivery_of(
            Envelope(record="not a record", token=None, nonce=b"n-3" * 6)
        )
        deliver(pair_o[0], pair_d[0], [bad] + traffic.batch(50, 100.0))
        assert pair_o[0].rejected_envelopes >= 1
        assert_same_story(pair_o, pair_d)

    def test_exploding_record_is_a_store_error_on_both_paths(self):
        for n_shards in (0, 4):
            pair_o, pair_d, traffic = paired_servers(n_shards=n_shards)
            poisons = [
                delivery_of(Envelope(record=_Exploding(), token=None, nonce=b"n-4" * 6)),
                delivery_of(
                    Envelope(
                        record=object.__new__(_ExplodingOpinion),
                        token=None,
                        nonce=b"n-5" * 6,
                    )
                ),
            ]
            deliver(pair_o[0], pair_d[0], poisons + traffic.batch(50, 100.0))
            tele = pair_d[1]
            assert tele.value("rsp.envelopes.rejected", reason="store-error") == 1
            assert tele.value("rsp.envelopes.rejected", reason="malformed") == 1
            assert_same_story(pair_o, pair_d)


class TestNonceFreeEnvelopes:
    def test_no_nonce_means_no_dedup_on_either_path(self):
        for n_shards in (0, 4):
            pair_o, pair_d, traffic = paired_servers(n_shards=n_shards)
            bare = Envelope(
                record=entity_record(traffic.catalog), token=None, nonce=None
            )
            deliver(pair_o[0], pair_d[0], [delivery_of(bare) for _ in range(3)])
            for server, _ in (pair_o, pair_d):
                assert server.duplicates_suppressed == 0
                assert server.accepted_envelopes == 3
            assert_same_story(pair_o, pair_d)


# ------------------------------------------------------- WAL byte identity


@pytest.mark.parametrize("n_shards", [0, 4])
def test_wal_bytes_identical(tmp_path, n_shards):
    """Same deliveries, same WAL — to the byte, with the same global seqs."""
    lane_of = ShardRouter(n_shards).shard_of if n_shards else None
    traffic = SyntheticTraffic(IMPURE)
    oracle = OracleServer(traffic.catalog, require_tokens=False)
    loop = make_server(traffic.catalog, n_shards, require_tokens=False)
    roots = {"oracle": tmp_path / "oracle", "loop": tmp_path / "loop"}
    for label, server in (("oracle", oracle), ("loop", loop)):
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        attach_journal(
            server,
            DurableJournal(
                roots[label],
                n_lanes=max(1, n_shards),
                lane_of=lane_of,
                telemetry=telemetry,
            ),
        )
    for tick in range(4):
        now = 100.0 * tick
        deliver(oracle, loop, traffic.batch(300, now), now=now)
    names_o = sorted(p.name for p in roots["oracle"].glob("wal-*"))
    names_l = sorted(p.name for p in roots["loop"].glob("wal-*"))
    assert names_o == names_l and len(names_o) == max(1, n_shards)
    for name in names_o:
        assert (roots["oracle"] / name).read_bytes() == (
            roots["loop"] / name
        ).read_bytes(), name
