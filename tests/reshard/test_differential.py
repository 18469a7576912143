"""The resharding differential matrix: any schedule ≡ static deployment.

The proof obligation of :mod:`repro.reshard`: live topology changes are
pure implementation detail.  Every cell runs the full epochs pipeline —
town, clients, mixnet, tokens, maintenance, serving — under some
resharding schedule (scripted splits, merges, mixed, or the autoscaler)
and asserts *exact* equality with a static deployment on

* the per-epoch report digest,
* every entity's opinion summary (all floats, bit for bit),
* the serve digest (every rendered response folded in),
* the AGGREGATE telemetry export (``rsp.reshard.*`` is DEPLOYMENT-scoped
  by design, so the invariant scope must not move at all).

The chaos cells repeat the comparison under drops + duplicates +
retransmission, where a key that migrated between a drop and its
retransmission must still dedupe on its new shard.
"""

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.reshard import AutoscalePolicy, parse_schedule
from repro.telemetry import AGGREGATE, DEPLOYMENT
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
MAX_USERS = 8
SERVE_QUERIES = 10

CHAOS = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

#: Scripted schedules, each paired with the shard count it starts from.
SCHEDULES = {
    "grow-canonical": (2, ["1:split:0", "2:split:1"]),
    "grow-noncanonical": (2, ["1:split:1", "2:split:0"]),
    "shrink": (8, ["2:merge:0:1"]),
    "mixed": (2, ["1:split:0", "2:split:2", "3:merge:1:2"]),
    "grow-from-one": (1, ["1:split:0", "2:split:0"]),
}


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, n_shards, schedule=None, autoscale=None, plan=None, retransmit=None):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=5, retransmit=retransmit)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
        n_shards=n_shards,
        serve_queries=SERVE_QUERIES,
        reshard_schedule=parse_schedule(schedule) if schedule else None,
        autoscale=autoscale,
    )


def assert_equivalent(baseline, candidate):
    assert candidate.reports_digest() == baseline.reports_digest()
    assert candidate.server.all_summaries() == baseline.server.all_summaries()
    assert candidate.serve_digest == baseline.serve_digest
    assert candidate.telemetry.digest(scope=AGGREGATE) == baseline.telemetry.digest(
        scope=AGGREGATE
    )


@pytest.fixture(scope="module")
def clean_baseline(world):
    return run(world, n_shards=4)


@pytest.fixture(scope="module")
def chaos_baseline(world):
    return run(world, n_shards=4, plan=CHAOS, retransmit=RETRY)


class TestScheduledMatrix:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_scheduled_resharding_is_indistinguishable(
        self, world, clean_baseline, name
    ):
        n_shards, schedule = SCHEDULES[name]
        outcome = run(world, n_shards=n_shards, schedule=schedule)
        assert len(outcome.reshard_ops) == len(schedule)
        assert_equivalent(clean_baseline, outcome)

    @pytest.mark.parametrize("name", ["grow-canonical", "mixed"])
    def test_resharding_under_chaos_is_indistinguishable(
        self, world, chaos_baseline, name
    ):
        n_shards, schedule = SCHEDULES[name]
        outcome = run(
            world, n_shards=n_shards, schedule=schedule, plan=CHAOS, retransmit=RETRY
        )
        assert len(outcome.reshard_ops) == len(schedule)
        assert_equivalent(chaos_baseline, outcome)
        assert outcome.server.duplicates_suppressed > 0

    def test_reshard_telemetry_stays_out_of_the_aggregate_scope(self, world):
        n_shards, schedule = SCHEDULES["grow-canonical"]
        outcome = run(world, n_shards=n_shards, schedule=schedule)
        deployment = outcome.telemetry.export_json(scope=DEPLOYMENT)
        assert "rsp.reshard.splits" in deployment
        assert "rsp.reshard.moved" in deployment
        assert "rsp.reshard" not in outcome.telemetry.export_json(scope=AGGREGATE)


class TestAutoscaledMatrix:
    def test_autoscaled_run_is_indistinguishable(self, world, clean_baseline):
        policy = AutoscalePolicy(split_above=8, merge_below=0, max_shards=6)
        outcome = run(world, n_shards=2, autoscale=policy)
        # The policy actually fired — growth happened mid-run.
        assert outcome.reshard_ops
        assert outcome.server.n_shards_live > 2
        assert_equivalent(clean_baseline, outcome)

    def test_autoscaled_chaos_run_is_indistinguishable(self, world, chaos_baseline):
        policy = AutoscalePolicy(split_above=8, merge_below=0, max_shards=6)
        outcome = run(world, n_shards=2, autoscale=policy, plan=CHAOS, retransmit=RETRY)
        assert outcome.reshard_ops
        assert_equivalent(chaos_baseline, outcome)

    def test_sanity_baseline_is_not_vacuous(self, clean_baseline, chaos_baseline):
        assert clean_baseline.server.n_records > 0
        assert clean_baseline.serve_digest is not None
        assert clean_baseline.serve_digest != chaos_baseline.serve_digest
