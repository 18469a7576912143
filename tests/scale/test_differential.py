"""The differential matrix: every deployment vs the reference, end to end.

Every cell runs the full epochs pipeline — simulated town, on-device
clients, mixnet, token issuance, maintenance — twice: once against the
per-entity reference monolith (``tests/oracle.py``) and once against a
server configuration (one shard or many, serial or pooled), and asserts
*exact* equality of

* the per-epoch report digest (``EpochsOutcome.reports_digest()``),
* every entity's opinion summary (all floats, bit for bit),
* the set of fraud verdicts (which histories were flagged, and why).

The chaos cells repeat the comparison under a fault plan with drops,
duplicates and retransmission, where intake interleaving is at its
nastiest.  This suite is the proof obligation of the scale package:
sharding, the columnar kernel and the process pool are pure
implementation detail.
"""

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration import epochs
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town
from tests.oracle import oracle_server

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


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, seed, n_shards=1, workers=0, plan=None, retransmit=None, oracle=False):
    """One ``run_epochs`` pass; ``oracle`` serves it from the reference
    monolith in ``tests/oracle.py`` instead of the server."""
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=seed, retransmit=retransmit)
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


@pytest.fixture(scope="module")
def baselines(world):
    """Reference-monolith runs, one per seed, shared across the matrix."""
    return {seed: run(world, seed, oracle=True) for seed in (29, 31)}


class TestCleanMatrix:
    @pytest.mark.parametrize("seed", [29, 31])
    @pytest.mark.parametrize("n_shards,workers", [(1, 0), (2, 0), (8, 0), (8, 2)])
    def test_sharded_run_is_indistinguishable(
        self, world, baselines, seed, n_shards, workers
    ):
        outcome = run(world, seed, n_shards=n_shards, workers=workers)
        assert_equivalent(baselines[seed], outcome)
        if workers:
            assert outcome.server.pool_fallbacks == 0

    def test_sanity_different_seeds_differ(self, baselines):
        """Guards the matrix against vacuous equality (e.g. empty runs)."""
        assert baselines[29].reports_digest() != baselines[31].reports_digest()
        assert baselines[29].server.n_records > 0
        assert verdict_set(baselines[29]) or baselines[29].server.n_histories > 0


class TestChaosMatrix:
    @pytest.fixture(scope="class")
    def chaos_baseline(self, world):
        return run(world, 29, plan=CHAOS, retransmit=RETRY, oracle=True)

    @pytest.mark.parametrize("n_shards,workers", [(1, 0), (2, 0), (8, 0), (8, 2)])
    def test_chaos_run_is_indistinguishable(
        self, world, chaos_baseline, n_shards, workers
    ):
        outcome = run(
            world, 29, n_shards=n_shards, workers=workers, plan=CHAOS, retransmit=RETRY
        )
        assert_equivalent(chaos_baseline, outcome)
        # Same fault stream, same suppression behaviour — per shard.
        assert (
            outcome.server.duplicates_suppressed
            == chaos_baseline.server.duplicates_suppressed
        )
        assert outcome.server.accepted_envelopes == outcome.server.n_unique_nonces

    def test_chaos_actually_bites(self, chaos_baseline):
        assert chaos_baseline.injector.messages_dropped > 0
        assert chaos_baseline.server.duplicates_suppressed > 0
