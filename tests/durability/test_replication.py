"""Log shipping, bounded lag, and exact failover.

Direct-drive tests cover the :class:`ReplicatedRSPServer` mechanics
(ship, defer, drain, promote); the pipeline-level tests pin the headline
failover property — a run whose primary is killed mid-epoch produces
byte-identical epoch reports to one that never crashed, with zero
accepted envelopes lost.
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import recover_server
from repro.durability.replication import ReplicatedRSPServer, ReplicationChannel
from repro.faults import FaultPlan, PrimaryCrash
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

from tests.durability.conftest import (
    comparable_state,
    make_server,
    synth_deliveries,
)


class ChannelDownUntil:
    """A fault hook whose replica link is down before ``up_at``."""

    def __init__(self, up_at):
        self.up_at = up_at

    def replica_down(self, now):
        return now < self.up_at


def make_pair(catalog, root, hook=None, n_shards=1):
    primary = make_server(catalog, n_shards)
    replica = make_server(catalog, n_shards)
    journal = DurableJournal(
        root / "primary",
        n_lanes=n_shards,
        lane_of=primary.router.shard_of,
    )
    attach_journal(primary, journal)
    return ReplicatedRSPServer(
        primary,
        replica,
        journal,
        ReplicationChannel(fault_hook=hook),
        durable_root=root,
    )


class TestShipping:
    @pytest.mark.parametrize("n_shards", [1, 4], ids=["monolith", "sharded"])
    def test_ship_reproduces_the_primary_byte_for_byte(
        self, catalog, tmp_path, n_shards
    ):
        pair = make_pair(catalog, tmp_path, n_shards=n_shards)
        pair.primary.receive_all(synth_deliveries(catalog, 0, 30))
        assert pair.lag == 30
        assert pair.ship(now=100.0) == 30
        assert pair.lag == 0
        assert pair.acked_seq == 30
        assert comparable_state(pair.replica) == comparable_state(pair.primary)

    def test_outage_defers_whole_batches_then_drains(self, catalog, tmp_path):
        pair = make_pair(catalog, tmp_path, hook=ChannelDownUntil(up_at=500.0))
        pair.primary.receive_all(synth_deliveries(catalog, 0, 20))
        assert pair.ship(now=100.0) == 0  # channel down: defer, no partials
        assert pair.deferred_batches == 1
        assert pair.lag == 20
        pair.primary.receive_all(synth_deliveries(catalog, 20, 35))
        assert pair.ship(now=200.0) == 0
        assert pair.lag == 35
        assert pair.max_lag == 35
        # First shipment after the window drains the whole backlog:
        # staleness, never loss.
        assert pair.ship(now=600.0) == 35
        assert pair.lag == 0
        assert comparable_state(pair.replica) == comparable_state(pair.primary)


class TestFailover:
    def test_promoted_replica_is_the_shipped_prefix_plus_redelivery(
        self, catalog, tmp_path
    ):
        pair = make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, 0, 25))
        pair.ship(now=100.0)
        shipped_state = comparable_state(pair.primary)
        unshipped = synth_deliveries(catalog, 25, 33)
        pair.primary.receive_all(unshipped)
        final_state = comparable_state(pair.primary)

        promoted = pair.fail_over(torn_bytes=7)
        assert promoted is pair.replica and pair.promoted
        assert comparable_state(promoted) == shipped_state
        # The unshipped tail was accepted but never acked to the replica:
        # the client retransmission machinery re-sends it, and the
        # replicated nonce table dedups the rest.
        promoted.receive_all(unshipped + synth_deliveries(catalog, 0, 25))
        assert comparable_state(promoted) == final_state

    def test_promoted_server_is_itself_recoverable(self, catalog, tmp_path):
        pair = make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, 0, 25))
        pair.ship(now=100.0)
        promoted = pair.fail_over()
        promoted_dir = tmp_path / "promoted"
        assert promoted.journal.directory == promoted_dir
        assert list(promoted_dir.glob("snapshot-*.json"))  # baseline snapshot
        restored = make_server(catalog)
        recover_server(restored, promoted_dir)
        assert comparable_state(restored) == comparable_state(promoted)

    def test_dead_primary_directory_recovers_post_mortem(self, catalog, tmp_path):
        pair = make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, 0, 25))
        final_state = comparable_state(pair.primary)
        pair.fail_over(torn_bytes=9)
        exhumed = make_server(catalog)
        report = recover_server(exhumed, tmp_path / "primary")
        assert report.torn_tail
        assert comparable_state(exhumed) == final_state

    def test_ship_after_promotion_is_a_noop(self, catalog, tmp_path):
        pair = make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, 0, 5))
        pair.fail_over()
        assert pair.ship(now=999.0) == 0


# ------------------------------------------------------- pipeline level

HORIZON_DAYS = 60.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
EPOCH = HORIZON / N_EPOCHS
MAX_USERS = 8


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run_replicated(world, durable_dir, plan=None):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=29)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
        durable_dir=durable_dir,
        replicate=True,
    )


class TestPipelineFailover:
    def test_failover_run_is_byte_identical_to_unfaulted(self, world, tmp_path):
        baseline = run_replicated(world, tmp_path / "baseline")
        plan = FaultPlan(
            seed=11,
            primary_crashes=(PrimaryCrash(time=1.5 * EPOCH, torn_bytes=7),),
        )
        faulted = run_replicated(world, tmp_path / "faulted", plan=plan)

        assert faulted.replication is not None and faulted.replication.promoted
        assert faulted.server is faulted.replication.replica
        assert faulted.injector.primary_crashes_triggered == 1
        # The tentpole acceptance bar: the promoted run's reports are
        # byte-identical to a run that never lost its primary.
        assert [repr(r) for r in faulted.reports] == [
            repr(r) for r in baseline.reports
        ]
        assert (
            faulted.server.accepted_envelopes == baseline.server.accepted_envelopes
        )

    def test_failover_loses_no_accepted_envelope(self, world, tmp_path):
        plan = FaultPlan(
            seed=12,
            primary_crashes=(PrimaryCrash(time=0.5 * EPOCH, torn_bytes=3),),
        )
        outcome = run_replicated(world, tmp_path / "d", plan=plan)
        server = outcome.server
        assert outcome.replication.promoted
        # Every accepted envelope burned a fresh nonce on the serving
        # node; dedup holds across the promotion boundary.
        assert server.accepted_envelopes == server.n_unique_nonces
