"""Regression: deferred-epoch ingestion must not mislabel buffered mail.

A server outage that covers an epoch's ingest point defers the batch job;
the mix's already-released deliveries are held by the driver and replayed
at the catch-up cycle.  The historical bug: the catch-up `receive` checked
the outage window against each delivery's *arrival* timestamp — stamped
while the server was down — and silently dropped the whole backlog as
outage losses, in an epoch where the endpoint was demonstrably up.

These tests pin the fixed semantics: an outage that ends before the next
ingest point loses nothing, the catch-up run stores exactly what a clean
run stores, and the injector/server outage counters stay consistent.
"""

import pytest

from repro.faults import FaultPlan, ServerOutage, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 60.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
EPOCH = HORIZON / N_EPOCHS
MAX_USERS = 6

#: Covers epoch 2's ingest point (2*EPOCH + 2*DAY) but ends well before
#: epoch 3's (3*EPOCH + 2*DAY) — so *every* delivery the mix released
#: during the outage is replayable at catch-up, and the correct number of
#: envelopes lost to the outage is exactly zero.
NARROW_OUTAGE = Window(2 * EPOCH - DAY, 2 * EPOCH + 2 * DAY + HOUR)


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=24), seed=31)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=31
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=31)
    return town, result, classifier


def run(world, plan):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=31)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
    )


class TestDeferredAccounting:
    def test_narrow_outage_loses_nothing(self, world):
        """An outage over only the ingest point defers, never drops."""
        plan = FaultPlan(seed=11, server_outages=(ServerOutage(NARROW_OUTAGE),))
        outcome = run(world, plan)

        deferred = [r for r in outcome.reports if r.server_deferred]
        assert len(deferred) == 1
        assert deferred[0].epoch == 2
        assert deferred[0].maintenance is None
        assert deferred[0].new_records == 0

        # The buffered backlog was replayed at catch-up, not dropped:
        assert outcome.injector.envelopes_lost_to_outage == 0
        assert outcome.server.dropped_by_outage == 0
        assert sum(r.dropped_messages for r in outcome.reports) == 0

    def test_catchup_stores_exactly_the_clean_run_records(self, world):
        """The deferred run ends with the same stores as a faultless one."""
        plan = FaultPlan(seed=11, server_outages=(ServerOutage(NARROW_OUTAGE),))
        faulted = run(world, plan)
        clean = run(world, FaultPlan(seed=11))

        assert faulted.server.n_records == (
            clean.server.n_records
        )
        assert faulted.server.n_opinions == clean.server.n_opinions
        assert faulted.reports[-1].total_records == clean.reports[-1].total_records

    def test_catchup_epoch_absorbs_the_backlog(self, world):
        """Records deferred out of epoch 2 land in epoch 3, not nowhere."""
        plan = FaultPlan(seed=11, server_outages=(ServerOutage(NARROW_OUTAGE),))
        faulted = run(world, plan)
        clean = run(world, FaultPlan(seed=11))

        by_epoch_faulted = {r.epoch: r.new_records for r in faulted.reports}
        by_epoch_clean = {r.epoch: r.new_records for r in clean.reports}
        assert by_epoch_faulted[1] == by_epoch_clean[1]
        assert by_epoch_faulted[2] == 0
        assert by_epoch_faulted[3] == by_epoch_clean[2] + by_epoch_clean[3]

    def test_sharded_deployment_defers_identically(self, world):
        """The held-backlog replay is a driver concern; shards match."""
        town, result, classifier = world
        plan = FaultPlan(seed=11, server_outages=(ServerOutage(NARROW_OUTAGE),))
        config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=31)
        mono = run(world, plan)
        sharded = run_epochs(
            town,
            result,
            config,
            n_epochs=N_EPOCHS,
            classifier=classifier,
            max_users=MAX_USERS,
            fault_plan=plan,
            n_shards=4,
        )
        assert sharded.reports_digest() == mono.reports_digest()
        assert sharded.server.dropped_by_outage == 0
