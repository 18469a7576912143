"""Every ``RSPServer.receive`` rejection path, counted exactly once.

The epoch dashboards (and the chaos acceptance criteria) rely on
``rejected_envelopes`` / ``duplicates_suppressed`` / ``dropped_by_outage``
being disjoint, per-envelope-exact counters; these tests pin each intake
outcome to exactly one counter increment.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.faults import FaultInjector, Window, outage_plan
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.tokens import TokenWallet, UploadToken
from repro.service.server import RSPServer
from repro.world.population import TownConfig, build_town


@pytest.fixture()
def server_and_town():
    town = build_town(TownConfig(n_users=5), seed=31)
    server = RSPServer(catalog=town.entities, key_seed=31, key_bits=256)
    return server, town


def tokens_for(server, count=1, device="dev", seed=0):
    wallet = TokenWallet(device_id=device, seed=seed)
    blinded = wallet.mint(server.issuer.public_key, count)
    wallet.accept_signatures(
        server.issuer.public_key, server.issuer.issue(device, blinded, now=0.0)
    )
    return [wallet.spend() for _ in range(count)]


def delivery_of(record, token, arrival=1.0, nonce=None, tag="c"):
    return Delivery(
        payload=Envelope(record=record, token=token, nonce=nonce),
        arrival_time=arrival,
        channel_tag=tag,
    )


def interaction_record(identity, entity_id, t=0.0):
    return InteractionUpload(
        history_id=identity.history_id(entity_id),
        entity_id=entity_id,
        interaction_type="visit",
        event_time=t,
        duration=1800.0,
        travel_km=2.0,
    )


def counters(server):
    return (
        server.rejected_envelopes,
        server.duplicates_suppressed,
        server.dropped_by_outage,
        server.accepted_envelopes,
    )


class TestRejectionPathsCountOnce:
    def test_missing_token(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert not server.receive(delivery_of(record, None, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 0)

    def test_forged_token(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        record = interaction_record(identity, town.entities[0].entity_id)
        forged = UploadToken(token_id=b"fake", signature=99)
        assert not server.receive(delivery_of(record, forged, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 0)

    def test_double_spent_token(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        [token] = tokens_for(server)
        assert server.receive(
            delivery_of(interaction_record(identity, entity_id), token, nonce=b"n1")
        )
        assert not server.receive(
            delivery_of(
                interaction_record(identity, entity_id, t=9.0), token, nonce=b"n2"
            )
        )
        assert counters(server) == (1, 0, 0, 1)

    def test_unknown_entity_interaction(self, server_and_town):
        server, _ = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        [token] = tokens_for(server)
        record = interaction_record(identity, "no-such-entity")
        assert not server.receive(delivery_of(record, token, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 0)

    def test_unknown_entity_opinion(self, server_and_town):
        server, _ = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        [token] = tokens_for(server)
        record = OpinionUpload(
            history_id=identity.history_id("no-such-entity"),
            entity_id="no-such-entity",
            rating=4.0,
        )
        assert not server.receive(delivery_of(record, token, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 0)

    def test_unknown_record_type(self, server_and_town):
        server, _ = server_and_town
        [token] = tokens_for(server)
        assert not server.receive(delivery_of("not-a-record", token, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 0)

    def test_history_entity_mismatch(self, server_and_town):
        """An identifier bound to one entity cannot be reused for another
        (the store's corruption defence); the bounce is a rejection."""
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        first, second = town.entities[0].entity_id, town.entities[1].entity_id
        token_a, token_b = tokens_for(server, count=2)
        assert server.receive(
            delivery_of(interaction_record(identity, first), token_a, nonce=b"n1")
        )
        mismatched = InteractionUpload(
            history_id=identity.history_id(first),  # bound to ``first``...
            entity_id=second,  # ...but claiming ``second``
            interaction_type="visit",
            event_time=5.0,
            duration=600.0,
            travel_km=1.0,
        )
        assert not server.receive(delivery_of(mismatched, token_b, nonce=b"n2"))
        assert counters(server) == (1, 0, 0, 1)


class TestNonRejectionOutcomes:
    def test_duplicate_nonce_is_suppression_not_rejection(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        token_a, token_b = tokens_for(server, count=2)
        record = interaction_record(identity, entity_id)
        assert server.receive(delivery_of(record, token_a, nonce=b"n1"))
        assert not server.receive(delivery_of(record, token_b, nonce=b"n1"))
        assert counters(server) == (0, 1, 0, 1)
        assert server.n_records == 1
        assert server.n_unique_nonces == 1

    def test_outage_drop_is_not_a_rejection(self, server_and_town):
        server, town = server_and_town
        server.fault_hook = FaultInjector(
            outage_plan(server_window=Window(0.0, 10.0))
        )
        identity = DeviceIdentity.create("u", seed=1)
        [token] = tokens_for(server)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert not server.receive(delivery_of(record, token, arrival=5.0, nonce=b"n1"))
        assert counters(server) == (0, 0, 1, 0)

    def test_outage_consumes_neither_token_nor_nonce(self, server_and_town):
        """A retransmitted copy of an envelope lost to an outage must still
        land: the down endpoint processed nothing."""
        server, town = server_and_town
        server.fault_hook = FaultInjector(
            outage_plan(server_window=Window(0.0, 10.0))
        )
        identity = DeviceIdentity.create("u", seed=1)
        [token] = tokens_for(server)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert not server.receive(delivery_of(record, token, arrival=5.0, nonce=b"n1"))
        # Same token, same nonce, after the outage: accepted.
        assert server.receive(delivery_of(record, token, arrival=15.0, nonce=b"n1"))
        assert counters(server) == (0, 0, 1, 1)

    def test_rejected_nonce_can_be_repaired_and_resent(self, server_and_town):
        """A nonce is marked seen only on acceptance, so a record bounced
        for a fixable reason can be retransmitted under the same nonce."""
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        token_a, token_b = tokens_for(server, count=2)
        bad = interaction_record(identity, "no-such-entity")
        assert not server.receive(delivery_of(bad, token_a, nonce=b"n1"))
        good = interaction_record(identity, town.entities[0].entity_id)
        assert server.receive(delivery_of(good, token_b, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 1)

    def test_unauthenticated_sender_cannot_squat_a_nonce(self, server_and_town):
        """Token checking precedes dedup: a tokenless envelope must not
        reserve a nonce and suppress someone's later legitimate record."""
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert not server.receive(delivery_of(record, None, nonce=b"n1"))
        [token] = tokens_for(server)
        assert server.receive(delivery_of(record, token, nonce=b"n1"))
        assert counters(server) == (1, 0, 0, 1)

    def test_nonce_free_envelopes_still_accepted(self, server_and_town):
        """Legacy envelopes without a nonce flow through untouched — dedup
        is opt-in per envelope."""
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        [token] = tokens_for(server)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert server.receive(delivery_of(record, token))
        assert counters(server) == (0, 0, 0, 1)
        assert server.n_unique_nonces == 0
