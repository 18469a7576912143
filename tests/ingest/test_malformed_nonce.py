"""A nonce that is neither ``None`` nor ``bytes`` is a malformed envelope.

The nonce table, the nonce router and the journal's hex encoding all
take bytes.  A ``str`` or ``int`` nonce used to abort a sharded batch
half-way (the router raised) and, on a journaled monolith, to land in
the store and then crash the WAL append — leaving a stored record the
WAL never saw.  The intake loop now rejects it as
``rejected{reason=malformed}`` before it reaches any of them: the rest
of the batch lands, and the WAL replays to the live state.
"""

import pytest

from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import recover_server
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.telemetry import Telemetry
from repro.world.population import TownConfig, build_town
from tests.durability.conftest import make_server, synth_deliveries


@pytest.fixture(scope="module")
def catalog():
    return build_town(TownConfig(n_users=20), seed=7).entities


def journaled(catalog, n_shards, directory):
    server = make_server(catalog, n_shards)
    telemetry = Telemetry()
    server.attach_telemetry(telemetry)
    journal = DurableJournal(
        directory, n_lanes=n_shards, lane_of=server.router.shard_of
    )
    attach_journal(server, journal)
    return server, telemetry, journal


@pytest.mark.parametrize("nonce", ["str-nonce-0123456789", 12345678901234567890])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_non_bytes_nonce_is_rejected_and_the_batch_lands(
    tmp_path, catalog, n_shards, nonce
):
    server, telemetry, journal = journaled(catalog, n_shards, tmp_path)
    good = synth_deliveries(catalog, 0, 12)
    record = synth_deliveries(catalog, 100, 101)[0].payload.record
    bad = Delivery(
        payload=Envelope(record=record, token=None, nonce=nonce),
        arrival_time=7200.0,
        channel_tag="ch-bad",
    )

    assert server.receive_all(good[:6] + [bad] + good[6:]) == len(good)
    assert server.receive(bad) is False
    assert server.accepted_envelopes == len(good)
    assert server.rejected_envelopes == 2
    assert telemetry.value("rsp.envelopes.rejected", reason="malformed") == 2
    assert server.n_unique_nonces == len(good)
    # The malformed envelope's interaction was never stored.
    assert server.n_records == sum(
        isinstance(d.payload.record, InteractionUpload) for d in good
    )

    journal.close()
    server.run_maintenance()
    recovered = make_server(catalog, n_shards)
    recover_server(recovered, tmp_path)
    recovered.run_maintenance()
    assert recovered.all_summaries() == server.all_summaries()
    for counter in ("accepted_envelopes", "n_records", "n_opinions", "n_unique_nonces"):
        assert getattr(recovered, counter) == getattr(server, counter), counter
