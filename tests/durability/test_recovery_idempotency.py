"""Recovery idempotency: dedup state provably survives a restart.

The at-least-once channel makes every delivery a potential re-delivery;
the acceptance rules that suppress them (nonce table, per-slot opinion
``seq``, issuer quota windows) are exactly the state a restart must not
lose.  Each test crashes between the first delivery and its duplicate.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import recover_server
from repro.privacy.anonymity import Delivery

from tests.durability.conftest import (
    comparable_state,
    make_server,
    synth_deliveries,
)


def durable_server(catalog, directory, n_shards=1):
    server = make_server(catalog, n_shards)
    attach_journal(server, DurableJournal(directory, n_lanes=1))
    return server


def opinion_delivery(entity_id, nonce_int, seq, rating, history_id="hist-00001"):
    """One opinion envelope with an explicit nonce and slot ``seq``."""
    record = OpinionUpload(
        history_id=history_id, entity_id=entity_id, rating=rating, seq=seq
    )
    envelope = Envelope(record=record, token=None, nonce=nonce_int.to_bytes(16, "big"))
    return Delivery(
        payload=envelope,
        arrival_time=1000.0 + nonce_int,
        channel_tag=f"ch-{nonce_int}",
    )


@pytest.mark.parametrize("torn_bytes", [0, 9])
def test_pre_crash_duplicates_stay_suppressed_after_recovery(
    catalog, tmp_path, torn_bytes
):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    deliveries = synth_deliveries(catalog, 0, 20)
    server.receive_all(deliveries)
    expected = comparable_state(server)
    server.journal.crash(torn_bytes=torn_bytes)

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    recovered.receive_all(deliveries)  # the channel re-sends everything
    assert recovered.duplicates_suppressed == 20
    assert comparable_state(recovered) == expected


def test_stale_opinion_seq_survives_recovery(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 8))
    entity_id = sorted(e.entity_id for e in catalog)[1]
    server.receive_all([opinion_delivery(entity_id, 900, seq=2, rating=5.0)])
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    slot = recovered.opinion("hist-00001")
    assert (slot.seq, slot.rating) == (2, 5.0)

    # A delayed older upload (fresh nonce, lower seq) arrives only now:
    # the restored slot seq must win, and the envelope still counts as
    # accepted — exactly the pre-crash semantics.
    stale_before = recovered.opinions_stale
    accepted_before = recovered.accepted_envelopes
    recovered.receive_all([opinion_delivery(entity_id, 901, seq=1, rating=1.0)])
    slot = recovered.opinion("hist-00001")
    assert (slot.seq, slot.rating) == (2, 5.0)
    assert recovered.opinions_stale == stale_before + 1
    assert recovered.accepted_envelopes == accepted_before + 1


def test_replayed_stale_acceptance_reproduces_the_counter(catalog, tmp_path):
    """A stale-but-accepted upload is journaled; replay re-runs the seq
    rule and lands on the same slot and the same ``opinions_stale``."""
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 8))
    entity_id = sorted(e.entity_id for e in catalog)[1]
    server.receive_all(
        [
            opinion_delivery(entity_id, 910, seq=3, rating=4.0),
            opinion_delivery(entity_id, 911, seq=1, rating=2.0),  # stale
        ]
    )
    assert server.opinions_stale == 1
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    assert recovered.opinions_stale == 1
    assert comparable_state(recovered) == comparable_state(server)


def test_issuer_quota_window_survives_recovery(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.issuer.issue("device-7", [3, 5, 7], now=100.0)
    server.issuer.issue("device-7", [11], now=200.0)
    remaining = server.issuer.remaining_quota("device-7", now=300.0)
    assert remaining == server.issuer.quota_per_day - 4
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    assert recovered.issuer.remaining_quota("device-7", now=300.0) == remaining
    # The window start is restored too: the same day keeps counting, the
    # next day resets.
    assert (
        recovered.issuer.remaining_quota("device-7", now=100.0 + 86400.0)
        == recovered.issuer.quota_per_day
    )


def test_new_journal_resumes_sequence_monotonically(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 12))
    server.journal.crash(torn_bytes=5)

    recovered = make_server(catalog)
    report = recover_server(recovered, directory)
    assert report.next_seq == 13

    resumed = DurableJournal(directory)
    assert resumed.next_seq == report.next_seq
    attach_journal(recovered, resumed)
    recovered.receive_all(synth_deliveries(catalog, 12, 15))
    assert resumed.next_seq == 16
    resumed.close()

    # The whole lineage — pre-crash records plus post-recovery appends —
    # replays as one totally ordered history.
    final = make_server(catalog)
    report = recover_server(final, directory)
    assert report.n_replayed == 15
    assert comparable_state(final) == comparable_state(recovered)
