"""Shared harness for the durability suite.

Direct-intake workloads (no anonymity network, no tokens) keep the
crash-matrix iterations cheap: deliveries are synthesized deterministically
from an index, so any subset — and any re-delivery — is reproducible.
"""

from pathlib import Path

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.snapshot import capture_state
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.service.server import build_server
from repro.world.population import TownConfig, build_town

FIXTURE_SEED = 7


@pytest.fixture(scope="session")
def catalog():
    return build_town(TownConfig(n_users=20), seed=FIXTURE_SEED).entities


def make_server(catalog, n_shards=1):
    """A token-free server with ``n_shards`` shards for direct intake."""
    return build_server(catalog, n_shards=n_shards, require_tokens=False, key_bits=256)


def synth_deliveries(catalog, lo, hi, duplicate_every=0):
    """Deterministic deliveries ``[lo, hi)``: interactions, opinions, dups.

    Every fourth index is an opinion upload (with a cycling per-slot
    ``seq``); ``duplicate_every`` re-delivers every Nth envelope verbatim
    — the at-least-once channel the nonce table exists for.
    """
    ids = sorted(entity.entity_id for entity in catalog)
    out = []
    for i in range(lo, hi):
        entity_id = ids[i % len(ids)]
        if i % 4 == 3:
            record = OpinionUpload(
                history_id=f"hist-{i % 20:05d}",
                entity_id=ids[(i % 20) % len(ids)],
                rating=float(1 + i % 5),
                seq=i // 20,
            )
        else:
            record = InteractionUpload(
                history_id=f"hist-{i:05d}",
                entity_id=entity_id,
                interaction_type="visit" if i % 2 else "call",
                event_time=600.0 * i,
                duration=300.0 + i,
                travel_km=0.5 * (i % 7),
            )
        envelope = Envelope(record=record, token=None, nonce=i.to_bytes(16, "big"))
        out.append(
            Delivery(
                payload=envelope,
                arrival_time=600.0 * i + 120.0,
                channel_tag=f"ch-{i}",
            )
        )
        if duplicate_every and i % duplicate_every == 0:
            out.append(
                Delivery(
                    payload=envelope,
                    arrival_time=600.0 * i + 180.0,
                    channel_tag=f"ch-{i}-dup",
                )
            )
    return out


def comparable_state(server):
    """Everything recovery must reproduce byte-for-byte.

    The rejection-side counters (``duplicates_suppressed``,
    ``rejected_envelopes``) are deliberately not journaled — only accepted
    mutations are — so they are excluded; ``accepted_envelopes`` and
    ``opinions_stale`` *are* reproduced (stale-accepted opinions are
    journaled and replay re-runs the ``seq`` rule).
    """
    state = {
        key: value
        for key, value in capture_state(server).items()
        if key not in ("wal_seq", "counters")
    }
    return state, server.accepted_envelopes, server.opinions_stale


def final_digest(server, now):
    """Maintenance report + summaries, the byte-identity comparison unit."""
    report = server.run_maintenance(now=now)
    summaries = repr(sorted(server._summaries.items()))
    return repr(report), summaries


def copy_durable_dir(source: Path, destination: Path) -> Path:
    """Copy a durable directory (flat: segments + snapshots)."""
    destination.mkdir(parents=True, exist_ok=True)
    for path in Path(source).iterdir():
        (destination / path.name).write_bytes(path.read_bytes())
    return destination
