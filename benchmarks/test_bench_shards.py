"""B3 — sharded maintenance throughput vs the per-entity monolith.

The scale claim of PR 3: partitioning the stores by record key and
running the maintenance cycle through the columnar per-shard kernel must
buy at least a 2x maintenance-cycle speedup over the per-entity
maintenance of the reference monolith (``tests/oracle.py``) on the same
intake — while producing byte-identical reports and
summaries.  Emits ``BENCH_3.json`` with the measured numbers (consumed
by ``make bench-shards`` and EXPERIMENTS.md).
"""

import hashlib
import json
import pathlib
import time

import numpy as np
from _harness import comparison_table, emit

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.scale.server import ShardedRSPServer
from repro.util.clock import DAY
from repro.util.rng import make_rng
from repro.world.population import TownConfig, build_town

from conftest import BENCH_SEED
from tests.oracle import OracleServer

N_HISTORIES = 24_000
RECORDS_PER_HISTORY = 12
N_SHARDS = 8
WORKERS = 4
REQUIRED_SPEEDUP = 2.0


def build_workload(entities):
    """~200k deliveries over realistic 64-hex record keys."""
    rng = make_rng(BENCH_SEED, "bench/shards/workload")
    entity_ids = [e.entity_id for e in entities]
    gaps = rng.uniform(0.5 * DAY, 5 * DAY, (N_HISTORIES, RECORDS_PER_HISTORY))
    times = np.cumsum(gaps, axis=1)
    durations = rng.uniform(600.0, 7200.0, (N_HISTORIES, RECORDS_PER_HISTORY))
    travels = rng.uniform(0.1, 20.0, (N_HISTORIES, RECORDS_PER_HISTORY))
    entity_choice = rng.integers(0, len(entity_ids), N_HISTORIES)
    ratings = np.round(rng.uniform(1.0, 5.0, N_HISTORIES), 1)
    deliveries = []
    nonce = 0
    for i in range(N_HISTORIES):
        hid = hashlib.sha256(f"bench-history-{i}".encode()).hexdigest()
        eid = entity_ids[int(entity_choice[i])]
        t_row, d_row, k_row = times[i], durations[i], travels[i]
        for k in range(RECORDS_PER_HISTORY):
            record = InteractionUpload(
                history_id=hid,
                entity_id=eid,
                interaction_type="visit",
                event_time=float(t_row[k]),
                duration=float(d_row[k]),
                travel_km=float(k_row[k]),
            )
            deliveries.append(
                Delivery(
                    payload=Envelope(
                        record=record, token=None, nonce=nonce.to_bytes(16, "big")
                    ),
                    arrival_time=float(t_row[k]) + 3600.0,
                    channel_tag="c",
                )
            )
            nonce += 1
        if i % 3 == 0:
            opinion = OpinionUpload(history_id=hid, entity_id=eid, rating=float(ratings[i]))
            deliveries.append(
                Delivery(
                    payload=Envelope(
                        record=opinion, token=None, nonce=nonce.to_bytes(16, "big")
                    ),
                    arrival_time=float(t_row[-1]) + 7200.0,
                    channel_tag="c",
                )
            )
            nonce += 1
    return deliveries


def test_bench_sharded_maintenance_speedup(benchmark):
    town = build_town(TownConfig(n_users=10), seed=BENCH_SEED)
    deliveries = build_workload(town.entities)

    # The per-entity baseline: the reference monolith of tests/oracle.py.
    mono = OracleServer(catalog=town.entities, key_seed=BENCH_SEED, require_tokens=False)
    sharded = ShardedRSPServer(
        catalog=town.entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        n_shards=N_SHARDS,
        workers=WORKERS,
    )
    serial = ShardedRSPServer(
        catalog=town.entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        n_shards=N_SHARDS,
        workers=0,
    )
    assert mono.receive_all(deliveries) == len(deliveries)
    assert sharded.receive_all(deliveries) == len(deliveries)
    assert serial.receive_all(deliveries) == len(deliveries)

    start = time.perf_counter()
    mono_report = mono.run_maintenance()
    mono_s = time.perf_counter() - start

    start = time.perf_counter()
    serial_report = serial.run_maintenance()
    serial_s = time.perf_counter() - start

    def pooled_cycle():
        return sharded.run_maintenance()

    start = time.perf_counter()
    sharded_report = benchmark.pedantic(pooled_cycle, rounds=1, iterations=1)
    sharded_s = time.perf_counter() - start

    # Equivalence first: speed bought with drift is worthless.
    assert repr(sharded_report) == repr(mono_report)
    assert repr(serial_report) == repr(mono_report)
    assert sharded.all_summaries() == mono.all_summaries()
    assert sharded.pool_fallbacks == 0

    speedup = mono_s / sharded_s
    serial_speedup = mono_s / serial_s
    emit(comparison_table(
        f"B3: maintenance cycle, {N_HISTORIES} histories x {RECORDS_PER_HISTORY} records",
        ["configuration", "maintenance wall time", "speedup"],
        [
            ["per-entity monolith (oracle)", f"{mono_s:.3f}s", "1.00x"],
            [f"sharded x{N_SHARDS}, serial", f"{serial_s:.3f}s", f"{serial_speedup:.2f}x"],
            [f"sharded x{N_SHARDS}, {WORKERS} workers", f"{sharded_s:.3f}s", f"{speedup:.2f}x"],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_3.json"
    out.write_text(json.dumps(
        {
            "bench": "sharded-maintenance",
            "n_histories": N_HISTORIES,
            "records_per_history": RECORDS_PER_HISTORY,
            "n_records": mono.n_records,
            "n_shards": N_SHARDS,
            "workers": WORKERS,
            "baseline_s": round(mono_s, 4),
            "serial_sharded_s": round(serial_s, 4),
            "sharded_s": round(sharded_s, 4),
            "serial_speedup": round(serial_speedup, 3),
            "speedup": round(speedup, 3),
            "required_speedup": REQUIRED_SPEEDUP,
        },
        indent=2,
    ) + "\n")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"pooled maintenance {speedup:.2f}x < required {REQUIRED_SPEEDUP}x "
        f"(mono {mono_s:.3f}s vs sharded {sharded_s:.3f}s)"
    )
