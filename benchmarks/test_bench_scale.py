"""A16 — end-to-end scalability of the full pipeline.

Not a paper figure: the systems sanity check a release needs.  Runs the
complete architecture (world -> sensing -> clients -> mix network ->
token-checked intake -> fraud filter -> aggregation) at increasing
population sizes and reports wall time and store growth; asserts the
pipeline scales roughly linearly in users over this range.
"""

import time

from _harness import comparison_table, emit

from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


def run_at_scale(n_users: int, days: float = 60.0, seed: int = 77):
    town = build_town(TownConfig(n_users=n_users), seed=seed)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=days), seed=seed
    ).run()
    start = time.perf_counter()
    outcome = run_full_pipeline(town, result, PipelineConfig(horizon_days=days, seed=seed))
    elapsed = time.perf_counter() - start
    return outcome, elapsed, len(result.events)


def test_bench_pipeline_scaling(benchmark):
    sizes = (40, 80, 160)
    results = {}
    for n_users in sizes[:-1]:
        results[n_users] = run_at_scale(n_users)

    def largest():
        return run_at_scale(sizes[-1])

    results[sizes[-1]] = benchmark.pedantic(largest, rounds=1, iterations=1)

    rows = []
    for n_users in sizes:
        outcome, elapsed, n_events = results[n_users]
        rows.append(
            [
                n_users,
                n_events,
                outcome.server.n_records,
                outcome.server.n_opinions,
                f"{elapsed:.1f}s",
            ]
        )
    emit(comparison_table(
        "A16: full-pipeline scaling (60 simulated days)",
        ["users", "ground-truth events", "stored records", "opinions", "pipeline wall time"],
        rows,
    ))

    _, t_small, _ = results[sizes[0]]
    _, t_large, _ = results[sizes[-1]]
    user_ratio = sizes[-1] / sizes[0]
    # Roughly linear in users: 4x the population should cost well under
    # ~3x the per-user-linear budget (i.e. < 12x total here).
    assert t_large < 3.0 * user_ratio * t_small
    # Output scales with population too.
    small_records = results[sizes[0]][0].server.n_records
    large_records = results[sizes[-1]][0].server.n_records
    assert large_records > 2 * small_records
