"""F2 — Figure 2: the end-to-end architecture, measured.

The paper's architecture diagram has no numbers; the measurable claim
behind it is the thesis of the whole paper: routing implicit inferences
through the client → anonymity network → service path "can dramatically
increase the number of opinions users can draw upon" while keeping the
service's inputs anonymous and token-checked.
"""

from _harness import comparison_table, emit

import numpy as np


def test_bench_fig2_pipeline(benchmark, simulated_world, pipeline_outcome):
    town, result, _ = simulated_world
    out = pipeline_outcome

    def maintenance_cycle():
        return out.server.run_maintenance()

    report = benchmark.pedantic(maintenance_cycle, rounds=1, iterations=1)

    emit(comparison_table(
        "Figure 2 pipeline: the architecture, end to end",
        ["stage", "value"],
        [
            ["users simulated", len(town.users)],
            ["ground-truth events", len(result.events)],
            ["explicit reviews posted", out.server.n_explicit_reviews],
            ["anonymous histories stored", out.server.n_histories],
            ["interaction records stored", out.server.n_records],
            ["inferred opinions received", out.server.n_opinions],
            ["histories rejected by fraud filter", report.n_rejected_histories],
            ["median opinions/entity (explicit only)", f"{out.median_opinions_before():.0f}"],
            ["median opinions/entity (with inference)", f"{out.median_opinions_after():.0f}"],
            ["total opinion gain", f"{out.coverage_gain():.1f}x"],
            ["inference MAE (stars)", f"{out.mean_absolute_error:.2f}"],
            ["abstention rate", f"{out.abstention_rate:.2f}"],
        ],
    ))

    # The paper's thesis: opinions multiply.
    assert out.coverage_gain() > 3.0
    assert out.server.n_opinions > out.server.n_explicit_reviews
    # Anonymity held: every stored record was token-checked and no history
    # id embeds a user id.
    assert out.server.rejected_envelopes == 0
    user_ids = {user.user_id for user in town.users}
    for history in out.server.all_histories():
        assert not any(uid in history.history_id for uid in user_ids)
    # Inference quality stayed usable (inferred opinions are noisier
    # than explicit reviews, but well under the 2.5-star coin flip).
    assert out.mean_absolute_error < 1.5
    assert np.mean(out.review_errors) < out.mean_absolute_error
