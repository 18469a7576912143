"""Self-tests of the benchmark machinery: percentiles, self time, the tracer's
install/remove cycle, the intake oracle, and seeded input generation."""

import hashlib
import sys
import types

import pytest

import run
import workloads
from tracer import (
    LAYER_TARGETS,
    Target,
    Tracer,
    assert_untraced,
    installed_wrappers,
    self_times,
)

# ------------------------------------------------------------ percentiles


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(1000) == pytest.approx(99.0)
    assert run.highest_percentile(20_000) == pytest.approx(99.95)
    assert run.highest_percentile(100) == pytest.approx(90.0)
    assert run.highest_percentile(10) == 0.0
    for n in (11, 57, 1000, 4321):
        pct = run.highest_percentile(n)
        beyond = n - pct / 100.0 * n
        assert beyond == pytest.approx(10.0)


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert run.percentile(samples, 50) == 50.0
    assert run.percentile(samples, 99) == 99.0
    assert run.percentile(samples, 100) == 100.0
    assert run.percentile(list(reversed(samples)), 1) == 1.0


def test_tail_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 999, 99)
    assert run.tail_percentile([1.0] * 1000, 99) == 1.0


# -------------------------------------------------------------- self time


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
        ("b", 11.0, 12.5, -1),
    ]
    totals = self_times(spans)
    assert totals["a"] == pytest.approx((3.0, 1))
    assert totals["b"] == pytest.approx((4.5, 2))
    assert totals["c"] == pytest.approx((3.0, 1))
    assert totals["d"] == pytest.approx((1.0, 1))
    # Self times partition the root spans' wall time.
    assert sum(t for t, _ in totals.values()) == pytest.approx(11.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("p", 0.0, 10.0, -1),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),
        ("z", 9.0, 12.0, 0),
    ]
    assert self_times(spans)["p"] == pytest.approx((3.0, 1))


# ----------------------------------------------------------------- tracer


@pytest.fixture
def fake_layer(monkeypatch):
    """A throwaway module with a function and a class method to trace."""
    module = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    class Box:
        def method(self, x):
            return module.outer(x)

    def boom():
        raise RuntimeError("boom")

    module.leaf, module.outer, module.Box, module.boom = leaf, outer, Box, boom
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        Target("fake.leaf", module.__name__, "leaf"),
        Target("fake.outer", module.__name__, "outer"),
        Target("fake.method", f"{module.__name__}:Box", "method"),
        Target("fake.boom", module.__name__, "boom"),
    )
    return module, targets


def test_tracer_records_nested_spans_and_restores_originals(fake_layer):
    module, targets = fake_layer
    originals = (module.leaf, module.outer, module.Box.__dict__["method"], module.boom)
    tracer = Tracer(targets)
    with tracer:
        assert installed_wrappers(targets)
        assert module.Box().method(3) == 8
        with pytest.raises(RuntimeError):
            module.boom()
    spans = tracer.finished_spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("fake.method", -1),
        ("fake.outer", 0),
        ("fake.leaf", 1),
        ("fake.boom", -1),
    ]
    assert {name: calls for name, (_, calls) in self_times(spans).items()} == {
        "fake.method": 1,
        "fake.outer": 1,
        "fake.leaf": 1,
        "fake.boom": 1,
    }
    assert (module.leaf, module.outer, module.Box.__dict__["method"], module.boom) == originals
    assert installed_wrappers(targets) == []
    assert_untraced(targets)


def test_failed_install_leaves_nothing_behind(fake_layer):
    module, targets = fake_layer
    broken = targets + (Target("fake.missing", module.__name__, "no_such_function"),)
    with pytest.raises(AttributeError):
        Tracer(broken).install()
    assert installed_wrappers(targets) == []


def test_every_layer_target_resolves_and_is_removed_after_a_traced_repeat(tmp_path):
    class FailingWorkload:
        """Raises inside the traced phase, after the wrappers went in."""

        name = "failing"

        def setup(self, seed):
            return seed

        def execute(self, state, work_dir):
            assert installed_wrappers(LAYER_TARGETS)
            raise RuntimeError("mid-run failure")

    with pytest.raises(RuntimeError, match="mid-run failure"):
        run.run_repeat(FailingWorkload(), 1, tmp_path, Tracer(LAYER_TARGETS))
    assert installed_wrappers(LAYER_TARGETS) == []

    class TracedWorkload(FailingWorkload):
        def execute(self, state, work_dir):
            return workloads.Repeat()

    setup_times, repeat = run.run_repeat(TracedWorkload(), 1, tmp_path, Tracer(LAYER_TARGETS))
    assert len(setup_times) == run.SETUPS_PER_REPEAT and repeat.peak_rss_mb > 0
    assert_untraced()


def test_untraced_repeat_refuses_to_run_with_wrappers_installed(tmp_path):
    tracer = Tracer(LAYER_TARGETS).install()
    try:
        with pytest.raises(RuntimeError, match="still installed"):
            run.run_repeat(workloads.WORKLOADS["epochs_e2e"], 1, tmp_path)
    finally:
        tracer.uninstall()
    assert_untraced()


# ------------------------------------------------------------ intake oracle


def test_intake_oracle_classifies_duplicates_and_invalid_envelopes():
    from repro.core.protocol import Envelope
    from repro.ingest import synthetic_catalog
    from repro.privacy.anonymity import Delivery
    from repro.privacy.history_store import InteractionUpload

    catalog = synthetic_catalog(3)

    def delivery(nonce: int, entity_id: str) -> Delivery:
        record = InteractionUpload(
            history_id=f"h-{nonce}",
            entity_id=entity_id,
            interaction_type="visit",
            event_time=0.0,
            duration=60.0,
            travel_km=1.0,
        )
        return Delivery(
            payload=Envelope(record=record, token=None, nonce=bytes([nonce])),
            arrival_time=1.0,
            channel_tag="t",
        )

    known = catalog[0].entity_id
    batches = [
        [delivery(1, known), delivery(1, known), delivery(2, "unknown")],
        [delivery(2, "unknown"), delivery(3, known), delivery(3, known)],
    ]
    assert workloads.expected_outcomes(batches, catalog) == {
        "accepted": 2,
        "rejected": 2,
        "duplicates": 2,
    }


# ------------------------------------------------------- seeded generation


def fingerprint(workload_name: str, seed: int) -> str:
    """A digest of everything a workload's setup derives from the seed."""
    state = workloads.WORKLOADS[workload_name].setup(seed)
    digest = hashlib.sha256()
    if workload_name == "epochs_e2e":
        for world in state:
            digest.update(repr(world.result.events).encode())
            digest.update(repr(world.result.reviews).encode())
            digest.update(repr([e.entity_id for e in world.town.entities]).encode())
            digest.update(repr(world.queries).encode())
    elif workload_name == "write_durable":
        digest.update(repr(state.batches).encode())
        digest.update(repr(state.queries).encode())
    else:
        digest.update(repr(state.rounds).encode())
        digest.update(repr(state.bursts).encode())
        digest.update(workloads.summaries_digest(state.server).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload_name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_seeded(workload_name):
    first = fingerprint(workload_name, 7)
    assert fingerprint(workload_name, 7) == first
    assert fingerprint(workload_name, 8) != first


# ------------------------------------------------------ the benchmark file


def test_benchmark_file_names_what_the_harness_reports():
    import json

    from conftest import REPO_ROOT
    from tracer import LAYER_SPANS

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = [f"{span}.{part}" for span in LAYER_SPANS for part in ("self_s", "calls")]
    assert [m["name"] for m in spec["per_layer"]] == layer_names + list(run.LAYER_COUNTS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
