"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload epochs_e2e --seed 2016 --seconds 30 --trace 0

Each repeat sets the workload up afresh from the seed and executes it; the
run repeats until ``--seconds`` is used (at least :data:`MIN_REPEATS`
repeats).  Every repeat's outputs are checked: against the first repeat,
and at the default seed against ``pins.json``.  A run that fails a check
reports no metrics and counts all its ops as failed.

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; the
harness's own tests run with ``python3 -m pytest perfbench/tests -q``.

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``, as
medians over repeats with the layer tracer never installed.  ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics:
each layer's self time and call count, the run's exact counts, and
``trace.overhead_frac``.  The spans of the first traced repeat are written
to ``.bench_work/``, as is a full result with its provenance.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent

MIN_REPEATS = 3
#: Set-ups timed per repeat (the last one's state is used): set-up is short,
#: so ``setup_s`` takes its median over more samples than the repeats give.
SETUPS_PER_REPEAT = 2
#: Traced runs alternate (untraced, traced) pairs; at least this many.
MIN_TRACE_PAIRS = 2
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: End-to-end metrics: name -> unit.  ``ops_failed_frac`` is carried by the
#: result's ``attempted`` and ``failed`` fields (it reads 0 on a correct
#: run, and a metric must never be 0).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "intake_eps": "1/s",
    "refresh_s": "s",
    "recover_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "read_qps": "1/s",
}

#: Per-layer counts and ratios, beside each span's ``.self_s`` and ``.calls``.
LAYER_COUNTS = {
    "client.observe_trace.p50_ms": "ms",
    "client.stay_points_per_trace": "ratio",
    "privacy.tokens_signed": "count",
    "ingest.accepted": "count",
    "ingest.rejected": "count",
    "ingest.duplicates": "count",
    "durability.wal_appends": "count",
    "durability.wal_bytes": "bytes",
    "durability.replayed": "count",
    "maintenance.dirty_frac": "ratio",
    "reshard.keys_moved": "count",
    "reshard.histories_moved": "count",
    "serve.queries": "count",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.cache_hit_rate": "ratio",
    "serve.invalidations": "count",
    "trace.overhead_frac": "ratio",
}

#: The layers whose self time should account for most of ``epochs_e2e``.
CLIENT_SIDE_PREFIXES = ("sensing.", "client.", "core.", "privacy.")


# ------------------------------------------------------------- statistics


def highest_percentile(n_samples: int, min_beyond: int = MIN_TAIL_SAMPLES) -> float:
    """The highest percentile with at least ``min_beyond`` samples above it."""
    if n_samples <= min_beyond:
        return 0.0
    return 100.0 * (n_samples - min_beyond) / n_samples


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float], pct: float) -> float:
    """``percentile`` that refuses a tail with fewer than ten samples beyond it."""
    if highest_percentile(len(samples)) < pct:
        raise ValueError(
            f"p{pct:g} needs more than {MIN_TAIL_SAMPLES} samples beyond it; "
            f"have {len(samples)} samples"
        )
    return percentile(samples, pct)


# ------------------------------------------------------------- provenance


def provenance(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Where and on what these numbers were measured."""
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None  # a plain checkout: the source digest identifies it
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    cpu_model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------- running


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux 4.0+), so each repeat has its own."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then covers the whole process so far


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_repeat(workload, seed: int, work_dir: Path, tracer=None):
    """Set up and execute once; returns ``(setup times, repeat)``."""
    from tracer import assert_untraced

    gc.collect()
    assert_untraced()
    reset_peak_rss()
    setup_times = []
    for _ in range(SETUPS_PER_REPEAT):
        state = None  # drop the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    if tracer is None:
        repeat = workload.execute(state, work_dir)
    else:
        with tracer:
            repeat = workload.execute(state, work_dir)
        assert_untraced()
    repeat.peak_rss_mb = peak_rss_mb()
    return setup_times, repeat


def check_outputs(workload_name: str, seed: int, repeats) -> list[str]:
    """Every repeat's own checks, plus equality across repeats and with the pins."""
    from workloads import DEFAULT_SEED

    problems = []
    first = repeats[0].outputs
    for index, repeat in enumerate(repeats):
        problems.extend(f"repeat {index}: {problem}" for problem in repeat.problems)
        if repeat.outputs != first:
            changed = sorted(k for k in first if repeat.outputs.get(k) != first[k])
            problems.append(f"repeat {index}: outputs differ from repeat 0 in {changed}")
    if seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pins.json").read_text())[workload_name]
        for key, want in pins.items():
            if first.get(key) != want:
                problems.append(f"pinned {key}: got {first.get(key)!r}, pinned {want!r}")
    return problems


def end_to_end_metrics(setup_times: list[float], repeats) -> dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "run_s": median([r.run_s for r in repeats]),
        "peak_rss_mb": median([r.peak_rss_mb for r in repeats]),
        "intake_eps": median([r.intake_envelopes / r.intake_s for r in repeats]),
        "refresh_s": median([statistics.fmean(r.refresh_s) for r in repeats]),
        "recover_s": median([r.recover_s for r in repeats]),
        "query_p50_us": median([percentile(r.query_s, 50) for r in repeats]) * 1e6,
        "query_p99_us": median([tail_percentile(r.query_s, 99) for r in repeats]) * 1e6,
        "read_qps": median([len(r.query_s) / sum(r.query_s) for r in repeats]),
    }


def layer_metrics(span_sets, traced, untraced) -> dict[str, float]:
    """Per-layer self times and calls (median over traced repeats) and counts."""
    from tracer import LAYER_SPANS, durations, self_times

    per_repeat = [self_times(spans) for spans in span_sets]
    metrics: dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = median([t.get(name, (0.0, 0))[0] for t in per_repeat])
        metrics[f"{name}.calls"] = per_repeat[0].get(name, (0.0, 0))[1]
    observe = durations(span_sets[0], "client.observe_trace")
    metrics["client.observe_trace.p50_ms"] = percentile(observe, 50) * 1e3 if observe else 0.0
    traces = metrics["sensing.generate_trace.calls"]
    metrics["client.stay_points_per_trace"] = (
        metrics["sensing.extract_stay_points.calls"] / traces if traces else 0.0
    )
    for name in LAYER_COUNTS:
        if name in traced[0].counts:
            metrics[name] = traced[0].counts[name]
        metrics.setdefault(name, 0)
    metrics["trace.overhead_frac"] = (
        median([r.run_s for r in traced]) / median([r.run_s for r in untraced]) - 1.0
    )
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return LAYER_COUNTS[name]


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    from tracer import LAYER_TARGETS, Tracer

    started = time.perf_counter()
    setup_times: list[float] = []
    untraced: list = []
    traced: list = []
    span_sets: list = []
    while True:
        elapsed = time.perf_counter() - started
        done = len(traced) if trace else len(untraced)
        minimum = MIN_TRACE_PAIRS if trace else MIN_REPEATS
        if done >= minimum and elapsed + elapsed / done > seconds:
            break
        times, repeat = run_repeat(workload, seed, work_dir)
        setup_times.extend(times)
        untraced.append(repeat)
        if trace:
            tracer = Tracer(LAYER_TARGETS)
            times, repeat = run_repeat(workload, seed, work_dir, tracer)
            setup_times.extend(times)
            traced.append(repeat)
            span_sets.append(tracer.finished_spans())
    repeats = untraced + traced
    problems = check_outputs(workload.name, seed, repeats)
    result = {
        "problems": problems,
        "repeats": len(repeats),
        "attempted": sum(r.attempted for r in repeats),
        "failed": sum(r.attempted if problems else r.failed for r in repeats),
        "outputs": repeats[0].outputs,
        "run_s_per_repeat": [r.run_s for r in untraced],
        "traced_run_s_per_repeat": [r.run_s for r in traced],
        "latency_samples": len(untraced[0].query_s),
        "setup_s_per_repeat": setup_times,
    }
    if problems:
        result["metrics"] = {}
    elif trace:
        result["metrics"] = layer_metrics(span_sets, traced, untraced)
        result["spans"] = span_sets[0]
    else:
        result["metrics"] = end_to_end_metrics(setup_times, untraced)
    return result


def report(workload_name: str, result: dict, trace: bool) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    attempted = result["attempted"]
    print(f"perfbench {workload_name}: {result['repeats']} repeats")
    for problem in result["problems"]:
        print(f"  CHECK FAILED {problem}")
    failed = result["failed"]
    print(f"  ops_failed_frac = {failed / attempted:.6f} ({failed}/{attempted})")
    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    if trace and metrics:
        client_side = sum(
            value
            for name, value in metrics.items()
            if name.endswith(".self_s") and name.startswith(CLIENT_SIDE_PREFIXES)
        )
        traced_run = median(result["traced_run_s_per_repeat"])
        print(
            f"  sensing+client+core+privacy self time = {client_side:.3f} s "
            f"({client_side / traced_run:.0%} of traced run_s)"
        )
    elif metrics:
        print(f"  query percentiles: per repeat over {result['latency_samples']} queries")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            f"perfbench: {root} has no src/repro; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    work_dir = root / ".bench_work"
    work_dir.mkdir(exist_ok=True)

    result = measure(workload, seed, args.seconds, trace, work_dir)
    result["provenance"] = provenance(root, workload.name, seed, int(args.seconds), args.trace)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(work_dir / f"spans-{stem}.jsonl", "w") as handle:
            for name, start, end, parent in spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
    (work_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    report(workload.name, result, trace)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    final = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
