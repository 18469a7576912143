"""Outside-in span tracer: wraps layer functions where their callers find them.

The benchmark never edits the program.  To see where a run's time goes it
replaces, for the length of one traced run only, each layer function at the
attribute its caller looks it up through -- a module global such as
``repro.orchestration.epochs.generate_trace`` (the name ``run_epochs``
resolves at call time) or a method on its class such as
``repro.serve.cache.SummaryVersionCache.get``.  The wrapper records one span
per call (name, start, end, parent) in memory; nothing is written until the
run ends.  :meth:`Tracer.uninstall` puts every original back, and
:func:`assert_untraced` proves it before any untraced run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

#: Marker attribute set on every wrapper, so a leftover one can be found.
_MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Target:
    """One lookup site: ``owner`` is ``"pkg.module"`` or ``"pkg.module:Class"``."""

    span: str
    owner: str
    attribute: str

    def resolve_owner(self):
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


#: Every layer boundary the traced run records, grouped by the layer that
#: owns it.  A function looked up through two modules gets one target per
#: site under the same span name (``extract_stay_points``).
LAYER_TARGETS: tuple[Target, ...] = (
    Target("sensing.generate_trace", "repro.orchestration.epochs", "generate_trace"),
    Target("sensing.extract_stay_points", "repro.sensing.resolution", "extract_stay_points"),
    Target("sensing.extract_stay_points", "repro.client.app", "extract_stay_points"),
    Target("sensing.resolve", "repro.sensing.resolution:EntityResolver", "resolve"),
    Target("client.infer_home", "repro.client.app", "infer_home"),
    Target("client.observe_trace", "repro.client.app:RSPClient", "observe_trace"),
    Target("core.extract_all_features", "repro.client.app", "extract_all_features"),
    Target("core.predict", "repro.core.classifier:OpinionClassifier", "predict"),
    Target("privacy.issue", "repro.privacy.tokens:TokenIssuer", "issue"),
    Target("privacy.mint", "repro.privacy.tokens:TokenWallet", "mint"),
    Target("privacy.accept_signatures", "repro.privacy.tokens:TokenWallet", "accept_signatures"),
    Target("privacy.mix_submit", "repro.privacy.anonymity:AnonymityNetwork", "submit"),
    Target("privacy.mix_release", "repro.privacy.anonymity:AnonymityNetwork", "deliveries_until"),
    Target("service.receive_all", "repro.service.server:RSPServer", "receive_all"),
    Target("service.run_maintenance", "repro.service.server:RSPServer", "run_maintenance"),
    Target("service.query", "repro.service.server:RSPServer", "query"),
    Target("service.engine.plan", "repro.service.incremental:MaintenanceEngine", "plan"),
    Target("service.engine.execute", "repro.service.incremental:MaintenanceEngine", "execute"),
    Target("ingest.ingest_all", "repro.ingest", "ingest_all"),
    Target("durability.sync_to_disk", "repro.durability.journal:DurableJournal", "sync_to_disk"),
    Target("durability.take_snapshot", "repro.durability.journal:DurableJournal", "take_snapshot"),
    Target("durability.recover_server", "repro.durability.recovery", "recover_server"),
    Target("scale.run_maintenance", "repro.scale.server:ShardedRSPServer", "run_maintenance"),
    Target("scale.build_frame", "repro.scale.shard", "build_frame"),
    Target("scale.collect_pools", "repro.scale.shard", "collect_pools"),
    Target("scale.judge_frame", "repro.scale.parallel", "judge_frame"),
    Target("scale.build_gather", "repro.scale.server", "build_gather"),
    Target("scale.summarize_partition_frame", "repro.scale.parallel", "summarize_partition_frame"),
    Target("reshard.perform", "repro.reshard", "perform"),
    Target("serve.cache_get", "repro.serve.cache:SummaryVersionCache", "get"),
    Target("serve.cache_invalidate", "repro.serve.cache:SummaryVersionCache", "invalidate"),
    Target("serve.respond", "repro.serve.engine:QueryEngine", "respond"),
    Target("serve.index_candidates", "repro.serve.index:SummaryIndex", "candidates"),
    Target("core.compare_entities", "repro.serve.engine", "compare_entities"),
)

#: Span names in first-seen order (the per-layer metric order).
LAYER_SPANS: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in LAYER_TARGETS))


class Tracer:
    """Installs span-recording wrappers on ``targets`` and removes them.

    Spans are ``(name, start, end, parent)`` tuples in call order, where
    ``parent`` is the index of the enclosing span or ``-1``.  Single-threaded
    by design: the benchmark runs every workload with ``workers=0``.
    """

    def __init__(self, targets: tuple[Target, ...]) -> None:
        self.targets = targets
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_all(self) -> None:
        for target in self.targets:
            owner = target.resolve_owner()
            if isinstance(owner, type):
                if target.attribute not in vars(owner):
                    raise AttributeError(
                        f"{target.owner} does not define {target.attribute!r} itself"
                    )
                original = vars(owner)[target.attribute]
            else:
                original = getattr(owner, target.attribute)
            if isinstance(original, (staticmethod, classmethod)) or not callable(original):
                raise TypeError(
                    f"{target.owner}.{target.attribute} is not a plain function"
                )
            self._saved.append((owner, target.attribute, original))
            setattr(owner, target.attribute, self._wrap(target.span, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def finished_spans(self) -> list[tuple[str, float, float, int]]:
        """Every span, once all of them have closed (parents index this list)."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("a traced call is still open")
        return list(self.spans)


def installed_wrappers(targets: tuple[Target, ...]) -> list[str]:
    """``owner.attribute`` of every target that currently holds a wrapper."""
    found = []
    for target in targets:
        current = getattr(target.resolve_owner(), target.attribute, None)
        if getattr(current, _MARK, None) is not None:
            found.append(f"{target.owner}.{target.attribute}")
    return found


def assert_untraced(targets: tuple[Target, ...] = LAYER_TARGETS) -> None:
    """Raise if any wrapper is still installed on ``targets``."""
    leftover = installed_wrappers(targets)
    if leftover:
        raise RuntimeError("tracer wrappers still installed: " + ", ".join(leftover))


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, call count).

    A span's self time is its duration minus the part of its interval that
    its direct children cover; children are clipped to the parent and
    overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + (end - start) - covered, calls + 1)
    return totals


def durations(spans, name: str) -> list[float]:
    """Inclusive durations of every span called ``name``, in call order."""
    return [end - start for span_name, start, end, _ in spans if span_name == name]
