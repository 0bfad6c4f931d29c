"""Outside-in tracing of the mtl_affinity package, one span per layer call.

The tracer replaces a function with a timing wrapper at the place where its
caller looks the name up (``experiment.train_mtl``, ``scores.spearman``,
the ``autodiff`` module attributes that ``models`` reaches through
``ad.backward``), so no line of the package changes. Spans are kept in
memory, one list per operation, and reduced to per-layer metrics when the
operation ends.

A target whose module or attribute is gone is recorded as absent, and every
metric that depends on it is reported as absent instead of as a number. So
is a target that still exists but that a workload meant to call it never
called: a function the code no longer uses would otherwise read as 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module of the caller, attribute looked up there, span name, kind).
# "span" times every call; "count" only counts calls, for names that are
# called too often to keep a span each (ModelCandidate construction).
TARGETS = (
    ("experiment", "train_stl", "models.train_stl", "span"),
    ("experiment", "train_mtl", "models.train_mtl", "span"),
    ("experiment", "train_injected", "models.train_injected", "span"),
    ("autodiff", "backward", "autodiff.backward", "span"),
    ("autodiff", "sgd_step", "autodiff.sgd_step", "span"),
    ("experiment", "input_attribution_similarity", "scores.ias", "span"),
    ("experiment", "rsa", "scores.rsa", "span"),
    ("experiment", "gradient_similarity", "scores.gs", "span"),
    ("experiment", "gradient_transference", "scores.gt", "span"),
    ("experiment", "label_injection", "scores.li", "span"),
    ("scores", "spearman", "stats.spearman", "span"),
    ("evaluation", "kendall_tau", "stats.kendall_tau", "span"),
    ("evaluation", "pearson", "stats.pearson", "span"),
    ("experiment", "evaluate", "evaluation.evaluate", "span"),
    ("paper_data", "evaluate", "evaluation.evaluate", "span"),
    ("experiment", "generate_latent_factor_suite", "tasks.generate", "span"),
    ("experiment", "_SeedRun.gain_matrix", "experiment.gain_matrix", "span"),
    ("experiment", "_emit_seed_files", "experiment.emit", "span"),
    ("grouping", "ModelCandidate", "grouping.candidates_built", "count"),
)

# Spans the benchmark opens itself around the calls it makes.
RUN_SPAN = "experiment.run_experiment"
TABLES_SPAN = "paper_data.check_tables"
OPTIMIZE_SPAN = "grouping.optimize."  # + instance name

FAMILIES = (("stl", "models.train_stl"), ("mtl", "models.train_mtl"),
            ("injected", "models.train_injected"))
SCORES = ("ias", "rsa", "gs", "gt", "li")
STATS = ("spearman", "kendall_tau", "pearson")
AUTODIFF = ("autodiff.backward", "autodiff.sgd_step")


def _describe(module: str, attr: str) -> str:
    return f"mtl_affinity.{module}.{attr}"


class Tracer:
    """Install wrappers, record spans of the current operation, restore."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}  # span name -> why it is absent
        self.installed: dict[str, str] = {}  # target -> span name
        self.target_calls: Counter = Counter()  # target -> calls over all operations
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, kind in targets:
            target = _describe(module_name, attr)
            try:
                owner = importlib.import_module(f"mtl_affinity.{module_name}")
            except ModuleNotFoundError:
                self.absent[name] = f"{target} not found"
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent[name] = f"{target} not found"
                continue
            wrapper = (self._span_wrapper if kind == "span" else self._count_wrapper)(
                original, name, target)
            setattr(owner, leaf, wrapper)
            self._undo.append((owner, leaf, original))
            self.installed[target] = name

    def restore(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _span_wrapper(self, fn, name: str, target: str):
        target_calls = self.target_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            target_calls[target] += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _count_wrapper(self, fn, name: str, target: str):
        target_calls, counts = self.target_calls, self.counts

        def counted(*args, **kwargs):
            target_calls[target] += 1
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def uncalled(self, names) -> dict[str, str]:
        """Span name -> why absent, for each of ``names`` installed but never called.

        A span name counts as called when any of its targets was.
        """
        called = {name for target, name in self.installed.items()
                  if self.target_calls[target]}
        return {name: f"{target} not called" for target, name in self.installed.items()
                if name in names and name not in called}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], Counter]:
        """The spans and counts of the finished operation; starts a new one."""
        spans, counts = self.spans, self.counts.copy()
        self.spans = []
        self.counts.clear()
        self._stack = []
        return spans, counts


def _metric_deps() -> dict[str, tuple[str, ...]]:
    """Per-layer metric name -> the wrapped span names it is computed from."""
    deps: dict[str, tuple[str, ...]] = {}
    for family, span in FAMILIES:
        deps[f"models.train_{family}_s"] = (span,)
        deps[f"models.train_{family}_self_s"] = (span, *AUTODIFF)
        deps[f"models.{family}_step_us"] = (span, "autodiff.sgd_step")
    deps["models.sgd_steps"] = ("autodiff.sgd_step",)
    deps["models.probe_backward_calls"] = ("models.train_mtl", *AUTODIFF)
    deps["models.unrequested_probe_backward_calls"] = deps["models.probe_backward_calls"]
    deps["autodiff.backward_calls"] = ("autodiff.backward",)
    deps["autodiff.backward_s"] = ("autodiff.backward",)
    deps["autodiff.sgd_step_s"] = ("autodiff.sgd_step",)
    for score in SCORES:
        deps[f"scores.{score}_s"] = (f"scores.{score}",)
    for stat in STATS:
        deps[f"stats.{stat}_s"] = (f"stats.{stat}",)
    deps["evaluation.evaluate_s"] = ("evaluation.evaluate",)
    deps["paper_data.check_tables_s"] = ()
    deps["grouping.candidates_built"] = ("grouping.candidates_built",)
    deps["tasks.generate_s"] = ("tasks.generate",)
    # Self time is the run span minus every direct child the tracer knows of.
    deps["experiment.self_s"] = tuple(
        name for _, _, name, kind in TARGETS
        if kind == "span" and not name.startswith(("autodiff.", "stats.")))
    return deps


METRIC_DEPS = _metric_deps()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _enclosing(spans: list[list], index: int, names: set[str]) -> str | None:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_metrics(spans: list[list], counts: Counter,
                  instances: tuple[str, ...]) -> dict[str, float]:
    """Per-layer totals of one operation, every metric in METRIC_DEPS present.

    ``instances`` names the grouping instances the operation solved, each
    giving a ``grouping.optimize_s.<instance>`` metric.
    """
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    family_spans = {span for _, span in FAMILIES}
    inside: Counter = Counter()  # (autodiff span, enclosing family) -> calls
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name, start, end, _ = span
        total[name] += end - start
        self_total[name] += own
        calls[name] += 1
        if name in AUTODIFF:
            inside[(name, _enclosing(spans, i, family_spans))] += 1

    out: dict[str, float] = {}
    for family, span in FAMILIES:
        steps = inside[("autodiff.sgd_step", span)]
        out[f"models.train_{family}_s"] = total[span]
        out[f"models.train_{family}_self_s"] = self_total[span]
        out[f"models.{family}_step_us"] = total[span] / steps * 1e6 if steps else 0.0
    out["models.sgd_steps"] = calls["autodiff.sgd_step"]
    out["models.probe_backward_calls"] = (inside[("autodiff.backward", "models.train_mtl")]
                                          - inside[("autodiff.sgd_step", "models.train_mtl")])
    out["autodiff.backward_calls"] = calls["autodiff.backward"]
    out["autodiff.backward_s"] = total["autodiff.backward"]
    out["autodiff.sgd_step_s"] = total["autodiff.sgd_step"]
    for score in SCORES:
        out[f"scores.{score}_s"] = total[f"scores.{score}"]
    for stat in STATS:
        out[f"stats.{stat}_s"] = total[f"stats.{stat}"]
    out["evaluation.evaluate_s"] = total["evaluation.evaluate"]
    out["paper_data.check_tables_s"] = total[TABLES_SPAN]
    for instance in instances:
        out[f"grouping.optimize_s.{instance}"] = total[OPTIMIZE_SPAN + instance]
    out["grouping.candidates_built"] = counts["grouping.candidates_built"]
    out["tasks.generate_s"] = total["tasks.generate"]
    out["experiment.self_s"] = self_total[RUN_SPAN]
    return out


def absent_metrics(absent: dict[str, str]) -> dict[str, str]:
    """Metric name -> the missing target that makes it unmeasurable."""
    out = {}
    for metric, deps in METRIC_DEPS.items():
        missing = [absent[d] for d in deps if d in absent]
        if missing:
            out[metric] = missing[0]
    return out
