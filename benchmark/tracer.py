"""Outside-in span tracer for the ccgl benchmark.

The tracer wraps public functions of each ccgl module from outside the
package: every module namespace that binds the original function object
gets the same wrapper, so name imports (``from .spectral import
induced_laplacian``) and function-local imports are covered alike. Spans
stay in memory and are written out once, when the traced run ends.

A few exact counters read program internals (the power-iteration solver,
the induced-Laplacian cache, the autodiff tape). The roadmap plans to delete
some of them; when one is gone, the metric that depends on it is reported
as absent, never as zero.

The tracer's own bookkeeping runs in ``trace.hook`` spans. Reported times,
inclusive and self, leave hook time out; only the per-span cost of the
wrappers themselves stays in, and ``overhead`` estimates it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
import uuid
from dataclasses import dataclass

# public functions wrapped with a span, per layer (ccgl module)
PUBLIC = {
    "cohort": ("synth_cohort", "split_cohort"),
    "connectivity": ("build_fc_graph", "pearson_matrix", "partial_corr_matrix"),
    "spectral": ("normalized_laplacian", "induced_laplacian"),
    "encoder": ("prepare_views", "embed_cohort", "train_cgl"),
    "autodiff": ("backward", "adam_step"),
    "population": ("population_from_embeddings", "train_dgc", "dgc_forward", "knn_edges"),
    "metrics": ("auc", "confusion_metrics", "knn_baseline", "attraction_stats", "export_population_graph"),
    "pipeline": ("stage_data", "stage_train_cgl", "stage_train_dgc", "stage_evaluate", "stage_export"),
}

# internals wrapped only while they exist, with the metric that counts them;
# the induced-Laplacian cache and the autodiff tape are read by hooks below
OPTIONAL = {("spectral", "_power_iteration"): "spectral.eigensolves"}

# (metric, unit) in report order; names are <layer>.<metric>
LAYER_METRICS = (
    ("spectral.normalized_laplacian_s", "s"),
    ("spectral.normalized_laplacian_calls", "count"),
    ("spectral.induced_laplacian_s", "s"),
    ("spectral.induced_laplacian_calls", "count"),
    ("spectral.eigensolves", "count"),
    ("spectral.induced_cache_hit_ratio", "ratio"),
    ("connectivity.build_fc_graph_s", "s"),
    ("connectivity.build_fc_graph_calls", "count"),
    ("connectivity.pearson_s", "s"),
    ("connectivity.partial_corr_s", "s"),
    ("connectivity.self_s", "s"),
    ("encoder.prepare_views_s", "s"),
    ("encoder.self_s", "s"),
    ("encoder.embed_cohort_calls", "count"),
    ("autodiff.backward_s", "s"),
    ("autodiff.backward_calls", "count"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.adam_step_s", "s"),
    ("population.knn_edges_s", "s"),
    ("population.knn_edges_calls", "count"),
    ("population.dgc_forward_s", "s"),
    ("population.self_s", "s"),
    ("metrics.auc_s", "s"),
    ("metrics.knn_baseline_s", "s"),
    ("metrics.export_s", "s"),
    ("metrics.attraction_stats_s", "s"),
    ("pipeline.stage_data_s", "s"),
    ("pipeline.stage_train_cgl_s", "s"),
    ("pipeline.stage_train_dgc_s", "s"),
    ("pipeline.stage_evaluate_s", "s"),
    ("pipeline.stage_export_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.fc_rebuild_ratio", "ratio"),
    ("cohort.synth_cohort_s", "s"),
    ("cohort.split_cohort_s", "s"),
)

# layer metric name -> span whose inclusive time or call count it reports
_SPAN_TIMES = {
    "spectral.normalized_laplacian_s": "spectral.normalized_laplacian",
    "spectral.induced_laplacian_s": "spectral.induced_laplacian",
    "connectivity.build_fc_graph_s": "connectivity.build_fc_graph",
    "connectivity.pearson_s": "connectivity.pearson_matrix",
    "connectivity.partial_corr_s": "connectivity.partial_corr_matrix",
    "encoder.prepare_views_s": "encoder.prepare_views",
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.adam_step_s": "autodiff.adam_step",
    "population.knn_edges_s": "population.knn_edges",
    "population.dgc_forward_s": "population.dgc_forward",
    "metrics.auc_s": "metrics.auc",
    "metrics.knn_baseline_s": "metrics.knn_baseline",
    "metrics.export_s": "metrics.export_population_graph",
    "metrics.attraction_stats_s": "metrics.attraction_stats",
    "pipeline.stage_data_s": "pipeline.stage_data",
    "pipeline.stage_train_cgl_s": "pipeline.stage_train_cgl",
    "pipeline.stage_train_dgc_s": "pipeline.stage_train_dgc",
    "pipeline.stage_evaluate_s": "pipeline.stage_evaluate",
    "pipeline.stage_export_s": "pipeline.stage_export",
    "cohort.synth_cohort_s": "cohort.synth_cohort",
    "cohort.split_cohort_s": "cohort.split_cohort",
}
_SPAN_CALLS = {
    "spectral.normalized_laplacian_calls": "spectral.normalized_laplacian",
    "spectral.induced_laplacian_calls": "spectral.induced_laplacian",
    "spectral.eigensolves": "spectral._power_iteration",
    "connectivity.build_fc_graph_calls": "connectivity.build_fc_graph",
    "encoder.embed_cohort_calls": "encoder.embed_cohort",
    "autodiff.backward_calls": "autodiff.backward",
    "population.knn_edges_calls": "population.knn_edges",
}
# <layer>.self_s sums the self time of these spans: the layer's own work
# once its separately reported leaves (pearson, partial_corr, knn_edges)
# and every other layer are taken out
_SELF_SPANS = {
    "connectivity": ("connectivity.build_fc_graph",),
    "encoder": ("encoder.prepare_views", "encoder.embed_cohort", "encoder.train_cgl"),
    "population": ("population.population_from_embeddings", "population.train_dgc", "population.dgc_forward"),
    "pipeline": tuple(f"pipeline.{name}" for name in PUBLIC["pipeline"]),
}

# the tracer's own bookkeeping runs in spans of this name, so it never
# counts toward a layer's self time
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list = []
        self._open: list = []
        self._patched: list = []  # (module, attribute, original)
        self.installed: set = set()
        self.absent: set = set()
        self.distinct_views: set = set()
        self.tape_nodes: list = []
        self.cache_hits = 0
        self.cache_lookups = 0

    # -- spans ---------------------------------------------------------------

    def _start(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._start(name)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, name: str, fn, hook=None):
        """Wrap fn in a span; ``hook(args, kwargs)`` may return an after(result) callback."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                with self.span(HOOK_SPAN):
                    after = hook(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(HOOK_SPAN):
                    after(result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in each ccgl namespace that binds it."""
        self._install_tape_counter()
        for layer, names in PUBLIC.items():
            for attr in names:
                self._install_one(layer, attr, required=True)
        for (layer, attr), metric in OPTIONAL.items():
            if not self._install_one(layer, attr, required=False):
                self.absent.add(metric)

    def _install_one(self, layer: str, attr: str, required: bool) -> bool:
        module = importlib.import_module(f"ccgl.{layer}")
        original = getattr(module, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"ccgl.{layer} has no public function {attr!r} to trace")
            return False
        wrapper = self.wrap(f"{layer}.{attr}", original, self._hook_for(f"{layer}.{attr}"))
        self.installed.add(f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ccgl" or name.startswith("ccgl.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))
        return True

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- hooks feeding the exact counters ------------------------------------

    def _hook_for(self, name: str):
        return {
            "connectivity.build_fc_graph": self._count_view,
            "spectral.induced_laplacian": self._count_cache,
        }.get(name)

    def _count_view(self, args, kwargs):
        view = args[0] if args else kwargs["view"]
        pcd = args[1] if len(args) > 1 else kwargs["pcd"]
        digest = hashlib.blake2b(view.values.tobytes(), digest_size=16)
        digest.update(bytes(memoryview(pcd.astype("float64"))))
        self.distinct_views.add(digest.digest())
        return None

    def _count_cache(self, args, kwargs):
        lap = args[0] if args else kwargs["lap"]
        cache = getattr(lap, "_induced_cache", None)
        if cache is None:
            self.absent.add("spectral.induced_cache_hit_ratio")
            return None
        before = len(cache)

        def after(_result):
            self.cache_lookups += 1
            self.cache_hits += len(cache) == before

        return after

    def _install_tape_counter(self) -> None:
        """Record the node count of every tape backward builds, without a second traversal."""
        tape = getattr(importlib.import_module("ccgl.autodiff"), "Tape", None)
        trace = getattr(tape, "trace", None)
        if trace is None:
            self.absent.add("autodiff.tape_nodes")
            return

        def counted(root):
            result = trace(root)
            self.tape_nodes.append(len(result.nodes))
            return result

        self._patched.append((tape, "trace", inspect.getattr_static(tape, "trace")))
        tape.trace = staticmethod(counted)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def inclusive_times(self) -> list:
        """Per-span duration less the trace.hook spans nested anywhere below it."""
        net = [s.duration for s in self.spans]
        for s in self.spans:
            if s.name == HOOK_SPAN:
                parent = s.parent
                while parent is not None:
                    net[parent] -= s.duration
                    parent = self.spans[parent].parent
        return net

    def self_times(self) -> list:
        """Per-span self time: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def check_spans(self, tolerance: float = 1e-6) -> list:
        """Self-time arithmetic: children sit inside their parent and never exceed it."""
        problems = []
        if self._open:
            problems.append(f"{len(self._open)} spans still open")
        for s, own in zip(self.spans, self.self_times()):
            if own < -tolerance:
                problems.append(f"span {s.id} {s.name}: negative self time {own:.3g} s")
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start - tolerance or s.end > p.end + tolerance:
                    problems.append(f"span {s.id} {s.name} lies outside its parent {p.name}")
        return problems

    def layer_metrics(self) -> dict:
        """Every layer metric as {name: (value, unit)}; absent internals are left out."""
        own = self.self_times()
        layer_self = {
            layer: sum(t for s, t in zip(self.spans, own) if s.name in names) for layer, names in _SELF_SPANS.items()
        }
        views = self.calls("connectivity.build_fc_graph")
        inclusive = {}
        for s, t in zip(self.spans, self.inclusive_times()):
            inclusive[s.name] = inclusive.get(s.name, 0.0) + t
        values = {name: inclusive.get(span, 0.0) for name, span in _SPAN_TIMES.items()}
        values.update({name: self.calls(span) for name, span in _SPAN_CALLS.items()})
        values.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
        values["spectral.induced_cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
        )
        values["autodiff.tape_nodes"] = max(self.tape_nodes, default=0)
        values["pipeline.fc_rebuild_ratio"] = views / len(self.distinct_views) if views else 0.0
        return {name: (values[name], unit) for name, unit in LAYER_METRICS if name not in self.absent}

    def overhead(self) -> float:
        """Estimated time tracing added: hook work plus the per-span cost for every span recorded."""
        hooks = sum(s.duration for s in self.spans if s.name == HOOK_SPAN)
        return hooks + len(self.spans) * span_cost()

    def missing(self, expected) -> list:
        """Expected wrappers that recorded no call; internals that are gone are not expected."""
        return [name for name in expected if name in self.installed and self.calls(name) == 0]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
                    )
                    + "\n"
                )


def span_cost(calls: int = 10000, batches: int = 5) -> float:
    """Seconds one span adds: a wrapped no-op against the bare no-op, median over batches."""

    def noop():
        return None

    wrapped = Tracer().wrap("trace.calibrate", noop)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - t0 - bare) / calls)
    return statistics.median(costs)
