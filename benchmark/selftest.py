"""Self-tests of the benchmark's tracer.

    python3 benchmark/selftest.py

1. Self-time arithmetic: on a synthetic call tree and on every traced
   workload, no span has negative self time and children never exceed their
   parent; a tree that breaks the rule is caught.
2. Planned deletions: with the internals the counters read removed, the
   tracer installs, runs and reports those metrics as absent.
3. Exact counters repeat: two traced runs of every workload, at the default
   seed, give identical call counts, eigensolves, tape nodes and the FC
   rebuild ratio.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import ccgl.autodiff  # noqa: E402
import ccgl.spectral  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, Calls  # noqa: E402

EXACT = (
    "spectral.eigensolves",
    "spectral.normalized_laplacian_calls",
    "spectral.induced_laplacian_calls",
    "spectral.induced_cache_hit_ratio",
    "connectivity.build_fc_graph_calls",
    "encoder.embed_cohort_calls",
    "autodiff.backward_calls",
    "autodiff.tape_nodes",
    "population.knn_edges_calls",
    "pipeline.fc_rebuild_ratio",
)


def check_self_time() -> list:
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        leaf()
        leaf()
        time.sleep(0.001)

    def outer():
        inner()
        time.sleep(0.001)

    def hook(args, kwargs):
        time.sleep(0.001)

    outer, leaf = tracer.wrap("t.outer", outer), tracer.wrap("t.leaf", leaf)
    inner = tracer.wrap("t.inner", inner, hook)
    outer()
    problems = tracer.check_spans()
    names = [s.name for s in tracer.spans]
    if names != ["t.outer", "trace.hook", "t.inner", "t.leaf", "t.leaf"]:
        problems.append(f"unexpected span order {names}")
    own = tracer.self_times()
    if abs(sum(own) - tracer.spans[0].duration) > 1e-9:
        problems.append("self times do not add up to the root span")
    if abs(tracer.inclusive_times()[0] - (tracer.spans[0].duration - tracer.spans[1].duration)) > 1e-9:
        problems.append("hook time is not taken out of the inclusive time of the spans around it")

    broken = Tracer()
    broken.spans = [Span(0, "p", 0.0, 1.0, None, "r"), Span(1, "c", 0.5, 1.5, 0, "r")]
    if not broken.check_spans():
        problems.append("a child that outlives its parent was not reported")
    return problems


def check_planned_deletions() -> list:
    problems = []
    saved = [(mod, name, getattr(mod, name)) for mod, name in ((ccgl.spectral, "_power_iteration"), (ccgl.autodiff, "Tape"))]
    for mod, name, _ in saved:
        delattr(mod, name)
    try:
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        tracer._count_cache((object(),), {})
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
    reported = tracer.layer_metrics()
    for metric in ("spectral.eigensolves", "autodiff.tape_nodes", "spectral.induced_cache_hit_ratio"):
        if metric in reported or metric not in tracer.absent:
            problems.append(f"{metric} should be absent once its internal is gone")
    return problems


def check_repeat(name: str) -> list:
    workload = WORKLOADS[name]
    counters = []
    for attempt in range(2):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            metrics, _, problems = run.traced(workload, run.DEFAULT_SEED, Path(tmp), Calls(), Path(tmp) / "spans.jsonl")
        if problems:
            return [f"{name}: {p}" for p in problems]
        counters.append({k: metrics[k][0] for k in EXACT if k in metrics})
        print(f"  {name} run {attempt + 1}: " + ", ".join(f"{k}={v}" for k, v in counters[-1].items()))
    return [f"{name}: {k} differs ({counters[0][k]} vs {counters[1].get(k)})" for k in counters[0] if counters[0][k] != counters[1].get(k)]


def main() -> int:
    run.OUT.mkdir(exist_ok=True)

    failures = []
    for label, check in (("self-time arithmetic", check_self_time), ("planned deletions", check_planned_deletions)):
        problems = check()
        print(f"{label}: {'ok' if not problems else 'FAILED'}")
        failures += problems
    for name in WORKLOADS:
        problems = check_repeat(name)
        print(f"exact counters repeat on {name}: {'ok' if not problems else 'FAILED'}")
        failures += problems
    for problem in failures:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
