"""Benchmark for ccgl: run one workload, check its outputs, print its metrics.

    python3 benchmark/run.py --workload desk|atlas|population --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ccgl is imported from ``src/``.
With ``--trace 0`` the workload's setup is timed several times and its body
is repeated, closed loop, until ``--seconds`` have passed; the end-to-end
metrics are medians. With ``--trace 1`` the body runs once plain and once
under the outside-in tracer, the two must give identical outputs, and the
per-layer metrics come from the traced run. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and a full result record are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# set-up is repeated at least SETUP_REPS times and for SETUP_MIN_S seconds
SETUP_REPS = 5
SETUP_MIN_S = 5.0
DEFAULT_SEED = 0
# reserved for confirming a claimed gain on inputs not used while writing it
HELD_OUT_SEED = 97


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
    }


def measure(workload, seed: int, seconds: float, work: Path, calls) -> tuple:
    """Untraced run: median set-up, then the body in a closed loop for ``seconds``."""
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = workload.setup(seed, work / "setup")
        setups.append(time.perf_counter() - t0)
    walls, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        outcomes.append(workload.run(inputs, work / f"rep{len(walls)}", calls))
        walls.append(time.perf_counter() - t0)
    problems = [p for o in outcomes for p in o.problems]
    if any(o.outputs != outcomes[0].outputs for o in outcomes[1:]):
        problems.append("repetitions on the same inputs gave different outputs")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        name: (statistics.median(o.extras[name][0] for o in outcomes), unit)
        for name, (_, unit) in outcomes[0].extras.items()
    }
    extras["repetitions"] = (len(walls), "count")
    return metrics, extras, problems


def traced(workload, seed: int, work: Path, calls, spans_path: Path) -> tuple:
    """One plain body and one traced set-up and body on identical inputs; per-layer metrics from the traced one."""
    from tracer import Tracer

    inputs = workload.setup(seed, work / "setup_plain")
    t0 = time.perf_counter()
    plain = workload.run(inputs, work / "plain", calls)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = workload.setup(seed, work / "setup_traced")
        t0 = time.perf_counter()
        with tracer.span("bench.body"):
            traced_run = workload.run(inputs, work / "traced", calls)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    problems = plain.problems + traced_run.problems + tracer.check_spans()
    if traced_run.outputs != plain.outputs:
        problems.append("traced run outputs differ from the untraced run")
    problems += [f"wrapper {name} recorded no call" for name in tracer.missing(workload.expected)]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (tracer.overhead(), "s")
    extras = {"untraced_wall_s": (plain_s, "s"), "traced_wall_s": (traced_s, "s")}
    extras["absent"] = (sorted(tracer.absent), "names")
    return metrics, extras, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming claims)",
    )
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ccgl" / "__init__.py").is_file():
        print(f"error: no ccgl sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Calls

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    calls = Calls()
    try:
        if args.trace:
            metrics, extras, problems = traced(workload, args.seed, work, calls, OUT / f"{tag}-spans.jsonl")
        else:
            metrics, extras, problems = measure(workload, args.seed, args.seconds, work, calls)
    except Exception as exc:  # a raising call fails the run but still reports it
        traceback.print_exc()
        metrics, extras, problems = {}, {}, [f"{type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()

    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "attempted": calls.attempted,
        "failed": min(calls.failed, calls.attempted),
        "fail_ratio": min(calls.failed, calls.attempted) / max(calls.attempted, 1),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in extras.items()},
        "environment": env,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extras, "fail_ratio": (record["fail_ratio"], "ratio")}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<40} {shown} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
