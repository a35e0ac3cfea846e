"""Closed-loop benchmark of the hartogs CLI and library.

Run from the root of a checkout:

    python3 bench/run.py --workload suite --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

One client in one process runs a workload's ops back to back, each op
starting when the previous one has ended, for ``--seconds`` seconds (and
at least ``MIN_OPS`` ops).  Every op gets fresh inputs derived from
``--seed`` and has its outputs checked outside the timed interval.  The
last line on stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the run's details and environment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics, measured by
:mod:`tracer` from outside the package.  ``--smoke`` runs every workload
at a tiny size, untraced and twice traced with one seed, and checks that
every metric named in ``BENCHMARK.json`` is emitted and that the counts
repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checkout

SETUP_REPEATS = 3   # fresh interpreters per run; setup_s is their median
MIN_OPS = 11        # so that ten timed ops lie beyond the tail percentile
COUNT_OPS = 4       # count metrics are per-op means over the first traced ops

# The median and the throughput are printed in the details line only: on a
# host whose speed for interpreter-bound code switches between two levels
# every few tens of seconds, they land in either level, while the tail sits
# in the slower one and stays steady from run to run.
END_TO_END = {"op_tail_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER = {
    "profiles.deriv.calls": "count", "profiles.deriv.points": "count",
    "profiles.deriv.repeat_ratio": "ratio", "profiles.self_s": "s",
    "jets.derivatives.calls": "count", "jets.derivatives.points": "count", "jets.self_s": "s",
    "sampling.interior_points.calls": "count", "sampling.interior_points.repeat_ratio": "ratio",
    "sampling.self_s": "s",
    "geometry.calls": "count", "geometry.points": "count", "geometry.self_s": "s",
    "geometry.wirtinger_hessian.calls": "count", "geometry.wirtinger_hessian.self_s": "s",
    "curvature.calls": "count", "curvature.self_s": "s",
    "curvature.ricci_numeric.calls": "count", "curvature.curvature_record.calls": "count",
    "extremal.dbar_jacobian.calls": "count", "extremal.dbar_jacobian.points": "count",
    "extremal.hamiltonian_field.self_s": "s", "extremal.self_s": "s",
    "pseudoconvexity.boundary_point.calls": "count",
    "pseudoconvexity.restricted_levi.calls": "count", "pseudoconvexity.self_s": "s",
    "classification.classify.calls": "count", "classification.self_s": "s",
    "config.load_config.self_s": "s", "cli.run.self_s": "s", "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    **{f"{layer}.failed": "count" for layer in (
        "cli", "config", "classification", "pseudoconvexity", "extremal",
        "curvature", "geometry", "sampling", "profiles", "jets")},
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "thread_caps": {var: os.environ[var] for var in checkout.THREAD_CAPS},
    }


def measure_setup(name: str) -> tuple[float | None, str]:
    """Median wall time of fresh interpreters that import and set up ``name``."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(probe), name], capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return None, f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return statistics.median(times), ""


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    ordered = sorted(durations)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


@dataclass(frozen=True)
class Op:
    index: int
    traced: bool
    seconds: float
    ok: bool
    report_bytes: int
    layers: dict | None     # the tracer's per-op summary, for traced ops


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, details)."""
    import workloads
    from tracer import Tracer

    setup_s, setup_problem = (None, "") if trace else measure_setup(wl.name)
    wl.setup()
    tracer = Tracer() if trace else None
    problems = [setup_problem] if setup_problem else []

    def one(index: int, traced: bool):
        inp = wl.prepare(workloads.op_seed(seed, index))
        gc.collect()                            # every op starts from a collected heap
        if traced:
            tracer.install(index)
        t0 = time.perf_counter()
        try:
            raw, error = wl.run(inp), None
        except Exception as exc:        # a failed op is recorded, the loop goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        layers = tracer.uninstall() if traced else None
        outcome = wl.check(inp, raw) if error is None else workloads.Outcome(False, error)
        if not outcome.ok:
            problems.append(f"op {index}: {outcome.problem}")
        return Op(index, traced, elapsed, outcome.ok, outcome.report_bytes, layers), outcome.report

    one(0, False)                               # warm-up, untimed
    ops: list[Op] = []
    ref_report = None                           # report of the first op of the measured kind
    start = time.perf_counter()
    while True:
        index = len(ops) + 1
        op, report = one(index, trace and index % 2 == 0)
        ops.append(op)
        if ref_report is None and op.traced == trace:
            ref, ref_report = op, report
        enough = (sum(o.traced for o in ops) >= COUNT_OPS if trace
                  else len(ops) >= MIN_OPS)
        if enough and time.perf_counter() - start >= seconds:
            break

    # untimed re-run of one op's config: the report must be byte-identical
    # (in a traced run the first traced op is re-run untraced)
    _, again = one(ref.index, False)
    if ref.ok and again != ref_report:
        problems.append(f"op {ref.index}: re-run report differs from the timed op's")

    failed = sum(not o.ok for o in ops)
    result = {"correct": not problems, "attempted": len(ops), "failed": failed}
    details = {"workload": wl.name, "seed": seed, "trace": int(trace), "ops": len(ops),
               "op_seed": f"grid.seed = {workloads.SEED_STRIDE} * seed + op index",
               "problems": problems[:10], "environment": environment()}
    # a failed op counts as missing any latency limit
    times = [o.seconds if o.ok else float("inf") for o in ops if not o.traced]
    if trace:
        result["metrics"], more = layer_metrics(ops, statistics.median(times))
        details.update(more)
        tracer.write(workloads.OUT_DIR / f"trace-{wl.name}-seed{seed}.npz")
    else:
        tail_s, tail_pct = tail(times)
        ok_time = sum(o.seconds for o in ops if o.ok)
        values = {
            "op_tail_s": tail_s,
            "ok_ratio": (len(ops) - failed) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s if setup_s is not None else float("inf"),
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        details.update({
            "op_p50_s": statistics.median(times),
            "points_per_s": wl.stated_points * (len(ops) - failed) / ok_time if ok_time else 0.0,
            "tail_percentile": tail_pct, "samples": len(times),
            "op_seconds": [round(o.seconds, 6) for o in ops],
            "stated_points_per_op": wl.stated_points, "setup_repeats": SETUP_REPEATS})
    return result, details


def layer_metrics(ops: list[Op], untraced_p50: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops of a run.

    Counts are per-op means over the first ``COUNT_OPS`` traced ops, whose
    inputs depend only on the seed, so they repeat exactly; self times are
    medians over every traced op.
    """
    traced = [o for o in ops if o.traced]
    counted = traced[:COUNT_OPS]

    def total(key):
        return sum(o.layers[key] for o in counted)

    values = {}
    for name in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = statistics.median(o.layers[name] for o in traced)
        elif stat == "repeat_ratio":
            calls = total(f"{prefix}.calls")
            values[name] = total(f"{prefix}.repeats") / calls if calls else 0.0
        elif name == "cli.report_bytes":
            values[name] = sum(o.report_bytes for o in counted) / len(counted)
        elif name == "trace.overhead_ratio":
            traced_p50 = statistics.median(o.seconds if o.ok else float("inf") for o in traced)
            values[name] = traced_p50 / untraced_p50 - 1.0
        else:
            values[name] = total(name) / len(counted)
    metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    return metrics, {"traced_ops": len(traced), "count_ops": len(counted)}


def smoke() -> int:
    """Every workload once at tiny size, untraced and twice traced; check the metric set."""
    import workloads

    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    errors: list[str] = []
    for name in workloads.NAMES:
        before = len(errors)
        runs = [run_workload(workloads.make(name, tiny=True), 1, 0.0, trace)
                for trace in (False, True, True)]
        for (result, details), trace in zip(runs, (0, 1, 1)):
            if not result["correct"] or result["failed"]:
                errors.append(f"{name}: trace {trace} run not correct: {details['problems']}")
            missing = wanted[trace] - set(result["metrics"])
            if missing:
                errors.append(f"{name}: trace {trace} lacks {sorted(missing)}")
        first, second = (r["metrics"] for r, _ in runs[1:])
        for key in first:
            if key.endswith((".calls", ".points", ".repeat_ratio")) and \
                    first[key]["value"] != second[key]["value"]:
                errors.append(f"{name}: {key} differs between traced runs of one seed")
        print(f"smoke {name}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: FAILED" if errors else "smoke: ok")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("suite", "curvature", "jet-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload and metric at a tiny size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    checkout.prepare()
    if args.smoke:
        return smoke()
    import workloads

    result, details = run_workload(workloads.make(args.workload), args.seed,
                                   args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
