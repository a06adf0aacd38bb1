#!/usr/bin/env python3
"""mhdlab benchmark: one workload, one seed, tracing off or on.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): blowup-refine, mms-ladder, geometry-presets.

A closed loop: one process and one thread run the workload's passes back to
back until the time budget is spent (at least one pass). The program is
driven only through its public API, the way ``mhdlab run --out`` and
``mhdlab mms`` drive it, and every pass's outputs go through the gate in
checks.py and must hash the same as the first pass's.

--trace 0 reports the end-to-end metrics: wall time of a pass with the
machine's contention filtered out (see best_of_passes and end_to_end),
steps, microseconds per node-step, set-up time (median over fresh
interpreters), and peak resident memory. --trace 1 alternates untraced and
traced passes and reports per-layer metrics from the spans, the tracing
overhead, and kernel micro-timings. The workload's accuracy figures (failure
share, ledger residuals, blow-up time change under refinement, MMS order and
error) are printed as report lines and written with the stamp, the generated
parameters and the output hashes to .perfbench_work/BENCH_*.json. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool; must happen before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MICRO_SIZES = (128, 4096)
MICRO_REPEAT = 200


def _import_program():
    """Import mhdlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "mhdlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mhdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mhdlab
    if Path(mhdlab.__file__).resolve().parent != SRC / "mhdlab":
        sys.exit(f"perfbench: imported mhdlab from {mhdlab.__file__}, "
                 f"not from {SRC}")


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from mhdlab import _kernels, harness  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import CHUNK_NOMINAL_S, reference_loop  # noqa: E402


@dataclass
class PassResult:
    wall: float
    steps: int
    node_steps: int
    attempted: int = 0
    problems: list = field(default_factory=list)   # one entry per failed unit
    hashes: list = field(default_factory=list)
    runs: list = field(default_factory=list)        # per-run report dicts
    rows: list = field(default_factory=list)        # MMS convergence rows
    intervals: list = field(default_factory=list)   # between step starts


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(wl, tracer, out_dir, root=None):
    """One pass over the workload; outputs are checked after the clock stops."""
    shutil.rmtree(out_dir, ignore_errors=True)
    steps0, nodes0 = tracer.calls["solver.step"], tracer.work["solver.step"]
    errors = {}
    run_steps = []
    rows = None
    m0 = len(tracer.marks)
    t0 = time.perf_counter()
    with root or contextlib.nullcontext():
        if wl.mms_n:
            tracer.run_id += 1
            try:
                cfg = workloads.load_config(wl.mms_preset, wl.mms_overrides)
                rows = harness.convergence_study(cfg, wl.mms_n)
            except Exception as exc:  # a raising ladder fails every rung
                errors[0] = f"raised {type(exc).__name__}: {exc}"
        else:
            for i, spec in enumerate(wl.runs):
                tracer.run_id += 1
                before = tracer.calls["solver.step"]
                try:
                    cfg = workloads.load_config(spec.preset, spec.overrides)
                    harness.run(cfg, out_dir=str(out_dir / str(i)))
                except Exception as exc:  # counted as a failed run
                    errors[i] = f"raised {type(exc).__name__}: {exc}"
                run_steps.append(tracer.calls["solver.step"] - before)
    t1 = time.perf_counter()

    edges = [t0, *tracer.marks[m0:], t1]
    res = PassResult(wall=t1 - t0, steps=tracer.calls["solver.step"] - steps0,
                     node_steps=tracer.work["solver.step"] - nodes0,
                     intervals=[b - a for a, b in zip(edges, edges[1:])])
    if wl.mms_n:
        _collect_ladder(wl, rows, errors, res)
    else:
        _collect_runs(wl, out_dir, errors, run_steps, res)
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def _collect_runs(wl, out_dir, errors, run_steps, res):
    docs = []
    for i, spec in enumerate(wl.runs):
        res.attempted += 1
        run_dir = out_dir / str(i)
        label = f"{spec.preset} N={spec.n}"
        if i in errors:
            res.problems.append(f"{label}: {errors[i]}")
            res.hashes.append(None)
            docs.append({})
            continue
        doc = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
        docs.append(doc)
        hashes = {"run.csv": _sha256(run_dir / "run.csv"),
                  "run.json": _sha256(run_dir / "run.json")}
        res.hashes.append(hashes)
        problems = checks.check_run(spec, doc)
        if problems:
            res.problems.append(f"{label}: " + "; ".join(problems))
        res.runs.append({
            "preset": spec.preset, "n": spec.n, "overrides": list(spec.overrides),
            "expect": spec.expect, "status": doc.get("status"),
            "T_detected": doc.get("T_detected"), "T_bound": doc.get("T_bound"),
            "residuals": doc.get("residuals"),
            "max_stress_residual_rel": doc.get("max_stress_residual_rel"),
            "steps": run_steps[i], "sha256": hashes, "problems": problems,
        })
    if wl.refinement and not errors:
        # the study as a whole is one more attempted unit
        res.attempted += 1
        res.problems.extend(checks.check_refinement(docs))


def _collect_ladder(wl, rows, errors, res):
    res.attempted += len(wl.mms_n)
    if rows is None:
        res.problems.extend(f"N={n}: {errors[0]}" for n in wl.mms_n)
        return
    table = harness.format_convergence_table(rows)
    res.hashes.append({"convergence_table": hashlib.sha256(
        table.encode("utf-8")).hexdigest()})
    res.rows = rows
    for row, problems in zip(rows, checks.check_ladder(rows)):
        if problems:
            res.problems.append("; ".join(problems))
        res.runs.append({"n": row.n, "errors": row.errors, "orders": row.orders,
                         "problems": problems})


# ---------------------------------------------------------------------------
# Set-up time, kernel micro-timings, stamp
# ---------------------------------------------------------------------------

def measure_setup(wl):
    """Median seconds for a fresh interpreter to reach the first step.

    Each probe also times the reference loop right after its set-up, and its
    set-up time is scaled by the loop's median chunk time, so that the
    machine's speed during the probe does not show as a change of set-up
    cost. Returns the median and every probe's (raw, scaled) pair.
    """
    arg = json.dumps([[p, list(o)] for p, o in wl.configs()])
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), arg],
            capture_output=True, text=True, timeout=120, check=True)
        raw, chunk = map(float, out.stdout.split()[-2:])
        probes.append((raw, raw * CHUNK_NOMINAL_S / chunk))
    return statistics.median(s for _, s in probes), probes


def kernel_micro():
    """Per-node/per-row kernel times at a small and a large N, plus bytes
    moved per call, computed from the sizes of the arrays passed in and out
    (cache misses and temporaries are not counted)."""
    spec = importlib.util.spec_from_file_location(
        "bench_backends", ROOT / "benchmarks" / "bench_backends.py")
    bb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bb)
    k = _kernels
    out = {}
    for n in MICRO_SIZES:
        r, rho, u, v, w, P, B, rho_star, lf, up = bb.make_inputs(n)
        dr = 1.0 / n
        rng = np.random.default_rng(1)
        sub, sup = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag, rhs = rng.uniform(4.0, 6.0, n), rng.standard_normal(n)
        t_disk = bb.bench(lambda: k.disk_tendency(
            r, dr, rho, u, P, B, rho_star, 0.7, 1.4, True, lf, up), MICRO_REPEAT)
        t_cyl = bb.bench(lambda: k.cylinder_tendency(
            r, dr, rho, u, v, w, P, B, rho_star, 0.7, 0.3, 1.4, True, lf, up),
            MICRO_REPEAT)
        t_tri = bb.bench(lambda: k.thomas(sub, diag, sup, rhs), MICRO_REPEAT)
        nodes = n + 1
        pre = "kernels.micro."
        out[f"{pre}disk_tendency.ns_per_node.n{n}"] = (t_disk * 1e9 / nodes, "ns")
        out[f"{pre}cylinder_tendency.ns_per_node.n{n}"] = (t_cyl * 1e9 / nodes, "ns")
        out[f"{pre}thomas.ns_per_row.n{n}"] = (t_tri * 1e9 / n, "ns")
        # float64 node arrays in + out, float64 and uint8 face arrays in
        out[f"{pre}disk_tendency.bytes_computed.n{n}"] = (
            8 * (6 + 4) * nodes + 9 * n, "B")
        out[f"{pre}cylinder_tendency.bytes_computed.n{n}"] = (
            8 * (8 + 6) * nodes + 9 * n, "B")
        out[f"{pre}thomas.bytes_computed.n{n}"] = (8 * (2 * (n - 1) + 3 * n), "B")
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def stamp():
    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy_report(wl, passes):
    """Report-only figures: failure share, plain median pass time, and the
    accuracy figures of the first pass (outputs repeat across passes)."""
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    out = {"fail_frac": (failed / attempted, "1"),
           "wall_median_s": (statistics.median(p.wall for p in passes), "s")}
    if wl.mms_n:
        orders = [o for row in first.rows if row.orders for o in row.orders.values()]
        out["mms_order_min"] = (min(orders) if orders else None, "1")
        out["mms_err_max"] = (max(first.rows[-1].errors.values())
                              if first.rows else None, "1")
        return out
    res = [r["residuals"] or {} for r in first.runs]
    flux = [r["flux"] for r in res if r.get("flux") is not None]
    energy = [r["energy"] for r in res if r.get("energy") is not None]
    out["flux_residual_max"] = (max(flux) if flux else None, "1")
    out["energy_residual_max"] = (max(energy) if energy else None, "1")
    if wl.refinement and len(first.runs) == len(wl.runs):
        t_coarse, t_fine = (first.runs[-2]["T_detected"],
                            first.runs[-1]["T_detected"])
        if t_coarse is not None and t_fine:
            out["T_grid_change"] = (abs(t_fine - t_coarse) / t_fine, "1")
    return out


def best_of(series):
    """Sum over positions of the fastest series' time at that position."""
    return sum(min(col) for col in zip(*series))


def best_of_passes(passes):
    """A pass's wall time with the machine's contention filtered out.

    Passes repeat the same work step for step, so the time from one step's
    start to the next is comparable across passes; the sum over steps of the
    fastest pass's time keeps the cost of the work and drops most of the
    stalls that other tenants of the machine cause.
    """
    return best_of([p.intervals for p in passes])


def end_to_end(passes, setup, ref):
    # On a shared host even the filtered time drifts by up to 45% between
    # runs, as the share of fast moments the passes catch changes. The
    # reference loop, timed after every pass and filtered the same way,
    # measures that drift; scaling by it removes most of it.
    nominal = CHUNK_NOMINAL_S * len(ref[0])
    wall = best_of_passes(passes) * nominal / best_of(ref)
    first = passes[0]
    return {
        "wall_s": (wall, "s"),
        "us_per_node_step": (wall * 1e6 / max(first.node_steps, 1), "us"),
        "steps": (first.steps, "count"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the spans and counters of the traced passes."""
    steps = sum(p.steps for p in traced)
    npass = len(traced)
    self_t = tracer.self_times()
    roots = tracer.durations(tracing.ROOT)
    root_total = sum(roots)
    out = {}
    for name, timed in tracing.layer_names().items():
        out[f"{name}.calls_per_step"] = (tracer.calls[name] / steps, "1/step")
        if timed:
            out[f"{name}.self_s"] = (self_t[name] / npass, "s")
            out[f"{name}.share"] = (self_t[name] / root_total, "1")
    step_ms = [d * 1e3 for d in tracer.durations("solver.step")]
    q = statistics.quantiles(step_ms, n=100) if len(step_ms) > 1 else [0.0] * 99
    work = tracer.work
    out.update({
        "harness.emit.bytes": (work["harness.emit"] / npass, "B"),
        "solver.step.ms_p50": (q[49], "ms"),
        "solver.step.ms_p99": (q[98], "ms"),
        "solver.step.samples": (len(step_ms), "count"),
        "solver.apply_vacuum_balance.solves_per_step": (
            work["solver.apply_vacuum_balance"] / steps, "1/step"),
        "kernels.tendency.ns_per_node": (
            self_t["kernels.tendency"] * 1e9 / max(work["kernels.tendency"], 1),
            "ns"),
        "kernels.thomas.rows_per_step": (work["kernels.thomas"] / steps, "1/step"),
        "trace_overhead": (statistics.median(p.wall for p in traced)
                           / statistics.median(p.wall for p in untraced) - 1.0,
                           "1"),
    })
    # every span's self time lands in exactly one name, so they add up to the
    # traced wall time; anything else means the tracer lost or split a span
    span_sum = sum(self_t.values())
    consistent = abs(span_sum - root_total) <= 1e-9 * max(root_total, 1e-9)
    return out, {"self_time_sum_s": span_sum, "root_total_s": root_total,
                 "root_self_s": self_t[tracing.ROOT], "consistent": consistent}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    declared = _declared_metrics(args.trace)

    wl = workloads.make_workload(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    out_dir = WORK / f"out_{tag}"
    print(f"# perfbench {tag}")
    for spec in wl.runs:
        print(f"# run {spec.preset} N={spec.n} expect={spec.expect} "
              f"overrides={' '.join(spec.overrides) or '-'}")
    if wl.mms_n:
        print(f"# ladder {wl.mms_preset} N={','.join(map(str, wl.mms_n))} "
              f"overrides={' '.join(wl.mms_overrides) or '-'}")

    counter = tracing.Tracer()           # step counts of untraced passes
    counter.install([tracing.STEP_COUNTER])
    tracer = tracing.Tracer()            # spans of traced passes
    setup_s, setup_all = (None, [])
    if not args.trace:
        setup_s, setup_all = measure_setup(wl)

    passes, traced = [], []
    ref = []                             # reference-loop times per pass
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, counter, out_dir))
        if not args.trace:
            ref.append(reference_loop())
        else:
            counter.restore()
            tracer.install(tracing.LAYERS)
            try:
                traced.append(run_pass(wl, tracer, out_dir, root=tracer.root()))
            finally:
                tracer.restore()
                counter.install([tracing.STEP_COUNTER])
        elapsed = time.perf_counter() - start
        rounds = len(passes)
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    counter.restore()

    everything = passes + traced
    problems = [p for res in everything for p in res.problems]
    for res in everything[1:]:
        if res.hashes != passes[0].hashes or res.steps != passes[0].steps:
            problems.append("outputs or step counts differ between passes")
            break

    report = accuracy_report(wl, passes)
    trace_info = None
    if args.trace:
        metrics, trace_info = per_layer(tracer, traced, passes)
        metrics.update(kernel_micro())
        if not trace_info["consistent"]:
            problems.append("span self times do not sum to the traced wall time")
        tracer.write_spans(WORK / f"spans_{tag}.csv.gz")
    else:
        metrics = end_to_end(passes, setup_s, ref)
        report["wall_best_s"] = (best_of_passes(passes), "s")
        report["ref_best_s"] = (best_of(ref), "s")

    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, undeclared {extra}")

    for name, (value, unit) in list(metrics.items()) + list(report.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")

    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.problems) for p in everything)
    doc = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "stamp": stamp(), "params": [[p, list(o)] for p, o in wl.configs()],
        "passes": [p.wall for p in passes],
        "traced_passes": [p.wall for p in traced], "setup_all_s": setup_all,
        "runs": passes[0].runs, "metrics": metrics, "report": report,
        "trace": trace_info, "problems": problems,
    }
    (WORK / f"BENCH_{tag}.json").write_text(
        json.dumps(doc, indent=2, default=str) + "\n", encoding="utf-8")
    print(f"# stamp {json.dumps(doc['stamp'])}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
