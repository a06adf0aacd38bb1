#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark's output gate and tracer.

Usage: python3 perfbench/selftest.py

Runs disk-blowup at N=128 to t=0.05 (it ends Completed) and checks that:

* a run given the wrong expected status counts as one failed unit, with the
  reason, and nothing raises;
* a run whose config is rejected counts as failed instead of crashing;
* a ladder rung below the MMS order threshold is reported;
* in a traced pass the span self times add up to the root span's duration,
  and restoring the tracer puts mhdlab's own functions back.

Exits 0 when every check holds.
"""

import sys

import run  # first: it imports mhdlab from this checkout's src/
import checks
import tracing
from mhdlab import harness, solver
from mhdlab.harness import ConvergenceRow
from workloads import RunSpec, Workload

SHORT = ("grid.n=128", "time.t_end=0.05")


def _check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def main():
    out_dir = run.WORK / "selftest"
    run.WORK.mkdir(exist_ok=True)
    good = RunSpec("disk-blowup", SHORT, expect="Completed", n=128)
    wrong = RunSpec("disk-blowup", SHORT, expect="BlowupDetected", n=128)
    broken = RunSpec("disk-blowup", ("grid.n=0",), expect="Completed", n=0)
    wl = Workload(name="selftest", runs=(good, wrong, broken))

    counter = tracing.Tracer()
    counter.install([tracing.STEP_COUNTER])
    try:
        res = run.run_pass(wl, counter, out_dir)
    finally:
        counter.restore()
    results = [
        _check(res.attempted == 3 and len(res.problems) == 2,
               f"3 runs attempted, 2 failed: {res.problems}"),
        _check(any("expected BlowupDetected" in p for p in res.problems),
               "wrong expected status is reported as a failure"),
        _check(any("raised ConfigError" in p for p in res.problems),
               "a rejected config is reported as a failure"),
    ]

    rows = [ConvergenceRow(n=64, errors={"u": 1e-3}),
            ConvergenceRow(n=128, errors={"u": 5e-4}, orders={"u": 1.0})]
    ladder = checks.check_ladder(rows)
    results.append(_check(ladder[0] == [] and len(ladder[1]) == 1,
                          f"low MMS order is reported: {ladder}"))

    originals = (harness.run, harness.step, solver.step, solver.cfl_dt)
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS)
    try:
        traced = run.run_pass(Workload(name="selftest", runs=(good,)), tracer,
                              out_dir, root=tracer.root())
    finally:
        tracer.restore()
    self_t = tracer.self_times()
    root = sum(tracer.durations(tracing.ROOT))
    results += [
        _check(not traced.problems and traced.steps > 0,
               f"traced pass ran {traced.steps} steps cleanly"),
        _check(abs(sum(self_t.values()) - root) <= 1e-9 * root,
               f"self times sum to the root span ({root:.4f} s)"),
        _check(originals == (harness.run, harness.step, solver.step,
                             solver.cfl_dt),
               "restore puts the original functions back"),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
