#!/usr/bin/env python3
"""Run every workload untraced, one after another, and print their reports.

Usage: python3 perfbench/all.py [--seed N] [--seconds S]

--seconds defaults to BENCHMARK.json's run_seconds.
Each workload runs in its own process (run.py), so peak memory and set-up
time stay per workload. Exits non-zero if any workload fails or exits
non-zero.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        lines = out.stdout.splitlines()
        for line in lines[:-1]:
            if line.startswith(("metric ", "FAILED ")):
                print(f"{name:>16} {line}")
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            ok = False
            print(f"{name:>16} FAILED (exit {out.returncode}) {out.stderr[-500:]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
