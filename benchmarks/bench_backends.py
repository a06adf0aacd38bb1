#!/usr/bin/env python3
"""Timings of the hot kernels: compiled extension vs NumPy fallback.

Usage: python benchmarks/bench_backends.py [--n 4096] [--repeat 200]

Also times one full disk-blowup preset run per backend, each in a fresh
interpreter that rebinds `mhdlab._kernels`' selected kernels and `BACKEND`
to those of `get_backend(name)` before the run.
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mhdlab._kernels import get_backend  # noqa: E402


def make_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, n + 1)
    rho = rng.uniform(0.5, 2.0, n + 1)
    u = rng.standard_normal(n + 1) * 0.1
    u[0] = u[-1] = 0.0
    P = rng.uniform(0.1, 1.0, n + 1)
    B = rng.standard_normal(n + 1) * 0.3
    B[0] = 0.0
    v = rng.standard_normal(n + 1) * 0.1
    v[0] = v[-1] = 0.0
    w = rng.standard_normal(n + 1) * 0.1
    w[-1] = 0.0
    rho_star = np.maximum(rho, 1e-6)
    lf = np.zeros(n)
    up = np.zeros(n, dtype=np.uint8)
    return r, rho, u, v, w, P, B, rho_star, lf, up


def bench(fn, repeat):
    fn()                       # warm up
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) / repeat


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--repeat", type=int, default=200)
    args = ap.parse_args()

    backends = {"pure": get_backend("pure")}
    try:
        backends["cython"] = get_backend("cython")
    except ImportError:
        print("compiled extension not built; benchmarking the fallback only")

    n = args.n
    r, rho, u, v, w, P, B, rho_star, lf, up = make_inputs(n)
    dr = 1.0 / n
    rng = np.random.default_rng(1)
    sub = rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1)
    diag = rng.uniform(4.0, 6.0, n)
    rhs = rng.standard_normal(n)

    rows = []
    for name, mod in backends.items():
        t_disk = bench(lambda: mod.disk_tendency(
            r, dr, rho, u, P, B, rho_star, 0.7, 1.4, True, lf, up), args.repeat)
        t_cyl = bench(lambda: mod.cylinder_tendency(
            r, dr, rho, u, v, w, P, B, rho_star, 0.7, 0.3, 1.4, True, lf, up),
            args.repeat)
        t_tri = bench(lambda: mod.thomas(sub, diag, sup, rhs), args.repeat)
        rows.append((name, t_disk, t_cyl, t_tri))

    print(f"\nkernel timings, N={n} (seconds per call)")
    print(f"{'backend':>8} {'disk_tendency':>15} {'cylinder':>15} {'thomas':>15}")
    for name, a, b, c in rows:
        print(f"{name:>8} {a:>15.3e} {b:>15.3e} {c:>15.3e}")
    if len(rows) == 2:
        print(f"{'speedup':>8} {rows[0][1] / rows[1][1]:>15.2f} "
              f"{rows[0][2] / rows[1][2]:>15.2f} {rows[0][3] / rows[1][3]:>15.2f}")

    print("\nfull disk-blowup preset run per backend:")
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    for name in backends:
        code = ("import time; from mhdlab import _kernels as k; "
                f"b = k.get_backend({name!r}); "
                "k.disk_tendency, k.cylinder_tendency, k.thomas, k.gradient = "
                "b.disk_tendency, b.cylinder_tendency, b.thomas, b.gradient; "
                "k.BACKEND = b.BACKEND_NAME; "
                "from mhdlab.config import load_preset; "
                "from mhdlab.harness import run; t0=time.time(); "
                "r=run(load_preset('disk-blowup')); "
                "print(f'  {r.outcome.status.value} in {time.time()-t0:.2f}s"
                " ({r.outcome.summary[\"backend\"]} kernels)')")
        print(f"{name}:", flush=True)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


if __name__ == "__main__":
    main()
