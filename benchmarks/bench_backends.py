"""Kernel-timing inputs and timer that `perfbench/run.py`'s `kernel_micro`
loads by path; keep them byte-identical.

`make_inputs(n, seed)` builds the fields a tendency kernel is timed on, and
`bench(fn, repeat)` returns the mean seconds per call of `fn` over `repeat`
calls after one warm-up call. The backends are compared with perfbench, in a
tree with the compiled extension built in place (`python setup.py build_ext
--inplace`) and in one without; each record's stamp names the backend it ran.
"""

import time

import numpy as np


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
