"""Set-up probe, run in a fresh interpreter: everything before the first step.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIGS_JSON

CONFIGS_JSON is a list of [preset, [override, ...]]. The probe imports
mhdlab from SRC_DIR, builds each config, samples its initial state and, for
scenarios with a vacuum region, optimizes the lifespan bound's exponent. It
prints the seconds that took, measured from before the import, and then the
median chunk time of the reference loop run right after.
"""

import json
import math
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from mhdlab import core, diagnostics  # noqa: E402
from workloads import load_config  # noqa: E402

for preset, overrides in json.loads(sys.argv[2]):
    cfg = load_config(preset, overrides)
    state, front = core.init_scenario(cfg)
    if front is not None:
        p = cfg.phys
        e0 = diagnostics.total_energy(state, cfg.grid(), p)
        r_ref = cfg.r_outer + (math.sqrt(e0 / p.two_mu_lam)
                               if cfg.geometry.is_free else 0.0)
        diagnostics.optimize_alpha(diagnostics.BoundInputs(
            mu=p.mu, lam=p.lam, R_ref=r_ref, C0=front.C0, E0=e0, alpha=1.5,
            geometry=cfg.geometry))

elapsed = time.perf_counter() - t0

import statistics  # noqa: E402

from reference import reference_loop  # noqa: E402

print(repr(elapsed), repr(statistics.median(reference_loop(200))))
