"""Output gate: every run and ladder rung either passes these checks or counts
as failed. The tolerances are those of the acceptance suite (criterion 2 for
the flux and vacuum ledgers) and of the shipped MMS convergence order.
"""

from __future__ import annotations

import math

FLUX_TOL = 1e-4          # flux-ledger residual at N >= FINE_N
VACUUM_TOL = 1e-6        # vacuum cleanliness residual at N >= FINE_N
FINE_N = 1024
STRESS_TOL = 1e-10       # free-boundary stress residual
MMS_ORDER_MIN = 1.8


def check_run(spec, doc):
    """Problems with one run's run.json document (empty list = passed)."""
    problems = []
    status = doc.get("status")
    if status != spec.expect:
        reason = doc.get("invalid_reason") or doc.get("error")
        problems.append(f"status {status} (expected {spec.expect})"
                        + (f": {reason}" if reason else ""))
    if status == "BlowupDetected":
        t_det, t_bound = doc.get("T_detected"), doc.get("T_bound")
        if t_det is None or t_bound is None or not t_det <= t_bound:
            problems.append(f"T_detected={t_det} exceeds T_bound={t_bound}")
    res = doc.get("residuals") or {}
    if spec.n >= FINE_N:
        if res.get("flux") is not None and not res["flux"] <= FLUX_TOL:
            problems.append(f"flux residual {res['flux']:.3e} > {FLUX_TOL:g}")
        if res.get("vacuum") is not None and not res["vacuum"] <= VACUUM_TOL:
            problems.append(f"vacuum residual {res['vacuum']:.3e} > {VACUUM_TOL:g}")
    stress = doc.get("max_stress_residual_rel")
    if stress is not None and not stress <= STRESS_TOL:
        problems.append(f"stress residual {stress:.3e} > {STRESS_TOL:g}")
    return problems


def check_refinement(docs):
    """Problems with a refinement study: the flux residual must fall with N."""
    flux = [(doc.get("residuals") or {}).get("flux") for doc in docs]
    if any(f is None for f in flux):
        return ["refinement run without a flux residual"]
    if not all(b < a for a, b in zip(flux, flux[1:])):
        return ["flux residual does not fall under refinement: "
                + ", ".join(f"{f:.3e}" for f in flux)]
    return []


def check_ladder(rows):
    """Problems per rung of a convergence study (one list per row)."""
    out = []
    for row in rows:
        problems = [f"non-finite error in {name}"
                    for name, err in row.errors.items() if not math.isfinite(err)]
        if row.orders:
            low = {f: p for f, p in row.orders.items() if not p >= MMS_ORDER_MIN}
            if low:
                problems.append(f"N={row.n}: order below {MMS_ORDER_MIN}: "
                                + ", ".join(f"{f}={p:.3f}" for f, p in low.items()))
        out.append(problems)
    return out
