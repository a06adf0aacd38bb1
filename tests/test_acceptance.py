"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-m acceptance`). Every
tolerance below is fixed; the preset runs execute once per session and are
shared across the criteria that inspect them.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mhdlab import (BoundInputs, FluidState, Geometry, PhysParams, Profile,
                    RunStatus, Scheme, SolverSettings, Weight,
                    cauchy_schwarz_gap, init_scenario, integrate, integrate_to,
                    lifespan_bound, make_grid, moment_coefficient, moment_pair,
                    optimize_alpha, picard_iterate, step)
from mhdlab.cli import main as cli_main
from mhdlab.config import load_preset
from mhdlab.diagnostics import divergence, moment_pre_ibp
from mhdlab.freeboundary import growth_check
from mhdlab.harness import convergence_study, run
from mhdlab.vacuum import VacuumFront

pytestmark = pytest.mark.acceptance


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {label} [{detail}]")
    assert ok, f"criterion {num}: {label} [{detail}]"


def _timed(fn):
    t0 = time.time()
    out = fn()
    return out, time.time() - t0


@pytest.fixture(scope="module")
def disk_run():
    return _timed(lambda: run(load_preset("disk-blowup")))


@pytest.fixture(scope="module")
def cylinder_run():
    return _timed(lambda: run(load_preset("cylinder-blowup")))


@pytest.fixture(scope="module")
def free_run():
    return _timed(lambda: run(load_preset("free-blowup")))


@pytest.fixture(scope="module")
def smooth_run():
    return _timed(lambda: run(load_preset("smooth-novac")))


@pytest.fixture(scope="module")
def mms_rows():
    return _timed(lambda: convergence_study(load_preset("mms"),
                                            [128, 256, 512]))


@pytest.fixture(scope="module")
def picard_sweep():
    """smooth-novac at N=256 linearized over [0, 0.01]: (cfg, grid, state0,
    trajectory, report)."""
    cfg = dataclasses.replace(load_preset("smooth-novac"), n=256)
    grid = cfg.grid()
    state0, _ = init_scenario(cfg)
    traj, rep = picard_iterate(state0, 0.01, 50, 1e-8, cfg.phys, grid, cfg.solver)
    return cfg, grid, state0, traj, rep


def test_criterion_1_inequality_suite():
    t0 = time.time()
    g = make_grid(256, 1.0)
    rng = np.random.default_rng(20240817)
    p = PhysParams(mu=0.7, lam=0.1, gamma=1.4, geometry=Geometry.DISK2D)
    worst_cs = worst_floor = worst_chain = math.inf
    for _ in range(1000):
        r_lo = rng.uniform(0.02, 0.5)
        width = rng.uniform(0.08, 0.45)
        amp_b = rng.uniform(-2.0, 2.0)
        amp_u = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(1.02, 1.98)
        hi = min(r_lo + width, 0.995)
        R = rng.uniform(hi + 0.005, 1.0) if hi + 0.005 < 1.0 else 1.0
        b = Profile(kind="bump", params=(r_lo, hi, amp_b))(g.nodes)
        u = Profile(kind="bump", params=(r_lo, hi, amp_u))(g.nodes)
        st = FluidState(rho=np.zeros(257), u=u, P=np.zeros(257), B=b)
        front = VacuumFront(R=R, r0=R, C0=1.0)

        gap = cauchy_schwarz_gap(st, front, g, alpha)
        first = integrate_to(st.B ** 2 * g.nodes ** (alpha - 1.0), g, R)
        worst_cs = min(worst_cs,
                       gap / max(first * R ** (2 - alpha) / (2 - alpha), 1e-30))

        lhs, rhs, floor = moment_pair(st, front, g, p, alpha)
        worst_floor = min(worst_floor,
                          (rhs - floor) / max(abs(rhs), abs(floor), 1e-30))

        s = divergence(st, g)
        nrm = math.sqrt(max(integrate_to(s * s * g.nodes, g, R), 0.0))
        chain = p.two_mu_lam * moment_coefficient(alpha) * R ** alpha * nrm
        worst_chain = min(worst_chain,
                          (chain - abs(lhs)) / max(abs(lhs), chain, 1e-30))

    # integration-by-parts cross-check: observed order and frozen value
    p1 = PhysParams(mu=0.5, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)
    gaps = []
    for n in (128, 256, 512):
        gn = make_grid(n, 1.0)
        st = FluidState(rho=np.zeros(n + 1),
                        u=np.sin(np.pi * gn.nodes) * gn.nodes,
                        P=np.zeros(n + 1), B=np.zeros(n + 1))
        st.u[0] = 0.0
        front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
        lhs, _, _ = moment_pair(st, front, gn, p1, 1.5)
        pre = moment_pre_ibp(st, front, gn, p1, 1.5)
        gaps.append(abs(lhs - pre))
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]

    g256 = make_grid(256, 1.0)
    st = FluidState(rho=np.zeros(257), u=g256.nodes * (1 - g256.nodes),
                    P=np.zeros(257), B=np.zeros(257))
    front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
    lhs_val, _, _ = moment_pair(st, front, g256, p1, 1.5)
    pre_val = moment_pre_ibp(st, front, g256, p1, 1.5)
    target = -3.0 / (2.5 * 3.5)      # -0.342857...

    elapsed = time.time() - t0
    ok = (worst_cs >= -1e-12 and worst_floor >= -1e-12
          and worst_chain >= -1e-10
          and all(o >= 1.8 for o in orders)
          and abs(lhs_val - target) <= 1e-3
          and abs(pre_val - target) <= 1e-3
          and elapsed < 10.0)
    _report(1, "inequality/identity suite on 1000 random bump profiles", ok,
            f"cs={worst_cs:.2e} floor={worst_floor:.2e} chain={worst_chain:.2e} "
            f"ibp_orders={orders[0]:.2f},{orders[1]:.2f} "
            f"value_err={max(abs(lhs_val - target), abs(pre_val - target)):.2e} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_2_flux_conservation(disk_run):
    res, elapsed = disk_run
    s = res.outcome.summary
    ok = (res.status is RunStatus.BLOWUP_DETECTED
          and s["residuals"]["flux"] is not None
          and s["residuals"]["flux"] <= 1e-4
          and s["residuals"]["vacuum"] <= 1e-6
          and elapsed < 60.0)
    _report(2, "vacuum flux ledger and clean vacuum on disk-blowup (N=1024)", ok,
            f"status={res.status.value} flux={s['residuals']['flux']:.2e} "
            f"vacuum={s['residuals']['vacuum']:.2e} wall={elapsed:.1f}s")


def test_criterion_3_energy_ledger(smooth_run, free_run):
    smooth, elapsed = smooth_run
    s = smooth.outcome.summary
    diss = smooth.records[-1].dissipation_cum
    one_sided_ok = (smooth.status is RunStatus.COMPLETED
                    and s["energy_signed_max"] <= 1e-3
                    and diss <= s["E0"]
                    and elapsed < 60.0)
    free_res, free_elapsed = free_run
    sf = free_res.outcome.summary
    two_sided_ok = sf["energy_abs_residual"] <= 2e-3 and free_elapsed < 60.0
    ok = one_sided_ok and two_sided_ok
    _report(3, "energy ledger: one-sided (fixed) and identity (free)", ok,
            f"smooth_creation={s['energy_signed_max']:.2e} "
            f"diss/E0={diss / s['E0']:.3f} "
            f"free_abs={sf['energy_abs_residual']:.2e} "
            f"wall={elapsed:.1f}s/{free_elapsed:.1f}s")


def test_criterion_4_lifespan_formulas():
    # independently coded arithmetic oracle for the disk example
    mu, lam, r0, c0, e0, alpha = 1.0, 0.0, 1.0, 1.0, 1.0, 1.5
    g_oracle = alpha / math.sqrt(2 * alpha - 2) + (alpha + 1) / math.sqrt(2 * alpha)
    inner = (1.0 / (math.sqrt(2 * mu + lam) * r0)) \
        * ((2 - alpha) ** 2 * c0 ** 2) / (2 * g_oracle)
    t_oracle = e0 * inner ** -2

    b = BoundInputs(mu=mu, lam=lam, R_ref=r0, C0=c0, E0=e0, alpha=alpha,
                    geometry=Geometry.DISK2D)
    t_disk = lifespan_bound(b)
    rel = abs(t_disk - t_oracle) / t_oracle

    t_cyl = lifespan_bound(BoundInputs(mu=mu, lam=lam, R_ref=r0, C0=c0, E0=e0,
                                       alpha=alpha, geometry=Geometry.CYLINDER3D))
    ratio = t_cyl / t_disk

    alpha_star, _ = optimize_alpha(b)
    alphas = np.arange(1.0 + 1e-6, 2.0, 1e-6)
    gg = alphas / np.sqrt(2 * alphas - 2) + (alphas + 1) / np.sqrt(2 * alphas)
    t_all = e0 * ((1.0 / (math.sqrt(2 * mu + lam) * r0))
                  * ((2 - alphas) ** 2 * c0 ** 2) / (2 * gg)) ** -2.0
    alpha_brute = float(alphas[np.argmin(t_all)])

    ok = (rel <= 1e-6 and abs(t_disk - 1.1089e3) / 1.1089e3 < 1e-3
          and ratio == 2.0 and abs(alpha_star - alpha_brute) <= 1e-3)
    _report(4, "closed-form lifespan bounds vs arithmetic oracle", ok,
            f"T={t_disk:.6g} rel={rel:.2e} cyl/disk={ratio} "
            f"alpha*={alpha_star:.4f} brute={alpha_brute:.6f}")


def test_criterion_5_blowup_ordering(disk_run, cylinder_run, free_run):
    details = []
    ok = True
    total = 0.0
    for name, (res, elapsed) in (("disk", disk_run), ("cylinder", cylinder_run),
                                 ("free", free_run)):
        total += elapsed
        s = res.outcome.summary
        detected = res.status is RunStatus.BLOWUP_DETECTED
        ordered = (detected and res.outcome.T_detected <= s["T_bound"])
        frac = s.get("div_bound_fraction")
        gated = frac is not None and frac >= 0.8
        ok = ok and detected and ordered and gated
        details.append(f"{name}: det={res.outcome.T_detected and round(res.outcome.T_detected, 4)} "
                       f"bound={s['T_bound']:.3g} frac={frac}")
    ok = ok and total < 300.0
    _report(5, "blow-up detected before the analytic bound on all presets", ok,
            "; ".join(details) + f" wall={total:.1f}s")


def _orders(rows):
    """(the lowest L2_r order of a ladder, its orders as text)."""
    worst = min(min(row.orders.values()) for row in rows[1:])
    text = "; ".join(
        f"N={row.n}: " + ",".join(f"{f}={o:.2f}" for f, o in row.orders.items())
        for row in rows[1:])
    return worst, text


def test_criterion_6_convergence(mms_rows):
    rows, elapsed = mms_rows
    worst, orders_txt = _orders(rows)
    ok = worst >= 1.8 and elapsed < 120.0
    _report(6, "manufactured-solution L2 orders >= 1.8 for rho,u,P,B", ok,
            orders_txt + f" wall={elapsed:.1f}s")


def test_rk2_imp_convergence(monkeypatch):
    # the MMS ladder under the IMEX step at the preset CFL: second order in
    # L2_r in every field, and the axis node converging (a scheme unstable
    # on the central stencils' imaginary eigenvalues lets rho[0] drift
    # there while the r-weight hides it)
    import mhdlab.harness
    from mhdlab.mms import MMSForcing
    cfg = load_preset("mms")
    cfg = dataclasses.replace(cfg, solver=dataclasses.replace(
        cfg.solver, scheme=Scheme.RK2_IMPLICIT_VISCOUS))
    last = {}

    def keeping(state, dt, p, grid, s, **kw):
        out = step(state, dt, p, grid, s, **kw)
        last[grid.n_cells] = out, grid
        return out

    monkeypatch.setattr(mhdlab.harness, "step", keeping)
    rows, elapsed = _timed(
        lambda: convergence_study(cfg, [256, 512, 1024, 2048]))
    forcing = MMSForcing(cfg.phys, cfg.r_outer)
    axis = []
    for row in rows:
        out, grid = last[row.n]
        axis.append(abs(out.rho[0] - forcing.exact_state(grid, out.t).rho[0]))
    worst, orders_txt = _orders(rows)
    falling = all(b < a for a, b in zip(axis, axis[1:]))
    _report("6-imex", "rk2-imp manufactured-solution L2 orders >= 1.8, rho[0] "
            "error falling", worst >= 1.8 and falling,
            orders_txt + " rho[0] errors " + ", ".join(f"{e:.1e}" for e in axis)
            + f" wall={elapsed:.1f}s")


def test_criterion_7_free_boundary(free_run):
    res, _ = free_run
    s = res.outcome.summary
    p = load_preset("free-blowup").phys
    report = growth_check(res.records, a0=1.0, E0=s["E0"], p=p)
    ordering = all(rec.R_front <= rec.a_boundary for rec in res.records)
    stress = s["max_stress_residual_rel"]
    ok = report.passed and ordering and stress <= 1e-10
    _report(7, "free boundary: growth envelope, front ordering, stress", ok,
            f"excess={report.worst_excess:.2e} ordering={ordering} "
            f"stress_rel={stress:.2e}")


def test_criterion_8_pointwise_inequality(cylinder_run):
    slack = cylinder_run[0].outcome.summary["pointwise_slack_min"]
    ok = slack >= -1e-12
    _report(8, "2(u_r^2 + u^2/r^2) >= (u_r + u/r)^2 at every node/record", ok,
            f"min_normalized_slack={slack:.2e}")


def test_criterion_9_picard_cross_validation(mms_rows, picard_sweep):
    cfg, grid, state0, traj, rep = picard_sweep
    settings = cfg.solver
    s_exp = SolverSettings(cfl=settings.cfl,
                           scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS,
                           eps_vac=settings.eps_vac)
    ref = state0.copy()
    gap = 0.0
    for snap in traj[1:]:
        ref = step(ref, rep.dt, cfg.phys, grid, s_exp)
        d = snap.u - ref.u
        gap = max(gap, math.sqrt(max(integrate(d * d, grid, Weight.RADIAL_R), 0.0)))

    mms_err_256 = next(row for row in mms_rows[0] if row.n == 256).errors["u"]
    ok = (rep.converged and rep.contraction_ratio < 1.0
          and gap <= 10.0 * mms_err_256)
    _report(9, "linearized sweeps contract and match the nonlinear solver", ok,
            f"iters={rep.iterations} ratio={rep.contraction_ratio:.2e} "
            f"gap={gap:.2e} budget={10.0 * mms_err_256:.2e}")


# Outputs of the shipped presets and the MMS ladder, recorded with the NumPy
# backend. A refactor that claims to be neutral must leave them unchanged;
# round-off-sized residuals (the vacuum residual is about 1e-10) are left out.
GOLDEN_RUNS = {
    "disk-blowup": dict(
        status="BlowupDetected", records=24, t_final=0.4153407087614073,
        T_detected=0.4153407087614073, E0=0.07149999999543627,
        C0=0.3500000043736863, alpha_star=1.1107999999999878,
        T_bound=86.92644188620457, energy=0.02131289328087775),
    "cylinder-blowup": dict(
        status="BlowupDetected", records=24, t_final=0.4157966527158659,
        T_detected=0.4157966527158659, E0=0.07663858700867708,
        C0=0.3500000043736863, alpha_star=1.1666666666666667,
        T_bound=200.41052715521099, energy=0.02140168177829067),
    "free-blowup": dict(
        status="BlowupDetected", records=24, t_final=0.4153405456663797,
        T_detected=0.4153405456663797, E0=0.07149999999543627,
        C0=0.3500000043736863, alpha_star=1.1107999999999878,
        T_bound=2.467934787117422e+96, energy=0.021312897872675544),
    "smooth-novac": dict(
        status="Completed", records=140, t_final=0.5, T_detected=None,
        E0=0.6287142857143837, C0=None, alpha_star=None, T_bound=None,
        energy=0.627025053663236),
}

GOLDEN_MMS = {
    128: dict(rho=4.940067998435858e-06, u=1.4472195902013952e-06,
              P=5.0207119201653155e-06, B=1.20524943940846e-06),
    256: dict(rho=1.3207667826899512e-06, u=3.648820871813729e-07,
              P=1.2548149822027204e-06, B=2.9773423856060524e-07),
    512: dict(rho=3.508448482149469e-07, u=9.164668752946034e-08,
              P=3.1366306866536553e-07, B=7.399542098712022e-08),
}


# The criterion-9 sweep: its iteration count, step count, every sweep's
# sup phi and the r-weighted L2 norm of u in its last snapshot.
GOLDEN_PICARD = dict(
    iterations=3, n_steps=656,
    sup_phis=[8.260961079549306e-05, 3.9617006960279144e-07,
              6.780491014123018e-12],
    u_l2=0.06203445943065686)


def _approx(value):
    return None if value is None else pytest.approx(value, rel=1e-9)


def test_golden_outputs(disk_run, cylinder_run, free_run, smooth_run, mms_rows):
    runs = {"disk-blowup": disk_run, "cylinder-blowup": cylinder_run,
            "free-blowup": free_run, "smooth-novac": smooth_run}
    for name, (res, _) in runs.items():
        s = res.outcome.summary
        got = dict(status=res.status.value, records=len(res.records),
                   t_final=res.outcome.t_final, T_detected=res.outcome.T_detected,
                   E0=s["E0"], C0=s["C0"], alpha_star=s["alpha_star"],
                   T_bound=s["T_bound"], energy=res.records[-1].energy)
        want = GOLDEN_RUNS[name]
        assert got["status"] == want["status"], name
        assert got["records"] == want["records"], name
        for key in ("t_final", "T_detected", "E0", "C0", "alpha_star",
                    "T_bound", "energy"):
            assert got[key] == _approx(want[key]), f"{name}: {key}"
    rows, _ = mms_rows
    assert [row.n for row in rows] == list(GOLDEN_MMS)
    for row in rows:
        for f, err in GOLDEN_MMS[row.n].items():
            assert row.errors[f] == _approx(err), f"MMS N={row.n}: {f}"


def test_golden_picard(picard_sweep):
    _, grid, _, traj, rep = picard_sweep
    u = traj[-1].u
    assert rep.iterations == GOLDEN_PICARD["iterations"]
    assert rep.n_steps == GOLDEN_PICARD["n_steps"] == len(traj) - 1
    assert rep.sup_phis == [_approx(v) for v in GOLDEN_PICARD["sup_phis"]]
    u_l2 = math.sqrt(integrate(u * u, grid, Weight.RADIAL_R))
    assert u_l2 == _approx(GOLDEN_PICARD["u_l2"])


def test_bounds_subcommand_consistency(capsys):
    # the CLI bounds path reproduces the library computation on live data,
    # on every geometry: the free one's reference radius is the envelope
    # constant C = R0 + sqrt(E0 / (2mu+lam))
    import json
    from mhdlab.diagnostics import total_energy
    for preset in ("disk-blowup", "cylinder-blowup", "free-blowup"):
        code = cli_main(["bounds", "--preset", preset])
        out = capsys.readouterr().out
        assert code == 0, preset
        doc = json.loads(out)
        cfg = load_preset(preset)
        state, front = init_scenario(cfg)
        p = cfg.phys
        e0 = total_energy(state, cfg.grid(), p)
        r_ref = cfg.r_outer
        if cfg.geometry.is_free:
            r_ref += math.sqrt(e0 / (2.0 * p.mu + p.lam))
            assert doc["C_envelope"] == pytest.approx(r_ref, rel=1e-12)
        else:
            assert "C_envelope" not in doc, preset
        b = BoundInputs(mu=p.mu, lam=p.lam, R_ref=r_ref, C0=front.C0, E0=e0,
                        alpha=1.5, geometry=cfg.geometry)
        alpha_star, t_star = optimize_alpha(b)
        assert doc["alpha_star"] == pytest.approx(alpha_star, abs=1e-12)
        assert doc["T_bound"] == pytest.approx(t_star, rel=1e-12), preset
        assert doc["C0"] == pytest.approx(front.C0, rel=1e-12), preset
