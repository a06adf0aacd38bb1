"""Run orchestration: the step/track/diagnose loop and deterministic outputs.

A run advances the configured scenario until t_end, a detected blow-up, or an
invalidating event, recording a diagnostics row every ``output.stride`` steps
(plus the final state). Outputs are a CSV of the records and a JSON summary;
both are bitwise reproducible for a fixed configuration and build (fixed
reduction orders, no wall-clock anywhere).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

import numpy as np

from . import _kernels as kern
from .core import FluidState, ScenarioConfig, Weight, init_scenario, integrate
from .diagnostics import (BoundInputs, DiagnosticsRecord, div_lower_bound,
                          div_norm, dissipation_rate, energy_residual,
                          moment_pair, optimize_alpha, total_energy)
from .errors import MHDLabError
from .freeboundary import FreeStats, MovingGrid, free_step, growth_check
from .mms import MMSForcing
from .solver import (Scheme, SolverSettings, StepStats, VacuumStrategy,
                     apply_vacuum_balance, cfl_dt, detect_blowup, max_grad_u,
                     step)
from .vacuum import advance_front, check_vacuum, vacuum_flux

CSV_HEADER = ("t,energy,dissipation_cum,flux_vacuum,R_front,a_boundary,"
              "div_l2,div_lower_bound,moment_lhs,moment_rhs,max_gradu,dt")

_FREE_ENERGY_TOL = 2e-3          # identity tolerance on the free boundary
_INVALIDATION_FACTOR = 10.0      # sustained breach multiplier
_INVALIDATION_STRIKES = 5


class RunStatus(Enum):
    COMPLETED = "Completed"
    BLOWUP_DETECTED = "BlowupDetected"
    INVALIDATED = "Invalidated"
    ERROR = "Error"


EXIT_CODES = {RunStatus.COMPLETED: 0, RunStatus.ERROR: 1,
              RunStatus.BLOWUP_DETECTED: 2, RunStatus.INVALIDATED: 3}


@dataclass
class RunOutcome:
    status: RunStatus
    t_final: float
    T_detected: Optional[float] = None
    summary: dict = field(default_factory=dict)


@dataclass
class RunResult:
    outcome: RunOutcome
    records: List[DiagnosticsRecord] = field(default_factory=list)
    state: Optional[FluidState] = None

    @property
    def status(self) -> RunStatus:
        return self.outcome.status


def settings_from_config(cfg: ScenarioConfig) -> SolverSettings:
    return SolverSettings(
        cfl=cfg.cfl,
        scheme=Scheme(cfg.scheme),
        vacuum_strategy=VacuumStrategy(cfg.vacuum_strategy),
        eps_vac=cfg.eps_vac,
        blowup_gradu_max=cfg.blowup_gradu_max,
        dt_min=cfg.dt_min,
    )


def bound_template(cfg: ScenarioConfig, C0: float, E0: float) -> BoundInputs:
    """Lifespan-bound inputs at alpha = 1.5 (the start of the alpha search).

    The reference radius is R0 for a fixed boundary and the growth-envelope
    constant C = R0 + sqrt(E0 / (2mu+lam)) for the free boundary.
    """
    r_ref = cfg.r_outer
    if cfg.geometry.is_free:
        r_ref += math.sqrt(E0 / cfg.phys.two_mu_lam)
    return BoundInputs(mu=cfg.phys.mu, lam=cfg.phys.lam, R_ref=r_ref, C0=C0,
                       E0=E0, alpha=1.5, geometry=cfg.geometry)


class _RunState:
    """Everything one run owns: solver state, trackers, ledgers, aggregates."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.p = cfg.phys
        self.settings = settings_from_config(cfg)
        self.state, self.front = init_scenario(cfg)
        self.free = cfg.geometry.is_free
        if self.free:
            self.mgrid = MovingGrid(n=cfg.n, a=cfg.r_outer, a0=cfg.r_outer)
            self.stats: StepStats = FreeStats()
        else:
            self.mgrid = None
            self.stats = StepStats()
        self.grid = self.mgrid.grid() if self.free else cfg.grid()
        self.forcing = MMSForcing(self.p, cfg.r_outer) if cfg.mms else None

        self.rho0_max = float(np.max(self.state.rho))
        if self.rho0_max > 0.0 and not cfg.eps_vac <= 1e-3 * self.rho0_max:
            raise MHDLabError(
                f"eps_vac={cfg.eps_vac} is not small against max rho0="
                f"{self.rho0_max}")
        self.mass0 = integrate(self.state.rho, self.grid, Weight.RADIAL_R)

        # initial vacuum block satisfies the quasi-stationary balance so the
        # first record is already in the regime the diagnostics assume
        apply_vacuum_balance(self.state, self.p, self.grid, self.settings,
                             self.stats)
        self.E0 = total_energy(self.state, self.grid, self.p)

        # without a vacuum region there is no trapped flux and no bound
        self.template = bound_template(
            cfg, 0.0 if self.front is None else self.front.C0, self.E0)
        self.C_envelope = self.template.R_ref if self.free else None
        self.alpha_star = None
        self.T_bound = None
        if self.front is not None:
            self.alpha_star, self.T_bound = optimize_alpha(self.template)
        self.alpha_rec = cfg.alpha if cfg.alpha is not None else self.alpha_star

        self.diss_cum = 0.0
        self._diss_prev = dissipation_rate(self.state, self.grid, self.p)
        self.records: List[DiagnosticsRecord] = []
        self.vac_max_rel = 0.0
        self.div_ok = 0
        self.div_total = 0
        self.pointwise_slack_min = math.inf
        self.energy_breaches = 0
        self.invalid_reason = None

    # -- per-step bookkeeping ------------------------------------------------

    def accumulate_dissipation(self, dt: float) -> None:
        d = dissipation_rate(self.state, self.grid, self.p)
        self.diss_cum += 0.5 * (self._diss_prev + d) * dt
        self._diss_prev = d

    def pointwise_inequality_slack(self) -> float:
        """min over nodes of [2(u_r^2 + u^2/r^2) - (u_r + u/r)^2] / scale."""
        ur, uor = kern.radial_parts(self.state.u, self.grid.nodes, self.grid.dr)
        lhs = 2.0 * (ur * ur + uor * uor)
        rhs = (ur + uor) ** 2
        scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
        return float(np.min((lhs - rhs) / scale))

    def record(self, dt: float) -> None:
        rec = DiagnosticsRecord(
            t=self.state.t,
            energy=total_energy(self.state, self.grid, self.p),
            dissipation_cum=self.diss_cum,
            div_l2=div_norm(self.state, self.grid),
            max_gradu=max_grad_u(self.state, self.grid),
            dt=dt,
        )
        if self.free:
            rec.a_boundary = self.mgrid.a
        if self.front is not None:
            rec.R_front = self.front.R
            rec.flux_vacuum = vacuum_flux(self.state, self.front, self.grid)
            alpha = self.alpha_rec
            b = dataclasses.replace(self.template, alpha=alpha)
            r_now = self.mgrid.a if self.free else self.front.R
            rec.div_lower_bound = div_lower_bound(b, r_now)
            lhs, rhs, _ = moment_pair(self.state, self.front, self.grid,
                                      self.p, alpha)
            rec.moment_lhs = lhs
            rec.moment_rhs = rhs
            self.div_total += 1
            if rec.div_l2 >= 0.9 * rec.div_lower_bound:
                self.div_ok += 1
            vac = check_vacuum(self.state, self.front, self.grid,
                               tol=1e-6 * max(self.rho0_max, 1e-300))
            if self.rho0_max > 0.0:
                self.vac_max_rel = max(self.vac_max_rel,
                                       max(vac.max_rho, vac.max_P) / self.rho0_max)
        if self.state.v is not None:
            self.pointwise_slack_min = min(self.pointwise_slack_min,
                                           self.pointwise_inequality_slack())
        self.records.append(rec)
        if self.free and len(self.records) >= 2:
            res = energy_residual(self.records)
            breach = abs(self.records[-1].energy + self.records[-1].dissipation_cum
                         - res.e0) / res.e0 if res.e0 > 0 else 0.0
            if breach > _INVALIDATION_FACTOR * _FREE_ENERGY_TOL:
                self.energy_breaches += 1
            else:
                self.energy_breaches = 0

    def summary(self) -> dict:
        mass_now = integrate(self.state.rho, self.grid, Weight.RADIAL_R)
        out = {
            "C0": None if self.front is None else self.front.C0,
            "E0": self.E0,
            "alpha_star": self.alpha_star,
            "T_bound": self.T_bound,
            "C_envelope": self.C_envelope,
            "backend": kern.BACKEND,
            "clipped_mass_rel": (self.stats.clipped_mass / self.mass0
                                 if self.mass0 > 0 else 0.0),
            "mass_residual": (abs(mass_now - self.mass0) / self.mass0
                              if self.mass0 > 0 else 0.0),
            "lf_coeff": self.stats.lf_coeff,
        }
        residuals = {"energy": None, "flux": None, "vacuum": None}
        if len(self.records) >= 2:
            res = energy_residual(self.records)
            residuals["energy"] = (res.signed_max if not self.free
                                   else res.abs_residual)
            out["energy_abs_residual"] = res.abs_residual
            out["energy_signed_max"] = res.signed_max
        if self.front is not None:
            flux = [abs(rec.flux_vacuum - self.front.C0) / abs(self.front.C0)
                    for rec in self.records if rec.flux_vacuum is not None]
            residuals["flux"] = max(flux) if flux else None
            residuals["vacuum"] = self.vac_max_rel
            out["div_bound_fraction"] = (self.div_ok / self.div_total
                                         if self.div_total else None)
        if self.state.v is not None and math.isfinite(self.pointwise_slack_min):
            out["pointwise_slack_min"] = self.pointwise_slack_min
        if self.free:
            stats: FreeStats = self.stats
            out["remap_mass_defect"] = stats.remap_mass_defect
            out["remap_flux_defect"] = stats.remap_flux_defect
            out["max_stress_residual_rel"] = stats.max_stress_residual_rel
            report = growth_check(self.records, self.mgrid.a0, self.E0, self.p)
            out["growth_ok"] = report.passed
            out["growth_worst_excess"] = report.worst_excess
        if self.invalid_reason is not None:
            out["invalid_reason"] = self.invalid_reason
        out["residuals"] = residuals
        return out


def run(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunResult:
    """Advance the scenario to completion/detection and emit outputs."""
    try:
        rs = _RunState(cfg)
    except MHDLabError as exc:
        outcome = RunOutcome(status=RunStatus.ERROR, t_final=0.0,
                             summary={"error": str(exc), "residuals": {}})
        if out_dir is not None:
            _emit(out_dir, cfg, [], outcome)
        return RunResult(outcome=outcome)

    status = RunStatus.COMPLETED
    detected = None
    last_dt = 0.0
    steps = 0
    try:
        rs.record(dt=0.0)
        t_end = cfg.t_end
        dt_cfl = None
        while rs.state.t < t_end * (1.0 - 1e-12):
            if dt_cfl is None:
                # first step only: a DtCollapse here ends the run as an ERROR
                # (a configuration problem, not a blow-up signal). After each
                # step detect_blowup flags a collapse and supplies the next dt.
                dt_cfl = cfl_dt(rs.state, rs.grid, rs.p, rs.settings)
            dt = min(dt_cfl, t_end - rs.state.t)
            last_dt = dt
            u_before = rs.state.u.copy()
            if rs.free:
                rs.state, rs.mgrid = free_step(rs.state, dt, rs.p, rs.mgrid,
                                               rs.settings, rs.stats)
                rs.grid = rs.mgrid.grid()
            else:
                rs.state = step(rs.state, dt, rs.p, rs.grid, rs.settings,
                                stats=rs.stats, forcing=rs.forcing)
            if rs.front is not None:
                u_mid = 0.5 * (u_before + rs.state.u)
                shim = FluidState(rho=rs.state.rho, u=u_mid, P=rs.state.P,
                                  B=rs.state.B, t=rs.state.t)
                rs.front = advance_front(rs.front, shim, rs.grid, dt)
                if rs.free and rs.front.R > rs.mgrid.a:
                    rs.invalid_reason = (f"vacuum front R={rs.front.R:.6g} "
                                         f"overtook the boundary a={rs.mgrid.a:.6g}")
                    status = RunStatus.INVALIDATED
                    break
            rs.accumulate_dissipation(dt)
            steps += 1
            if steps % cfg.output_stride == 0:
                rs.record(dt)
                if rs.energy_breaches >= _INVALIDATION_STRIKES:
                    rs.invalid_reason = "sustained energy-identity failure"
                    status = RunStatus.INVALIDATED
                    break
            health = detect_blowup(rs.state, rs.grid, rs.p, rs.settings)
            if health.suspected:
                status = RunStatus.BLOWUP_DETECTED
                detected = rs.state.t
                break
            dt_cfl = health.dt
        if not rs.records or rs.records[-1].t != rs.state.t:
            rs.record(last_dt)
    except MHDLabError as exc:
        status = RunStatus.ERROR
        rs.invalid_reason = str(exc)

    outcome = RunOutcome(status=status, t_final=rs.state.t, T_detected=detected,
                         summary=rs.summary())
    result = RunResult(outcome=outcome, records=rs.records, state=rs.state)
    if out_dir is not None:
        _emit(out_dir, cfg, rs.records, outcome)
    return result


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join([
            _fmt(rec.t), _fmt(rec.energy), _fmt(rec.dissipation_cum),
            _fmt(rec.flux_vacuum), _fmt(rec.R_front), _fmt(rec.a_boundary),
            _fmt(rec.div_l2), _fmt(rec.div_lower_bound), _fmt(rec.moment_lhs),
            _fmt(rec.moment_rhs), _fmt(rec.max_gradu), _fmt(rec.dt),
        ]))
    return "\n".join(lines) + "\n"


def outcome_to_json(outcome: RunOutcome) -> str:
    summary = dict(outcome.summary)
    residuals = summary.pop("residuals", {})
    doc = {
        "status": outcome.status.value,
        "t_final": outcome.t_final,
        "T_detected": outcome.T_detected,
        "alpha_star": summary.pop("alpha_star", None),
        "T_bound": summary.pop("T_bound", None),
        "C0": summary.pop("C0", None),
        "E0": summary.pop("E0", None),
        "C_envelope": summary.pop("C_envelope", None),
        "residuals": residuals,
    }
    doc.update(sorted(summary.items()))
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


def _emit(out_dir: str, cfg: ScenarioConfig, records, outcome: RunOutcome) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.csv"), "w", encoding="utf-8") as fh:
        fh.write(records_to_csv(records))
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        fh.write(outcome_to_json(outcome))


# ---------------------------------------------------------------------------
# Convergence study against the manufactured solution
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    n: int
    errors: dict                  # field -> L2_r error at t_end
    orders: Optional[dict] = None  # vs the previous row


def convergence_study(cfg: ScenarioConfig, n_list) -> List[ConvergenceRow]:
    """L2 errors against the manufactured fields at t_end for each grid size."""
    if not cfg.mms:
        raise MHDLabError("convergence_study needs a manufactured-solution config")
    rows: List[ConvergenceRow] = []
    for n in n_list:
        sub = dataclasses.replace(cfg, n=int(n))
        grid = sub.grid()
        settings = settings_from_config(sub)
        forcing = MMSForcing(sub.phys, sub.r_outer)
        state = forcing.exact_state(grid, 0.0)
        while state.t < sub.t_end * (1.0 - 1e-12):
            dt = cfl_dt(state, grid, sub.phys, settings)
            dt = min(dt, sub.t_end - state.t)
            state = step(state, dt, sub.phys, grid, settings, forcing=forcing)
        exact = forcing.exact_state(grid, state.t)
        errors = {}
        for (name, arr), (_, ref) in zip(state.fields(), exact.fields()):
            diff = arr - ref
            errors[name] = math.sqrt(max(
                integrate(diff * diff, grid, Weight.RADIAL_R), 0.0))
        row = ConvergenceRow(n=int(n), errors=errors)
        if rows:
            prev = rows[-1]
            ratio = math.log2(int(n) / prev.n)
            row.orders = {
                f: (math.log2(prev.errors[f] / errors[f]) / ratio
                    if errors[f] > 0 and prev.errors[f] > 0 and ratio != 0
                    else math.inf)
                for f in errors
            }
        rows.append(row)
    return rows


def format_convergence_table(rows: List[ConvergenceRow]) -> str:
    fields = list(rows[0].errors) if rows else []
    header = ["N"] + [f"err({f})" for f in fields]
    if len(rows) > 1:
        header += [f"p({f})" for f in fields]
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for row in rows:
        cells = [f"{row.n:>12d}"] + [f"{row.errors[f]:>12.4e}" for f in fields]
        if len(rows) > 1:
            if row.orders:
                cells += [f"{row.orders[f]:>12.3f}" for f in fields]
            else:
                cells += [f"{'-':>12}" for _ in fields]
        lines.append("  ".join(cells))
    return "\n".join(lines)
