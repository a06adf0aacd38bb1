"""Run orchestration: the one step/track/diagnose loop and deterministic
outputs.

`steps(rs)` is the run loop. It advances a `RunState` (the solver state,
grid, front and ledgers of one run) step by step until t_end or a suspected
blow-up, and yields each step's ``(dt, Health)`` after its health check; the
live state, grid and front are read from the `RunState`. `run` iterates the
same loop and adds, on top of it, the first record and one every
``output.stride`` steps (plus the final state), the invalidation of a free
run whose energy identity keeps failing, the stop and its reason, the
summary, and the outputs: a CSV of the records and a JSON summary, both
bitwise reproducible for a fixed configuration and build (fixed reduction
orders, no wall-clock anywhere). A probe or test watches a run by iterating
`steps` itself. `convergence_study` keeps a loop of its own, without the
health check.
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
from ._kernels.pure import operand
from .core import FluidState, ScenarioConfig, Weight, init_scenario, integrate
from .diagnostics import (DiagnosticsRecord, bound_template, div_lower_bound,
                          div_norm, dissipation_rate, energy_residual,
                          moment_pair, optimize_alpha, total_energy)
from .errors import MHDLabError
from .freeboundary import free_step, growth_check
from .mms import MMSForcing
from .solver import (StepStats, balance_initial_state, cfl_dt, detect_blowup,
                     max_grad_u, step)
from .vacuum import advance_front, check_vacuum, vacuum_flux

_CSV_COLUMNS = ("t", "energy", "dissipation_cum", "flux_vacuum", "R_front",
                "a_boundary", "div_l2", "div_lower_bound", "moment_lhs",
                "moment_rhs", "max_gradu", "dt")
CSV_HEADER = ",".join(_CSV_COLUMNS)

_FREE_ENERGY_TOL = 2e-3          # identity tolerance on the free boundary
_INVALIDATION_FACTOR = 10.0      # sustained breach multiplier
_INVALIDATION_STRIKES = 5
_HALF = operand(0.5)             # the front midpoint's weight


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


class RunState:
    """Everything one run owns: solver state, trackers, ledgers, aggregates.

    `steps` advances it; `run` adds the records and the stop."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.p = cfg.phys
        self.settings = cfg.solver
        self.state, self.front = init_scenario(cfg)
        self.free = cfg.geometry.is_free
        self.stats = StepStats()
        self.grid = cfg.grid()      # a free run's r_outer is a(t)
        self.forcing = MMSForcing(self.p, cfg.r_outer) if cfg.mms else None

        self.rho0_max = float(np.max(self.state.rho))
        eps_vac = self.settings.eps_vac
        if self.rho0_max > 0.0 and not eps_vac <= 1e-3 * self.rho0_max:
            raise MHDLabError(
                f"eps_vac={eps_vac} is not small against max rho0="
                f"{self.rho0_max}")
        self.mass0 = integrate(self.state.rho, self.grid, Weight.RADIAL_R)

        # initial vacuum block satisfies the quasi-stationary balance so the
        # first record is already in the regime the diagnostics assume
        balance_initial_state(self.state, self.p, self.grid, self.settings,
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
        # the records' bound inputs: alpha is fixed for the run
        self.bound_rec = None
        if self.front is not None:
            self.bound_rec = dataclasses.replace(self.template,
                                                 alpha=self.alpha_rec)

        self.diss_cum = 0.0
        self._diss_prev = dissipation_rate(self.state, self.grid, self.p)
        self.records: List[DiagnosticsRecord] = []
        self.vac_max_rel = 0.0
        self.div_ok = 0
        self.div_total = 0
        self.pointwise_slack_min = math.inf
        self.energy_breaches = 0
        # why the run failed, under its run.json key: an Invalidated run's
        # "invalid_reason" or an Error run's "error"
        self.failure = {}
        self.stop_reason = None     # the failed health check's Health.reason

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

    def record(self, dt: float, max_gradu: float) -> None:
        """Append the state's diagnostics row; max_gradu is the state's
        `max_grad_u`, which a stepped state's health check has computed."""
        rec = DiagnosticsRecord(
            t=self.state.t,
            energy=total_energy(self.state, self.grid, self.p),
            dissipation_cum=self.diss_cum,
            div_l2=div_norm(self.state, self.grid),
            max_gradu=max_gradu,
            dt=dt,
        )
        if self.free:
            rec.a_boundary = self.grid.r_outer
        if self.front is not None:
            rec.R_front = self.front.R
            rec.flux_vacuum = vacuum_flux(self.state, self.front, self.grid)
            r_now = self.grid.r_outer if self.free else self.front.R
            rec.div_lower_bound = div_lower_bound(self.bound_rec, r_now)
            lhs, rhs, _ = moment_pair(self.state, self.front, self.grid,
                                      self.p, self.alpha_rec)
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
            # energy_residual's e0, without its pass over every record
            e0 = self.records[0].energy + self.records[0].dissipation_cum
            breach = (abs(rec.energy + rec.dissipation_cum - e0) / e0
                      if e0 > 0 else 0.0)
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
            "balance_solves": self.stats.balance_solves,
            # absolute: the vacuum presets start from P = 0, so no base
            "clipped_pressure": self.stats.clipped_pressure,
            "stop_reason": self.stop_reason,
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
            out["remap_mass_defect"] = self.stats.remap_mass_defect
            out["remap_flux_defect"] = self.stats.remap_flux_defect
            out["max_stress_residual_rel"] = self.stats.max_stress_residual_rel
            report = growth_check(self.records, self.cfg.r_outer, self.E0, self.p)
            out["growth_ok"] = report.passed
            out["growth_worst_excess"] = report.worst_excess
        out.update(self.failure)
        out["residuals"] = residuals
        return out


def steps(rs: RunState):
    """The run loop: step rs to t_end, yielding each step's (dt, Health)
    after its health check, and return after a suspected one. A DtCollapse
    from the first cfl_dt raises (a configuration problem, not a blow-up
    signal); after each step detect_blowup flags a collapse and supplies
    the next dt."""
    t_end = rs.cfg.t_end
    dt_cfl = cfl_dt(rs.state, rs.grid, rs.p, rs.settings)
    while rs.state.t < t_end * (1.0 - 1e-12):
        dt = min(dt_cfl, t_end - rs.state.t)
        if rs.free:
            # the front moves with the boundary, before the remap
            rs.state, rs.grid, rs.front = free_step(
                rs.state, dt, rs.p, rs.grid, rs.settings, rs.stats, rs.front)
        else:
            u_before = rs.state.u       # a step never writes its input
            rs.state = step(rs.state, dt, rs.p, rs.grid, rs.settings,
                            stats=rs.stats, forcing=rs.forcing)
            if rs.front is not None:
                rs.front = advance_front(
                    rs.front, _HALF * (u_before + rs.state.u), rs.grid, dt)
        rs.accumulate_dissipation(dt)
        health = detect_blowup(rs.state, rs.grid, rs.p, rs.settings)
        yield dt, health
        if health.suspected:
            return
        dt_cfl = health.dt


def run(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunResult:
    """Advance the scenario through `steps` and emit outputs; on top of the
    loop, the first and stride records, invalidation and the stop."""
    try:
        rs = RunState(cfg)
    except MHDLabError as exc:
        outcome = RunOutcome(status=RunStatus.ERROR, t_final=0.0,
                             summary={"error": str(exc), "residuals": {}})
        if out_dir is not None:
            _emit(out_dir, [], outcome)
        return RunResult(outcome=outcome)

    status = RunStatus.COMPLETED
    detected = None
    try:
        rs.record(0.0, max_grad_u(rs.state, rs.grid))
        for n, (dt, health) in enumerate(steps(rs), 1):
            if n % cfg.output_stride == 0:
                rs.record(dt, health.max_gradu)
                if rs.energy_breaches >= _INVALIDATION_STRIKES:
                    rs.failure["invalid_reason"] = (
                        "sustained energy-identity failure")
                    status = RunStatus.INVALIDATED
                    break
            if health.suspected:
                status = RunStatus.BLOWUP_DETECTED
                rs.stop_reason = health.reason
                detected = rs.state.t
        if rs.records[-1].t != rs.state.t:
            rs.record(dt, health.max_gradu)
    except MHDLabError as exc:
        status = RunStatus.ERROR
        rs.failure["error"] = str(exc)

    outcome = RunOutcome(status=status, t_final=rs.state.t, T_detected=detected,
                         summary=rs.summary())
    if out_dir is not None:
        _emit(out_dir, rs.records, outcome)
    return RunResult(outcome=outcome, records=rs.records, state=rs.state)


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
        lines.append(",".join(_fmt(getattr(rec, c)) for c in _CSV_COLUMNS))
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


def _emit(out_dir: str, records, outcome: RunOutcome) -> None:
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
    max_errors: Optional[dict] = None   # field -> max-norm error at t_end


def convergence_study(cfg: ScenarioConfig, n_list) -> List[ConvergenceRow]:
    """L2_r and max-norm errors against the manufactured fields at t_end for
    each grid size; the orders are those of the L2_r errors. The max norm
    shows what the r-weight of L2_r hides near the axis."""
    if not cfg.mms:
        raise MHDLabError("convergence_study needs a manufactured-solution config")
    rows: List[ConvergenceRow] = []
    for n in n_list:
        sub = dataclasses.replace(cfg, n=int(n))
        grid = sub.grid()
        forcing = MMSForcing(sub.phys, sub.r_outer)
        state = forcing.exact_state(grid, 0.0)
        # read-only, so its first cfl_dt and first rhs share one stage
        state.freeze()
        while state.t < sub.t_end * (1.0 - 1e-12):
            dt = cfl_dt(state, grid, sub.phys, sub.solver)
            dt = min(dt, sub.t_end - state.t)
            state = step(state, dt, sub.phys, grid, sub.solver, forcing=forcing)
        exact = forcing.exact_state(grid, state.t)
        errors, max_errors = {}, {}
        for (name, arr), (_, ref) in zip(state.fields(), exact.fields()):
            diff = arr - ref
            errors[name] = math.sqrt(max(
                integrate(diff * diff, grid, Weight.RADIAL_R), 0.0))
            max_errors[name] = float(np.maximum.reduce(np.abs(diff)))
        row = ConvergenceRow(n=int(n), errors=errors, max_errors=max_errors)
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
    """One line per row: N, the L2_r errors, the max-norm errors when every
    row has them, and the L2_r orders when there are two rows or more."""
    fields = list(rows[0].errors) if rows else []
    with_max = all(row.max_errors for row in rows)
    header = ["N"] + [f"err({f})" for f in fields]
    if with_max:
        header += [f"max({f})" for f in fields]
    if len(rows) > 1:
        header += [f"p({f})" for f in fields]
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for row in rows:
        cells = [f"{row.n:>12d}"] + [f"{row.errors[f]:>12.4e}" for f in fields]
        if with_max:
            cells += [f"{row.max_errors[f]:>12.4e}" for f in fields]
        if len(rows) > 1:
            if row.orders:
                cells += [f"{row.orders[f]:>12.3f}" for f in fields]
            else:
                cells += [f"{'-':>12}" for _ in fields]
        lines.append("  ".join(cells))
    return "\n".join(lines)
