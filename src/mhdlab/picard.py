"""Successive linearization of the disk system over a short time window.

Each sweep freezes the transport velocity at the previous iterate's velocity
trajectory V and integrates the linear system

    rho_t + (rho V)_r + rho V / r = 0
    rho (u_t + V u_r) + P_r = (2mu+lam)(u_r + u/r)_r - B (B_r + B/r)
    P_t + V P_r + gamma P (V_r + V/r) = 0
    B_t + (V B)_r = 0

by the nonlinear solver's own tendency kernel, the NumPy `disk_tendency`
with V as its transport velocity, on either kernel backend (SSP-RK3 in
time, fixed step over the window so successive iterates share their time
grid). The sweep-to-sweep contraction functional

    phi(t) = |rho~|^2 + |P~|^2 + |B~|^2 + |sqrt(rho) u~|^2     (r-weighted L2)

drives the stopping rule; at the fixed point V equals the solution velocity
and the linear system coincides with the nonlinear one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ._kernels import pure
from .core import (FluidState, Geometry, PhysParams, RadialGrid, Scheme,
                   SolverSettings, Weight, integrate)
from .errors import ConfigError
from .solver import cfl_dt, ssp_rk3

_DIVERGENCE_STRIKES = 3


@dataclass
class PicardReport:
    iterations: int = 0
    sup_phis: List[float] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    n_steps: int = 0
    dt: float = 0.0

    @property
    def contraction_ratio(self) -> float:
        """Geometric mean of the observed sweep-to-sweep ratios."""
        usable = [r for r in self.ratios if r > 0.0 and math.isfinite(r)]
        if not usable:
            return 0.0
        return float(np.exp(np.mean(np.log(usable))))


def _linear_tendency(y: FluidState, V: np.ndarray, p: PhysParams,
                     grid: RadialGrid, eps_vac: float) -> np.ndarray:
    """The disk rates with transport by the frozen V and the central flux
    on every face (no donor-cell faces)."""
    return pure.disk_tendency(grid.nodes, grid.dr, *y.y,
                              np.maximum(y.rho, eps_vac), p.two_mu_lam_0d,
                              p.gamma_0d, True, transport=V)


def _sweep(state0: FluidState, v_traj, dt: float, n_steps: int, p: PhysParams,
           grid: RadialGrid, eps_vac: float):
    """Integrate the linear system over the window against a frozen V trajectory.

    Each step is `ssp_rk3` with V at the stage times: the step's start, its
    end and their mean. Returns (trajectory, finite): the read-only state0
    and each step's state, frozen (`ssp_rk3` returns a fresh one, so no
    snapshot is copied). A sweep that leaves the floating-point range is
    truncated (remaining snapshots repeat the last state) and flagged.
    """

    def pin(y):
        y.pin(wall=True)

    traj = [state0]
    y = state0
    for k in range(n_steps):
        v_lo, v_hi = v_traj[k], v_traj[k + 1]
        stage_v = (v_lo, v_hi, 0.5 * (v_lo + v_hi))
        y = ssp_rk3(y, dt,
                    lambda x, i: _linear_tendency(x, stage_v[i], p, grid, eps_vac),
                    pin)
        y.freeze()
        if not np.isfinite(y.y).all():
            traj.extend([y] * (n_steps - k))
            return traj, False
        traj.append(y)
    return traj, True


def _phi(a: FluidState, b: FluidState, grid: RadialGrid) -> float:
    d_rho = a.rho - b.rho
    d_u = a.u - b.u
    d_p = a.P - b.P
    d_b = a.B - b.B
    return (integrate(d_rho * d_rho, grid, Weight.RADIAL_R)
            + integrate(d_p * d_p, grid, Weight.RADIAL_R)
            + integrate(d_b * d_b, grid, Weight.RADIAL_R)
            + integrate(a.rho * d_u * d_u, grid, Weight.RADIAL_R))


def picard_iterate(state0: FluidState, T_window: float, k_max: int, tol: float,
                   p: PhysParams, grid: RadialGrid, s: SolverSettings):
    """Successive linearization from state0 over [0, T_window].

    Returns (trajectory, report): the last sweep's states at the shared step
    times, read-only, and the iteration log. Divergence (sup phi growing
    three sweeps in a row) stops early and reports the best sweep.
    """
    if p.geometry is not Geometry.DISK2D:
        raise ConfigError("the linearized sweep is defined for disk2d")
    if T_window <= 0.0:
        raise ConfigError(f"window must be positive, got {T_window}")
    state0 = state0.copy()
    state0.t = 0.0
    state0.freeze()

    explicit = dataclasses.replace(s, scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)
    dt0 = cfl_dt(state0, grid, p, explicit)
    n_steps = max(1, int(math.ceil(T_window / min(dt0, T_window))))
    dt = T_window / n_steps

    report = PicardReport(n_steps=n_steps, dt=dt)
    # sweep 0: transport field frozen at the initial velocity
    v_traj = [state0.u] * (n_steps + 1)
    prev_traj = [state0] * (n_steps + 1)

    best_traj = prev_traj
    best_phi = math.inf
    strikes = 0
    for it in range(1, k_max + 1):
        # overflowing sweeps are reported as divergence, not warning spam
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            traj, finite = _sweep(state0, v_traj, dt, n_steps, p, grid, s.eps_vac)
            sup_phi = (max(_phi(a, b, grid) for a, b in zip(traj, prev_traj))
                       if finite else math.inf)
        report.iterations = it
        blown = not (finite and math.isfinite(sup_phi))
        if report.sup_phis:
            last = report.sup_phis[-1]
            report.ratios.append(sup_phi / last if last > 0.0 else 0.0)
        report.sup_phis.append(sup_phi)
        if not blown and sup_phi < best_phi:
            best_phi = sup_phi
            best_traj = traj
        if not blown and sup_phi < tol:
            report.converged = True
            return traj, report
        grew = blown or (len(report.sup_phis) >= 2
                         and sup_phi > report.sup_phis[-2])
        strikes = strikes + 1 if grew else 0
        if strikes >= _DIVERGENCE_STRIKES:
            report.diverged = True
            return best_traj, report
        prev_traj = traj
        v_traj = [st.u for st in traj]
    return best_traj, report
