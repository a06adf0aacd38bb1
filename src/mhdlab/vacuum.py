"""Vacuum front tracking and the magnetic-flux ledger.

The front R(t) is the particle path started at the initial vacuum radius:
R'(t) = u(R, t). Within the transported vacuum disk the integral of B over
[0, R(t)] is a conserved quantity C0; the ledger re-measures it on live data
to confirm the conservation law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FluidState, RadialGrid, integrate_to, interp_in_cell
from .errors import TrackingError


@dataclass(frozen=True)
class VacuumFront:
    """Current front radius R, its initial value r0, and the conserved flux C0."""

    R: float
    r0: float
    C0: float


def interp_velocity(u: np.ndarray, grid: RadialGrid, radius: float) -> float:
    """Linear-in-r interpolation of the nodal velocity at an arbitrary radius."""
    r = grid.nodes
    if radius <= r[0]:
        return float(u[0])
    if radius >= r[-1]:
        return float(u[-1])
    return float(interp_in_cell(u, grid, radius)[1])


def advance_front(front: VacuumFront, u: np.ndarray, grid: RadialGrid,
                  dt: float) -> VacuumFront:
    """One midpoint (RK2) step of R' = u(R) on the frozen velocity field u."""
    if dt <= 0.0:
        raise TrackingError(f"front step needs dt > 0, got {dt}")
    r_new = advance_radius(u, grid, front.R, dt)
    if not (0.0 < r_new <= grid.r_outer):
        raise TrackingError(
            f"front left the domain: R={r_new:.6g} not in (0, {grid.r_outer}]")
    return replace(front, R=r_new)


def advance_radius(u_field: np.ndarray, grid: RadialGrid, radius: float,
                   dt: float) -> float:
    """Midpoint step for an arbitrary tracked radius (shared with the free boundary)."""
    k1 = interp_velocity(u_field, grid, radius)
    k2 = interp_velocity(u_field, grid, radius + 0.5 * dt * k1)
    return radius + dt * k2


def vacuum_flux(state: FluidState, front: VacuumFront, grid: RadialGrid) -> float:
    """Live measurement of the vacuum flux integral of B over [0, R]."""
    return integrate_to(state.B, grid, front.R)


@dataclass(frozen=True)
class VacuumReport:
    max_rho: float
    max_P: float
    worst_node: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rho <= self.tol and self.max_P <= self.tol


def check_vacuum(state: FluidState, front: VacuumFront, grid: RadialGrid,
                 tol: float) -> VacuumReport:
    """Measure how clean the vacuum region r < R is: max of rho and P there."""
    mask = grid.nodes < front.R
    if not np.any(mask):
        return VacuumReport(0.0, 0.0, 0, tol)
    rho_in = state.rho[mask]
    p_in = state.P[mask]
    worst = int(np.argmax(np.maximum(rho_in, p_in)))
    return VacuumReport(float(rho_in.max()), float(p_in.max()), worst, tol)
