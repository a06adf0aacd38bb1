"""Moving-domain variant of the disk solver for the free-surface problem.

The fluid occupies [0, a(t)] with a'(t) = u(a(t), t) and the stress condition

    F = B^2/2 + P - (2mu+lam)(u_r + u/r) = 0   at r = a(t).

The solver enforces F = 0 at the end of every stage on a free geometry
(`solver.enforce_boundary_stress` solves its one-sided second-order
discretization for the boundary velocity itself, a Robin relation: u_N
appears in both u_r and u/r). This module moves the mesh, remaps the fields
and checks the growth of a(t). Mesh motion is affine: the reference nodes
xi in [0,1] scale with a(t), the physical grid stays uniform (each step's grid
is a `RadialGrid` with r_outer = a(t)), and after each step the fields are
remapped onto the rescaled radii by piecewise-linear interpolation with the
mass/flux remap defect logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (FluidState, PhysParams, RadialGrid, SolverSettings,
                   integrate_to, make_grid, uniform_nodes)
from .errors import GeometryCollapse
from .solver import StepStats, enforce_boundary_stress, step as fixed_step
from .vacuum import VacuumFront, advance_front, advance_radius

# how far the free boundary may pass its growth envelope in `growth_check`
GROWTH_SLACK = 1e-8


def advance_domain(grid: RadialGrid, u: np.ndarray, dt: float) -> RadialGrid:
    """The grid on [0, a_new], with a advanced by the midpoint rule on the
    boundary velocity of the frozen field u."""
    a_new = advance_radius(u, grid, grid.r_outer, dt)
    if a_new <= 0.0:
        raise GeometryCollapse(f"free boundary radius collapsed to a={a_new}")
    return make_grid(grid.n_cells, a_new)


def remap_state(state: FluidState, grid_old: RadialGrid, grid_new: RadialGrid,
                stats: Optional[StepStats] = None) -> FluidState:
    """Resample all fields at the rescaled node radii (linear interpolation).

    np.interp extends by the end values, so the thin freshly-uncovered strip
    at an expanding boundary inherits the old boundary state; the resulting
    mass and flux defects are measured and accumulated.
    """
    # the affine radii xi * a: grid.nodes rounds differently and would move
    # the outputs' bits
    xi = uniform_nodes(grid_old.n_cells, 1.0)
    r_old = xi * grid_old.r_outer
    r_new = xi * grid_new.r_outer
    out = FluidState.of(np.array([np.interp(r_new, r_old, f) for f in state.y]),
                        state.t)
    out.pin(wall=False)
    if stats is not None:
        # defect of the interpolation itself, measured on the overlap domain
        # (the uncovered/truncated strip belongs to the boundary-flux budget)
        a_min = min(grid_old.r_outer, grid_new.r_outer)
        stats.remap_mass_defect += abs(
            integrate_to(out.rho * r_new, grid_new, a_min)
            - integrate_to(state.rho * r_old, grid_old, a_min))
        stats.remap_flux_defect += abs(
            integrate_to(out.B, grid_new, a_min)
            - integrate_to(state.B, grid_old, a_min))
    return out


def free_step(state: FluidState, dt: float, p: PhysParams, grid: RadialGrid,
              s: SolverSettings, stats: Optional[StepStats] = None,
              front: Optional[VacuumFront] = None):
    """One step of the moving-domain solver on the grid of [0, a]; returns
    (state, grid of [0, a_new], front).

    The PDE step runs on the frozen current grid, where the solver enforces
    the stress condition after every stage; the boundary and the vacuum
    front (when given; None stays None) then move with the midpoint rule on
    the time-centered velocity field, on that same grid, and the fields are
    remapped onto the rescaled radii.
    """
    new_state = fixed_step(state, dt, p, grid, s, stats=stats)
    u_mid = 0.5 * (state.u + new_state.u)
    grid_new = advance_domain(grid, u_mid, dt)
    if front is not None:
        front = advance_front(front, u_mid, grid, dt)
    new_state = remap_state(new_state, grid, grid_new, stats)
    enforce_boundary_stress(new_state, grid_new, p)
    new_state.freeze()       # read-only like a fixed step's output
    return new_state, grid_new, front


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    worst_excess: float      # max over records of a(t) - envelope(t)


def growth_check(history: Sequence, a0: float, E0: float,
                 p: PhysParams) -> GrowthReport:
    """Verify a(t) <= a0 + sqrt(t E0/(2mu+lam)) + GROWTH_SLACK on every
    record."""
    worst = -math.inf
    for rec in history:
        if rec.a_boundary is None:
            continue
        envelope = a0 + math.sqrt(max(rec.t, 0.0) * E0 / p.two_mu_lam)
        worst = max(worst, rec.a_boundary - envelope)
    return GrowthReport(passed=(worst <= GROWTH_SLACK), worst_excess=worst)
