"""Blow-up diagnostics evaluated on live solver data.

Covers the energy/dissipation ledger, the divergence norm and its explicit
lower bound in the vacuum regime, the fractional-moment integral pair built
from the multiplier R r^alpha - r^(alpha+1), the Cauchy-Schwarz flux
inequality, and the closed-form lifespan bounds with alpha optimization.

All integrals use the shared trapezoid quadrature; integrals that stop at the
tracked front radius interpolate the final partial cell linearly. L2 norms
follow the r-weighted convention with the angular factor dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import _kernels as kern
from .core import (FluidState, Geometry, PhysParams, RadialGrid,
                   ScenarioConfig, Weight, integrate, integrate_to)
from .errors import ConfigError

if TYPE_CHECKING:
    from .vacuum import VacuumFront

ALPHA_MIN_CYLINDER = 7.0 / 6.0
_EXP_OVERFLOW = 700.0


# ---------------------------------------------------------------------------
# Field helpers
# ---------------------------------------------------------------------------

def divergence(state: FluidState, grid: RadialGrid) -> np.ndarray:
    """u_r + u/r on the nodes; the axis value is the limit 2 u_r(0)."""
    ur, uor = kern.radial_parts(state.u, grid.nodes, grid.dr)
    return ur + uor


def total_energy(state: FluidState, grid: RadialGrid, p: PhysParams) -> float:
    """Kinetic + internal + magnetic energy, r-weighted, angular factor dropped."""
    kin = np.square(state.y[1:-2]).sum(axis=0)     # |velocity|^2
    dens = 0.5 * state.rho * kin + state.P / (p.gamma - 1.0) + 0.5 * state.B * state.B
    return integrate(dens, grid, Weight.RADIAL_R)


def dissipation_rate(state: FluidState, grid: RadialGrid, p: PhysParams) -> float:
    """Instantaneous viscous dissipation functional of the energy balance.

    Disk: (2mu+lam) * integral (u_r + u/r)^2 r dr.
    Cylinder: integral [(2mu+lam)(r u_r^2 + u^2/r) + mu (r v_r^2 + v^2/r)
                        + mu r w_r^2] dr.
    """
    r = grid.nodes
    dr = grid.dr
    if state.v is None:
        s = divergence(state, grid)
        return p.two_mu_lam * integrate(s * s, grid, Weight.RADIAL_R)
    ur = kern.axis_gradient(state.u, dr)
    vr = kern.axis_gradient(state.v, dr)
    wr = kern.gradient(state.w, dr)
    u2_over_r = np.zeros_like(r)
    v2_over_r = np.zeros_like(r)
    u2_over_r[1:] = state.u[1:] ** 2 / r[1:]
    v2_over_r[1:] = state.v[1:] ** 2 / r[1:]
    dens = (p.two_mu_lam * (r * ur * ur + u2_over_r)
            + p.mu * (r * vr * vr + v2_over_r)
            + p.mu * r * wr * wr)
    return integrate(dens, grid, Weight.PLAIN)


def div_norm(state: FluidState, grid: RadialGrid) -> float:
    """(integral (u_r + u/r)^2 r dr)^(1/2)."""
    s = divergence(state, grid)
    return math.sqrt(max(integrate(s * s, grid, Weight.RADIAL_R), 0.0))


# ---------------------------------------------------------------------------
# Records and the energy ledger
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation_cum: float
    div_l2: float
    max_gradu: float
    dt: float
    div_lower_bound: Optional[float] = None
    moment_lhs: Optional[float] = None
    moment_rhs: Optional[float] = None
    flux_vacuum: Optional[float] = None
    R_front: Optional[float] = None
    a_boundary: Optional[float] = None


@dataclass(frozen=True)
class EnergyResidual:
    """Energy-ledger defect relative to E0 over a record history.

    abs_residual  = max_t |E(t) + D(t) - E0| / E0
    signed_max    = max_t (E(t) + D(t) - E0) / E0   (creation only counts
                    against the fixed-boundary inequality)
    """

    abs_residual: float
    signed_max: float
    e0: float


def energy_residual(history: Sequence[DiagnosticsRecord]) -> EnergyResidual:
    if len(history) < 2:
        raise ConfigError("energy residual needs at least two records")
    e0 = history[0].energy + history[0].dissipation_cum
    if e0 <= 0.0:
        return EnergyResidual(0.0, 0.0, e0)
    defects = [(rec.energy + rec.dissipation_cum - e0) / e0 for rec in history]
    return EnergyResidual(max(abs(d) for d in defects), max(defects), e0)


# ---------------------------------------------------------------------------
# The fractional-moment chain
# ---------------------------------------------------------------------------

def moment_coefficient(alpha: float) -> float:
    """g(alpha) = alpha/sqrt(2 alpha - 2) + (alpha+1)/sqrt(2 alpha)."""
    if not (1.0 < alpha < 2.0):
        raise ConfigError(f"moment exponent must lie in (1, 2), got {alpha}")
    return alpha / math.sqrt(2.0 * alpha - 2.0) + (alpha + 1.0) / math.sqrt(2.0 * alpha)


def moment_pair(state: FluidState, front: VacuumFront, grid: RadialGrid,
                p: PhysParams, alpha: float):
    """The two sides of the moment identity on [0, R].

    lhs       = -(2mu+lam) * int (alpha R r^(a-1) - (a+1) r^a)(u_r + u/r) dr
    rhs       = int [(1 - a/2) B^2 R r^(a-1) + ((a-1)/2) B^2 r^a] dr
    rhs_floor = ((2-a)/2) R int B^2 r^(a-1) dr
    """
    if not (1.0 < alpha < 2.0):
        raise ConfigError(f"moment exponent must lie in (1, 2), got {alpha}")
    r = grid.nodes
    R = front.R
    s = divergence(state, grid)
    ra1 = r ** (alpha - 1.0)
    ra = r ** alpha
    lhs = -p.two_mu_lam * integrate_to(
        (alpha * R * ra1 - (alpha + 1.0) * ra) * s, grid, R, Weight.PLAIN)
    b2 = state.B * state.B
    rhs = integrate_to((1.0 - 0.5 * alpha) * b2 * R * ra1
                       + 0.5 * (alpha - 1.0) * b2 * ra, grid, R, Weight.PLAIN)
    rhs_floor = 0.5 * (2.0 - alpha) * R * integrate_to(b2 * ra1, grid, R, Weight.PLAIN)
    return lhs, rhs, rhs_floor


def moment_pre_ibp(state: FluidState, front: VacuumFront, grid: RadialGrid,
                   p: PhysParams, alpha: float) -> float:
    """Pre-integration-by-parts form of the moment lhs (times 2mu+lam):

        (2mu+lam) * int (R r^a - r^(a+1)) d/dr (u_r + u/r) dr

    Used to cross-check the integration by parts at the discrete level.
    """
    r = grid.nodes
    R = front.R
    s = divergence(state, grid)
    s_r = kern.gradient(s, grid.dr)
    mult = R * r ** alpha - r ** (alpha + 1.0)
    return p.two_mu_lam * integrate_to(mult * s_r, grid, R, Weight.PLAIN)


def cauchy_schwarz_gap(state: FluidState, front: VacuumFront, grid: RadialGrid,
                       alpha: float) -> float:
    """Slack of (int B dr)^2 <= (int B^2 r^(a-1) dr) * R^(2-a)/(2-a) on [0, R]."""
    if not (1.0 < alpha < 2.0):
        raise ConfigError(f"moment exponent must lie in (1, 2), got {alpha}")
    r = grid.nodes
    R = front.R
    b2ra = state.B * state.B * r ** (alpha - 1.0)
    first = integrate_to(b2ra, grid, R, Weight.PLAIN)
    flux = integrate_to(state.B, grid, R, Weight.PLAIN)
    return first * R ** (2.0 - alpha) / (2.0 - alpha) - flux * flux


# ---------------------------------------------------------------------------
# Lifespan bounds
# ---------------------------------------------------------------------------

def check_alpha(alpha: float, geometry: Geometry) -> None:
    """ConfigError unless the moment exponent alpha is admissible for the
    geometry: in (1, 2), and at least 7/6 on cylinder3d."""
    if geometry.has_swirl:
        ok, span = ALPHA_MIN_CYLINDER <= alpha < 2.0, "[7/6, 2)"
    else:
        ok, span = 1.0 < alpha < 2.0, "(1, 2)"
    if not ok:
        raise ConfigError(f"alpha={alpha} outside the admissible range {span} "
                          f"for {geometry.value}")


@dataclass(frozen=True)
class BoundInputs:
    """Closed-form bound inputs: viscosities, reference radius (R0 for fixed
    boundaries, the growth-envelope constant C for the free boundary),
    conserved flux, initial energy, and the moment exponent."""

    mu: float
    lam: float
    R_ref: float
    C0: float
    E0: float
    alpha: float
    geometry: Geometry

    def __post_init__(self):
        check_alpha(self.alpha, self.geometry)

    @property
    def two_mu_lam(self) -> float:
        return 2.0 * self.mu + self.lam


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


def div_lower_bound(b: BoundInputs, R_now: float) -> float:
    """C0^2 (2-alpha)^2 / (2 (2mu+lam) R_now g(alpha)).

    With R_now = R0 this is the static vacuum-regime bound; the free boundary
    substitutes R_now = a(t).
    """
    if R_now <= 0.0:
        raise ConfigError(f"bound radius must be positive, got {R_now}")
    g = moment_coefficient(b.alpha)
    return (b.C0 * b.C0 * (2.0 - b.alpha) ** 2
            / (2.0 * b.two_mu_lam * R_now * g))


def lifespan_bound(b: BoundInputs) -> float:
    """Closed-form upper bound on the strong solution's lifespan.

    Disk:     T = E0 * [ (2-a)^2 C0^2 / (2 g sqrt(2mu+lam) R0) ]^-2
    Cylinder: exactly 2x the disk value at matched inputs (the sqrt(2) in the
              denominator of the bracket squares to 2)
    Free:     T = exp( E0 * [ (2-a)^2 C0^2 / (2 g sqrt(2mu+lam) C) ]^-2 ) - 1
    """
    g = moment_coefficient(b.alpha)
    if b.C0 == 0.0:
        return math.inf
    k = (2.0 - b.alpha) ** 2 * b.C0 * b.C0 / (2.0 * g)
    if b.geometry is Geometry.DISK2D_FREE:
        exponent = b.E0 * (math.sqrt(b.two_mu_lam) * b.R_ref / k) ** 2
        if exponent > _EXP_OVERFLOW:
            return math.inf
        return math.expm1(exponent)
    t_disk = b.E0 * (math.sqrt(b.two_mu_lam) * b.R_ref / k) ** 2
    if b.geometry.has_swirl:
        return 2.0 * t_disk
    return t_disk


ALPHA_STEP = 1e-4


def optimize_alpha(b_template: BoundInputs):
    """Brute grid search (step 1e-4) for the alpha minimizing the lifespan bound."""
    lo = ALPHA_MIN_CYLINDER if b_template.geometry.has_swirl else 1.0 + ALPHA_STEP
    alphas = np.arange(lo, 2.0 - 0.5 * ALPHA_STEP, ALPHA_STEP)
    # T(alpha) is a positive multiple of h(alpha)^-2 (or exp thereof) with
    # h = (2-a)^2 / g(a), so minimizing T is maximizing h; evaluating h keeps
    # the search finite even when E0 or C0 push T to overflow.
    g = alphas / np.sqrt(2.0 * alphas - 2.0) + (alphas + 1.0) / np.sqrt(2.0 * alphas)
    h = (2.0 - alphas) ** 2 / g
    alpha_star = float(alphas[int(np.argmax(h))])
    return alpha_star, lifespan_bound(replace(b_template, alpha=alpha_star))
