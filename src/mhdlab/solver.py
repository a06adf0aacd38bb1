"""Fixed-boundary solver for the radial/cylindrical compressible MHD system.

Spatial discretization: second-order central differences on the uniform grid,
with every f/r term replaced by its limit f_r(0) at the axis (valid because
u, v and B vanish there). Mass and induction updates use finite-volume face
fluxes so their discrete integrals telescope. A fixed Lax-Friedrichs
dissipation (coefficient 0.5 * max wavespeed * dr) is applied to the
conservative fluxes on a narrow band of faces outside the vacuum interface,
where central transport would otherwise ring; faces touching vacuum nodes
are excluded so nothing diffuses into the clean region, and the mass flux
switches to donor-cell form on those faces.

Vacuum handling is selectable:

* density-floor: divide the momentum bracket by max(rho, eps_vac) everywhere;
* elliptic-balance: nodes with rho < eps_vac drop their u time derivative and
  instead satisfy the quasi-stationary balance
      (2mu+lam)(u_r + u/r)_r = B (B_r + B/r) + P_r
  solved as a tridiagonal boundary-value problem on the vacuum block with
  u(0) = 0 and continuity of u at the block's outer edge. Swirl and axial
  velocity take their quasi-stationary profiles there (v linear in r, w
  constant), which the discrete operators annihilate exactly.

Time integration: three-stage SSP Runge-Kutta on the full tendency, or a
Strang split with midpoint half-steps for the inviscid terms around an
implicit tridiagonal solve of the viscous operators. The implicit solve uses
the trapezoidal rule, falling back to backward Euler row-wise wherever the
cell Fourier number dt*nu/dr^2 is extreme (vacuum-adjacent cells), which
keeps the stiff modes damped without losing second order in smooth regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import _kernels as kern
from .core import FluidState, PhysParams, RadialGrid, Weight, integrate
from .errors import DtCollapse, NumericalFailure

_FOURIER_SWITCH = 1e3      # trapezoidal -> backward Euler switch per row
_DT_EPS = 1e-300
_LF_BAND = 16              # faces outside the vacuum edge that get LF dissipation


class Scheme(Enum):
    SSPRK3_EXPLICIT_VISCOUS = "ssprk3"
    RK2_IMPLICIT_VISCOUS = "rk2-imp"


class VacuumStrategy(Enum):
    DENSITY_FLOOR = "density-floor"
    ELLIPTIC_BALANCE = "elliptic-balance"


@dataclass
class SolverSettings:
    cfl: float = 0.4
    scheme: Scheme = Scheme.RK2_IMPLICIT_VISCOUS
    vacuum_strategy: VacuumStrategy = VacuumStrategy.ELLIPTIC_BALANCE
    eps_vac: float = 1e-6
    blowup_gradu_max: float = 1e4
    dt_min: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.cfl < 1.0):
            raise ValueError(f"cfl must lie in (0,1), got {self.cfl}")
        if self.eps_vac <= 0.0 or self.blowup_gradu_max <= 0.0 or self.dt_min <= 0.0:
            raise ValueError("eps_vac, blowup_gradu_max and dt_min must be positive")


@dataclass
class Tendency:
    drho: np.ndarray
    du: np.ndarray
    dP: np.ndarray
    dB: np.ndarray
    dv: Optional[np.ndarray] = None
    dw: Optional[np.ndarray] = None


@dataclass
class StepStats:
    """Per-run bookkeeping owned by one solver run."""

    clipped_mass: float = 0.0        # cumulative r-weighted density clipped at 0
    clipped_pressure: float = 0.0
    lf_coeff: float = 0.0            # last Lax-Friedrichs coefficient in use
    balance_solves: int = 0


def vacuum_block(rho: np.ndarray, eps_vac: float) -> int:
    """Index of the last node of the vacuum prefix (rho < eps_vac), or -1."""
    vac = rho < eps_vac
    if not vac[0]:
        return -1
    nz = np.nonzero(~vac)[0]
    return int(nz[0] - 1) if len(nz) else len(rho) - 1


def signal_speeds(state: FluidState, p: PhysParams, s: SolverSettings) -> np.ndarray:
    """Per-node |u| + c_s + c_A with rho* = max(rho, eps_vac).

    Under the elliptic-balance strategy vacuum nodes are quasi-stationary: no
    acoustic or Alfven dynamics live there, so only |u| counts. The floor
    densities would otherwise make c_A = |B|/sqrt(eps_vac) dominate the step
    size for no physical reason.
    """
    rho_star = np.maximum(state.rho, s.eps_vac)
    cs = np.sqrt(p.gamma * state.P / rho_star)
    ca = np.sqrt(state.B * state.B / rho_star)
    speeds = np.abs(state.u) + cs + ca
    if s.vacuum_strategy is VacuumStrategy.ELLIPTIC_BALANCE:
        vac = state.rho < s.eps_vac
        speeds = np.where(vac, np.abs(state.u), speeds)
    return speeds


def _face_controls(state: FluidState, grid: RadialGrid, p: PhysParams,
                   s: SolverSettings, stats: Optional[StepStats],
                   vac: np.ndarray, m: int):
    """Per-face LF coefficients and donor-cell flags around the vacuum edge.

    vac is the vacuum mask rho < eps_vac and m the vacuum block's last node.
    """
    n = grid.n_cells
    lf_fc = np.zeros(n)
    up_fc = np.zeros(n, dtype=np.uint8)
    if not np.any(vac):
        return lf_fc, up_fc
    up_fc[:] = vac[:-1] | vac[1:]
    if 0 <= m < n - 1:
        a_max = float(np.max(signal_speeds(state, p, s)))
        coeff = 0.5 * a_max * grid.dr
        if stats is not None:
            stats.lf_coeff = coeff
        lo = m + 1
        hi = min(m + _LF_BAND, n - 1)
        band = np.arange(lo, hi + 1)
        band = band[up_fc[band] == 0]
        lf_fc[band] = coeff
    return lf_fc, up_fc


def _check_finite(state: FluidState):
    for name, arr in state.fields():
        bad = ~np.isfinite(arr)
        if bad.any():
            raise NumericalFailure(f"non-finite {name}", node=int(np.argmax(bad)))


def _rhs_prologue(state: FluidState, p: PhysParams, grid: RadialGrid,
                  s: SolverSettings, stats: Optional[StepStats]):
    """Finite check, floored density, vacuum block and face controls shared by
    both rhs; the block index m is found once and serves both ends."""
    _check_finite(state)
    rho_star = np.maximum(state.rho, s.eps_vac)
    m = vacuum_block(state.rho, s.eps_vac)
    faces = _face_controls(state, grid, p, s, stats, state.rho < s.eps_vac, m)
    return rho_star, m, faces


def _rhs_epilogue(tend: Tendency, state: FluidState, grid: RadialGrid,
                  s: SolverSettings, rho_star: np.ndarray, m: int,
                  forcing) -> Tendency:
    """Freeze the velocities on the vacuum block [0, m] and add any forcing."""
    if s.vacuum_strategy is VacuumStrategy.ELLIPTIC_BALANCE and m >= 0:
        # quasi-stationary: the velocities are set by the balance
        for d in (tend.du, tend.dv, tend.dw):
            if d is not None:
                d[:m + 1] = 0.0
    if forcing is not None:
        f = forcing(grid.nodes, state.t)
        tend.drho += f[0]
        tend.du += f[1] / rho_star
        tend.dP += f[2]
        tend.dB += f[3]
        tend.du[0] = tend.du[-1] = 0.0
    return tend


def rhs_disk(state: FluidState, p: PhysParams, grid: RadialGrid, s: SolverSettings,
             include_visc: bool = True, forcing=None,
             stats: Optional[StepStats] = None) -> Tendency:
    """Tendency of the 2D radial system (see module docstring for the scheme)."""
    rho_star, m, (lf_fc, up_fc) = _rhs_prologue(state, p, grid, s, stats)
    drho, du, dP, dB = kern.disk_tendency(
        grid.nodes, grid.dr, state.rho, state.u, state.P, state.B, rho_star,
        p.two_mu_lam, p.gamma, include_visc, lf_fc, up_fc)
    return _rhs_epilogue(Tendency(drho=drho, du=du, dP=dP, dB=dB), state, grid,
                         s, rho_star, m, forcing)


def rhs_cylinder(state: FluidState, p: PhysParams, grid: RadialGrid,
                 s: SolverSettings, include_visc: bool = True, forcing=None,
                 stats: Optional[StepStats] = None) -> Tendency:
    """Tendency of the cylindrically symmetric system (adds swirl and axial flow)."""
    rho_star, m, (lf_fc, up_fc) = _rhs_prologue(state, p, grid, s, stats)
    drho, du, dv, dw, dP, dB = kern.cylinder_tendency(
        grid.nodes, grid.dr, state.rho, state.u, state.v, state.w, state.P,
        state.B, rho_star, p.two_mu_lam, p.mu, p.gamma, include_visc, lf_fc, up_fc)
    return _rhs_epilogue(Tendency(drho=drho, du=du, dP=dP, dB=dB, dv=dv, dw=dw),
                         state, grid, s, rho_star, m, forcing)


def rhs(state, p, grid, s, **kw) -> Tendency:
    if p.geometry.has_swirl:
        return rhs_cylinder(state, p, grid, s, **kw)
    return rhs_disk(state, p, grid, s, **kw)


# ---------------------------------------------------------------------------
# Time-step control and blow-up detection
# ---------------------------------------------------------------------------

def cfl_dt(state: FluidState, grid: RadialGrid, p: PhysParams,
           s: SolverSettings) -> float:
    """Stable step: advective dr/(|u|+c_s+c_A) and, for the explicit scheme,
    the diffusive dr^2 rho* / (2(2mu+lam)) restriction; cfl-scaled minimum."""
    _check_finite(state)
    speeds = signal_speeds(state, p, s)
    vmax = float(np.max(speeds))
    dt = grid.dr / vmax if vmax > _DT_EPS else np.inf
    if s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        rho_star = np.maximum(state.rho, s.eps_vac)
        if s.vacuum_strategy is VacuumStrategy.ELLIPTIC_BALANCE:
            m = vacuum_block(state.rho, s.eps_vac)
            rho_floor = float(np.min(rho_star[m + 1:])) if m < grid.n_cells else np.inf
        else:
            rho_floor = float(np.min(rho_star))
        dt = min(dt, grid.dr ** 2 * rho_floor / (2.0 * p.two_mu_lam))
    dt *= s.cfl
    if dt < s.dt_min:
        raise DtCollapse(dt, s.dt_min)
    return dt


@dataclass(frozen=True)
class Health:
    suspected: bool
    reason: Optional[str]
    max_gradu: float
    dt: Optional[float] = None       # cfl_dt of the state when healthy

    def __bool__(self):
        return not self.suspected


def max_grad_u(state: FluidState, grid: RadialGrid) -> float:
    """max over nodes of max(|u_r|, |u/r|), u/r taken as u_r(0) at the axis."""
    ur, uor = kern.radial_parts(state.u, grid.nodes, grid.dr)
    return float(np.max(np.maximum(np.abs(ur), np.abs(uor))))


def detect_blowup(state: FluidState, grid: RadialGrid, p: PhysParams,
                  s: SolverSettings) -> Health:
    for name, arr in state.fields():
        if not np.all(np.isfinite(arr)):
            return Health(True, f"non-finite {name}", np.inf)
    g = max_grad_u(state, grid)
    if g > s.blowup_gradu_max:
        return Health(True, "gradu", g)
    try:
        dt = cfl_dt(state, grid, p, s)
    except DtCollapse:
        return Health(True, "dt", g)
    return Health(False, None, g, dt)


# ---------------------------------------------------------------------------
# Vacuum elliptic balance and implicit viscous solves
# ---------------------------------------------------------------------------

def apply_vacuum_balance(state: FluidState, p: PhysParams, grid: RadialGrid,
                         s: SolverSettings, stats: Optional[StepStats] = None) -> int:
    """Impose the quasi-stationary vacuum velocity on the block rho < eps_vac.

    Returns the block's last node index (-1 when there is no block). Mutates
    u (and v, w for the cylinder) in place.
    """
    if s.vacuum_strategy is not VacuumStrategy.ELLIPTIC_BALANCE:
        return -1
    m = vacuum_block(state.rho, s.eps_vac)
    if m < 1:
        return m
    n = grid.n_cells
    r = grid.nodes
    dr = grid.dr
    # edge node supplying the outer continuity value; with the whole domain
    # classified vacuum the Dirichlet end u(R)=0 closes the problem instead
    edge = min(m + 1, n)
    u_edge = float(state.u[edge])
    sub, sup, swirl, _ = grid.lap_rows
    sub, diag, sup = sub[1:edge], swirl[1:edge], sup[1:edge]
    # B (B_r + B/r) + P_r on the block's rows 1..edge-1 only, with the
    # interior central differences of kern.gradient
    B = state.B[1:edge]
    Br = (state.B[2:edge + 1] - state.B[:edge - 1]) / (2.0 * dr)
    Pr = (state.P[2:edge + 1] - state.P[:edge - 1]) / (2.0 * dr)
    rhs_vec = (B * (Br + B / r[1:edge]) + Pr) / p.two_mu_lam
    rhs_vec[-1] -= sup[-1] * u_edge
    try:
        sol = kern.thomas(sub[1:], diag, sup[:-1], rhs_vec)
    except ZeroDivisionError as exc:
        raise NumericalFailure(f"singular vacuum balance solve: {exc}") from None
    except ValueError as exc:
        raise NumericalFailure(f"non-finite vacuum balance system: {exc}") from None
    if not np.all(np.isfinite(sol)):
        raise NumericalFailure("vacuum balance solve produced non-finite velocity")
    state.u[1:edge] = sol
    state.u[0] = 0.0
    if state.v is not None:
        # mu (v_r + v/r)_r = 0 with v(0)=0  ->  v linear in r (discretely exact);
        # mu (r w_r)_r / r = 0 with w_r(0)=0  ->  w constant
        state.v[:edge] = state.v[edge] * r[:edge] / r[edge]
        state.v[0] = 0.0
        state.w[:edge] = state.w[edge]
    if stats is not None:
        stats.balance_solves += 1
    return m


def _theta_rows(fo: np.ndarray) -> np.ndarray:
    return np.where(fo <= _FOURIER_SWITCH, 0.5, 1.0)


def _implicit_component(f: np.ndarray, nu: np.ndarray, grid: RadialGrid,
                        dt: float, lo: int, hi: int, swirl: bool) -> None:
    """Theta-scheme solve of f_t = nu * L f on nodes [lo, hi], Dirichlet outside.

    swirl=True is the vector operator (f_r + f/r)_r, swirl=False the axial
    one (r f_r)_r / r. lo=0 includes the r=0 node with the symmetric axial
    operator (used for w, which has no center pin): L w(0) = 4 (w1 - w0)/dr^2.
    """
    if hi < lo:
        return
    dr = grid.dr
    idx = np.arange(lo, hi + 1)
    sub, sup, swirl_diag, axial_diag = grid.lap_rows
    diag = (swirl_diag if swirl else axial_diag)[lo:hi + 1]
    sub, sup = sub[lo:hi + 1], sup[lo:hi + 1]
    nu_i = nu[idx]
    fo = dt * nu_i / (dr * dr)
    theta = _theta_rows(fo)

    # explicit part (1-theta) * dt * nu * L f_old
    fl = f[np.maximum(idx - 1, 0)]
    fc = f[idx]
    fr = f[np.minimum(idx + 1, len(f) - 1)]
    lf = sub * fl + diag * fc + sup * fr
    if lo == 0:
        lf[0] = diag[0] * f[0] + sup[0] * f[1]
    rhs_vec = fc + dt * (1.0 - theta) * nu_i * lf

    a = -dt * theta * nu_i * sub
    b = 1.0 - dt * theta * nu_i * diag
    c = -dt * theta * nu_i * sup
    # Dirichlet neighbours folded into the right-hand side
    if lo > 0:
        rhs_vec[0] -= a[0] * f[lo - 1]
    rhs_vec[-1] -= c[-1] * f[hi + 1] if hi + 1 < len(f) else 0.0
    try:
        sol = kern.thomas(a[1:], b, c[:-1], rhs_vec)
    except ZeroDivisionError as exc:
        raise NumericalFailure(f"singular viscous solve: {exc}") from None
    except ValueError as exc:
        raise NumericalFailure(f"non-finite viscous system: {exc}") from None
    if not np.all(np.isfinite(sol)):
        raise NumericalFailure("implicit viscous solve produced non-finite values")
    f[idx] = sol


def implicit_viscous(state: FluidState, p: PhysParams, grid: RadialGrid,
                     s: SolverSettings, dt: float) -> None:
    """In-place implicit update of the viscous operators over the fluid nodes."""
    n = grid.n_cells
    rho_star = np.maximum(state.rho, s.eps_vac)
    if s.vacuum_strategy is VacuumStrategy.ELLIPTIC_BALANCE:
        m = vacuum_block(state.rho, s.eps_vac)
    else:
        m = -1
    lo = m + 1 if m >= 0 else 1
    lo = max(lo, 1)
    hi = n - 1
    nu_u = p.two_mu_lam / rho_star
    _implicit_component(state.u, nu_u, grid, dt, lo, hi, swirl=True)
    if state.v is not None:
        nu_v = p.mu / rho_star
        _implicit_component(state.v, nu_v, grid, dt, lo, hi, swirl=True)
        lo_w = m + 1 if m >= 0 else 0
        _implicit_component(state.w, nu_v, grid, dt, lo_w, hi, swirl=False)


# ---------------------------------------------------------------------------
# Stage assembly and the step operator
# ---------------------------------------------------------------------------

def apply_tendency(state: FluidState, tend: Tendency, dt: float) -> FluidState:
    """state + dt * tend, field by field, at time t + dt."""
    return state.map(lambda name, f: f + dt * getattr(tend, "d" + name),
                     state.t + dt)


def blend(a: FluidState, wa: float, b: FluidState, wb: float, t: float) -> FluidState:
    """wa * a + wb * b, field by field, at time t (an SSP stage combination)."""
    return a.map(lambda name, f: wa * f + wb * getattr(b, name), t)


def finalize_stage(state: FluidState, p: PhysParams, grid: RadialGrid,
                   s: SolverSettings, stats: Optional[StepStats] = None,
                   free_bc=None) -> None:
    """Re-pin boundary values, clip rho and P at zero, refresh the vacuum block."""
    state.pin(wall=free_bc is None)
    neg = state.rho < 0.0
    if neg.any():
        if stats is not None:
            stats.clipped_mass += -integrate(np.minimum(state.rho, 0.0), grid,
                                             Weight.RADIAL_R)
        state.rho[neg] = 0.0
    neg = state.P < 0.0
    if neg.any():
        if stats is not None:
            stats.clipped_pressure += -integrate(np.minimum(state.P, 0.0), grid,
                                                 Weight.RADIAL_R)
        state.P[neg] = 0.0
    if free_bc is not None:
        free_bc(state)
    apply_vacuum_balance(state, p, grid, s, stats)


def _ssprk3(state, dt, p, grid, s, stats, forcing, free_bc):
    def L(y):
        return rhs(y, p, grid, s, include_visc=True, forcing=forcing, stats=stats)

    y0 = state
    y1 = apply_tendency(y0, L(y0), dt)
    finalize_stage(y1, p, grid, s, stats, free_bc)
    y2 = blend(y0, 0.75, apply_tendency(y1, L(y1), dt), 0.25, y0.t + 0.5 * dt)
    finalize_stage(y2, p, grid, s, stats, free_bc)
    y3 = blend(y0, 1.0 / 3.0, apply_tendency(y2, L(y2), dt), 2.0 / 3.0, y0.t + dt)
    finalize_stage(y3, p, grid, s, stats, free_bc)
    return y3


def _inviscid_half(state, h, p, grid, s, stats, forcing, free_bc):
    def L(y):
        return rhs(y, p, grid, s, include_visc=False, forcing=forcing, stats=stats)

    k1 = L(state)
    ym = apply_tendency(state, k1, 0.5 * h)
    finalize_stage(ym, p, grid, s, stats, free_bc)
    k2 = L(ym)
    out = apply_tendency(state, k2, h)
    out.t = state.t + h
    finalize_stage(out, p, grid, s, stats, free_bc)
    return out


def _rk2_strang(state, dt, p, grid, s, stats, forcing, free_bc):
    y = _inviscid_half(state, 0.5 * dt, p, grid, s, stats, forcing, free_bc)
    implicit_viscous(y, p, grid, s, dt)
    finalize_stage(y, p, grid, s, stats, free_bc)
    y = _inviscid_half(y, 0.5 * dt, p, grid, s, stats, forcing, free_bc)
    return y


def step(state: FluidState, dt: float, p: PhysParams, grid: RadialGrid,
         s: SolverSettings, stats: Optional[StepStats] = None, forcing=None,
         free_bc=None) -> FluidState:
    """Advance one step of size dt; returns a new state, never mutates input."""
    if dt <= 0.0:
        raise ValueError(f"step needs dt > 0, got {dt}")
    work = state.copy()
    if s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        out = _ssprk3(work, dt, p, grid, s, stats, forcing, free_bc)
    else:
        out = _rk2_strang(work, dt, p, grid, s, stats, forcing, free_bc)
    out.t = state.t + dt
    _check_finite(out)
    return out
