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

In the vacuum (the block of nodes with rho < eps_vac next to the axis) the
momentum equation degenerates: the velocities drop their time derivative and
instead satisfy the quasi-stationary balance
    (2mu+lam)(u_r + u/r)_r = B (B_r + B/r) + P_r
solved as a tridiagonal boundary-value problem on the block with u(0) = 0
and continuity of u at the block's outer edge. Swirl and axial velocity take
their quasi-stationary profiles there (v linear in r, w constant), which the
discrete operators annihilate exactly.

Time integration: three-stage SSP Runge-Kutta on the full tendency, or a
Strang split with midpoint half-steps for the inviscid terms around an
implicit tridiagonal solve of the viscous operators. The implicit solve uses
the trapezoidal rule, falling back to backward Euler row-wise wherever the
cell Fourier number dt*nu/dr^2 is extreme (vacuum-adjacent cells), which
keeps the stiff modes damped without losing second order in smooth regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels as kern
from .core import (FluidState, PhysParams, RadialGrid, Scheme, SolverSettings,
                   Weight, integrate, stacked_row)
from .errors import DtCollapse, NumericalFailure

_FOURIER_SWITCH = 1e3      # trapezoidal -> backward Euler switch per row
_DT_EPS = 1e-300
_LF_BAND = 16              # faces outside the vacuum edge that get LF dissipation


class Tendency:
    """Rates of a state's fields: y has the state's shape and row order."""

    __slots__ = ("y",)

    def __init__(self, y: np.ndarray):
        self.y = y

    drho = stacked_row(0)
    du = stacked_row(1)
    dv = stacked_row(2, swirl=True)
    dw = stacked_row(3, swirl=True)
    dP = stacked_row(-2)
    dB = stacked_row(-1)


@dataclass
class StepStats:
    """Per-run bookkeeping owned by one solver run."""

    clipped_mass: float = 0.0        # cumulative r-weighted density clipped at 0
    clipped_pressure: float = 0.0
    lf_coeff: float = 0.0            # last Lax-Friedrichs coefficient in use
    balance_solves: int = 0


def vacuum_block(rho: np.ndarray, eps_vac: float) -> int:
    """Index of the last node of the vacuum prefix (rho < eps_vac), or -1."""
    return _block_end(rho < eps_vac)


def _block_end(vac: np.ndarray) -> int:
    """Index of the last node of the prefix of vacuum mask vac, or -1."""
    # the first fluid node; argmin gives 0 also when every node is vacuum
    k = int(vac.argmin())
    return len(vac) - 1 if vac[k] else k - 1


def _check_finite(state: FluidState):
    """Raise NumericalFailure at the first non-finite node of the first field
    holding one."""
    ok = np.isfinite(state.y)
    # argmin finds the first False in row order (index 0 when there is none)
    k = int(ok.argmin())
    if not ok.item(k):
        row, node = divmod(k, ok.shape[1])
        raise NumericalFailure(f"non-finite {state.fields()[row][0]}", node=node)


class _Stage:
    """What the solver derives from one state whose arrays no longer change.

    rho* = max(rho, eps_vac), the vacuum mask rho < eps_vac, the vacuum
    block's last node m and whether any node is vacuum are built at once;
    the finiteness scan, the signal speeds and their maximum on first use.
    Each is one direct NumPy call (a ufunc, its reduce, argmin/argmax), not
    a Python-level wrapper such as np.max or ndarray.any. A stage rides on
    its state (`FluidState._stage`) only while no one else writes into its
    array y: inside a step, where the solver owns every write, and on a
    read-only y (a step's output, a run's initial state); assigning a field
    gives the state a new y, which the stage does not serve. Every in-place
    write to u, v, w while a stage rides on the state
    (`apply_vacuum_balance`, `implicit_viscous`, the re-pinning after it)
    calls `forget_velocities`; rho and P are never written once the stage
    exists. The methods take the state instead of the stage holding it, so
    a state and its stage form no reference cycle and are freed as soon as
    the state is dropped.
    """

    __slots__ = ("p", "s", "y", "rho_star", "vac", "m", "any_vac",
                 "_scanned", "_failure", "_speeds", "_max_speed")

    def __init__(self, state: FluidState, p: PhysParams, s: SolverSettings):
        self.p = p
        self.s = s
        self.y = state.y
        rho = state.rho
        self.rho_star = np.maximum(rho, s.eps_vac)
        self.vac = rho < s.eps_vac
        self.m = _block_end(self.vac)
        # argmax finds the first vacuum node (index 0 when there is none)
        self.any_vac = self.m >= 0 or self.vac.item(self.vac.argmax())
        self.forget_velocities()

    def serves(self, state: FluidState, p: PhysParams, s: SolverSettings) -> bool:
        # identity first: a run passes the same settings and parameters
        return (self.y is state.y and (self.s is s or self.s == s)
                and (self.p is p or self.p == p))

    def forget_velocities(self) -> None:
        """Drop what an in-place write to u (v, w) makes stale."""
        self._scanned = False
        self._failure = None
        self._speeds = None
        self._max_speed = None

    def check_finite(self, state: FluidState) -> None:
        """`_check_finite(state)`, scanning the arrays at most once."""
        if not self._scanned:
            try:
                _check_finite(state)
            except NumericalFailure as exc:
                self._failure = exc
            self._scanned = True
        if self._failure is not None:
            raise NumericalFailure(self._failure.reason, node=self._failure.node)

    def speeds(self, state: FluidState) -> np.ndarray:
        """Per-node |u| + c_s + c_A (see `signal_speeds`), built on first use."""
        if self._speeds is None:
            # (|u| + c_s) + c_A, built in the c_s array
            out = self.p.gamma * state.P
            out /= self.rho_star
            np.sqrt(out, out=out)
            ca = state.B * state.B
            ca /= self.rho_star
            np.sqrt(ca, out=ca)
            abs_u = np.abs(state.u)
            out += abs_u
            out += ca
            if self.any_vac:
                np.copyto(out, abs_u, where=self.vac)
            self._speeds = out
        return self._speeds

    def max_speed(self, state: FluidState) -> float:
        """The largest of `speeds(state)`."""
        if self._max_speed is None:
            self._max_speed = float(np.maximum.reduce(self.speeds(state)))
        return self._max_speed


def _stage_of(state: FluidState, p: PhysParams, s: SolverSettings) -> _Stage:
    """The stage the solver left on state if it still serves; otherwise a
    new one, left on the state when its arrays are read-only."""
    stage = state._stage
    if stage is not None and stage.serves(state, p, s):
        return stage
    stage = _Stage(state, p, s)
    if state.read_only:
        state._stage = stage
    return stage


def signal_speeds(state: FluidState, p: PhysParams, s: SolverSettings) -> np.ndarray:
    """Per-node |u| + c_s + c_A with rho* = max(rho, eps_vac).

    Vacuum nodes are quasi-stationary: no acoustic or Alfven dynamics live
    there, so only |u| counts. The floor densities would otherwise make
    c_A = |B|/sqrt(eps_vac) dominate the step size for no physical reason.
    """
    return _stage_of(state, p, s).speeds(state)


def _face_controls(state: FluidState, grid: RadialGrid, stage: _Stage,
                   stats: Optional[StepStats]):
    """Per-face LF coefficients and donor-cell flags around the vacuum edge;
    the grid's read-only zeros when no node is vacuum."""
    if not stage.any_vac:
        return grid.quiet_faces
    n = grid.n_cells
    vac = stage.vac
    up = np.empty(n, dtype=bool)
    np.logical_or(vac[:-1], vac[1:], out=up)
    lf_fc = np.zeros(n)
    m = stage.m
    if 0 <= m < n - 1:
        coeff = 0.5 * stage.max_speed(state) * grid.dr
        if stats is not None:
            stats.lf_coeff = coeff
        # faces m+1 .. m+_LF_BAND short of the last, but none touching vacuum
        band = slice(m + 1, min(m + _LF_BAND, n - 1) + 1)
        lf_fc[band] = coeff
        np.copyto(lf_fc[band], 0.0, where=up[band])
    return lf_fc, up.view(np.uint8)


def _rhs_prologue(state: FluidState, p: PhysParams, grid: RadialGrid,
                  s: SolverSettings, stats: Optional[StepStats]):
    """The state's checked stage and its face controls, shared by both rhs."""
    stage = _stage_of(state, p, s)
    stage.check_finite(state)
    return stage, _face_controls(state, grid, stage, stats)


def _rhs_epilogue(tend: Tendency, state: FluidState, grid: RadialGrid,
                  stage: _Stage, forcing) -> Tendency:
    """Freeze the velocities on the vacuum block [0, m] and add any forcing."""
    m = stage.m
    if m >= 0:
        # quasi-stationary: the velocities are set by the balance
        tend.y[1:-2, :m + 1] = 0.0
    if forcing is not None:
        f = forcing(grid.nodes, state.t)     # a fresh (F, N+1) array
        f[1] /= stage.rho_star
        tend.y += f
        tend.y[1, 0] = tend.y[1, -1] = 0.0
    return tend


def rhs_disk(state: FluidState, p: PhysParams, grid: RadialGrid, s: SolverSettings,
             include_visc: bool = True, forcing=None,
             stats: Optional[StepStats] = None) -> Tendency:
    """Tendency of the 2D radial system (see module docstring for the scheme)."""
    stage, (lf_fc, up_fc) = _rhs_prologue(state, p, grid, s, stats)
    rates = kern.disk_tendency(grid.nodes, grid.dr, *state.y, stage.rho_star,
                               p.two_mu_lam, p.gamma, include_visc, lf_fc, up_fc)
    return _rhs_epilogue(Tendency(np.asarray(rates)), state, grid, stage,
                         forcing)


def rhs_cylinder(state: FluidState, p: PhysParams, grid: RadialGrid,
                 s: SolverSettings, include_visc: bool = True, forcing=None,
                 stats: Optional[StepStats] = None) -> Tendency:
    """Tendency of the cylindrically symmetric system (adds swirl and axial flow)."""
    stage, (lf_fc, up_fc) = _rhs_prologue(state, p, grid, s, stats)
    rates = kern.cylinder_tendency(grid.nodes, grid.dr, *state.y, stage.rho_star,
                                   p.two_mu_lam, p.mu, p.gamma, include_visc,
                                   lf_fc, up_fc)
    return _rhs_epilogue(Tendency(np.asarray(rates)), state, grid, stage,
                         forcing)


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
    the diffusive dr^2 rho* / (2(2mu+lam)) restriction over the nodes outside
    the vacuum block; cfl-scaled minimum."""
    stage = _stage_of(state, p, s)
    stage.check_finite(state)
    vmax = stage.max_speed(state)
    dt = grid.dr / vmax if vmax > _DT_EPS else np.inf
    if s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        m = stage.m
        rho_floor = (float(np.minimum.reduce(stage.rho_star[m + 1:]))
                     if m < grid.n_cells else np.inf)
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
    np.abs(ur, out=ur)
    np.abs(uor, out=uor)
    return float(np.maximum.reduce(np.maximum(ur, uor, out=ur)))


def detect_blowup(state: FluidState, grid: RadialGrid, p: PhysParams,
                  s: SolverSettings) -> Health:
    try:
        _stage_of(state, p, s).check_finite(state)
    except NumericalFailure as exc:
        return Health(True, exc.reason, np.inf)
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
    stage = _stage_of(state, p, s)
    m = stage.m
    if m < 1:
        return m
    r = grid.nodes
    dr = grid.dr
    y = state.y
    u, P, B = y[1], y[-2], y[-1]
    # edge node supplying the outer continuity value; with the whole domain
    # classified vacuum the Dirichlet end u(R)=0 closes the problem instead
    edge = min(m + 1, grid.n_cells)
    # B (B_r + B/r) + P_r on the block's rows 1..edge-1 only, with the
    # interior central differences of kern.gradient
    B_in = B[1:edge]
    Br = (B[2:edge + 1] - B[:edge - 1]) / (2.0 * dr)
    Pr = (P[2:edge + 1] - P[:edge - 1]) / (2.0 * dr)
    rhs_vec = (B_in * (Br + B_in / r[1:edge]) + Pr) / p.two_mu_lam
    # the last row's coupling to the Dirichlet value u[edge]
    sup = grid.lap_rows[1]
    rhs_vec[-1] -= sup[edge - 1] * float(u[edge])
    try:
        # the matrix depends on the grid and edge only: factored once per block
        sol = kern.tridiag_solve(grid.balance_factors(edge), rhs_vec)
    except ZeroDivisionError as exc:
        raise NumericalFailure(f"singular vacuum balance solve: {exc}") from None
    except ValueError as exc:
        raise NumericalFailure(f"non-finite vacuum balance system: {exc}") from None
    if not np.logical_and.reduce(np.isfinite(sol)):
        raise NumericalFailure("non-finite vacuum balance solution")
    u[1:edge] = sol
    u[0] = 0.0
    if len(y) == 6:
        # mu (v_r + v/r)_r = 0 with v(0)=0  ->  v linear in r (discretely exact);
        # mu (r w_r)_r / r = 0 with w_r(0)=0  ->  w constant
        v, w = y[2], y[3]
        v[:edge] = v[edge] * r[:edge] / r[edge]
        v[0] = 0.0
        w[:edge] = w[edge]
    stage.forget_velocities()
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
    The node hi+1 must exist; it holds the outer Dirichlet value.
    """
    if hi < lo:
        return
    dr = grid.dr
    rows = slice(lo, hi + 1)
    sub, sup, swirl_diag, axial_diag = grid.lap_rows
    diag = (swirl_diag if swirl else axial_diag)[rows]
    sub, sup = sub[rows], sup[rows]
    nu_i = nu[rows]
    fo = dt * nu_i / (dr * dr)
    theta = _theta_rows(fo)

    # explicit part (1-theta) * dt * nu * L f_old; the axis row has no left
    # neighbour
    fc = f[rows]
    lf = diag * fc
    if lo > 0:
        lf += sub * f[lo - 1:hi]
    else:
        lf[1:] += sub[1:] * f[:hi]
    lf += sup * f[lo + 1:hi + 2]
    rhs_vec = fc + dt * (1.0 - theta) * nu_i * lf

    w = dt * theta * nu_i
    a = -(w * sub)
    b = 1.0 - w * diag
    c = -(w * sup)
    # Dirichlet neighbours folded into the right-hand side
    if lo > 0:
        rhs_vec[0] -= a[0] * f[lo - 1]
    rhs_vec[-1] -= c[-1] * f[hi + 1]
    try:
        sol = kern.thomas(a[1:], b, c[:-1], rhs_vec)
    except ZeroDivisionError as exc:
        raise NumericalFailure(f"singular viscous solve: {exc}") from None
    except ValueError as exc:
        raise NumericalFailure(f"non-finite viscous system: {exc}") from None
    if not np.logical_and.reduce(np.isfinite(sol)):
        raise NumericalFailure("non-finite viscous solution")
    f[rows] = sol


def implicit_viscous(state: FluidState, p: PhysParams, grid: RadialGrid,
                     s: SolverSettings, dt: float) -> None:
    """In-place implicit update of the viscous operators over the fluid nodes."""
    n = grid.n_cells
    stage = _stage_of(state, p, s)
    rho_star = stage.rho_star
    m = stage.m
    lo = max(m + 1, 1)
    hi = n - 1
    nu_u = p.two_mu_lam / rho_star
    _implicit_component(state.u, nu_u, grid, dt, lo, hi, swirl=True)
    if state.v is not None:
        nu_v = p.mu / rho_star
        _implicit_component(state.v, nu_v, grid, dt, lo, hi, swirl=True)
        _implicit_component(state.w, nu_v, grid, dt, m + 1, hi, swirl=False)
    stage.forget_velocities()


# ---------------------------------------------------------------------------
# Stage assembly and the step operator
# ---------------------------------------------------------------------------

def apply_tendency(state: FluidState, tend: Tendency, dt: float) -> FluidState:
    """state + dt * tend at time t + dt."""
    return FluidState.of(state.y + dt * tend.y, state.t + dt)


def blend(a: FluidState, wa: float, b: FluidState, wb: float, t: float) -> FluidState:
    """wa * a + wb * b at time t (an SSP stage combination)."""
    return FluidState.of(wa * a.y + wb * b.y, t)


def finalize_stage(state: FluidState, p: PhysParams, grid: RadialGrid,
                   s: SolverSettings, stats: Optional[StepStats] = None,
                   free_bc=None) -> None:
    """Re-pin boundary values, clip rho and P at zero, refresh the vacuum block.

    Leaves the stage context of the result on the state for the stages that
    follow; after this only the solver writes into the state's arrays.
    """
    state.pin(wall=free_bc is None)
    y = state.y
    # one scan of the rho and P rows (y[0] and y[-2]) finds a negative or NaN
    if not np.minimum.reduce(y[::len(y) - 2], axis=None) >= 0.0:
        rho, P = state.rho, state.P
        neg = rho < 0.0
        if np.logical_or.reduce(neg):
            if stats is not None:
                stats.clipped_mass += -integrate(np.minimum(rho, 0.0), grid,
                                                 Weight.RADIAL_R)
            rho[neg] = 0.0
        neg = P < 0.0
        if np.logical_or.reduce(neg):
            if stats is not None:
                stats.clipped_pressure += -integrate(np.minimum(P, 0.0), grid,
                                                     Weight.RADIAL_R)
            P[neg] = 0.0
    if free_bc is not None:
        free_bc(state)
    # the balance reads the block and writes only velocities; it does
    # nothing without a block of two or more nodes, so it is not called
    stage = state._stage = _Stage(state, p, s)
    if stage.m >= 1:
        apply_vacuum_balance(state, p, grid, s, stats)


def _finalize_velocities(state: FluidState, p: PhysParams, grid: RadialGrid,
                         s: SolverSettings, stats: Optional[StepStats] = None,
                         free_bc=None) -> None:
    """`finalize_stage` after `implicit_viscous`, which wrote only u, v, w.

    rho and P are as the last finalize left them (clipped, with the stage
    built from them still on the state), so only the velocities are
    re-pinned, given the free-boundary condition and re-balanced.
    """
    stage = _stage_of(state, p, s)
    state.pin(wall=free_bc is None)
    if free_bc is not None:
        free_bc(state)
    stage.forget_velocities()
    if stage.m >= 1:
        apply_vacuum_balance(state, p, grid, s, stats)


def balance_initial_state(state: FluidState, p: PhysParams, grid: RadialGrid,
                          s: SolverSettings,
                          stats: Optional[StepStats] = None) -> None:
    """Impose the vacuum balance on a run's initial state and make it read-only.

    The stage built for the balance stays on the state, so the first
    `cfl_dt` and the first step's rhs share it.
    """
    stage = state._stage = _Stage(state, p, s)
    if stage.m >= 1:
        apply_vacuum_balance(state, p, grid, s, stats)
    state.freeze()


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
    _finalize_velocities(y, p, grid, s, stats, free_bc)
    y = _inviscid_half(y, 0.5 * dt, p, grid, s, stats, forcing, free_bc)
    return y


def step(state: FluidState, dt: float, p: PhysParams, grid: RadialGrid,
         s: SolverSettings, stats: Optional[StepStats] = None, forcing=None,
         free_bc=None) -> FluidState:
    """Advance one step of size dt; returns a new state, never mutates input.

    The new state's arrays are read-only, so the stage context built for it
    serves `detect_blowup`, `cfl_dt` and the next step's first rhs.
    """
    if dt <= 0.0:
        raise ValueError(f"step needs dt > 0, got {dt}")
    if s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        out = _ssprk3(state, dt, p, grid, s, stats, forcing, free_bc)
    else:
        out = _rk2_strang(state, dt, p, grid, s, stats, forcing, free_bc)
    out.t = state.t + dt
    out.freeze()
    _stage_of(out, p, s).check_finite(out)
    return out
