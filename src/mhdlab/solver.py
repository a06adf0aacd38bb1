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
a tridiagonal boundary-value problem on the block with u(0) = 0. Swirl and
axial velocity take their quasi-stationary profiles there (v linear in r, w
constant), which the discrete operators annihilate exactly. Inside an
`rk2-imp` step the block's rows join the implicit viscous solve of the fluid
(`implicit_viscous`), so block and fluid get their velocities from one
solve; a state's last stage, and a run's initial state, re-balance the
block alone (`apply_vacuum_balance`), continuous with the fluid at the
block's outer edge. A stage whose density is at least
eps_vac everywhere skips the vacuum scans: `finalize_stage` already has the
density minimum, and on such a stage rho* = rho, no node is vacuum (the
stage holds no mask) and the explicit CFL density floor is that minimum, all
exactly (see `_Stage`).
Likewise a pressure that is +0.0 at every node (`all_plus_zero`: the
blow-up presets start from P = 0, and every update, clip and remap keeps it
+0) skips the pressure terms: the NumPy kernels leave out P_r, the pressure
work and the band's pressure diffusion (see `_kernels.pure`), the signal
speeds leave out c_s (+0 + |u| is |u|), and the vacuum balance adds a 0-d
+0 in place of a P_r of +0 on its block. The states keep their bits.

Rates are plain arrays in the state's shape and row order. The ufunc calls
of a step take array operands only: the physical constants come as the
read-only 0-d arrays of `PhysParams` and `SolverSettings`, which the
tendency kernels take too, the spacing's as `_kernels.pure.spacing`'s, the
stage weights and thresholds as this module's (see `_kernels.pure.operand`).
A step's dt stays a Python float where it is used once.

Time integration: three-stage SSP Runge-Kutta on the full tendency
(`ssp_rk3`, whose stage sequence the linearized Picard sweeps share), or the
ARS(2,3,3) IMEX Runge-Kutta step (`imex_step`, the `rk2-imp` scheme): three
explicit stages of the inviscid tendency and two backward-Euler stages of
the viscous operators, each one tridiagonal solve per velocity row whose
rows on the vacuum block are the balance above. It is of third order in
time, and its explicit part, like every three-stage third-order one, is
stable on the imaginary axis up to sqrt(3), where the central stencils'
eigenvalues lie.

Boundary conditions are the solver's own, applied at the end of every stage:
u and B (and v) vanish at the axis; at a fixed wall u (and v, w) vanish at
r = R; on a free geometry (`Geometry.DISK2D_FREE`) u(a) instead solves the
one-sided second-order discretization of the zero-stress condition
B^2/2 + P - (2mu+lam)(u_r + u/r) = 0 at r = a (`enforce_boundary_stress`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels as kern
from ._kernels.pure import (all_plus_zero, central_difference, operand,
                            spacing, wall_slope)
from .core import (FluidState, PhysParams, RadialGrid, Scheme, SolverSettings,
                   Weight, integrate)
from .errors import DtCollapse, NumericalFailure

_DT_EPS = 1e-300
_LF_BAND = 16              # faces outside the vacuum edge that get LF dissipation

_ZERO, _ONE = operand(0.0), operand(1.0)
# the SSP-RK3 stage weights
_THREE_QUARTERS, _QUARTER = operand(0.75), operand(0.25)
_THIRD, _TWO_THIRDS = operand(1.0 / 3.0), operand(2.0 / 3.0)
# ARS(2,3,3): gamma, and the weights of its stage increments (`imex_step`)
_GAMMA = (3.0 + math.sqrt(3.0)) / 6.0
_A31 = operand((_GAMMA - 1.0) / _GAMMA)
_A32 = operand(2.0 * (1.0 - _GAMMA) / _GAMMA)
_A33 = operand((1.0 - 2.0 * _GAMMA) / _GAMMA)
_B = operand(0.5 / _GAMMA)


@dataclass
class StepStats:
    """Per-run bookkeeping owned by one solver run; the last three fields
    change on a free geometry only."""

    clipped_mass: float = 0.0        # cumulative r-weighted density clipped at 0
    clipped_pressure: float = 0.0
    lf_coeff: float = 0.0            # last Lax-Friedrichs coefficient in use
    balance_solves: int = 0
    # free boundary: the remap defects (`freeboundary.remap_state`) and the
    # largest relative stress residual left by a stage
    remap_mass_defect: float = 0.0
    remap_flux_defect: float = 0.0
    max_stress_residual_rel: float = 0.0


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
    a Python-level wrapper such as np.max or ndarray.any. A scan that
    passes is remembered; a state that fails it is scanned again on every
    check and raises the same NumericalFailure, which ends a run.

    A stage whose density minimum rho_min (the caller's, or one reduce of
    rho) is at least eps_vac has no vacuum and makes none of those scans.
    Its values are the ones the scans would give, bit for bit: rho* is rho
    itself, since max(rho, eps_vac) = rho there; m = -1; and rho_floor, the
    minimum of rho* that the explicit CFL bound needs, is rho_min. Its mask
    vac is None: nothing reads vac unless any_vac is true. Any other stage,
    one with a NaN minimum too, scans, and its rho_floor is None. Sharing
    the rho row is safe: rho is never written while a stage exists, and the
    kernels only read rho*.

    A stage rides on its state (`FluidState._stage`) only while no one else
    writes into its array y: inside a step, where the solver owns every
    write, and on a read-only y (a step's output, a run's initial state);
    assigning a field gives the state a new y, which the stage does not
    serve. Every in-place write to u, v, w while a stage rides on the state
    (`apply_vacuum_balance`, `implicit_viscous`) calls `forget_velocities`;
    `finalize_stage` pins and sets u(a) before anything is derived from the
    velocities, on the stage it has just built; rho and P are never
    written once the stage exists. The methods take the state instead of the
    stage holding it, so a state and its stage form no reference cycle and
    are freed as soon as the state is dropped.
    """

    __slots__ = ("p", "s", "y", "rho_star", "vac", "m", "any_vac", "rho_floor",
                 "_scanned", "_speeds", "_max_speed")

    def __init__(self, state: FluidState, p: PhysParams, s: SolverSettings,
                 rho_min: Optional[float] = None):
        self.p = p
        self.s = s
        self.y = state.y
        rho = state.rho
        if rho_min is None:
            rho_min = float(np.minimum.reduce(rho))
        if rho_min >= s.eps_vac:          # False for NaN
            self.rho_star = rho
            self.vac = None
            self.m = -1
            self.any_vac = False
            self.rho_floor = rho_min
        else:
            eps_vac = s.eps_vac_0d
            self.rho_star = np.maximum(rho, eps_vac)
            self.vac = rho < eps_vac
            self.m = _block_end(self.vac)
            # argmax finds the first vacuum node (index 0 when there is none)
            self.any_vac = self.m >= 0 or self.vac.item(self.vac.argmax())
            self.rho_floor = None
        self.forget_velocities()

    def serves(self, state: FluidState, p: PhysParams, s: SolverSettings) -> bool:
        # identity first: a run passes the same settings and parameters
        return (self.y is state.y and (self.s is s or self.s == s)
                and (self.p is p or self.p == p))

    def forget_velocities(self) -> None:
        """Drop what an in-place write to u (v, w) makes stale."""
        self._scanned = False
        self._speeds = None
        self._max_speed = None

    def check_finite(self, state: FluidState) -> None:
        """`_check_finite(state)`, skipped once a scan has passed."""
        if not self._scanned:
            _check_finite(state)
            self._scanned = True

    def speeds(self, state: FluidState) -> np.ndarray:
        """Per-node |u| + c_s + c_A (see `signal_speeds`), built on first use."""
        if self._speeds is None:
            ca = state.B * state.B
            ca /= self.rho_star
            np.sqrt(ca, out=ca)
            abs_u = np.abs(state.u)
            P = state.P
            if all_plus_zero(P):
                # c_s = sqrt(gamma (+0) / rho*) = +0 and +0 + |u| = |u|
                out = np.add(abs_u, ca)
            else:
                # (|u| + c_s) + c_A, built in the c_s array
                out = np.multiply(self.p.gamma_0d, P)
                out /= self.rho_star
                np.sqrt(out, out=out)
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

    The array is the state's stage's own, whose maximum `cfl_dt` takes, so
    it is made read-only here, where it leaves the solver (a flag write
    costs about 0.5 us, which the step path does not pay).
    """
    speeds = _stage_of(state, p, s).speeds(state)
    speeds.flags.writeable = False
    return speeds


def _face_controls(state: FluidState, grid: RadialGrid, stage: _Stage,
                   stats: Optional[StepStats]):
    """Per-face LF coefficients and donor-cell flags around the vacuum edge;
    the grid's read-only zeros when no node is vacuum."""
    if not stage.any_vac:
        return grid.quiet_faces
    n = grid.n_cells
    vac = stage.vac
    up = np.logical_or(vac[:-1], vac[1:])
    lf_fc = np.zeros(n)
    m = stage.m
    if 0 <= m < n - 1:
        coeff = 0.5 * stage.max_speed(state) * grid.dr
        if stats is not None:
            stats.lf_coeff = coeff
        # faces m+1 .. m+_LF_BAND short of the last, but none touching vacuum
        band = slice(m + 1, min(m + _LF_BAND, n - 1) + 1)
        lf_fc[band] = coeff
        np.copyto(lf_fc[band], _ZERO, where=up[band])
    return lf_fc, up.view(np.uint8)


def _rates(kernel, coeffs: tuple, state: FluidState, p: PhysParams,
           grid: RadialGrid, s: SolverSettings, include_visc: bool, forcing,
           stats: Optional[StepStats]) -> np.ndarray:
    """The tendency `kernel` with its physical coefficients `coeffs` on the
    state's checked stage and face controls; then the velocities frozen on
    the vacuum block [0, m] and any forcing added. The body of both rhs."""
    stage = _stage_of(state, p, s)
    stage.check_finite(state)
    lf_fc, up_fc = _face_controls(state, grid, stage, stats)
    rates = np.asarray(kernel(grid.nodes, grid.dr, *state.y, stage.rho_star,
                              *coeffs, include_visc, lf_fc, up_fc))
    if stage.m >= 0:
        # quasi-stationary: the velocities are set by the balance
        rates[1:-2, :stage.m + 1] = 0.0
    if forcing is not None:
        f = forcing(grid.nodes, state.t)     # (F, N+1), read only
        # row 1 takes f_u / rho* (a momentum residual), the others f itself;
        # one add over every row, then row 1 put back, costs the fewest calls
        du = rates[1] + f[1] / stage.rho_star
        rates += f
        rates[1] = du
        rates[1, 0] = rates[1, -1] = 0.0
    return rates


def rhs_disk(state: FluidState, p: PhysParams, grid: RadialGrid, s: SolverSettings,
             include_visc: bool = True, forcing=None,
             stats: Optional[StepStats] = None) -> np.ndarray:
    """Rates of the 2D radial system in the state's shape and row order (see
    the module docstring for the scheme)."""
    return _rates(kern.disk_tendency, (p.two_mu_lam_0d, p.gamma_0d), state, p,
                  grid, s, include_visc, forcing, stats)


def rhs_cylinder(state: FluidState, p: PhysParams, grid: RadialGrid,
                 s: SolverSettings, include_visc: bool = True, forcing=None,
                 stats: Optional[StepStats] = None) -> np.ndarray:
    """Rates of the cylindrically symmetric system (adds swirl and axial
    flow) in the state's shape and row order."""
    return _rates(kern.cylinder_tendency,
                  (p.two_mu_lam_0d, p.mu_0d, p.gamma_0d), state, p, grid, s,
                  include_visc, forcing, stats)


def rhs(state, p, grid, s, **kw) -> np.ndarray:
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
        rho_floor = stage.rho_floor
        if rho_floor is None:
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


def max_grad_u(state: FluidState, grid: RadialGrid) -> float:
    """max over nodes of max(|u_r|, |u/r|), u/r taken as u_r(0) at the axis."""
    ur, uor = kern.radial_parts(state.u, grid.nodes, grid.dr)
    np.abs(ur, out=ur)
    np.abs(uor, out=uor)
    return float(np.maximum.reduce(np.maximum(ur, uor, out=ur)))


def detect_blowup(state: FluidState, grid: RadialGrid, p: PhysParams,
                  s: SolverSettings) -> Health:
    """The gradient or step-size stop of a state, or its next dt; a
    non-finite state raises NumericalFailure, as `cfl_dt` and `rhs` do."""
    _stage_of(state, p, s).check_finite(state)
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

def _balance_source(y: np.ndarray, p: PhysParams, grid: RadialGrid,
                    edge: int) -> np.ndarray:
    """(B (B_r + B/r) + P_r) / (2mu+lam) on rows 1..edge-1 of the stacked
    state y, with the kernels' interior central differences: the right-hand
    side of the vacuum balance on a block closed at node edge. With P all +0
    there, P_r is +0, and adding a 0-d +0 gives the same bits as adding
    those zeros."""
    P, B = y[-2], y[-1]
    B_in = B[1:edge]
    sp = spacing(grid.dr)
    Br = central_difference(B[:edge + 1], sp)
    P_block = P[:edge + 1]
    Pr = _ZERO if all_plus_zero(P_block) else central_difference(P_block, sp)
    return (B_in * (Br + B_in / grid.nodes[1:edge]) + Pr) / p.two_mu_lam_0d


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
    y = state.y
    u = y[1]
    # edge node supplying the outer continuity value; with the whole domain
    # classified vacuum the Dirichlet end u(R)=0 closes the problem instead
    edge = min(m + 1, grid.n_cells)
    rhs_vec = _balance_source(y, p, grid, edge)
    # rows 1..edge-1 of the swirl operator; the last row's coupling to the
    # Dirichlet value u[edge] goes to the right-hand side, the one array
    # of the system that can carry a non-finite value
    sub, sup, swirl, _ = grid.lap_rows
    rhs_vec[-1] -= sup[edge - 1] * float(u[edge])
    u[1:edge] = _solved("vacuum balance", (rhs_vec,), sub[2:edge],
                        swirl[1:edge], sup[1:edge - 1], rhs_vec)
    u[0] = 0.0
    if len(y) == 6:
        # mu (v_r + v/r)_r = 0 with v(0)=0  ->  v linear in r (discretely exact);
        # mu (r w_r)_r / r = 0 with w_r(0)=0  ->  w constant
        v, w, r = y[2], y[3], grid.nodes
        v[:edge] = v[edge] * r[:edge] / r[edge]
        v[0] = 0.0
        w[:edge] = w[edge]
    stage.forget_velocities()
    if stats is not None:
        stats.balance_solves += 1
    return m


def _solved(what: str, suspects: tuple, *system) -> np.ndarray:
    """kern.thomas(*system), raised as NumericalFailure naming what when one
    of suspects, the system's arrays that can carry a non-finite value,
    does (an infinite diagonal entry can give a finite solution), when the
    system is singular and when the solution is non-finite."""
    for a in suspects:
        if not np.logical_and.reduce(np.isfinite(a)):
            raise NumericalFailure(f"non-finite {what} system")
    try:
        sol = kern.thomas(*system)
    except ZeroDivisionError as exc:
        raise NumericalFailure(f"singular {what} solve: {exc}") from None
    if not np.logical_and.reduce(np.isfinite(sol)):
        raise NumericalFailure(f"non-finite {what} solution")
    return sol


def _coupled_solve(f: np.ndarray, diag: np.ndarray, coeff: np.ndarray,
                   rho_star: np.ndarray, grid: RadialGrid, lo: int, m: int,
                   source: Optional[np.ndarray]) -> None:
    """Solve rows lo..N-1 of one velocity row f in place, f[N] held.

    Rows lo..m (the vacuum block) are L f = source (0 when source is None),
    the others f - dt nu L f = f, with coeff = -dt times the viscosity and
    nu = viscosity / rho*; L is the grid's operator of diagonal diag. A
    first row lo = 1 couples to the axis value f[0] = 0, so that term is
    left out. Every row is diagonally dominant: a swirl-operator block row
    by 1/r^2, an axial one weakly (its elimination multipliers are -1, a
    constant being its null vector), a backward-Euler row by 1 + dt nu /
    r^2 (or by 1); so a pivot-free elimination, such as the compiled twin's
    `thomas`, is safe on it.

    Only the diagonal and the right-hand side are scanned: the rows are
    the grid's finite rows times one scale row, and no stencil diagonal
    entry is zero or smaller than its row's others, so a non-finite or
    overflowing scale shows in the diagonal; f, the source and f[N] (as
    c f[N], non-finite even where c is 0) enter the right-hand side.
    """
    k = max(m - lo + 1, 0)                  # the block's rows
    sub, sup = grid.lap_rows[:2]
    rows = slice(lo, grid.n_cells)
    # 1 on the block's rows and -dt nu on the others scale the rows of L
    scale = np.true_divide(coeff, rho_star[rows])
    scale[:k] = 1.0
    a, b, c = (np.multiply(scale, x[rows]) for x in (sub, diag, sup))
    b[k:] += _ONE
    rhs_vec = f[rows].copy()
    rhs_vec[:k] = 0.0 if source is None else source
    rhs_vec[-1] -= c[-1] * f[-1]
    f[rows] = _solved("viscous", (b, rhs_vec), a[1:], b, c[:-1], rhs_vec)


def implicit_viscous(state: FluidState, p: PhysParams, grid: RadialGrid,
                     s: SolverSettings, dt: float) -> np.ndarray:
    """One backward-Euler stage Y = Z + dt nu L Y of the viscous operators,
    solved in place together with the vacuum balance on the block [0, m];
    returns Y - Z on the velocity rows (y[1:-2]).

    One tridiagonal solve per velocity row, the value at node N held (the
    wall's zero or the stress condition's u(a)): u on nodes 1..N-1, with
    the balance rows L u = (B (B_r + B/r) + P_r) / (2mu+lam) on the block;
    on the cylinder v on the same nodes with L v = 0 on the block (v linear
    in r there), and w on nodes 0..N-1 with L w = 0 on the block (w
    constant there). So the block and the fluid next to it take their
    velocities from one solve, with no edge value carried over from before.
    """
    stage = _stage_of(state, p, s)
    m = min(stage.m, grid.n_cells - 1)
    y = state.y
    z = y[1:-2].copy()
    swirl, axial = grid.lap_rows[2:]
    source = _balance_source(y, p, grid, m + 1) if m >= 1 else None
    _coupled_solve(y[1], swirl, operand(-dt * p.two_mu_lam), stage.rho_star,
                   grid, 1, m, source)
    if len(y) == 6:
        coeff = operand(-dt * p.mu)
        _coupled_solve(y[2], swirl, coeff, stage.rho_star, grid, 1, m, None)
        _coupled_solve(y[3], axial, coeff, stage.rho_star, grid, 0, m, None)
    stage.forget_velocities()
    return np.subtract(y[1:-2], z, z)


# ---------------------------------------------------------------------------
# The free-surface stress condition
# ---------------------------------------------------------------------------

def _residual_and_scale(state: FluidState, grid: RadialGrid, p: PhysParams):
    a = grid.r_outer
    u = state.u
    ur = wall_slope(u, grid.dr)
    stress_mag = 0.5 * state.B[-1] ** 2 + state.P[-1]
    residual = stress_mag - p.two_mu_lam * (ur + u[-1] / a)
    scale = max(stress_mag, p.two_mu_lam * (abs(ur) + abs(u[-1]) / a), 1e-30)
    return residual, scale


def boundary_stress_residual(state: FluidState, grid: RadialGrid,
                             p: PhysParams) -> float:
    """F = B^2/2 + P - (2mu+lam)(u_r + u/a) at r = a, one-sided second order."""
    residual, _ = _residual_and_scale(state, grid, p)
    return residual


def enforce_boundary_stress(state: FluidState, grid: RadialGrid,
                            p: PhysParams) -> None:
    """Solve F(a) = 0 for u_N; mutates the state in place."""
    dr = grid.dr
    a = grid.r_outer
    u = state.u
    target = (0.5 * state.B[-1] ** 2 + state.P[-1]) / p.two_mu_lam
    coeff = 3.0 / (2.0 * dr) + 1.0 / a
    u[-1] = (target + (4.0 * u[-2] - u[-3]) / (2.0 * dr)) / coeff


# ---------------------------------------------------------------------------
# Stage assembly and the step operator
# ---------------------------------------------------------------------------

def apply_tendency(state: FluidState, rates: np.ndarray, dt: float) -> FluidState:
    """state + dt * rates at time t + dt."""
    return FluidState.of(state.y + dt * rates, state.t + dt)


def blend(a: FluidState, wa, b: FluidState, wb, t: float) -> FluidState:
    """wa * a + wb * b at time t (an SSP stage combination); the weights are
    numbers or 0-d arrays."""
    return FluidState.of(wa * a.y + wb * b.y, t)


def _clip_negative(f: np.ndarray, f_min: float, grid: RadialGrid) -> float:
    """Zero the negative entries of f, whose minimum is f_min, in place;
    returns the r-weighted integral clipped (0.0 when no entry is
    negative). A minimum that is negative or NaN makes the scan."""
    if f_min >= 0.0:
        return 0.0
    neg = f < _ZERO
    if not np.logical_or.reduce(neg):
        return 0.0
    clipped = -integrate(np.minimum(f, _ZERO), grid, Weight.RADIAL_R)
    f[neg] = 0.0
    return clipped


def finalize_stage(state: FluidState, p: PhysParams, grid: RadialGrid,
                   s: SolverSettings, stats: Optional[StepStats] = None,
                   balance: bool = True) -> None:
    """Clip rho and P at zero and refresh the vacuum block; then pin the axis
    (and the wall's) velocities, solve the stress condition for u(a) on a
    free geometry and, unless balance is False (a stage whose implicit solve
    sets the block's velocities), re-balance the vacuum block.

    Leaves the stage context of the result on the state for the stages that
    follow; after this only the solver writes into the state's arrays.
    """
    y = state.y
    # one reduce gives the minima of the rho and P rows (y[0] and y[-2]); a
    # row whose minimum is negative or NaN is clipped
    rho_min, P_min = np.minimum.reduce(y[::len(y) - 2], axis=1).tolist()
    clipped_rho = _clip_negative(state.rho, rho_min, grid)
    clipped_P = _clip_negative(state.P, P_min, grid)
    if stats is not None:
        stats.clipped_mass += clipped_rho
        stats.clipped_pressure += clipped_P
    # a clipped or NaN minimum fails the stage's test, so the stage scans rho
    stage = state._stage = _Stage(state, p, s, rho_min)
    free = p.geometry.is_free
    state.pin(wall=not free)
    if free:
        enforce_boundary_stress(state, grid, p)
        if stats is not None:
            residual, scale = _residual_and_scale(state, grid, p)
            stats.max_stress_residual_rel = max(stats.max_stress_residual_rel,
                                                abs(residual) / scale)
    # the balance reads the block and writes only velocities; it does
    # nothing without a block of two or more nodes, so it is not called
    if balance and stage.m >= 1:
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


def ssp_rk3(y0: FluidState, dt: float, rates, finish) -> FluidState:
    """One three-stage SSP Runge-Kutta step from y0.

    Stage k (0, 1, 2) takes the rates `rates(y, k)` of its input, whose time
    is t, t + dt and t + dt/2; the stages blend with y0 by the weights 1,
    3/4 : 1/4 and 1/3 : 2/3. `finish(y)` completes each stage's result in
    place before the next stage reads it.
    """
    y1 = apply_tendency(y0, rates(y0, 0), dt)
    finish(y1)
    y2 = blend(y0, _THREE_QUARTERS, apply_tendency(y1, rates(y1, 1), dt),
               _QUARTER, y0.t + 0.5 * dt)
    finish(y2)
    y3 = blend(y0, _THIRD, apply_tendency(y2, rates(y2, 2), dt), _TWO_THIRDS,
               y0.t + dt)
    finish(y3)
    return y3


def imex_step(y0: FluidState, dt: float, p: PhysParams, grid: RadialGrid,
              s: SolverSettings, stats: Optional[StepStats], forcing) -> FluidState:
    """One ARS(2,3,3) IMEX Runge-Kutta step from y0 (the `rk2-imp` scheme).

    The inviscid rates (`rhs` without the viscous terms) are explicit, at
    y0 and at the two implicit stages Y2, Y3 (times t + gamma dt and
    t + (1 - gamma) dt); the viscous operators are implicit, one
    backward-Euler solve `implicit_viscous` of step gamma dt per stage, with
    gamma = (3 + sqrt 3)/6 (Ascher, Ruuth & Spiteri 1997). In the
    increments D = gamma dt K of the explicit rates K and the solves' Y - Z:

        Z2 = y0 + D1                     Y2 = Z2 + gamma dt nu L Y2
        Z3 = y0 + a31 D1 + a32 D2 + a33 (Y2 - Z2)
        y1 = y0 + b (D2 + D3 + (Y2 - Z2) + (Y3 - Z3))

    Each Z is clipped, pinned and given the stress condition
    (`finalize_stage` without the balance); its solve sets the vacuum
    block's velocities. Only y1 is re-balanced. The stage sums are written in
    place, with 0-d weights.
    """
    gdt = _GAMMA * dt
    gdt_0d = operand(gdt)

    def increment(y):
        k = rhs(y, p, grid, s, include_visc=False, forcing=forcing, stats=stats)
        return np.multiply(k, gdt_0d, k)

    def implicit_stage(z, t):
        y = FluidState.of(z, t)
        finalize_stage(y, p, grid, s, stats, balance=False)
        return y, implicit_viscous(y, p, grid, s, gdt)

    d1 = increment(y0)
    y2, e2 = implicit_stage(np.add(y0.y, d1), y0.t + gdt)
    d2 = increment(y2)
    z3 = np.multiply(d1, _A31, d1)
    z3 += y0.y
    z3 += np.multiply(d2, _A32)
    z3[1:-2] += np.multiply(e2, _A33)
    y3, e3 = implicit_stage(z3, y0.t + (dt - gdt))
    out = increment(y3)
    out += d2
    e2 += e3
    out[1:-2] += e2
    out *= _B
    out += y0.y
    y1 = FluidState.of(out, y0.t + dt)
    finalize_stage(y1, p, grid, s, stats)
    return y1


def step(state: FluidState, dt: float, p: PhysParams, grid: RadialGrid,
         s: SolverSettings, stats: Optional[StepStats] = None,
         forcing=None) -> FluidState:
    """Advance one step of size dt; returns a new state, never mutates input.

    The new state's arrays are read-only, so the stage context built for it
    serves `detect_blowup`, `cfl_dt` and the next step's first rhs.
    """
    if dt <= 0.0:
        raise ValueError(f"step needs dt > 0, got {dt}")
    if s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        out = ssp_rk3(
            state, dt,
            lambda y, _: rhs(y, p, grid, s, forcing=forcing, stats=stats),
            lambda y: finalize_stage(y, p, grid, s, stats))
    else:
        out = imex_step(state, dt, p, grid, s, stats, forcing)
    out.freeze()
    _stage_of(out, p, s).check_finite(out)
    return out
