"""Grids, physical parameters, state containers, and scenario construction.

Everything downstream works on a uniform node-centered grid over [0, R_outer]
with trapezoid quadrature. Two integral conventions are used throughout:

    plain     ∫ f(r) dr
    radial_r  ∫ f(r) r dr        (L2 norms drop the 2*pi disk factor)

Initial conditions are built from small analytic profile descriptors so that
scenario files stay line-oriented and human-editable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._kernels.pure import laplacian_rows, operand
from .errors import ConfigError


class Geometry(Enum):
    DISK2D = "disk2d"
    CYLINDER3D = "cylinder3d"
    DISK2D_FREE = "disk2d-free"

    @property
    def dim(self) -> int:
        return 3 if self is Geometry.CYLINDER3D else 2

    @property
    def has_swirl(self) -> bool:
        return self is Geometry.CYLINDER3D

    @property
    def is_free(self) -> bool:
        return self is Geometry.DISK2D_FREE


ALPHA_MIN_CYLINDER = 7.0 / 6.0


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


class Weight(Enum):
    PLAIN = "plain"
    RADIAL_R = "radial-r"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes 0 = r_0 < ... < r_N = R_outer with trapezoid weights.

    The arrays are read-only, so what is derived from them and cached on the
    grid (the viscous stencil rows) stays valid for the grid's lifetime.
    The 0-d operands of the spacing are `_kernels.pure.spacing(dr)`'s.
    """

    nodes: np.ndarray
    r_outer: float
    dr: float
    quad_weights: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def lap_rows(self):
        """(sub, sup, swirl, axial) viscous stencil rows by node, read-only.

        See `_kernels.pure.laplacian_rows`; built on first use, once per grid.
        """
        return tuple(_read_only(a) for a in laplacian_rows(self.nodes, self.dr))


MIN_CELLS = 2     # width of the one-sided end stencils


def uniform_nodes(n: int, r_outer: float) -> np.ndarray:
    """The n + 1 nodes of np.linspace(0.0, r_outer, n + 1), bit for bit while
    r_outer / n > 0: i * (r_outer / n), with the last node r_outer exactly.
    Built without linspace's Python-level set-up, as a free run builds a
    grid every step."""
    nodes = np.arange(n + 1, dtype=float)
    nodes *= r_outer / n
    nodes[-1] = r_outer
    return nodes


def make_grid(n: int, r_outer: float) -> RadialGrid:
    """Uniform grid with n cells on [0, r_outer]; weights are composite trapezoid."""
    if n < MIN_CELLS:
        raise ConfigError(f"grid needs at least {MIN_CELLS} cells, got {n}")
    if not (r_outer > 0.0) or not math.isfinite(r_outer):
        raise ConfigError(f"outer radius must be positive and finite, got {r_outer}")
    dr = float(r_outer) / n
    nodes = uniform_nodes(n, float(r_outer))
    weights = np.full(n + 1, dr)
    weights[0] = weights[-1] = 0.5 * dr
    return RadialGrid(nodes=_read_only(nodes), r_outer=float(r_outer), dr=dr,
                      quad_weights=_read_only(weights))


def integrate(samples: np.ndarray, grid: RadialGrid, weight: Weight = Weight.PLAIN) -> float:
    """Trapezoid quadrature of nodal samples, optionally with the r factor."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ConfigError(
            f"sample length {samples.shape} does not match grid {grid.nodes.shape}")
    if weight is Weight.RADIAL_R:
        samples = samples * grid.nodes
    return float(np.dot(grid.quad_weights, samples))


def interp_in_cell(f: np.ndarray, grid: RadialGrid, x: float):
    """(k, value): the cell k = min(floor(x / dr), N - 1) holding x in
    [0, R_outer], and the nodal samples f interpolated linearly at x."""
    k = int(min(np.floor(x / grid.dr), grid.n_cells - 1))
    frac = (x - grid.nodes[k]) / grid.dr
    return k, f[k] + frac * (f[k + 1] - f[k])


def integrate_to(samples: np.ndarray, grid: RadialGrid, r_upper: float) -> float:
    """Trapezoid quadrature over [0, r_upper] <= R_outer.

    The partial final cell uses the linearly interpolated sample at r_upper.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != grid.nodes.shape:
        raise ConfigError(
            f"sample length {f.shape} does not match grid {grid.nodes.shape}")
    if r_upper < 0.0 or r_upper > grid.r_outer * (1.0 + 1e-12):
        raise ConfigError(f"integration endpoint {r_upper} outside [0, {grid.r_outer}]")
    r_upper = min(r_upper, grid.r_outer)
    dr = grid.dr
    k, f_up = interp_in_cell(f, grid, r_upper)
    # full cells [0, r_k], then the partial piece [r_k, r_upper]
    total = 0.0
    if k > 0:
        total += dr * (0.5 * f[0] + np.add.reduce(f[1:k]) + 0.5 * f[k])
    total += 0.5 * (f[k] + f_up) * (r_upper - grid.nodes[k])
    return float(total)


def finite_float(value, name: str) -> float:
    """value as a finite float; a bool, a non-number, NaN or +-inf is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:        # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _finite_fields(obj, names, key_prefix: str = "", positive: bool = False):
    """Store each field of the frozen dataclass obj named in names as a finite
    float (`finite_float`), and with positive as one > 0. A ConfigError
    names the field as key_prefix + name."""
    for name in names:
        key = key_prefix + name
        value = finite_float(getattr(obj, name), key)
        if positive and not value > 0.0:
            raise ConfigError(f"{key} must be positive, got {value}")
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class PhysParams:
    """Viscosities mu, lam and adiabatic exponent gamma.

    Physical admissibility: finite numbers with mu > 0, (2/d) mu + lam >= 0
    with d the spatial dimension of the geometry, and gamma > 1, checked
    however the parameters are built. The `*_0d` properties are
    gamma, 2mu+lam and mu as read-only 0-d arrays, built once: the operands
    the solver's ufunc calls take (`_kernels.pure.operand`).
    """

    mu: float
    lam: float
    gamma: float
    geometry: Geometry

    def __post_init__(self):
        _finite_fields(self, ("mu", "lam", "gamma"), "physics.")
        if not (self.mu > 0.0):
            raise ConfigError(f"shear viscosity must be positive, got mu={self.mu}")
        d = self.geometry.dim
        if (2.0 / d) * self.mu + self.lam < 0.0:
            raise ConfigError(
                f"(2/{d})*mu + lam = {(2.0 / d) * self.mu + self.lam} < 0 violates "
                "the viscosity restriction")
        if not (self.gamma > 1.0):
            raise ConfigError(f"adiabatic exponent must exceed 1, got {self.gamma}")

    @property
    def two_mu_lam(self) -> float:
        return 2.0 * self.mu + self.lam

    @cached_property
    def gamma_0d(self) -> np.ndarray:
        return operand(self.gamma)

    @cached_property
    def two_mu_lam_0d(self) -> np.ndarray:
        return operand(self.two_mu_lam)

    @cached_property
    def mu_0d(self) -> np.ndarray:
        return operand(self.mu)


def stacked_row(i: int, swirl: bool = False) -> property:
    """Property for row i of a stacked array `self.y`. A swirl row (v, w) is
    None unless y has the cylinder's six rows. Assigning a row gives the
    holder a new y, so nothing derived from the old array is taken for it."""

    def get(self):
        return None if swirl and len(self.y) < 6 else self.y[i]

    def put(self, value):
        if swirl and len(self.y) < 6:
            raise ValueError("only a cylinder state has v and w rows")
        self.y = self.y.copy()
        self.y[i] = value

    return property(get, put)


_FIELDS = {4: ("rho", "u", "P", "B"), 6: ("rho", "u", "v", "w", "P", "B")}


def _profile_names(geometry: Geometry) -> list:
    """The profile name of each row of the geometry's state, in row order: a
    scenario file's `init.<name>`."""
    return [name.lower() for name in _FIELDS[6 if geometry.has_swirl else 4]]


class FluidState:
    """Nodal fields of the radial system at time t, stacked in one array.

    y has shape (F, N+1) with rows (rho, u, P, B) on the disk and
    (rho, u, v, w, P, B) on the cylinder (the kernels' order), so the
    velocities are always y[1:-2]. Each field name is a view of its row;
    v and w (swirl and axial velocity) are None on the disk. The keyword
    constructor copies its fields; `of` wraps an array as it is.
    Invariants: rho >= 0, P >= 0 everywhere; u[0] = B[0] = 0 (center
    regularity, plus v[0] = 0 in 3D); u[N] = 0 for fixed-boundary geometries
    (and v[N] = w[N] = 0 in 3D).
    """

    __slots__ = ("y", "t", "_stage")

    def __init__(self, rho, u, P, B, t: float = 0.0, v=None, w=None):
        if (v is None) != (w is None):
            raise ConfigError("cylinder state needs v and w fields")
        rows = (rho, u, P, B) if v is None else (rho, u, v, w, P, B)
        self.y = np.array(rows, dtype=float)
        self.t = t
        # what the solver derived from y (solver._Stage); solver-private
        self._stage = None

    @classmethod
    def of(cls, y: np.ndarray, t: float) -> "FluidState":
        """The state holding y itself (no copy) at time t."""
        state = cls.__new__(cls)
        state.y, state.t, state._stage = y, t, None
        return state

    rho = stacked_row(0)
    u = stacked_row(1)
    v = stacked_row(2, swirl=True)
    w = stacked_row(3, swirl=True)
    P = stacked_row(-2)
    B = stacked_row(-1)

    def copy(self) -> "FluidState":
        return FluidState.of(self.y.copy(), self.t)

    def pin(self, wall: bool) -> None:
        """Zero u, B (and v) at the axis; with a wall also u (and v, w) at r=R."""
        y = self.y
        y[1, 0] = y[-1, 0] = 0.0
        if len(y) == 6:
            y[2, 0] = 0.0
        if wall:
            y[1:-2, -1] = 0.0

    def freeze(self) -> None:
        """Make every field read-only."""
        self.y.flags.writeable = False

    @property
    def read_only(self) -> bool:
        """True when no field can be written in place: y is read-only and
        owns its memory (so is no view of a writable array)."""
        return not self.y.flags.writeable and self.y.flags.owndata

    def fields(self):
        """(name, row) pairs in row order."""
        return list(zip(_FIELDS[len(self.y)], self.y))


# ---------------------------------------------------------------------------
# Profile descriptors
# ---------------------------------------------------------------------------

class Profile:
    """Analytic radial profile. Kinds:

    zero                         f(r) = 0
    constant c                   f(r) = c
    poly c0 c1 c2                f(r) = c0 + c1 r + c2 r^2
    bump r_lo r_hi amplitude     C^1 piecewise-cubic bump: vanishes together
                                 with f' at r_lo and r_hi, peaks at amplitude
                                 at the midpoint.
    """

    def __init__(self, kind: str, params: tuple = ()):
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        if kind == "zero":
            if self.params:
                raise ConfigError("zero profile takes no parameters")
        elif kind == "constant":
            if len(self.params) != 1:
                raise ConfigError("constant profile needs one parameter")
        elif kind == "poly":
            if len(self.params) != 3:
                raise ConfigError("poly profile needs three coefficients")
        elif kind == "bump":
            if len(self.params) != 3:
                raise ConfigError("bump profile needs r_lo r_hi amplitude")
            r_lo, r_hi, _ = self.params
            if not (r_hi > r_lo):
                raise ConfigError(f"bump needs r_hi > r_lo, got [{r_lo}, {r_hi}]")
        else:
            raise ConfigError(f"unknown profile kind {kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Profile":
        parts = text.split()
        if not parts:
            raise ConfigError("empty profile descriptor")
        try:
            return cls(parts[0], tuple(float(p) for p in parts[1:]))
        except ValueError as exc:
            raise ConfigError(f"bad profile parameter in {text!r}: {exc}") from None

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "constant":
            return np.full_like(r, self.params[0])
        if self.kind == "poly":
            c0, c1, c2 = self.params
            return c0 + r * (c1 + r * c2)
        r_lo, r_hi, amp = self.params
        mid = 0.5 * (r_lo + r_hi)
        half = 0.5 * (r_hi - r_lo)
        out = np.zeros_like(r)
        rising = (r > r_lo) & (r <= mid)
        falling = (r > mid) & (r < r_hi)
        s = (r[rising] - r_lo) / half
        out[rising] = amp * s * s * (3.0 - 2.0 * s)
        s = (r_hi - r[falling]) / half
        out[falling] = amp * s * s * (3.0 - 2.0 * s)
        return out

    def __repr__(self):
        inner = " ".join(repr(p) for p in self.params)
        return f"Profile({self.kind} {inner})" if inner else f"Profile({self.kind})"


# ---------------------------------------------------------------------------
# Scenario configuration and initial states
# ---------------------------------------------------------------------------

class Scheme(Enum):
    SSPRK3_EXPLICIT_VISCOUS = "ssprk3"
    # the ARS(2,3,3) IMEX step, viscous terms implicit (`solver.imex_step`)
    RK2_IMPLICIT_VISCOUS = "rk2-imp"


def to_member(kind, value, name: str):
    """kind(value), with an unknown value a ConfigError that lists the choices."""
    try:
        return kind(value)
    except ValueError:
        choices = " | ".join(m.value for m in kind)
        raise ConfigError(f"unknown {name} {value!r}; choose {choices}") from None


@dataclass(frozen=True)
class SolverSettings:
    """Step-size, scheme, vacuum and blow-up controls of a run.

    The one home of these settings, their defaults and their checks. scheme
    also accepts its value as a string ("ssprk3"). `eps_vac_0d` is eps_vac
    as a read-only 0-d array, built once (see `PhysParams`).
    """

    cfl: float = 0.4
    scheme: Scheme = Scheme.RK2_IMPLICIT_VISCOUS
    eps_vac: float = 1e-6
    blowup_gradu_max: float = 1e4
    dt_min: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "scheme", to_member(Scheme, self.scheme, "scheme"))
        _finite_fields(self, ("cfl", "eps_vac", "blowup_gradu_max", "dt_min"),
                       positive=True)
        if not self.cfl < 1.0:
            raise ConfigError(f"cfl must lie in (0, 1), got {self.cfl}")

    @cached_property
    def eps_vac_0d(self) -> np.ndarray:
        return operand(self.eps_vac)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run description: grid, physics, initial profiles, controls.

    The geometry is the physics' own (`phys.geometry`); the solver settings
    and their defaults live on `SolverSettings`. The one home of the
    scenario's checks: a config read from a file, built in Python or made
    by `dataclasses.replace` is checked alike, and a bad value is a
    ConfigError with the message a scenario file gets for the same value.
    The checks that need the sampled fields are `init_scenario`'s.
    profiles is held as a read-only mapping, so a config cannot gain a
    profile after it is checked.
    """

    n: int
    r_outer: float
    phys: PhysParams
    profiles: Mapping = field(default_factory=dict)  # field name -> Profile
    r0: Optional[float] = None                     # initial vacuum radius
    t_end: float = 1.0
    solver: SolverSettings = field(default_factory=SolverSettings)
    alpha: Optional[float] = None                  # moment exponent; None -> optimized
    output_stride: int = 10
    output_dir: Optional[str] = None
    mms: bool = False

    def __post_init__(self):
        for name, key in (("n", "grid.n"), ("output_stride", "output.stride")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "profiles", MappingProxyType(dict(self.profiles)))
        geometry = self.geometry
        if self.mms and geometry is not Geometry.DISK2D:
            raise ConfigError("manufactured-solution runs are defined for disk2d only")
        for name in self.profiles:
            key = f"init.{name}"
            if name not in _profile_names(geometry):
                raise ConfigError(f"profile {key!r} is not a field of {geometry.value}")
            if self.mms:
                raise ConfigError("manufactured-solution runs define their own "
                                  f"fields; drop {key!r}")
        if self.mms and self.r0 is not None:
            raise ConfigError("manufactured-solution runs have no vacuum region")
        if self.r0 is not None and self.solver.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
            raise ConfigError(
                'time.scheme "ssprk3" cannot run a vacuum region (vacuum.r0 is '
                "set): its explicit viscous step dr^2 rho* / (2(2mu+lam)) is "
                "bound by the thin fluid at the vacuum edge, so the run would "
                'take millions of steps; use time.scheme = "rk2-imp"')
        if self.n < MIN_CELLS:
            raise ConfigError(f"grid.n must be at least {MIN_CELLS}, got {self.n}")
        _finite_fields(self, ("t_end",), "time.", positive=True)
        if self.output_stride < 1:
            raise ConfigError("output.stride must be at least 1")
        if self.alpha is not None:
            check_alpha(self.alpha, geometry)

    @property
    def geometry(self) -> Geometry:
        return self.phys.geometry

    def grid(self) -> RadialGrid:
        return make_grid(self.n, self.r_outer)


_FLUX_FLOOR = 1e-12


def init_scenario(cfg: ScenarioConfig):
    """Sample initial profiles onto the grid; return (state, front-or-None).

    With a vacuum radius r0 the initial density and pressure must vanish on
    [0, r0] and the magnetic flux through the vacuum must be non-degenerate;
    the returned front carries R(0) = r0 and the conserved flux C0.
    """
    grid = cfg.grid()
    r = grid.nodes

    if cfg.mms:
        from .mms import MMSForcing
        return MMSForcing(cfg.phys, cfg.r_outer).exact_state(grid, 0.0), None

    zero = Profile("zero")
    rows = [cfg.profiles.get(name, zero)(r) for name in _profile_names(cfg.geometry)]
    state = FluidState.of(np.array(rows), 0.0)

    # center regularity and Dirichlet ends are enforced exactly
    state.pin(wall=not cfg.geometry.is_free)

    if np.any(state.rho < 0.0):
        raise ConfigError("initial density profile is negative somewhere")
    if np.any(state.P < 0.0):
        raise ConfigError("initial pressure profile is negative somewhere")
    for name, arr in state.fields():
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"non-finite values in field {name}")

    front = None
    if cfg.r0 is not None:
        r0 = float(cfg.r0)
        if not (0.0 < r0 < cfg.r_outer):
            raise ConfigError(f"vacuum radius r0={r0} must lie inside (0, {cfg.r_outer})")
        inside = r <= r0 * (1.0 + 1e-12)
        if np.any(state.rho[inside] != 0.0) or np.any(state.P[inside] != 0.0):
            raise ConfigError("density and pressure must vanish identically on [0, r0]")
        c0 = integrate_to(state.B, grid, r0)
        if abs(c0) < _FLUX_FLOOR:
            raise ConfigError(
                f"vacuum magnetic flux {c0:.3e} is degenerate (|C0| < {_FLUX_FLOOR})")
        # imported here: vacuum imports core, and a scenario without a
        # vacuum radius never loads it
        from .vacuum import VacuumFront
        front = VacuumFront(R=r0, r0=r0, C0=c0)

    return state, front
