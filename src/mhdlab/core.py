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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from ._kernels.pure import laplacian_rows
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
    """

    nodes: np.ndarray
    r_outer: float
    spacing: np.ndarray          # per-cell widths, all equal on a uniform grid
    quad_weights: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def dr(self) -> float:
        return float(self.spacing[0])

    @cached_property
    def lap_rows(self):
        """(sub, sup, swirl, axial) viscous stencil rows by node, read-only.

        See `_kernels.pure.laplacian_rows`; built on first use, once per grid.
        """
        return tuple(_read_only(a) for a in laplacian_rows(self.nodes, self.dr))


MIN_CELLS = 2     # width of the one-sided end stencils


def make_grid(n: int, r_outer: float) -> RadialGrid:
    """Uniform grid with n cells on [0, r_outer]; weights are composite trapezoid."""
    if n < MIN_CELLS:
        raise ConfigError(f"grid needs at least {MIN_CELLS} cells, got {n}")
    if not (r_outer > 0.0) or not math.isfinite(r_outer):
        raise ConfigError(f"outer radius must be positive and finite, got {r_outer}")
    nodes = np.linspace(0.0, r_outer, n + 1)
    dr = r_outer / n
    weights = np.full(n + 1, dr)
    weights[0] = weights[-1] = 0.5 * dr
    return RadialGrid(nodes=_read_only(nodes), r_outer=float(r_outer),
                      spacing=_read_only(np.full(n, dr)),
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


def integrate_to(samples: np.ndarray, grid: RadialGrid, r_upper: float,
                 weight: Weight = Weight.PLAIN) -> float:
    """Trapezoid quadrature over [0, r_upper] <= R_outer.

    The partial final cell uses the linearly interpolated sample at r_upper.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ConfigError(
            f"sample length {samples.shape} does not match grid {grid.nodes.shape}")
    if r_upper < 0.0 or r_upper > grid.r_outer * (1.0 + 1e-12):
        raise ConfigError(f"integration endpoint {r_upper} outside [0, {grid.r_outer}]")
    r_upper = min(r_upper, grid.r_outer)
    r = grid.nodes
    dr = grid.dr
    k = int(min(np.floor(r_upper / dr), grid.n_cells - 1))  # cell containing r_upper
    f = samples * r if weight is Weight.RADIAL_R else samples
    # full cells [0, r_k], then the partial piece [r_k, r_upper]
    total = 0.0
    if k > 0:
        total += dr * (0.5 * f[0] + np.sum(f[1:k]) + 0.5 * f[k])
    frac = (r_upper - r[k]) / dr
    f_up = f[k] + frac * (f[k + 1] - f[k])
    total += 0.5 * (f[k] + f_up) * (r_upper - r[k])
    return float(total)


@dataclass(frozen=True)
class PhysParams:
    """Viscosities mu, lam and adiabatic exponent gamma.

    Physical admissibility: mu > 0, (2/d) mu + lam >= 0 with d the spatial
    dimension of the geometry, and gamma > 1.
    """

    mu: float
    lam: float
    gamma: float
    geometry: Geometry

    def __post_init__(self):
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


@dataclass
class FluidState:
    """Nodal fields of the radial system at time t.

    v and w (swirl and axial velocity) exist only for the 3D cylinder.
    Invariants: rho >= 0, P >= 0 everywhere; u[0] = B[0] = 0 (center
    regularity, plus v[0] = 0 in 3D); u[N] = 0 for fixed-boundary geometries
    (and v[N] = w[N] = 0 in 3D).
    """

    rho: np.ndarray
    u: np.ndarray
    P: np.ndarray
    B: np.ndarray
    t: float = 0.0
    v: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None

    def copy(self) -> "FluidState":
        return self.map(lambda _, f: f.copy(), self.t)

    def map(self, fn, t: float) -> "FluidState":
        """State at time t holding fn(name, array) for every present field."""
        return FluidState(t=t, **{name: fn(name, arr) for name, arr in self.fields()})

    def pin(self, wall: bool) -> None:
        """Zero u, B (and v) at the axis; with a wall also u (and v, w) at r=R."""
        self.u[0] = 0.0
        self.B[0] = 0.0
        if self.v is not None:
            self.v[0] = 0.0
        if wall:
            self.u[-1] = 0.0
            if self.v is not None:
                self.v[-1] = 0.0
                self.w[-1] = 0.0

    def fields(self):
        """(name, array) pairs for the fields present."""
        out = [("rho", self.rho), ("u", self.u), ("P", self.P), ("B", self.B)]
        if self.v is not None:
            out.append(("v", self.v))
        if self.w is not None:
            out.append(("w", self.w))
        return out

    def validate(self, geometry: Geometry, atol: float = 0.0) -> None:
        for name, arr in self.fields():
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"non-finite values in field {name}")
        if np.any(self.rho < -atol):
            raise ConfigError("negative density")
        if np.any(self.P < -atol):
            raise ConfigError("negative pressure")
        if self.u[0] != 0.0 or self.B[0] != 0.0:
            raise ConfigError("center regularity u(0)=B(0)=0 violated")
        if geometry.has_swirl:
            if self.v is None or self.w is None:
                raise ConfigError("cylinder state needs v and w fields")
            if self.v[0] != 0.0:
                raise ConfigError("center regularity v(0)=0 violated")
            if not geometry.is_free and (self.v[-1] != 0.0 or self.w[-1] != 0.0):
                raise ConfigError("Dirichlet end v(R)=w(R)=0 violated")
        else:
            if self.v is not None or self.w is not None:
                raise ConfigError("v/w fields are only valid for cylinder geometry")
        if not geometry.is_free and self.u[-1] != 0.0:
            raise ConfigError("Dirichlet end u(R)=0 violated")


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

@dataclass
class ScenarioConfig:
    """Validated run description: grid, physics, initial profiles, controls."""

    geometry: Geometry
    n: int
    r_outer: float
    phys: PhysParams
    profiles: dict = field(default_factory=dict)   # field name -> Profile
    r0: Optional[float] = None                     # initial vacuum radius
    t_end: float = 1.0
    cfl: float = 0.4
    scheme: str = "rk2-imp"                        # or "ssprk3"
    vacuum_strategy: str = "elliptic-balance"      # or "density-floor"
    eps_vac: float = 1e-6
    blowup_gradu_max: float = 1e4
    dt_min: float = 1e-12
    alpha: Optional[float] = None                  # moment exponent; None -> optimized
    output_stride: int = 10
    output_dir: Optional[str] = None
    mms: bool = False

    def grid(self) -> RadialGrid:
        return make_grid(self.n, self.r_outer)


_FLUX_FLOOR = 1e-12


def init_scenario(cfg: ScenarioConfig):
    """Sample initial profiles onto the grid; return (state, front-or-None).

    With a vacuum radius r0 the initial density and pressure must vanish on
    [0, r0] and the magnetic flux through the vacuum must be non-degenerate;
    the returned front carries R(0) = r0 and the conserved flux C0.
    """
    from .vacuum import VacuumFront  # local import to avoid a cycle

    grid = cfg.grid()
    r = grid.nodes

    if cfg.mms:
        from .mms import mms_initial_state
        return mms_initial_state(grid, cfg.geometry), None

    def sample(name):
        prof = cfg.profiles.get(name)
        return np.zeros_like(r) if prof is None else prof(r).astype(float)

    state = FluidState(rho=sample("rho"), u=sample("u"), P=sample("p"), B=sample("b"),
                       t=0.0)
    if cfg.geometry.has_swirl:
        state.v = sample("v")
        state.w = sample("w")

    # center regularity and Dirichlet ends are enforced exactly
    state.pin(wall=not cfg.geometry.is_free)

    if np.any(state.rho < 0.0):
        raise ConfigError("initial density profile is negative somewhere")
    if np.any(state.P < 0.0):
        raise ConfigError("initial pressure profile is negative somewhere")

    front = None
    if cfg.r0 is not None:
        r0 = float(cfg.r0)
        if not (0.0 < r0 < cfg.r_outer):
            raise ConfigError(f"vacuum radius r0={r0} must lie inside (0, {cfg.r_outer})")
        inside = r <= r0 * (1.0 + 1e-12)
        if np.any(state.rho[inside] != 0.0) or np.any(state.P[inside] != 0.0):
            raise ConfigError("density and pressure must vanish identically on [0, r0]")
        c0 = integrate_to(state.B, grid, r0, Weight.PLAIN)
        if abs(c0) < _FLUX_FLOOR:
            raise ConfigError(
                f"vacuum magnetic flux {c0:.3e} is degenerate (|C0| < {_FLUX_FLOOR})")
        front = VacuumFront(R=r0, r0=r0, C0=c0)

    state.validate(cfg.geometry)
    return state, front
