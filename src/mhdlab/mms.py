"""Manufactured solution for convergence measurement (disk geometry).

The target fields are smooth, strictly positive in density and pressure, and
compatible with the center and Dirichlet conditions:

    rho = 1 + a e^(-t) cos(k r)        k = pi / R
    u   = a e^(-t) sin(k r) r / R
    P   = 1 + a e^(-t) cos(k r)
    B   = a e^(-t) sin(k r) r / R

Substituting them into the radial system leaves residual forcing terms that
the solver adds to its tendencies; the discrete solution then converges to
the fields above at the scheme's spatial order.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels.pure import operand
from .core import FluidState, Geometry, PhysParams, RadialGrid
from .errors import ConfigError

MMS_AMPLITUDE = 0.1


class MMSForcing:
    """Callable returning the forcing rows (f_rho, f_u, f_P, f_B) at (r, t) as
    one read-only (4, N+1) array.

    f_u is the momentum-equation residual (the ``rho du/dt`` form); the solver
    divides it by rho* alongside the other momentum terms.

    Every residual is a polynomial in e = MMS_AMPLITUDE exp(-t) with
    coefficients that depend on r only. With c = cos(k r), s = sin(k r),
    q = s r / R, u' = (k c r + s) / R and D = u' + s / R (so u = e q,
    u_r = e u' and u_r + u/r = e D):

        f_rho = e (D - c)       + e^2 (c D - k s q)
        f_u   = e b1            + e^2 q (u' + D - c) + e^3 c q u'
                with b1 = -q - k s - (2mu+lam) k (3c - k s r) / R
        f_P   = e (gamma D - c) + e^2 (gamma c D - k s q)
        f_B   = -e q            + e^2 2 q u'

    The coefficient profiles are tabulated once per node array as three
    stacked (4, N+1) tables T1, T2, T3 (T3 is zero outside the u row), so a
    call evaluates ((e T3 + T2) e + T1) e in five array operations.

    The evaluation at the latest t asked for is kept, and a call at exactly
    that t returns it again: an SSP-RK3 step asks for t, t + dt and
    t + dt/2, and the next step's first stage asks for t + dt again, so a
    step evaluates the polynomial twice. No caller can write into an
    evaluation, so none is copied.
    """

    def __init__(self, p: PhysParams, r_outer: float):
        if p.geometry is not Geometry.DISK2D:
            raise ConfigError("the manufactured solution is defined for disk2d only")
        self.p = p
        self.r_outer = float(r_outer)
        self._table_r = None        # node array the cached profiles belong to
        self._table = None
        self._kept_t = None         # latest t evaluated on _table_r
        self._kept = None

    def exact(self, r: np.ndarray, t: float):
        e = MMS_AMPLITUDE * np.exp(-t)
        kr = np.pi / self.r_outer * r
        c, s = np.cos(kr), np.sin(kr)
        return (1.0 + e * c, e * s * r / self.r_outer,
                1.0 + e * c, e * s * r / self.r_outer)

    def exact_state(self, grid: RadialGrid, t: float) -> FluidState:
        rho, u, P, B = self.exact(grid.nodes, t)
        state = FluidState(rho=rho, u=u, P=P, B=B, t=t)
        state.pin(wall=True)      # u(R) is sin(pi) roundoff otherwise
        return state

    def _tabulate(self, r):
        """The coefficient profiles of the class docstring on nodes r, as the
        tables (T1, T2, T3) of the powers e, e^2, e^3 with rows rho, u, P, B."""
        R = self.r_outer
        k = np.pi / R
        c, s = np.cos(k * r), np.sin(k * r)
        gamma = self.p.gamma
        q = s * r / R
        du = (k * c * r + s) / R
        D = du + s / R
        ksq = k * s * q
        b1 = -q - k * s - self.p.two_mu_lam * k * (3.0 * c - k * s * r) / R
        T1 = np.array((D - c, b1, gamma * D - c, -q))
        T2 = np.array((c * D - ksq, q * (du + D - c), gamma * c * D - ksq,
                       2.0 * q * du))
        T3 = np.zeros_like(T1)
        T3[1] = c * q * du
        return T1, T2, T3

    def __call__(self, r: np.ndarray, t: float):
        # only e changes between the calls of a run on one grid; node arrays
        # are not written in place (a grid's are read-only)
        if r is not self._table_r:
            self._table = self._tabulate(r)
            self._table_r = r
            self._kept_t = None
        if t == self._kept_t:
            return self._kept
        f = self._evaluate(t)
        if self._kept_t is None or t > self._kept_t:
            self._kept_t, self._kept = t, f
        return f

    def _evaluate(self, t: float) -> np.ndarray:
        """The forcing at t on the tabulated nodes, as a new read-only array."""
        T1, T2, T3 = self._table
        # one 0-d e for its three products
        e = operand(MMS_AMPLITUDE * math.exp(-t))
        f = T3 * e
        f += T2
        f *= e
        f += T1
        f *= e
        f.flags.writeable = False
        return f
