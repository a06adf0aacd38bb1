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

import numpy as np

from .core import FluidState, Geometry, PhysParams, RadialGrid
from .errors import ConfigError

MMS_AMPLITUDE = 0.1


class MMSForcing:
    """Callable returning (f_rho, f_u, f_P, f_B) forcing arrays at (r, t).

    f_u is the momentum-equation residual (the ``rho du/dt`` form); the solver
    divides it by rho* alongside the other momentum terms.
    """

    def __init__(self, p: PhysParams, r_outer: float, amp: float = MMS_AMPLITUDE):
        if p.geometry is not Geometry.DISK2D:
            raise ConfigError("the manufactured solution is defined for disk2d only")
        self.p = p
        self.r_outer = float(r_outer)
        self.amp = float(amp)

    def _fields(self, r, t):
        """Building blocks (k, e, cos, sin) and the exact (rho, u, P, B)."""
        k = np.pi / self.r_outer
        e = self.amp * np.exp(-t)
        c = np.cos(k * r)
        s = np.sin(k * r)
        fields = (1.0 + e * c, e * s * r / self.r_outer,
                  1.0 + e * c, e * s * r / self.r_outer)
        return (k, e, c, s), fields

    def exact(self, r: np.ndarray, t: float):
        return self._fields(r, t)[1]

    def exact_state(self, grid: RadialGrid, t: float) -> FluidState:
        rho, u, P, B = self.exact(grid.nodes, t)
        state = FluidState(rho=rho, u=u, P=P, B=B, t=t)
        state.pin(wall=True)      # u(R) is sin(pi) roundoff otherwise
        return state

    def __call__(self, r: np.ndarray, t: float):
        R = self.r_outer
        (k, e, c, s), (rho, u, P, B) = self._fields(r, t)
        gamma = self.p.gamma
        two_mu_lam = self.p.two_mu_lam

        rho_t = -e * c
        rho_r = -e * k * s
        u_t = -u
        u_r = e * (k * c * r + s) / R
        u_over_r = e * s / R
        div = u_r + u_over_r
        div_r = e * k * (3.0 * c - k * s * r) / R
        P_t = -e * c
        P_r = -e * k * s
        B_t = -B
        B_r = u_r
        B_over_r = u_over_r

        f_rho = rho_t + rho_r * u + rho * div
        f_u = rho * (u_t + u * u_r) + P_r - two_mu_lam * div_r + B * (B_r + B_over_r)
        f_P = P_t + u * P_r + gamma * P * div
        f_B = B_t + u_r * B + u * B_r
        return f_rho, f_u, f_P, f_B


def mms_initial_state(grid: RadialGrid, geometry: Geometry) -> FluidState:
    if geometry is not Geometry.DISK2D:
        raise ConfigError("the manufactured solution is defined for disk2d only")
    # parameters other than geometry do not matter for the initial fields
    p = PhysParams(mu=1.0, lam=0.0, gamma=1.4, geometry=geometry)
    return MMSForcing(p, grid.r_outer).exact_state(grid, 0.0)
