"""Front-tracking ODE and flux-ledger tests."""

import math

import numpy as np
import pytest

from mhdlab import (FluidState, TrackingError, check_vacuum, make_grid,
                    vacuum_flux)
from mhdlab.vacuum import VacuumFront, advance_front, interp_velocity


def state_with_u(grid, u, B=None):
    n1 = len(grid.nodes)
    z = np.zeros(n1)
    return FluidState(rho=z.copy(), u=u, P=z.copy(),
                      B=z.copy() if B is None else B)


class TestAdvanceFront:
    def test_stationary_field(self):
        g = make_grid(64, 1.0)
        st = state_with_u(g, np.zeros(65))
        front = VacuumFront(R=0.5, r0=0.5, C0=1.0)
        out = advance_front(front, st.u, g, 0.1)
        assert out.R == 0.5

    def test_constant_velocity_exact(self):
        g = make_grid(64, 1.0)
        st = state_with_u(g, np.full(65, 0.3))
        front = VacuumFront(R=0.2, r0=0.2, C0=1.0)
        for _ in range(10):
            front = advance_front(front, st.u, g, 0.05)
        assert front.R == pytest.approx(0.2 + 0.3 * 0.5, rel=1e-14)

    def test_exponential_growth_order(self):
        # u = k r frozen in time: R(t) = r0 exp(k t); midpoint error O(dt^3)/step
        g = make_grid(1024, 4.0)
        k = 0.8
        st = state_with_u(g, k * g.nodes)
        r0, t_end = 0.5, 1.0

        def run(n_steps):
            front = VacuumFront(R=r0, r0=r0, C0=1.0)
            dt = t_end / n_steps
            for _ in range(n_steps):
                front = advance_front(front, st.u, g, dt)
            return front.R

        exact = r0 * math.exp(k * t_end)
        e1 = abs(run(50) - exact)
        e2 = abs(run(100) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_leaving_domain_raises(self):
        g = make_grid(32, 1.0)
        st = state_with_u(g, np.full(33, 5.0))
        front = VacuumFront(R=0.9, r0=0.9, C0=1.0)
        with pytest.raises(TrackingError):
            advance_front(front, st.u, g, 1.0)

    def test_interp_velocity_linear(self):
        g = make_grid(10, 1.0)
        u = 2.0 * g.nodes
        assert interp_velocity(u, g, 0.123) == pytest.approx(0.246, rel=1e-13)
        assert interp_velocity(u, g, 1.5) == 2.0   # clamps at the boundary

    def test_monotone_with_nonnegative_velocity(self):
        # u >= 0 everywhere keeps the front from moving inward
        g = make_grid(128, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = np.abs(rng.standard_normal(129)) * 0.2
            u[0] = 0.0
            st = state_with_u(g, u)
            front = VacuumFront(R=rng.uniform(0.1, 0.8), r0=0.5, C0=1.0)
            out = advance_front(front, st.u, g, 1e-3)
            assert out.R >= front.R


class TestVacuumFlux:
    def test_linear_field(self):
        g = make_grid(128, 1.0)
        st = state_with_u(g, np.zeros(129), B=g.nodes.copy())
        front = VacuumFront(R=1.0, r0=1.0, C0=0.5)
        assert vacuum_flux(st, front, g) == pytest.approx(0.5, rel=1e-13)

    def test_zero_field(self):
        g = make_grid(128, 1.0)
        st = state_with_u(g, np.zeros(129))
        front = VacuumFront(R=0.7, r0=0.7, C0=1.0)
        assert vacuum_flux(st, front, g) == 0.0

    def test_parabola_partial_interval(self):
        # B = r(1-r): int_0^0.5 = 1/8 - 1/24
        g = make_grid(512, 1.0)
        st = state_with_u(g, np.zeros(513), B=g.nodes * (1 - g.nodes))
        front = VacuumFront(R=0.5, r0=0.5, C0=1.0)
        assert vacuum_flux(st, front, g) == pytest.approx(
            1.0 / 8.0 - 1.0 / 24.0, rel=1e-5)


class TestCheckVacuum:
    def test_exact_vacuum_passes(self):
        g = make_grid(64, 1.0)
        st = state_with_u(g, np.zeros(65))
        st.rho[40:] = 1.0
        front = VacuumFront(R=0.5, r0=0.5, C0=1.0)
        rep = check_vacuum(st, front, g, tol=1e-6)
        assert rep.passed and rep.max_rho == 0.0 and rep.max_P == 0.0

    def test_perturbed_node_fails(self):
        g = make_grid(64, 1.0)
        st = state_with_u(g, np.zeros(65))
        tol = 1e-6
        st.rho[10] = 10.0 * tol
        front = VacuumFront(R=0.5, r0=0.5, C0=1.0)
        rep = check_vacuum(st, front, g, tol=tol)
        assert not rep.passed
        assert rep.max_rho == pytest.approx(10.0 * tol)
        assert rep.worst_node == 10
