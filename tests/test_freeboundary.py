"""Moving-domain solver: stress condition, domain motion, remap, growth law."""

import math

import numpy as np
import pytest

from mhdlab import (FluidState, Geometry, GeometryCollapse, PhysParams,
                    Profile, Scheme, SolverSettings, Weight,
                    boundary_stress_residual, growth_check, integrate,
                    make_grid)
from mhdlab.diagnostics import DiagnosticsRecord
from mhdlab.freeboundary import (advance_domain, enforce_boundary_stress,
                                 free_step, remap_state)
from mhdlab.solver import StepStats, _residual_and_scale, step


def params(mu=0.25, lam=0.0):
    return PhysParams(mu=mu, lam=lam, gamma=1.4, geometry=Geometry.DISK2D_FREE)


def free_state(grid, rho=None, u=None, P=None, B=None):
    n1 = grid.n_cells + 1

    def pick(x):
        return np.zeros(n1) if x is None else np.asarray(x, dtype=float)

    return FluidState(rho=pick(rho), u=pick(u), P=pick(P), B=pick(B))


class TestStressResidual:
    def test_quiet_boundary(self):
        g = make_grid(64, 1.0)
        st = free_state(g, rho=np.ones(65))
        assert boundary_stress_residual(st, g, params()) == 0.0

    def test_linear_velocity_closed_form(self):
        # u = c r: u_r + u/a = 2c at the boundary, residual -(2mu+lam) 2c
        g = make_grid(128, 1.0)
        c = 0.4
        r = g.nodes
        st = free_state(g, rho=np.ones(129), u=c * r)
        p = params()
        assert boundary_stress_residual(st, g, p) == pytest.approx(
            -p.two_mu_lam * 2.0 * c, rel=1e-12)

    def test_enforcement_zeroes_residual(self):
        g = make_grid(128, 1.0)
        rng = np.random.default_rng(3)
        st = free_state(g, rho=np.ones(129),
                        u=0.2 * np.sin(np.pi * g.nodes) * g.nodes,
                        P=np.full(129, 0.1) * (1 - g.nodes),
                        B=0.3 * g.nodes * (1 - g.nodes))
        p = params()
        enforce_boundary_stress(st, g, p)
        scale = max(abs(st.P[-1]), p.two_mu_lam, 1.0)
        assert abs(boundary_stress_residual(st, g, p)) <= 1e-12 * scale

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_solver_step_meets_stress_condition(self, scheme):
        # the free geometry alone tells the solver to enforce the stress
        # condition: a plain `step` must not pin the wall
        g = make_grid(128, 1.0)
        r = g.nodes
        st = free_state(g, rho=np.ones(129), u=0.1 * r ** 2,
                        P=0.3 * (1.2 - r ** 2),
                        B=Profile.parse("bump 0.2 0.7 0.5")(r))
        p = params(mu=0.2)
        out = step(st, 1e-4, p, g, SolverSettings(scheme=scheme))
        _, scale = _residual_and_scale(out, g, p)
        assert abs(boundary_stress_residual(out, g, p)) <= 1e-10 * scale
        assert out.u[-1] != 0.0


class TestAdvanceDomain:
    def test_static_field(self):
        g = make_grid(64, 1.0)
        st = free_state(g, rho=np.ones(65))
        out = advance_domain(g, st.u, 0.05)
        assert out.r_outer == 1.0

    def test_constant_velocity_exact(self):
        g = make_grid(64, 1.0)
        st = free_state(g, u=np.full(65, 0.25))
        for _ in range(8):
            g = advance_domain(g, st.u, 0.05)
        assert g.r_outer == pytest.approx(1.0 + 0.25 * 0.4, rel=1e-13)

    def test_collapse_raises(self):
        g = make_grid(64, 0.1)
        st = free_state(g, u=np.full(65, -1.0))
        with pytest.raises(GeometryCollapse):
            advance_domain(g, st.u, 0.2)


class TestRemap:
    def test_constant_fields_exact(self):
        old = make_grid(64, 1.0)
        new = make_grid(64, 1.05)
        st = free_state(old, rho=np.full(65, 2.0), P=np.full(65, 0.3))
        out = remap_state(st, old, new)
        assert np.allclose(out.rho, 2.0) and np.allclose(out.P, 0.3)

    def test_mass_defect_second_order(self):
        p_rho = Profile.parse("bump 0.2 0.8 1.0")
        defects = []
        for n in (128, 256):
            old = make_grid(n, 1.0)
            new = make_grid(n, 1.02)
            st = free_state(old, rho=1.0 + p_rho(old.nodes))
            stats = StepStats()
            remap_state(st, old, new, stats)
            defects.append(stats.remap_mass_defect)
        assert defects[0] / defects[1] > 3.0

    def test_pins_preserved(self):
        old = make_grid(64, 1.0)
        new = make_grid(64, 0.98)
        st = free_state(old, u=0.1 * old.nodes, B=0.2 * old.nodes)
        st.u[0] = st.B[0] = 0.0
        out = remap_state(st, old, new)
        assert out.u[0] == 0.0 and out.B[0] == 0.0


class TestGrowthCheck:
    def rec(self, t, a):
        return DiagnosticsRecord(t=t, energy=0.0, dissipation_cum=0.0,
                                 div_l2=0.0, max_gradu=0.0, dt=0.0,
                                 a_boundary=a)

    def test_quiescent_passes(self):
        hist = [self.rec(t, 1.0) for t in (0.0, 0.5, 1.0)]
        rep = growth_check(hist, a0=1.0, E0=2.0, p=params(mu=1.0))
        assert rep.passed

    def test_envelope_boundary_value(self):
        # a(t) = 1 + sqrt(t) exactly rides the envelope for E0=2, 2mu+lam=2
        hist = [self.rec(t, 1.0 + math.sqrt(t)) for t in (0.0, 0.3, 0.9)]
        rep = growth_check(hist, a0=1.0, E0=2.0, p=params(mu=1.0))
        assert rep.passed and abs(rep.worst_excess) < 1e-12

    def test_violation_detected(self):
        hist = [self.rec(t, 1.0 + 2.0 * math.sqrt(t)) for t in (0.0, 0.25, 1.0)]
        rep = growth_check(hist, a0=1.0, E0=2.0, p=params(mu=1.0))
        assert not rep.passed and rep.worst_excess > 0.9


class TestFreeStep:
    def test_quiescent_grid_static(self):
        g = make_grid(64, 1.0)
        st = free_state(g, rho=np.ones(65))
        p = params()
        out, g2, _ = free_step(st, 1e-3, p, g, SolverSettings())
        assert g2.r_outer == 1.0
        assert np.allclose(out.rho, 1.0)

    def test_returns_the_grid_of_the_new_radius(self):
        g = make_grid(128, 1.0)
        st = free_state(g, rho=np.ones(129), u=0.3 * g.nodes ** 2)
        st.u[0] = 0.0
        s = SolverSettings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        for _ in range(3):
            st, g, _ = free_step(st, 1e-3, params(mu=0.3), g, s)
        ref = make_grid(128, g.r_outer)
        assert g.r_outer > 1.0 and g.dr == ref.dr
        np.testing.assert_array_equal(g.nodes, ref.nodes)
        np.testing.assert_array_equal(g.quad_weights, ref.quad_weights)

    def test_front_moves_with_the_boundary_field(self):
        # the front and the boundary take the same time-centred velocity,
        # the step's input and output averaged on the grid of [0, a] before
        # the remap, and the midpoint rule on that grid
        from mhdlab.vacuum import VacuumFront, advance_front, advance_radius
        g = make_grid(128, 1.0)
        st = free_state(g, rho=np.ones(129), u=0.3 * g.nodes ** 2)
        st.u[0] = 0.0
        p, dt = params(mu=0.3), 1e-3
        s = SolverSettings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        front = VacuumFront(R=0.4, r0=0.4, C0=1.0)
        out, g2, moved = free_step(st, dt, p, g, s, front=front)
        u_mid = 0.5 * (st.u + step(st, dt, p, g, s).u)
        assert g2.r_outer == advance_radius(u_mid, g, 1.0, dt) > 1.0
        assert moved == advance_front(front, u_mid, g, dt)
        assert moved.R > front.R
        assert free_step(st, dt, p, g, s)[2] is None

    def test_stress_residual_tracked_small(self):
        g = make_grid(128, 1.0)
        prof = Profile.parse("bump 0.2 0.7 0.5")
        st = free_state(g, rho=np.ones(129), u=prof(g.nodes),
                        B=prof(g.nodes))
        p = params(mu=0.2)
        stats = StepStats()
        s = SolverSettings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        for _ in range(10):
            st, g, _ = free_step(st, 5e-4, p, g, s, stats)
        assert stats.max_stress_residual_rel <= 1e-10

    def test_outflow_expands_domain(self):
        # boundary blob pushing outward moves a and conserves mass to remap error
        g = make_grid(256, 1.0)
        r = g.nodes
        u0 = 0.3 * r ** 2
        st = free_state(g, rho=np.ones(257), u=u0)
        st.u[0] = 0.0
        p = params(mu=0.3)
        s = SolverSettings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        stats = StepStats()
        m0 = integrate(st.rho, g, Weight.RADIAL_R)
        for _ in range(40):
            st, g, _ = free_step(st, 1e-3, p, g, s, stats)
        assert g.r_outer > 1.0
        m1 = integrate(st.rho, g, Weight.RADIAL_R)
        assert abs(m1 - m0) / m0 < 1e-3

    def test_energy_identity_with_moving_boundary(self):
        # the stress condition kills all boundary work terms: with the
        # boundary genuinely travelling, E(t) + dissipation stays at E0
        from mhdlab import cfl_dt
        from mhdlab.diagnostics import dissipation_rate, total_energy
        from mhdlab.freeboundary import enforce_boundary_stress
        n = 512
        g = make_grid(n, 1.0)
        xi = g.nodes
        p = params(mu=0.15)
        st = free_state(g, rho=np.ones(n + 1), u=0.2 * xi * xi * (1.5 - xi),
                        P=0.3 * (1 - xi ** 2),
                        B=Profile.parse("bump 0.2 0.7 0.4")(xi))
        st.u[0] = st.B[0] = 0.0
        s = SolverSettings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        stats = StepStats()
        enforce_boundary_stress(st, g, p)
        e0 = total_energy(st, g, p)
        diss = 0.0
        d_prev = dissipation_rate(st, g, p)
        while st.t < 0.5:
            dt = min(cfl_dt(st, g, p, s), 0.5 - st.t)
            st, g, _ = free_step(st, dt, p, g, s, stats)
            d = dissipation_rate(st, g, p)
            diss += 0.5 * (d_prev + d) * dt
            d_prev = d
        assert g.r_outer > 1.05                # the boundary really moved
        e_final = total_energy(st, g, p)
        assert abs(e_final + diss - e0) / e0 < 2e-3
        assert stats.max_stress_residual_rel < 1e-10
