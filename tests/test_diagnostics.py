"""Diagnostics-chain tests: every closed-form value here was computed from the
stated antiderivative or by direct arithmetic before being frozen."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdlab import (BoundInputs, ConfigError, DiagnosticsRecord, FluidState,
                    Geometry, PhysParams, Weight, cauchy_schwarz_gap,
                    div_lower_bound, div_norm, dissipation_rate,
                    energy_residual, integrate, lifespan_bound, make_grid,
                    moment_coefficient, moment_pair, optimize_alpha,
                    total_energy)
from mhdlab.diagnostics import moment_pre_ibp
from mhdlab.vacuum import VacuumFront


def disk_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.DISK2D)


def cyl_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.CYLINDER3D)


def disk_state(grid, rho=None, u=None, P=None, B=None, t=0.0):
    n1 = len(grid.nodes)
    z = np.zeros(n1)
    return FluidState(rho=z.copy() if rho is None else rho,
                      u=z.copy() if u is None else u,
                      P=z.copy() if P is None else P,
                      B=z.copy() if B is None else B, t=t)


class TestTotalEnergy:
    def test_zero_state(self):
        g = make_grid(64, 1.0)
        assert total_energy(disk_state(g), g, disk_params()) == 0.0

    def test_pressure_only(self):
        g = make_grid(256, 1.0)
        p = disk_params(gamma=1.4)
        st_ = disk_state(g, rho=np.ones(257), P=np.full(257, p.gamma - 1.0))
        assert total_energy(st_, g, p) == pytest.approx(0.5, rel=1e-12)

    def test_magnetic_only(self):
        g = make_grid(512, 1.0)
        st_ = disk_state(g, B=g.nodes.copy())
        # int_0^1 (1/2) r^2 r dr = 1/8
        assert total_energy(st_, g, disk_params()) == pytest.approx(0.125, rel=1e-5)

    def test_cylinder_counts_all_velocities(self):
        g = make_grid(128, 1.0)
        n1 = 129
        st_ = FluidState(rho=np.ones(n1), u=np.zeros(n1), P=np.zeros(n1),
                         B=np.zeros(n1), v=g.nodes * (1 - g.nodes),
                         w=np.full(n1, 0.3))
        st_.v[0] = 0.0
        e = total_energy(st_, g, cyl_params())
        # 1/2 int (v^2 + w^2) r dr with v = r(1-r), w = 0.3
        exact = 0.5 * (1.0 / 4 - 2.0 / 5 + 1.0 / 6) + 0.5 * 0.09 * 0.5
        assert e == pytest.approx(exact, rel=1e-4)


class TestDissipation:
    def test_rest_state(self):
        g = make_grid(64, 1.0)
        assert dissipation_rate(disk_state(g), g, disk_params()) == 0.0

    def test_linear_velocity(self):
        # u = r: div u = 2, (2mu+lam) int 4 r dr = 4 with 2mu+lam = 2
        g = make_grid(512, 1.0)
        st_ = disk_state(g, u=g.nodes.copy())
        st_.u[0] = 0.0
        assert dissipation_rate(st_, g, disk_params(mu=1.0, lam=0.0)) \
            == pytest.approx(4.0, rel=1e-10)

    def test_cylinder_axial_shear(self):
        # only w = r, mu = 1: int r w_r^2 dr = 1/2
        g = make_grid(512, 1.0)
        n1 = 513
        st_ = FluidState(rho=np.ones(n1), u=np.zeros(n1), P=np.zeros(n1),
                         B=np.zeros(n1), v=np.zeros(n1), w=g.nodes.copy())
        assert dissipation_rate(st_, g, cyl_params(mu=1.0)) \
            == pytest.approx(0.5, rel=1e-10)


class TestDivNorm:
    def test_zero(self):
        g = make_grid(64, 1.0)
        assert div_norm(disk_state(g), g) == 0.0

    def test_linear(self):
        g = make_grid(512, 1.0)
        st_ = disk_state(g, u=g.nodes.copy())
        assert div_norm(st_, g) == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_parabolic(self):
        # u = r(1-r): int (2-3r)^2 r dr = 1/4, norm 1/2
        g = make_grid(1024, 1.0)
        st_ = disk_state(g, u=g.nodes * (1 - g.nodes))
        assert div_norm(st_, g) == pytest.approx(0.5, rel=1e-5)


class TestMomentCoefficient:
    def test_value_at_midpoint(self):
        assert moment_coefficient(1.5) == pytest.approx(
            1.5 + 2.5 / math.sqrt(3.0), rel=1e-14)

    def test_divergence_toward_one(self):
        assert moment_coefficient(1.0 + 1e-9) > 1e4

    def test_near_two(self):
        assert moment_coefficient(2.0 - 1e-9) == pytest.approx(
            2.0 / math.sqrt(2.0) + 1.5, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5])
    def test_domain(self, alpha):
        with pytest.raises(ConfigError):
            moment_coefficient(alpha)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_chain_functions_share_the_domain_message(self, alpha):
        g = make_grid(16, 1.0)
        st_ = disk_state(g)
        front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
        message = rf"^moment exponent must lie in \(1, 2\), got {alpha}$"
        for call in (lambda: moment_coefficient(alpha),
                     lambda: moment_pair(st_, front, g, disk_params(), alpha),
                     lambda: cauchy_schwarz_gap(st_, front, g, alpha)):
            with pytest.raises(ConfigError, match=message):
                call()


class TestMomentPair:
    def test_zero_field_zero_rhs(self):
        g = make_grid(256, 1.0)
        st_ = disk_state(g, u=np.sin(np.pi * g.nodes) * g.nodes)
        st_.u[0] = 0.0
        front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
        lhs, rhs, floor = moment_pair(st_, front, g, disk_params(), 1.5)
        assert rhs == 0.0 and floor == 0.0

    def test_ibp_forms_agree_on_parabola(self):
        # both sides -> -3 R^(a+2)/((a+1)(a+2)) = -0.342857... at R=1, a=1.5
        g = make_grid(256, 1.0)
        st_ = disk_state(g, u=g.nodes * (1 - g.nodes))
        front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
        p = disk_params(mu=0.5, lam=0.0)   # 2mu+lam = 1
        exact = -3.0 / (2.5 * 3.5)
        lhs, _, _ = moment_pair(st_, front, g, p, 1.5)
        pre = moment_pre_ibp(st_, front, g, p, 1.5)
        assert lhs == pytest.approx(exact, abs=1e-3)
        assert pre == pytest.approx(exact, abs=1e-3)

    def test_ibp_difference_second_order(self):
        alpha = 1.5
        p = disk_params(mu=0.5, lam=0.0)
        gaps = []
        for n in (128, 256, 512):
            g = make_grid(n, 1.0)
            st_ = disk_state(g, u=np.sin(np.pi * g.nodes) * g.nodes)
            st_.u[0] = 0.0
            front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
            lhs, _, _ = moment_pair(st_, front, g, p, alpha)
            pre = moment_pre_ibp(st_, front, g, p, alpha)
            gaps.append(abs(lhs - pre))
        order1 = math.log2(gaps[0] / gaps[1])
        order2 = math.log2(gaps[1] / gaps[2])
        assert order1 >= 1.8 and order2 >= 1.8

    def test_rhs_closed_form(self):
        # B = r, R = 1, a = 1.5: rhs = 0.25/3.5 + 0.25/4.5
        g = make_grid(1024, 1.0)
        st_ = disk_state(g, B=g.nodes.copy())
        front = VacuumFront(R=1.0, r0=1.0, C0=0.5)
        _, rhs, floor = moment_pair(st_, front, g, disk_params(), 1.5)
        assert rhs == pytest.approx(0.25 / 3.5 + 0.25 / 4.5, rel=1e-4)
        assert floor == pytest.approx(0.25 / 3.5, rel=1e-4)

    def test_rhs_floor_never_exceeds_rhs(self):
        g = make_grid(256, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = np.sin(rng.uniform(1, 3) * np.pi * g.nodes) * g.nodes
            st_ = disk_state(g, B=b)
            front = VacuumFront(R=rng.uniform(0.3, 1.0), r0=0.5, C0=1.0)
            alpha = rng.uniform(1.01, 1.99)
            _, rhs, floor = moment_pair(st_, front, g, disk_params(), alpha)
            scale = max(abs(rhs), abs(floor), 1e-30)
            assert rhs - floor >= -1e-12 * scale


class TestCauchySchwarzGap:
    def test_zero_field(self):
        g = make_grid(128, 1.0)
        front = VacuumFront(R=1.0, r0=1.0, C0=1.0)
        assert cauchy_schwarz_gap(disk_state(g), front, g, 1.5) == 0.0

    def test_constant_field_closed_form(self):
        # B = c: gap = c^2 (1 - a(2-a)) / (a(2-a))
        g = make_grid(2048, 1.0)
        c, alpha = 0.7, 1.5
        st_ = disk_state(g, B=np.full(2049, c))
        front = VacuumFront(R=1.0, r0=1.0, C0=c)
        exact = c * c * (1 - alpha * (2 - alpha)) / (alpha * (2 - alpha))
        assert cauchy_schwarz_gap(st_, front, g, alpha) == pytest.approx(
            exact, rel=2e-3)

    @given(r_lo=st.floats(0.05, 0.4), width=st.floats(0.1, 0.5),
           amp=st.floats(-2.0, 2.0), alpha=st.floats(1.05, 1.95),
           R=st.floats(0.55, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_gap_nonnegative_on_bumps(self, r_lo, width, amp, alpha, R):
        from mhdlab import Profile
        g = make_grid(256, 1.0)
        prof = Profile(kind="bump", params=(r_lo, min(r_lo + width, 0.99), amp))
        st_ = disk_state(g, B=prof(g.nodes))
        front = VacuumFront(R=R, r0=R, C0=1.0)
        gap = cauchy_schwarz_gap(st_, front, g, alpha)
        first = integrate(st_.B ** 2 * g.nodes ** (alpha - 1), g, Weight.PLAIN)
        scale = max(first * R ** (2 - alpha) / (2 - alpha), 1e-30)
        assert gap >= -1e-12 * scale


class TestDivLowerBound:
    def bound(self, **kw):
        base = dict(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5,
                    geometry=Geometry.DISK2D)
        base.update(kw)
        return BoundInputs(**base)

    def test_zero_flux(self):
        assert div_lower_bound(self.bound(C0=0.0), 1.0) == 0.0

    def test_reference_value(self):
        # 0.25 / (2 * 2 * 1 * g(1.5))
        g15 = 1.5 + 2.5 / math.sqrt(3.0)
        assert div_lower_bound(self.bound(), 1.0) == pytest.approx(
            0.25 / (4.0 * g15), rel=1e-12)

    def test_inverse_radius_scaling(self):
        b = self.bound()
        assert div_lower_bound(b, 2.0) == pytest.approx(
            0.5 * div_lower_bound(b, 1.0), rel=1e-14)


class TestLifespanBound:
    def test_disk_reference_arithmetic(self):
        # independent arithmetic: g = 1.5 + 2.5/sqrt(3); inner bracket
        # (1/sqrt(2)) * 0.25/(2 g); T = inner^-2
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5,
                        geometry=Geometry.DISK2D)
        g15 = 1.5 + 2.5 / math.sqrt(3.0)
        inner = (1.0 / math.sqrt(2.0)) * 0.25 / (2.0 * g15)
        assert lifespan_bound(b) == pytest.approx(inner ** -2, rel=1e-9)
        assert lifespan_bound(b) == pytest.approx(1.1089e3, rel=1e-3)

    def test_zero_flux_sentinel(self):
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=0.0, E0=1.0, alpha=1.5,
                        geometry=Geometry.DISK2D)
        assert lifespan_bound(b) == math.inf

    def test_cylinder_ratio_exactly_two(self):
        kw = dict(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5)
        t_disk = lifespan_bound(BoundInputs(geometry=Geometry.DISK2D, **kw))
        t_cyl = lifespan_bound(BoundInputs(geometry=Geometry.CYLINDER3D, **kw))
        assert t_cyl / t_disk == 2.0

    def test_free_boundary_form(self):
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=2.0, C0=3.0, E0=2.0, alpha=1.5,
                        geometry=Geometry.DISK2D_FREE)
        g15 = 1.5 + 2.5 / math.sqrt(3.0)
        bracket = 0.25 * 9.0 / (2.0 * math.sqrt(2.0) * 2.0 * g15)
        assert lifespan_bound(b) == pytest.approx(
            math.exp(2.0 * bracket ** -2) - 1.0, rel=1e-9)

    def test_free_boundary_overflow_sentinel(self):
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=2.0, C0=1.0, E0=2.0, alpha=1.5,
                        geometry=Geometry.DISK2D_FREE)
        assert lifespan_bound(b) == math.inf

    def test_cylinder_alpha_domain(self):
        with pytest.raises(ConfigError):
            BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.1,
                        geometry=Geometry.CYLINDER3D)

    def test_monotonicities(self):
        kw = dict(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.4,
                  geometry=Geometry.DISK2D)
        t0 = lifespan_bound(BoundInputs(**kw))
        assert lifespan_bound(BoundInputs(**{**kw, "E0": 2.0})) > t0
        assert lifespan_bound(BoundInputs(**{**kw, "C0": 2.0})) < t0
        assert lifespan_bound(BoundInputs(**{**kw, "R_ref": 2.0})) > t0


class TestOptimizeAlpha:
    def test_against_fine_oracle(self):
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5,
                        geometry=Geometry.DISK2D)
        alpha_star, t_star = optimize_alpha(b)
        # refined brute force, vectorized, step 1e-6
        alphas = np.arange(1.0 + 1e-6, 2.0, 1e-6)
        g = alphas / np.sqrt(2 * alphas - 2) + (alphas + 1) / np.sqrt(2 * alphas)
        inner = (1.0 / math.sqrt(2.0)) * (2 - alphas) ** 2 / (2 * g)
        t = inner ** -2.0
        alpha_ref = alphas[np.argmin(t)]
        assert abs(alpha_star - alpha_ref) <= 1e-3
        assert t_star == pytest.approx(float(np.min(t)), rel=1e-5)

    def test_energy_scaling_leaves_alpha(self):
        b1 = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5,
                         geometry=Geometry.DISK2D)
        b10 = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=10.0, alpha=1.5,
                          geometry=Geometry.DISK2D)
        a1, t1 = optimize_alpha(b1)
        a10, t10 = optimize_alpha(b10)
        assert a1 == a10
        assert t10 == pytest.approx(10.0 * t1, rel=1e-12)

    def test_cylinder_respects_lower_limit(self):
        b = BoundInputs(mu=1.0, lam=0.0, R_ref=1.0, C0=1.0, E0=1.0, alpha=1.5,
                        geometry=Geometry.CYLINDER3D)
        alpha_star, _ = optimize_alpha(b)
        assert alpha_star >= 7.0 / 6.0 - 1e-12


class TestLhsChain:
    @given(r_lo=st.floats(0.05, 0.4), width=st.floats(0.1, 0.5),
           amp=st.floats(-1.0, 1.0), alpha=st.floats(1.05, 1.95),
           R=st.floats(0.5, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_lhs_bounded_by_chain(self, r_lo, width, amp, alpha, R):
        from mhdlab import Profile
        from mhdlab.diagnostics import divergence, moment_coefficient
        g = make_grid(256, 1.0)
        prof = Profile(kind="bump", params=(r_lo, min(r_lo + width, 0.99), amp))
        st_ = disk_state(g, u=prof(g.nodes))
        front = VacuumFront(R=R, r0=R, C0=1.0)
        p = disk_params(mu=0.7, lam=0.1)
        lhs, _, _ = moment_pair(st_, front, g, p, alpha)
        s = divergence(st_, g)
        s2 = s * s
        nrm = math.sqrt(max(0.0, __import__("mhdlab").integrate_to(
            s2 * g.nodes, g, R)))
        chain = p.two_mu_lam * moment_coefficient(alpha) * R ** alpha * nrm
        scale = max(abs(lhs), chain, 1e-30)
        assert chain - abs(lhs) >= -1e-10 * scale


class TestEnergyResidual:
    def rec(self, t, e, d):
        return DiagnosticsRecord(t=t, energy=e, dissipation_cum=d, div_l2=0.0,
                                 max_gradu=0.0, dt=0.0)

    def test_quiescent_zero(self):
        h = [self.rec(0.0, 2.0, 0.0), self.rec(1.0, 2.0, 0.0)]
        res = energy_residual(h)
        assert res.abs_residual == 0.0 and res.signed_max == 0.0

    def test_perfect_ledger(self):
        h = [self.rec(0.0, 2.0, 0.0), self.rec(0.5, 1.5, 0.5),
             self.rec(1.0, 1.2, 0.8)]
        res = energy_residual(h)
        assert res.abs_residual == pytest.approx(0.0, abs=1e-15)

    def test_creation_detected(self):
        h = [self.rec(0.0, 2.0, 0.0), self.rec(1.0, 2.1, 0.0)]
        res = energy_residual(h)
        assert res.signed_max == pytest.approx(0.05, rel=1e-12)

    def test_single_record_rejected(self):
        with pytest.raises(ConfigError):
            energy_residual([self.rec(0.0, 1.0, 0.0)])
