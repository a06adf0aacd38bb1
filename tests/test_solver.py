"""Tendency, step, vacuum-balance, and detection tests for the fixed solver."""

import math

import numpy as np
import pytest

from mhdlab import (DtCollapse, FluidState, Geometry, NumericalFailure,
                    PhysParams, Profile, Scheme, SolverSettings,
                    VacuumStrategy, Weight, cfl_dt, detect_blowup, integrate,
                    make_grid, rhs_cylinder, rhs_disk, step)
from mhdlab.diagnostics import divergence
from mhdlab.solver import apply_vacuum_balance, vacuum_block
from mhdlab.vacuum import VacuumFront


def disk_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.DISK2D)


def cyl_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.CYLINDER3D)


def settings(**kw):
    return SolverSettings(**kw)


def disk_state(grid, rho=None, u=None, P=None, B=None):
    n1 = len(grid.nodes)

    def pick(x):
        return np.zeros(n1) if x is None else np.asarray(x, dtype=float)

    return FluidState(rho=pick(rho), u=pick(u), P=pick(P), B=pick(B))


def cyl_state(grid, rho=None, u=None, v=None, w=None, P=None, B=None):
    n1 = len(grid.nodes)

    def pick(x):
        return np.zeros(n1) if x is None else np.asarray(x, dtype=float)

    return FluidState(rho=pick(rho), u=pick(u), P=pick(P), B=pick(B),
                      v=pick(v), w=pick(w))


class TestRhsDisk:
    def test_uniform_rest_state(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.full(65, 0.7))
        t = rhs_disk(st, disk_params(), g, settings())
        for arr in (t.drho, t.du, t.dP, t.dB):
            assert np.all(arr == 0.0)

    def test_mass_tendency_linear_u(self):
        # rho=1, u = c r: -(rho u)_r - rho u / r = -2c at interior nodes
        c = 0.37
        g = make_grid(128, 1.0)
        st = disk_state(g, rho=np.ones(129), u=c * g.nodes)
        st.u[-1] = 0.0
        t = rhs_disk(st, disk_params(), g, settings())
        assert np.allclose(t.drho[1:-3], -2.0 * c, rtol=0, atol=1e-12)
        assert np.all(t.dP[:-3] == 0.0)

    def test_lorentz_acceleration(self):
        # rho=1, B = r: u_t = -B(B_r + B/r) = -2r at interior nodes
        g = make_grid(128, 1.0)
        st = disk_state(g, rho=np.ones(129), B=g.nodes.copy())
        t = rhs_disk(st, disk_params(), g, settings())
        assert np.allclose(t.du[1:-3], -2.0 * g.nodes[1:-3], rtol=0, atol=1e-12)

    def test_polynomial_fields_second_order(self):
        # pointwise second order away from the axis; the finite-volume mass
        # form trades O(dr^2/r) near r=0 for an exactly telescoping ledger
        p = disk_params(mu=0.3, lam=0.1, gamma=1.4)

        def max_err(n):
            g = make_grid(n, 1.0)
            r = g.nodes
            u = r * (1 - r)
            b = r * (1 - r)
            st = disk_state(g, rho=np.ones(n + 1), u=u, P=np.full(n + 1, 0.2), B=b)
            t = rhs_disk(st, p, g, settings())
            div = 2.0 - 3.0 * r
            drho_ref = -div
            du_ref = (-u * (1 - 2 * r) - 3.0 * p.two_mu_lam - b * div)
            dP_ref = -p.gamma * 0.2 * div
            dB_ref = -2.0 * u * (1 - 2 * r)
            sl = (r >= 0.1) & (r <= 1.0 - 2.5 / n)
            return max(np.max(np.abs(t.drho[sl] - drho_ref[sl])),
                       np.max(np.abs(t.du[sl] - du_ref[sl])),
                       np.max(np.abs(t.dP[sl] - dP_ref[sl])),
                       np.max(np.abs(t.dB[sl] - dB_ref[sl])))

        e1, e2 = max_err(128), max_err(256)
        assert e1 / e2 > 3.5

    def test_nan_rejected(self):
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=np.ones(33))
        st.rho[5] = np.nan
        with pytest.raises(NumericalFailure):
            rhs_disk(st, disk_params(), g, settings())

    def test_tendency_pins(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), u=np.sin(np.pi * g.nodes),
                        P=np.full(65, 0.1), B=g.nodes * (1 - g.nodes))
        st.u[0] = st.u[-1] = 0.0
        t = rhs_disk(st, disk_params(), g, settings())
        assert t.du[0] == 0.0 and t.du[-1] == 0.0


class TestRhsCylinder:
    def test_rest_state(self):
        g = make_grid(64, 1.0)
        st = cyl_state(g, rho=np.ones(65), P=np.full(65, 0.3))
        t = rhs_cylinder(st, cyl_params(), g, settings())
        for arr in (t.drho, t.du, t.dv, t.dw, t.dP, t.dB):
            assert np.all(arr == 0.0)

    def test_centrifugal_term(self):
        # rho=1, v = r: u_t = v^2/r = r at interior nodes
        g = make_grid(128, 1.0)
        st = cyl_state(g, rho=np.ones(129), v=g.nodes.copy())
        t = rhs_cylinder(st, cyl_params(), g, settings())
        assert np.allclose(t.du[1:-3], g.nodes[1:-3], rtol=0, atol=1e-12)

    def test_axial_diffusion(self):
        # w = r^2: w_t = mu (r w_r)_r / r = 4 mu at interior nodes
        mu = 0.7
        g = make_grid(128, 1.0)
        st = cyl_state(g, rho=np.ones(129), w=g.nodes ** 2)
        t = rhs_cylinder(st, cyl_params(mu=mu), g, settings())
        assert np.allclose(t.dw[1:-3], 4.0 * mu, rtol=0, atol=1e-10)


class TestCflDt:
    def test_quiescent_diffusive_bound(self):
        g = make_grid(100, 1.0)   # dr = 0.01
        st = disk_state(g, rho=np.ones(101))
        s = settings(cfl=0.4, scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)
        dt = cfl_dt(st, g, disk_params(mu=1.0, lam=0.0), s)
        assert dt == pytest.approx(0.4 * 1e-4 / 4.0, rel=1e-12)

    def test_wave_dominated_scales_with_dr(self):
        p = disk_params(mu=1e-8)
        s = settings(cfl=0.4, scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        dts = []
        for n in (100, 50):
            g = make_grid(n, 1.0)
            st = disk_state(g, rho=np.ones(n + 1), u=np.full(n + 1, 2.0),
                            P=np.ones(n + 1))
            st.u[0] = st.u[-1] = 0.0
            dts.append(cfl_dt(st, g, p, s))
        assert dts[1] == pytest.approx(2.0 * dts[0], rel=1e-12)

    def test_nan_rejected(self):
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=np.ones(33))
        st.P[3] = np.inf
        with pytest.raises(NumericalFailure):
            cfl_dt(st, g, disk_params(), settings())

    def test_collapse_signal(self):
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=np.ones(33), P=np.ones(33))
        s = settings(dt_min=1.0)
        with pytest.raises(DtCollapse):
            cfl_dt(st, g, disk_params(), s)


class TestStep:
    @pytest.mark.parametrize("scheme",
                             [Scheme.SSPRK3_EXPLICIT_VISCOUS,
                              Scheme.RK2_IMPLICIT_VISCOUS])
    def test_quiescent_fixed_point(self, scheme):
        g = make_grid(64, 1.0)
        st = disk_state(g)
        out = step(st, 0.1, disk_params(), g, settings(scheme=scheme))
        assert out.t == pytest.approx(0.1)
        for (_, a), (_, b) in zip(st.fields(), out.fields()):
            assert np.all(a == b)

    @pytest.mark.parametrize("scheme",
                             [Scheme.SSPRK3_EXPLICIT_VISCOUS,
                              Scheme.RK2_IMPLICIT_VISCOUS])
    def test_uniform_rest_fixed_point(self, scheme):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.full(65, 0.4))
        out = step(st, 1e-3, disk_params(), g, settings(scheme=scheme))
        assert np.all(out.rho == st.rho) and np.all(out.P == st.P)
        assert np.all(out.u == 0.0)

    @pytest.mark.parametrize("scheme",
                             [Scheme.SSPRK3_EXPLICIT_VISCOUS,
                              Scheme.RK2_IMPLICIT_VISCOUS])
    def test_viscous_decay_monotone(self, scheme):
        g = make_grid(256, 1.0)
        prof = Profile.parse("bump 0.2 0.8 0.5")
        st = disk_state(g, rho=np.ones(257), u=prof(g.nodes))
        p = disk_params(mu=0.5)
        s = settings(scheme=scheme)
        dt = cfl_dt(st, g, p, s)
        out = step(st, dt, p, g, s)
        n0 = integrate(st.u * st.u, g, Weight.RADIAL_R)
        n1 = integrate(out.u * out.u, g, Weight.RADIAL_R)
        assert n1 <= n0

    def test_implicit_matches_fine_explicit(self):
        # implicit trajectory converges at second order to the explicit
        # reference of the same semidiscrete system
        g = make_grid(128, 1.0)
        r = g.nodes
        u0 = 0.3 * np.sin(np.pi * r) * r
        u0[0] = u0[-1] = 0.0

        def fresh():
            return disk_state(g, rho=np.ones(129), u=u0.copy())

        p = disk_params(mu=0.2)
        t_end = 0.01
        ref = fresh()
        s_exp = settings(scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)
        for _ in range(2000):
            ref = step(ref, t_end / 2000, p, g, s_exp)

        s_imp = settings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        errs = []
        for n_steps in (25, 50):
            st = fresh()
            for _ in range(n_steps):
                st = step(st, t_end / n_steps, p, g, s_imp)
            errs.append(np.max(np.abs(st.u - ref.u)))
        assert errs[0] < 1e-6
        assert errs[0] / errs[1] > 3.5

    def test_ssprk3_local_order(self):
        # Richardson against a tiny-step reference of the same semidiscrete system
        from mhdlab.mms import MMSForcing
        g = make_grid(64, 1.0)
        p = disk_params(mu=0.1)
        forcing = MMSForcing(p, 1.0)
        st = forcing.exact_state(g, 0.0)
        s = settings(scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)
        dt = 2e-4

        def advance(y, h, n):
            for _ in range(n):
                y = step(y, h, p, g, s, forcing=forcing)
            return y

        ref = advance(st, dt / 64, 64)
        e_full = np.max(np.abs(advance(st, dt, 1).u - ref.u))
        e_half = np.max(np.abs(advance(st, dt / 2, 2).u - ref.u))
        order = math.log2(e_full / e_half)
        assert order >= 2.7

    def test_positivity_clipping_logged(self):
        from mhdlab.solver import StepStats
        g = make_grid(128, 1.0)
        r = g.nodes
        rho = np.where(r < 0.5, 0.0, 1.0)   # sharp front, transport undershoots
        u = np.full(129, -0.5)
        u[0] = u[-1] = 0.0
        st = disk_state(g, rho=rho, u=u, P=np.zeros(129))
        p = disk_params(mu=0.1)
        s = settings(scheme=Scheme.RK2_IMPLICIT_VISCOUS,
                     vacuum_strategy=VacuumStrategy.DENSITY_FLOOR)
        stats = StepStats()
        out = step(st, 1e-3, p, g, s, stats=stats)
        assert np.all(out.rho >= 0.0) and np.all(out.P >= 0.0)


class TestDetectBlowup:
    def test_quiescent_healthy(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.ones(65))
        h = detect_blowup(st, g, disk_params(), settings())
        assert not h.suspected

    def test_gradient_threshold(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.ones(65))
        st.u[30] = 50.0   # one-node spike: |u_r| = 50/(2 dr) = 1600
        s = settings(blowup_gradu_max=1000.0)
        h = detect_blowup(st, g, disk_params(), s)
        assert h.suspected and h.reason == "gradu"

    def test_dt_collapse_reason(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.ones(65))
        s = settings(dt_min=1.0)
        h = detect_blowup(st, g, disk_params(), s)
        assert h.suspected and h.reason == "dt"

    def test_nan_reason(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65))
        st.B[3] = np.nan
        h = detect_blowup(st, g, disk_params(), settings())
        assert h.suspected and "non-finite" in h.reason

    def test_healthy_carries_next_dt(self):
        g = make_grid(64, 1.0)
        r = g.nodes
        st = disk_state(g, rho=np.ones(65), u=0.1 * r * (1.0 - r),
                        P=np.ones(65), B=Profile.parse("bump 0.2 0.6 0.5")(r))
        h = detect_blowup(st, g, disk_params(), settings())
        assert not h.suspected
        assert h.dt == cfl_dt(st, g, disk_params(), settings())

    def test_suspected_carries_no_dt(self):
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.ones(65))
        h = detect_blowup(st, g, disk_params(), settings(dt_min=1.0))
        assert h.suspected and h.dt is None


class TestVacuumBalance:
    def make_vacuum_state(self, n=512):
        g = make_grid(n, 1.0)
        r = g.nodes
        rho = Profile.parse("bump 0.5 1.5 1.0")(r)
        B = Profile.parse("bump 0.1 0.45 1.0")(r)
        st = disk_state(g, rho=rho, B=B)
        return g, st

    def test_block_detection(self):
        g, st = self.make_vacuum_state()
        m = vacuum_block(st.rho, 1e-6)
        assert g.nodes[m] <= 0.51
        assert st.rho[m + 1] >= 1e-6

    def test_balance_residual_small(self):
        g, st = self.make_vacuum_state()
        p = disk_params(mu=0.25)
        s = settings()
        m = apply_vacuum_balance(st, p, g, s)
        assert m > 10
        # residual of (2mu+lam)(u_r+u/r)_r - B(B_r+B/r) - P_r on the block
        dr = g.dr
        r = g.nodes
        u, B = st.u, st.B
        idx = np.arange(2, m - 1)
        lap = ((u[idx + 1] - 2 * u[idx] + u[idx - 1]) / dr ** 2
               + (u[idx + 1] - u[idx - 1]) / (2 * dr * r[idx])
               - u[idx] / r[idx] ** 2)
        Br = (B[idx + 1] - B[idx - 1]) / (2 * dr)
        force = B[idx] * (Br + B[idx] / r[idx])
        resid = p.two_mu_lam * lap - force
        scale = max(np.max(np.abs(force)), 1e-30)
        assert np.max(np.abs(resid)) <= 1e-9 * scale

    def test_balance_edge_continuity(self):
        g, st = self.make_vacuum_state()
        st.u[:] = 0.1 * g.nodes * (1.0 - g.nodes)   # pre-existing fluid motion
        st.u[0] = st.u[-1] = 0.0
        u_edge_before = None
        p = disk_params(mu=0.25)
        m = vacuum_block(st.rho, 1e-6)
        u_edge_before = st.u[m + 1]
        apply_vacuum_balance(st, p, g, settings())
        assert st.u[m + 1] == u_edge_before
        assert st.u[0] == 0.0

    def test_moment_identity_on_balanced_state(self):
        # both moment integrals measure the same balanced equation
        from mhdlab import moment_pair
        g, st = self.make_vacuum_state(n=1024)
        p = disk_params(mu=0.25)
        apply_vacuum_balance(st, p, g, settings())
        m = vacuum_block(st.rho, 1e-6)
        front = VacuumFront(R=g.nodes[m], r0=0.5, C0=0.175)
        lhs, rhs, floor = moment_pair(st, front, g, p, 1.5)
        assert lhs == pytest.approx(rhs, rel=2e-2)
        assert rhs >= floor >= 0.0

    def test_cylinder_block_profiles(self):
        g = make_grid(256, 1.0)
        r = g.nodes
        rho = Profile.parse("bump 0.5 1.5 1.0")(r)
        B = Profile.parse("bump 0.1 0.45 1.0")(r)
        st = cyl_state(g, rho=rho, B=B,
                       v=0.3 * r, w=np.full(257, 0.2))
        st.v[0] = st.v[-1] = 0.0
        st.w[-1] = 0.0
        p = cyl_params(mu=0.25)
        m = apply_vacuum_balance(st, p, g, settings())
        edge = m + 1
        # v linear through the block, w constant
        assert np.allclose(st.v[:edge], st.v[edge] * r[:edge] / r[edge])
        assert np.allclose(st.w[:edge], st.w[edge])


def blowup_initial_state(n=64):
    """disk-blowup's initial state, grid, physics and settings at n cells."""
    import dataclasses
    from mhdlab.config import load_preset
    from mhdlab.core import init_scenario
    from mhdlab.harness import settings_from_config
    cfg = dataclasses.replace(load_preset("disk-blowup"), n=n)
    st, _ = init_scenario(cfg)
    return st, cfg.grid(), cfg.phys, settings_from_config(cfg)


class TestNonFiniteSolves:
    """A NaN reaching a tridiagonal solve ends as a NumericalFailure."""

    def test_vacuum_balance(self):
        st, g, p, s = blowup_initial_state()
        assert vacuum_block(st.rho, s.eps_vac) > 6
        st.P[5] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite vacuum balance"):
            apply_vacuum_balance(st, p, g, s)

    def test_implicit_viscous(self):
        from mhdlab.solver import implicit_viscous
        st, g, p, s = blowup_initial_state()
        st.rho[40] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite viscous"):
            implicit_viscous(st, p, g, s, 1e-4)


class TestConservation:
    def test_mass_conserved_smooth_run(self):
        # interior flux differences telescope; only the two boundary point
        # rows contribute an O(dr^2)-rate defect to the trapezoid mass
        g = make_grid(256, 1.0)
        r = g.nodes
        rho = 1.0 + 0.3 * np.cos(np.pi * r)
        u = Profile.parse("bump 0.2 0.8 0.2")(r)
        st = disk_state(g, rho=rho, u=u, P=np.full(257, 0.3))
        p = disk_params(mu=0.1)
        s = settings(scheme=Scheme.RK2_IMPLICIT_VISCOUS)
        m0 = integrate(st.rho, g, Weight.RADIAL_R)
        for _ in range(50):
            dt = cfl_dt(st, g, p, s)
            st = step(st, dt, p, g, s)
        m1 = integrate(st.rho, g, Weight.RADIAL_R)
        assert abs(m1 - m0) / m0 < 1e-6

    def test_origin_pins_after_steps(self):
        g = make_grid(128, 1.0)
        prof = Profile.parse("bump 0.2 0.8 0.4")
        st = disk_state(g, rho=np.ones(129), u=prof(g.nodes), B=prof(g.nodes),
                        P=np.full(129, 0.2))
        p = disk_params(mu=0.2)
        s = settings()
        for _ in range(20):
            dt = cfl_dt(st, g, p, s)
            st = step(st, dt, p, g, s)
        assert st.u[0] == 0.0 and st.B[0] == 0.0 and st.u[-1] == 0.0
