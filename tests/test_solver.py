"""Tendency, step, vacuum-balance, and detection tests for the fixed solver."""

import math
import warnings

import numpy as np
import pytest

from mhdlab import (DtCollapse, FluidState, Geometry, NumericalFailure,
                    PhysParams, Profile, Scheme, SolverSettings, Weight,
                    cfl_dt, detect_blowup, integrate, make_grid, rhs_cylinder,
                    rhs_disk, step)
from mhdlab import _kernels as kern
from mhdlab.diagnostics import divergence
from mhdlab.solver import (StepStats, _check_finite, apply_tendency,
                           apply_vacuum_balance, balance_initial_state, blend,
                           ssp_rk3, vacuum_block)
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
        rates = rhs_disk(st, disk_params(), g, settings())
        for arr in rates:
            assert np.all(arr == 0.0)

    def test_mass_tendency_linear_u(self):
        # rho=1, u = c r: -(rho u)_r - rho u / r = -2c at interior nodes
        c = 0.37
        g = make_grid(128, 1.0)
        st = disk_state(g, rho=np.ones(129), u=c * g.nodes)
        st.u[-1] = 0.0
        drho, _, dP, _ = rhs_disk(st, disk_params(), g, settings())
        assert np.allclose(drho[1:-3], -2.0 * c, rtol=0, atol=1e-12)
        assert np.all(dP[:-3] == 0.0)

    def test_lorentz_acceleration(self):
        # rho=1, B = r: u_t = -B(B_r + B/r) = -2r at interior nodes
        g = make_grid(128, 1.0)
        st = disk_state(g, rho=np.ones(129), B=g.nodes.copy())
        du = rhs_disk(st, disk_params(), g, settings())[1]
        assert np.allclose(du[1:-3], -2.0 * g.nodes[1:-3], rtol=0, atol=1e-12)

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
            rates = rhs_disk(st, p, g, settings())
            div = 2.0 - 3.0 * r
            drho_ref = -div
            du_ref = (-u * (1 - 2 * r) - 3.0 * p.two_mu_lam - b * div)
            dP_ref = -p.gamma * 0.2 * div
            dB_ref = -2.0 * u * (1 - 2 * r)
            sl = (r >= 0.1) & (r <= 1.0 - 2.5 / n)
            return max(np.max(np.abs(rate[sl] - ref[sl])) for rate, ref
                       in zip(rates, (drho_ref, du_ref, dP_ref, dB_ref)))

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
        du = rhs_disk(st, disk_params(), g, settings())[1]
        assert du[0] == 0.0 and du[-1] == 0.0


class TestRhsCylinder:
    def test_rest_state(self):
        g = make_grid(64, 1.0)
        st = cyl_state(g, rho=np.ones(65), P=np.full(65, 0.3))
        rates = rhs_cylinder(st, cyl_params(), g, settings())
        assert rates.shape == (6, 65)
        for arr in rates:
            assert np.all(arr == 0.0)

    def test_centrifugal_term(self):
        # rho=1, v = r: u_t = v^2/r = r at interior nodes
        g = make_grid(128, 1.0)
        st = cyl_state(g, rho=np.ones(129), v=g.nodes.copy())
        du = rhs_cylinder(st, cyl_params(), g, settings())[1]
        assert np.allclose(du[1:-3], g.nodes[1:-3], rtol=0, atol=1e-12)

    def test_axial_diffusion(self):
        # w = r^2: w_t = mu (r w_r)_r / r = 4 mu at interior nodes
        mu = 0.7
        g = make_grid(128, 1.0)
        st = cyl_state(g, rho=np.ones(129), w=g.nodes ** 2)
        dw = rhs_cylinder(st, cyl_params(mu=mu), g, settings())[3]
        assert np.allclose(dw[1:-3], 4.0 * mu, rtol=0, atol=1e-10)


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
        # fluid receding from a vacuum disk: the thinning edge undershoots
        g = make_grid(128, 1.0)
        r = g.nodes
        fluid = r >= 0.5
        rho = np.where(fluid, 1.0, 0.0)
        u = np.where(fluid, 0.5, 0.0)
        u[-1] = 0.0
        p = disk_params(mu=0.01)
        for scheme in Scheme:
            st = disk_state(g, rho=rho.copy(), u=u.copy(), P=rho.copy())
            s = settings(scheme=scheme)
            stats = StepStats()
            balance_initial_state(st, p, g, s, stats)
            for _ in range(50):
                st = step(st, cfl_dt(st, g, p, s), p, g, s, stats=stats)
                assert np.all(st.rho >= 0.0) and np.all(st.P >= 0.0), scheme
            assert stats.clipped_mass > 0.0, scheme
            assert stats.clipped_pressure > 0.0, scheme
            assert stats.balance_solves > 0, scheme


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
        with pytest.raises(NumericalFailure, match=r"^non-finite B \(node 3\)$"):
            detect_blowup(st, g, disk_params(), settings())

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


class TestFiniteScan:
    """The first non-finite node of the first field holding one is reported,
    whichever entry point scans the state."""

    @pytest.mark.parametrize("bad, node", [
        ({7: np.nan}, 7), ({7: np.inf}, 7), ({7: -np.inf}, 7),
        ({9: np.inf, 4: -np.inf}, 4),
    ])
    def test_non_finite_raises(self, bad, node):
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=np.ones(33), P=np.ones(33))
        st.B[12] = np.nan              # a later field is not reported
        for k, v in bad.items():
            st.P[k] = v
        match = rf"^non-finite P \(node {node}\)$"
        with pytest.raises(NumericalFailure, match=match):
            _check_finite(st)
        with pytest.raises(NumericalFailure, match=match):
            cfl_dt(st, g, disk_params(), settings())
        with pytest.raises(NumericalFailure, match=match):
            rhs_disk(st, disk_params(), g, settings())
        with pytest.raises(NumericalFailure, match=match):
            detect_blowup(st, g, disk_params(), settings())

    def test_overflowing_sum_is_finite(self):
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=np.full(33, 1e308), P=np.full(33, -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_finite(st)
        st.u[3] = np.nan               # the scan still reaches later fields
        with pytest.raises(NumericalFailure, match=r"^non-finite u \(node 3\)$"):
            _check_finite(st)


class TestStageContext:
    """What the solver derives from a state never outlives a write to it."""

    def stepped(self, scheme=Scheme.RK2_IMPLICIT_VISCOUS):
        g = make_grid(64, 1.0)
        r = g.nodes
        st = disk_state(g, rho=1.0 + 0.2 * r, u=0.1 * r * (1.0 - r),
                        P=np.ones(65), B=Profile.parse("bump 0.2 0.6 0.5")(r))
        p, s = disk_params(mu=0.2), settings(scheme=scheme)
        out = step(st, cfl_dt(st, g, p, s), p, g, s)
        return g, p, s, st, out

    def test_step_output_is_read_only(self):
        g, p, s, st, out = self.stepped()
        for _, arr in out.fields():
            with pytest.raises(ValueError):
                arr[3] = 1.0
        assert all(arr.flags.writeable for _, arr in st.fields())
        copy = out.copy()
        copy.u[3] = 1.0
        assert cfl_dt(copy, g, p, s) < cfl_dt(out, g, p, s)

    @pytest.mark.parametrize("preset", ["smooth-novac", "disk-blowup"])
    def test_signal_speeds_read_only(self, preset):
        # the speeds are the stage's own, whose maximum cfl_dt takes: a
        # caller's write would change the state's next step
        import dataclasses

        from mhdlab.config import load_preset
        from mhdlab.core import init_scenario
        from mhdlab.solver import signal_speeds
        cfg = dataclasses.replace(load_preset(preset), n=64)
        g, p, s = cfg.grid(), cfg.phys, cfg.solver
        start, _ = init_scenario(cfg)
        balance_initial_state(start, p, g, s)
        out = step(start, cfl_dt(start, g, p, s), p, g, s)
        speeds = signal_speeds(out, p, s)
        with pytest.raises(ValueError):
            speeds[:] = 0.0
        fresh = FluidState.of(out.y.copy(), out.t)
        assert cfl_dt(out, g, p, s) == cfl_dt(fresh, g, p, s) < np.inf
        assert signal_speeds(out, p, s) is speeds

    def test_replaced_field_is_seen(self):
        g, p, s, _, out = self.stepped()
        dt = cfl_dt(out, g, p, s)
        assert detect_blowup(out, g, p, s).dt == dt
        out.P = out.P.copy()
        out.P[5] = np.nan
        with pytest.raises(NumericalFailure, match=r"non-finite P \(node 5\)"):
            cfl_dt(out, g, p, s)
        with pytest.raises(NumericalFailure, match=r"non-finite P \(node 5\)"):
            rhs_disk(out, p, g, s)
        out.P = np.full(65, 50.0)      # faster sound: a smaller step
        assert cfl_dt(out, g, p, s) < dt

    def test_other_settings_get_their_own_stage(self):
        g, p, s, _, out = self.stepped(Scheme.SSPRK3_EXPLICIT_VISCOUS)
        cfl_dt(out, g, p, s)
        tight = settings(scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS, eps_vac=1.1)
        assert cfl_dt(out, g, p, tight) == cfl_dt(out.copy(), g, p, tight)
        assert cfl_dt(out, g, p, tight) != cfl_dt(out, g, p, s)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nan_injected_into_a_stage(self, scheme, monkeypatch):
        # every stage of either scheme is finalized before its rates are
        # taken; a NaN put into the first such stage raises at its scan
        import mhdlab.solver

        def poisoned(state, *args, **kwargs):
            state.P[7] = np.nan
            return finalize(state, *args, **kwargs)

        finalize = mhdlab.solver.finalize_stage
        monkeypatch.setattr(mhdlab.solver, "finalize_stage", poisoned)
        g = make_grid(64, 1.0)
        st = disk_state(g, rho=np.ones(65), P=np.ones(65))
        with pytest.raises(NumericalFailure, match=r"^non-finite P \(node 7\)$"):
            step(st, 1e-3, disk_params(), g, settings(scheme=scheme))

    def test_reused_stages_match_fresh_ones_on_the_free_path(self, monkeypatch):
        # the stress condition writes u[-1] into the state the implicit
        # solve left, whose stage stays on it: every rhs must find that stage
        # current.
        import dataclasses

        import mhdlab.solver
        from mhdlab.config import load_preset
        from mhdlab.harness import RunStatus, run
        calls, reused = [], []

        def checked(state, p, grid, s, **kw):
            calls.append(state.t)
            stage = state._stage
            if stage is not None and stage.serves(state, p, s):
                fresh = mhdlab.solver._Stage(state, p, s)
                assert stage.m == fresh.m
                np.testing.assert_array_equal(stage.rho_star, fresh.rho_star)
                np.testing.assert_array_equal(stage.speeds(state),
                                              fresh.speeds(state))
                reused.append(state.t)
            return rhs_disk(state, p, grid, s, **kw)

        rhs_disk = mhdlab.solver.rhs_disk
        monkeypatch.setattr(mhdlab.solver, "rhs_disk", checked)
        cfg = load_preset("free-blowup")
        cfg = dataclasses.replace(cfg, n=64)
        res = run(cfg)
        assert res.status in (RunStatus.BLOWUP_DETECTED, RunStatus.COMPLETED)
        assert len(calls) > 20 and reused == calls


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

    @pytest.mark.parametrize("fluid_P", [False, True])
    def test_pressureless_block(self, monkeypatch, fluid_P):
        # P = +0 on the block: P_r is a 0-d +0, with the bits of the
        # central differences of those zeros, -0 forces included
        import mhdlab.solver
        g, st = self.make_vacuum_state(n=256)
        st.B[40:60] *= -1.0
        st.B[120:124] = -0.0
        m = vacuum_block(st.rho, 1e-6)
        if fluid_P:
            st.P[m + 2:-1] = 0.5
        p, s = disk_params(mu=0.25), settings()
        differences = []
        real = mhdlab.solver.central_difference

        def counted(f, sp, out=None):
            differences.append(len(f))
            return real(f, sp, out)

        monkeypatch.setattr(mhdlab.solver, "central_difference", counted)
        got, want = st.copy(), st.copy()
        assert apply_vacuum_balance(got, p, g, s) == m > 124
        assert differences == [m + 2]         # B_r alone
        monkeypatch.setattr(mhdlab.solver, "all_plus_zero", lambda f: False)
        apply_vacuum_balance(want, p, g, s)
        assert differences == [m + 2] * 3
        assert got.y.tobytes() == want.y.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 32])
    def test_small_and_whole_domain_blocks(self, m):
        # blocks of 1, 2 and 3 unknowns and, at m = N, the whole domain closed
        # by the wall node: the balance rows hold on nodes 1..edge-1 and the
        # Dirichlet value u[edge] is kept
        n = 32
        g = make_grid(n, 1.0)
        r, dr = g.nodes, g.dr
        rho = np.where(np.arange(n + 1) <= m, 0.0, 1.0 + r)
        st = disk_state(g, rho=rho, u=np.sin(3.0 * r) + 0.5 * r,
                        P=0.2 + 0.3 * r * r, B=r * np.exp(-r))
        p = disk_params(mu=0.7, lam=0.2)
        edge = min(m + 1, n)
        u_edge = st.u[edge]
        assert u_edge != 0.0
        assert apply_vacuum_balance(st, p, g, settings()) == m
        assert st.u[edge] == u_edge and st.u[0] == 0.0
        lu, size = TestCoupledSolve.operator(st.u, r, dr, True)
        source = TestCoupledSolve.source(st, g, p)
        rows = slice(0, edge - 1)
        resid = lu[rows] - source[rows]
        scale = np.max(size[rows] + np.abs(source[rows]))
        assert np.max(np.abs(resid)) <= 1e-12 * scale

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


def blowup_initial_state(n=64, preset="disk-blowup"):
    """A blow-up preset's initial state, grid, physics and settings at n
    cells."""
    import dataclasses
    from mhdlab.config import load_preset
    from mhdlab.core import init_scenario
    cfg = dataclasses.replace(load_preset(preset), n=n)
    st, _ = init_scenario(cfg)
    return st, cfg.grid(), cfg.phys, cfg.solver


class TestTridiagonalTraffic:
    """Every tridiagonal solve of a run goes through `_kernels.thomas`: per
    `rk2-imp` step one per velocity row in each of the two implicit stages
    and one for the end-of-step balance, plus one for the initial state's
    balance. Under the NumPy kernels no LAPACK call bypasses it."""

    @pytest.mark.parametrize("preset, per_step", [("disk-blowup", 3),
                                                  ("cylinder-blowup", 7)])
    def test_solves_per_step(self, monkeypatch, preset, per_step):
        import dataclasses

        import mhdlab.harness
        from mhdlab._kernels import pure
        from mhdlab.config import load_preset
        from mhdlab.harness import RunStatus, run
        solves, gtsv_rows, steps = [], [], []

        def counting_thomas(*system):
            solves.append(len(system[1]))
            return thomas(*system)

        def counting_gtsv(*system):
            gtsv_rows.append(len(system[1]))
            return gtsv(*system)

        def counting_step(*args, **kwargs):
            steps.append(args[1])
            return step(*args, **kwargs)

        thomas, gtsv, step = kern.thomas, pure._lapack(), mhdlab.harness.step
        monkeypatch.setattr(kern, "thomas", counting_thomas)
        monkeypatch.setattr(pure, "_lapack", lambda: counting_gtsv)
        monkeypatch.setattr(mhdlab.harness, "step", counting_step)
        res = run(dataclasses.replace(load_preset(preset), n=64))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert len(solves) == per_step * len(steps) + 1
        assert len(steps) > 25
        if kern.BACKEND == "pure":
            # a one-row system is divided out, every other one is a gtsv
            assert gtsv_rows == [n for n in solves if n > 1]


class TestFaceControls:
    def controls(self, rho):
        from mhdlab.solver import _face_controls, _stage_of
        g = make_grid(32, 1.0)
        st = disk_state(g, rho=rho, P=np.ones(33))
        stats = StepStats(lf_coeff=7.0)
        p, s = disk_params(), settings()
        return g, stats, _face_controls(st, g, _stage_of(st, p, s), stats)

    def test_vacuum_free_stage_gets_the_grids_zeros(self):
        g, stats, (lf_fc, up_fc) = self.controls(np.ones(33))
        assert lf_fc is g.quiet_faces[0] and up_fc is g.quiet_faces[1]
        for arr in (lf_fc, up_fc):
            assert not arr.flags.writeable and not arr.any()
        assert lf_fc.shape == up_fc.shape == (32,) and up_fc.dtype == np.uint8
        assert stats.lf_coeff == 7.0

    def test_vacuum_stage_gets_new_arrays(self):
        rho = np.ones(33)
        rho[:6] = 0.0
        g, stats, (lf_fc, up_fc) = self.controls(rho)
        for arr, quiet in zip((lf_fc, up_fc), g.quiet_faces):
            assert arr is not quiet and arr.flags.writeable
        assert up_fc[:6].all() and not up_fc[6:].any()
        assert stats.lf_coeff > 0.0 and lf_fc[6] == stats.lf_coeff


class TestNonFiniteSolves:
    """A non-finite value reaching a tridiagonal solve ends as a
    NumericalFailure naming the system, under either kernel backend: the
    solver scans the arrays of each system it builds that can carry one
    (`solver._solved`), as `thomas` scans nothing. On the cylinder-blowup
    states below the block is nodes 0..32 of 64."""

    BAD = [np.nan, np.inf, -np.inf]
    FLUID, BLOCK = 40, 10

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

    def cylinder(self):
        st, g, p, s = blowup_initial_state(preset="cylinder-blowup")
        assert vacuum_block(st.rho, s.eps_vac) == 32
        return st, g, p, s

    def assert_viscous_fails(self, st, g, p, s, dt=1e-4):
        from mhdlab.solver import implicit_viscous
        with pytest.raises(NumericalFailure, match="non-finite viscous system"):
            implicit_viscous(st, p, g, s, dt)

    def assert_balance_fails(self, st, g, p, s):
        with pytest.raises(NumericalFailure,
                           match="non-finite vacuum balance system"):
            apply_vacuum_balance(st, p, g, s)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("node", [FLUID, -1])
    @pytest.mark.parametrize("field", ["u", "v", "w"])
    def test_velocity(self, field, node, bad):
        # a fluid node's value, or the value held at node N
        st, g, p, s = self.cylinder()
        getattr(st, field)[node] = bad
        self.assert_viscous_fails(st, g, p, s)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["B", "P"])
    def test_block_source(self, field, bad):
        # the balance's source, in the implicit stage's block rows and in
        # the standalone balance
        for assert_fails in (self.assert_viscous_fails,
                             self.assert_balance_fails):
            st, g, p, s = self.cylinder()
            getattr(st, field)[self.BLOCK] = bad
            assert_fails(st, g, p, s)

    @pytest.mark.parametrize("bad", BAD)
    def test_balance_edge_value(self, bad):
        st, g, p, s = self.cylinder()
        st.u[33] = bad
        self.assert_balance_fails(st, g, p, s)

    def test_density(self):
        # a NaN rho* makes its row's scale, and so its diagonal entry, NaN
        st, g, p, s = self.cylinder()
        st.rho[self.FLUID] = np.nan
        self.assert_viscous_fails(st, g, p, s)

    @pytest.mark.parametrize("dt", BAD)
    def test_step_size(self, dt):
        # an infinite dt scales the wall's coupling to inf, whose product
        # with the held u = 0 is an invalid operation on the way
        with np.errstate(invalid="ignore"):
            self.assert_viscous_fails(*self.cylinder(), dt=dt)

    def test_infinite_density_is_left_to_the_state_scan(self):
        # rho = +inf scales its row by -dt nu / rho* = -0: the system is
        # finite and the solve leaves the row's velocity as it was, so no
        # solve fails; the next stage's state scan reports the density
        from mhdlab.solver import implicit_viscous
        st, g, p, s = self.cylinder()
        st.rho[self.FLUID] = np.inf
        z = st.y[1:-2].copy()
        change = implicit_viscous(st, p, g, s, 1e-4)
        assert np.isfinite(change).all()
        assert np.array_equal(st.y[1:-2, self.FLUID], z[:, self.FLUID])
        with pytest.raises(NumericalFailure, match="non-finite rho"):
            detect_blowup(st, g, p, s)


class TestCoupledSolve:
    """One `implicit_viscous` solves the vacuum block's balance rows and the
    fluid's backward-Euler rows together: on a state with a block both row
    sets hold, checked against the operators written out here, and on the
    block v is proportional to r and w is constant."""

    N, M = 128, 40
    dt = 2e-3

    def state(self, swirl):
        g = make_grid(self.N, 1.0)
        r = g.nodes
        rho = np.where(np.arange(self.N + 1) <= self.M, 0.0, 1.0 + r)
        fields = dict(rho=rho, u=np.sin(3.0 * r) * r * (1.0 - r),
                      P=0.2 + 0.3 * r * r, B=r * np.exp(-r))
        if swirl:
            fields.update(v=np.sin(2.0 * r) * (1.0 - r), w=np.cos(r) - np.cos(1.0))
            return g, cyl_state(g, **fields), cyl_params(mu=0.7, lam=0.2)
        return g, disk_state(g, **fields), disk_params(mu=0.7, lam=0.2)

    @staticmethod
    def operator(f, r, dr, swirl):
        """L f at nodes 1..N-1, and the sum of its products' sizes there."""
        fl, fc, fr, ri = f[:-2], f[1:-1], f[2:], r[1:-1]
        lf = (fr - 2.0 * fc + fl) / (dr * dr) + (fr - fl) / (2.0 * dr * ri)
        size = ((np.abs(fr) + 2.0 * np.abs(fc) + np.abs(fl)) / (dr * dr)
                + (np.abs(fr) + np.abs(fl)) / (2.0 * dr * ri))
        if swirl:
            lf = lf - fc / (ri * ri)
            size = size + np.abs(fc) / (ri * ri)
        return lf, size

    @staticmethod
    def source(st, g, p):
        """The balance's right-hand side (B (B_r + B/r) + P_r) / (2mu+lam)
        at nodes 1..N-1, with central B_r and P_r."""
        B, P, ri, dr = st.B, st.P, g.nodes[1:-1], g.dr
        Br = (B[2:] - B[:-2]) / (2.0 * dr)
        Pr = (P[2:] - P[:-2]) / (2.0 * dr)
        return (B[1:-1] * (Br + B[1:-1] / ri) + Pr) / p.two_mu_lam

    def assert_rows(self, f, z, nu, source, g, swirl):
        """Balance rows L f = source on nodes 1..M, backward-Euler rows
        f - dt nu L f = z on M+1..N-1, each to a relative residual of 1e-12."""
        r, dr, m = g.nodes, g.dr, self.M
        lf, size = self.operator(f, r, dr, swirl)
        block = lf[:m] - source
        assert np.max(np.abs(block)) <= 1e-12 * np.max(size[:m] + np.abs(source))
        rows = slice(m + 1, self.N)
        visc = self.dt * nu[rows] * lf[m:]
        fluid = f[rows] - visc - z[rows]
        scale = np.abs(f[rows]) + self.dt * nu[rows] * size[m:] + np.abs(z[rows])
        assert np.max(np.abs(fluid)) <= 1e-12 * np.max(scale)

    @pytest.mark.parametrize("swirl", [False, True])
    def test_block_and_fluid_rows_hold(self, swirl):
        from mhdlab.solver import _stage_of, implicit_viscous
        g, st, p = self.state(swirl)
        s = settings()
        assert _stage_of(st, p, s).m == self.M
        z = st.y.copy()
        got = implicit_viscous(st, p, g, s, self.dt)
        assert np.array_equal(got, st.y[1:-2] - z[1:-2])
        assert np.array_equal(st.y[[0, -2, -1]], z[[0, -2, -1]])
        r = g.nodes
        rho_star = np.maximum(st.rho, s.eps_vac)
        source = self.source(st, g, p)[:self.M]
        self.assert_rows(st.u, z[1], p.two_mu_lam / rho_star, source, g, True)
        assert st.u[0] == z[1, 0] and st.u[-1] == z[1, -1]
        if not swirl:
            return
        zero = np.zeros(self.M)
        nu = p.mu / rho_star
        self.assert_rows(st.v, z[2], nu, zero, g, True)
        self.assert_rows(st.w, z[3], nu, zero, g, False)
        # the axis row of w: 4 (w1 - w0) / dr^2 = 0 on the block
        assert abs(st.w[1] - st.w[0]) <= 1e-12 * np.max(np.abs(st.w))
        # on the block v is v(r_M) r / r_M and w is w(r_M)
        m = self.M
        v_lin = st.v[m] * r[:m + 1] / r[m]
        assert np.max(np.abs(st.v[:m + 1] - v_lin)) <= 1e-12 * abs(st.v[m])
        assert np.max(np.abs(st.w[:m + 1] - st.w[m])) <= 1e-12 * abs(st.w[m])


class TestVacuumInterface:
    """The block's and the fluid's velocities come from one solve, so the
    velocities at the vacuum edge carry no error of the step size: a
    balance closed on a lagged edge value left one of about 1e-2 in v and
    w on cylinder-blowup, at every grid size."""

    def test_cylinder_velocities_do_not_depend_on_dt(self):
        import dataclasses

        from mhdlab.config import load_preset
        from mhdlab.harness import RunStatus, run
        cfg = dataclasses.replace(load_preset("cylinder-blowup"), n=128,
                                  t_end=0.3)
        ends = []
        for cfl in (0.4, 0.1):
            res = run(dataclasses.replace(
                cfg, solver=dataclasses.replace(cfg.solver, cfl=cfl)))
            assert res.status is RunStatus.COMPLETED
            assert res.state.t == pytest.approx(0.3, rel=1e-12)
            ends.append(res.state)
        coarse, fine = ends
        assert np.max(np.abs(coarse.v - fine.v)) <= 1e-5
        assert np.max(np.abs(coarse.w - fine.w)) <= 1e-5


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


def random_state(geometry, n1=33, seed=7):
    """A state with random fields of the geometry and its parameters."""
    rng = np.random.default_rng(seed)
    fields = {"rho": 1.0 + rng.uniform(size=n1), "u": 0.1 * rng.standard_normal(n1),
              "P": 1.0 + rng.uniform(size=n1), "B": 0.1 * rng.standard_normal(n1)}
    if geometry is Geometry.CYLINDER3D:
        fields["v"] = 0.1 * rng.standard_normal(n1)
        fields["w"] = 0.1 * rng.standard_normal(n1)
        return FluidState(t=0.25, **fields), cyl_params()
    return FluidState(t=0.25, **fields), disk_params()


class TestStackedContract:
    """Stage algebra on the stacked array equals the per-field formulas."""

    @pytest.mark.parametrize("geometry", [Geometry.DISK2D, Geometry.CYLINDER3D])
    def test_rhs_returns_stacked_rates(self, geometry):
        st, p = random_state(geometry)
        st.pin(wall=True)
        g = make_grid(32, 1.0)
        rates = (rhs_cylinder if geometry.has_swirl else rhs_disk)(st, p, g, settings())
        assert type(rates) is np.ndarray
        assert rates.shape == st.y.shape and rates.dtype == st.y.dtype
        # the rows follow the state's: rho first, B last (the face-flux forms
        # every rhs shares), the velocities between
        disk = kern.disk_tendency(g.nodes, g.dr, st.rho, st.u, st.P, st.B,
                                  st.rho, p.two_mu_lam, p.gamma, True,
                                  *g.quiet_faces)
        np.testing.assert_allclose(rates[0], disk[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rates[-1], disk[-1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry", [Geometry.DISK2D, Geometry.CYLINDER3D])
    def test_apply_tendency_matches_per_field_sum(self, geometry):
        st, _ = random_state(geometry)
        rates, _ = random_state(geometry, seed=8)
        dt = 0.0123
        out = apply_tendency(st, rates.y, dt)
        assert out.t == st.t + dt
        for (name, arr), (_, rate) in zip(st.fields(), rates.fields()):
            assert np.array_equal(getattr(out, name), arr + dt * rate), name

    def test_ssp_rk3_is_third_order_exact_on_a_linear_system(self):
        # y' = lam y: one step multiplies y by 1 + z + z^2/2 + z^3/6, z = lam dt
        st, _ = random_state(Geometry.DISK2D)
        lam, dt = -3.7, 0.05
        times, finished = [], []

        def rates(y, k):
            assert k == len(times)
            times.append(y.t)
            return lam * y.y

        out = ssp_rk3(st, dt, rates, finished.append)
        z = lam * dt
        np.testing.assert_allclose(out.y, (1 + z + z * z / 2 + z ** 3 / 6) * st.y,
                                   rtol=1e-14, atol=0)
        assert times == [st.t, st.t + dt, st.t + 0.5 * dt]
        assert len(finished) == 3 and finished[-1] is out
        assert out.t == st.t + dt

    @pytest.mark.parametrize("geometry", [Geometry.DISK2D, Geometry.CYLINDER3D])
    def test_blend_matches_per_field_combination(self, geometry):
        a, _ = random_state(geometry)
        b, _ = random_state(geometry, seed=9)
        out = blend(a, 0.75, b, 0.25, 0.5)
        assert out.t == 0.5
        for name, arr in a.fields():
            assert np.array_equal(getattr(out, name),
                                  0.75 * arr + 0.25 * getattr(b, name)), name


# The stage pieces as they were built with NumPy's reduction wrappers, index
# arrays and one sign scan per field, kept as the references their reworked
# forms must match bit for bit.

def _reference_vacuum_block(rho, eps_vac):
    vac = rho < eps_vac
    if not vac[0]:
        return -1
    nz = np.nonzero(~vac)[0]
    return int(nz[0] - 1) if len(nz) else len(rho) - 1


def _reference_speeds(state, stage):
    cs = np.sqrt(stage.p.gamma * state.P / stage.rho_star)
    ca = np.sqrt(state.B * state.B / stage.rho_star)
    abs_u = np.abs(state.u)
    return np.where(state.rho < stage.s.eps_vac, abs_u, abs_u + cs + ca)


def _reference_face_controls(state, grid, stage, stats):
    from mhdlab.solver import _LF_BAND
    vac = state.rho < stage.s.eps_vac
    if not vac.any():
        return grid.quiet_faces
    n = grid.n_cells
    lf_fc = np.zeros(n)
    up_fc = np.zeros(n, dtype=np.uint8)
    up_fc[:] = vac[:-1] | vac[1:]
    m = stage.m
    if 0 <= m < n - 1:
        a_max = float(np.max(_reference_speeds(state, stage)))
        coeff = 0.5 * a_max * grid.dr
        if stats is not None:
            stats.lf_coeff = coeff
        lo = m + 1
        hi = min(m + _LF_BAND, n - 1)
        band = np.arange(lo, hi + 1)
        band = band[up_fc[band] == 0]
        lf_fc[band] = coeff
    return lf_fc, up_fc


def _reference_finalize_stage(state, p, grid, s, stats):
    """`finalize_stage` on a fixed boundary: index-array pins, a sign scan
    per clipped field, and the balance called on every stage."""
    from mhdlab.solver import _Stage
    rows = [1, 2, 5] if len(state.y) == 6 else [1, 3]     # u, (v,) B
    state.y[:, 0][np.array(rows)] = 0.0
    state.y[1:-2, -1] = 0.0
    rho, P = state.rho, state.P
    neg = rho < 0.0
    if neg.any():
        stats.clipped_mass += -integrate(np.minimum(rho, 0.0), grid,
                                         Weight.RADIAL_R)
        rho[neg] = 0.0
    neg = P < 0.0
    if neg.any():
        stats.clipped_pressure += -integrate(np.minimum(P, 0.0), grid,
                                             Weight.RADIAL_R)
        P[neg] = 0.0
    state._stage = _Stage(state, p, s)
    apply_vacuum_balance(state, p, grid, s, stats)


N_STAGE = 40


def _vacuum_case(name, rng):
    """Density (with negatives among the vacuum nodes) of a named layout."""
    rho = rng.uniform(0.5, 1.5, N_STAGE + 1)
    vacuum = {
        "none": [],
        "prefix": list(range(9)),
        # isolated nodes inside the band, beyond it, and without a prefix
        "prefix-and-isolated": list(range(5)) + [8, 12, 30],
        "isolated-only": [6, 7, 19, 33],
        "axis-only": [0, 10],
        "ends-at-face-n-1": list(range(N_STAGE)),
        "all": list(range(N_STAGE + 1)),
        "two-short-of-the-end": list(range(N_STAGE - 1)),
    }[name]
    rho[vacuum] = rng.uniform(-1e-3, 1e-7, len(vacuum))
    return rho


VACUUM_CASES = ["none", "prefix", "prefix-and-isolated", "isolated-only",
                "axis-only", "ends-at-face-n-1", "all", "two-short-of-the-end"]


class TestStageAgainstReference:
    """The reworked vacuum search, signal speeds, face controls and stage
    finalize give the reference forms' bits on random states."""

    def state(self, case, geometry, seed, negative_P=True):
        rng = np.random.default_rng(seed)
        g = make_grid(N_STAGE, 1.0)
        n1 = N_STAGE + 1
        fields = dict(rho=_vacuum_case(case, rng),
                      u=0.3 * rng.standard_normal(n1),
                      P=rng.uniform(-0.2 if negative_P else 0.1, 1.0, n1),
                      B=0.5 * rng.standard_normal(n1))
        if geometry is Geometry.CYLINDER3D:
            fields.update(v=0.3 * rng.standard_normal(n1),
                          w=0.3 * rng.standard_normal(n1))
            p = cyl_params(mu=0.3, lam=0.1)
        else:
            p = disk_params(mu=0.3, lam=0.1)
        return g, FluidState(**fields), p, settings(eps_vac=1e-6)

    @pytest.mark.parametrize("case", VACUUM_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vacuum_block(self, case, seed):
        rho = _vacuum_case(case, np.random.default_rng(seed))
        for eps in (1e-6, 0.0, 1.0, 2.0):
            assert vacuum_block(rho, eps) == _reference_vacuum_block(rho, eps)

    @pytest.mark.parametrize("case", VACUUM_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("geometry", [Geometry.DISK2D, Geometry.CYLINDER3D])
    def test_speeds_and_face_controls(self, case, seed, geometry):
        from mhdlab.solver import _face_controls, _Stage
        # a negative P gives NaN speeds and a NaN coefficient
        g, st, p, s = self.state(case, geometry, seed, negative_P=seed == 2)
        with np.errstate(invalid="ignore"):
            stage = _Stage(st, p, s)
            want = _reference_speeds(st, stage)
            assert stage.speeds(st).tobytes() == want.tobytes()
            got_stats, want_stats = StepStats(lf_coeff=7.0), StepStats(lf_coeff=7.0)
            got = _face_controls(st, g, _Stage(st, p, s), got_stats)
            ref = _reference_face_controls(st, g, stage, want_stats)
        assert (stage.m >= 0) == (case not in ("none", "isolated-only"))
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(got_stats.lf_coeff, want_stats.lf_coeff,
                              equal_nan=True)

    @pytest.mark.parametrize("case", VACUUM_CASES)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_pressureless_speeds(self, case, seed, negative_zero):
        # P = +0 leaves c_s out; a -0.0 takes the full path
        from mhdlab.solver import _Stage
        g, st, p, s = self.state(case, Geometry.DISK2D, seed)
        st.P[:] = 0.0
        if negative_zero:
            st.P[7] = -0.0
        stage = _Stage(st, p, s)
        want = _reference_speeds(st, stage)
        assert stage.speeds(st).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", VACUUM_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("geometry", [Geometry.DISK2D, Geometry.CYLINDER3D])
    def test_finalize_stage(self, case, seed, geometry):
        from mhdlab.solver import finalize_stage
        g, st, p, s = self.state(case, geometry, seed)
        got, want = st.copy(), st.copy()
        got_stats, want_stats = StepStats(), StepStats()
        finalize_stage(got, p, g, s, got_stats)
        _reference_finalize_stage(want, p, g, s, want_stats)
        assert got.y.tobytes() == want.y.tobytes()
        assert got_stats == want_stats
        assert got_stats.clipped_mass > 0.0 or case == "none"
        assert got_stats.clipped_pressure > 0.0
        assert (got_stats.balance_solves == 1) == (got._stage.m >= 1)

    @pytest.mark.parametrize("field", ["rho", "P"])
    def test_finalize_stage_with_a_nan(self, field):
        # a NaN does not hide the negative nodes beside it from the clipping
        import dataclasses

        from mhdlab.solver import finalize_stage
        g, st, p, s = self.state("prefix", Geometry.DISK2D, 0)
        getattr(st, field)[20] = np.nan
        got, want = st.copy(), st.copy()
        got_stats, want_stats = StepStats(), StepStats()
        with np.errstate(invalid="ignore"):
            finalize_stage(got, p, g, s, got_stats)
            _reference_finalize_stage(want, p, g, s, want_stats)
        assert got.y.tobytes() == want.y.tobytes()
        assert np.array_equal(dataclasses.astuple(got_stats),
                              dataclasses.astuple(want_stats), equal_nan=True)
        assert math.isnan(got_stats.clipped_mass if field == "rho"
                          else got_stats.clipped_pressure)


def _reference_stage(rho, eps_vac):
    """rho*, the vacuum mask, the block's last node and whether any node is
    vacuum, each scanned from rho."""
    vac = rho < eps_vac
    return (np.maximum(rho, eps_vac), vac, _reference_vacuum_block(rho, eps_vac),
            bool(vac.any()))


def _reference_cfl_dt(state, grid, p, s):
    """The explicit scheme's `cfl_dt` with every operand scanned from rho."""
    rho_star, vac, m, _ = _reference_stage(state.rho, s.eps_vac)
    abs_u = np.abs(state.u)
    speeds = np.where(vac, abs_u, abs_u + np.sqrt(p.gamma * state.P / rho_star)
                      + np.sqrt(state.B * state.B / rho_star))
    dt = grid.dr / float(np.max(speeds))
    rho_floor = float(np.min(rho_star[m + 1:]))
    dt = min(dt, grid.dr ** 2 * rho_floor / (2.0 * p.two_mu_lam))
    return dt * s.cfl


class TestVacuumFreeStage:
    """A stage whose density minimum is at least eps_vac makes no vacuum scan
    and holds the values the scans give; any other takes the general path."""

    explicit = settings(scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)

    def states(self, preset):
        """A preset's initial state (n=64), and the state one explicit step
        later, whose stage finalize_stage built from the minimum it took."""
        import dataclasses

        from mhdlab.config import load_preset
        from mhdlab.core import init_scenario
        cfg = dataclasses.replace(load_preset(preset), n=64)
        g = cfg.grid()
        start, _ = init_scenario(cfg)
        start.freeze()
        out = step(start, 1e-4, cfg.phys, g, self.explicit)
        return g, cfg.phys, [start, out]

    def assert_matches_scans(self, stage, state, s):
        rho_star, _, m, any_vac = _reference_stage(state.rho, s.eps_vac)
        assert stage.rho_star.tobytes() == rho_star.tobytes()
        assert np.shares_memory(stage.rho_star, state.rho)     # no copy
        assert stage.vac is None
        assert (stage.m, stage.any_vac) == (m, any_vac) == (-1, False)
        assert stage.rho_floor == float(np.min(rho_star))

    @pytest.mark.parametrize("preset", ["mms", "smooth-novac"])
    def test_preset_states(self, preset):
        from mhdlab.solver import _Stage
        g, p, states = self.states(preset)
        s = self.explicit
        for state in states:
            self.assert_matches_scans(_Stage(state, p, s), state, s)
            assert cfl_dt(state, g, p, s) == _reference_cfl_dt(state, g, p, s)
        # the stepped state keeps the stage that finalize_stage built
        self.assert_matches_scans(states[1]._stage, states[1], s)

    def test_minimum_exactly_eps_vac(self):
        from mhdlab.solver import _Stage, finalize_stage
        g = make_grid(64, 1.0)
        p, s = disk_params(), self.explicit
        rho = np.linspace(1.0, 2.0, 65)
        rho[5] = s.eps_vac
        st = disk_state(g, rho=rho, u=0.1 * np.sin(np.pi * g.nodes),
                        P=np.ones(65), B=0.2 * g.nodes)
        self.assert_matches_scans(_Stage(st, p, s), st, s)
        finalize_stage(st, p, g, s)
        self.assert_matches_scans(st._stage, st, s)
        assert cfl_dt(st, g, p, s) == _reference_cfl_dt(st, g, p, s)

    @pytest.mark.parametrize("rho5", [-1e-3, 0.0, 1e-6 * (1 - 1e-12)])
    @pytest.mark.parametrize("prefix", [False, True])
    def test_below_eps_vac_scans(self, rho5, prefix):
        from mhdlab.solver import _Stage, finalize_stage
        g = make_grid(64, 1.0)
        p, s = disk_params(), self.explicit
        rho = np.linspace(1.0, 2.0, 65)
        rho[5] = rho5
        if prefix:
            rho[:3] = 0.0
        st = disk_state(g, rho=rho, P=np.ones(65), B=0.2 * g.nodes)
        stages = [_Stage(st, p, s), _Stage(st, p, s, -math.inf)]
        finalize_stage(st, p, g, s)      # clips a negative rho5 to zero
        stages.append(st._stage)
        rho_star, vac, m, any_vac = _reference_stage(st.rho, s.eps_vac)
        assert (m, any_vac) == (2 if prefix else -1, True)
        for stage in stages:
            assert stage.rho_floor is None
            assert stage.rho_star.tobytes() == rho_star.tobytes()
            assert stage.vac.tobytes() == vac.tobytes()
            assert (stage.m, stage.any_vac) == (m, any_vac)
        assert cfl_dt(st, g, p, s) == _reference_cfl_dt(st, g, p, s)

    def test_nan_takes_the_general_path(self):
        from mhdlab.solver import _Stage, finalize_stage
        g = make_grid(64, 1.0)
        p, s = disk_params(), self.explicit
        rho = np.ones(65)
        rho[9] = np.nan
        st = disk_state(g, rho=rho, P=np.ones(65))
        assert _Stage(st, p, s).rho_floor is None
        finalize_stage(st, p, g, s)
        assert st._stage.rho_floor is None
        assert not np.shares_memory(st._stage.rho_star, st.rho)
        with pytest.raises(NumericalFailure, match=r"^non-finite rho \(node 9\)$"):
            cfl_dt(st, g, p, s)
        with pytest.raises(NumericalFailure, match=r"^non-finite rho \(node 9\)$"):
            step(st, 1e-4, p, g, s)

    def test_failing_scan_raises_again_on_a_cached_stage(self):
        g = make_grid(64, 1.0)
        p, s = disk_params(), self.explicit
        u = 0.1 * np.sin(np.pi * g.nodes)
        u[17] = np.inf
        st = disk_state(g, rho=np.ones(65), u=u, P=np.ones(65))
        st.freeze()
        failures = []
        for _ in range(2):
            with pytest.raises(NumericalFailure) as info:
                cfl_dt(st, g, p, s)
            failures.append((info.value.reason, info.value.node, st._stage))
        assert failures[0][:2] == failures[1][:2] == ("non-finite u", 17)
        assert failures[0][2] is failures[1][2] is not None
