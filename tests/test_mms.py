"""Manufactured-solution machinery: forcing correctness and convergence."""

import math

import numpy as np
import pytest

from mhdlab import (ConfigError, Geometry, PhysParams, Scheme, SolverSettings,
                    cfl_dt, make_grid, step)
from mhdlab.core import ScenarioConfig
from mhdlab.harness import convergence_study
from mhdlab.mms import MMS_AMPLITUDE, MMSForcing
from mhdlab.solver import rhs_disk


def params(mu=0.05):
    return PhysParams(mu=mu, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)


def mms_config(**kw):
    base = dict(n=64, r_outer=1.0, phys=params(), t_end=0.05,
                solver=SolverSettings(cfl=0.4, scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS),
                mms=True)
    base.update(kw)
    return ScenarioConfig(**base)


def closed_form_forcing(f, r, t):
    """The residuals of the exact fields, term by term (the reference for the
    tabulated forcing)."""
    R = f.r_outer
    k = np.pi / R
    e = MMS_AMPLITUDE * np.exp(-t)
    c, s = np.cos(k * r), np.sin(k * r)
    rho, u, P, B = f.exact(r, t)
    gamma = f.p.gamma
    two_mu_lam = f.p.two_mu_lam

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


def per_row_forcing(f, r, t):
    """The polynomials of the class docstring evaluated row by row, in the
    order of the per-row form: e (a1 + e a2), e (b1 + e (b2 + e b3))."""
    R = f.r_outer
    k = np.pi / R
    c, s = np.cos(k * r), np.sin(k * r)
    gamma = f.p.gamma
    q = s * r / R
    du = (k * c * r + s) / R
    D = du + s / R
    ksq = k * s * q
    b1 = -q - k * s - f.p.two_mu_lam * k * (3.0 * c - k * s * r) / R
    e = MMS_AMPLITUDE * math.exp(-t)
    return np.array((e * ((D - c) + e * (c * D - ksq)),
                     e * (b1 + e * (q * (du + D - c) + e * (c * q * du))),
                     e * ((gamma * D - c) + e * (gamma * c * D - ksq)),
                     e * (-q + e * (2.0 * q * du))))


class TestForcing:
    def test_forcing_matches_finite_differences(self):
        # residual of the exact fields in the PDE, measured with independent
        # high-order finite differences, must equal the coded forcing
        p = params()
        f = MMSForcing(p, 1.0)
        r = np.linspace(0.05, 0.95, 181)
        t = 0.3
        h = 1e-5

        def fields(rr, tt):
            return f.exact(rr, tt)

        rho, u, P, B = fields(r, t)
        rho_t = (fields(r, t + h)[0] - fields(r, t - h)[0]) / (2 * h)
        u_t = (fields(r, t + h)[1] - fields(r, t - h)[1]) / (2 * h)
        P_t = (fields(r, t + h)[2] - fields(r, t - h)[2]) / (2 * h)
        B_t = (fields(r, t + h)[3] - fields(r, t - h)[3]) / (2 * h)

        def ddr(idx):
            return (np.array(fields(r + h, t)[idx])
                    - np.array(fields(r - h, t)[idx])) / (2 * h)

        rho_r, u_r, P_r, B_r = ddr(0), ddr(1), ddr(2), ddr(3)
        u_rr = (fields(r + h, t)[1] - 2 * u + fields(r - h, t)[1]) / h ** 2
        div = u_r + u / r
        div_r = u_rr + u_r / r - u / r ** 2

        f_rho_ref = rho_t + rho_r * u + rho * div
        f_u_ref = (rho * (u_t + u * u_r) + P_r - p.two_mu_lam * div_r
                   + B * (B_r + B / r))
        f_P_ref = P_t + u * P_r + p.gamma * P * div
        f_B_ref = B_t + u_r * B + u * B_r

        got = f(r, t)
        for ref, val in zip((f_rho_ref, f_u_ref, f_P_ref, f_B_ref), got):
            assert np.max(np.abs(ref - val)) < 1e-7

    def test_forced_tendency_tracks_exact_rate(self):
        # discrete rhs + forcing approximates the analytic time derivative
        p = params()
        errs = []
        for n in (64, 256):
            g = make_grid(n, 1.0)
            f = MMSForcing(p, 1.0)
            st = f.exact_state(g, 0.2)
            drho, du, _, _ = rhs_disk(st, p, g, SolverSettings(), forcing=f)
            k = np.pi
            e = 0.1 * math.exp(-0.2)
            r = g.nodes
            # d/dt of the exact fields
            rate_rho = -e * np.cos(k * r)
            rate_u = -e * np.sin(k * r) * r
            sl = (r > 0.1) & (r < 0.9)
            errs.append(max(np.max(np.abs(drho[sl] - rate_rho[sl])),
                            np.max(np.abs(du[sl] - rate_u[sl]))))
        # two refinement levels: second order means a factor of 16
        assert errs[0] / errs[1] > 11.0

    def test_cached_trig_is_bitwise_neutral(self):
        # one instance reused across times and two grids (as the solver
        # calls it) gives a fresh instance's output bit for bit
        p = params()
        f = MMSForcing(p, 1.0)
        grids = (make_grid(32, 1.0), make_grid(64, 1.0))
        for t in (0.0, 0.013, 0.2, 0.2, 1.7):
            for g in grids + grids[::-1]:
                fresh = MMSForcing(p, 1.0)
                for got, ref in zip(f(g.nodes, t), fresh(g.nodes, t)):
                    np.testing.assert_array_equal(got, ref)
                for got, ref in zip(f.exact(g.nodes, t),
                                    fresh.exact(g.nodes, t)):
                    np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("t", [0.0, 0.013, 0.2, 1.7])
    def test_tabulated_matches_closed_form(self, n, t):
        p = PhysParams(mu=0.05, lam=0.02, gamma=1.4, geometry=Geometry.DISK2D)
        f = MMSForcing(p, 1.3)
        g = make_grid(n, 1.3)
        for got, ref in zip(f(g.nodes, t), closed_form_forcing(f, g.nodes, t)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_returns_a_fresh_stacked_array(self):
        f = MMSForcing(params(), 1.0)
        g = make_grid(32, 1.0)
        first = f(g.nodes, 0.2)
        assert isinstance(first, np.ndarray) and first.shape == (4, 33)
        kept = first.copy()
        # every evaluation is read-only, the kept one included
        for t in (0.7, 0.7, 0.1):
            got = f(g.nodes, t)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[1] /= 2.0
            np.testing.assert_array_equal(got,
                                          MMSForcing(params(), 1.0)(g.nodes, t))
        # a later call leaves the earlier array alone
        np.testing.assert_array_equal(first, kept)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("t", [0.0, 0.013, 0.2, 1.7])
    def test_stacked_matches_per_row_polynomials(self, n, t):
        p = PhysParams(mu=0.05, lam=0.02, gamma=1.4, geometry=Geometry.DISK2D)
        f = MMSForcing(p, 1.3)
        g = make_grid(n, 1.3)
        got = f(g.nodes, t)
        assert got.shape == (4, n + 1)
        assert np.array_equal(got, per_row_forcing(f, g.nodes, t))

    def test_kept_evaluations_are_bitwise_neutral(self, monkeypatch):
        # the ladder's errors with the kept evaluations equal those of a
        # forcing that evaluates every call, which evaluates more often
        import mhdlab.harness
        evaluated = {True: 0, False: 0}

        class Counted(MMSForcing):
            keep = True

            def __call__(self, r, t):
                if not self.keep:
                    self._kept_t = None
                return super().__call__(r, t)

            def _evaluate(self, t):
                evaluated[self.keep] += 1
                return super()._evaluate(t)

        class Uncached(Counted):
            keep = False

        def errors(forcing):
            monkeypatch.setattr(mhdlab.harness, "MMSForcing", forcing)
            rows = convergence_study(mms_config(), [32, 64])
            return np.array([list(row.errors.values()) for row in rows])

        assert errors(Counted).tobytes() == errors(Uncached).tobytes()
        assert 0 < evaluated[True] < evaluated[False]

    def test_cylinder_rejected(self):
        with pytest.raises(Exception):
            MMSForcing(PhysParams(mu=1.0, lam=0.0, gamma=1.4,
                                  geometry=Geometry.CYLINDER3D), 1.0)


class TestConvergence:
    def test_zero_time_is_refused(self):
        # a study needs a positive end time, as a scenario file does
        with pytest.raises(ConfigError, match=r"^time\.t_end must be positive"):
            mms_config(t_end=0.0)

    def test_single_n_no_orders(self):
        rows = convergence_study(mms_config(), [48])
        assert len(rows) == 1 and rows[0].orders is None

    def test_max_norm_errors(self, monkeypatch):
        # each field's largest |numerical - exact| on the nodes at t_end,
        # next to its L2_r error
        import mhdlab.harness
        cfg = mms_config()
        last = {}
        step_ = mhdlab.harness.step

        def kept(state, dt, p, grid, s, **kw):
            out = step_(state, dt, p, grid, s, **kw)
            last[grid.n_cells] = out, grid
            return out

        monkeypatch.setattr(mhdlab.harness, "step", kept)
        rows = convergence_study(cfg, [16, 32])
        for row in rows:
            state, grid = last[row.n]
            exact = MMSForcing(cfg.phys, cfg.r_outer).exact_state(grid, state.t)
            want = {name: np.max(np.abs(arr - ref)) for (name, arr), (_, ref)
                    in zip(state.fields(), exact.fields())}
            assert row.max_errors == want
            assert all(row.max_errors[f] > row.errors[f] > 0.0
                       for f in ("rho", "P"))

    def test_table_shows_max_norms_of_every_row_or_none(self):
        from mhdlab.harness import ConvergenceRow, format_convergence_table
        rows = [ConvergenceRow(n=16, errors={"u": 2e-3}, max_errors={"u": 5e-3}),
                ConvergenceRow(n=32, errors={"u": 5e-4}, orders={"u": 2.0},
                               max_errors={"u": 1.25e-3})]
        header, *lines = format_convergence_table(rows).splitlines()
        assert header.split() == ["N", "err(u)", "max(u)", "p(u)"]
        assert lines[1].split() == ["32", "5.0000e-04", "1.2500e-03", "2.000"]
        rows[0].max_errors = None
        header, *lines = format_convergence_table(rows).splitlines()
        assert header.split() == ["N", "err(u)", "p(u)"]
        assert lines[1].split() == ["32", "5.0000e-04", "2.000"]

    def test_orders_above_threshold(self):
        rows = convergence_study(mms_config(), [32, 64, 128])
        for row in rows[1:]:
            for field_name, order in row.orders.items():
                assert order >= 1.8, (field_name, order)

    def test_exact_state_boundary_pins(self):
        g = make_grid(64, 1.0)
        st = MMSForcing(params(), 1.0).exact_state(g, 0.0)
        assert st.u[0] == 0.0 and st.B[0] == 0.0 and st.u[-1] == 0.0
        assert np.all(st.rho > 0) and np.all(st.P > 0)
