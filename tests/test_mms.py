"""Manufactured-solution machinery: forcing correctness and convergence."""

import math

import numpy as np
import pytest

from mhdlab import (Geometry, PhysParams, Scheme, SolverSettings, cfl_dt,
                    make_grid, step)
from mhdlab.core import ScenarioConfig
from mhdlab.harness import convergence_study
from mhdlab.mms import MMSForcing
from mhdlab.solver import rhs_disk


def params(mu=0.05):
    return PhysParams(mu=mu, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)


def mms_config(**kw):
    base = dict(geometry=Geometry.DISK2D, n=64, r_outer=1.0, phys=params(),
                t_end=0.05, cfl=0.4, scheme="ssprk3", mms=True)
    base.update(kw)
    return ScenarioConfig(**base)


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
            tend = rhs_disk(st, p, g, SolverSettings(), forcing=f)
            k = np.pi
            e = 0.1 * math.exp(-0.2)
            r = g.nodes
            # d/dt of the exact fields
            rate_rho = -e * np.cos(k * r)
            rate_u = -e * np.sin(k * r) * r
            sl = (r > 0.1) & (r < 0.9)
            errs.append(max(np.max(np.abs(tend.drho[sl] - rate_rho[sl])),
                            np.max(np.abs(tend.du[sl] - rate_u[sl]))))
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

    def test_cylinder_rejected(self):
        with pytest.raises(Exception):
            MMSForcing(PhysParams(mu=1.0, lam=0.0, gamma=1.4,
                                  geometry=Geometry.CYLINDER3D), 1.0)


class TestConvergence:
    def test_zero_time_zero_errors(self):
        rows = convergence_study(mms_config(t_end=0.0), [32, 64])
        for row in rows:
            for err in row.errors.values():
                assert err == 0.0

    def test_single_n_no_orders(self):
        rows = convergence_study(mms_config(), [48])
        assert len(rows) == 1 and rows[0].orders is None

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
