"""Linearized successive-approximation sweeps against the nonlinear solver."""

import dataclasses

import numpy as np
import pytest

from mhdlab import (ConfigError, FluidState, Geometry, PhysParams, Profile,
                    Scheme, SolverSettings, Weight, init_scenario, integrate,
                    make_grid, picard_iterate, step)
from mhdlab._kernels import pure
from mhdlab.config import load_preset
from mhdlab.picard import _linear_tendency


def params(mu=0.1):
    return PhysParams(mu=mu, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)


def smooth_state(grid):
    n1 = len(grid.nodes)
    r = grid.nodes
    st = FluidState(rho=np.ones(n1),
                    u=Profile.parse("bump 0.2 0.8 0.2")(r),
                    P=np.full(n1, 0.5),
                    B=Profile.parse("bump 0.3 0.7 0.2")(r))
    return st


class TestPicard:
    def test_quiescent_one_iteration(self):
        g = make_grid(64, 1.0)
        z = np.zeros(65)
        st = FluidState(rho=z.copy(), u=z.copy(), P=z.copy(), B=z.copy())
        traj, rep = picard_iterate(st, 0.01, 20, 1e-8, params(), g,
                                   SolverSettings())
        assert rep.converged and rep.iterations == 1
        assert all(np.all(s.u == 0.0) for s in traj)

    def test_contraction_on_smooth_state(self):
        g = make_grid(128, 1.0)
        st = smooth_state(g)
        traj, rep = picard_iterate(st, 0.01, 30, 1e-10, params(), g,
                                   SolverSettings())
        assert rep.converged
        assert all(r < 1.0 for r in rep.ratios)
        assert rep.contraction_ratio < 1.0

    def test_matches_nonlinear_trajectory(self):
        g = make_grid(128, 1.0)
        st = smooth_state(g)
        p = params()
        traj, rep = picard_iterate(st, 0.01, 30, 1e-10, p, g, SolverSettings())
        s_exp = SolverSettings(scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS)
        ref = st.copy()
        gap = 0.0
        for snap in traj[1:]:
            ref = step(ref, rep.dt, p, g, s_exp)
            d = snap.u - ref.u
            gap = max(gap, float(np.sqrt(max(
                integrate(d * d, g, Weight.RADIAL_R), 0.0))))
        assert gap < 1e-8

    def test_snapshots_are_read_only(self):
        g = make_grid(64, 1.0)
        st = smooth_state(g)
        traj, rep = picard_iterate(st, 0.01, 30, 1e-10, params(), g,
                                   SolverSettings())
        assert rep.iterations >= 2 and len(traj) == rep.n_steps + 1
        assert all(snap.read_only for snap in traj)
        with pytest.raises(ValueError, match="read-only"):
            traj[-1].u[1] = 1.0
        # the caller's state is not frozen with its copy
        assert not st.read_only

    def test_window_must_be_positive(self):
        g = make_grid(64, 1.0)
        with pytest.raises(ConfigError):
            picard_iterate(smooth_state(g), 0.0, 10, 1e-8, params(), g,
                           SolverSettings())

    def test_cylinder_rejected(self):
        g = make_grid(64, 1.0)
        st = smooth_state(g)
        p3 = PhysParams(mu=0.1, lam=0.0, gamma=1.4,
                        geometry=Geometry.CYLINDER3D)
        with pytest.raises(ConfigError):
            picard_iterate(st, 0.01, 10, 1e-8, p3, g, SolverSettings())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_aggressive_window_reports_divergence(self):
        # far beyond the contraction regime the sweeps overflow; the iteration
        # must flag divergence without warning spam and hand back the finite
        # best iterate
        g = make_grid(96, 1.0)
        r = g.nodes
        p = params(mu=0.02)
        st = FluidState(rho=np.ones(97),
                        u=Profile.parse("bump 0.15 0.85 1.5")(r),
                        P=np.full(97, 0.8),
                        B=Profile.parse("bump 0.2 0.8 1.5")(r))
        traj, rep = picard_iterate(st, 0.5, 12, 1e-14, p, g, SolverSettings())
        assert rep.diverged and not rep.converged
        assert not np.isfinite(rep.sup_phis[0])      # the blow-up was seen
        for snap in traj:                             # best iterate is finite
            for _, arr in snap.fields():
                assert np.all(np.isfinite(arr))

    def test_divergence_strikes_on_growing_differences(self):
        # three consecutive non-finite sweeps count as growth and stop early
        from mhdlab.solver import SolverSettings as SS
        import mhdlab.picard as pic

        calls = {"n": 0}
        real_phi = pic._phi

        def fake_phi(a, b, grid):
            calls["n"] += 1
            return float("inf")

        pic._phi = fake_phi
        try:
            g = make_grid(64, 1.0)
            st = smooth_state(g)
            traj, rep = picard_iterate(st, 0.005, 20, 1e-8, params(), g, SS())
        finally:
            pic._phi = real_phi
        assert rep.diverged
        assert rep.iterations == 3           # stopped at the third strike

    def test_report_carries_iteration_log(self):
        g = make_grid(64, 1.0)
        st = smooth_state(g)
        _, rep = picard_iterate(st, 0.005, 2, 1e-16, params(), g,
                                SolverSettings())
        # tolerance unreachable in two sweeps: log filled, no convergence flag
        assert rep.iterations == 2 and not rep.converged
        assert len(rep.sup_phis) == 2 and len(rep.ratios) == 1


class TestLinearizationAtTheSolution:
    """With V = u the linear system is the nonlinear one, bit for bit: the
    disk kernel's transport of u gives the bytes of no transport, and so
    does the sweep's tendency. The cross-validation of criterion 9 rests on
    this."""

    @staticmethod
    def assert_identity(state, p, grid, eps_vac):
        args = (grid.nodes, grid.dr, *state.y, np.maximum(state.rho, eps_vac),
                p.two_mu_lam, p.gamma, True, *grid.quiet_faces)
        nonlinear = pure.disk_tendency(*args).tobytes()
        assert pure.disk_tendency(*args, transport=state.u).tobytes() == nonlinear
        assert _linear_tendency(state, state.u, p, grid,
                                eps_vac).tobytes() == nonlinear
        # and the transport's scratch leaves the next call's bits alone
        assert pure.disk_tendency(*args).tobytes() == nonlinear

    @pytest.mark.parametrize("n", [32, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_fields(self, n, seed):
        rng = np.random.default_rng(seed)
        st = FluidState(rho=rng.uniform(0.5, 2.0, n + 1),
                        u=0.3 * rng.standard_normal(n + 1),
                        P=rng.uniform(0.1, 1.0, n + 1),
                        B=0.5 * rng.standard_normal(n + 1))
        st.pin(wall=True)
        self.assert_identity(st, params(), make_grid(n, 1.0), 1e-6)

    def test_criterion_9_initial_state(self):
        cfg = dataclasses.replace(load_preset("smooth-novac"), n=256)
        state0, _ = init_scenario(cfg)
        self.assert_identity(state0, cfg.phys, cfg.grid(), cfg.solver.eps_vac)
