"""Grid, quadrature, profile, and scenario-construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdlab import (ConfigError, Geometry, PhysParams, Profile, ScenarioConfig,
                    Weight, init_scenario, integrate, integrate_to, make_grid)


def disk_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.DISK2D)


class TestMakeGrid:
    def test_uniform_nodes(self):
        g = make_grid(4, 1.0)
        assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_spacing(self):
        g = make_grid(8, 2.0)
        assert np.allclose(g.spacing, 0.25)

    def test_trapezoid_weights(self):
        g = make_grid(4, 1.0)
        assert np.allclose(g.quad_weights, [0.125, 0.25, 0.25, 0.25, 0.125])

    @pytest.mark.parametrize("n,r", [(0, 1.0), (-3, 1.0), (8, 0.0), (8, -2.0),
                                     (1, 1.0)])
    def test_bad_arguments(self, n, r):
        with pytest.raises(ConfigError):
            make_grid(n, r)


class TestStencilRows:
    """The viscous stencil rows cached on the grid."""

    @staticmethod
    def formula(g):
        # rows of (f_r + f/r)_r and (r f_r)_r / r at nodes 1..N
        r, dr = g.nodes[1:], g.dr
        inv2 = 1.0 / (dr * dr)
        return (inv2 - 1.0 / (2.0 * dr * r), inv2 + 1.0 / (2.0 * dr * r),
                -2.0 * inv2 - 1.0 / (r * r), np.full(len(r), -2.0 * inv2))

    def test_rows_match_formula(self):
        g = make_grid(64, 1.5)
        for row, ref in zip(g.lap_rows, self.formula(g)):
            np.testing.assert_array_equal(row[1:], ref)

    def test_axis_row(self):
        g = make_grid(64, 1.5)
        sub, sup, swirl, axial = g.lap_rows
        assert sub[0] == 0.0
        assert sup[0] == 4.0 / (g.dr * g.dr)
        assert axial[0] == -4.0 / (g.dr * g.dr)
        assert np.isnan(swirl[0])

    def test_cached_and_read_only(self):
        g = make_grid(32, 1.0)
        assert g.lap_rows is g.lap_rows
        for arr in (*g.lap_rows, g.nodes, g.spacing, g.quad_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_rescaled_free_grid_has_own_rows(self):
        from mhdlab.freeboundary import MovingGrid
        g0 = MovingGrid(n=32, a=1.0, a0=1.0).grid()
        g1 = MovingGrid(n=32, a=1.1, a0=1.0).grid()
        assert not np.array_equal(g0.lap_rows[0], g1.lap_rows[0])
        for g in (g0, g1):
            for row, ref in zip(g.lap_rows, self.formula(g)):
                np.testing.assert_array_equal(row[1:], ref)


class TestIntegrate:
    def test_constant_plain(self):
        g = make_grid(64, 1.0)
        assert integrate(np.ones(65), g) == pytest.approx(1.0, rel=1e-14)

    def test_linear_plain_exact(self):
        g = make_grid(16, 1.0)
        assert integrate(g.nodes.copy(), g) == pytest.approx(0.5, rel=1e-13)

    def test_radial_weight(self):
        g = make_grid(64, 1.0)
        # int_0^1 2 r dr = 1
        assert integrate(2.0 * np.ones(65), g, Weight.RADIAL_R) == pytest.approx(
            1.0, rel=1e-13)

    def test_length_mismatch(self):
        g = make_grid(8, 1.0)
        with pytest.raises(ConfigError):
            integrate(np.ones(8), g)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5),
           n=st.integers(8, 200), r_outer=st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_degree_one_exact(self, a, b, n, r_outer):
        g = make_grid(n, r_outer)
        f = a + b * g.nodes
        exact = a * r_outer + 0.5 * b * r_outer ** 2
        scale = max(abs(exact), 1.0)
        assert abs(integrate(f, g) - exact) <= 1e-13 * scale

    def test_radial_second_order(self):
        # int_0^1 (r - sin r) r dr = 1/3 - (sin 1 - cos 1); error ratio near 4
        exact = 1.0 / 3.0 - (np.sin(1.0) - np.cos(1.0))

        def err(n):
            g = make_grid(n, 1.0)
            f = g.nodes - np.sin(g.nodes)
            val = integrate(f, g, Weight.RADIAL_R)
            return abs(val - exact)
        e1, e2 = err(64), err(128)
        assert 3.6 <= e1 / e2 <= 4.4

    def test_integrate_to_partial_cell(self):
        g = make_grid(10, 1.0)
        # linear integrand, endpoint inside a cell: trapezoid is exact
        f = 2.0 * g.nodes
        assert integrate_to(f, g, 0.37) == pytest.approx(0.37 ** 2, rel=1e-12)

    def test_integrate_to_full_domain_matches(self):
        g = make_grid(32, 2.0)
        f = np.cos(g.nodes)
        assert integrate_to(f, g, 2.0) == pytest.approx(integrate(f, g), rel=1e-13)


class TestProfiles:
    def test_zero_and_constant(self):
        r = np.linspace(0, 1, 11)
        assert np.all(Profile.parse("zero")(r) == 0.0)
        assert np.all(Profile.parse("constant 2.5")(r) == 2.5)

    def test_poly(self):
        r = np.linspace(0, 1, 5)
        prof = Profile.parse("poly 0 1 -1")
        assert np.allclose(prof(r), r * (1 - r))

    def test_bump_support_and_peak(self):
        prof = Profile.parse("bump 0.2 0.6 1.5")
        r = np.linspace(0, 1, 1001)
        vals = prof(r)
        assert np.all(vals[r <= 0.2] == 0.0)
        assert np.all(vals[r >= 0.6] == 0.0)
        assert vals.max() == pytest.approx(1.5, abs=1e-12)
        assert prof(np.array([0.4]))[0] == pytest.approx(1.5)

    def test_bump_is_c1(self):
        prof = Profile.parse("bump 0.25 0.75 1.0")
        h = 1e-6
        for edge in (0.25, 0.75):
            left = (prof(np.array([edge + h]))[0] - prof(np.array([edge - h]))[0]) / (2 * h)
            assert abs(left) < 1e-4

    def test_bad_descriptors(self):
        for text in ("", "wedge 1 2", "constant", "poly 1 2", "bump 0.5 0.4 1"):
            with pytest.raises(ConfigError):
                Profile.parse(text)


def scenario(geometry=Geometry.DISK2D, **kw):
    phys = PhysParams(mu=1.0, lam=0.0, gamma=1.4, geometry=geometry)
    base = dict(geometry=geometry, n=128, r_outer=1.0, phys=phys, profiles={},
                t_end=1.0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestInitScenario:
    def test_quiescent_all_zero(self):
        state, front = init_scenario(scenario())
        assert front is None
        for _, arr in state.fields():
            assert np.all(arr == 0.0)

    def test_vacuum_flux_closed_form(self):
        # B = r (1 - r): int_0^0.5 = 1/8 - 1/24
        cfg = scenario(n=512,
                       profiles={"rho": Profile.parse("bump 0.5 1.5 1.0"),
                                 "b": Profile.parse("poly 0 1 -1")},
                       r0=0.5)
        state, front = init_scenario(cfg)
        assert front is not None
        assert front.R == 0.5
        assert front.C0 == pytest.approx(1.0 / 8.0 - 1.0 / 24.0, rel=1e-5)

    def test_r0_outside_domain(self):
        cfg = scenario(profiles={"b": Profile.parse("poly 0 1 0")}, r0=1.2)
        with pytest.raises(ConfigError):
            init_scenario(cfg)

    def test_nonzero_density_in_vacuum(self):
        cfg = scenario(profiles={"rho": Profile.parse("constant 1.0"),
                                 "b": Profile.parse("poly 0 1 0")}, r0=0.5)
        with pytest.raises(ConfigError):
            init_scenario(cfg)

    def test_degenerate_flux(self):
        cfg = scenario(profiles={"rho": Profile.parse("bump 0.5 1.5 1.0")}, r0=0.5)
        with pytest.raises(ConfigError):
            init_scenario(cfg)

    def test_cylinder_fields_present(self):
        cfg = scenario(geometry=Geometry.CYLINDER3D,
                       profiles={"rho": Profile.parse("constant 1.0"),
                                 "v": Profile.parse("bump 0.2 0.8 0.5"),
                                 "w": Profile.parse("constant 0.1")})
        state, _ = init_scenario(cfg)
        assert state.v is not None and state.w is not None
        assert state.v[0] == 0.0 and state.v[-1] == 0.0 and state.w[-1] == 0.0

    @given(amp=st.floats(0.1, 2.0), r_lo=st.floats(0.05, 0.3),
           width=st.floats(0.1, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_invariants_always_hold(self, amp, r_lo, width):
        profiles = {"rho": Profile.parse("constant 1.0"),
                    "u": Profile(kind="bump", params=(r_lo, r_lo + width, amp)),
                    "p": Profile.parse("constant 0.2"),
                    "b": Profile(kind="bump", params=(r_lo, r_lo + width, amp))}
        state, _ = init_scenario(scenario(profiles=profiles))
        state.validate(Geometry.DISK2D)  # raises on violation
        assert state.u[0] == 0.0 and state.B[0] == 0.0 and state.u[-1] == 0.0


class TestPhysParams:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(ConfigError):
            PhysParams(mu=1.0, lam=0.0, gamma=0.9, geometry=Geometry.DISK2D)

    def test_viscosity_restriction_2d(self):
        with pytest.raises(ConfigError):
            PhysParams(mu=1.0, lam=-1.5, gamma=1.4, geometry=Geometry.DISK2D)
        PhysParams(mu=1.0, lam=-1.0, gamma=1.4, geometry=Geometry.DISK2D)

    def test_viscosity_restriction_3d(self):
        with pytest.raises(ConfigError):
            PhysParams(mu=1.0, lam=-0.7, gamma=1.4, geometry=Geometry.CYLINDER3D)
        PhysParams(mu=1.0, lam=-0.6, gamma=1.4, geometry=Geometry.CYLINDER3D)
