"""Grid, quadrature, profile, and scenario-construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdlab import (ConfigError, FluidState, Geometry, PhysParams, Profile,
                    ScenarioConfig, Weight, init_scenario, integrate, integrate_to,
                    make_grid)


def disk_params(mu=1.0, lam=0.0, gamma=1.4):
    return PhysParams(mu=mu, lam=lam, gamma=gamma, geometry=Geometry.DISK2D)


class TestMakeGrid:
    def test_uniform_nodes(self):
        g = make_grid(4, 1.0)
        assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_spacing(self):
        g = make_grid(8, 2.0)
        assert g.dr == 0.25

    def test_trapezoid_weights(self):
        g = make_grid(4, 1.0)
        assert np.allclose(g.quad_weights, [0.125, 0.25, 0.25, 0.25, 0.125])

    @pytest.mark.parametrize("n,r", [(0, 1.0), (-3, 1.0), (8, 0.0), (8, -2.0),
                                     (1, 1.0)])
    def test_bad_arguments(self, n, r):
        with pytest.raises(ConfigError):
            make_grid(n, r)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 5000),
           r=st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False))
    def test_nodes_are_linspace_bits(self, n, r):
        from mhdlab.core import uniform_nodes
        want = np.linspace(0.0, r, n + 1).tobytes()
        assert uniform_nodes(n, r).tobytes() == want
        assert make_grid(n, r).nodes.tobytes() == want


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
        for arr in (*g.lap_rows, g.nodes, g.quad_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_rescaled_free_grid_has_own_rows(self):
        g0 = make_grid(32, 1.0)
        g1 = make_grid(32, 1.1)
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
    base = dict(n=128, r_outer=1.0, phys=phys, profiles={}, t_end=1.0)
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
        assert np.all(np.isfinite(state.y)) and state.v is None
        assert np.all(state.rho >= 0.0) and np.all(state.P >= 0.0)
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


DISK_ROWS = ("rho", "u", "P", "B")
CYLINDER_ROWS = ("rho", "u", "v", "w", "P", "B")


def random_fields(names, n1=17, seed=3):
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(n1) for name in names}


def pin_per_field(fields, wall):
    """The per-field pin the stacked one replaces, as the oracle."""
    fields["u"][0] = 0.0
    fields["B"][0] = 0.0
    if "v" in fields:
        fields["v"][0] = 0.0
    if wall:
        fields["u"][-1] = 0.0
        if "v" in fields:
            fields["v"][-1] = 0.0
            fields["w"][-1] = 0.0


class TestStackedState:
    """Every field of a FluidState is a row of one (F, N+1) array."""

    @pytest.mark.parametrize("names", [DISK_ROWS, CYLINDER_ROWS])
    def test_fields_are_rows_in_kernel_order(self, names):
        fields = random_fields(names)
        state = FluidState(**fields)
        assert state.y.shape == (len(names), 17)
        assert [name for name, _ in state.fields()] == list(names)
        for i, name in enumerate(names):
            row = getattr(state, name)
            assert row.base is state.y
            assert np.array_equal(row, fields[name])
            state.y[i, 4] = 100.0 + i
            assert row[4] == 100.0 + i
        assert np.array_equal(state.y[1:-2, 4], 101.0 + np.arange(len(names) - 3))
        if names is DISK_ROWS:
            assert state.v is None and state.w is None

    @pytest.mark.parametrize("names", [DISK_ROWS, CYLINDER_ROWS])
    def test_keyword_constructor_copies(self, names):
        fields = random_fields(names)
        state = FluidState(**fields)
        for arr in fields.values():
            arr[:] = np.nan
        assert np.isfinite(state.y).all()

    def test_of_wraps_without_copy(self):
        y = np.zeros((6, 9))
        state = FluidState.of(y, 0.5)
        assert state.y is y and state.t == 0.5
        assert state.w.base is y

    def test_v_without_w_is_rejected(self):
        fields = random_fields(DISK_ROWS)
        with pytest.raises(ConfigError):
            FluidState(v=np.zeros(17), **fields)

    @pytest.mark.parametrize("names", [DISK_ROWS, CYLINDER_ROWS])
    def test_freeze_makes_every_field_read_only(self, names):
        state = FluidState(**random_fields(names))
        assert not state.read_only
        state.freeze()
        assert state.read_only
        for name, arr in state.fields():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[2] = 1.0
        assert state.copy().y.flags.writeable

    def test_view_of_a_writable_array_is_not_read_only(self):
        base = np.zeros((4, 9))
        state = FluidState.of(base[:, :], 0.0)
        state.freeze()
        assert not state.read_only

    @pytest.mark.parametrize("wall", [True, False])
    @pytest.mark.parametrize("names", [DISK_ROWS, CYLINDER_ROWS])
    def test_pin_matches_per_field_pin(self, names, wall):
        fields = random_fields(names, seed=11)
        state = FluidState(**fields)
        pin_per_field(fields, wall)
        state.pin(wall)
        for name, arr in state.fields():
            assert np.array_equal(arr, fields[name]), name

    def test_assigning_a_field_gives_a_new_array(self):
        state = FluidState(**random_fields(CYLINDER_ROWS))
        state.freeze()
        old = state.y
        state.w = np.ones(17)
        assert state.y is not old and state.y.flags.writeable
        assert np.array_equal(state.w, np.ones(17))
        assert np.array_equal(state.y[:3], old[:3])
        assert np.array_equal(state.y[4:], old[4:])

    def test_disk_state_has_no_swirl_row_to_assign(self):
        state = FluidState(**random_fields(DISK_ROWS))
        with pytest.raises(ValueError):
            state.v = np.zeros(17)
