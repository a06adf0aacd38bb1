"""Shared radial operators on exact polynomials, and backend agreement: the
compiled kernels must reproduce the NumPy fallback."""

import importlib

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mhdlab._kernels import pure
from mhdlab.core import make_grid

# the compiled kernels when built, by `_kernels`' own rule: only a missing
# `_core` means "not built"; an extension that fails to load raises
try:
    compiled = importlib.import_module("mhdlab._kernels._core")
except ModuleNotFoundError as exc:
    if exc.name != "mhdlab._kernels._core":
        raise
    compiled = None

needs_ext = pytest.mark.skipif(compiled is None,
                               reason="compiled extension not built")


def random_fields(n, seed, vac=False):
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, n + 1)
    rho = rng.uniform(0.5, 2.0, n + 1)
    if vac:
        rho[: n // 3] = 0.0
        rho[n // 3: n // 2] *= 1e-8
    u = rng.standard_normal(n + 1) * 0.3
    u[0] = u[-1] = 0.0
    P = rng.uniform(0.0, 1.0, n + 1)
    B = rng.standard_normal(n + 1) * 0.5
    B[0] = 0.0
    rho_star = np.maximum(rho, 1e-6)
    lf = np.zeros(n)
    lf[n // 2: n // 2 + 8] = 1e-3
    up = np.zeros(n, dtype=np.uint8)
    up[: n // 3 + 1] = 1
    return r, rho, u, P, B, rho_star, lf, up


@needs_ext
class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("vac", [False, True])
    def test_disk_tendency(self, seed, vac):
        n = 257
        r, rho, u, P, B, rho_star, lf, up = random_fields(n, seed, vac)
        dr = 1.0 / n
        a = pure.disk_tendency(r, dr, rho, u, P, B, rho_star, 0.7, 1.4, True,
                               lf, up)
        b = compiled.disk_tendency(r, dr, rho, u, P, B, rho_star, 0.7, 1.4,
                                   True, lf, up)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cylinder_tendency(self, seed):
        n = 193
        r, rho, u, P, B, rho_star, lf, up = random_fields(n, seed)
        rng = np.random.default_rng(seed + 100)
        v = rng.standard_normal(n + 1) * 0.2
        v[0] = v[-1] = 0.0
        w = rng.standard_normal(n + 1) * 0.2
        w[-1] = 0.0
        dr = 1.0 / n
        a = pure.cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star,
                                   0.7, 0.3, 1.4, True, lf, up)
        b = compiled.cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star,
                                       0.7, 0.3, 1.4, True, lf, up)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("include_visc", [True, False])
    @pytest.mark.parametrize("vac", [False, True])
    def test_pressureless(self, vac, include_visc):
        # P = +0 at every node: the NumPy kernels skip the pressure terms,
        # the twin computes them in full
        n = 257
        r, rho, u, _, B, rho_star, lf, up = random_fields(n, 5, vac)
        P = np.zeros(n + 1)
        v, w = swirl_fields(n, 5)
        dr = 1.0 / n
        pairs = ((pure.disk_tendency, compiled.disk_tendency,
                  (r, dr, rho, u, P, B, rho_star, 0.7, 1.4, include_visc, lf,
                   up)),
                 (pure.cylinder_tendency, compiled.cylinder_tendency,
                  (r, dr, rho, u, v, w, P, B, rho_star, 0.7, 0.3, 1.4,
                   include_visc, lf, up)))
        for numpy_kernel, twin, args in pairs:
            for x, y in zip(numpy_kernel(*args), twin(*args)):
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("include_visc", [True, False])
    def test_no_face_controls(self, include_visc):
        # None, given or left to the default: the twin fills in zeros, the
        # NumPy kernels skip the band and the donor flux
        n = 257
        r, rho, u, P, B, rho_star, _, _ = random_fields(n, 6)
        v, w = swirl_fields(n, 6)
        dr = 1.0 / n
        for name, args in (
                ("disk_tendency", (r, dr, rho, u, P, B, rho_star, 0.7, 1.4,
                                   include_visc)),
                ("cylinder_tendency", (r, dr, rho, u, v, w, P, B, rho_star,
                                       0.7, 0.3, 1.4, include_visc))):
            want = getattr(pure, name)(*args)
            for controls in ((), (None, None)):
                got = getattr(compiled, name)(*args, *controls)
                for x, y in zip(want, got):
                    np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    def test_thomas_matches_banded_solver(self, n):
        rng = np.random.default_rng(n)
        sub = rng.standard_normal(max(n - 1, 1))[: n - 1]
        sup = rng.standard_normal(max(n - 1, 1))[: n - 1]
        diag = rng.uniform(4.0, 6.0, n)      # diagonally dominant
        rhs = rng.standard_normal(n)
        x_pure = pure.thomas(sub, diag, sup, rhs)
        x_cy = compiled.thomas(sub, diag, sup, rhs)
        np.testing.assert_allclose(x_cy, x_pure, rtol=1e-10, atol=1e-12)
        # residual check against the assembled matrix
        A = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        np.testing.assert_allclose(A @ x_cy, rhs, rtol=1e-9, atol=1e-10)

    def test_thomas_singular_raises(self):
        for thomas in (pure.thomas, compiled.thomas):
            with pytest.raises(ZeroDivisionError):
                thomas(np.array([0.0]), np.array([0.0, 1.0]),
                       np.array([0.0]), np.array([1.0, 1.0]))
            with pytest.raises(ZeroDivisionError):
                thomas(np.empty(0), np.array([0.0]), np.empty(0),
                       np.array([1.0]))


class TestAllPlusZero:
    """The pressureless test of the NumPy kernels and the solver: +0.0 at
    every entry, and nothing else."""

    def test_plus_zeros(self):
        y = np.zeros((4, 65))
        y.flags.writeable = False
        assert pure.all_plus_zero(y[-2])
        assert pure.all_plus_zero(np.zeros(3))

    @pytest.mark.parametrize("node", [0, 31, 64])
    @pytest.mark.parametrize("value", [-0.0, 5e-324, np.nan, 1.0, -1e-300])
    def test_refuses(self, node, value):
        f = np.zeros(65)
        f[node] = value
        assert not pure.all_plus_zero(f)


class TestRhoStarIsRho:
    """A stage without vacuum hands the kernels its rho row as rho* (the
    same array): the selected backend gives the rates of a separate copy,
    on a writable state and on a frozen one."""

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_disk_and_cylinder(self, seed, read_only):
        import mhdlab._kernels as kern
        from mhdlab._kernels.pure import operand
        n = 129
        r, rho, u, P, B, _, _, _ = random_fields(n, seed)
        rng = np.random.default_rng(seed + 100)
        v, w = 0.2 * rng.standard_normal((2, n + 1))
        v[0] = v[-1] = w[-1] = 0.0
        disk, cyl = np.array([rho, u, P, B]), np.array([rho, u, v, w, P, B])
        if read_only:
            disk.flags.writeable = cyl.flags.writeable = False
        dr = 1.0 / n
        coeffs = operand(0.7), operand(0.3), operand(1.4)
        two_mu_lam, mu, gamma = coeffs

        def rates(tendency, y, rho_star, c):
            out = tendency(r, dr, *y, rho_star, *c, True)
            return np.asarray(out).tobytes()

        kept = disk.tobytes(), cyl.tobytes()
        for y, tendency, c in ((disk, kern.disk_tendency, (two_mu_lam, gamma)),
                               (cyl, kern.cylinder_tendency, coeffs)):
            assert rates(tendency, y, y[0], c) == rates(tendency, y, y[0].copy(), c)
        assert (disk.tobytes(), cyl.tobytes()) == kept


def banded(sub, diag, sup, rhs):
    """The same system through scipy.linalg.solve_banded((1, 1), ...)."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = sup
    ab[1, :] = diag
    ab[2, :-1] = sub
    return solve_banded((1, 1), ab, rhs)


class TestPureThomas:
    """The NumPy backend's direct LAPACK solve against SciPy's banded solver."""

    def test_singular_raises_unified_error(self):
        with pytest.raises(ZeroDivisionError):
            pure.thomas(np.array([0.0]), np.array([0.0, 1.0]),
                        np.array([0.0]), np.array([1.0, 1.0]))
        # a one-row system, divided out, as gtsv refuses it; with a zero
        # right-hand side too, where the division would give nan
        for rhs in (1.0, 0.0):
            with pytest.raises(ZeroDivisionError, match="zero pivot at row 1"):
                pure.thomas(np.empty(0), np.array([0.0]), np.empty(0),
                            np.array([rhs]))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_solve_banded(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        sub = rng.standard_normal(n - 1)
        sup = rng.standard_normal(n - 1)
        diag = rng.uniform(4.0, 6.0, n) * rng.choice([-1.0, 1.0], n)
        rhs = rng.standard_normal(n)
        x = pure.thomas(sub, diag, sup, rhs)
        np.testing.assert_array_equal(x, banded(sub, diag, sup, rhs))

    def test_balance_rows_bitwise(self):
        # the vacuum-balance system: vector-Laplacian rows 1..m-1 of a grid
        g = make_grid(256, 1.0)
        sub, sup, swirl, _ = g.lap_rows
        m = 120
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(m - 1)
        args = (sub[2:m], swirl[1:m], sup[1:m - 1], rhs)
        np.testing.assert_array_equal(pure.thomas(*args), banded(*args))

    @pytest.mark.parametrize("lo", [0, 40])
    def test_viscous_rows_bitwise(self, lo):
        # theta-scheme matrices 1 - dt theta nu L, axial rows from the axis
        g = make_grid(256, 1.0)
        sub, sup, swirl, axial = g.lap_rows
        diag = axial if lo == 0 else swirl
        rows = slice(lo, 256)
        rng = np.random.default_rng(lo)
        coeff = 1e-4 * rng.uniform(0.5, 2.0, 256 - lo)
        a = -coeff * sub[rows]
        b = 1.0 - coeff * diag[rows]
        c = -coeff * sup[rows]
        rhs = rng.standard_normal(256 - lo)
        args = (a[1:], b, c[:-1], rhs)
        np.testing.assert_array_equal(pure.thomas(*args), banded(*args))

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_solved(self, which, bad):
        # no scan: the solver checks the systems it builds (`_solved`); an
        # infinite entry may well give a finite solution
        args = [np.full(4, 0.5), np.full(5, 4.0), np.full(4, 0.5), np.ones(5)]
        args[which][2] = bad
        assert pure.thomas(*args).shape == (5,)

    def test_non_finite_one_by_one_is_solved(self):
        x = pure.thomas(np.empty(0), np.array([2.0]), np.empty(0),
                        np.array([np.nan]))
        assert x.shape == (1,) and np.isnan(x[0])


def laplacians(f, r, dr):
    """(vector, axial) Laplacians of f as the NumPy kernel computes them: the
    v and w rows of the cylinder tendency with rho = rho* = 1, u = P = B = 0
    and mu = 1, where each row is the Laplacian alone."""
    one, zero = np.ones_like(f), np.zeros_like(f)
    rates = pure.cylinder_tendency(r, dr, one, zero, f, f, zero, zero, one,
                                   1.0, 1.0, 1.4, True)
    return rates[2], rates[3]


def mass_rates(r, dr, rho, vel, lf_fc, up_fc):
    """The mass row of the NumPy disk kernel with vel as the velocity."""
    zero = np.zeros_like(rho)
    return pure.disk_tendency(r, dr, rho, vel, zero, zero, rho, 1.0, 1.4,
                              False, lf_fc, up_fc)[0]


class TestRadialOperators:
    """The stencils are exact on low-degree polynomials (NumPy backend)."""

    n = 64
    r = np.linspace(0.0, 1.0, n + 1)
    dr = 1.0 / n

    def test_radial_parts_of_r(self):
        f_r, f_over_r = pure.radial_parts(self.r.copy(), self.r, self.dr)
        np.testing.assert_allclose(f_r, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f_over_r, 1.0, rtol=0, atol=1e-12)

    def test_radial_parts_of_r_squared(self):
        f_r, f_over_r = pure.radial_parts(self.r ** 2, self.r, self.dr)
        # every stencil, the pinned axis one included, is exact on quadratics
        np.testing.assert_allclose(f_r, 2.0 * self.r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f_over_r, self.r, rtol=0, atol=1e-12)

    def test_vector_laplacian(self):
        lin, _ = laplacians(self.r.copy(), self.r, self.dr)
        np.testing.assert_allclose(lin, 0.0, rtol=0, atol=1e-9)
        quad, _ = laplacians(self.r ** 2, self.r, self.dr)
        np.testing.assert_allclose(quad[1:-1], 3.0, rtol=1e-9)
        assert quad[0] == 0.0 and quad[-1] == 0.0

    def test_axial_laplacian(self):
        _, quad = laplacians(self.r ** 2, self.r, self.dr)
        np.testing.assert_allclose(quad[:-1], 4.0, rtol=1e-9)
        assert quad[-1] == 0.0

    def test_mass_tendency_telescopes(self):
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.5, 2.0, self.n + 1)
        vel = rng.standard_normal(self.n + 1)
        no_band = np.zeros(self.n)
        drho = mass_rates(self.r, self.dr, rho, vel, no_band, no_band)
        mom = rho * vel
        r_face = 0.5 * (self.r[:-1] + self.r[1:])
        G = r_face * 0.5 * (mom[:-1] + mom[1:])
        vol = self.r * self.dr
        total = np.sum(vol[1:-1] * drho[1:-1])
        assert total == pytest.approx(-(G[-1] - G[0]), rel=1e-12, abs=1e-14)


class TestViscousRows:
    """The viscous operators are the grid's stencil rows applied by
    `pure.apply_rows`: the kernels' viscous terms are that evaluation of the
    rows the implicit solve builds its matrix from, bit for bit."""

    N, M = 64, 20
    eps = np.finfo(float).eps

    def rows_part(self, f, g, lo, swirl):
        """L f on rows lo..N-1: `apply_rows` on the grid's `lap_rows`."""
        sub, sup, swirl_diag, axial_diag = g.lap_rows
        diag = swirl_diag if swirl else axial_diag
        rows = slice(lo, self.N)
        out = np.empty(self.N - lo)
        return pure.apply_rows(diag[rows], sub[rows], sup[rows], f, lo,
                               self.N - 1, out, np.empty_like(out))

    @pytest.mark.parametrize("lo", [1, M + 1])
    def test_disk_u(self, lo):
        g = make_grid(self.N, 1.5)
        u = np.random.default_rng(5).standard_normal(self.N + 1)
        u[0] = u[-1] = 0.0
        one, zero = np.ones_like(u), np.zeros_like(u)

        def du(include_visc):
            return pure.disk_tendency(g.nodes, g.dr, one, u, zero, zero, one,
                                      1.0, 1.4, include_visc)[1]

        # with rho = rho* = 1, P = B = 0 and 2mu+lam = 1 the viscous term
        # is the last sum into du
        want = du(False)
        want[lo:-1] += self.rows_part(u, g, lo, True)
        assert np.array_equal(du(True)[lo:-1], want[lo:-1])

    @pytest.mark.parametrize("lo", [0, 1, M + 1])
    def test_cylinder_v_and_w(self, lo):
        g = make_grid(self.N, 1.5)
        v, w = swirl_fields(self.N, 9)
        # with u = 0, rho = rho* = 1 and mu = 1 the v and w rows are the
        # viscous terms alone; w's rows include the axis
        vector = laplacians(v, g.nodes, g.dr)[0]
        axial = laplacians(w, g.nodes, g.dr)[1]
        if lo > 0:
            assert np.array_equal(
                vector[lo:-1], self.rows_part(v, g, lo, True))
        assert np.array_equal(
            axial[lo:-1], self.rows_part(w, g, lo, False))

    def assert_round_off(self, rows, lo, f, exact):
        """apply_rows(rows, f) on nodes lo..N-1 against exact, within a few
        roundings of the terms it sums (the rows' own rounding included)."""
        hi = self.N - 1
        diag, sub, sup = (a[lo:hi + 1] for a in rows)
        got = pure.apply_rows(diag, sub, sup, f, lo, hi, np.empty_like(diag),
                              np.empty_like(diag))
        # the axis row's sub is 0, so any left neighbour serves there
        left = f[lo - 1:hi] if lo else np.concatenate(([0.0], f[:hi]))
        scale = (np.abs(diag * f[lo:hi + 1]) + np.abs(sub * left)
                 + np.abs(sup * f[lo + 1:hi + 2]))
        assert np.all(np.abs(got - exact[lo:hi + 1]) <= 8.0 * self.eps * scale)

    def test_swirl_operator_on_polynomials(self):
        g = make_grid(self.N, 1.5)
        r, dr = g.nodes, g.dr
        sub, sup, swirl, _ = g.lap_rows
        rows = (swirl, sub, sup)
        self.assert_round_off(rows, 1, r.copy(), np.zeros_like(r))
        self.assert_round_off(rows, 1, r ** 2, np.full_like(r, 3.0))
        # (r^3)_r's central difference is 3 r^2 + dr^2, hence dr^2 / r
        exact = 8.0 * r
        exact[1:] += dr * dr / r[1:]
        self.assert_round_off(rows, 1, r ** 3, exact)

    def test_axial_operator_on_polynomials(self):
        g = make_grid(self.N, 1.5)
        r = g.nodes
        sub, sup, _, axial = g.lap_rows
        rows = (axial, sub, sup)
        self.assert_round_off(rows, 0, np.full_like(r, 0.7), np.zeros_like(r))
        # 2 f_rr(0) = 4 at the axis, f_rr + f_r / r = 4 elsewhere
        self.assert_round_off(rows, 0, r ** 2, np.full_like(r, 4.0))

    def test_kernel_rows_built_once_and_only_when_viscous(self, monkeypatch):
        built = []

        def counting(r, dr):
            built.append(r)
            return laplacian_rows(r, dr)

        laplacian_rows = pure.laplacian_rows
        monkeypatch.setattr(pure, "laplacian_rows", counting)
        g = make_grid(self.N, 2.5)
        _, rho, u, P, B, rho_star, _, _ = random_fields(self.N, 4)
        v, w = swirl_fields(self.N, 4)

        def cylinder(nodes, include_visc):
            pure.cylinder_tendency(nodes, g.dr, rho, u, v, w, P, B, rho_star,
                                   0.7, 0.3, 1.4, include_visc)

        for include_visc in (False, False, True, True, False, True):
            cylinder(g.nodes, include_visc)
        assert len(built) == 1 and built[0] is g.nodes
        # writable nodes may change between calls: rows on each viscous one
        writable = g.nodes.copy()
        for include_visc in (True, False, True):
            cylinder(writable, include_visc)
        assert len(built) == 3


# ---------------------------------------------------------------------------
# Reference kernels: the straightforward full-length NumPy forms the lean
# kernels in pure.py must reproduce value for value.
# ---------------------------------------------------------------------------

def ref_gradient(f, dr):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dr)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dr)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dr)
    return out


def ref_radial_parts(f, r, dr):
    f_r = ref_gradient(f, dr)
    f_r[0] = (4.0 * f[1] - f[2]) / (2.0 * dr)
    f_over_r = np.empty_like(f)
    f_over_r[1:] = f[1:] / r[1:]
    f_over_r[0] = f_r[0]
    return f_r, f_over_r


# The viscous operators are defined by their stencil rows
# (`pure.laplacian_rows`): row i is diag[i] f[i] + sub[i] f[i-1]
# + sup[i] f[i+1], summed in that order, and the axis row has no sub term.

def ref_vector_laplacian(f, r, dr):
    sub, sup, swirl, _ = pure.laplacian_rows(r, dr)
    out = np.zeros_like(f)
    out[1:-1] = (swirl[1:-1] * f[1:-1] + sub[1:-1] * f[:-2]
                 + sup[1:-1] * f[2:])
    return out


def ref_axial_laplacian(f, r, dr):
    sub, sup, _, axial = pure.laplacian_rows(r, dr)
    out = np.zeros_like(f)
    out[1:-1] = (axial[1:-1] * f[1:-1] + sub[1:-1] * f[:-2]
                 + sup[1:-1] * f[2:])
    out[0] = axial[0] * f[0] + sup[0] * f[1]
    return out


def ref_mass_tendency(r, dr, rho, vel, lf_fc, up_fc):
    mom = rho * vel
    fv = 0.5 * (mom[:-1] + mom[1:])
    up = up_fc != 0
    if np.any(up):
        vbar = 0.5 * (vel[:-1] + vel[1:])
        donor = np.where(vbar >= 0.0, rho[:-1], rho[1:]) * vbar
        fv = np.where(up, donor, fv)
    r_face = 0.5 * (r[:-1] + r[1:])
    G = r_face * fv - lf_fc * r_face * (rho[1:] - rho[:-1])
    drho = np.empty_like(rho)
    drho[1:-1] = -(G[1:] - G[:-1]) / (r[1:-1] * dr)
    mom_r0 = (-3.0 * mom[0] + 4.0 * mom[1] - mom[2]) / (2.0 * dr)
    drho[0] = -2.0 * mom_r0
    mom_rn = (3.0 * mom[-1] - 4.0 * mom[-2] + mom[-3]) / (2.0 * dr)
    drho[-1] = -(mom_rn + mom[-1] / r[-1])
    return drho


def ref_induction_tendency(dr, vel, B, lf_fc):
    vb = vel * B
    H = 0.5 * (vb[:-1] + vb[1:]) - lf_fc * (B[1:] - B[:-1])
    dB = np.empty_like(B)
    dB[1:-1] = -(H[1:] - H[:-1]) / dr
    dB[0] = 0.0
    dB[-1] = -(3.0 * vb[-1] - 4.0 * vb[-2] + vb[-3]) / (2.0 * dr)
    return dB


def ref_disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                      include_visc, lf_fc=None, up_fc=None, transport=None):
    # None is the zeros of no face control
    if lf_fc is None:
        lf_fc = np.zeros(len(r) - 1)
    if up_fc is None:
        up_fc = np.zeros(len(r) - 1, dtype=np.uint8)
    vel = u if transport is None else transport
    ur, u_over_r = ref_radial_parts(u, r, dr)
    vel_r, vel_over_r = ref_radial_parts(vel, r, dr)
    Br, B_over_r = ref_radial_parts(B, r, dr)
    Pr = ref_gradient(P, dr)
    visc = ref_vector_laplacian(u, r, dr) if include_visc else np.zeros_like(u)
    du = (-rho * vel * ur - Pr + two_mu_lam * visc
          - B * (Br + B_over_r)) / rho_star
    du[0] = 0.0
    du[-1] = 0.0
    dP = -vel * Pr - gamma * P * (vel_r + vel_over_r)
    if np.any(lf_fc != 0.0):
        flux = -(lf_fc * (P[1:] - P[:-1]))
        widths = np.full(len(r), dr)
        widths[0] = widths[-1] = 0.5 * dr
        diff = np.empty(len(r))
        diff[0] = -(flux[0] - 0.0) / widths[0]
        diff[1:-1] = -(flux[1:] - flux[:-1]) / widths[1:-1]
        diff[-1] = -(0.0 - flux[-1]) / widths[-1]
        dP += diff
    return (ref_mass_tendency(r, dr, rho, vel, lf_fc, up_fc), du, dP,
            ref_induction_tendency(dr, vel, B, lf_fc))


def ref_cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star, two_mu_lam, mu,
                          gamma, include_visc, lf_fc=None, up_fc=None):
    drho, du, dP, dB = ref_disk_tendency(r, dr, rho, u, P, B, rho_star,
                                         two_mu_lam, gamma, include_visc,
                                         lf_fc, up_fc)
    centrif = np.zeros_like(u)
    centrif[1:] = rho[1:] * v[1:] * v[1:] / r[1:]
    du += centrif / rho_star
    du[0] = 0.0
    du[-1] = 0.0
    vr, v_over_r = ref_radial_parts(v, r, dr)
    visc_v = ref_vector_laplacian(v, r, dr) if include_visc else np.zeros_like(v)
    dv = (-rho * (u * vr + u * v_over_r) + mu * visc_v) / rho_star
    dv[0] = 0.0
    dv[-1] = 0.0
    visc_w = ref_axial_laplacian(w, r, dr) if include_visc else np.zeros_like(w)
    dw = (-rho * u * ref_gradient(w, dr) + mu * visc_w) / rho_star
    dw[-1] = 0.0
    return drho, du, dv, dw, dP, dB


def run_kernel_inputs(preset, kernel, every=4):
    """The arguments of every `every`-th tendency call of a preset run at
    N=64 (the r passed is the grid's read-only nodes)."""
    import dataclasses

    import mhdlab._kernels as kern
    from mhdlab.config import load_preset
    from mhdlab.harness import run

    calls = []
    real = getattr(kern, kernel)

    def recording(*args):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) and i else a
                           for i, a in enumerate(args)))
        return real(*args)

    mp = pytest.MonkeyPatch()
    mp.setattr(kern, kernel, recording)
    try:
        run(dataclasses.replace(load_preset(preset), n=64))
    finally:
        mp.undo()
    assert len(calls) > 20
    assert not calls[0][0].flags.writeable
    return calls[::every]


@pytest.fixture(scope="module")
def disk_inputs():
    return run_kernel_inputs("disk-blowup", "disk_tendency")


@pytest.fixture(scope="module")
def cylinder_inputs():
    return run_kernel_inputs("cylinder-blowup", "cylinder_tendency")


def lf_variants(lf_fc):
    """The run's own band, a band on face 0, one on the last face, none."""
    n = len(lf_fc)
    ramp = 1e-3 * (1.0 + np.arange(6))
    first = np.zeros(n)
    first[:6] = ramp
    last = np.zeros(n)
    last[-6:] = ramp
    return {"run": lf_fc, "face0": first, "last": last, "none": np.zeros(n)}


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestLeanKernelsMatchReference:
    """The NumPy kernels against the full-length reference forms, on states
    of blow-up runs at N=64: every combination of viscous term, vacuum,
    Lax-Friedrichs band placement and node-array writability."""

    @pytest.mark.parametrize("vacuum", [True, False])
    @pytest.mark.parametrize("writable_r", [False, True])
    @pytest.mark.parametrize("include_visc", [True, False])
    def test_disk_tendency(self, disk_inputs, include_visc, writable_r, vacuum):
        interior = 0
        for (r, dr, rho, u, P, B, rho_star, tml, gamma, _, lf,
             up) in disk_inputs:
            if writable_r:
                r = r.copy()
            if not vacuum:
                rho, up = rho_star, np.zeros_like(up)
            interior += bool(lf.any() and lf[0] == 0.0 and lf[-1] == 0.0)
            for lf_fc in lf_variants(lf).values():
                args = (r, dr, rho, u, P, B, rho_star, tml, gamma,
                        include_visc, lf_fc, up)
                rates = pure.disk_tendency(*args)
                assert_all_equal(rates, ref_disk_tendency(*args))
                assert np.array_equal(
                    rates[0], ref_mass_tendency(r, dr, rho, u, lf_fc, up))
                assert np.array_equal(rates[-1],
                                      ref_induction_tendency(dr, u, B, lf_fc))
        assert interior == len(disk_inputs)     # the run's band is interior

    @pytest.mark.parametrize("writable_r", [False, True])
    @pytest.mark.parametrize("include_visc", [True, False])
    def test_cylinder_tendency(self, cylinder_inputs, include_visc, writable_r):
        for (r, dr, rho, u, v, w, P, B, rho_star, tml, mu, gamma, _, lf,
             up) in cylinder_inputs:
            if writable_r:
                r = r.copy()
            for lf_fc in lf_variants(lf).values():
                args = (r, dr, rho, u, v, w, P, B, rho_star, tml, mu, gamma,
                        include_visc, lf_fc, up)
                assert_all_equal(pure.cylinder_tendency(*args),
                                 ref_cylinder_tendency(*args))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("vac", [False, True])
    def test_random_fields(self, seed, vac):
        n = 257
        r, rho, u, P, B, rho_star, lf, up = random_fields(n, seed, vac)
        rng = np.random.default_rng(seed + 50)
        v = rng.standard_normal(n + 1) * 0.2
        v[0] = v[-1] = 0.0
        w = rng.standard_normal(n + 1) * 0.2
        for include_visc in (True, False):
            for lf_fc in lf_variants(lf).values():
                args = (r, 1.0 / n, rho, u, P, B, rho_star, 0.7, 1.4,
                        include_visc, lf_fc, up)
                assert_all_equal(pure.disk_tendency(*args),
                                 ref_disk_tendency(*args))
                args = (r, 1.0 / n, rho, u, v, w, P, B, rho_star, 0.7, 0.3,
                        1.4, include_visc, lf_fc, up)
                assert_all_equal(pure.cylinder_tendency(*args),
                                 ref_cylinder_tendency(*args))

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("include_visc", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pressureless(self, monkeypatch, seed, include_visc, transport):
        """P = +0 at every node, without face controls and on bands with donor
        flags: the disk (with a transport velocity too) and the cylinder
        give the reference values, and every row but dP the bytes of the
        full path; dP is +0 where the full path gives signed zeros."""
        n = 129
        dr = 1.0 / n
        r, rho, u, _, B, rho_star, lf, up = random_fields(n, seed, vac=True)
        P = np.zeros(n + 1)
        v, w = swirl_fields(n, seed)
        kw = {}
        if transport:
            V = 0.3 * np.random.default_rng(seed + 7).standard_normal(n + 1)
            V[0] = 0.0
            kw["transport"] = V
        controls = [(None, None)]
        controls += [(lf_fc, up) for lf_fc in lf_variants(lf).values()]
        for lf_fc, up_fc in controls:
            cases = [(pure.disk_tendency, ref_disk_tendency,
                      (r, dr, rho, u, P, B, rho_star, 0.7, 1.4, include_visc,
                       lf_fc, up_fc), kw)]
            if not transport:
                cases.append((pure.cylinder_tendency, ref_cylinder_tendency,
                              (r, dr, rho, u, v, w, P, B, rho_star, 0.7, 0.3,
                               1.4, include_visc, lf_fc, up_fc), {}))
            for kernel, reference, args, extra in cases:
                rates = kernel(*args, **extra)
                assert_all_equal(rates, reference(*args, **extra))
                with monkeypatch.context() as m:
                    m.setattr(pure, "all_plus_zero", lambda f: False)
                    full = kernel(*args, **extra)
                assert rates[-2].tobytes() == bytes(rates[-2].nbytes)
                assert np.signbit(full[-2]).any()
                others = [k for k in range(len(rates)) if k != len(rates) - 2]
                assert rates[others].tobytes() == full[others].tobytes()

    def test_laplacians(self, disk_inputs):
        for args in disk_inputs:
            r, dr, u = args[0], args[1], args[3]
            for nodes in (r, r.copy()):
                vector, axial = laplacians(u, nodes, dr)
                assert np.array_equal(vector, ref_vector_laplacian(u, nodes, dr))
                assert np.array_equal(axial, ref_axial_laplacian(u, nodes, dr))


def swirl_fields(n, seed):
    rng = np.random.default_rng(seed + 50)
    v = rng.standard_normal(n + 1) * 0.2
    v[0] = v[-1] = 0.0
    return v, rng.standard_normal(n + 1) * 0.2


class TestNoFaceControls:
    """Face controls of None mean none on any face: the NumPy kernels give
    the bits of writable zero arrays, which they scan (the arrays perfbench's
    kernel_micro passes)."""

    @pytest.mark.parametrize("include_visc", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_none_is_zeros(self, seed, include_visc):
        n = 129
        dr = 1.0 / n
        r, rho, u, P, B, rho_star, _, _ = random_fields(n, seed)
        v, w = swirl_fields(n, seed)
        V = 0.3 * np.random.default_rng(seed + 7).standard_normal(n + 1)
        V[0] = 0.0
        disk = (r, dr, rho, u, P, B, rho_star, 0.7, 1.4, include_visc)
        cases = ((pure.disk_tendency, disk, {}),
                 (pure.disk_tendency, disk, {"transport": V}),
                 (pure.cylinder_tendency, (r, dr, rho, u, v, w, P, B, rho_star,
                                           0.7, 0.3, 1.4, include_visc), {}))
        for kernel, args, kw in cases:
            zeros = np.zeros(n), np.zeros(n, dtype=np.uint8)
            want = kernel(*args, *zeros, **kw).tobytes()
            assert kernel(*args, None, None, **kw).tobytes() == want
            assert kernel(*args, **kw).tobytes() == want


def kernel_cases(n, seed):
    """(kernel, reference, args) for both kernels on random fields at n
    cells: the grid's read-only nodes without face controls, writable nodes
    with a band and donor faces, and read-only nodes with the grid's
    spacing but other values."""
    g = make_grid(n, 1.0)
    r, rho, u, P, B, rho_star, lf, up = random_fields(n, seed, vac=True)
    v, w = swirl_fields(n, seed)
    shifted = g.nodes + 0.5
    shifted.flags.writeable = False
    cases = []
    for nodes, lf_fc, up_fc in ((g.nodes, None, None), (r, lf, up),
                                (shifted, lf, up)):
        cases.append((pure.disk_tendency, ref_disk_tendency,
                      (nodes, g.dr, rho, u, P, B, rho_star, 0.7, 1.4, True,
                       lf_fc, up_fc)))
        cases.append((pure.cylinder_tendency, ref_cylinder_tendency,
                      (nodes, g.dr, rho, u, v, w, P, B, rho_star, 0.7, 0.3,
                       1.4, False, lf_fc, up_fc)))
    return cases


class TestWorkspace:
    """The NumPy kernels compute in a per-thread workspace of scratch arrays
    keyed by node count: what they return is theirs alone, and no call
    sees another's scratch."""

    def test_returned_rates_stay_unchanged(self, disk_inputs, cylinder_inputs):
        first = pure.disk_tendency(*disk_inputs[0])
        second = pure.cylinder_tendency(*cylinder_inputs[0])
        kept = first.tobytes(), second.tobytes()
        for d_args, c_args in zip(disk_inputs[1:6], cylinder_inputs[1:6]):
            pure.disk_tendency(*d_args)
            pure.cylinder_tendency(*c_args)
        assert (first.tobytes(), second.tobytes()) == kept
        assert not np.shares_memory(first, second)

    def test_interleaved_sizes_match_reference(self):
        cases = {n: kernel_cases(n, n) for n in (64, 256, 1024)}
        for _ in range(2):
            for n in (64, 1024, 256):
                for kernel, reference, args in cases[n]:
                    assert_all_equal(kernel(*args), reference(*args))

    def test_successive_grids_of_a_free_run(self, monkeypatch):
        import dataclasses
        import weakref

        import mhdlab._kernels as kern
        from mhdlab.config import load_preset
        from mhdlab.harness import run

        seen = {"calls": 0, "grids": 0, "last": lambda: None}

        def checked(*args):
            # only a weak reference, so each grid dies when the run drops it
            if seen["last"]() is not args[0]:
                seen["grids"] += 1
                seen["last"] = weakref.ref(args[0])
            # the NumPy kernel whatever the backend: only it is held to the
            # reference bit for bit
            rates = pure.disk_tendency(*args)
            assert_all_equal(rates, ref_disk_tendency(*args))
            seen["calls"] += 1
            return rates

        monkeypatch.setattr(kern, "disk_tendency", checked)
        run(dataclasses.replace(load_preset("free-blowup"), n=64))
        assert seen["calls"] > 50 and seen["grids"] > 10

    def test_threads_get_the_reference_bits(self):
        import sys
        import threading

        cases = [kernel_cases(128, seed) for seed in (1, 2)]
        want = [[reference(*args) for _, reference, args in c] for c in cases]
        start = threading.Barrier(2, timeout=60)
        bad = []

        def work(k):
            start.wait()
            for _ in range(60):
                for (kernel, _, args), w in zip(cases[k], want[k]):
                    got = kernel(*args)
                    if not all(np.array_equal(g, x) for g, x in zip(got, w)):
                        bad.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_one_workspace_per_thread_and_size(self, monkeypatch):
        import dataclasses
        import threading

        import mhdlab._kernels as kern
        from mhdlab.config import load_preset
        from mhdlab.harness import run

        # the run steps on the NumPy kernels whatever the backend
        monkeypatch.setattr(kern, "disk_tendency", pure.disk_tendency)
        monkeypatch.setattr(kern, "cylinder_tendency", pure.cylinder_tendency)
        cfg = dataclasses.replace(load_preset("free-blowup"), n=64)
        seen = []

        def work():
            for _ in range(2):
                run(cfg)
                seen.append(dict(pure._workspaces.by_nodes))

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=300)
        assert not t.is_alive()
        # one entry for N+1 nodes, the same across the runs' many grids
        assert [list(spaces) for spaces in seen] == [[65], [65]]
        assert seen[0][65] is seen[1][65]
        assert pure._workspaces.by_nodes.get(65) is not seen[0][65]

    def test_no_grid_is_kept_alive(self):
        import gc
        import weakref

        args = kernel_cases(64, 3)[0][2]
        g = make_grid(64, 1.0)
        pure.disk_tendency(g.nodes, *args[1:])
        nodes = weakref.ref(g.nodes)
        del g
        gc.collect()
        assert nodes() is None
