"""Shared radial operators on exact polynomials, and backend agreement: the
compiled kernels must reproduce the NumPy fallback."""

import numpy as np
import pytest

from mhdlab._kernels import get_backend

pure = get_backend("pure")
try:
    compiled = get_backend("cython")
except ImportError:
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

    def test_gradient_and_over_r(self):
        n = 100
        rng = np.random.default_rng(11)
        r = np.linspace(0.0, 2.0, n + 1)
        f = rng.standard_normal(n + 1)
        np.testing.assert_allclose(pure.gradient(f, 0.02),
                                   compiled.gradient(f, 0.02), rtol=1e-13)
        np.testing.assert_allclose(pure.over_r(f, r, 1.23),
                                   compiled.over_r(f, r, 1.23), rtol=1e-13)

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
        with pytest.raises(ZeroDivisionError):
            compiled.thomas(np.array([0.0]), np.array([0.0, 1.0]),
                            np.array([0.0]), np.array([1.0, 1.0]))


class TestPureThomas:
    def test_singular_raises_unified_error(self):
        with pytest.raises(ZeroDivisionError):
            pure.thomas(np.array([0.0]), np.array([0.0, 1.0]),
                        np.array([0.0]), np.array([1.0, 1.0]))


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
        lin = pure.vector_laplacian(self.r.copy(), self.r, self.dr)
        np.testing.assert_allclose(lin, 0.0, rtol=0, atol=1e-9)
        quad = pure.vector_laplacian(self.r ** 2, self.r, self.dr)
        np.testing.assert_allclose(quad[1:-1], 3.0, rtol=1e-9)
        assert quad[0] == 0.0 and quad[-1] == 0.0

    def test_axial_laplacian(self):
        quad = pure.axial_laplacian(self.r ** 2, self.r, self.dr)
        np.testing.assert_allclose(quad[:-1], 4.0, rtol=1e-9)
        assert quad[-1] == 0.0

    def test_mass_tendency_telescopes(self):
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.5, 2.0, self.n + 1)
        vel = rng.standard_normal(self.n + 1)
        no_band = np.zeros(self.n)
        drho = pure.mass_tendency(self.r, self.dr, rho, vel, no_band, no_band)
        mom = rho * vel
        r_face = 0.5 * (self.r[:-1] + self.r[1:])
        G = r_face * 0.5 * (mom[:-1] + mom[1:])
        vol = self.r * self.dr
        total = np.sum(vol[1:-1] * drho[1:-1])
        assert total == pytest.approx(-(G[-1] - G[0]), rel=1e-12, abs=1e-14)
