"""NumPy implementation of the hot per-step kernels.

This is the fallback backend; `_core.pyx` holds the compiled twin. Both
evaluate the same expressions in the same order so results agree to within a
few ulps, and every physics test passes under either backend.

Shared conventions (uniform node grid r[0..N], dr = the grid's spacing):

* central first derivatives in the interior, second-order one-sided at the
  ends; fields pinned to zero at r=0 use (4 f[1] - f[2]) / (2 dr) there
* f/r at the axis is replaced by its limit f_r(0)
* mass and induction updates are finite-volume face-flux differences, so the
  discrete mass integral and the total of B are telescoping-exact when the
  boundary fluxes vanish
* `lf_fc` carries per-face Lax-Friedrichs coefficients (zero where disabled);
  `up_fc` marks faces that switch the mass flux to donor-cell form
* tridiagonal systems are solved by LAPACK gtsv, or gttrf once and gttrs per
  right-hand side, from SciPy's LAPACK extension (see `_lapack`)

The tendencies are built in place, run the Lax-Friedrichs products over the
band's faces only and leave out a viscous term that is switched off. Their
values are those of the full-length expressions (tests/test_kernels.py keeps
those as the reference); only an exact zero the full forms would get by
adding +0.0 may keep its negative sign.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
import weakref

import numpy as np

BACKEND_NAME = "pure"


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """(dgtsv, dgttrf, dgttrs): the LAPACK routine scipy.linalg.solve_banded(
    (1, 1), ...) calls for a tridiagonal system, without its per-call
    validation, and its factor/solve split (gttrf followed by gttrs runs
    gtsv's elimination, pivot test and back substitution, so the results are
    the same bits).

    Loaded on the first tridiagonal solve, so a run that never solves one
    (the MMS ladder, `mhdlab bounds`, an explicit run without vacuum) never
    loads SciPy. Only top-level `scipy` (for its platform set-up) and its
    Fortran LAPACK extension are loaded: `import scipy.linalg` would add
    about 28 MB resident and 0.25 s of a cold start for three functions. An
    extension already imported is reused, and one loaded here is registered
    under its own name, so a later `scipy.linalg` import and
    `get_lapack_funcs` hand out these same objects.
    """
    import scipy

    mod = sys.modules.get(_FLAPACK)
    if mod is None:
        where = os.path.join(scipy.__path__[0], "linalg")
        finder = importlib.machinery.FileFinder(
            where, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"no {_FLAPACK} extension in {where}",
                              name=_FLAPACK, path=where)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[_FLAPACK] = mod
    return mod.dgtsv, mod.dgttrf, mod.dgttrs


class _GridConstants:
    """The node-array factors of the stencils for one (r, dr)."""

    __slots__ = ("r_face", "r_dr", "two_dr_r", "r_sq")

    def __init__(self, r, dr):
        inner = r[1:-1]
        self.r_face = 0.5 * (r[:-1] + r[1:])
        self.r_dr = inner * dr
        self.two_dr_r = 2.0 * dr * inner
        self.r_sq = inner * inner


# id(r) -> (weak reference to r, dr, constants); an entry leaves when r dies
_constants = {}


def _grid_constants(r, dr):
    """The constants of (r, dr): built once per read-only node array, which
    is taken to keep its values (a grid's nodes do), and afresh on every
    call for a writable one."""
    if r.flags.writeable:
        return _GridConstants(r, dr)
    key = id(r)
    hit = _constants.get(key)
    if hit is not None and hit[0]() is r and hit[1] == dr:
        return hit[2]
    consts = _GridConstants(r, dr)
    _constants[key] = (weakref.ref(r, lambda _, k=key: _constants.pop(k, None)),
                       dr, consts)
    return consts


def _lf_faces(lf_fc):
    """The faces the Lax-Friedrichs products run over: None without a
    coefficient, else the band's first to last nonzero face."""
    nz = (lf_fc != 0.0).nonzero()[0]
    if nz.size == 0:
        return None
    return slice(int(nz[0]), int(nz[-1]) + 1)


def _gradient_from_r0(f, dr, out=None):
    """f_r central in the interior and one-sided at r=R; the axis is the
    caller's."""
    out = np.empty_like(f) if out is None else out
    inner = out[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    inner /= 2.0 * dr
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dr)
    return out


def gradient(f, dr, out=None):
    """Second-order derivative: central interior, one-sided at both ends."""
    out = _gradient_from_r0(f, dr, out)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dr)
    return out


def over_r(f, r, f_r0):
    """f/r with the axis value replaced by the limit f_r(0)."""
    out = np.empty_like(f)
    np.divide(f[1:], r[1:], out=out[1:])
    out[0] = f_r0
    return out


def axis_gradient(f, dr):
    """f_r of a field pinned to zero at the axis: (4 f[1] - f[2]) / (2 dr) there."""
    out = _gradient_from_r0(f, dr)
    out[0] = (4.0 * f[1] - f[2]) / (2.0 * dr)
    return out


def radial_parts(f, r, dr):
    """(f_r, f/r) of a field pinned to zero at the axis, f/r(0) = f_r(0)."""
    f_r = axis_gradient(f, dr)
    return f_r, over_r(f, r, f_r[0])


def _second_difference(f, dr, consts):
    """f_rr + f_r / r on interior nodes, zero at both ends."""
    out = np.empty_like(f)
    out[0] = out[-1] = 0.0
    inner = out[1:-1]
    np.multiply(f[1:-1], 2.0, out=inner)
    np.subtract(f[2:], inner, out=inner)
    inner += f[:-2]
    inner /= dr * dr
    drift = f[2:] - f[:-2]
    drift /= consts.two_dr_r
    inner += drift
    return out


def _vector_laplacian(f, dr, consts):
    out = _second_difference(f, dr, consts)
    out[1:-1] -= f[1:-1] / consts.r_sq
    return out


def vector_laplacian(f, r, dr):
    """(f_r + f/r)_r on interior nodes, zero at both ends."""
    return _vector_laplacian(f, dr, _grid_constants(r, dr))


def _axial_laplacian(f, dr, consts):
    out = _second_difference(f, dr, consts)
    out[0] = 4.0 * (f[1] - f[0]) / (dr * dr)
    return out


def axial_laplacian(f, r, dr):
    """(r f_r)_r / r on interior nodes and at the axis (2 f_rr(0)), zero at r=R."""
    return _axial_laplacian(f, dr, _grid_constants(r, dr))


def _mass_tendency(r, dr, consts, rho, vel, lf_fc, up_fc, faces, out=None):
    mom = rho * vel
    fv = mom[:-1] + mom[1:]
    fv *= 0.5
    if np.count_nonzero(up_fc):
        vbar = vel[:-1] + vel[1:]
        vbar *= 0.5
        donor = np.where(vbar >= 0.0, rho[:-1], rho[1:])
        donor *= vbar
        np.copyto(fv, donor, where=up_fc != 0)
    G = consts.r_face * fv
    if faces is not None:
        G[faces] -= (lf_fc[faces] * consts.r_face[faces]
                     * (rho[1:][faces] - rho[:-1][faces]))
    drho = np.empty_like(rho) if out is None else out
    inner = drho[1:-1]
    np.subtract(G[1:], G[:-1], out=inner)
    np.negative(inner, out=inner)
    inner /= consts.r_dr
    mom_r0 = (-3.0 * mom[0] + 4.0 * mom[1] - mom[2]) / (2.0 * dr)
    drho[0] = -2.0 * mom_r0
    mom_rn = (3.0 * mom[-1] - 4.0 * mom[-2] + mom[-3]) / (2.0 * dr)
    drho[-1] = -(mom_rn + mom[-1] / r[-1])
    return drho


def mass_tendency(r, dr, rho, vel, lf_fc, up_fc):
    """-(rho vel)_r - rho vel / r as face-flux differences in the interior.

    The ends use point-value one-sided forms: node 0 has zero quadrature
    weight and node N contributes O(dr^3) to the mass ledger, so the
    interior telescoping is what conserves mass.
    """
    return _mass_tendency(r, dr, _grid_constants(r, dr), rho, vel, lf_fc,
                          up_fc, _lf_faces(lf_fc))


def _induction_tendency(dr, vel, B, lf_fc, faces, out=None):
    vb = vel * B
    H = vb[:-1] + vb[1:]
    H *= 0.5
    if faces is not None:
        H[faces] -= lf_fc[faces] * (B[1:][faces] - B[:-1][faces])
    dB = np.empty_like(B) if out is None else out
    inner = dB[1:-1]
    np.subtract(H[1:], H[:-1], out=inner)
    np.negative(inner, out=inner)
    inner /= dr
    dB[0] = 0.0
    dB[-1] = -(3.0 * vb[-1] - 4.0 * vb[-2] + vb[-3]) / (2.0 * dr)
    return dB


def induction_tendency(dr, vel, B, lf_fc):
    """-(vel B)_r as face-flux differences, one-sided at r=R; B(0) = 0 is exact."""
    return _induction_tendency(dr, vel, B, lf_fc, _lf_faces(lf_fc))


def _pressure_diffusion(dP, P, dr, lf_fc, faces):
    """dP += the band diffusion of P: face fluxes -lf (P[i+1] - P[i]), none
    on either side of the band (so none through r=0 or r=R), over half-width
    cells at r=0 and r=R."""
    lo, hi = faces.start, faces.stop
    D = np.zeros(hi - lo + 2)
    np.multiply(lf_fc[faces], P[lo + 1:hi + 1] - P[lo:hi], out=D[1:-1])
    # flux differences over the cell widths: dr, half of it at an end
    div = D[1:] - D[:-1]
    div /= dr
    if lo == 0:
        div[0] = (D[1] - D[0]) / (0.5 * dr)
    if hi == len(lf_fc):
        div[-1] = (D[-1] - D[-2]) / (0.5 * dr)
    dP[lo:hi + 1] += div


def _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma, include_visc,
              lf_fc, up_fc, swirl=None):
    """The disk tendency as rows (drho, du, dP, dB) of one array; with
    swirl = (v, w, mu) the cylinder's (drho, du, dv, dw, dP, dB)."""
    out = np.empty((4 if swirl is None else 6, len(r)))
    drho, du, dP, dB = out[0], out[1], out[-2], out[-1]
    consts = _grid_constants(r, dr)
    faces = _lf_faces(lf_fc)
    ur, u_over_r = radial_parts(u, r, dr)
    Br, B_over_r = radial_parts(B, r, dr)
    Pr = gradient(P, dr)

    neg_rho = np.negative(rho)
    neg_rho_u = neg_rho * u
    np.multiply(neg_rho_u, ur, out=du)
    du -= Pr
    if include_visc:
        du += two_mu_lam * _vector_laplacian(u, dr, consts)
    Br += B_over_r
    Br *= B
    du -= Br
    du /= rho_star
    du[0] = 0.0
    du[-1] = 0.0

    # pressure (with band diffusion where lf_fc is active)
    np.negative(u, out=dP)
    dP *= Pr
    div = np.add(ur, u_over_r, out=u_over_r)
    div *= gamma * P
    dP -= div
    if faces is not None:
        _pressure_diffusion(dP, P, dr, lf_fc, faces)

    _mass_tendency(r, dr, consts, rho, u, lf_fc, up_fc, faces, out=drho)
    _induction_tendency(dr, u, B, lf_fc, faces, out=dB)
    if swirl is None:
        return out

    v, w, mu = swirl
    # centrifugal correction on the interior; du stays pinned at both ends
    centrif = rho[1:-1] * v[1:-1]
    centrif *= v[1:-1]
    centrif /= r[1:-1]
    centrif /= rho_star[1:-1]
    du[1:-1] += centrif

    vr, v_over_r = radial_parts(v, r, dr)
    dv = np.multiply(u, vr, out=out[2])
    v_over_r *= u
    dv += v_over_r
    dv *= neg_rho
    if include_visc:
        dv += mu * _vector_laplacian(v, dr, consts)
    dv /= rho_star
    dv[0] = 0.0
    dv[-1] = 0.0

    dw = gradient(w, dr, out=out[3])
    dw *= neg_rho_u
    if include_visc:
        dw += mu * _axial_laplacian(w, dr, consts)
    dw /= rho_star
    dw[-1] = 0.0
    return out


def disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                  include_visc, lf_fc, up_fc):
    """Tendency rows (drho, du, dP, dB) of the 2D radial system, one array.

        rho_t = -(rho u)_r - rho u / r                     (face-flux form)
        u_t   = [-rho u u_r - P_r + (2mu+lam)(u_r + u/r)_r
                 - B (B_r + B/r)] / rho*
        P_t   = -u P_r - gamma P (u_r + u/r)
        B_t   = -(u B)_r                                   (face-flux form)
    """
    return _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                     include_visc, lf_fc, up_fc)


def cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star, two_mu_lam, mu,
                      gamma, include_visc, lf_fc, up_fc):
    """Disk tendency plus swirl/axial components of the cylindrical system.

        u_t gains + rho v^2 / r inside the rho-weighted bracket
        v_t = [-rho (u v_r + u v / r) + mu (v_r + v/r)_r] / rho*
        w_t = [-rho u w_r + mu (r w_r)_r / r] / rho*
    """
    return _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                     include_visc, lf_fc, up_fc, swirl=(v, w, mu))


def laplacian_rows(r, dr):
    """Tridiagonal rows of the viscous operators at every node of the grid.

    Returns (sub, sup, swirl, axial): row i of (f_r + f/r)_r is
    sub[i] f[i-1] + swirl[i] f[i] + sup[i] f[i+1], and (r f_r)_r / r shares
    sub and sup with diagonal axial[i]. At the axis the rows are the
    symmetric axial operator 4 (f[1] - f[0]) / dr^2; the fields the swirl
    rows act on are pinned there, so swirl[0] is nan.
    """
    inv2 = 1.0 / (dr * dr)
    ri = r[1:]
    sub = np.empty_like(r)
    sup = np.empty_like(r)
    swirl = np.empty_like(r)
    sub[1:] = inv2 - 1.0 / (2.0 * dr * ri)
    sup[1:] = inv2 + 1.0 / (2.0 * dr * ri)
    swirl[1:] = -2.0 * inv2 - 1.0 / (ri * ri)
    axial = np.full(len(r), -2.0 * inv2)
    sub[0] = 0.0
    sup[0] = 4.0 / (dr * dr)
    swirl[0] = np.nan
    axial[0] = -4.0 / (dr * dr)
    return sub, sup, swirl, axial


def _require_finite(*arrays):
    for a in arrays:
        if not np.logical_and.reduce(np.isfinite(a), axis=None):
            raise ValueError("array must not contain infs or NaNs")


def _raise_pivot(info, routine):
    if info > 0:
        raise ZeroDivisionError(
            f"singular tridiagonal system: zero pivot at row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def thomas(sub, diag, sup, rhs):
    """Solve the tridiagonal system; sub/sup have length n-1.

    Calls LAPACK gtsv directly, the routine (and so the result) of
    scipy.linalg.solve_banded((1, 1), ...); SciPy's LAPACK extension is
    loaded on the first call that reaches it. Raises ValueError on
    non-finite input, as solve_banded does, and ZeroDivisionError on
    singular systems (same contract as the compiled twin's elimination loop).
    """
    _require_finite(sub, diag, sup, rhs)
    if len(diag) <= 1:
        return rhs / diag
    gtsv, _, _ = _lapack()
    _, _, _, x, info = gtsv(sub, diag, sup, rhs)
    _raise_pivot(info, "gtsv")
    return x


def tridiag_factor(sub, diag, sup):
    """Factors of a tridiagonal matrix for `tridiag_solve`; sub/sup have
    length n-1.

    Checks the rows once: ValueError on a non-finite entry and
    ZeroDivisionError on a zero pivot, as `thomas` raises them. LAPACK
    gttrf takes n >= 3; a smaller system keeps its checked rows, which
    `tridiag_solve` hands to `thomas` (so its pivot is tested there).
    """
    _require_finite(sub, diag, sup)
    if len(diag) < 3:
        return sub, diag, sup
    _, gttrf, _ = _lapack()
    *factors, info = gttrf(sub, diag, sup)
    _raise_pivot(info, "gttrf")
    for a in factors:
        a.flags.writeable = False
    return tuple(factors)


def tridiag_solve(factors, rhs):
    """Solve the system `tridiag_factor` factored for one right-hand side,
    with the bits `thomas` gives; only rhs is checked (ValueError when it is
    not finite)."""
    if len(factors) == 3:
        return thomas(*factors, rhs)
    _require_finite(rhs)
    _, _, gttrs = _lapack()
    x, info = gttrs(*factors, rhs)
    _raise_pivot(info, "gttrs")
    return x
