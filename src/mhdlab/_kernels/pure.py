"""NumPy implementation of the hot per-step kernels.

This is the fallback backend; `_core.pyx` holds the compiled twin. Both
evaluate the same expressions in the same order so results agree to within a
few ulps, and every physics test passes under either backend.

Shared conventions (uniform node grid r[0..N], dr = spacing):

* central first derivatives in the interior, second-order one-sided at the
  ends; fields pinned to zero at r=0 use (4 f[1] - f[2]) / (2 dr) there
* f/r at the axis is replaced by its limit f_r(0)
* mass and induction updates are finite-volume face-flux differences, so the
  discrete mass integral and the total of B are telescoping-exact when the
  boundary fluxes vanish
* `lf_fc` carries per-face Lax-Friedrichs coefficients (zero where disabled);
  `up_fc` marks faces that switch the mass flux to donor-cell form
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

BACKEND_NAME = "pure"

# the LAPACK routine scipy.linalg.solve_banded((1, 1), ...) calls for a
# tridiagonal system, fetched once instead of through its per-call validation
_gtsv, = get_lapack_funcs(("gtsv",), (np.empty(0),))


def gradient(f, dr):
    """Second-order derivative: central interior, one-sided at both ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dr)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dr)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dr)
    return out


def over_r(f, r, f_r0):
    """f/r with the axis value replaced by the limit f_r(0)."""
    out = np.empty_like(f)
    out[1:] = f[1:] / r[1:]
    out[0] = f_r0
    return out


def axis_gradient(f, dr):
    """f_r of a field pinned to zero at the axis: (4 f[1] - f[2]) / (2 dr) there."""
    out = gradient(f, dr)
    out[0] = (4.0 * f[1] - f[2]) / (2.0 * dr)
    return out


def radial_parts(f, r, dr):
    """(f_r, f/r) of a field pinned to zero at the axis, f/r(0) = f_r(0)."""
    f_r = axis_gradient(f, dr)
    return f_r, over_r(f, r, f_r[0])


def vector_laplacian(f, r, dr):
    """(f_r + f/r)_r on interior nodes, zero at both ends."""
    out = np.zeros_like(f)
    out[1:-1] = ((f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dr * dr)
                 + (f[2:] - f[:-2]) / (2.0 * dr * r[1:-1])
                 - f[1:-1] / (r[1:-1] * r[1:-1]))
    return out


def axial_laplacian(f, r, dr):
    """(r f_r)_r / r on interior nodes and at the axis (2 f_rr(0)), zero at r=R."""
    out = np.zeros_like(f)
    out[1:-1] = ((f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dr * dr)
                 + (f[2:] - f[:-2]) / (2.0 * dr * r[1:-1]))
    out[0] = 4.0 * (f[1] - f[0]) / (dr * dr)
    return out


def mass_tendency(r, dr, rho, vel, lf_fc, up_fc):
    """-(rho vel)_r - rho vel / r as face-flux differences in the interior.

    The ends use point-value one-sided forms: node 0 has zero quadrature
    weight and node N contributes O(dr^3) to the mass ledger, so the
    interior telescoping is what conserves mass.
    """
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


def induction_tendency(dr, vel, B, lf_fc):
    """-(vel B)_r as face-flux differences, one-sided at r=R; B(0) = 0 is exact."""
    vb = vel * B
    H = 0.5 * (vb[:-1] + vb[1:]) - lf_fc * (B[1:] - B[:-1])
    dB = np.empty_like(B)
    dB[1:-1] = -(H[1:] - H[:-1]) / dr
    dB[0] = 0.0
    dB[-1] = -(3.0 * vb[-1] - 4.0 * vb[-2] + vb[-3]) / (2.0 * dr)
    return dB


def _face_flux_diff(flux, flux_in, flux_out, widths):
    """-(F_{i+1/2} - F_{i-1/2}) / width_i for node-centered control volumes."""
    n1 = len(widths)
    out = np.empty(n1)
    out[0] = -(flux[0] - flux_in) / widths[0]
    out[1:-1] = -(flux[1:] - flux[:-1]) / widths[1:-1]
    out[-1] = -(flux_out - flux[-1]) / widths[-1]
    return out


def disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                  include_visc, lf_fc, up_fc):
    """Tendency arrays (drho, du, dP, dB) for the 2D radial system.

        rho_t = -(rho u)_r - rho u / r                     (face-flux form)
        u_t   = [-rho u u_r - P_r + (2mu+lam)(u_r + u/r)_r
                 - B (B_r + B/r)] / rho*
        P_t   = -u P_r - gamma P (u_r + u/r)
        B_t   = -(u B)_r                                   (face-flux form)
    """
    ur, u_over_r = radial_parts(u, r, dr)
    Br, B_over_r = radial_parts(B, r, dr)
    Pr = gradient(P, dr)
    visc = vector_laplacian(u, r, dr) if include_visc else np.zeros_like(u)
    du = (-rho * u * ur - Pr + two_mu_lam * visc - B * (Br + B_over_r)) / rho_star
    du[0] = 0.0
    du[-1] = 0.0

    # pressure (with band diffusion where lf_fc is active)
    dP = -u * Pr - gamma * P * (ur + u_over_r)
    if np.any(lf_fc != 0.0):
        D = lf_fc * (P[1:] - P[:-1])
        widths = np.full(len(r), dr)
        widths[0] = widths[-1] = 0.5 * dr
        dP += _face_flux_diff(-D, 0.0, 0.0, widths)

    return (mass_tendency(r, dr, rho, u, lf_fc, up_fc), du, dP,
            induction_tendency(dr, u, B, lf_fc))


def cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star, two_mu_lam, mu,
                      gamma, include_visc, lf_fc, up_fc):
    """Disk tendency plus swirl/axial components of the cylindrical system.

        u_t gains + rho v^2 / r inside the rho-weighted bracket
        v_t = [-rho (u v_r + u v / r) + mu (v_r + v/r)_r] / rho*
        w_t = [-rho u w_r + mu (r w_r)_r / r] / rho*
    """
    drho, du, dP, dB = disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam,
                                     gamma, include_visc, lf_fc, up_fc)
    # centrifugal correction: v^2/r -> 0 at the axis since v(0) = 0
    centrif = np.zeros_like(u)
    centrif[1:] = rho[1:] * v[1:] * v[1:] / r[1:]
    du += centrif / rho_star
    du[0] = 0.0
    du[-1] = 0.0

    vr, v_over_r = radial_parts(v, r, dr)
    visc_v = vector_laplacian(v, r, dr) if include_visc else np.zeros_like(v)
    dv = (-rho * (u * vr + u * v_over_r) + mu * visc_v) / rho_star
    dv[0] = 0.0
    dv[-1] = 0.0

    visc_w = axial_laplacian(w, r, dr) if include_visc else np.zeros_like(w)
    dw = (-rho * u * gradient(w, dr) + mu * visc_w) / rho_star
    dw[-1] = 0.0

    return drho, du, dv, dw, dP, dB


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


def thomas(sub, diag, sup, rhs):
    """Solve the tridiagonal system; sub/sup have length n-1.

    Calls LAPACK gtsv directly, the routine (and so the result) of
    scipy.linalg.solve_banded((1, 1), ...). Raises ValueError on non-finite
    input, as solve_banded does, and ZeroDivisionError on singular systems
    (same contract as the compiled twin's elimination loop).
    """
    for a in (sub, diag, sup, rhs):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    if len(diag) <= 1:
        return rhs / diag
    _, _, _, x, info = _gtsv(sub, diag, sup, rhs)
    if info > 0:
        raise ZeroDivisionError(
            f"singular tridiagonal system: zero pivot at row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x
