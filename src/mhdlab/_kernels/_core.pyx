# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of the NumPy kernel backend (see pure.py for conventions).

The loops evaluate the same expressions as the vectorized fallback so the two
backends agree to a few ulps; tests assert the equivalence directly. Face
controls that are None, as on a state without vacuum, become zeros before
`disk_tendency`'s face loop, which computes the zero terms.
"""

import numpy as np
cimport numpy as cnp

cnp.import_array()

BACKEND_NAME = "cython"


cdef inline double _onesided_lo(double f0, double f1, double f2, double dr) nogil:
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * dr)


cdef inline double _onesided_hi(double fn, double fn1, double fn2, double dr) nogil:
    return (3.0 * fn - 4.0 * fn1 + fn2) / (2.0 * dr)


cdef inline double _viscous_row(double dr, double ri, double hoop, double fl,
                                double fc, double fr) nogil:
    # The row of pure.laplacian_rows at an interior node of radius ri,
    # applied as pure.apply_rows applies it: diag f[i], then + sub f[i-1],
    # then + sup f[i+1]. hoop is 1 / ri^2 for (f_r + f/r)_r and 0 for
    # (r f_r)_r / r, whose diagonal is then -2 inv2 exactly.
    cdef double inv2 = 1.0 / (dr * dr)
    cdef double drift = 1.0 / (2.0 * dr * ri)
    return (-2.0 * inv2 - hoop) * fc + (inv2 - drift) * fl + (inv2 + drift) * fr


def disk_tendency(cnp.ndarray[double, ndim=1] r, double dr,
                  cnp.ndarray[double, ndim=1] rho,
                  cnp.ndarray[double, ndim=1] u,
                  cnp.ndarray[double, ndim=1] P,
                  cnp.ndarray[double, ndim=1] B,
                  cnp.ndarray[double, ndim=1] rho_star,
                  double two_mu_lam, double gamma,
                  bint include_visc,
                  cnp.ndarray[double, ndim=1] lf_fc=None,
                  cnp.ndarray[unsigned char, ndim=1] up_fc=None):
    cdef Py_ssize_t n1 = r.shape[0]
    cdef Py_ssize_t n = n1 - 1
    cdef cnp.ndarray[double, ndim=1] drho = np.empty(n1)
    cdef cnp.ndarray[double, ndim=1] du = np.empty(n1)
    cdef cnp.ndarray[double, ndim=1] dP = np.empty(n1)
    cdef cnp.ndarray[double, ndim=1] dB = np.empty(n1)
    cdef cnp.ndarray[double, ndim=1] G = np.empty(n)
    cdef cnp.ndarray[double, ndim=1] H = np.empty(n)
    cdef cnp.ndarray[double, ndim=1] Dp = np.empty(n)

    cdef Py_ssize_t i, j
    cdef double ur0 = (4.0 * u[1] - u[2]) / (2.0 * dr)
    cdef double Br0 = (4.0 * B[1] - B[2]) / (2.0 * dr)
    cdef double ur_i, uor_i, Br_i, Bor_i, Pr_i, visc_i, r_face, fv, ubar
    cdef double vol_i, div_i, lorentz_i, wd_i, mom_r
    cdef bint any_lf = False
    # None: no Lax-Friedrichs coefficient or donor-cell flag on any face
    if lf_fc is None:
        lf_fc = np.zeros(n)
    if up_fc is None:
        up_fc = np.zeros(n, dtype=np.uint8)
    for j in range(n):
        if lf_fc[j] != 0.0:
            any_lf = True
            break

    # faces
    for j in range(n):
        r_face = 0.5 * (r[j] + r[j + 1])
        if up_fc[j]:
            ubar = 0.5 * (u[j] + u[j + 1])
            fv = (rho[j] if ubar >= 0.0 else rho[j + 1]) * ubar
        else:
            fv = 0.5 * (rho[j] * u[j] + rho[j + 1] * u[j + 1])
        G[j] = r_face * fv - lf_fc[j] * r_face * (rho[j + 1] - rho[j])
        H[j] = 0.5 * (u[j] * B[j] + u[j + 1] * B[j + 1]) - lf_fc[j] * (B[j + 1] - B[j])
        Dp[j] = lf_fc[j] * (P[j + 1] - P[j])

    for i in range(n1):
        # derivatives at node i
        if i == 0:
            ur_i = ur0
            uor_i = ur0
            Br_i = Br0
            Bor_i = Br0
            Pr_i = _onesided_lo(P[0], P[1], P[2], dr)
        elif i == n:
            ur_i = _onesided_hi(u[n], u[n - 1], u[n - 2], dr)
            uor_i = u[n] / r[n]
            Br_i = _onesided_hi(B[n], B[n - 1], B[n - 2], dr)
            Bor_i = B[n] / r[n]
            Pr_i = _onesided_hi(P[n], P[n - 1], P[n - 2], dr)
        else:
            ur_i = (u[i + 1] - u[i - 1]) / (2.0 * dr)
            uor_i = u[i] / r[i]
            Br_i = (B[i + 1] - B[i - 1]) / (2.0 * dr)
            Bor_i = B[i] / r[i]
            Pr_i = (P[i + 1] - P[i - 1]) / (2.0 * dr)
        div_i = ur_i + uor_i

        # mass: interior flux form telescopes; one-sided point forms at the
        # ends (node 0 carries no quadrature weight, node N adds O(dr^3))
        if i == 0:
            mom_r = (-3.0 * rho[0] * u[0] + 4.0 * rho[1] * u[1]
                     - rho[2] * u[2]) / (2.0 * dr)
            drho[i] = -2.0 * mom_r
        elif i == n:
            mom_r = (3.0 * rho[n] * u[n] - 4.0 * rho[n - 1] * u[n - 1]
                     + rho[n - 2] * u[n - 2]) / (2.0 * dr)
            drho[i] = -(mom_r + rho[n] * u[n] / r[n])
        else:
            vol_i = r[i] * dr
            drho[i] = -(G[i] - G[i - 1]) / vol_i

        # momentum
        if include_visc and 0 < i < n:
            visc_i = _viscous_row(dr, r[i], 1.0 / (r[i] * r[i]), u[i - 1],
                                  u[i], u[i + 1])
        else:
            visc_i = 0.0
        lorentz_i = B[i] * (Br_i + Bor_i)
        du[i] = (-rho[i] * u[i] * ur_i - Pr_i + two_mu_lam * visc_i
                 - lorentz_i) / rho_star[i]

        # pressure
        dP[i] = -u[i] * Pr_i - gamma * P[i] * div_i
        if any_lf:
            wd_i = 0.5 * dr if (i == 0 or i == n) else dr
            if i == 0:
                dP[i] += (Dp[0] - 0.0) / wd_i
            elif i == n:
                dP[i] += (0.0 - Dp[n - 1]) / wd_i
            else:
                dP[i] += (Dp[i] - Dp[i - 1]) / wd_i

        # induction: interior flux form, one-sided point form at the far end
        if i == 0:
            dB[i] = 0.0
        elif i == n:
            dB[i] = -(3.0 * u[n] * B[n] - 4.0 * u[n - 1] * B[n - 1]
                      + u[n - 2] * B[n - 2]) / (2.0 * dr)
        else:
            dB[i] = -(H[i] - H[i - 1]) / dr

    du[0] = 0.0
    du[n] = 0.0
    dB[0] = 0.0
    return drho, du, dP, dB


def cylinder_tendency(cnp.ndarray[double, ndim=1] r, double dr,
                      cnp.ndarray[double, ndim=1] rho,
                      cnp.ndarray[double, ndim=1] u,
                      cnp.ndarray[double, ndim=1] v,
                      cnp.ndarray[double, ndim=1] w,
                      cnp.ndarray[double, ndim=1] P,
                      cnp.ndarray[double, ndim=1] B,
                      cnp.ndarray[double, ndim=1] rho_star,
                      double two_mu_lam, double mu, double gamma,
                      bint include_visc,
                      cnp.ndarray[double, ndim=1] lf_fc=None,
                      cnp.ndarray[unsigned char, ndim=1] up_fc=None):
    drho, du, dP, dB = disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam,
                                     gamma, include_visc, lf_fc, up_fc)
    cdef cnp.ndarray[double, ndim=1] du_ = du
    cdef Py_ssize_t n1 = r.shape[0]
    cdef Py_ssize_t n = n1 - 1
    cdef cnp.ndarray[double, ndim=1] dv = np.empty(n1)
    cdef cnp.ndarray[double, ndim=1] dw = np.empty(n1)
    cdef Py_ssize_t i
    cdef double vr0 = (4.0 * v[1] - v[2]) / (2.0 * dr)
    cdef double vr_i, vor_i, wr_i, visc_i

    for i in range(1, n):
        du_[i] = du_[i] + (rho[i] * v[i] * v[i] / r[i]) / rho_star[i]
    du_[0] = 0.0
    du_[n] = 0.0

    for i in range(n1):
        if i == 0:
            vr_i = vr0
            vor_i = vr0
            wr_i = _onesided_lo(w[0], w[1], w[2], dr)
        elif i == n:
            vr_i = _onesided_hi(v[n], v[n - 1], v[n - 2], dr)
            vor_i = v[n] / r[n]
            wr_i = _onesided_hi(w[n], w[n - 1], w[n - 2], dr)
        else:
            vr_i = (v[i + 1] - v[i - 1]) / (2.0 * dr)
            vor_i = v[i] / r[i]
            wr_i = (w[i + 1] - w[i - 1]) / (2.0 * dr)

        if include_visc and 0 < i < n:
            visc_i = _viscous_row(dr, r[i], 1.0 / (r[i] * r[i]), v[i - 1],
                                  v[i], v[i + 1])
        else:
            visc_i = 0.0
        dv[i] = (-rho[i] * (u[i] * vr_i + u[i] * vor_i) + mu * visc_i) / rho_star[i]

        if include_visc:
            if i == 0:
                visc_i = (-4.0 / (dr * dr)) * w[0] + (4.0 / (dr * dr)) * w[1]
            elif i == n:
                visc_i = 0.0
            else:
                visc_i = _viscous_row(dr, r[i], 0.0, w[i - 1], w[i], w[i + 1])
        else:
            visc_i = 0.0
        dw[i] = (-rho[i] * u[i] * wr_i + mu * visc_i) / rho_star[i]

    dv[0] = 0.0
    dv[n] = 0.0
    dw[n] = 0.0
    return drho, du_, dv, dw, dP, dB


def thomas(cnp.ndarray[double, ndim=1] sub, cnp.ndarray[double, ndim=1] diag,
           cnp.ndarray[double, ndim=1] sup, cnp.ndarray[double, ndim=1] rhs):
    """Pivot-free Thomas elimination; sub/sup have length n-1. The contract
    of pure.thomas: ZeroDivisionError on a zero pivot, no input scan."""
    cdef Py_ssize_t n = diag.shape[0]
    cdef cnp.ndarray[double, ndim=1] cp = np.empty(n)
    cdef cnp.ndarray[double, ndim=1] x = np.empty(n)
    cdef Py_ssize_t i
    cdef double m, denom

    denom = diag[0]
    if denom == 0.0:
        raise ZeroDivisionError("singular tridiagonal system")
    cp[0] = sup[0] / denom if n > 1 else 0.0
    x[0] = rhs[0] / denom
    for i in range(1, n):
        denom = diag[i] - sub[i - 1] * cp[i - 1]
        if denom == 0.0:
            raise ZeroDivisionError("singular tridiagonal system")
        if i < n - 1:
            cp[i] = sup[i] / denom
        x[i] = (rhs[i] - sub[i - 1] * x[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return x
