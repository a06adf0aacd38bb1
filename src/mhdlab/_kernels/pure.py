"""NumPy implementation of the hot per-step kernels.

These kernels run when the compiled twin `_core.pyx` is not built (a
built extension that fails to load is an ImportError, see `_kernels`). Both
evaluate the same expressions in the same order so results agree to within a
few ulps, and every physics test passes under either backend.

Shared conventions (uniform node grid r[0..N], dr = the grid's spacing):

* central first derivatives in the interior, second-order one-sided at the
  ends (`origin_slope` at node 0, `wall_slope` at node N, which the mass
  and induction rates' end nodes take too); fields pinned to zero at r=0
  use (4 f[1] - f[2]) / (2 dr) there
* f/r at the axis is replaced by its limit f_r(0)
* the viscous operators (f_r + f/r)_r and (r f_r)_r / r are the tridiagonal
  rows of `laplacian_rows`, applied by `apply_rows` (diag f[i], then
  + sub f[i-1], then + sup f[i+1]); the implicit viscous solve builds its
  matrix from the same rows
* mass and induction updates are finite-volume face-flux differences, so the
  discrete mass integral and the total of B are telescoping-exact when the
  boundary fluxes vanish
* every face takes the central flux, except where `up_fc` (one uint8 per
  face, None when no face has one) flags it: there the mass flux takes the
  donor-cell form, the upwind density times the face velocity. No
  dissipation is added on any face
* every tridiagonal system is solved by `thomas`, LAPACK gtsv from SciPy's
  LAPACK extension (see `_lapack`)

The tendency kernels allocate only the rates array they return. Every
intermediate is a positional-`out` ufunc call into a `_Workspace`: scratch
arrays for one node count with their interior and face views built once,
one per thread and size (`_workspace`), built on the first call. The
workspace holds the grid factors of the last node array it was bound to,
through a weak reference, so the many grids of a free run share it and none
is kept alive; the viscous rows of those nodes are built on the first call
with a viscous term (a run without one, such as `rk2-imp`'s explicit
stages, never builds them). Donor-cell flags that are None (a state
without vacuum) skip the donor flux unscanned, and a viscous term that is
switched off is left out.

Every ufunc call of a run takes array operands only. NumPy converts and
promotes a Python number operand on every call: at 129 nodes that takes a
multiply from 0.48 to 0.90 us (NumPy 2.4). So the constants are prebuilt
read-only 0-d arrays (`operand`): the module's (`_HALF`, `_ONE`, `_ZERO`,
`_ZERO_U8`) and the spacing's (`spacing`, one `_Spacing` per thread for the
last dr), which the solver's vacuum-balance right-hand side shares. The physical
coefficients (2mu+lam, gamma, mu) are used as the caller hands them: the
solver and Picard pass `PhysParams`' 0-d operands, and a caller that passes
Python floats gets the same bits, converted on each call. A 0-d float64
operand runs the same loop on the same value as the Python float it
replaces, so the bits do not change. The kernels also share what they
would compute twice: rho u serves the mass flux and, negated, the momentum
term ((-rho) u and -(rho u) are the same bits).

Each radial operator has one implementation, a helper that writes into the
output it is given; the public operators (`gradient`, `axis_gradient`,
`radial_parts`) call the same helpers with fresh outputs. The gradients are
built from `central_difference`, `origin_slope` and `wall_slope`, which the
solver's vacuum balance and stress condition take too. The viscous terms
are `apply_rows` on the rows of `laplacian_rows`, the rows the implicit
solve's matrix is built from. The face-flux mass and induction rates run
inside the kernels only. The kernels' values are those of the
full-length expressions (tests/test_kernels.py keeps those as the
reference; its Laplacians are the rows of `laplacian_rows`); only an exact
zero the full forms would get by adding +0.0 may keep its negative sign,
and a pressureless call's dP is +0 where they give +0 or -0.

A pressure row that is +0.0 at every node (`all_plus_zero`) makes a call
pressureless. The blow-up presets start from P = 0 and stay there: P is
+0 + dt (+-0) = +0 after every update, and clipping and remap leave it so.
Such a call skips P_r, its term in u's rate (x - (+0) is x, -0 included),
the pressure work gamma P (V_r + V/r) and the transport's radial parts, and
fills dP with +0. The full forms' dP there is a signed zero for finite
velocities, and any zero added to a P of +0 gives +0, so the states of a
run keep their bits. A -0.0 pressure takes the
full path: -0 + dt (-0) stays -0, where a rate of +0 would make it +0.
The compiled twin keeps computing the zeros.

`disk_tendency` also takes `transport`, the frozen velocity V of the
linearized system: V carries the fields in u's place (the mass and
induction fluxes, the momentum transport -rho V u_r, the pressure's
-V P_r and divergence V_r + V/r), so the Picard sweep (`picard.py`) runs
this kernel. Without it the arithmetic is the nonlinear system's.

Both kernels keep an 11th (cylinder: 14th) positional slot, `retired_band`,
where a Lax-Friedrichs coefficient per face used to go: perfbench's
`kernel_micro` still passes an all-zero array there. It takes None or all
zeros, and refuses anything else (`_refuse_band`).
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
import weakref

import numpy as np

BACKEND_NAME = "pure"


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """dgtsv: the LAPACK routine scipy.linalg.solve_banded((1, 1), ...) calls
    for a tridiagonal system, without its per-call validation.

    Loaded on the first tridiagonal solve, so a run that never solves one
    (the MMS ladder, `mhdlab bounds`, an explicit run without vacuum) never
    loads SciPy. Only top-level `scipy` (for its platform set-up) and its
    Fortran LAPACK extension are loaded: `import scipy.linalg` would add
    about 28 MB resident and 0.25 s of a cold start for one function. An
    extension already imported is reused, and one loaded here is registered
    under its own name, so a later `scipy.linalg` import and
    `get_lapack_funcs` hand out this same object.
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
    return mod.dgtsv


def _nothing():
    return None


def operand(value, dtype=np.float64):
    """value as a read-only 0-d array of dtype: a ufunc operand NumPy uses as
    it is, where it converts a Python number on every call."""
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


_HALF = operand(0.5)
_ONE = operand(1.0)
_ZERO = operand(0.0)
_ZERO_U8 = operand(0, np.uint8)


class _Spacing:
    """The 0-d operands of one grid spacing: dr, -dr, 2 dr and dr^2."""

    __slots__ = ("value", "dr", "neg_dr", "two_dr", "dr_sq")

    def __init__(self, dr):
        self.value = dr
        self.dr = operand(dr)
        self.neg_dr = operand(-dr)
        self.two_dr = operand(2.0 * dr)
        self.dr_sq = operand(dr * dr)


def spacing(dr):
    """This thread's `_Spacing` of dr, rebuilt only when dr changes."""
    sp = _workspaces.spacing
    if sp.value != dr:
        sp = _workspaces.spacing = _Spacing(dr)
    return sp


class _Workspace:
    """The tendency kernels' scratch arrays for one node count, with their
    interior and face views built once, and the stencil factors and viscous
    rows of the last node array bound (see `bind`). Each thread has its own
    (`_workspace`)."""

    def __init__(self, nodes):
        faces, inner = nodes - 1, nodes - 2
        self._r, self._dr = _nothing, None
        self._rows = None
        self.sp = None
        self.r_face = np.empty(faces)
        self.neg_r_dr = np.empty(inner)

        def node_array(view):
            a = np.empty(nodes)
            return a, a[view]

        interior, tail = slice(1, -1), slice(1, None)
        # f_r with its interior, f/r with its nodes past the axis
        self.ur, self.ur_in = node_array(interior)
        self.Br, self.Br_in = node_array(interior)
        self.Pr, self.Pr_in = node_array(interior)
        self.vr, self.vr_in = node_array(interior)
        self.uor, self.uor_tail = node_array(tail)
        self.Bor, self.Bor_tail = node_array(tail)
        self.vor, self.vor_tail = node_array(tail)
        # a viscous term on rows 0..N-1, or on the interior rows, and the
        # scratch of its products
        self.lap, self.lap_tmp = np.empty(faces), np.empty(faces)
        self.lap_in, self.lap_tmp_in = self.lap[1:], self.lap_tmp[1:]
        self.neg_rho = np.empty(nodes)
        self.neg_rho_u = np.empty(nodes)
        self.gamma_P = np.empty(nodes)
        self.centrif = np.empty(inner)

        # node products and their face sums
        self.mom = np.empty(nodes)
        self.mom_lo, self.mom_hi = self.mom[:-1], self.mom[1:]
        self.vb = np.empty(nodes)
        self.vb_lo, self.vb_hi = self.vb[:-1], self.vb[1:]
        self.fv = np.empty(faces)
        self.G = np.empty(faces)
        self.G_lo, self.G_hi = self.G[:-1], self.G[1:]
        self.H = np.empty(faces)
        self.H_lo, self.H_hi = self.H[:-1], self.H[1:]
        self.vbar = np.empty(faces)
        self.donor = np.empty(faces)
        self.ahead = np.empty(faces, dtype=bool)
        self.flagged = np.empty(faces, dtype=bool)

    def bind(self, r, dr):
        """Make r_face and neg_r_dr (-r dr) those of (r, dr), sp the
        `_Spacing` of dr, and drop the viscous rows of the nodes bound
        before. A read-only r is taken to keep its values (a grid's nodes
        do), so its factors and rows stay until another r or dr comes; a
        writable r gets them afresh. Only a weak reference to r is kept."""
        if self._r() is r and self._dr == dr:
            return
        sp = self.sp = spacing(dr)
        np.add(r[:-1], r[1:], self.r_face)
        np.multiply(_HALF, self.r_face, self.r_face)
        np.negative(np.multiply(r[1:-1], sp.dr, self.neg_r_dr), self.neg_r_dr)
        self._rows = None
        self._r = _nothing if r.flags.writeable else weakref.ref(r)
        self._dr = dr

    def viscous_rows(self, r):
        """(swirl, axial) rows (diag, sub, sup) of `laplacian_rows(r, dr)`
        for the bound nodes r: the swirl operator's on the interior nodes,
        the axial operator's on nodes 0..N-1. Built on the first viscous
        call after a bind."""
        if self._rows is None:
            sub, sup, swirl, axial = laplacian_rows(r, self._dr)
            self._rows = ((swirl[1:-1], sub[1:-1], sup[1:-1]),
                          (axial[:-1], sub[:-1], sup[:-1]))
        return self._rows


class _Workspaces(threading.local):
    def __init__(self):
        self.by_nodes = {}
        self.spacing = _Spacing(1.0)


_workspaces = _Workspaces()


def _workspace(nodes):
    """This thread's workspace for `nodes` nodes, built on first use."""
    ws = _workspaces.by_nodes.get(nodes)
    if ws is None:
        ws = _workspaces.by_nodes[nodes] = _Workspace(nodes)
    return ws


def _bound_workspace(r, dr):
    """This thread's workspace for the nodes `r`, bound to their factors."""
    ws = _workspace(len(r))
    ws.bind(r, dr)
    return ws


# The stencil helpers write into `out` and its interior view `inner`
# (out[1:-1]) or the view past the axis `tail` (out[1:]): workspace arrays
# in the kernels, fresh arrays in the public operators below them. `sp` is
# the `_Spacing` of dr.

def all_plus_zero(f):
    """True when every entry of the float64 array f is +0.0.

    f.item(0) is tested first, so a field that is nonzero at node 0 costs
    one read; then the entries' bit patterns, which are all zero for +0.0
    only, so -0.0, a subnormal or a NaN anywhere fails.
    """
    return f.item(0) == 0.0 and not np.count_nonzero(f.view(np.int64))


def central_difference(f, sp, out=None):
    """f_r at the interior nodes of f, (f[i+1] - f[i-1]) / (2 dr), into out
    (a fresh array when None)."""
    out = np.subtract(f[2:], f[:-2], out)
    return np.true_divide(out, sp.two_dr, out)


def origin_slope(f, dr):
    """f_r at node 0, one-sided second order, as a Python float."""
    return (-3.0 * f.item(0) + 4.0 * f.item(1) - f.item(2)) / (2.0 * dr)


def wall_slope(f, dr):
    """f_r at the last node, one-sided second order, as a Python float."""
    return (3.0 * f.item(-1) - 4.0 * f.item(-2) + f.item(-3)) / (2.0 * dr)


def _gradient(f, dr, sp, out, inner):
    """f_r central in the interior and one-sided at both ends."""
    central_difference(f, sp, inner)
    out[0] = origin_slope(f, dr)
    out[-1] = wall_slope(f, dr)


def _axis_gradient(f, dr, sp, out, inner):
    """As `_gradient`, with the axis stencil of a field pinned there."""
    central_difference(f, sp, inner)
    out[0] = (4.0 * f.item(1) - f.item(2)) / (2.0 * dr)
    out[-1] = wall_slope(f, dr)


def _radial_parts(f, r, dr, sp, f_r, f_r_in, f_over_r, f_over_r_tail):
    _axis_gradient(f, dr, sp, f_r, f_r_in)
    np.true_divide(f[1:], r[1:], f_over_r_tail)
    f_over_r[0] = f_r[0]


def apply_rows(diag, sub, sup, f, lo, hi, out, tmp):
    """out = L f on nodes lo..hi, for the tridiagonal rows (diag, sub, sup)
    of those nodes: diag f[i], then + sub f[i-1] (left out on the axis row,
    lo = 0), then + sup f[i+1], in that order. f[hi + 1] must exist; tmp is
    scratch of out's length. Returns out.

    The one evaluation of the viscous operators, the tendency kernels'
    viscous terms.
    """
    np.multiply(diag, f[lo:hi + 1], out)
    if lo > 0:
        np.add(out, np.multiply(sub, f[lo - 1:hi], tmp), out)
    else:
        rest = out[1:]
        np.add(rest, np.multiply(sub[1:], f[:hi], tmp[1:]), rest)
    np.add(out, np.multiply(sup, f[lo + 1:hi + 2], tmp), out)
    return out


def _add_viscous(rate, nu, rows, f, lo, ws):
    """rate += nu L f on nodes lo..N-1, with L the rows (diag, sub, sup) of
    those nodes and nu a 0-d operand; row N, which the kernels pin, is left
    alone."""
    out, tmp = (ws.lap_in, ws.lap_tmp_in) if lo else (ws.lap, ws.lap_tmp)
    apply_rows(*rows, f, lo, len(f) - 2, out, tmp)
    np.multiply(nu, out, out)
    rate_rows = rate[lo:-1]
    np.add(rate_rows, out, rate_rows)


def _mass_tendency(r, dr, ws, rho, vel, mom, up_fc, drho, inner):
    """The mass rates from the momentum mom = rho vel (in ws.mom).

    The ends use point-value one-sided forms: node 0 has zero quadrature
    weight and node N contributes O(dr^3) to the mass ledger, so the
    interior telescoping is what conserves mass.
    """
    fv = np.add(ws.mom_lo, ws.mom_hi, ws.fv)
    np.multiply(fv, _HALF, fv)
    if up_fc is not None and np.count_nonzero(up_fc):
        vbar = np.add(vel[:-1], vel[1:], ws.vbar)
        np.multiply(vbar, _HALF, vbar)
        donor = ws.donor
        np.copyto(donor, rho[1:])
        np.copyto(donor, rho[:-1],
                  where=np.greater_equal(vbar, _ZERO, ws.ahead))
        np.multiply(donor, vbar, donor)
        np.copyto(fv, donor, where=np.not_equal(up_fc, _ZERO_U8, ws.flagged))
    np.multiply(ws.r_face, fv, ws.G)
    # -(G[i+1] - G[i]) / (r dr): IEEE division is symmetric in sign, so
    # dividing by -(r dr) gives the bits of negating first
    np.subtract(ws.G_hi, ws.G_lo, inner)
    np.true_divide(inner, ws.neg_r_dr, inner)
    drho[0] = -2.0 * origin_slope(mom, dr)
    drho[-1] = -(wall_slope(mom, dr) + mom.item(-1) / r.item(-1))


def _induction_tendency(dr, sp, ws, vel, B, dB, inner):
    """-(vel B)_r as face-flux differences, one-sided at r=R; B(0) = 0 is
    exact."""
    vb = np.multiply(vel, B, ws.vb)
    H = np.add(ws.vb_lo, ws.vb_hi, ws.H)
    np.multiply(H, _HALF, H)
    np.subtract(ws.H_hi, ws.H_lo, inner)
    np.true_divide(inner, sp.neg_dr, inner)      # -(H[i+1] - H[i]) / dr
    dB[0] = 0.0
    # -(x / y) and (-x) / y are the same bits
    dB[-1] = -wall_slope(vb, dr)


def _refuse_band(retired_band):
    """The retired Lax-Friedrichs slot takes None or an all-zero array."""
    if retired_band is not None and np.count_nonzero(retired_band):
        raise ValueError("the Lax-Friedrichs band is retired")


def _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma, include_visc,
              up_fc, swirl=None, transport=None):
    """The disk tendency as rows (drho, du, dP, dB) of one array; with
    swirl = (v, w, mu) the cylinder's (drho, du, dv, dw, dP, dB). A
    transport velocity (disk only) carries the fields in u's place."""
    out = np.empty((4 if swirl is None else 6, len(r)))
    drho, du, dP, dB = out[0], out[1], out[-2], out[-1]
    ws = _bound_workspace(r, dr)
    sp = ws.sp
    # P all +0 (every blow-up run): P_r and the pressure rate are +0 too
    pressureless = all_plus_zero(P)
    ur, u_over_r, Br, B_over_r, Pr = ws.ur, ws.uor, ws.Br, ws.Bor, ws.Pr
    _radial_parts(u, r, dr, sp, ur, ws.ur_in, u_over_r, ws.uor_tail)
    _radial_parts(B, r, dr, sp, Br, ws.Br_in, B_over_r, ws.Bor_tail)
    if not pressureless:
        _gradient(P, dr, sp, Pr, ws.Pr_in)
    if include_visc:
        swirl_rows, axial_rows = ws.viscous_rows(r)

    # rho vel: the mass flux's momentum, and negated the momentum term's
    vel = u if transport is None else transport
    mom = np.multiply(rho, vel, ws.mom)
    neg_rho_u = np.negative(mom, ws.neg_rho_u)
    np.multiply(neg_rho_u, ur, du)
    if not pressureless:
        # x - (+0) is x, -0 included, so a P_r of +0 is left out
        np.subtract(du, Pr, du)
    if include_visc:
        _add_viscous(du, two_mu_lam, swirl_rows, u, 1, ws)
    np.add(Br, B_over_r, Br)
    np.multiply(Br, B, Br)
    np.subtract(du, Br, du)
    np.true_divide(du, rho_star, du)
    du[0] = 0.0
    du[-1] = 0.0

    # pressure
    if pressureless:
        dP.fill(0.0)
    else:
        np.negative(vel, dP)
        np.multiply(dP, Pr, dP)
        vel_r, vel_over_r = ur, u_over_r
        if transport is not None:
            # into the cylinder's v scratch, which is free on the disk
            vel_r, vel_over_r = ws.vr, ws.vor
            _radial_parts(transport, r, dr, sp, vel_r, ws.vr_in, vel_over_r,
                          ws.vor_tail)
        div = np.add(vel_r, vel_over_r, vel_over_r)
        np.multiply(div, np.multiply(gamma, P, ws.gamma_P), div)
        np.subtract(dP, div, dP)

    _mass_tendency(r, dr, ws, rho, vel, mom, up_fc, drho, drho[1:-1])
    _induction_tendency(dr, sp, ws, vel, B, dB, dB[1:-1])
    if swirl is None:
        return out

    v, w, mu = swirl
    # centrifugal correction on the interior; du stays pinned at both ends
    v_in = v[1:-1]
    centrif = np.multiply(rho[1:-1], v_in, ws.centrif)
    np.multiply(centrif, v_in, centrif)
    np.true_divide(centrif, r[1:-1], centrif)
    np.true_divide(centrif, rho_star[1:-1], centrif)
    du_in = du[1:-1]
    np.add(du_in, centrif, du_in)

    vr, v_over_r = ws.vr, ws.vor
    _radial_parts(v, r, dr, sp, vr, ws.vr_in, v_over_r, ws.vor_tail)
    dv = np.multiply(u, vr, out[2])
    np.multiply(v_over_r, u, v_over_r)
    np.add(dv, v_over_r, dv)
    np.multiply(dv, np.negative(rho, ws.neg_rho), dv)
    if include_visc:
        _add_viscous(dv, mu, swirl_rows, v, 1, ws)
    np.true_divide(dv, rho_star, dv)
    dv[0] = 0.0
    dv[-1] = 0.0

    dw = out[3]
    _gradient(w, dr, sp, dw, dw[1:-1])
    np.multiply(dw, neg_rho_u, dw)
    if include_visc:
        _add_viscous(dw, mu, axial_rows, w, 0, ws)
    np.true_divide(dw, rho_star, dw)
    dw[-1] = 0.0
    return out


def disk_tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                  include_visc, retired_band=None, up_fc=None,
                  transport=None):
    """Tendency rows (drho, du, dP, dB) of the 2D radial system, one array.

        rho_t = -(rho V)_r - rho V / r                     (face-flux form)
        u_t   = [-rho V u_r - P_r + (2mu+lam)(u_r + u/r)_r
                 - B (B_r + B/r)] / rho*
        P_t   = -V P_r - gamma P (V_r + V/r)
        B_t   = -(V B)_r                                   (face-flux form)

    V is u itself, or the frozen velocity `transport` of the linearized
    system (a transport of u gives the same bits as none). up_fc flags the
    donor-cell faces; retired_band is None or all zeros (see the module
    docstring).
    """
    _refuse_band(retired_band)
    return _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                     include_visc, up_fc, transport=transport)


def cylinder_tendency(r, dr, rho, u, v, w, P, B, rho_star, two_mu_lam, mu,
                      gamma, include_visc, retired_band=None, up_fc=None):
    """Disk tendency plus swirl/axial components of the cylindrical system.

        u_t gains + rho v^2 / r inside the rho-weighted bracket
        v_t = [-rho (u v_r + u v / r) + mu (v_r + v/r)_r] / rho*
        w_t = [-rho u w_r + mu (r w_r)_r / r] / rho*
    """
    _refuse_band(retired_band)
    return _tendency(r, dr, rho, u, P, B, rho_star, two_mu_lam, gamma,
                     include_visc, up_fc, swirl=(v, w, mu))


# The shared radial operators: the kernels' helpers on fresh outputs.

def gradient(f, dr):
    """Second-order derivative: central interior, one-sided at both ends."""
    out = np.empty_like(f)
    _gradient(f, dr, spacing(dr), out, out[1:-1])
    return out


def axis_gradient(f, dr):
    """f_r of a field pinned to zero at the axis: (4 f[1] - f[2]) / (2 dr) there."""
    out = np.empty_like(f)
    _axis_gradient(f, dr, spacing(dr), out, out[1:-1])
    return out


def radial_parts(f, r, dr):
    """(f_r, f/r) of a field pinned to zero at the axis, f/r(0) = f_r(0)."""
    f_r, f_over_r = np.empty_like(f), np.empty_like(f)
    _radial_parts(f, r, dr, spacing(dr), f_r, f_r[1:-1], f_over_r,
                  f_over_r[1:])
    return f_r, f_over_r


def laplacian_rows(r, dr):
    """Tridiagonal rows of the viscous operators at every node of the grid.

    Returns (sub, sup, swirl, axial): row i of (f_r + f/r)_r is
    sub[i] f[i-1] + swirl[i] f[i] + sup[i] f[i+1], and (r f_r)_r / r shares
    sub and sup with diagonal axial[i]. At the axis the rows are the
    symmetric axial operator 4 (f[1] - f[0]) / dr^2; the fields the swirl
    rows act on are pinned there, so swirl[0] is nan.

    These rows define the operators: `apply_rows` applies them in the
    tendency kernels, and the implicit solve builds its matrix from them
    (`solver.implicit_viscous`). Every ufunc call takes 0-d
    operands, as a free run builds the rows of each step's new grid.
    """
    inv2 = 1.0 / (dr * dr)
    ri = r[1:]
    sub = np.empty_like(r)
    sup = np.empty_like(r)
    swirl = np.empty_like(r)
    # 1 / (2 dr r), shared by sub and sup
    drift = np.true_divide(_ONE, np.multiply(spacing(dr).two_dr, ri))
    np.subtract(operand(inv2), drift, sub[1:])
    np.add(operand(inv2), drift, sup[1:])
    hoop = np.true_divide(_ONE, np.multiply(ri, ri))
    np.subtract(operand(-2.0 * inv2), hoop, swirl[1:])
    axial = np.full(len(r), -2.0 * inv2)
    sub[0] = 0.0
    sup[0] = 4.0 / (dr * dr)
    swirl[0] = np.nan
    axial[0] = -4.0 / (dr * dr)
    return sub, sup, swirl, axial


def thomas(sub, diag, sup, rhs):
    """Solve the tridiagonal system; sub/sup have length n-1.

    Calls LAPACK gtsv directly, the routine (and so the result) of
    scipy.linalg.solve_banded((1, 1), ...); SciPy's LAPACK extension is
    loaded on the first call that reaches it. A one-row system, which gtsv
    refuses, is divided out. Raises ZeroDivisionError on a zero pivot and
    scans nothing, as the compiled twin: the solver checks its systems.
    """
    if len(diag) <= 1:
        if not diag.all():
            raise ZeroDivisionError(
                "singular tridiagonal system: zero pivot at row 1")
        return rhs / diag
    _, _, _, x, info = _lapack()(sub, diag, sup, rhs)
    if info > 0:
        raise ZeroDivisionError(
            f"singular tridiagonal system: zero pivot at row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x
