"""Kernel backend selection and the shared radial operators.

The compiled extension is preferred for the per-step kernels when present;
the NumPy fallback is used otherwise. MHDLAB_KERNELS=pure|cython forces a
backend (forcing "cython" raises if the extension was not built). The radial
operators every module builds its derivatives from (`axis_gradient` and the
axis-pinned (f_r, f/r) pair `radial_parts`) and the factored tridiagonal
solve over LAPACK have one home, `pure.py`, under either backend: the NumPy
tendency kernels' own stencil helpers, run on fresh outputs (the kernels run
them on a per-thread workspace of scratch arrays). The LAPACK routines come
from SciPy's Fortran extension `scipy.linalg._flapack`, loaded alone on the
first tridiagonal solve (`pure._lapack`), so no run imports `scipy.linalg`.
"""

import os

from . import pure as _pure

_requested = os.environ.get("MHDLAB_KERNELS", "auto").lower()

if _requested not in ("auto", "pure", "cython"):
    raise RuntimeError(f"MHDLAB_KERNELS must be auto|pure|cython, not {_requested!r}")

if _requested == "pure":
    _impl = _pure
else:
    try:
        from . import _core as _impl
    except ImportError:
        if _requested == "cython":
            raise RuntimeError(
                "MHDLAB_KERNELS=cython but the compiled extension is missing; "
                "build it with `pip install -e .` or "
                "`python setup.py build_ext --inplace`") from None
        _impl = _pure

BACKEND = _impl.BACKEND_NAME

gradient = _impl.gradient
disk_tendency = _impl.disk_tendency
cylinder_tendency = _impl.cylinder_tendency
thomas = _impl.thomas

axis_gradient = _pure.axis_gradient
radial_parts = _pure.radial_parts
tridiag_solve = _pure.tridiag_solve


def get_backend(name):
    """Return a specific backend module ("pure" or "cython") for benchmarks."""
    if name == "pure":
        return _pure
    from . import _core
    return _core
