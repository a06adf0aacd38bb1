"""Kernel backend selection and the shared radial operators.

The per-step kernels come from the compiled extension `_core` when it is
built, and from the NumPy fallback `pure` when it is not. An extension that
is built but fails to load raises its own ImportError: only a missing
`_core` selects the fallback, so a run computes with the kernels that
`BACKEND` reports. Code that needs one backend in particular takes the NumPy
kernels as `pure` and the compiled ones from
`importlib.import_module("mhdlab._kernels._core")` under the same rule; the
backends are compared by running perfbench in a tree with the extension
built in place and in one without (each record's stamp names its backend).
The radial operators every module builds its derivatives
from (`gradient`, `axis_gradient` and the axis-pinned (f_r, f/r) pair
`radial_parts`) have one home, `pure.py`, under either backend: the NumPy
tendency kernels' own stencil helpers, run on fresh outputs (the kernels
run them on a per-thread workspace of scratch arrays). Every tridiagonal
system of a run is solved by the one routine `thomas`, which raises
ZeroDivisionError on a zero pivot and scans nothing (the solver checks the
systems it builds): the compiled twin's pivot-free elimination, or LAPACK
`gtsv` from SciPy's Fortran extension `scipy.linalg._flapack`, loaded
alone on the first solve (`pure._lapack`), so no run imports `scipy.linalg`.
"""

import importlib

from . import pure as _pure

try:
    _impl = importlib.import_module(f"{__name__}._core")
except ModuleNotFoundError as exc:
    if exc.name != f"{__name__}._core":
        raise
    _impl = _pure

BACKEND = _impl.BACKEND_NAME

disk_tendency = _impl.disk_tendency
cylinder_tendency = _impl.cylinder_tendency
thomas = _impl.thomas

gradient = _pure.gradient
axis_gradient = _pure.axis_gradient
radial_parts = _pure.radial_parts

