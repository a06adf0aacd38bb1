"""SciPy's LAPACK extension is loaded by the first tridiagonal solve, not by
`import mhdlab`, and no run imports `scipy.linalg`.

Each run case is executed in a fresh interpreter, since pytest's own process
has `scipy.linalg` loaded already (tests/test_kernels.py imports it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from mhdlab._kernels import pure

SRC = Path(__file__).resolve().parent.parent / "src"
LINALG = "scipy.linalg"
FLAPACK = "scipy.linalg._flapack"

_CONFIG = """
from mhdlab import config, harness

def cfg(preset, *overrides):
    pairs = config.parse_pairs(config.load_preset_text(preset))
    return config.build_config(config.apply_overrides(pairs, list(overrides)))
"""


def _run(preset, *overrides):
    args = ", ".join(repr(o) for o in ("grid.n=32",) + overrides)
    return (_CONFIG + f"res = harness.run(cfg({preset!r}, {args}), out_dir=OUT)\n"
            "assert res.status.value != 'Error', res.outcome.summary")


NO_SOLVE = {
    "import": "import mhdlab",
    "bounds": "from mhdlab.cli import main\n"
              "assert main(['bounds', '--preset', 'disk-blowup']) == 0",
    "mms-ladder": _CONFIG + "harness.convergence_study(cfg('mms'), [16, 32])",
    "ssprk3-novac": _run("smooth-novac", 'time.scheme="ssprk3"')
    + "\nassert res.status.value == 'Completed', res.status",
}

SOLVE = {
    "disk-blowup": _run("disk-blowup"),
    "cylinder-blowup": _run("cylinder-blowup"),
    "free-blowup": _run("free-blowup"),
    "rk2-imp-novac": _run("smooth-novac", 'time.scheme="rk2-imp"'),
}

# the lookup's result against get_lapack_funcs, with scipy.linalg imported
# after the first solve and before it
SAME_ROUTINES = """
from mhdlab._kernels import pure
import numpy as np
if LINALG_FIRST:
    import scipy.linalg
{run}
from scipy.linalg import get_lapack_funcs
ref = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (np.empty(0),))
assert all(a is b for a, b in zip(pure._lapack(), ref, strict=True)), ref
"""


def _fresh(code, out_dir):
    """Run `code` in a new interpreter; the modules it left loaded and the
    kernel backend."""
    code = (f"OUT = {str(out_dir)!r}\n{code}\n"
            "import json, sys\nfrom mhdlab import _kernels\n"
            f"print(json.dumps([[m for m in {[LINALG, FLAPACK]!r} "
            "if m in sys.modules], _kernels.BACKEND]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(NO_SOLVE))
def test_no_tridiagonal_solve_leaves_scipy_unloaded(case, tmp_path):
    loaded, _ = _fresh(NO_SOLVE[case], tmp_path)
    assert loaded == []


@pytest.mark.parametrize("case", sorted(SOLVE))
def test_tridiagonal_solve_loads_only_the_lapack_extension(case, tmp_path):
    loaded, backend = _fresh(SOLVE[case], tmp_path)
    # the compiled kernels solve the implicit viscous rows themselves, so
    # without vacuum only the NumPy backend reaches LAPACK
    solves = case != "rk2-imp-novac" or backend == "pure"
    assert loaded == ([FLAPACK] if solves else [])


@pytest.mark.parametrize("linalg_first", [False, True])
def test_get_lapack_funcs_returns_the_loaded_routines(linalg_first, tmp_path):
    code = SAME_ROUTINES.format(run=SOLVE["disk-blowup"])
    loaded, _ = _fresh(f"LINALG_FIRST = {linalg_first}\n{code}", tmp_path)
    assert loaded == [LINALG, FLAPACK]


def test_missing_extension_is_an_import_error(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    monkeypatch.delitem(sys.modules, FLAPACK, raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    pure._lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=FLAPACK) as info:
            pure._lapack()
    finally:
        pure._lapack.cache_clear()
    assert info.value.name == FLAPACK
    assert info.value.path == str(tmp_path / "linalg")
