"""What a cold start loads: `import mhdlab` loads no submodule and no NumPy,
the set-up path and `mhdlab bounds` leave the run loop unloaded, SciPy's
LAPACK extension is loaded by the NumPy kernels' first tridiagonal solve,
and no run imports `scipy.linalg`. The kernel backend is the compiled extension when
it is built and the NumPy kernels when it is not; a built extension that
fails to load is an ImportError. The package's public names resolve,
lazily, to the objects of their home modules.

Each cold-start case is executed in a fresh interpreter, since pytest's own
process has every module loaded already (tests/test_kernels.py imports
`scipy.linalg`).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import mhdlab
from mhdlab._kernels import pure

SRC = Path(__file__).resolve().parent.parent / "src"
LINALG = "scipy.linalg"
FLAPACK = "scipy.linalg._flapack"
# the modules only a simulation needs
RUN_LOOP = {"mhdlab.freeboundary", "mhdlab.harness", "mhdlab.picard",
            "mhdlab.solver"}

_CONFIG = """
from mhdlab import config

def cfg(preset, *overrides):
    pairs = config.parse_pairs(config.load_preset_text(preset))
    return config.build_config(config.apply_overrides(pairs, list(overrides)))
"""


def _run(preset, *overrides):
    args = ", ".join(repr(o) for o in ("grid.n=32",) + overrides)
    return (_CONFIG + "from mhdlab import harness\n"
            f"res = harness.run(cfg({preset!r}, {args}), out_dir=OUT)\n"
            "assert res.status.value != 'Error', res.outcome.summary")


# what perfbench/setup_probe.py times: the config, the initial state and the
# lifespan bound's exponent
_SETUP = _CONFIG + """
from mhdlab import core, diagnostics
c = cfg(PRESET)
state, front = core.init_scenario(c)
e0 = diagnostics.total_energy(state, c.grid(), c.phys)
diagnostics.optimize_alpha(diagnostics.bound_template(
    c, 0.0 if front is None else front.C0, e0))
"""

NO_SOLVE = {
    "import": "import mhdlab",
    "bounds": "from mhdlab.cli import main\n"
              "assert main(['bounds', '--preset', 'disk-blowup']) == 0",
    "mms-ladder": _CONFIG + "from mhdlab import harness\n"
                  "harness.convergence_study(cfg('mms'), [16, 32])",
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
ref, = get_lapack_funcs(("gtsv",), (np.empty(0),))
assert pure._lapack() is ref, ref
"""


# an extension that is found but fails to load, as a .so built against
# another libpython does; the finder is taken out again so that _fresh's
# own import of mhdlab._kernels reports the installed backend
BROKEN_EXTENSION = """
import importlib.abc, importlib.util, sys

class Broken(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    def find_spec(self, name, path, target=None):
        if name == "mhdlab._kernels._core":
            return importlib.util.spec_from_loader(name, self)

    def create_module(self, spec):
        raise ImportError("undefined symbol: PyFoo_Bar")

    def exec_module(self, module):
        pass

sys.meta_path.insert(0, Broken())
try:
    import mhdlab._kernels
except ImportError as exc:
    assert type(exc) is ImportError and str(exc) == "undefined symbol: PyFoo_Bar", exc
else:
    raise AssertionError("selected " + mhdlab._kernels.BACKEND)
sys.meta_path.pop(0)
"""


def _fresh(code, out_dir):
    """Run `code` in a new interpreter; the SciPy modules it left loaded, the
    kernel backend, and the `mhdlab.*` modules it left loaded (taken before
    this function's own import of `mhdlab._kernels`)."""
    code = (f"OUT = {str(out_dir)!r}\n{code}\n"
            "import json, sys\n"
            "_own = sorted(m for m in sys.modules if m.startswith('mhdlab.'))\n"
            "from mhdlab import _kernels\n"
            f"print(json.dumps([[m for m in {[LINALG, FLAPACK]!r} "
            "if m in sys.modules], _kernels.BACKEND, _own]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(NO_SOLVE))
def test_no_tridiagonal_solve_leaves_scipy_unloaded(case, tmp_path):
    loaded, _, _ = _fresh(NO_SOLVE[case], tmp_path)
    assert loaded == []


@pytest.mark.parametrize("case", sorted(SOLVE))
def test_tridiagonal_solve_loads_only_the_lapack_extension(case, tmp_path):
    loaded, backend, _ = _fresh(SOLVE[case], tmp_path)
    # the compiled kernels solve every tridiagonal system themselves, so
    # only the NumPy backend reaches LAPACK
    assert loaded == ([FLAPACK] if backend == "pure" else [])


@pytest.mark.parametrize("linalg_first", [False, True])
def test_get_lapack_funcs_returns_the_loaded_routines(linalg_first, tmp_path):
    code = SAME_ROUTINES.format(run=SOLVE["disk-blowup"])
    loaded, _, _ = _fresh(f"LINALG_FIRST = {linalg_first}\n{code}", tmp_path)
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


def test_broken_extension_raises_its_own_import_error(tmp_path):
    _fresh(BROKEN_EXTENSION, tmp_path)


@pytest.mark.parametrize("value", ["pure", "cython"])
def test_backend_is_the_installed_one_whatever_the_environment(
        value, tmp_path, monkeypatch):
    # the variable a backend switch once read: no setting picks the backend
    built = importlib.util.find_spec("mhdlab._kernels._core") is not None
    monkeypatch.setenv("MHDLAB_KERNELS", value)
    _, backend, _ = _fresh("", tmp_path)
    assert backend == ("cython" if built else "pure")


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    code = NO_SOLVE["import"] + "\nimport sys\nassert 'numpy' not in sys.modules"
    _, _, own = _fresh(code, tmp_path)
    assert own == []


def test_submodule_loads_on_first_access(tmp_path):
    code = ("import sys\nimport mhdlab\n"
            "assert mhdlab.harness is sys.modules['mhdlab.harness']\n"
            "assert mhdlab.harness.run is mhdlab.run")
    _, _, own = _fresh(code, tmp_path)
    assert "mhdlab.harness" in own


@pytest.mark.parametrize("preset, unloaded", [
    ("disk-blowup", RUN_LOOP), ("mms", RUN_LOOP | {"mhdlab.vacuum"})])
def test_setup_path_leaves_the_run_loop_unloaded(preset, unloaded, tmp_path):
    _, _, own = _fresh(f"PRESET = {preset!r}\n{_SETUP}", tmp_path)
    assert {"mhdlab.config", "mhdlab.core", "mhdlab.diagnostics"} <= set(own)
    assert unloaded.isdisjoint(own), own


def test_bounds_leaves_the_run_loop_unloaded(tmp_path):
    _, _, own = _fresh(NO_SOLVE["bounds"], tmp_path)
    assert (RUN_LOOP | {"mhdlab.mms"}).isdisjoint(own), own


def test_public_names_are_their_home_modules_objects():
    assert len(mhdlab.__all__) == 50
    star = {}
    exec("from mhdlab import *", star)
    for name in mhdlab.__all__:
        obj = getattr(mhdlab, name)
        home = getattr(obj, "__module__", None)
        if home is None:            # BACKEND is a str
            home = "mhdlab._kernels"
        assert getattr(importlib.import_module(home), name) is obj, name
        assert star[name] is obj, name
        # looked up on each access, never stored on the package
        assert name not in vars(mhdlab), name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(mhdlab.__all__) <= set(dir(mhdlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        mhdlab.no_such_name


def test_patching_the_home_module_shows_through_the_package(monkeypatch):
    import mhdlab.solver
    original = mhdlab.solver.step

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(mhdlab.solver, "step", patched)
    assert mhdlab.step is patched
    monkeypatch.undo()
    assert mhdlab.step is original
