"""SciPy is loaded by the first tridiagonal solve, not by `import mhdlab`.

Each case runs in a fresh interpreter, since pytest's own process has SciPy
loaded already (tests/test_kernels.py imports it).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_CONFIG = """
from mhdlab import config, harness

def cfg(preset, *overrides):
    pairs = config.parse_pairs(config.load_preset_text(preset))
    return config.build_config(config.apply_overrides(pairs, list(overrides)))
"""

CASES = {
    "import": "import mhdlab",
    "bounds": "from mhdlab.cli import main\n"
              "assert main(['bounds', '--preset', 'disk-blowup']) == 0",
    "mms-ladder": _CONFIG + "harness.convergence_study(cfg('mms'), [16, 32])",
    "ssprk3-novac": _CONFIG
    + "res = harness.run(cfg('smooth-novac', 'grid.n=32', 'time.scheme=\"ssprk3\"'),"
      " out_dir=OUT)\n"
      "assert res.status.value == 'Completed', res.status",
    "disk-blowup": _CONFIG
    + "res = harness.run(cfg('disk-blowup', 'grid.n=32'), out_dir=OUT)\n"
      "assert res.status.value != 'Error', res.outcome.summary",
}


def _loads_scipy(case, out_dir):
    code = (f"OUT = {str(out_dir)!r}\n{CASES[case]}\n"
            "import sys\nprint('scipy.linalg' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("case", ["import", "bounds", "mms-ladder", "ssprk3-novac"])
def test_no_tridiagonal_solve_leaves_scipy_unloaded(case, tmp_path):
    assert not _loads_scipy(case, tmp_path)


def test_vacuum_balance_loads_scipy(tmp_path):
    assert _loads_scipy("disk-blowup", tmp_path)
