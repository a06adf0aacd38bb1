#!/usr/bin/env python3
"""sha256 of every shipped preset's outputs, of the MMS ladder's table and
of the lifespan bounds.

Usage: python benchmarks/preset_hashes.py

Runs each preset through the command line's `run` at its own grid size and
at N=256, and prints the sha256 of the `run.csv` and `run.json` it writes,
one line each; then the sha256 of the stdout of `mhdlab mms --preset mms
--n 32,64,128`, of the same ladder under the IMEX scheme (`--override
'time.scheme="rk2-imp"'`), and of `mhdlab bounds` (the closed-form lifespan
bounds) on each vacuum preset and on disk-blowup at alpha = 1.3. A change that claims
to leave the outputs' bits alone is checked by diffing this script's output
in a checkout of the parent and in one of the change. The runs use the
kernel backend that is installed.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mhdlab.cli import main as cli_main  # noqa: E402
from mhdlab.config import PRESET_NAMES, load_preset  # noqa: E402

EXTRA_N = 256
MMS_LADDER = ["mms", "--preset", "mms", "--n", "32,64,128"]
MMS_IMEX_LADDER = MMS_LADDER[:3] + ["--override", 'time.scheme="rk2-imp"',
                                    *MMS_LADDER[3:]]
BOUNDS = [["bounds", "--preset", name] for name in
          ("disk-blowup", "cylinder-blowup", "free-blowup")]
BOUNDS.append(BOUNDS[0] + ["--override", "diag.alpha=1.3"])


def captured(argv):
    """cli_main(argv) with its stdout captured: (exit code, stdout text)."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = cli_main(argv)
    return rc, text.getvalue()


def preset_lines(name, n):
    with tempfile.TemporaryDirectory() as out:
        rc, _ = captured(["run", "--preset", name, "--override",
                          f"grid.n={n}", "--out", out])
        if rc not in (0, 2):       # Completed or BlowupDetected
            raise SystemExit(f"{name} at n={n} exited {rc}")
        for artifact in ("run.csv", "run.json"):
            with open(os.path.join(out, artifact), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
                yield f"{name} n={n} {artifact} {digest}"


def main():
    for name in PRESET_NAMES:
        shipped = load_preset(name).n
        for n in sorted({shipped, EXTRA_N}):
            for line in preset_lines(name, n):
                print(line, flush=True)
    for argv in [MMS_LADDER, MMS_IMEX_LADDER, *BOUNDS]:
        rc, text = captured(argv)
        if rc != 0:
            raise SystemExit(f"mhdlab {' '.join(argv)} exited {rc}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"mhdlab {' '.join(argv)} stdout {digest}", flush=True)


if __name__ == "__main__":
    main()
