"""Seeded workloads: which presets run, at which sizes, with which parameters,
and the status each run must end in.

Seed 0 runs the shipped presets unchanged. Any other seed scales a few
profile and physics parameters by factors drawn uniformly from 1 +- JITTER,
applied as ordinary ``key=value`` overrides, so the program only ever sees a
generated scenario. The range is kept narrow on purpose: it varies the inputs
while keeping every run's expected status and output checks, and it moves
step counts by a few percent at most, which keeps the seed-to-seed spread of
the timings well inside the benchmark's bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from mhdlab import config

JITTER = 0.02

WORKLOADS = {
    # disk-blowup refined twice, each run to detection: vacuum balance,
    # implicit viscous solve, front tracking and the flux ledger. It stops at
    # the shipped N=1024 (not 2048) so that a run holds enough passes for
    # run.best_of_passes() to filter the machine's noise.
    "blowup-refine": dict(runs=(("disk-blowup", 256, "BlowupDetected"),
                                ("disk-blowup", 512, "BlowupDetected"),
                                ("disk-blowup", 1024, "BlowupDetected")),
                          refinement=True),
    # the MMS ladder: explicit SSP-RK3, no vacuum, no implicit solve, small
    # arrays and many steps, so per-call overhead and the MMS forcing dominate.
    # It stops at N=128 (about 3k steps, a quarter of N=256's) for the same
    # reason.
    "mms-ladder": dict(mms=("mms", (32, 64, 128))),
    # the other shipped geometries: cylinder swirl/axial solves, the
    # free-boundary remap and stress, and a no-vacuum implicit run that
    # records diagnostics every 10 steps
    "geometry-presets": dict(runs=(("cylinder-blowup", None, "BlowupDetected"),
                                   ("free-blowup", None, "BlowupDetected"),
                                   ("smooth-novac", None, "Completed"))),
}


@dataclass(frozen=True)
class RunSpec:
    """One harness.run call: preset, overrides and the status it must reach."""

    preset: str
    overrides: Tuple[str, ...]
    expect: str
    n: int


@dataclass(frozen=True)
class Workload:
    name: str
    runs: Tuple[RunSpec, ...] = ()
    mms_preset: str = ""
    mms_overrides: Tuple[str, ...] = ()
    mms_n: Tuple[int, ...] = ()
    refinement: bool = False      # runs are one scenario at increasing N

    def configs(self):
        """(preset, overrides) of every scenario the workload sets up."""
        if self.mms_n:
            return [(self.mms_preset, self.mms_overrides + (f"grid.n={n}",))
                    for n in self.mms_n]
        return [(spec.preset, spec.overrides) for spec in self.runs]


def load_config(preset, overrides):
    """Build a config the way ``mhdlab run --preset P --override K=V`` does."""
    pairs = config.parse_pairs(config.load_preset_text(preset))
    return config.build_config(config.apply_overrides(pairs, list(overrides)))


def _scaled_bump(text, factor):
    kind, lo, hi, amp = text.split()
    if kind != "bump":
        raise ValueError(f"expected a bump profile, got {text!r}")
    return f"bump {lo} {hi} {float(amp) * factor!r}"


def _jitter(preset, rng):
    """Overrides that scale the preset's jittered parameters by 1 +- JITTER."""
    pairs = config.parse_pairs(config.load_preset_text(preset))

    def factor():
        return 1.0 + JITTER * (2.0 * rng.random() - 1.0)

    out = {"physics.mu": repr(pairs["physics.mu"] * factor())}
    if preset == "mms":
        out["physics.gamma"] = repr(pairs["physics.gamma"] * factor())
    else:
        amplitudes = ("init.b",) if "vacuum.r0" in pairs else ("init.u", "init.b")
        for key in amplitudes:
            out[key] = '"' + _scaled_bump(pairs[key], factor()) + '"'
    if "vacuum.r0" in pairs:
        # the density bump starts at the vacuum radius, so both move together
        r0 = pairs["vacuum.r0"] * factor()
        _, _, hi, amp = pairs["init.rho"].split()
        out["vacuum.r0"] = repr(r0)
        out["init.rho"] = f'"bump {r0!r} {hi} {amp}"'
    return tuple(f"{k}={v}" for k, v in out.items())


def make_workload(name, seed):
    """The workload's runs for ``seed``; the same seed gives the same inputs."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    desc = WORKLOADS[name]
    rng = random.Random(seed)
    if "mms" in desc:
        preset, ladder = desc["mms"]
        over = _jitter(preset, rng) if seed else ()
        return Workload(name=name, mms_preset=preset, mms_overrides=over,
                        mms_n=tuple(ladder))
    drawn = {}
    runs = []
    for preset, n, expect in desc["runs"]:
        if preset not in drawn:
            # one draw per preset, shared by its refinements
            drawn[preset] = _jitter(preset, rng) if seed else ()
        over = drawn[preset] + ((f"grid.n={n}",) if n else ())
        cfg_n = n or load_config(preset, ()).n
        runs.append(RunSpec(preset=preset, overrides=over, expect=expect, n=cfg_n))
    return Workload(name=name, runs=tuple(runs),
                    refinement=desc.get("refinement", False))
