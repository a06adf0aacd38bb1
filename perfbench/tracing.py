"""In-memory span tracing of mhdlab's layers, installed from outside the package.

Each layer is a set of public functions. Installing a layer replaces every
reference to those functions in the loaded ``mhdlab`` modules (so names
imported with ``from .solver import step`` are wrapped too) and restoring puts
the originals back. A timed wrapper records a span (name, start, end, parent
span, run id); a count-only wrapper just counts calls, for helpers called so
often that timing them would distort the trace. Either kind can also add up a
measure of work per call (nodes, rows, bytes, solves).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

ROOT = "bench.pass"


@dataclass(frozen=True)
class Layer:
    """One measured layer: the functions it wraps and how."""

    name: str
    module: str                  # module below ``mhdlab`` that defines them
    functions: Tuple[str, ...]
    timed: bool = True
    work: Optional[Callable] = None     # (args, result) -> work units
    only_in: Optional[str] = None       # wrap references in this module only
    owner: Optional[str] = None         # class holding the function (methods)
    marks: bool = False                 # record each call's start time


def _nodes_of_state(args, result):
    return args[0].rho.shape[0]


def _nodes_of_grid(args, result):
    return args[0].shape[0]


def _rows(args, result):
    return args[1].shape[0]


def _solves(args, result):
    return 1 if result >= 1 else 0


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# The step counter runs in untraced runs too: it is how the benchmark learns
# the step and node-step counts, which neither run() nor convergence_study()
# returns, and the start time of every step. Its cost is one Python call and
# one clock read per step (well under 0.1% of a step).
STEP_COUNTER = Layer("solver.step", "solver", ("step",), timed=False,
                     work=_nodes_of_state, marks=True)

LAYERS = (
    Layer("harness.run", "harness", ("run", "convergence_study")),
    Layer("harness.emit", "harness", ("records_to_csv", "outcome_to_json"),
          work=_text_bytes),
    Layer("solver.step", "solver", ("step",), work=_nodes_of_state),
    Layer("solver.rhs", "solver", ("rhs_disk", "rhs_cylinder")),
    Layer("solver.finalize_stage", "solver", ("finalize_stage",)),
    Layer("solver.apply_vacuum_balance", "solver", ("apply_vacuum_balance",),
          work=_solves),
    Layer("solver.implicit_viscous", "solver", ("implicit_viscous",)),
    Layer("solver.cfl_dt", "solver", ("cfl_dt",)),
    Layer("solver.detect_blowup", "solver", ("detect_blowup",)),
    Layer("solver.signal_speeds", "solver", ("signal_speeds",), timed=False),
    Layer("solver.vacuum_block", "solver", ("vacuum_block",), timed=False),
    # kernels are wrapped at the backend-neutral API only, so calls a backend
    # makes internally (the NumPy cylinder kernel calls the disk kernel and
    # the gradient) are not counted twice
    Layer("kernels.tendency", "_kernels", ("disk_tendency", "cylinder_tendency"),
          work=_nodes_of_grid, only_in="_kernels"),
    Layer("kernels.thomas", "_kernels", ("thomas",), work=_rows,
          only_in="_kernels"),
    Layer("kernels.gradient", "_kernels", ("gradient",), timed=False,
          only_in="_kernels"),
    Layer("mms.forcing", "mms", ("__call__",), owner="MMSForcing"),
    Layer("vacuum.front", "vacuum", ("advance_front",)),
    Layer("vacuum.ledger", "vacuum", ("vacuum_flux", "check_vacuum")),
    Layer("diagnostics.dissipation_rate", "diagnostics", ("dissipation_rate",)),
    Layer("diagnostics.record", "diagnostics",
          ("total_energy", "div_norm", "moment_pair")),
    # detect_blowup calls max_grad_u every step as its health check; only the
    # call from the record belongs to this layer
    Layer("diagnostics.record", "solver", ("max_grad_u",), only_in="harness"),
    Layer("diagnostics.bounds", "diagnostics", ("optimize_alpha",)),
    Layer("freeboundary.free_step", "freeboundary", ("free_step",)),
    Layer("freeboundary.remap_state", "freeboundary", ("remap_state",)),
    Layer("freeboundary.advance_domain", "freeboundary", ("advance_domain",)),
    Layer("core.init_scenario", "core", ("init_scenario",)),
    Layer("core.integrate", "core", ("integrate", "integrate_to")),
    Layer("config.load_preset", "config",
          ("load_preset", "load_preset_text", "parse_pairs", "apply_overrides",
           "build_config")),
)


def layer_names():
    """Distinct layer names in table order, and whether each is timed."""
    out = {}
    for layer in LAYERS:
        out.setdefault(layer.name, layer.timed)
    return out


class Tracer:
    """Owns the spans, counters and installed wrappers of one benchmark run.

    Spans live in flat arrays rather than one object per span, so a long
    trace adds nothing for the garbage collector to walk.
    """

    def __init__(self):
        self.names = []                  # span i: names[i], starts[i], ...
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")       # index of the enclosing span, or -1
        self.runs = array("q")          # run id the span belongs to
        self.calls = Counter()
        self.work = Counter()
        self.marks = array("d")         # start times of ``marks`` layers
        self.run_id = 0
        self._stack = [-1]
        self._patched = []               # (object, attribute, original)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.runs.append(self.run_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name, fn, work, marks):
        calls, tally = self.calls, self.work
        mark = self.marks.append if marks else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if mark is not None:
                mark(clock())
            result = fn(*args, **kwargs)
            if work is not None:
                tally[name] += work(args, result)
            return result
        return wrapper

    def _timed(self, name, fn, work):
        calls, tally, open_, close = self.calls, self.work, self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if work is not None:
                tally[name] += work(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Time one pass as the root span; every other span nests inside it."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ---------------------------------------------------------

    def install(self, layers):
        """Wrap every function of ``layers`` wherever mhdlab refers to it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "mhdlab"
                                           or name.startswith("mhdlab."))}
        for layer in layers:
            home = modules["mhdlab." + layer.module]
            for fname in layer.functions:
                if layer.owner is not None:
                    cls = getattr(home, layer.owner)
                    original = cls.__dict__[fname]
                    self._set(cls, fname, original, self._wrap(layer, original))
                    continue
                original = getattr(home, fname)
                wrapped = self._wrap(layer, original)
                targets = ([modules["mhdlab." + layer.only_in]]
                           if layer.only_in else modules.values())
                hits = 0
                for mod in targets:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, original, wrapped)
                            hits += 1
                if hits == 0:
                    raise RuntimeError(f"{layer.name}: no reference to "
                                       f"{layer.module}.{fname} to wrap")

    def _wrap(self, layer, fn):
        if layer.timed:
            return self._timed(layer.name, fn, layer.work)
        return self._counted(layer.name, fn, layer.work, layer.marks)

    def _set(self, obj, attr, original, wrapped):
        setattr(obj, attr, wrapped)
        self._patched.append((obj, attr, original))

    def restore(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per-name self time: a span's duration minus its children's."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = Counter()
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - child[i]
        return out

    def durations(self, name):
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]

    def write_spans(self, path):
        """Dump the spans as gzipped CSV (times relative to the first span)."""
        t0 = self.starts[0] if self.names else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},"
                         f"{self.runs[i]}\n")
