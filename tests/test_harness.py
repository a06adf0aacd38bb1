"""Run orchestration: statuses, records, deterministic outputs, CLI."""

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from mhdlab import Geometry, PhysParams, Profile, RunStatus, SolverSettings
from mhdlab.cli import main as cli_main
from mhdlab.config import (apply_overrides, build_config, load_preset,
                           load_preset_text, parse_pairs)
from mhdlab.core import ScenarioConfig, Weight, integrate
from mhdlab.errors import DtCollapse
from mhdlab.harness import (CSV_HEADER, convergence_study, outcome_to_json,
                            records_to_csv, run)


def small(preset, **kw):
    """The preset at n=128, stride 5; keywords naming a SolverSettings field
    replace that solver setting, the others the config field."""
    cfg = load_preset(preset)
    base = dict(n=128, output_stride=5)
    base.update(kw)
    solver = {f.name: base.pop(f.name) for f in dataclasses.fields(SolverSettings)
              if f.name in base}
    return dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, **solver),
                               **base)


def quiescent_config():
    phys = PhysParams(mu=1.0, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)
    return ScenarioConfig(n=64, r_outer=1.0, phys=phys, profiles={}, t_end=0.2,
                          output_stride=5)


class TestRun:
    def test_quiescent_completes(self):
        res = run(quiescent_config())
        assert res.status is RunStatus.COMPLETED
        assert res.outcome.t_final == pytest.approx(0.2)
        assert res.outcome.T_detected is None

    def test_smooth_preset_completes(self):
        res = run(small("smooth-novac", t_end=0.05))
        assert res.status is RunStatus.COMPLETED
        recs = res.records
        assert recs[0].t == 0.0 and recs[-1].t == pytest.approx(0.05)
        assert all(r.flux_vacuum is None for r in recs)   # no vacuum region
        s = res.outcome.summary
        assert s["residuals"]["energy"] is not None
        assert s["C0"] is None
        # healthy-run ledgers: mass conserved, no clipping on smooth data
        assert s["mass_residual"] <= 1e-6
        assert s["clipped_mass_rel"] <= 1e-8
        assert s["stop_reason"] is None       # no health check stopped it

    def test_blowup_implies_detected_before_t_end(self):
        res = run(small("disk-blowup", n=256))
        assert res.status is RunStatus.BLOWUP_DETECTED
        cfg = small("disk-blowup", n=256)
        assert res.outcome.T_detected is not None
        assert res.outcome.T_detected <= cfg.t_end

    def test_exit_code_mapping(self):
        from mhdlab.harness import EXIT_CODES
        assert EXIT_CODES[RunStatus.COMPLETED] == 0
        assert EXIT_CODES[RunStatus.ERROR] == 1
        assert EXIT_CODES[RunStatus.BLOWUP_DETECTED] == 2
        assert EXIT_CODES[RunStatus.INVALIDATED] == 3

    def test_disk_blowup_detected(self):
        res = run(small("disk-blowup", n=256))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert res.outcome.T_detected is not None
        assert res.outcome.T_detected <= res.outcome.summary["T_bound"]
        last = res.records[-1]
        assert last.flux_vacuum is not None and last.R_front is not None

    def test_records_monotone_time(self):
        res = run(small("smooth-novac", t_end=0.03))
        times = [r.t for r in res.records]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_free_records_carry_boundary(self):
        res = run(small("free-blowup", n=256))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert all(r.a_boundary is not None for r in res.records)
        assert all(r.R_front <= r.a_boundary for r in res.records)

    def test_front_past_the_free_boundary_is_an_error(self, monkeypatch):
        # a front pushed past a(t) leaves the domain of the grid it is
        # advanced on, so the run ends on the tracker's TrackingError; on a
        # free geometry the front moves inside the free step
        import mhdlab.freeboundary
        advance = mhdlab.freeboundary.advance_front
        calls = []

        def kicked(front, u, grid, dt):
            calls.append(dt)
            if len(calls) == 5:
                u = u + 2.0 / dt
            return advance(front, u, grid, dt)

        monkeypatch.setattr(mhdlab.freeboundary, "advance_front", kicked)
        res = run(small("free-blowup", n=64))
        assert len(calls) == 5
        assert res.status is RunStatus.ERROR
        assert "front left the domain" in res.outcome.summary["invalid_reason"]

    def test_eps_vac_guard(self):
        cfg = small("disk-blowup", n=128, eps_vac=0.5)
        res = run(cfg)
        assert res.status is RunStatus.ERROR

    def test_unreachable_dt_min_is_config_error(self):
        cfg = small("smooth-novac", t_end=0.05, dt_min=1.0)
        res = run(cfg)
        assert res.status is RunStatus.ERROR
        assert "dt" in res.outcome.summary.get("invalid_reason", "")

    @pytest.mark.parametrize("override, field", [
        ('init.p="constant inf"', "P"),
        ('init.rho="poly 1e308 1e308 0"', "rho"),
        ('init.u="constant nan"', "u")])
    def test_non_finite_initial_field_is_an_error(self, override, field):
        pairs = parse_pairs(load_preset_text("smooth-novac"))
        cfg = build_config(apply_overrides(pairs, ["grid.n=32", override]))
        with warnings.catch_warnings():       # 1e308 + 1e308 r overflows quietly
            warnings.simplefilter("error", RuntimeWarning)
            res = run(cfg)
        assert res.status is RunStatus.ERROR
        assert res.outcome.summary["error"] == (
            f"non-finite values in field {field}")


class TestDetectedAtTheAxis:
    """A blow-up preset at N=48 or N=64 runs many steps and stops on the
    gradient threshold at the axis, where the event forms. At N=32 the
    presets stop instead on a gradient at the vacuum edge, at node 15 past
    a block ending at node 13 (disk-blowup after 19 steps, at t = 0.482),
    an artefact of a grid too coarse for them."""

    @pytest.mark.parametrize("preset, n", [
        pytest.param(preset, n, id=preset if n == 64 else f"{preset}-n{n}")
        for n in (64, 48)
        for preset in ("disk-blowup", "cylinder-blowup", "free-blowup")])
    def test_stops_at_node_0_on_the_gradient(self, monkeypatch, preset, n):
        import mhdlab.harness
        from mhdlab._kernels import radial_parts
        detect = mhdlab.harness.detect_blowup
        checks = []

        def watched(state, grid, p, s):
            health = detect(state, grid, p, s)
            checks.append((state, grid, health))
            return health

        monkeypatch.setattr(mhdlab.harness, "detect_blowup", watched)
        res = run(dataclasses.replace(load_preset(preset), n=n))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert res.outcome.summary["stop_reason"] == "gradu"
        assert len(checks) >= 20            # one health check per step
        state, grid, health = checks[-1]
        ur, uor = radial_parts(state.u, grid.nodes, grid.dr)
        gradu = np.maximum(np.abs(ur), np.abs(uor))
        assert gradu.max() == health.max_gradu
        assert int(np.argmax(gradu)) == 0


class TestOneCflPerStep:
    """run() takes each step's dt from the previous step's health check, and
    each record's max_gradu from its state's health check."""

    def count_calls(self, monkeypatch, cfg):
        import mhdlab.harness
        import mhdlab.solver
        counts = {"cfl_dt": 0, "step": 0, "max_grad_u": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        cfl = counting("cfl_dt", mhdlab.solver.cfl_dt)
        monkeypatch.setattr(mhdlab.solver, "cfl_dt", cfl)
        monkeypatch.setattr(mhdlab.harness, "cfl_dt", cfl)
        grad = counting("max_grad_u", mhdlab.solver.max_grad_u)
        monkeypatch.setattr(mhdlab.solver, "max_grad_u", grad)
        monkeypatch.setattr(mhdlab.harness, "max_grad_u", grad)
        monkeypatch.setattr(mhdlab.harness, "step",
                            counting("step", mhdlab.harness.step))
        return run(cfg), counts

    def test_completed_run(self, monkeypatch):
        # one dt before the first step, then one health check per step; the
        # last check's dt goes unused
        res, counts = self.count_calls(
            monkeypatch, small("disk-blowup", n=64, t_end=0.2))
        assert res.status is RunStatus.COMPLETED
        assert counts["step"] > 5
        assert counts["cfl_dt"] == counts["step"] + 1

    def test_blowup_run(self, monkeypatch):
        # the last health check stops on the gradient before it gets to cfl_dt
        res, counts = self.count_calls(monkeypatch, small("disk-blowup", n=64))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert counts["step"] > 5
        assert counts["cfl_dt"] == counts["step"]

    def test_one_gradient_per_recorded_state(self, monkeypatch):
        # the initial record's, then one per step from the health check,
        # which every record reuses
        res, counts = self.count_calls(
            monkeypatch, small("disk-blowup", n=64, output_stride=1))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert counts["step"] > 5
        assert len(res.records) == counts["step"] + 1
        assert counts["max_grad_u"] == counts["step"] + 1


class TestRunReport:
    """run.json says why a run stopped and counts the balance solves and the
    pressure clipped at zero."""

    def test_dt_collapse_stop(self, monkeypatch):
        # the health check after the first step finds dt collapsed
        import mhdlab.solver

        def collapsed(state, grid, p, s):
            raise DtCollapse(0.0, s.dt_min)

        monkeypatch.setattr(mhdlab.solver, "cfl_dt", collapsed)
        res = run(small("smooth-novac", t_end=0.05))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert res.outcome.summary["stop_reason"] == "dt"
        assert res.outcome.T_detected == res.records[1].t > 0.0

    def test_balance_solves_and_clipped_pressure(self, monkeypatch):
        # every balance solve is counted, and the r-weighted pressure pushed
        # below zero before each stage's clip is what the run reports
        import mhdlab.solver
        solves = []
        clipped = []
        balance = mhdlab.solver.apply_vacuum_balance
        finalize_stage = mhdlab.solver.finalize_stage

        def counted(state, p, grid, s, stats=None):
            m = balance(state, p, grid, s, stats)
            if m >= 1:
                solves.append(m)
            return m

        def dented(state, p, grid, s, stats=None, balance=True):
            k = grid.n_cells // 2
            dent = np.zeros_like(state.P)
            dent[k] = state.P[k] = -1e-3 * (1 + len(clipped))
            clipped.append(-integrate(dent, grid, Weight.RADIAL_R))
            finalize_stage(state, p, grid, s, stats, balance)

        monkeypatch.setattr(mhdlab.solver, "apply_vacuum_balance", counted)
        monkeypatch.setattr(mhdlab.solver, "finalize_stage", dented)
        res = run(small("disk-blowup", n=64))
        assert res.status is RunStatus.BLOWUP_DETECTED
        s = res.outcome.summary
        assert s["balance_solves"] == len(solves) > len(res.records)
        assert len(clipped) > 5
        assert s["clipped_pressure"] == pytest.approx(sum(clipped), rel=1e-12)


def numpy_wrapper_files():
    """Source files of NumPy's Python-level reduction wrappers (np.max,
    np.all, ndarray.any, ...)."""
    try:
        from numpy._core import _methods, fromnumeric
    except ImportError:         # NumPy 1.x
        from numpy.core import _methods, fromnumeric
    return {fromnumeric.__file__, _methods.__file__}


def scalar_counting_numpy(modules, counts):
    """A stand-in for `numpy` in each module whose named ufuncs (the ones
    its source calls as np.<name>) count their calls in counts["ufuncs"]
    and add to counts["scalars"] every positional Python int or float
    operand (bools aside) they are handed. `.reduce` still works; every
    other name is numpy's own."""
    import inspect
    import re
    import types

    class Counted:
        def __init__(self, ufunc):
            self.ufunc = ufunc
            self.reduce = ufunc.reduce

        def __call__(self, *args, **kwargs):
            counts["ufuncs"] += 1
            counts["scalars"] += sum(isinstance(a, (int, float))
                                     and not isinstance(a, bool) for a in args)
            return self.ufunc(*args, **kwargs)

    stand_ins = {}
    for module in modules:
        names = set(re.findall(r"\bnp\.(\w+)", inspect.getsource(module)))
        ufuncs = {n: Counted(getattr(np, n)) for n in names
                  if isinstance(getattr(np, n, None), np.ufunc)}
        assert ufuncs
        stand_in = types.ModuleType("numpy")
        stand_in.__getattr__ = lambda name: getattr(np, name)
        stand_in.__dict__.update(ufuncs)
        stand_ins[module] = stand_in
    return stand_ins


class TestWorkPerStep:
    """Per-step calls of the finiteness scan and of np.isfinite, the
    vacuum-block search and the free grid's builds, the forcing's profile
    builds and evaluations, the frames entered in NumPy's reduction
    wrappers, the Python-number operands of the NumPy kernels' and the
    solver's ufunc calls, and the pressure gradients of the NumPy kernels
    and the vacuum balance, counted between the starts of consecutive steps
    of run() (one step plus its health check)."""

    def per_step(self, monkeypatch, cfg, keys=("scan", "block")):
        import sys

        import mhdlab._kernels
        import mhdlab.core
        import mhdlab.freeboundary
        import mhdlab.harness
        import mhdlab.mms
        import mhdlab.solver
        counts = {"scan": 0, "block": 0, "table": 0, "eval": 0, "grid": 0,
                  "rows": 0, "wrapped": 0, "scalars": 0, "ufuncs": 0,
                  "pressure": 0, "isfinite": 0}
        marks = []
        wrapper_files = numpy_wrapper_files()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename in wrapper_files:
                counts["wrapped"] += 1

        def profiled(fn):
            # frames are counted only inside the step and its per-step
            # checks, not in the records written every output.stride steps
            def wrapper(*args, **kwargs):
                outer = sys.getprofile()
                sys.setprofile(profile)
                try:
                    return fn(*args, **kwargs)
                finally:
                    sys.setprofile(outer)
            return wrapper

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def marking(fn):
            def wrapper(*args, **kwargs):
                marks.append(dict(counts))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mhdlab.solver, "_check_finite",
                            counting("scan", mhdlab.solver._check_finite))
        monkeypatch.setattr(mhdlab.solver, "vacuum_block",
                            counting("block", mhdlab.solver.vacuum_block))
        monkeypatch.setattr(mhdlab.mms.MMSForcing, "_tabulate",
                            counting("table", mhdlab.mms.MMSForcing._tabulate))
        monkeypatch.setattr(mhdlab.mms.MMSForcing, "_evaluate",
                            counting("eval", mhdlab.mms.MMSForcing._evaluate))
        monkeypatch.setattr(mhdlab.freeboundary, "make_grid",
                            counting("grid", mhdlab.freeboundary.make_grid))
        monkeypatch.setattr(mhdlab.core, "laplacian_rows",
                            counting("rows", mhdlab.core.laplacian_rows))
        if "wrapped" in keys:
            for name in ("step", "free_step", "advance_front",
                         "dissipation_rate", "detect_blowup"):
                monkeypatch.setattr(mhdlab.harness, name,
                                    profiled(getattr(mhdlab.harness, name)))
        if "scalars" in keys:
            # the NumPy kernels whatever the backend
            pure = mhdlab._kernels.pure
            for name in ("disk_tendency", "cylinder_tendency", "thomas"):
                monkeypatch.setattr(mhdlab._kernels, name, getattr(pure, name))
            stand_ins = scalar_counting_numpy((pure, mhdlab.solver), counts)
            for module, stand_in in stand_ins.items():
                monkeypatch.setattr(module, "np", stand_in)
        if "pressure" in keys:
            self.count_pressure_gradients(monkeypatch, counts)
        if "isfinite" in keys:
            monkeypatch.setattr(np, "isfinite", counting("isfinite", np.isfinite))
        monkeypatch.setattr(mhdlab.harness, "step", marking(mhdlab.harness.step))
        monkeypatch.setattr(mhdlab.harness, "free_step",
                            marking(mhdlab.harness.free_step))
        res = run(cfg)
        assert len(marks) > 5
        # from the second step on: each step's work and its health check
        deltas = {tuple(b[k] - a[k] for k in keys)
                  for a, b in zip(marks[1:], marks[2:])}
        return res, deltas, counts

    @staticmethod
    def count_pressure_gradients(monkeypatch, counts):
        """Count in counts["pressure"] each P_r the NumPy kernels (whatever
        the backend) and the vacuum balance's right-hand side (of the
        balance and of the implicit solve's block rows) take: a `_gradient`
        or `central_difference` of an array sharing memory with the P of the
        kernel call or right-hand side it runs in."""
        import mhdlab._kernels
        import mhdlab.solver
        pure = mhdlab._kernels.pure
        for name in ("disk_tendency", "cylinder_tendency"):
            monkeypatch.setattr(mhdlab._kernels, name, getattr(pure, name))
        current = {"P": None}

        def holding_P(fn, P_of):
            def wrapper(*args, **kwargs):
                current["P"] = P_of(args)
                return fn(*args, **kwargs)
            return wrapper

        def of_P(fn):
            def wrapper(f, *args, **kwargs):
                P = current["P"]
                counts["pressure"] += P is not None and np.shares_memory(f, P)
                return fn(f, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(pure, "_tendency",
                            holding_P(pure._tendency, lambda args: args[4]))
        monkeypatch.setattr(mhdlab.solver, "_balance_source",
                            holding_P(mhdlab.solver._balance_source,
                                      lambda args: args[0][-2]))
        monkeypatch.setattr(pure, "_gradient", of_P(pure._gradient))
        monkeypatch.setattr(mhdlab.solver, "central_difference",
                            of_P(mhdlab.solver.central_difference))

    @pytest.mark.parametrize("preset, per_step", [
        ("disk-blowup", 0), ("cylinder-blowup", 0), ("free-blowup", 0),
        ("smooth-novac", 3), ("mms", 3)])
    def test_pressure_gradients(self, monkeypatch, preset, per_step):
        # one per kernel call with pressure (rk2-imp's three explicit
        # stages, ssprk3's three); none on the blow-up presets, whose P
        # stays +0 (TestBlowupPresetsStayPressureless), in the kernels, in
        # the two implicit solves' block rows or in the vacuum balance of a
        # step
        cfg = small(preset, n=64, t_end=0.05)
        res, deltas, counts = self.per_step(monkeypatch, cfg, keys=("pressure",))
        assert res.status is RunStatus.COMPLETED
        assert deltas == {(per_step,)}
        if not per_step:
            assert counts["pressure"] == 0

    def test_disk_blowup_rk2_imp(self, monkeypatch):
        cfg = small("disk-blowup", n=64, t_end=0.2)
        assert cfg.solver.scheme.value == "rk2-imp" and cfg.r0 is not None
        res, deltas, _ = self.per_step(monkeypatch, cfg)
        assert res.status is RunStatus.COMPLETED
        # scans: the two implicit stages, each after its solve, and the end
        # state; blocks: the three stages finalized after an explicit update
        # (the implicit solves keep the density, so a stage keeps its block)
        assert deltas == {(3, 3)}

    def test_smooth_novac_rk2_imp(self, monkeypatch):
        cfg = small("smooth-novac", n=64, t_end=0.2)
        assert cfg.solver.scheme.value == "rk2-imp" and cfg.r0 is None
        res, deltas, _ = self.per_step(monkeypatch, cfg)
        assert res.status is RunStatus.COMPLETED
        # the scans of the disk-blowup case; no block search, as every
        # stage's density minimum, taken when it is finalized, is above
        # eps_vac
        assert deltas == {(3, 0)}

    @pytest.mark.parametrize("preset, per_step", [
        ("disk-blowup", 11), ("cylinder-blowup", 23), ("smooth-novac", 9)])
    def test_finiteness_scans(self, monkeypatch, preset, per_step):
        # np.isfinite calls, under either backend: one per state scan (three,
        # see test_disk_blowup_rk2_imp), and per tridiagonal solve the
        # solver's scans of the system it built and of the solution: three
        # for each velocity row of the two implicit stages (diagonal,
        # right-hand side, solution), two for the end-of-step vacuum
        # balance (right-hand side, solution); `thomas` scans nothing
        cfg = small(preset, n=64, t_end=0.05)
        assert cfg.solver.scheme.value == "rk2-imp"
        res, deltas, _ = self.per_step(monkeypatch, cfg, keys=("isfinite",))
        assert res.status is RunStatus.COMPLETED
        assert deltas == {(per_step,)}

    def test_free_blowup_builds_one_grid_per_step(self, monkeypatch):
        cfg = small("free-blowup", n=64)
        res, deltas, _ = self.per_step(monkeypatch, cfg, keys=("grid", "rows"))
        assert res.status is RunStatus.BLOWUP_DETECTED
        # the rescaled grid, and its viscous stencil rows for the next step
        assert deltas == {(1, 1)}

    def test_mms_ssprk3(self, monkeypatch):
        cfg = dataclasses.replace(load_preset("mms"), n=32, t_end=0.05)
        assert cfg.solver.scheme.value == "ssprk3"
        res, deltas, counts = self.per_step(monkeypatch, cfg,
                                            keys=("scan", "block", "eval"))
        assert res.status is RunStatus.COMPLETED
        # no stage has vacuum, so none searches for a block; the forcing at
        # t + dt is kept from the step before
        assert deltas == {(3, 0, 2)}
        assert counts["table"] == 1      # one grid, one table

    @pytest.mark.parametrize("preset, scheme", [
        ("mms", "ssprk3"), ("disk-blowup", "rk2-imp"),
        ("cylinder-blowup", "rk2-imp"), ("free-blowup", "rk2-imp")])
    def test_no_numpy_reduction_wrappers(self, monkeypatch, preset, scheme):
        cfg = small(preset, n=64, t_end=0.05, output_stride=4)
        assert cfg.solver.scheme.value == scheme
        res, deltas, _ = self.per_step(monkeypatch, cfg, keys=("wrapped",))
        assert res.status is RunStatus.COMPLETED
        assert deltas == {(0,)}

    @pytest.mark.parametrize("preset, scheme", [
        ("mms", "ssprk3"), ("disk-blowup", "rk2-imp"),
        ("cylinder-blowup", "rk2-imp"), ("free-blowup", "rk2-imp")])
    def test_no_python_number_ufunc_operands(self, monkeypatch, preset, scheme):
        # NumPy converts and promotes a Python number operand on every call;
        # the step path hands its ufuncs prebuilt 0-d arrays instead
        cfg = small(preset, n=64, t_end=0.05, output_stride=4)
        assert cfg.solver.scheme.value == scheme
        res, deltas, _ = self.per_step(monkeypatch, cfg,
                                       keys=("scalars", "ufuncs"))
        assert res.status is RunStatus.COMPLETED
        assert {scalars for scalars, _ in deltas} == {0}
        assert min(ufuncs for _, ufuncs in deltas) > 20

    @pytest.mark.parametrize("preset", ["disk-blowup", "free-blowup",
                                        "smooth-novac", "mms"])
    def test_one_stage_for_the_initial_state(self, monkeypatch, preset):
        # the initial balance, the first cfl_dt and the first rhs share it;
        # on mms, the first cfl_dt and rhs of a convergence ladder rung
        import mhdlab.harness
        import mhdlab.mms
        import mhdlab.solver
        initial, built = [], []

        def init(cfg):
            state, front = init_scenario(cfg)
            initial.append(state)
            return state, front

        def exact(forcing, grid, t):
            state = exact_state(forcing, grid, t)
            initial.append(state)
            return state

        class CountedStage(mhdlab.solver._Stage):
            __slots__ = ()

            def __init__(self, state, p, s, rho_min=None):
                built.append(state)
                super().__init__(state, p, s, rho_min)

        init_scenario = mhdlab.harness.init_scenario
        exact_state = mhdlab.mms.MMSForcing.exact_state
        monkeypatch.setattr(mhdlab.harness, "init_scenario", init)
        monkeypatch.setattr(mhdlab.mms.MMSForcing, "exact_state", exact)
        monkeypatch.setattr(mhdlab.solver, "_Stage", CountedStage)
        if preset == "mms":
            rows = convergence_study(small(preset, t_end=0.05), [64])
            assert len(rows) == 1 and initial[0].t == 0.0
        else:
            res = run(small(preset, n=64, t_end=0.05))
            assert res.status is RunStatus.COMPLETED
        assert sum(state is initial[0] for state in built) == 1


class TestBlowupPresetsStayPressureless:
    """The blow-up presets start from P = 0, and every state they step to
    keeps P +0.0 at every node: P + dt (+-0) is +0, and nothing is clipped.
    The kernels' and the solver's pressureless path rests on this, so a
    change that leaves a -0.0 or a stray 1e-300 in P fails here instead of
    switching that path off unseen."""

    @pytest.mark.parametrize("preset", ["disk-blowup", "cylinder-blowup",
                                        "free-blowup"])
    def test_every_stepped_state(self, monkeypatch, preset):
        import mhdlab.harness
        seen = {"states": 0, "with_pressure": 0}

        def checking(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                P = (out[0] if isinstance(out, tuple) else out).P
                seen["states"] += 1
                seen["with_pressure"] += P.tobytes() != bytes(P.nbytes)
                return out
            return wrapper

        monkeypatch.setattr(mhdlab.harness, "step",
                            checking(mhdlab.harness.step))
        monkeypatch.setattr(mhdlab.harness, "free_step",
                            checking(mhdlab.harness.free_step))
        res = run(dataclasses.replace(load_preset(preset), n=64))
        assert res.status is RunStatus.BLOWUP_DETECTED
        assert seen["states"] > 20 and seen["with_pressure"] == 0
        assert res.outcome.summary["clipped_pressure"] == 0.0


class TestPressureAtTheVacuumEdge:
    """disk-blowup with pressure at the vacuum edge (P a bump on [0.5, 1.5]
    of height 0.1): the vacuum balance holds at every N and the energy
    created falls as the grid is refined. The central flux with donor cells
    on the faces touching vacuum gives a vacuum residual of 1.3e-8, 4.6e-8
    and 1.4e-7 at N = 512, 1024, 2048, and an energy creation of 5.8e-3,
    5.3e-4 and 8.4e-5; the retired Lax-Friedrichs band read 1.6e-5 and
    3.3e-3 at N = 1024. The runs stop early on a gradient at the edge, so
    their stop time is not a blow-up time and is not checked."""

    def test_residuals_converge(self):
        created = []
        for n in (512, 1024, 2048):
            pairs = apply_overrides(parse_pairs(load_preset_text("disk-blowup")),
                                    [f"grid.n={n}", 'init.p="bump 0.5 1.5 0.1"'])
            res = run(build_config(pairs))
            summary = res.outcome.summary
            assert res.status is RunStatus.BLOWUP_DETECTED
            assert summary["residuals"]["vacuum"] <= 1e-6, n
            created.append(summary["energy_signed_max"])
        assert created[0] > created[1] > created[2] > 0.0


class TestFreeEnergyBreaches:
    """A free run counts its energy-identity breaches from the first and the
    newest record, not from a pass over every record at each record."""

    @pytest.mark.parametrize("factor", [None, 0.0])
    def test_one_ledger_pass_per_run(self, monkeypatch, factor):
        import mhdlab.harness as harness
        ledger = harness.energy_residual
        calls, strikes = [], []

        def counted(history):
            calls.append(len(history))
            return ledger(history)

        class Watched(harness._RunState):
            def record(self, dt, max_gradu):
                super().record(dt, max_gradu)
                strikes.append(self.energy_breaches)

        monkeypatch.setattr(harness, "energy_residual", counted)
        monkeypatch.setattr(harness, "_RunState", Watched)
        if factor is not None:      # every record breaches
            monkeypatch.setattr(harness, "_INVALIDATION_FACTOR", factor)
        res = run(small("free-blowup", n=64, output_stride=1))
        records = res.records
        assert len(records) > harness._INVALIDATION_STRIKES
        # the summary's residual is the one pass over every record
        assert calls == [len(records)]
        # the strikes as counted from energy_residual over each prefix
        limit = harness._INVALIDATION_FACTOR * harness._FREE_ENERGY_TOL
        expected = [0]
        for k in range(2, len(records) + 1):
            e0 = ledger(records[:k]).e0
            breach = abs(records[k - 1].energy + records[k - 1].dissipation_cum
                         - e0) / e0 if e0 > 0 else 0.0
            expected.append(expected[-1] + 1 if breach > limit else 0)
        assert strikes == expected
        if factor is None:
            assert res.status is RunStatus.BLOWUP_DETECTED
            assert "invalid_reason" not in res.outcome.summary
        else:
            assert res.status is RunStatus.INVALIDATED
            assert strikes[-1] == harness._INVALIDATION_STRIKES
            assert (res.outcome.summary["invalid_reason"]
                    == "sustained energy-identity failure")


class TestOutputs:
    def test_csv_schema(self, tmp_path):
        res = run(small("smooth-novac", t_end=0.02), out_dir=str(tmp_path))
        text = (tmp_path / "run.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER
        # absent diagnostics are empty fields
        row = text.splitlines()[1].split(",")
        assert row[3] == "" and row[4] == "" and row[5] == ""

    def test_json_keys(self, tmp_path):
        run(small("disk-blowup", n=256), out_dir=str(tmp_path))
        doc = json.loads((tmp_path / "run.json").read_text())
        for key in ("status", "t_final", "T_detected", "alpha_star", "T_bound",
                    "C0", "E0", "C_envelope", "residuals", "stop_reason",
                    "balance_solves", "clipped_pressure"):
            assert key in doc
        assert doc["status"] == "BlowupDetected"
        assert doc["stop_reason"] == "gradu"
        assert set(doc["residuals"]) == {"energy", "flux", "vacuum"}

    def test_bitwise_deterministic(self):
        cfg = small("disk-blowup", n=256)
        r1 = run(cfg)
        r2 = run(cfg)
        assert records_to_csv(r1.records) == records_to_csv(r2.records)
        assert outcome_to_json(r1.outcome) == outcome_to_json(r2.outcome)


class TestCli:
    def test_run_smooth_exit_zero(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "smooth-novac",
                         "--override", "grid.n=128",
                         "--override", "time.t_end=0.02",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()
        assert "status=Completed" in capsys.readouterr().out

    def test_run_blowup_exit_two(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "disk-blowup",
                         "--override", "grid.n=256",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "BlowupDetected" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path, capsys):
        cfg_text = (
            'geometry = "disk2d"\n'
            'grid.n = 64\ngrid.r_outer = 1.0\n'
            'physics.mu = 1.0\nphysics.lam = 0.0\nphysics.gamma = 1.4\n'
            'time.t_end = 0.01\n'
        )
        path = tmp_path / "case.cfg"
        path.write_text(cfg_text)
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0

    def test_bounds_subcommand(self, capsys):
        code = cli_main(["bounds", "--preset", "disk-blowup",
                         "--override", "grid.n=256"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"C0", "E0", "alpha_star", "T_bound"} <= set(doc)
        assert doc["T_bound"] > 0

    def test_python_m_runs_the_cli(self):
        import subprocess
        import sys

        import mhdlab
        src = os.path.dirname(os.path.dirname(os.path.abspath(mhdlab.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "mhdlab", "bounds", "--preset", "disk-blowup"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["T_bound"] > 0

    def test_mms_subcommand(self, capsys):
        code = cli_main(["mms", "--preset", "mms",
                         "--override", "time.t_end=0.02", "--n", "32,64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "err(rho)" in out and "p(rho)" in out

    @pytest.mark.parametrize("sizes, reason", [
        ("16,abc", "'abc' is not an integer grid size"),
        ("2.5", "'2.5' is not an integer grid size"),
        ("16,16", "grid size 16 is listed twice"),
    ])
    def test_mms_bad_size_list_is_an_error(self, sizes, reason, capsys):
        code = cli_main(["mms", "--preset", "mms", "--n", sizes])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == f"error: --n: {reason}\n"
        assert out == ""

    def test_bad_usage(self, capsys):
        assert cli_main(["run"]) == 1
        assert cli_main(["bounds", "--preset", "smooth-novac"]) == 1  # no vacuum

    def test_grid_below_stencil_width_is_an_error(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "smooth-novac",
                         "--override", "grid.n=1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "at least 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "solver.eps_vac=-1", "solver.dt_min=0", "solver.blowup_gradu_max=0",
        'time.cfl="x"', 'solver.eps_vac="abc"', 'diag.alpha="x"',
        "time.t_end=nan", "solver.dt_min=nan", "output.stride=2.5",
    ])
    def test_bad_value_is_an_error(self, override, tmp_path, capsys):
        code = cli_main(["run", "--preset", "disk-blowup", "--override", override,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "run.json").exists()

    def test_vacuum_strategy_is_an_unknown_key(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "disk-blowup", "--override",
                         'solver.vacuum_strategy="density-floor"',
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: override references unknown key 'solver.vacuum_strategy'\n"
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("preset", ["disk-blowup", "smooth-novac"])
    def test_alpha_out_of_range_is_an_error(self, preset, tmp_path, capsys):
        code = cli_main(["run", "--preset", preset, "--override", "diag.alpha=5",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "admissible range" in err

    @pytest.mark.parametrize("override, reason", [
        ("vacuum.r0=0.999", "density and pressure must vanish"),
        ("grid.r_outer=1e-300", "vacuum radius r0=0.5 must lie inside"),
    ])
    def test_run_error_prints_reason(self, override, reason, tmp_path, capsys):
        # the config builds but the run ends Error at t=0
        code = cli_main(["run", "--preset", "disk-blowup", "--override", "grid.n=16",
                         "--override", override, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "status=Error" in out
        assert err == f"error: {json.loads((tmp_path / 'run.json').read_text())['error']}\n"
        assert err.startswith(f"error: {reason}")

    def test_config_and_preset_conflict(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("geometry = \"disk2d\"\n")
        assert cli_main(["run", str(path), "--preset", "mms"]) == 1
