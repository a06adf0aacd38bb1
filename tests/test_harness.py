"""Run orchestration: statuses, records, deterministic outputs, CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from mhdlab import Geometry, PhysParams, Profile, RunStatus, SolverSettings
from mhdlab.cli import main as cli_main
from mhdlab.config import load_preset
from mhdlab.core import ScenarioConfig, Weight, integrate
from mhdlab.errors import DtCollapse
from mhdlab.harness import CSV_HEADER, outcome_to_json, records_to_csv, run


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
        # advanced on, so the run ends on the tracker's TrackingError
        import mhdlab.harness
        advance = mhdlab.harness.advance_front
        calls = []

        def kicked(front, u, grid, dt):
            calls.append(dt)
            if len(calls) == 5:
                u = u + 2.0 / dt
            return advance(front, u, grid, dt)

        monkeypatch.setattr(mhdlab.harness, "advance_front", kicked)
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


class TestOneCflPerStep:
    """run() takes each step's dt from the previous step's health check."""

    def count_calls(self, monkeypatch, cfg):
        import mhdlab.harness
        import mhdlab.solver
        counts = {"cfl_dt": 0, "step": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        cfl = counting("cfl_dt", mhdlab.solver.cfl_dt)
        monkeypatch.setattr(mhdlab.solver, "cfl_dt", cfl)
        monkeypatch.setattr(mhdlab.harness, "cfl_dt", cfl)
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
        import mhdlab._kernels
        import mhdlab.solver
        solves = []
        clipped = []
        tridiag_solve = mhdlab._kernels.tridiag_solve
        finalize_stage = mhdlab.solver.finalize_stage

        def counted(factors, rhs):
            sol = tridiag_solve(factors, rhs)
            solves.append(len(rhs))
            return sol

        def dented(state, p, grid, s, stats=None, free_bc=None):
            k = grid.n_cells // 2
            dent = np.zeros_like(state.P)
            dent[k] = state.P[k] = -1e-3 * (1 + len(clipped))
            clipped.append(-integrate(dent, grid, Weight.RADIAL_R))
            finalize_stage(state, p, grid, s, stats, free_bc)

        monkeypatch.setattr(mhdlab._kernels, "tridiag_solve", counted)
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


class TestWorkPerStep:
    """Per-step calls of the finiteness scan, the vacuum-block search and the
    free grid's builds, the forcing's profile builds and evaluations, and the
    frames entered in NumPy's reduction wrappers, counted between the starts
    of consecutive steps of run() (one step plus its health check)."""

    def per_step(self, monkeypatch, cfg, keys=("scan", "block")):
        import sys

        import mhdlab.core
        import mhdlab.freeboundary
        import mhdlab.harness
        import mhdlab.mms
        import mhdlab.solver
        counts = {"scan": 0, "block": 0, "table": 0, "eval": 0, "grid": 0,
                  "rows": 0, "wrapped": 0}
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
        monkeypatch.setattr(mhdlab.solver, "_block_end",
                            counting("block", mhdlab.solver._block_end))
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
        monkeypatch.setattr(mhdlab.harness, "step", marking(mhdlab.harness.step))
        monkeypatch.setattr(mhdlab.harness, "free_step",
                            marking(mhdlab.harness.free_step))
        res = run(cfg)
        assert len(marks) > 5
        # from the second step on: each step's work and its health check
        deltas = {tuple(b[k] - a[k] for k in keys)
                  for a, b in zip(marks[1:], marks[2:])}
        return res, deltas, counts

    def test_disk_blowup_rk2_imp(self, monkeypatch):
        cfg = small("disk-blowup", n=64, t_end=0.2)
        assert cfg.solver.scheme.value == "rk2-imp" and cfg.r0 is not None
        res, deltas, _ = self.per_step(monkeypatch, cfg)
        assert res.status is RunStatus.COMPLETED
        # scans: the stages after the first inviscid half-step, the implicit
        # solve and the second half-step, and the end state; blocks: the
        # four stages finalized after an inviscid update (the implicit solve
        # keeps the density, so its stage keeps the block)
        assert deltas == {(4, 4)}

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
        # the forcing at t + dt is kept from the step before
        assert deltas == {(3, 3, 2)}
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

    @pytest.mark.parametrize("preset", ["disk-blowup", "free-blowup",
                                        "smooth-novac"])
    def test_one_stage_for_the_initial_state(self, monkeypatch, preset):
        # the initial balance, the first cfl_dt and the first rhs share it
        import mhdlab.harness
        import mhdlab.solver
        initial, built = [], []

        def init(cfg):
            state, front = init_scenario(cfg)
            initial.append(state)
            return state, front

        class CountedStage(mhdlab.solver._Stage):
            __slots__ = ()

            def __init__(self, state, p, s):
                built.append(state)
                super().__init__(state, p, s)

        init_scenario = mhdlab.harness.init_scenario
        monkeypatch.setattr(mhdlab.harness, "init_scenario", init)
        monkeypatch.setattr(mhdlab.solver, "_Stage", CountedStage)
        res = run(small(preset, n=64, t_end=0.05))
        assert res.status is RunStatus.COMPLETED
        assert sum(state is initial[0] for state in built) == 1


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
            def record(self, dt):
                super().record(dt)
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
