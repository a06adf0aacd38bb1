"""Run orchestration: statuses, records, deterministic outputs, CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from mhdlab import Geometry, PhysParams, Profile, RunStatus
from mhdlab.cli import main as cli_main
from mhdlab.config import load_preset
from mhdlab.core import ScenarioConfig
from mhdlab.harness import CSV_HEADER, outcome_to_json, records_to_csv, run


def small(preset, **kw):
    cfg = load_preset(preset)
    base = dict(n=128, output_stride=5)
    base.update(kw)
    return dataclasses.replace(cfg, **base)


def quiescent_config():
    phys = PhysParams(mu=1.0, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)
    return ScenarioConfig(geometry=Geometry.DISK2D, n=64, r_outer=1.0,
                          phys=phys, profiles={}, t_end=0.2, output_stride=5)


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

    def test_eps_vac_guard(self):
        cfg = small("disk-blowup", n=128, eps_vac=0.5)
        res = run(cfg)
        assert res.status is RunStatus.ERROR

    def test_unreachable_dt_min_is_config_error(self):
        cfg = small("smooth-novac", t_end=0.05, dt_min=1.0)
        res = run(cfg)
        assert res.status is RunStatus.ERROR
        assert "dt" in res.outcome.summary.get("invalid_reason", "")

    def test_density_floor_strategy_runs(self):
        # robustness baseline: Alfven speed from the floor density shrinks dt,
        # so keep the horizon short
        cfg = small("disk-blowup", n=128, t_end=0.005,
                    vacuum_strategy="density-floor", eps_vac=1e-3,
                    blowup_gradu_max=1e6)
        res = run(cfg)
        assert res.status is RunStatus.COMPLETED
        assert np.all(np.isfinite(res.state.u))
        assert res.outcome.summary["residuals"]["flux"] < 1e-2


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
                    "C0", "E0", "C_envelope", "residuals"):
            assert key in doc
        assert doc["status"] == "BlowupDetected"
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

    def test_mms_subcommand(self, capsys):
        code = cli_main(["mms", "--preset", "mms",
                         "--override", "time.t_end=0.02", "--n", "32,64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "err(rho)" in out and "p(rho)" in out

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

    def test_config_and_preset_conflict(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("geometry = \"disk2d\"\n")
        assert cli_main(["run", str(path), "--preset", "mms"]) == 1
