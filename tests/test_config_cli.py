import csv

import numpy as np
import pytest

from sitcarpet.cli import main, simulate_to_dir
from sitcarpet.config import (
    ConfigError,
    PRESET_NAMES,
    ScenarioConfig,
    preset,
    table1_params,
)
from sitcarpet.waves import front_position


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_text_round_trip(self, name):
        cfg = preset(name)
        text = cfg.to_text()
        cfg2 = ScenarioConfig.from_text(text)
        assert cfg2.to_text() == text
        for sec in ScenarioConfig.SECTIONS:
            assert getattr(cfg, sec) == getattr(cfg2, sec)

    def test_scenarios_construct(self):
        for name in PRESET_NAMES:
            scen = preset(name).scenario()
            assert scen.t_end > 0

    def test_comments_and_blanks(self):
        cfg = ScenarioConfig.from_text(
            "# a comment\n\nmodel.gamma = 0.5\nrun.t_end = 5.0  # trailing\n")
        assert cfg.model["gamma"] == 0.5
        assert cfg.run["t_end"] == 5.0

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("nonsense line here\n")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("weird.key = 1\n")

    def test_validation_errors(self):
        cfg = preset("fig1")
        cfg.model["rho"] = 2.0
        with pytest.raises(ConfigError, match="model"):
            cfg.scenario()
        cfg = preset("fig1")
        del cfg.run["t_end"]
        with pytest.raises(ConfigError, match="t_end"):
            cfg.scenario()
        cfg = preset("carpet")
        cfg.schedule["R1"] = 50.0
        with pytest.raises(ConfigError, match="schedule"):
            cfg.scenario()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig9")

    def test_unknown_key_is_named(self):
        cfg = preset("fig1")
        cfg.model["gama"] = 0.5
        with pytest.raises(ConfigError, match=r"model\.gama"):
            cfg.scenario()

    def test_retired_snapshot_every_points_to_snapshot_dt(self):
        cfg = preset("fig1")
        del cfg.run["snapshot_dt"]
        cfg.run["snapshot_every"] = 100
        with pytest.raises(ConfigError, match=r"run\.snapshot_dt"):
            cfg.scenario()

    def test_boundary_is_validated_at_construction(self):
        cfg = preset("fig1")
        cfg.run["boundary"] = "periodic"
        with pytest.raises(ConfigError, match="periodic"):
            cfg.scenario()

    def test_hetero_K_field(self):
        cfg = preset("carpet-hetero")
        scen = cfg.scenario()
        K = scen.params.K_at(np.linspace(0, 45, 1000))
        assert K.min() >= 150.0 - 1e-9
        assert K.max() <= 250.0 + 1e-9


class TestCli:
    def test_analyze_runs(self, tmp_path, capsys):
        rc = main(["analyze", "--preset", "fig1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma_c" in out and "BistableAboveGamma0" in out
        assert any(p.name == "analysis.txt" for d in tmp_path.iterdir()
                   for p in d.iterdir())

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.rho = 2.0\nrun.t_end = 1\ngrid.kind = radial2d\n"
                       "grid.r_max = 5\ngrid.n = 11\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 2

    @staticmethod
    def _simulate_fig1_with(tmp_path, capsys, key, value):
        """Exit code and stderr of `simulate` on a short fig1 config."""
        cfg = preset("fig1")
        cfg.run["t_end"] = 5.0
        sec, name = key.split(".", 1)
        getattr(cfg, sec)[name] = value
        path = tmp_path / "probe.cfg"
        path.write_text(cfg.to_text())
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model.b", "model.mu_F", "model.gamma"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_model_rate_exits_2(self, tmp_path, capsys, key,
                                           value):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, value)
        assert rc == 2 and "finite" in err

    @pytest.mark.parametrize("key,value", [
        ("schedule.c", 0.0), ("schedule.c", -0.03),
        ("schedule.c", float("nan")), ("schedule.c", float("inf")),
        ("schedule.lambda_bar", float("nan")),
        ("schedule.lambda_bar", float("inf")),
        ("schedule.eta", float("nan"))])
    def test_bad_release_input_exits_2(self, tmp_path, capsys, key, value):
        # caught when the config is read, not after the whole carpet run
        cfg = preset("carpet")
        sec, name = key.split(".", 1)
        getattr(cfg, sec)[name] = value
        path = tmp_path / "release.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert f"schedule: {name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "model.b", 1e16), ("simulate", "model.b", 1e100),
        ("simulate", "model.b", 1e308), ("simulate", "model.K", 1e300),
        ("analyze", "model.b", 1e16)])
    def test_extreme_finite_rates_exit_2(self, tmp_path, capsys, command,
                                         key, value):
        cfg = preset("fig1")
        cfg.run["t_end"] = 5.0
        sec, name = key.split(".", 1)
        getattr(cfg, sec)[name] = value
        path = tmp_path / "extreme.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_leaves_out_empty(self, tmp_path, capsys):
        cfg = preset("fig1")
        cfg.run["t_end"] = -5.0
        path = tmp_path / "bad.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2 and "t_end" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", [-5.0, 0.0, float("nan"), float("inf")])
    def test_t_end_must_be_finite_and_positive(self, tmp_path, capsys, value):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, "run.t_end",
                                           value)
        assert rc == 2 and "t_end" in err

    @pytest.mark.parametrize("key,value", [
        ("run.dt", -0.1), ("run.dt", float("nan")), ("run.dt", float("inf")),
        ("run.snapshot_dt", 0.0), ("run.snapshot_dt", -1.0),
        ("run.snapshot_dt", float("nan")), ("run.snapshot_dt", float("inf"))])
    def test_dt_and_snapshot_dt_must_be_finite_and_positive(
            self, tmp_path, capsys, key, value):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, value)
        assert rc == 2 and key.split(".")[1] in err

    def test_unknown_boundary_exits_2(self, tmp_path, capsys):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, "run.boundary",
                                           "periodic")
        assert rc == 2 and "periodic" in err

    @pytest.mark.parametrize("key,hint", [
        ("model.gama", "model.gama"),
        ("run.snapshot_every", "run.snapshot_dt")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key, hint):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, 15)
        assert rc == 2 and hint in err

    def test_outcome_explains_its_step(self, tmp_path):
        cfg = preset("fig1")
        cfg.run["t_end"] = 10.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        d = next(p for p in tmp_path.iterdir() if p.is_dir())
        outcome = dict(line.split(" = ", 1) for line in
                       (d / "outcome.txt").read_text().splitlines())
        dt, dt_max = float(outcome["dt"]), float(outcome["dt_max"])
        n_steps = int(outcome["n_steps"])
        assert outcome["dt_max_term"] == "egg"
        assert dt <= dt_max and n_steps == int(np.ceil(10.0 / dt_max))
        assert dt * n_steps == pytest.approx(10.0, rel=1e-14)
        header = (d / "snapshots.csv").read_text().split("\n", 1)[0]
        assert header == "t,x,E,M,F,Ms"

    def test_simulate_writes_run_dir(self, tmp_path):
        cfg = preset("fig1")
        cfg.run["t_end"] = 10.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        run_dirs = [d for d in tmp_path.iterdir() if d.is_dir()]
        assert len(run_dirs) == 1
        files = {p.name for p in run_dirs[0].iterdir()}
        assert {"config.echo", "snapshots.csv", "trace.csv",
                "outcome.txt"} <= files

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = preset("fig1")
        cfg.run["t_end"] = 5.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        blobs = []
        for sub in ("a", "b"):
            rc = main(["simulate", "--config", str(path),
                       "--out", str(tmp_path / sub)])
            assert rc == 0
            d = next(p for p in (tmp_path / sub).iterdir())
            blobs.append((d / "snapshots.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sweep_single_value_matches_simulate(self, tmp_path, capsys):
        cfg = preset("fig1")
        cfg.run["t_end"] = 40.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        rc = main(["sweep", "--config", str(path), "--axis", "model.gamma",
                   "--values", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Invasion" in out

    @pytest.mark.parametrize("name", ["fig1", "carpet", "carpet-hetero"])
    def test_sweep_and_simulate_agree(self, tmp_path, name):
        # one verdict path: the same config gives the same outcome and the
        # same speed, to the bit, whichever command runs it
        cfg = preset(name)
        record = simulate_to_dir(cfg, tmp_path / "simulate")
        rc = main(["sweep", "--preset", name, "--axis", "model.gamma",
                   "--values", repr(cfg.model["gamma"]),
                   "--out", str(tmp_path / "sweep")])
        assert rc == 0
        (sweep_csv,) = (tmp_path / "sweep").glob("*/sweep.csv")
        with open(sweep_csv, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["outcome"], row["speed"]) == \
            (record.outcome, repr(record.speed))

    @pytest.mark.parametrize("axis", ["model.gama", "run.snapshot_every",
                                      "gamma"])
    def test_sweep_unknown_axis_exits_2(self, tmp_path, capsys, axis):
        rc = main(["sweep", "--preset", "fig1", "--axis", axis,
                   "--values", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_bad_value_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "fig1", "--axis", "model.gamma",
                   "--values", "0.5,abc", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'abc'" in err
        assert list(tmp_path.iterdir()) == []

    def test_lambda_sweep_flips_outcome(self, tmp_path, capsys):
        # small releases leave re-invasion, the searched amplitude blocks
        cfg = preset("carpet")
        path = tmp_path / "carpet.cfg"
        path.write_text(cfg.to_text())
        lam = cfg.schedule["lambda_bar"]
        rc = main(["sweep", "--config", str(path),
                   "--axis", "schedule.lambda_bar",
                   "--values", f"{lam / 100},{lam}",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "Invasion" in ln
                 or "Carpet" in ln]
        assert "Invasion" in lines[0] and "Carpet" in lines[1]

    def test_analyze_hetero_matches_scalar_max_K(self, tmp_path, capsys):
        rc = main(["analyze", "--preset", "carpet-hetero",
                   "--out", str(tmp_path / "hetero")])
        assert rc == 0
        hetero = capsys.readouterr().out
        cfg = preset("carpet")
        cfg.model["K"] = 250.0
        path = tmp_path / "scalar.cfg"
        path.write_text(cfg.to_text())
        rc = main(["analyze", "--config", str(path),
                   "--out", str(tmp_path / "scalar")])
        assert rc == 0
        scalar = capsys.readouterr().out
        assert "upper:" in hetero and "gamma_c" in hetero
        assert hetero == scalar

    def test_level_zero_reaches_trace_and_outcome(self, tmp_path):
        cfg = preset("fig1")
        cfg.run["t_end"] = 10.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--level", "0",
                   "--out", str(out)])
        assert rc == 0
        d = next(out.iterdir())
        grid = cfg.scenario().grid
        snaps = np.loadtxt(d / "snapshots.csv", delimiter=",", skiprows=1)
        snaps = snaps.reshape(-1, grid.n, 6)
        expected = []
        for block in snaps:
            pos, _ = front_position(block[:, 4], grid, 0.0)
            if pos is not None:
                expected.append((block[0, 0], pos))
        trace = np.loadtxt(d / "trace.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert [tuple(row) for row in trace] == expected
        outcome = dict(line.split(" = ", 1) for line in
                       (d / "outcome.txt").read_text().splitlines())
        assert float(outcome["diag.filled_fraction_final"]) == \
            float(np.mean(snaps[-1, :, 4] > 0.0))

    def test_cost_table(self, capsys, tmp_path):
        rc = main(["cost", "--preset", "carpet", "--out", str(tmp_path),
                   "--horizons", "10,100,1000,10000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "naive-disc" in out and "annulus" in out

    def test_verify_sterile_bounds(self, tmp_path, capsys):
        rc = main(["verify", "--preset", "carpet", "--which",
                   "sterile-bounds", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("which", ["all", "subsolution", "supersolution",
                                       "sterile-bounds"])
    def test_verify_hetero_K(self, tmp_path, capsys, which):
        # the sub- and super-solution certificates need a scalar K, so a
        # heterogeneous K(x) is a config error; the sterile bounds run
        rc = main(["verify", "--preset", "carpet-hetero", "--which", which,
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        if which == "sterile-bounds":
            assert rc == 0
            assert "PASS" in captured.out and "FAIL" not in captured.out
        else:
            assert rc == 2
            assert "scalar K" in captured.err
            assert "sterile-bounds" in captured.err


def _certificate_structure() -> list[str]:
    """Certificate and report lines of `verify --preset carpet --which all`,
    each cut before its numbers."""
    sub = [f"{name} t={t}" for t in (1, 7, 19)
           for name in ("E residual", "M residual", "F residual", "M kink",
                        "F kink", "far-plateau reaction")]
    sup = (["Fbar damped-heat residual"]
           + [f"Fbar kink at {at}, t={t}" for t in (6, 9.5, 13, 16.5, 20)
              for at in ("r1+ct", "r2+ct")]
           + ["C1 drift hypothesis mu/4 + c' sqrt(mu/2) < mu_E + nu_E",
              "C1 drift hypothesis c sqrt(eps) < mu_E + nu_E",
              "C2 gap hypothesis max(mu, eps) < mu_M",
              "reaction margin hypothesis max(mu, eps) < mu_F",
              "Ebar <= C1 Fbar", "Mbar <= C2 Fbar", "female reaction cap"])
    cap = [f"sterile cap {what} t={t}" for t in (0.5, 5, 15)
           for what in ("residual", "kink")]
    floor = [f"sterile floor residual t={t}" for t in (0.5, 5, 15)]
    joints = [f"{c} joint at offset {o}" for o in (4, 6) for c in ("C0", "C1")]
    lines = []
    for cert, reports in (("subsolution", sub), ("supersolution", sup),
                          ("sterile-upper-bound", cap),
                          ("sterile-lower-bound-lower_annulus", floor),
                          ("sterile-lower-bound-lower_annulus_tail",
                           floor + joints)):
        lines.append(f"certificate {cert}: PASS")
        lines += [f"  [PASS] {name}" for name in reports]
    return lines


def test_verify_all_keeps_every_check(tmp_path, capsys):
    # a refactor of the certificates must not drop, reorder or fail a check
    rc = main(["verify", "--preset", "carpet", "--which", "all",
               "--out", str(tmp_path)])
    assert rc == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first.startswith("bundle constants:")
    assert [ln.split(": worst violation")[0] for ln in lines] == \
        _certificate_structure()
