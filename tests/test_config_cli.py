import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import pickle
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sitcarpet.cli as cli_mod
import sitcarpet.solver as solver_mod
from sitcarpet.cli import main, simulate_to_dir
from sitcarpet.config import (
    CARPET_R2,
    ConfigError,
    KNOWN_KEYS,
    PRESET_NAMES,
    ScenarioConfig,
    preset,
)
from sitcarpet.solver import DT, MAX_NODES, MAX_STEPS, Grid, run
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

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_scenario_pickle_round_trip(self, name):
        # what a sweep hands a pool worker: the scenario with its solved
        # equilibria, which runs bit for bit as the original
        cfg = preset(name)
        cfg.run["t_end"] = 2.0
        scen = cfg.scenario()
        eqs = scen.equilibria
        clone = pickle.loads(pickle.dumps(scen))
        assert vars(clone)["equilibria"] == eqs
        a, b = run(scen), run(clone)
        for field in ("times", "E", "M", "F", "Ms"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

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
        # every run has a zero-flux edge: run.boundary is no key at all
        cfg = preset("fig1")
        cfg.run["boundary"] = "neumann"
        with pytest.raises(ConfigError,
                           match=r"unknown config key run\.boundary"):
            cfg.scenario()

    def test_hetero_K_field(self):
        cfg = preset("carpet-hetero")
        scen = cfg.scenario()
        K = scen.params.K_at(np.linspace(0, 45, 1000))
        assert K.min() >= 150.0 - 1e-9
        assert K.max() <= 250.0 + 1e-9

    def test_readme_config_example_is_the_carpet_preset(self):
        # the README's example config must stay a working config that
        # builds the carpet preset's run, whatever the keys or the preset's
        # constants become
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"Config files are flat.*?```\n(.*?)```",
                              readme, re.DOTALL)
        scenario = ScenarioConfig.from_text(block).scenario()
        assert _run_inputs(scenario) == _run_inputs(
            preset("carpet").scenario())


# For each config key: a preset, keys set on it, and a legal value of the
# key other than the one it has there.
KEY_CASES = {
    "model.gamma_kind": ("fig1", {}, "monostable"),
    "model.gamma": ("fig1", {}, 0.3),
    "model.K": ("fig1", {}, 150.0),
    "model.K_oscillation": ("fig1", {}, 20.0),
    "model.K_period": ("carpet-hetero", {}, 7.0),
    "model.b": ("fig1", {}, 8.0),
    "model.nu_E": ("fig1", {}, 0.1),
    "model.mu_E": ("fig1", {}, 0.04),
    "model.mu_M": ("fig1", {}, 0.12),
    "model.mu_F": ("fig1", {}, 0.09),
    "model.mu_s": ("fig1", {}, 0.4),
    "model.rho": ("fig1", {}, 0.6),
    "model.D": ("fig1", {}, 0.2),
    "model.gamma_s": ("fig1", {}, 0.5),
    "grid.kind": ("fig1", {}, "radial2d"),
    "grid.n": ("fig1", {}, 801),
    "grid.x_min": ("fig1", {}, -30.0),
    "grid.x_max": ("fig1", {}, 30.0),
    "grid.r_max": ("carpet", {}, 50.0),
    "schedule.kind": ("carpet", {}, "fixed_region"),
    "schedule.lambda_bar": ("carpet", {}, 1000.0),
    "schedule.R1": ("carpet", {}, 5.0),
    "schedule.R2": ("carpet", {}, 20.0),
    "schedule.c": ("carpet", {}, 0.05),
    "schedule.eta": ("carpet", {"schedule.kind": "annulus_tail",
                                "schedule.eta": 0.3}, 0.5),
    "initial.kind": ("fig1", {}, "well_prepared"),
    "initial.R0_0": ("carpet", {}, 31.0),
    "initial.R0_1": ("carpet", {}, 40.0),
    "initial.u0": ("carpet", {}, 0.1),
    "initial.x_step": ("fig1", {}, -5.0),
    "initial.step_side": ("fig1", {}, "right"),
    "run.t_end": ("fig1", {}, 100.0),
    "run.dt": ("fig1", {}, 0.5),
    "run.snapshot_dt": ("fig1", {}, 10.0),
}
# The keys a change of kind sets along with it: those the new kind reads,
# and None for those it does not.
KIND_CHANGES = {
    "model.gamma_kind": {"model.gamma": None},
    "grid.kind": {"grid.r_max": 40.0, "grid.x_min": None, "grid.x_max": None},
    "initial.kind": {"initial.x_step": None, "initial.step_side": None},
}


def _with(cfg, key, value):
    """cfg with `key` set to value, or removed if value is None."""
    sec, name = key.split(".", 1)
    if value is None:
        getattr(cfg, sec).pop(name, None)
    else:
        getattr(cfg, sec)[name] = value
    return cfg


def _run_inputs(scenario) -> tuple:
    """What a run reads of `scenario`, as values that compare with ==."""
    p = scenario.params
    rates = tuple(getattr(p, f.name) for f in dataclasses.fields(p)
                  if f.compare and f.name != "K")
    return (rates, scenario.K_nodes.tobytes(), scenario.grid.kind,
            scenario.grid.x.tobytes(), scenario.schedule, scenario.initial,
            scenario.t_end, scenario.dt, scenario.snapshot_dt)


@pytest.mark.parametrize("key", [f"{sec}.{key}" for sec, keys in
                                 KNOWN_KEYS.items() for key in keys])
def test_every_key_is_read_and_checked(tmp_path, capsys, key):
    # a legal value changes what the run reads; a string that is no legal
    # value, or a boolean, is a config error naming the key, with nothing
    # written
    name, extra, value = KEY_CASES[key]
    base = preset(name)
    for k, v in extra.items():
        _with(base, k, v)
    text = base.to_text()
    changed = _with(ScenarioConfig.from_text(text), key, value)
    for k, v in KIND_CHANGES.get(key, {}).items():
        _with(changed, k, v)
    changed = changed.scenario()
    assert _run_inputs(changed) != _run_inputs(base.scenario())
    for bad in ("abc", True):
        path = tmp_path / "bad.cfg"
        path.write_text(_with(ScenarioConfig.from_text(text), key,
                              bad).to_text())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and key.split(".")[1] in err, err
        assert not out.exists()


@pytest.mark.parametrize("name, settings, key, kind", [
    ("carpet", {"grid.x_min": -3.0}, "grid.x_min", "radial2d"),
    ("carpet", {"grid.x_max": 3.0}, "grid.x_max", "radial2d"),
    ("fig1", {"grid.r_max": 40.0}, "grid.r_max", "cartesian1d"),
    ("fig1", {"schedule.eta": 0.3}, "schedule.eta", "none"),
    ("carpet", {"schedule.eta": 5.0}, "schedule.eta", "annulus"),
    ("carpet", {"schedule.kind": "disc", "schedule.eta": 5.0},
     "schedule.eta", "disc"),
    ("carpet", {"schedule.kind": "fixed_region", "schedule.eta": 5.0},
     "schedule.eta", "fixed_region"),
    ("carpet", {"initial.x_step": -10.0}, "initial.x_step", "well_prepared"),
    ("carpet", {"initial.step_side": "left"}, "initial.step_side",
     "well_prepared"),
    ("fig1", {"initial.R0_0": 10.0}, "initial.R0_0", "step"),
    ("fig1", {"initial.R0_1": 15.0}, "initial.R0_1", "step"),
    ("fig1", {"initial.u0": 0.0}, "initial.u0", "step"),
    ("fig1", {"model.gamma_kind": "monostable"}, "model.gamma", "monostable"),
])
def test_key_its_kind_does_not_read_exits_2(tmp_path, capsys, name, settings,
                                            key, kind):
    # a key the chosen kind ignores (a typo in the kind, say) is a config
    # error naming the key and the kind, with nothing written
    cfg = preset(name)
    for k, v in settings.items():
        _with(cfg, k, v)
    path = tmp_path / "unread.cfg"
    path.write_text(cfg.to_text())
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and f"{key} is not read" in err and kind in err, err
    assert not out.exists()


class TestCli:
    def test_analyze_runs(self, tmp_path, capsys):
        rc = main(["analyze", "--preset", "fig1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma_c" in out and "BistableAboveGamma0" in out
        assert any(p.name == "analysis.txt" for d in tmp_path.iterdir()
                   for p in d.iterdir())

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.rho = 2.0\nrun.t_end = 1\ngrid.kind = radial2d\n"
                       "grid.r_max = 5\ngrid.n = 11\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 2
        # a preset and a config together are refused, naming both flags,
        # before anything is written
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["simulate", "--preset", "fig1", "--config", str(bad),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "--preset" in err and "--config" in err
        assert not out.exists()

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
        ("schedule.lambda_bar", -1.0),
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

    @pytest.mark.parametrize("key,value,message", [
        ("initial.u0", 1.5, "initial: u0 must be in [0, 1)"),
        ("initial.R0_0", CARPET_R2 + 5.0, "initial: need 0 < R0_0 < R0_1")])
    def test_bad_initial_data_exits_2(self, tmp_path, capsys, key, value,
                                      message):
        # the carpet's R0_1 is CARPET_R2 + 5
        cfg = preset("carpet")
        sec, name = key.split(".", 1)
        getattr(cfg, sec)[name] = value
        path = tmp_path / "initial.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
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
        ("run.dt", 0.0), ("run.dt", -0.0),  # "auto" or no key asks for DT
        ("run.dt", -0.1), ("run.dt", float("nan")), ("run.dt", float("inf")),
        ("run.snapshot_dt", 0.0), ("run.snapshot_dt", -1.0),
        ("run.snapshot_dt", float("nan")), ("run.snapshot_dt", float("inf"))])
    def test_dt_and_snapshot_dt_must_be_finite_and_positive(
            self, tmp_path, capsys, key, value):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, value)
        assert rc == 2 and key.split(".")[1] in err

    @pytest.mark.parametrize("dt,code", [(1.0, 0), (1.5, 2)])
    def test_given_dt_is_bounded_by_4_DT(self, tmp_path, capsys, dt, code):
        # a coarser step gives a plausible wrong verdict, so it is refused
        rc, err = self._simulate_fig1_with(tmp_path, capsys, "run.dt", dt)
        assert rc == code
        assert ("run.dt = 1.5 exceeds 1.0" in err) == (code == 2)

    def test_unknown_boundary_exits_2(self, tmp_path, capsys):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, "run.boundary",
                                           "dirichlet")
        assert rc == 2 and "unknown config key run.boundary" in err

    @pytest.mark.parametrize("key,value,hint", [
        ("run.dt", 1e-300, "t_end / dt"), ("grid.n", 1e9, "n = 1000000000"),
        ("run.t_end", 1e6, "t_end / dt = 4e+06")])
    def test_oversized_run_exits_2_before_allocating(
            self, tmp_path, capsys, monkeypatch, key, value, hint):
        # rejected while the Scenario is built: a grid this large is never
        # allocated and a dt this small, or a horizon this long at the
        # automatic step, never stepped (both guarded here)
        def no_huge_linspace(start, stop, num=50, **kwargs):
            assert num <= MAX_NODES, "a grid past the limit was allocated"
            return linspace(start, stop, num, **kwargs)

        def no_run(*args, **kwargs):
            raise AssertionError("an oversized run was started")

        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", no_huge_linspace)
        monkeypatch.setattr(cli_mod, "run", no_run)
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, value)
        assert rc == 2 and "config error" in err and hint in err
        assert [p.name for p in tmp_path.iterdir()] == ["probe.cfg"]

    def test_fractional_node_count_exits_2(self, tmp_path, capsys):
        # a node count is never truncated: 10.7 is an error, 800.0 is 800
        rc, err = self._simulate_fig1_with(tmp_path, capsys, "grid.n", 10.7)
        assert rc == 2 and "config error" in err and "n = 10.7" in err
        for n in (800, 800.0):
            cfg = preset("fig1")
            cfg.grid["n"] = n
            assert cfg.scenario().grid.n == 800

    def test_presets_inside_the_run_limits(self):
        for name in PRESET_NAMES:
            scen = preset(name).scenario()
            assert scen.grid.n <= MAX_NODES
            assert scen.t_end / (scen.dt or DT) <= MAX_STEPS

    @pytest.mark.parametrize("key,hint", [
        ("model.gama", "model.gama"),
        ("run.snapshot_every", "run.snapshot_dt")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key, hint):
        rc, err = self._simulate_fig1_with(tmp_path, capsys, key, 15)
        assert rc == 2 and hint in err

    @staticmethod
    def _outcome_of_fig1_with(tmp_path, **model):
        """outcome.txt, as a dict, of `simulate` on fig1 to t = 10."""
        cfg = preset("fig1")
        cfg.run["t_end"] = 10.0
        cfg.model.update(model)
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        d = next(p for p in tmp_path.iterdir() if p.is_dir())
        header = (d / "snapshots.csv").read_text().split("\n", 1)[0]
        assert header == "t,x,E,M,F,Ms"
        return dict(line.split(" = ", 1) for line in
                    (d / "outcome.txt").read_text().splitlines())

    def test_outcome_explains_its_step(self, tmp_path):
        outcome = self._outcome_of_fig1_with(tmp_path)
        dt, n_steps = float(outcome["dt"]), int(outcome["n_steps"])
        assert n_steps == int(np.ceil(10.0 / DT)) and dt <= DT
        assert dt * n_steps == pytest.approx(10.0, rel=1e-14)
        assert not any(k.startswith("dt_max") for k in outcome)

    @pytest.mark.parametrize("b", [1e6, 1e12])
    def test_stiff_egg_rate_keeps_the_step(self, tmp_path, b):
        # the egg update is exact, so the step count does not grow with b
        outcome = self._outcome_of_fig1_with(tmp_path, b=b)
        assert outcome["n_steps"] == "40"
        assert outcome["clamp_count"] == "0"

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

    @staticmethod
    def _sweep_rows(tmp_path, path, axis, values, workers):
        """Run a sweep; its exit code and sweep.csv as {value: (outcome,
        speed)}."""
        out = tmp_path / f"sweep-{workers}"
        rc = main(["sweep", "--config", str(path), "--axis", axis,
                   "--values", ",".join(values), "--workers", str(workers),
                   "--out", str(out)])
        (sweep_csv,) = out.glob("*/sweep.csv")
        with open(sweep_csv, newline="") as fh:
            rows = {r[axis]: (r["outcome"], r["speed"])
                    for r in csv.DictReader(fh)}
        return rc, rows

    @staticmethod
    def _alone(tmp_path, path, axis, value, level=None):
        """(outcome, repr(speed)) of one row run by `simulate`."""
        cfg = ScenarioConfig.from_text(path.read_text())
        sec, key = axis.split(".")
        getattr(cfg, sec)[key] = float(value)
        record = simulate_to_dir(
            cfg, tmp_path / f"alone-{axis}-{value}-{level}", level=level)
        return (record.outcome, repr(record.speed))

    @staticmethod
    def _record_batch_sizes(monkeypatch):
        """The sizes of the batches a sweep runs in this process."""
        sizes = []
        run_batch = cli_mod.run_batch

        def recording(scenarios):
            sizes.append(len(scenarios))
            return run_batch(scenarios)

        monkeypatch.setattr(cli_mod, "run_batch", recording)
        return sizes

    @pytest.mark.parametrize("name,workers", [
        pytest.param("carpet", 1, id="1"), pytest.param("carpet", 2, id="2"),
        pytest.param("carpet-hetero", 2, id="carpet-hetero-2")])
    def test_batched_rows_match_simulate(self, tmp_path, capsys,
                                         monkeypatch, name, workers):
        # one worker runs the three rows as one batch; two run a batch of
        # two and a batch of one (in pool workers, so not recorded here),
        # each pickled with its K(x)
        sizes = self._record_batch_sizes(monkeypatch)
        cfg = preset(name)
        cfg.run["t_end"] = 30.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        values = ["0.2", "0.5", "1.0"]
        rc, rows = self._sweep_rows(tmp_path, path, "model.gamma", values,
                                    workers)
        assert rc == 0
        assert sizes == ([3] if workers == 1 else [])
        for v in values:
            assert rows[repr(float(v))] == \
                self._alone(tmp_path, path, "model.gamma", v)

    def test_long_sweeps_run_in_bounded_batches(self, tmp_path, capsys,
                                                monkeypatch):
        sizes = self._record_batch_sizes(monkeypatch)
        monkeypatch.setattr(cli_mod, "SWEEP_BATCH_ROWS", 2)
        cfg = preset("fig1")
        cfg.run["t_end"] = 5.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        values = ["0.1", "0.2", "0.3", "0.4", "0.5"]
        rc, rows = self._sweep_rows(tmp_path, path, "model.gamma", values, 1)
        assert rc == 0 and len(rows) == 5
        assert sizes == [2, 2, 1]

    def test_rows_on_different_grids_still_run(self, tmp_path, capsys):
        cfg = preset("fig1")
        cfg.run["t_end"] = 20.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        values = ["401", "801"]
        rc, rows = self._sweep_rows(tmp_path, path, "grid.n", values, 1)
        assert rc == 0
        for v in values:
            assert rows[repr(float(v))] == \
                self._alone(tmp_path, path, "grid.n", v)

    def test_failing_member_fails_alone(self, tmp_path, capsys, monkeypatch):
        # a NaN in the gamma = 0.5 row's initial state stops its batch; the
        # rows rerun one by one, so only that row fails, and the others
        # keep their verdicts bit for bit
        make_initial = solver_mod.make_initial

        def poisoned(scenario):
            state = make_initial(scenario)
            if scenario.params.gamma == 0.5:
                state.F[10] = np.nan
            return state

        cfg = preset("fig1")
        cfg.run["t_end"] = 20.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        values = ["0.2", "0.5", "1.0"]
        expected = {v: self._alone(tmp_path, path, "model.gamma", v)
                    for v in ("0.2", "1.0")}
        monkeypatch.setattr(solver_mod, "make_initial", poisoned)
        rc, rows = self._sweep_rows(tmp_path, path, "model.gamma", values, 1)
        assert rc == 3
        failed = [ln for ln in capsys.readouterr().out.splitlines()
                  if "FAILED" in ln]
        assert len(failed) == 1
        assert "0.5" in failed[0] and "SolverError: non-finite" in failed[0]
        assert rows == {repr(float(v)): expected[v] for v in expected}

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

    @pytest.mark.parametrize("level", ["nan", "-5", "1e9", "inf"])
    def test_level_outside_0_to_F_star_exits_2(self, tmp_path, capsys,
                                                level):
        # such a level is never crossed: the verdict would be a silent
        # Indeterminate with no speed
        out = tmp_path / "out"
        sweep = ["sweep", "--axis", "model.gamma", "--values", "0.5,1.0"]
        for argv in (["simulate"], sweep):
            rc = main(argv + ["--preset", "fig1", f"--level={level}",
                              "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2 and "--level" in err and "F* = 77.4" in err
        assert not out.exists()

    def test_sweep_pool_is_never_larger_than_the_rows(
            self, tmp_path, capsys, monkeypatch):
        # and rows run in batches of at most an even share per worker
        sizes, shares = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, batches, levels):
                shares.append([[sc.params.gamma for sc in batch]
                               for batch in batches])
                return map(fn, batches, levels)

        # cmd_sweep imports the pool class where a pool runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cfg = preset("fig1")
        cfg.run["t_end"] = 5.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())

        def sweep(values, workers):
            return main(["sweep", "--config", str(path), "--axis",
                         "model.gamma", "--values", values, "--workers",
                         workers, "--out", str(tmp_path / "out")])

        assert sweep("0.5,1.0", "1000") == 0
        assert sweep("0.5", "1000") == 0
        assert sizes == [2]  # one row runs with no pool at all
        assert sweep("0.1,0.2,0.3,0.4,0.5", "2") == 0
        assert sizes == [2, 2]
        assert shares == [[[0.5], [1.0]], [[0.1, 0.2, 0.3], [0.4, 0.5]]]
        for workers in ("0", "-1"):
            assert sweep("0.5,1.0", workers) == 2
            assert "--workers must be >= 1" in capsys.readouterr().err
        assert sizes == [2, 2]

    @staticmethod
    def _record_runs(monkeypatch, tmp_path):
        """Replace what a sweep runs its rows with by a recorder, after
        checking that a valid sweep reaches it; the list of runs started."""
        started = []

        def recorder(scenarios):
            started.append(scenarios)
            raise RuntimeError("recorded")

        monkeypatch.setattr(cli_mod, "run_batch", recorder)
        rc = main(["sweep", "--preset", "fig1", "--axis", "model.gamma",
                   "--values", "0.5", "--out", str(tmp_path / "control")])
        assert rc == 3 and len(started) == 1
        started.clear()
        shutil.rmtree(tmp_path / "control")
        return started

    def test_sweep_row_config_error_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # c = 0 is a config error for a moving release: every row is built
        # first, so the valid 0.05 row never runs and nothing is written
        started = self._record_runs(monkeypatch, tmp_path)
        rc = main(["sweep", "--preset", "carpet", "--axis", "schedule.c",
                   "--values", "0,0.05", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "schedule.c = 0.0" in err
        assert started == []
        assert list(tmp_path.iterdir()) == []

    def test_sweep_zero_dt_exits_2_before_any_run(self, tmp_path, capsys,
                                                  monkeypatch):
        # run.dt = 0 is a config error, not the automatic step: the valid
        # 0.25 row never runs and nothing is written
        started = self._record_runs(monkeypatch, tmp_path)
        rc = main(["sweep", "--preset", "fig1", "--axis", "run.dt",
                   "--values", "0,0.25", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dt must be finite and > 0" in err
        assert started == []
        assert list(tmp_path.iterdir()) == []

    def test_sweep_equilibrium_out_of_range_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # b = 1e16 puts an equilibrium beyond double precision: a config
        # error, as under simulate, found before any row runs; the valid
        # b = 10 row never runs
        started = self._record_runs(monkeypatch, tmp_path)
        rc = main(["sweep", "--preset", "fig1", "--axis", "model.b",
                   "--values", "10,1e16", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.b = 1e+16" in err
        assert started == []
        assert list(tmp_path.iterdir()) == []

    # K(x) = K + K_oscillation sin(2 pi |x| / K_period) with K = 200
    BAD_K_FIELDS = [({"K_oscillation": 250.0}, "K_oscillation"),
                    ({"K_oscillation": 200.0}, "K_oscillation"),
                    ({"K_oscillation": -1.0}, "K_oscillation"),
                    ({"K_oscillation": float("nan")}, "K_oscillation"),
                    ({"K_period": 0.0}, "K_period"),
                    ({"K_period": float("inf")}, "K_period")]

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("model,key", BAD_K_FIELDS)
    def test_non_positive_K_field_exits_2(self, tmp_path, capsys, command,
                                          model, key):
        # a K(x) that can reach 0 or below, or is not finite, is refused
        # when the config is read, before anything runs or is written
        cfg = preset("carpet-hetero")
        cfg.model.update(model)
        path = tmp_path / "hetero.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert f"config error: model: {key} must be finite and" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sweep_non_positive_K_field_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        started = self._record_runs(monkeypatch, tmp_path)
        rc = main(["sweep", "--preset", "carpet-hetero",
                   "--axis", "model.K_oscillation", "--values", "50,250",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "model.K_oscillation = 250.0" in err and "[0, K)" in err
        assert started == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("level", [[], ["--level", "1"]])
    def test_no_positive_equilibrium_exits_3(self, tmp_path, capsys, level):
        # gamma = 1e-4 leaves only extinction: the same solver error with
        # or without a --level to check
        cfg = preset("fig1")
        cfg.model["gamma"] = 1e-4
        path = tmp_path / "extinct.cfg"
        path.write_text(cfg.to_text())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)]
                  + level)
        assert rc == 3
        assert capsys.readouterr().err == ("solver error: no positive "
                                           "equilibrium for this parameter "
                                           "set\n")
        assert not out.exists()

    @pytest.mark.parametrize("level", [None, 1.0])
    def test_sweep_row_without_equilibrium_fails_alone(self, tmp_path,
                                                       capsys, level):
        cfg = preset("fig1")
        cfg.run["t_end"] = 20.0
        path = tmp_path / "quick.cfg"
        path.write_text(cfg.to_text())
        expected = self._alone(tmp_path, path, "model.gamma", "0.5", level)
        argv = ["sweep", "--config", str(path), "--axis", "model.gamma",
                "--values", "1e-4,0.5", "--out", str(tmp_path / "out")]
        rc = main(argv + ([] if level is None else [f"--level={level}"]))
        assert rc == 3
        failed = [ln for ln in capsys.readouterr().out.splitlines()
                  if "FAILED" in ln]
        assert len(failed) == 1 and "0.0001" in failed[0]
        assert "SolverError: no positive equilibrium" in failed[0]
        (sweep_csv,) = (tmp_path / "out").glob("*/sweep.csv")
        with open(sweep_csv, newline="") as fh:
            rows = {r["model.gamma"]: (r["outcome"], r["speed"])
                    for r in csv.DictReader(fh)}
        assert rows == {"0.5": expected}

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
            pos = front_position(block[:, 4], grid, 0.0)
            if pos is not None:
                expected.append((block[0, 0], pos))
        trace = np.loadtxt(d / "trace.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert [tuple(row) for row in trace] == expected
        outcome = dict(line.split(" = ", 1) for line in
                       (d / "outcome.txt").read_text().splitlines())
        assert float(outcome["diag.filled_fraction_final"]) == \
            float(np.mean(snaps[-1, :, 4] > 0.0))

    def test_cost_table(self, capsys):
        rc = main(["cost", "--preset", "carpet",
                   "--horizons", "10,100,1000,10000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "naive-disc" in out and "annulus" in out

    @pytest.mark.parametrize("horizons", ["abc", "0,10", "-1,10", "nan,10",
                                          "10", "10,10"])
    def test_cost_needs_two_distinct_positive_horizons(self, capsys,
                                                       horizons):
        rc = main(["cost", "--preset", "carpet", f"--horizons={horizons}"])
        captured = capsys.readouterr()
        assert rc == 2 and "--horizons" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("horizons", ["1e200,1e201", "1e150,1e155"])
    def test_cost_total_past_a_double_exits_2(self, capsys, horizons):
        # every total is computed before the table is printed
        rc = main(["cost", "--preset", "carpet", f"--horizons={horizons}"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "naive-disc total overflows a double" in captured.err

    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--level"), ("verify", "--level"), ("verify", "--out"),
        ("cost", "--level"), ("cost", "--out")])
    def test_flag_a_command_never_reads_is_rejected(self, capsys, command,
                                                    flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "carpet", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_sterile_bounds(self, capsys):
        rc = main(["verify", "--preset", "carpet", "--which",
                   "sterile-bounds"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("command", [
        ["verify", "--which", "sterile-bounds"], ["simulate", "--out", "runs"]],
        ids=["verify", "simulate"])
    def test_steep_release_tail_does_not_overflow(self, tmp_path, capsys,
                                                  monkeypatch, command):
        # at eta = 50 the release tail's exponential would overflow far
        # outside R1, where the tail is not taken; the suite turns such an
        # overflow warning into a failure
        monkeypatch.chdir(tmp_path)
        cfg = preset("carpet")
        cfg.schedule.update(kind="annulus_tail", eta=50.0)
        cfg.run["t_end"] = 2.0
        Path("steep.cfg").write_text(cfg.to_text())
        rc = main([command[0], "--config", "steep.cfg", *command[1:]])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert "FAIL" not in captured.out

    def test_verify_reads_a_slow_release_as_given(self, tmp_path, capsys):
        # a release speed below the 0.01 that stands in for an unset one is
        # the schedule's own: its bundle is not the one at c = 0.01
        outs = []
        for c in (0.005, 0.01):
            cfg = preset("carpet")
            cfg.schedule["c"] = c
            path = tmp_path / "slow.cfg"
            path.write_text(cfg.to_text())
            rc = main(["verify", "--config", str(path), "--which",
                       "supersolution"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("name", ["carpet", "fig1", "no-release-2d"])
    def test_verify_certifies_one_sterile_cap_over_the_initial_dose(
            self, capsys, monkeypatch, name):
        # the sub-solution and the sterile-cap certificate read one cap,
        # and its edge clears the initial sterile ramp: at t = 0 the cap is
        # at or above the initial Ms on every node
        seen = {}

        def spy(attr):
            original = getattr(cli_mod, attr)

            def record(*args, **kwargs):
                seen[attr] = args
                return original(*args, **kwargs)
            monkeypatch.setattr(cli_mod, attr, record)

        spy("verify_subsolution")
        spy("verify_sterile_cap")
        assert main(["verify", "--preset", name, "--which", "all"]) == 0
        capsys.readouterr()
        cap = seen["verify_subsolution"][0].Ms
        scenario = preset(name).scenario()
        Ms0 = solver_mod.make_initial(scenario).Ms
        assert np.all(Ms0 <= cap(scenario.grid.x, 0.0))
        assert seen["verify_sterile_cap"][2:] == (cap,)

    def test_narrow_annulus_floor_is_a_failed_check(self, tmp_path, capsys):
        # with R2 - R1 <= 4 the floors' plateau [R1 + 2, R2 - 2] is empty:
        # each floor fails as not built, naming the geometry, and the cap
        # still runs
        cfg = preset("carpet")
        cfg.schedule["R2"] = 7.0
        path = tmp_path / "narrow.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which",
                   "sterile-bounds"])
        out = capsys.readouterr().out
        assert rc == 4
        assert [ln for ln in out.splitlines()
                if ln.startswith("certificate ")] == [
            "certificate sterile-upper-bound: PASS",
            "certificate sterile-lower-bound-lower_annulus: FAIL",
            "certificate sterile-lower-bound-lower_annulus_tail: FAIL"]
        assert out.count("  [FAIL] not built: geometry must satisfy "
                         "0 < R1 < r1 < r2 < R2, got R1 = 4, r1 = 6, "
                         "r2 = 5, R2 = 7\n") == 2

    @pytest.mark.parametrize("which", ["all", "subsolution", "supersolution",
                                       "sterile-bounds"])
    def test_verify_hetero_K(self, capsys, which):
        # the sub- and super-solution certificates need a scalar K, so a
        # heterogeneous K(x) is a config error; the sterile bounds run
        rc = main(["verify", "--preset", "carpet-hetero", "--which", which])
        captured = capsys.readouterr()
        if which == "sterile-bounds":
            assert rc == 0
            assert "PASS" in captured.out and "FAIL" not in captured.out
        else:
            assert rc == 2
            assert "scalar K" in captured.err
            assert "sterile-bounds" in captured.err

    @pytest.mark.parametrize("name", ["fig2-left", "fig2-right"])
    @pytest.mark.parametrize("which", ["subsolution", "all"])
    def test_unbuildable_subsolution_is_a_failed_check(self, capsys, name,
                                                       which):
        # no sterile tail amplitude is admissible here: the sub-solution
        # certificate fails, naming the condition, and the other checks
        # asked for still run
        rc = main(["verify", "--preset", name, "--which", which])
        out = capsys.readouterr().out
        assert rc == 4
        assert ("certificate subsolution: FAIL\n  [FAIL] not built: no "
                "admissible sterile tail amplitude: G_eps(F*) <= 0") in out
        certificates = [ln.split(":")[0] for ln in out.splitlines()
                        if ln.startswith("certificate ")]
        assert len(certificates) == (1 if which == "subsolution" else 5)

    @pytest.mark.parametrize("name, worst, nodes", [
        pytest.param("fig2-left", "-9.509e-14", 5915, id="fig2-left"),
        pytest.param("fig2-right", "1.885e-14", 5917, id="fig2-right")])
    def test_supersolution_passes_the_female_cap(self, capsys, name, worst,
                                                 nodes):
        # the female reaction cap reads the computed Ebar and Mbar rows, so
        # it holds here by the pinned amount, as every other check does
        rc = main(["verify", "--preset", name, "--which", "supersolution"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[1] == "certificate supersolution: PASS"
        assert all(ln.startswith("  [PASS] ") for ln in lines[2:])
        assert lines[-1] == (f"  [PASS] female reaction cap: worst violation "
                             f"{worst} (tol 1.0e-06, {nodes} nodes)")

    @pytest.mark.parametrize("c, which, condition", [
        (1e3, "supersolution", "psi fails to reach 1"),
        (1e3, "all", "psi fails to reach 1"),
        (1e200, "supersolution",
         "drift conditions unsatisfiable at this speed")],
        ids=["1e3-supersolution", "1e3-all", "1e200-supersolution"])
    def test_failed_bundle_search_is_a_failed_check(self, tmp_path, capsys,
                                                    c, which, condition):
        # every way the bundle search can fail is a failed certificate
        # naming the condition, and the other checks asked for still run
        cfg = preset("carpet")
        cfg.schedule["c"] = c
        path = tmp_path / "fast.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which", which])
        out = capsys.readouterr().out
        assert rc == 4
        assert (f"certificate supersolution: FAIL\n  [FAIL] not built: "
                f"{condition}\n") in out
        certificates = [ln for ln in out.splitlines()
                        if ln.startswith("certificate ")]
        assert len(certificates) == (1 if which == "supersolution" else 5)
        assert [c for c in certificates if c.endswith("FAIL")] == [
            "certificate supersolution: FAIL"]

    @pytest.mark.parametrize("which", ["subsolution", "sterile-bounds",
                                       "all"])
    def test_checks_over_no_node_fail(self, tmp_path, capsys, which):
        # at c = 1e200 the check grids ride at |x| ~ c t, where their
        # spacing rounds to 0: every residual, kink and far-plateau scan
        # there checks no node, so it fails, saying why, and the sterile
        # floor's constants overflow, so it is not built; nothing passes
        # and nothing warns
        cfg = preset("carpet")
        cfg.schedule["c"] = 1e200
        path = tmp_path / "fast.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which", which])
        captured = capsys.readouterr()
        assert rc == 4 and captured.err == ""
        lines = captured.out.splitlines()
        unchecked = [ln for ln in lines if "no node checked" in ln]
        assert len(unchecked) == {"subsolution": 18, "sterile-bounds": 6,
                                  "all": 24}[which]
        assert all(ln.startswith("  [FAIL] ") for ln in unchecked)
        assert sum("far-plateau" in ln for ln in unchecked) == (
            0 if which == "sterile-bounds" else 3)
        assert not [ln for ln in lines if "[PASS]" in ln]
        assert not [ln for ln in lines if ln.endswith(" 0 nodes)")]
        if which != "subsolution":
            assert sum("[FAIL] not built: sterile floor constants out of "
                       "range at c = 1e+200" in ln for ln in lines) == 2

    @pytest.mark.parametrize("which", ["supersolution", "all"])
    def test_monostable_supersolution_is_a_failed_check(self, tmp_path,
                                                        capsys, which):
        # the bundle search covers the bistable case only: on a monostable
        # carpet the super-solution certificate fails, saying why, and the
        # other checks asked for still run
        cfg = preset("carpet")
        cfg.model["gamma_kind"] = "monostable"
        cfg.model.pop("gamma")
        path = tmp_path / "monostable.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which", which])
        out = capsys.readouterr().out
        assert rc == 4
        assert ("certificate supersolution: FAIL\n  [FAIL] not built: the "
                "bundle search covers the bistable case") in out
        certificates = [ln for ln in out.splitlines()
                        if ln.startswith("certificate ")]
        assert len(certificates) == (1 if which == "supersolution" else 5)
        assert [c for c in certificates if c.endswith("FAIL")] == [
            "certificate supersolution: FAIL"]

    @pytest.mark.parametrize("which", ["supersolution", "all"])
    def test_gamma_s_zero_supersolution_is_a_failed_check(self, tmp_path,
                                                          capsys, which):
        # with gamma_s = 0 the sterile males cannot block the female
        # recruitment deficit: the bundle is not built, saying why, with
        # no warning and no traceback
        cfg = preset("carpet")
        cfg.model["gamma_s"] = 0.0
        path = tmp_path / "gamma_s0.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which", which])
        captured = capsys.readouterr()
        assert rc == 4 and captured.err == ""
        assert ("certificate supersolution: FAIL\n  [FAIL] not built: "
                "gamma_s = 0: no sterile floor can block the female "
                "recruitment deficit\n") in captured.out
        certificates = [ln for ln in captured.out.splitlines()
                        if ln.startswith("certificate ")]
        assert [c for c in certificates if c.endswith("FAIL")] == [
            "certificate supersolution: FAIL"]

    @pytest.mark.parametrize("which", ["subsolution", "supersolution", "all",
                                       "sterile-bounds"])
    def test_verify_without_equilibrium_exits_3(self, tmp_path, capsys,
                                                which):
        # gamma = 1e-4 leaves only extinction, so there is nothing to
        # certify: the solver error of `simulate`, before any check runs;
        # the sterile bounds do not need an equilibrium
        cfg = preset("fig1")
        cfg.model["gamma"] = 1e-4
        path = tmp_path / "extinct.cfg"
        path.write_text(cfg.to_text())
        rc = main(["verify", "--config", str(path), "--which", which])
        captured = capsys.readouterr()
        if which == "sterile-bounds":
            assert rc == 0
            assert "PASS" in captured.out and "FAIL" not in captured.out
            return
        assert rc == 3
        assert captured.out == ""
        assert captured.err == ("solver error: no positive equilibrium for "
                                "this parameter set\n")


def _certificate_structure() -> list[str]:
    """Certificate and report lines of `verify --which all` on the presets
    that pass it (carpet, fig1, no-release-2d), each cut before its
    numbers."""
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


@pytest.mark.parametrize("name", ["carpet", "fig1", "no-release-2d"])
def test_verify_all_keeps_every_check(capsys, name):
    # a refactor of the certificates must not drop, reorder or fail a check
    rc = main(["verify", "--preset", name, "--which", "all"])
    assert rc == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first.startswith("bundle constants:")
    assert [ln.split(": worst violation")[0] for ln in lines] == \
        _certificate_structure()


def _savetxt_bytes(path, traj) -> bytes:
    """snapshots.csv as np.savetxt writes it: the writer's exact oracle."""
    x = traj.grid.x
    table = np.vstack([
        np.column_stack([np.full_like(x, t), x, traj.E[i], traj.M[i],
                         traj.F[i], traj.Ms[i]])
        for i, t in enumerate(traj.times)])
    np.savetxt(path, table, delimiter=",", header="t,x,E,M,F,Ms",
               comments="", fmt="%.17g")
    return path.read_bytes()


class TestSnapshotWriter:
    @staticmethod
    def _short_run(name):
        cfg = preset(name)
        cfg.run["t_end"] = 5.0
        return run(cfg.scenario())

    def _assert_matches_savetxt(self, tmp_path, traj):
        cli_mod._write_snapshots(tmp_path / "snapshots.csv", traj)
        assert (tmp_path / "snapshots.csv").read_bytes() == \
            _savetxt_bytes(tmp_path / "oracle.csv", traj)

    def test_fig1_matches_savetxt(self, tmp_path):
        # 1D: negative x and many exact zeros ahead of the step
        traj = self._short_run("fig1")
        assert traj.grid.x.min() < 0 and np.any(traj.F == 0.0)
        self._assert_matches_savetxt(tmp_path, traj)

    def test_carpet_matches_savetxt(self, tmp_path):
        # radial: the first node is r = 0
        traj = self._short_run("carpet")
        assert traj.grid.x[0] == 0.0
        self._assert_matches_savetxt(tmp_path, traj)

    def test_extreme_values_match_savetxt(self, tmp_path):
        # a subnormal, a huge value, a non-dyadic one and zero, on 3 nodes
        field = np.array([[5e-324, 1e300, 0.1]])
        traj = SimpleNamespace(
            grid=Grid.cartesian(-1.0, 1.0, 3), times=np.array([0.1]),
            E=field, M=field[:, ::-1], F=np.zeros((1, 3)), Ms=field * 0.1)
        self._assert_matches_savetxt(tmp_path, traj)
        text = (tmp_path / "snapshots.csv").read_text()
        assert "4.9406564584124654e-324" in text and "1e+300" in text

    @staticmethod
    def _hard_values() -> np.ndarray:
        """Values that test the writer's digit path and its fallback."""
        rng = np.random.default_rng(20261021)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64,
                            endpoint=False)
        powers = 10.0 ** np.arange(-30, 31)
        # exact 17-digit ties: m * 2**(X - 17), m odd, times 10**(16 - X)
        # is a half-integer (131073 / 2**17 is one)
        ties = [131073 / 2 ** 17]
        for X in range(16):
            lo, hi = 10 ** X * 2 ** (17 - X), 10 ** (X + 1) * 2 ** (17 - X)
            m = rng.integers(lo // 2, min(hi, 2 ** 53) // 2, 50) * 2 + 1
            ties += [int(k) * 2.0 ** (X - 17) for k in m]
        classes = [s * 10.0 ** X for X in range(-5, 18)
                   for s in (1.0, 1.25, 3.0000000000000004, 9.999999999999998)]
        ints = np.concatenate([np.arange(1.0, 1025.0), 2.0 ** np.arange(54),
                               rng.integers(1, 2 ** 53, 2000,
                                            endpoint=True).astype(float)])
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                   2.2250738585072014e-308, 1e-200, 1e200, 1.7976931348623157e308,
                   0.30000000000000004, 131073 / 2 ** 17]
        values = np.concatenate([
            bits.view(np.float64), powers, np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf), ties, classes, ints, special])
        return np.concatenate([values, -values])

    def test_rows_match_17g_itself(self, tmp_path):
        values = self._hard_values()
        n = 997
        per_snapshot = 4 * n
        values = np.concatenate(
            [values, np.zeros(-values.size % per_snapshot)])
        fields = values.reshape(-1, n, 4)
        traj = SimpleNamespace(
            grid=Grid.cartesian(-1.0, 1.0, n),
            times=np.linspace(0.0, 1.0, fields.shape[0]) ** 3,
            E=fields[..., 0], M=fields[..., 1], F=fields[..., 2],
            Ms=fields[..., 3])
        cli_mod._write_snapshots(tmp_path / "snapshots.csv", traj)
        rows = (tmp_path / "snapshots.csv").read_text().split("\n")
        assert rows[0] == "t,x,E,M,F,Ms" and rows[-1] == ""
        x = traj.grid.x.tolist()
        k = 1
        for i, t in enumerate(traj.times.tolist()):
            for j in range(n):
                want = ",".join("%.17g" % v for v in
                                (t, x[j], *fields[i, j].tolist()))
                assert rows[k] == want, (i, j)
                k += 1
        assert k == len(rows) - 1


def test_commands_write_nothing_to_the_real_stdout(tmp_path, capfd):
    # a caller that redirects sys.stdout (as a benchmark harness does) gets
    # every line; nothing reaches file descriptor 1, pool workers included
    cfg = preset("fig1")
    cfg.run["t_end"] = 5.0
    path = tmp_path / "quick.cfg"
    path.write_text(cfg.to_text())
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        simulate_to_dir(cfg, tmp_path / "simulate")
        assert main(["sweep", "--config", str(path), "--axis", "model.gamma",
                     "--values", "0.5,1.0", "--workers", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["verify", "--preset", "carpet", "--which", "all"]) == 0
    assert "outcome = " in captured.getvalue()
    assert capfd.readouterr().out == ""
