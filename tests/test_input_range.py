"""Inputs at the edge of double precision fail with a documented exit code
(2 config error, 3 solver error), never a traceback, and an exit-2 run
writes nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sitcarpet.cli import main
from sitcarpet.config import preset

SRC = Path(__file__).resolve().parents[1] / "src"

# each command on fig1 with a huge K, in a fresh interpreter with Python's
# default warning filters, as a user runs it, so that a numpy overflow
# warning would be printed, not raised.  One line per run: (K, command, exit
# code, files written)
HUGE_K = """
import sys
from pathlib import Path
from sitcarpet.cli import main
from sitcarpet.config import preset

tmp = Path(sys.argv[1])
for K in (1e157, 1e160, 1e306):
    cfg = preset("fig1")
    cfg.model["K"] = K
    cfg.run["t_end"] = 5.0
    path = tmp / f"K{K:g}.cfg"
    path.write_text(cfg.to_text())
    for command in ("analyze", "simulate", "verify", "sweep"):
        out = tmp / f"{command}-{K:g}"
        args = [command, "--config", str(path)]
        if command != "verify":
            args += ["--out", str(out)]
        if command == "sweep":
            args += ["--axis", "model.gamma", "--values", "0.5",
                     "--workers", "1"]
        rc = main(args)
        written = sum(1 for p in out.rglob("*") if p.is_file())
        print(repr((K, command, rc, written)))
"""


def test_huge_K_exits_with_a_documented_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", HUGE_K, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0 and "Traceback" not in done.stderr, \
        done.stderr
    # every overflow is either harmless or refused: nothing is printed
    assert "RuntimeWarning" not in done.stderr, done.stderr
    runs = [ast.literal_eval(ln) for ln in done.stdout.splitlines()
            if ln.startswith("(")]
    assert [(K, command) for K, command, _, _ in runs] == [
        (K, command) for K in (1e157, 1e160, 1e306)
        for command in ("analyze", "simulate", "verify", "sweep")]
    for K, command, rc, written in runs:
        assert rc in (0, 2, 3), (K, command)
        if rc == 2:
            assert written == 0, (K, command)
    # the wave potential G (of order K^2) is beyond double precision, so
    # neither gamma_0 nor a sub-solution's speed exists
    assert all(rc == 2 for K, command, rc, _ in runs
               if command in ("analyze", "verify"))
    # beyond 1e305 no bistable maximizer exists in double precision
    assert all(rc == 2 for K, _, rc, _ in runs if K == 1e306)


# grids whose spacing squared overflows (r_max 1e200, [-1e300, 1e300]) or
# underflows to 0 (r_max 1e-200): the diffusion matrix divides by it
BAD_GRIDS = [("carpet", {"r_max": 1e200}, "1.11111e+197"),
             ("carpet", {"r_max": 1e-200}, "1.11111e-203"),
             ("fig1", {"x_min": -1e300, "x_max": 1e300}, "2.50313e+297")]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("name,grid,spacing", BAD_GRIDS)
def test_grid_spacing_out_of_range_is_a_config_error(tmp_path, capsys,
                                                     command, name, grid,
                                                     spacing):
    cfg = preset(name)
    cfg.grid.update(grid)
    path = tmp_path / "grid.cfg"
    path.write_text(cfg.to_text())
    out = tmp_path / "out"
    args = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        args += ["--axis", "model.gamma", "--values", "0.5",
                 "--workers", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"grid: grid spacing {spacing}: its square is not a finite " \
           f"double above 0" in err
    assert not out.exists()


@pytest.mark.parametrize("r_max", [1e-10, 1e20])
def test_small_and_large_grid_spacings_run(tmp_path, r_max):
    cfg = preset("carpet")
    cfg.grid["r_max"] = r_max
    cfg.run["t_end"] = 0.5
    path = tmp_path / "grid.cfg"
    path.write_text(cfg.to_text())
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
