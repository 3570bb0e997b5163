"""Each scenario's equilibria are solved once.

A `Scenario` solves the equilibria of its max-K params on first use and
keeps them; the initial data, the classifier and the CLI's checks all read
them from there.  A second solve of the same parameters shows up here as
one more call of `solve_equilibria`.
"""

import sys

import pytest

import sitcarpet.equilibria
from sitcarpet.cli import main
from sitcarpet.config import preset


@pytest.fixture
def solve_calls(monkeypatch):
    """The params of every `solve_equilibria` call, through any binding of
    it in the sitcarpet modules."""
    original = sitcarpet.equilibria.solve_equilibria
    calls = []

    def counting(params):
        calls.append(params)
        return original(params)

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "sitcarpet" or name.startswith("sitcarpet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
                    patched.append(name)
    assert {"sitcarpet.equilibria", "sitcarpet.solver",
            "sitcarpet.verify"} <= set(patched)
    return calls


@pytest.fixture
def quick_fig1(tmp_path):
    cfg = preset("fig1")
    cfg.run["t_end"] = 5.0
    path = tmp_path / "quick.cfg"
    path.write_text(cfg.to_text())
    return path


@pytest.mark.parametrize("level", [[], ["--level", "1"]])
def test_simulate_solves_once(tmp_path, capsys, solve_calls, quick_fig1,
                              level):
    # make_initial, the level check and classify share one solve
    rc = main(["simulate", "--config", str(quick_fig1),
               "--out", str(tmp_path / "out")] + level)
    assert rc == 0
    assert len(solve_calls) == 1


def test_sweep_solves_twice_per_row(tmp_path, capsys, solve_calls,
                                    quick_fig1):
    # once in the pre-run check, once in the worker, which rebuilds each
    # row's scenario from the config text
    rc = main(["sweep", "--config", str(quick_fig1), "--axis", "model.gamma",
               "--values", "0.05,0.1,0.5,1.0", "--workers", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(solve_calls) == 8


def test_verify_all_solves_three_times(capsys, solve_calls):
    # the sub-solution and its stationary profile, and the super-solution
    # bundle; verify_subsolution reads the sub-solution's own equilibrium
    assert main(["verify", "--preset", "carpet", "--which", "all"]) == 0
    assert len(solve_calls) == 3
