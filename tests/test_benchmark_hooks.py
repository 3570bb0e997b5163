"""The benchmark's layer hooks name functions that exist and are reached.

`perfbench/layers.py` wraps sitcarpet functions by their dotted names.  A
hook whose target was renamed or deleted is skipped without an error, and
every per-layer metric that needs it drops out of a traced result, so a
rename has to fail here first.  A target that still exists but is no longer
called reads 0, so the per-step targets are counted over a run.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sitcarpet import solver
from sitcarpet.config import preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_every_hook_target_is_callable(layers):
    missing = []
    for hook in layers.HOOKS:
        module_name, attr = hook.target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(hook.target)
    assert layers.HOOKS and missing == []


@pytest.mark.parametrize("name,releases", [("fig1", False), ("carpet", True)])
def test_step_hooks_are_reached(layers, monkeypatch, name, releases):
    # the per-step hooks see every step: one reaction call and one solve,
    # and a release evaluation only in a batch with sterile males; a step
    # that stopped calling one through these names would zero its metrics
    names = ("reaction_arrays", "solve_banded", "release_value")
    targets = {hook.target for hook in layers.HOOKS}
    assert {f"sitcarpet.solver.{n}" for n in names} <= targets
    calls = dict.fromkeys(names, 0)
    for n in names:
        def counted(*args, _n=n, _f=getattr(solver, n), **kwargs):
            calls[_n] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(solver, n, counted)
    traj = solver.run(replace(preset(name).scenario(), t_end=5.0))
    assert traj.n_steps == 20
    assert calls == {"reaction_arrays": traj.n_steps,
                     "solve_banded": traj.n_steps,
                     "release_value": traj.n_steps if releases else 0}
