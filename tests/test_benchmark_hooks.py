"""The benchmark's layer hooks name functions that exist and are reached.

`perfbench/layers.py` wraps sitcarpet functions by their dotted names.  A
hook whose target was renamed or deleted is skipped without an error, and
every per-layer metric that needs it drops out of a traced result, so a
rename has to fail here first.  A target that still exists but is no longer
called reads 0, so the per-step targets are counted over a run, and the
certificate counters over a short certificate.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sitcarpet import solver
from sitcarpet.config import CARPET_C, preset
from sitcarpet.supersolution import find_supersolution_bundle, walk_times
from sitcarpet.verify import verify_supersolution

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


def test_certificate_hooks_are_reached(layers):
    # the certify counters, installed as the benchmark installs them: one
    # Mbar solve per step of the Ebar walk through verify's solve_banded,
    # and Fbar through supersolution's assemble_Fbar; a solve or an Fbar
    # evaluation that stopped going through these names would zero
    # verify.mbar_solves or supersolution.assemble_Fbar_calls
    tracing = importlib.import_module("tracing")
    names = ("verify.solve_banded", "supersolution.assemble_Fbar")
    hooks = [hook for hook in layers.HOOKS if hook.name in names]
    assert sorted(hook.name for hook in hooks) == sorted(names)
    bundle = find_supersolution_bundle(preset("carpet").scenario().params,
                                       c=CARPET_C)
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer, hooks)
    try:
        verify_supersolution(bundle, t_end=5.0, n_x=300)
    finally:
        restore()
    assert missing == []
    assert tracer.counts["verify.solve_banded"] == (
        walk_times(5.0, 0.02)[0].size - 1)
    assert tracer.counts["supersolution.assemble_Fbar"] > 0
