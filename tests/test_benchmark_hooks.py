"""The benchmark's layer hooks name functions that exist.

`perfbench/layers.py` wraps sitcarpet functions by their dotted names.  A
hook whose target was renamed or deleted is skipped without an error, and
every per-layer metric that needs it drops out of a traced result, so a
rename has to fail here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
