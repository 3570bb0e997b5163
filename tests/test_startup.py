"""What a command imports: LAPACK without the scipy.linalg package, the
process pool only where a pool runs, and neither numpy.polynomial nor the
exact-arithmetic modules fractions and decimal."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg.lapack

from sitcarpet import solver

SRC = Path(__file__).resolve().parents[1] / "src"

# simulate, verify and a one-worker sweep in one fresh interpreter, then the
# modules none of them may have imported
COMMANDS = """
import sys
from sitcarpet.cli import main

out = sys.argv[1]
assert main(["simulate", "--preset", "fig1", "--out", out]) == 0
assert main(["verify", "--preset", "carpet", "--which", "all"]) == 0
assert main(["sweep", "--preset", "fig1", "--axis", "model.gamma",
             "--values", "0.5,1.0", "--workers", "1", "--out", out]) == 0
print(sorted(m for m in ("scipy.linalg", "concurrent.futures.process",
                         "numpy.polynomial", "fractions", "decimal")
             if m in sys.modules))
"""


def test_commands_import_neither_scipy_linalg_nor_the_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", "-c", COMMANDS,
                           str(tmp_path / "runs")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_lapack_routines_are_scipys_own():
    assert solver.dpttrf is scipy.linalg.lapack.dpttrf
    assert solver.dpttrs is scipy.linalg.lapack.dpttrs


def test_missing_scipy_is_an_import_error_naming_the_path(tmp_path):
    with pytest.raises(ImportError, match="scipy is not installed") as e:
        solver.load_flapack([str(tmp_path)])
    assert str(tmp_path) in str(e.value)


def test_missing_wrapper_is_an_import_error_naming_the_directory(tmp_path):
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").touch()
    with pytest.raises(ImportError, match="no scipy.linalg._flapack") as e:
        solver.load_flapack([str(tmp_path)])
    assert str(tmp_path / "scipy" / "linalg") in str(e.value)
