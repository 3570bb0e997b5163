import time
from typing import NamedTuple

import numpy as np
import pytest

from sitcarpet.config import preset, table1_params
from sitcarpet.solver import Trajectory, run


class TimedRun(NamedTuple):
    traj: Trajectory
    seconds: float  # wall time of the run itself


def _timed_run(scenario) -> TimedRun:
    t0 = time.perf_counter()
    traj = run(scenario)
    return TimedRun(traj, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def p05():
    return table1_params(0.5)


@pytest.fixture(scope="session")
def eq05(p05):
    from sitcarpet.equilibria import solve_equilibria
    return solve_equilibria(p05)


@pytest.fixture(scope="session")
def timed_run():
    """`run` that also returns its wall time, so a budget can cover it."""
    return _timed_run


@pytest.fixture(scope="session")
def fig1_run():
    return _timed_run(preset("fig1").scenario())


@pytest.fixture(scope="session")
def fig1_traj(fig1_run):
    return fig1_run.traj


@pytest.fixture(scope="session")
def carpet_run():
    return _timed_run(preset("carpet").scenario())


@pytest.fixture(scope="session")
def carpet_traj(carpet_run):
    return carpet_run.traj


@pytest.fixture(scope="session")
def subsolution_05(p05):
    from sitcarpet.supersolution import sterile_upper_bound
    from sitcarpet.verify import build_subsolution
    return build_subsolution(p05, sterile_upper_bound(p05, 1000.0, 0.05,
                                                      33.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240809)
