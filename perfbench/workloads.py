"""The benchmark's workloads: what one operation calls and how it is checked.

Each workload is a closed loop with one client: the next operation is issued
only after the previous one returned.  The seed only sets the order in which
operations are issued; the program sees only the generated arguments.

- presets: `cli.simulate_to_dir` on fig1, carpet and carpet-hetero, each
  into a fresh run directory.  This is a user's preset run; it covers both
  grid kinds and the callable-K path.  Most of the time is the solver's time
  loop, the rest snapshot writing and classification.
- sweep: the criterion-6 gamma sweep through `cli.main(["sweep", ...])`
  with the CLI's own 2-worker pool.  Many scenarios on one grid, no
  snapshot writes, plus pool start-up.
- certify: `cli.main(["verify", "--preset", "carpet", "--which", "all"])`,
  the proof-object path.  It has no time loop, so a stepper change should
  not move it.

An operation cycle issues every operation of the workload once (a preset
each, for `presets`), so the mix in a run does not depend on where the
measuring window ends.  A traced run also issues each operation untraced,
which gives the tracing overhead; the sweep's traced operation runs with one
worker, because spans inside pool workers do not reach this process.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sitcarpet import cli
from sitcarpet.config import preset

PRESETS = ("fig1", "carpet", "carpet-hetero")
EXPECTED_OUTCOME = {"fig1": "Invasion", "carpet": "Carpet",
                    "carpet-hetero": "Carpet"}
# Acceptance criterion 4: fig1 front speed within 10% of 0.2790.
FIG1_SPEED = 0.2790
FIG1_SPEED_TOL = 0.10
SWEEP_GAMMAS = (0.05, 0.1, 0.5, 1.0)
SWEEP_WORKERS = 2


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One operation: `call(out_dir)` is timed, `check` runs afterwards."""

    label: str
    call: Callable[[Path], object]
    check: Callable[[object, Path], None]
    scenarios: int
    traced: bool = False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Presets:
    name = "presets"

    def __init__(self):
        self.digests: dict[str, str] = {}

    @staticmethod
    def build_scenarios():
        return [preset(name).scenario() for name in PRESETS]

    def _op(self, name: str, traced: bool) -> Op:
        def call(out: Path):
            return cli.simulate_to_dir(preset(name), out)

        def check(record, out: Path):
            expected = EXPECTED_OUTCOME[name]
            _require(record.outcome == expected,
                     f"{name}: outcome {record.outcome}, expected {expected}")
            if name == "fig1":
                _require(record.speed is not None and
                         abs(record.speed / FIG1_SPEED - 1.0) <= FIG1_SPEED_TOL,
                         f"fig1: speed {record.speed} not within "
                         f"{FIG1_SPEED_TOL:.0%} of {FIG1_SPEED}")
            digest = hashlib.sha256(
                (out / "snapshots.csv").read_bytes()).hexdigest()
            first = self.digests.setdefault(name, digest)
            _require(digest == first,
                     f"{name}: snapshots.csv differs from the first run")

        return Op(name, call, check, scenarios=1, traced=traced)

    def cycle(self, rng: random.Random, trace: bool) -> list[Op]:
        ops = [self._op(n, False) for n in PRESETS]
        if trace:
            ops += [self._op(n, True) for n in PRESETS]
        rng.shuffle(ops)
        return ops


class Sweep:
    name = "sweep"

    @staticmethod
    def build_scenarios():
        out = []
        for g in SWEEP_GAMMAS:
            cfg = preset("fig1")
            cfg.model["gamma"] = g
            out.append(cfg.scenario())
        return out

    @staticmethod
    def _op(values: list[float], workers: int, traced: bool) -> Op:
        label = "serial" if workers == 1 else "parallel"

        def call(out: Path):
            return cli.main(["sweep", "--preset", "fig1",
                             "--axis", "model.gamma",
                             "--values", ",".join(repr(v) for v in values),
                             "--workers", str(workers), "--out", str(out)])

        def check(code, out: Path):
            _require(code == cli.EXIT_OK, f"sweep: exit code {code}")
            files = list(out.glob("*/sweep.csv"))
            _require(len(files) == 1, "sweep: no single sweep.csv written")
            with open(files[0], newline="") as fh:
                rows = list(csv.DictReader(fh))
            gammas = [float(r["model.gamma"]) for r in rows]
            _require(sorted(gammas) == sorted(SWEEP_GAMMAS),
                     f"sweep: rows for {gammas}")
            _require(all(r["outcome"] == "Invasion" for r in rows),
                     f"sweep: outcomes {[r['outcome'] for r in rows]}")
            speeds = [float(r["speed"])
                      for r in sorted(rows, key=lambda r: float(r["model.gamma"]))]
            _require(all(a <= b for a, b in zip(speeds, speeds[1:])),
                     f"sweep: speeds {speeds} decrease with gamma")

        return Op(label, call, check, scenarios=len(values), traced=traced)

    def cycle(self, rng: random.Random, trace: bool) -> list[Op]:
        values = list(SWEEP_GAMMAS)
        rng.shuffle(values)
        if not trace:
            return [self._op(values, SWEEP_WORKERS, False)]
        ops = [self._op(values, SWEEP_WORKERS, False),
               self._op(values, 1, False), self._op(values, 1, True)]
        rng.shuffle(ops)
        return ops


class Certify:
    name = "certify"

    @staticmethod
    def build_scenarios():
        return [preset("carpet").scenario()]

    @staticmethod
    def _op(traced: bool) -> Op:
        def call(out: Path):
            return cli.main(["verify", "--preset", "carpet", "--which", "all"])

        def check(code, out: Path):
            _require(code == cli.EXIT_OK, f"certify: exit code {code}")

        return Op("verify", call, check, scenarios=1, traced=traced)

    def cycle(self, rng: random.Random, trace: bool) -> list[Op]:
        ops = [self._op(False)]
        if trace:
            ops.append(self._op(True))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Presets, Sweep, Certify)}
