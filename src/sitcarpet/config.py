"""Scenario configuration: flat key-value format, validation, and presets.

Config files are plain text, one `section.key = value` per line, sections
model / grid / schedule / initial / run.  Serialization is canonical (sorted
keys, repr-exact floats) so a config echoed into a run directory reparses to
an identical scenario and hashes stably.

Presets reproduce the published experiment setups: the three 1D runs on
[-40, 40] with 800 nodes and the step initial datum at the positive
equilibrium left of x = -10 (fig1: gamma = 0.5; fig2-left: gamma = 0.01;
fig2-right: gamma = 2.355e-3), and the radial runs on a ball of radius 45
(carpet: the rolling-carpet schedule; no-release-2d: the same well-prepared
initial state left alone).  fig2-right's T = 150 shows its front retreating;
extinction takes about 1250 time units.  The carpet's release radius R1 and
speed c are artifact choices; its outer radius R2 and amplitude lambda_bar
come from one super-solution constant search,
supersolution.find_supersolution_bundle(c = 0.03, safety = 1.5,
eps = 0.08), whose core level u0 is 7.67e-7, not the initial datum's 0.05.
`verify --preset carpet` certifies the default search instead (safety 2:
R2 = 34.164, lambda_bar = 2.305e6), so the preset runs a geometry that no
certificate checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .model import ModelParams
from .solver import (DT, SNAPSHOT_DT, Grid, InitialData, ReleaseSchedule,
                     Scenario, check_run_settings)

# Published parameter table for the numerical experiments; mu_s and gamma_s
# do not appear there and are artifact defaults (sterile males assumed
# shorter-lived than wild ones, equally competitive).
TABLE1 = {
    "b": 10.0, "nu_E": 0.08, "mu_E": 0.05, "mu_M": 0.14, "mu_F": 0.1,
    "rho": 0.5, "K": 200.0, "D": 0.1,
}
DEFAULT_MU_S = 0.3
DEFAULT_GAMMA_S = 1.0
# The largest given run.dt.  At 4 DT every preset keeps its verdict at DT and
# fig1's front speed, 0.2576, stays within 10% of the reference 0.2790; at
# 8 DT the carpet turns Indeterminate and fig1's speed is 13.6% low.
MAX_DT = 4.0 * DT


def table1_params(gamma: Optional[float] = 0.5, mu_s: float = DEFAULT_MU_S,
                  gamma_s: float = DEFAULT_GAMMA_S, **overrides) -> ModelParams:
    """ModelParams from the published table; gamma=None gives the monostable case."""
    kw = dict(TABLE1)
    kw.update(overrides)
    return ModelParams(mu_s=mu_s, gamma_s=gamma_s, gamma=gamma, **kw)


@dataclass
class ScenarioConfig:
    """Flat, fully validated mirror of a Scenario (plus output options)."""

    model: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    SECTIONS = ("model", "grid", "schedule", "initial", "run")

    def to_text(self) -> str:
        lines = []
        for sec in self.SECTIONS:
            d = getattr(self, sec)
            for k in sorted(d):
                v = d[k]
                if v is None:
                    continue  # unset fields are simply absent
                if isinstance(v, float):
                    v = repr(v)
                lines.append(f"{sec}.{k} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        cfg = cls()
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line or "." not in line.split("=", 1)[0]:
                raise ConfigError(f"line {ln}: expected 'section.key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            sec, name = key.split(".", 1)
            if sec not in cls.SECTIONS:
                raise ConfigError(f"line {ln}: unknown section {sec!r}")
            getattr(cfg, sec)[name] = _parse_value(val)
        return cfg

    def scenario(self) -> Scenario:
        return build_scenario(self)


class ConfigError(ValueError):
    pass


def _parse_value(s: str):
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        i = int(s)
        if "." not in s and "e" not in low:
            return i
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def _require(d: dict, sec: str, key: str, default=None, required=False):
    if key in d:
        return d[key]
    if required:
        raise ConfigError(f"missing required field {sec}.{key}")
    return default


def _number(d: dict, sec: str, key: str, default=None, required=False):
    """`sec.key` as a float; ConfigError naming the key unless the value is
    an int or a float (a string or a boolean is not a number)."""
    v = _require(d, sec, key, default, required)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{sec}.{key} must be a number, got {v!r}")
    return float(v)


# Every key build_scenario reads, by section; any other key is an error.
KNOWN_KEYS = {
    "model": ("gamma_kind", "gamma", "K", "K_oscillation", "K_period", "b",
              "nu_E", "mu_E", "mu_M", "mu_F", "mu_s", "rho", "D", "gamma_s"),
    "grid": ("kind", "n", "x_min", "x_max", "r_max"),
    "schedule": ("kind", "lambda_bar", "R1", "R2", "c", "eta"),
    "initial": ("kind", "R0_0", "R0_1", "u0", "x_step", "step_side"),
    "run": ("t_end", "dt", "snapshot_dt"),
}
# The keys a kind does not read, by section and kind; giving one is an error.
UNREAD_KEYS = {
    "model": {"monostable": ("gamma",)},
    "grid": {"cartesian1d": ("r_max",), "radial2d": ("x_min", "x_max")},
    "schedule": {kind: ("eta",) for kind in ("none", "annulus", "disc",
                                             "fixed_region")},
    "initial": {"well_prepared": ("x_step", "step_side"),
                "step": ("R0_0", "R0_1", "u0")},
}


def check_key(sec: str, key: str) -> None:
    """Raise ConfigError unless `sec.key` is a key build_scenario reads."""
    name = f"{sec}.{key}"
    if name == "run.snapshot_every":
        raise ConfigError("run.snapshot_every is no longer read: the "
                          "snapshot spacing is given in time units as "
                          "run.snapshot_dt")
    if sec not in KNOWN_KEYS:
        raise ConfigError(f"unknown config section in {name}; sections are "
                          f"{', '.join(KNOWN_KEYS)}")
    if key not in KNOWN_KEYS[sec]:
        raise ConfigError(f"unknown config key {name}; {sec} keys are "
                          f"{', '.join(KNOWN_KEYS[sec])}")


def _check_read(d: dict, sec: str, kind_key: str, kind: str) -> None:
    """Raise ConfigError naming the first key of `d` that `sec.kind_key =
    kind` does not read."""
    for key in UNREAD_KEYS[sec].get(kind, ()):
        if key in d:
            raise ConfigError(f"{sec}.{key} is not read when {sec}.{kind_key} "
                              f"is {kind}")


def _K_field(x, base: float, amp: float, per: float):
    """K(x) = base + amp sin(2 pi |x| / per); a partial of it pickles."""
    return base + amp * np.sin(2.0 * np.pi * np.abs(x) / per)


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Validate a parsed config field by field and construct the Scenario."""
    for sec in cfg.SECTIONS:
        for key in getattr(cfg, sec):
            check_key(sec, key)
    m = cfg.model
    gamma_kind = str(_require(m, "model", "gamma_kind", "bistable")).lower()
    if gamma_kind not in ("bistable", "monostable"):
        raise ConfigError("model.gamma_kind must be bistable or monostable")
    _check_read(m, "model", "gamma_kind", gamma_kind)
    gamma = _number(m, "model", "gamma") if "gamma" in m else None
    if gamma_kind == "bistable" and gamma is None:
        raise ConfigError("model.gamma required in the bistable case")
    rates = {key: _number(m, "model", key, default) for key, default in (
        ("b", TABLE1["b"]), ("nu_E", TABLE1["nu_E"]),
        ("mu_E", TABLE1["mu_E"]), ("mu_M", TABLE1["mu_M"]),
        ("mu_F", TABLE1["mu_F"]), ("mu_s", DEFAULT_MU_S),
        ("rho", TABLE1["rho"]), ("K", TABLE1["K"]), ("D", TABLE1["D"]),
        ("gamma_s", DEFAULT_GAMMA_S))}
    K_osc = _number(m, "model", "K_oscillation", 0.0)
    K_period = _number(m, "model", "K_period", 10.0)
    try:
        params = ModelParams(
            gamma=None if gamma_kind == "monostable" else gamma, **rates)
        # so K(x) = K + K_oscillation sin(2 pi |x| / K_period) is finite
        # and at least K - K_oscillation > 0 everywhere
        if not 0.0 <= K_osc < params.K:
            raise ValueError(f"K_oscillation must be finite and in [0, K), "
                             f"got {K_osc!r} with K = {params.K!r}")
        if not 0.0 < K_period < math.inf:
            raise ValueError(f"K_period must be finite and > 0, got "
                             f"{K_period!r}")
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e
    if K_osc > 0.0:
        params = replace(params, K=functools.partial(
            _K_field, base=float(params.K), amp=K_osc, per=K_period))

    # the run settings are checked before the grid is built, so a run too
    # long to step allocates nothing
    r = cfg.run
    dt = None  # absent or "auto": the automatic step DT
    if _require(r, "run", "dt") not in (None, "auto"):
        dt = _number(r, "run", "dt")
    run_settings = dict(
        t_end=_number(r, "run", "t_end", required=True), dt=dt,
        snapshot_dt=_number(r, "run", "snapshot_dt", SNAPSHOT_DT))
    try:
        check_run_settings(**run_settings)
    except ValueError as e:
        raise ConfigError(f"run: {e}") from e
    if run_settings["dt"] is not None and run_settings["dt"] > MAX_DT:
        raise ConfigError(f"run.dt = {run_settings['dt']!r} exceeds "
                          f"{MAX_DT!r} (4 DT), the largest step checked "
                          f"against the presets' verdicts")

    g = cfg.grid
    kind = str(_require(g, "grid", "kind", required=True)).lower()
    n = _number(g, "grid", "n", required=True)
    if not n.is_integer():
        raise ConfigError(f"grid: n = {n!r} is not a whole number of nodes")
    n = int(n)
    if kind == "cartesian1d":
        make, extent = Grid.cartesian, (
            _number(g, "grid", "x_min", required=True),
            _number(g, "grid", "x_max", required=True))
    elif kind == "radial2d":
        make, extent = Grid.radial, (
            _number(g, "grid", "r_max", required=True),)
    else:
        raise ConfigError(f"grid.kind {kind!r} unknown")
    _check_read(g, "grid", "kind", kind)
    try:
        grid = make(*extent, n)
    except ValueError as e:
        raise ConfigError(f"grid: {e}") from e

    s = cfg.schedule
    release = {key: _number(s, "schedule", key, 0.0)
               for key in ("lambda_bar", "R1", "R2", "c", "eta")}
    try:
        schedule = ReleaseSchedule(
            kind=str(_require(s, "schedule", "kind", "none")).lower(),
            **release)
    except ValueError as e:
        raise ConfigError(f"schedule: {e}") from e
    _check_read(s, "schedule", "kind", schedule.kind)

    i = cfg.initial
    shape = {key: _number(i, "initial", key, default) for key, default in (
        ("R0_0", 10.0), ("R0_1", 15.0), ("u0", 0.0), ("x_step", 0.0))}
    try:
        initial = InitialData(
            kind=str(_require(i, "initial", "kind", "well_prepared")).lower(),
            step_side=str(_require(i, "initial", "step_side", "left")),
            **shape)
    except ValueError as e:
        raise ConfigError(f"initial: {e}") from e
    _check_read(i, "initial", "kind", initial.kind)

    return Scenario(params=params, grid=grid, schedule=schedule,
                    initial=initial, **run_settings)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Rolling-carpet release geometry (see module docstring).  R2 and lambda_bar
# are the constant search's output for Table-1 params at c = 0.03
# (find_supersolution_bundle with safety 1.5, eps 0.08; a test pins them to
# the live search); `verify` certifies the default search, not these.
CARPET_C = 0.03
CARPET_R1 = 4.0
CARPET_R2 = 29.053410705845625
CARPET_LAMBDA = 2019599.7762041942
CARPET_U0 = 0.05
CARPET_T = 150.0


def _preset_1d(gamma: float) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.model = {"gamma_kind": "bistable", "gamma": gamma,
                 "mu_s": DEFAULT_MU_S, "gamma_s": DEFAULT_GAMMA_S}
    cfg.grid = {"kind": "cartesian1d", "x_min": -40.0, "x_max": 40.0, "n": 800}
    cfg.schedule = {"kind": "none"}
    cfg.initial = {"kind": "step", "x_step": -10.0, "step_side": "left"}
    cfg.run = {"t_end": 150.0, "dt": "auto", "snapshot_dt": SNAPSHOT_DT}
    return cfg


def _preset_carpet(lambda_bar: float = CARPET_LAMBDA,
                   hetero: bool = False) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.model = {"gamma_kind": "bistable", "gamma": 0.5,
                 "mu_s": DEFAULT_MU_S, "gamma_s": DEFAULT_GAMMA_S}
    if hetero:
        cfg.model["K_oscillation"] = 50.0
        cfg.model["K_period"] = 10.0
    cfg.grid = {"kind": "radial2d", "r_max": 45.0, "n": 901}
    cfg.schedule = {"kind": "annulus", "lambda_bar": lambda_bar,
                    "R1": CARPET_R1, "R2": CARPET_R2, "c": CARPET_C}
    cfg.initial = {"kind": "well_prepared", "R0_0": CARPET_R2 + 1.0,
                   "R0_1": CARPET_R2 + 5.0, "u0": CARPET_U0}
    cfg.run = {"t_end": CARPET_T, "dt": "auto", "snapshot_dt": SNAPSHOT_DT}
    return cfg


def _preset_no_release_2d() -> ScenarioConfig:
    cfg = _preset_carpet()
    cfg.schedule = {"kind": "none"}
    cfg.run["t_end"] = 150.0
    return cfg


def preset(name: str) -> ScenarioConfig:
    presets = {
        "fig1": lambda: _preset_1d(0.5),
        "fig2-left": lambda: _preset_1d(0.01),
        "fig2-right": lambda: _preset_1d(2.355e-3),
        "carpet": _preset_carpet,
        "carpet-hetero": lambda: _preset_carpet(hetero=True),
        "no-release-2d": _preset_no_release_2d,
    }
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          + ", ".join(sorted(presets)))
    return presets[name]()


PRESET_NAMES = ("fig1", "fig2-left", "fig2-right", "carpet", "carpet-hetero",
                "no-release-2d")
