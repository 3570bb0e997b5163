"""Command-line entry point: analyze | simulate | verify | sweep | cost.

Every simulation writes a self-contained run directory: the canonical config
echo, snapshots.csv (t, x, E, M, F, Ms per node), trace.csv (t, front
position), and outcome.txt (classification plus diagnostics, the config
hash, the step dt, the step gate dt_max and its binding term, and the step
count).  Identical configs produce byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 solver error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import equilibria as eq_mod
from .config import (ConfigError, PRESET_NAMES, ScenarioConfig, check_key,
                     preset)
from .solver import ReleaseSchedule, SolverError, run
from .supersolution import make_sterile_lower_bound, make_sterile_lower_bound_tail
from .verify import (
    build_subsolution,
    supersolution_certificate,
    verify_sterile_cap,
    verify_sterile_floor,
    verify_subsolution,
)
from .waves import classify, sterile_cost_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _load_config(args) -> ScenarioConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        return preset(args.preset)
    if args.config:
        return ScenarioConfig.from_text(Path(args.config).read_text())
    raise ConfigError("one of --preset or --config is required")


def _out_dir(args, cfg_text: str) -> Path:
    """The run directory for cfg_text; created by whoever writes into it."""
    root = Path(args.out or os.environ.get("SITCARPET_OUT", "runs"))
    return root / hashlib.sha256(cfg_text.encode()).hexdigest()[:12]


def _write_snapshots(path: Path, traj) -> None:
    x = traj.grid.x
    rows = []
    for i, t in enumerate(traj.times):
        block = np.column_stack([
            np.full_like(x, t), x, traj.E[i], traj.M[i], traj.F[i], traj.Ms[i]])
        rows.append(block)
    np.savetxt(path, np.vstack(rows), delimiter=",",
               header="t,x,E,M,F,Ms", comments="", fmt="%.17g")


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    params = scenario.params.at_max_K(scenario.grid.x)
    report = eq_mod.thresholds(params)
    eqs = eq_mod.solve_equilibria(params)

    def fmt(v):
        return "n/a" if v is None else f"{v:.6g}"

    lines = [
        f"basic offspring number N = {report.n_offspring:.6g}",
        f"zeta    = {fmt(report.zeta)}",
        f"zeta_c  = {fmt(report.zeta_c)}",
        f"gamma_c = {fmt(report.gamma_c)}",
        f"gamma_0 = {fmt(report.gamma_0)}",
        f"regime  = {report.regime}",
        f"natural extinction = {report.natural_extinction}",
        "equilibria (E, M, F):",
        f"  extinction: (0, 0, 0)  stable={eqs.extinction_stable}",
    ]
    if eqs.middle:
        lines.append(f"  middle: ({eqs.middle[0]:.6g}, {eqs.middle[1]:.6g}, "
                     f"{eqs.middle[2]:.6g})  stable={eqs.middle_stable}")
    if eqs.upper:
        lines.append(f"  upper:  ({eqs.upper[0]:.6g}, {eqs.upper[1]:.6g}, "
                     f"{eqs.upper[2]:.6g})  stable={eqs.upper_stable}")
    if eqs.degenerate:
        lines.append("  (degenerate tangency)")
    text = "\n".join(lines)
    print(text)
    cfg_text = cfg.to_text()
    out = _out_dir(args, cfg_text)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(cfg_text)
    (out / "analysis.txt").write_text(text + "\n")
    return EXIT_OK


@dataclass(frozen=True)
class RunRecord:
    """Persisted summary of one simulation run."""

    config_hash: str
    snapshots_path: Path
    trace_path: Path
    outcome: str
    speed: float | None
    wall_time_s: float


def simulate_to_dir(cfg: ScenarioConfig, out: Path,
                    level: float | None = None) -> RunRecord:
    scenario = cfg.scenario()
    cfg_text = cfg.to_text()
    t0 = time.perf_counter()
    traj = run(scenario)
    wall = time.perf_counter() - t0
    outcome = classify(traj, level=level)

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(cfg_text)
    snap_path = out / "snapshots.csv"
    _write_snapshots(snap_path, traj)
    tr = outcome.trace.valid()
    trace_path = out / "trace.csv"
    np.savetxt(trace_path,
               np.column_stack([tr.times, tr.positions]), delimiter=",",
               header="t,position", comments="", fmt="%.17g")
    digest = hashlib.sha256(cfg_text.encode()).hexdigest()
    lines = [f"outcome = {outcome.kind}",
             f"speed = {outcome.speed if outcome.speed is not None else 'n/a'}",
             f"config_hash = {digest}",
             f"wall_time_s = {wall:.3f}",
             f"dt = {traj.dt!r}",
             f"dt_max = {traj.dt_max!r}",
             f"dt_max_term = {traj.dt_max_term}",
             f"n_steps = {traj.n_steps}",
             f"clamp_count = {traj.clamps.count}",
             f"clamp_worst_rel = {traj.clamps.worst_rel:.3e}"]
    for k, v in sorted(outcome.diagnostics.items()):
        lines.append(f"diag.{k} = {v}")
    (out / "outcome.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return RunRecord(digest, snap_path, trace_path, outcome.kind,
                     outcome.speed, wall)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg.to_text())
    simulate_to_dir(cfg, out, level=args.level)
    print(f"run directory: {out}")
    return EXIT_OK


def _release_geometry(sched: ReleaseSchedule) -> tuple[float, float, float]:
    """The schedule's R1, R2 and eta, or where unset 4, R1 + 28 and 0.3."""
    R1 = sched.R1 if sched.R1 > 0 else 4.0
    R2 = sched.R2 if sched.R2 > R1 else R1 + 28.0
    return R1, R2, sched.eta if sched.eta > 0 else 0.3


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    params = scenario.params
    sched = scenario.schedule
    c, lam = max(sched.c, 0.01), max(sched.lambda_bar, 1.0)
    reports = []
    which = args.which
    if which != "sterile-bounds" and callable(params.K):
        raise ConfigError(f"verify --which {which} needs a scalar K; this "
                          f"config has a heterogeneous K(x) (--which "
                          f"sterile-bounds works)")
    if which in ("subsolution", "all"):
        sub = build_subsolution(params, c=c, lambda_bar=lam,
                                R2=max(sched.R2, 1.0))
        reports.append(verify_subsolution(sub))
    if which in ("supersolution", "all"):
        bundle, rep = supersolution_certificate(params, c=c)
        print(f"bundle constants: mu={bundle.mu:g} eps={bundle.eps:g} "
              f"u0={bundle.u0:g} C1={bundle.C1:g} C2={bundle.C2:g} "
              f"L={bundle.L:g} lambda_bar={bundle.lambda_bar:g}")
        reports.append(rep)
    if which in ("sterile-bounds", "all"):
        R1, R2, eta = _release_geometry(sched)
        r1 = R1 + 2.0
        r2 = R2 - 2.0
        reports.append(verify_sterile_cap(params, lam, c, R1, R2, Rs=R2 + 1.0))
        reports.append(verify_sterile_floor(
            make_sterile_lower_bound(params, lam, c, R1, r1, r2, R2)))
        reports.append(verify_sterile_floor(
            make_sterile_lower_bound_tail(params, lam, c, R1, r1, r2, R2, eta)))
    for rep in reports:
        print(rep)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _sweep_one(payload):
    cfg_text, axis, value, level = payload
    cfg = ScenarioConfig.from_text(cfg_text)
    sec, key = axis.split(".", 1)
    getattr(cfg, sec)[key] = value
    outcome = classify(run(cfg.scenario()), level=level)
    return (value, outcome.kind, outcome.speed)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sec, _, key = args.axis.partition(".")
    check_key(sec, key)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as e:
        raise ConfigError(f"sweep --values: {e}") from None
    payloads = [(cfg.to_text(), args.axis, v, args.level) for v in values]
    failures = []
    rows = []
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as ex:
            results = list(ex.map(_sweep_one_safe, payloads))
    else:
        results = list(map(_sweep_one_safe, payloads))
    for v, res in zip(values, results):
        if isinstance(res, str):
            failures.append((v, res))
        else:
            rows.append(res)
    rows.sort(key=lambda r: r[0])
    print(f"{args.axis:>16}  {'outcome':>14}  {'speed':>12}")
    for v, kind, speed in rows:
        sp = f"{speed:.6g}" if speed is not None else "n/a"
        print(f"{v:>16.6g}  {kind:>14}  {sp:>12}")
    for v, msg in failures:
        print(f"{v:>16.6g}  FAILED: {msg}")
    out = _out_dir(args, cfg.to_text() + f"\n# sweep {args.axis}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as fh:
        fh.write(f"{args.axis},outcome,speed\n")
        for v, kind, speed in rows:
            fh.write(f"{v!r},{kind},{speed!r}\n")
    return EXIT_OK if not failures else EXIT_SOLVER


def _sweep_one_safe(payload):
    try:
        return _sweep_one(payload)
    except Exception as e:  # recorded per-row, reported in the exit code
        return f"{type(e).__name__}: {e}"


def cmd_cost(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    sched = scenario.schedule
    T_grid = [float(v) for v in args.horizons.split(",")]
    lam = sched.lambda_bar if sched.lambda_bar > 0 else 1.0
    R1, R2, eta = _release_geometry(sched)
    c = sched.c if sched.c > 0 else 0.03
    strategies = {
        "naive-disc": ReleaseSchedule(kind="disc", lambda_bar=lam, R2=R2, c=c),
        "annulus": ReleaseSchedule(kind="annulus", lambda_bar=lam, R1=R1,
                                   R2=R2, c=c),
        "annulus-tail": ReleaseSchedule(kind="annulus_tail", lambda_bar=lam,
                                        R1=R1, R2=R2, c=c, eta=eta),
    }
    print(f"{'strategy':>14}  {'exponent':>9}  totals")
    for name, s in strategies.items():
        rep = sterile_cost_report(s, T_grid)
        totals = "  ".join(f"T={T:g}:{tot:.4g}" for T, tot in rep["totals"].items())
        print(f"{name:>14}  {rep['exponent']:>9.4f}  {totals}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sitcarpet",
        description="rolling-carpet sterile insect technique toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a scenario config file")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="named preset scenario")
        p.add_argument("--level", type=float, default=None,
                       help="front-tracking level (default F*/2)")
        p.add_argument("--out",
                       help="output root (default $SITCARPET_OUT or ./runs)")

    p_an = sub.add_parser("analyze", help="thresholds and equilibria")
    add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a scenario and classify it")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="residual certificates")
    add_common(p_ver)
    p_ver.add_argument("--which",
                       choices=("subsolution", "supersolution",
                                "sterile-bounds", "all"),
                       default="all")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="sweep one scalar config field")
    add_common(p_sw)
    p_sw.add_argument("--axis", required=True,
                      help="dotted config field, e.g. model.gamma")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.add_argument("--workers", type=int, default=1)
    p_sw.set_defaults(func=cmd_sweep)

    p_cost = sub.add_parser("cost", help="release-cost table per strategy")
    add_common(p_cost)
    p_cost.add_argument("--horizons", default="10,100,1000,10000",
                        help="comma-separated horizons T")
    p_cost.set_defaults(func=cmd_cost)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, eq_mod.ParameterRangeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
