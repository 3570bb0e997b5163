"""Command-line entry point: analyze | simulate | verify | sweep | cost.

Every simulation writes a self-contained run directory: the canonical config
echo, snapshots.csv (t, x, E, M, F, Ms per node), trace.csv (t, front
position), and outcome.txt (classification plus diagnostics, the config
hash, the step dt and the step count).  Identical configs produce
byte-identical outputs, except the wall_time_s line of outcome.txt, which is
a measured time.

Exit codes: 0 success, 2 config error, 3 solver error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
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
from .solver import (ReleaseSchedule, Scenario, SolverError, batch_key,
                     run, run_batch)
from .supersolution import (find_supersolution_bundle,
                            make_sterile_lower_bound,
                            make_sterile_lower_bound_tail)
from .verify import (
    CertificateReport,
    SubsolutionUnavailable,
    build_subsolution,
    verify_sterile_cap,
    verify_sterile_floor,
    verify_subsolution,
    verify_supersolution,
)
from .waves import classify, cost_exponent, sterile_cost

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
# The most sweep rows one batch advances together.  The step's cost per
# member levels off after a few members (on fig1, about 115, 80, 70 and
# 65 us at 1, 2, 4 and 8), while a batch holds every member's snapshots
# until it ends, so a long sweep runs in batches of this size.
SWEEP_BATCH_ROWS = 8


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
    """Write t, x, E, M, F, Ms, one row per node and snapshot, as "%.17g".

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",")`: every
    value goes through the same `"%.17g" % float`.  The x column is baked
    into the row template once, t is formatted once per snapshot, and the
    fields of one snapshot are filled by one `%` call from one flat list,
    reused across snapshots, whose slices take the rows as Python floats.
    """
    x = traj.grid.x
    template = "".join("%%s,%.17g,%%.17g,%%.17g,%%.17g,%%.17g\n" % v
                       for v in x)
    cells = [None] * (5 * x.size)
    with open(path, "w") as fh:
        fh.write("t,x,E,M,F,Ms\n")
        for i, t in enumerate(traj.times):
            cells[0::5] = ["%.17g" % t] * x.size
            for col, snaps in enumerate((traj.E, traj.M, traj.F, traj.Ms), 1):
                cells[col::5] = snaps[i].tolist()
            fh.write(template % tuple(cells))


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    report = eq_mod.thresholds(scenario.at_max_K)
    eqs = scenario.equilibria

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


def _check_level(level: float | None, scenario: Scenario) -> None:
    """Raise ConfigError unless level is None or in [0, F*), F* the upper
    equilibrium at the largest K (SolverError if none): any other level is
    never crossed (the run would end Indeterminate); 0 tracks the support."""
    if level is None:
        return
    F_star = scenario.upper[2]
    if not 0.0 <= level < F_star:
        raise ConfigError(f"--level {level!r} must be finite and in [0, F*), "
                          f"F* = {F_star:.6g}")


def simulate_to_dir(cfg: ScenarioConfig, out: Path,
                    level: float | None = None) -> RunRecord:
    scenario = cfg.scenario()
    _check_level(level, scenario)
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
        try:
            sub = build_subsolution(params, c=c, lambda_bar=lam,
                                    R2=max(sched.R2, 1.0))
        except SubsolutionUnavailable as e:  # a failed check, not a crash
            reports.append(CertificateReport("subsolution", [], False,
                                             unbuilt=str(e)))
        else:
            reports.append(verify_subsolution(sub))
    if which in ("supersolution", "all"):
        bundle = find_supersolution_bundle(params, c=c)
        print(f"bundle constants: mu={bundle.mu:g} eps={bundle.eps:g} "
              f"u0={bundle.u0:g} C1={bundle.C1:g} C2={bundle.C2:g} "
              f"L={bundle.L:g} lambda_bar={bundle.lambda_bar:g}")
        reports.append(verify_supersolution(bundle))
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


def _row_config(cfg_text: str, axis: str, value: float) -> ScenarioConfig:
    """The config of one sweep row: cfg_text with `axis` set to value."""
    cfg = ScenarioConfig.from_text(cfg_text)
    sec, key = axis.split(".", 1)
    getattr(cfg, sec)[key] = value
    return cfg


def _run_rows(scenarios) -> list:
    """Each scenario's Trajectory, or the exception that stopped it: as one
    batch, or one by one if the batch fails, so only failing rows fail."""
    try:
        return run_batch(scenarios)
    except Exception as e:  # recorded per row, reported in the exit code
        if len(scenarios) == 1:
            return [e]
        return [_run_rows([sc])[0] for sc in scenarios]


def _sweep_share(payload) -> list:
    """One worker's share of the rows, in order: (value, outcome, speed) or
    an error message per row.  Rows with equal `batch_key` run as batches
    of up to SWEEP_BATCH_ROWS."""
    cfg_text, axis, values, level = payload
    scenarios = [_row_config(cfg_text, axis, v).scenario() for v in values]
    compatible: dict = {}
    for i, sc in enumerate(scenarios):
        compatible.setdefault(batch_key(sc), []).append(i)
    batches = [rows[k:k + SWEEP_BATCH_ROWS] for rows in compatible.values()
               for k in range(0, len(rows), SWEEP_BATCH_ROWS)]
    results = [None] * len(values)
    for rows in batches:
        for i, traj in zip(rows, _run_rows([scenarios[i] for i in rows])):
            try:
                if isinstance(traj, Exception):
                    raise traj
                outcome = classify(traj, level=level)
                results[i] = (values[i], outcome.kind, outcome.speed)
            except Exception as e:  # reported per row and in the exit code
                results[i] = f"{type(e).__name__}: {e}"
    return results


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sec, _, key = args.axis.partition(".")
    check_key(sec, key)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as e:
        raise ConfigError(f"sweep --values: {e}") from None
    if args.workers < 1:
        raise ConfigError(f"sweep --workers must be >= 1, got {args.workers}")
    cfg_text = cfg.to_text()
    # every row's config, equilibria and level are checked before any row
    # runs, so a bad value is a config error with nothing run or written; a
    # row with no positive equilibrium runs, to fail alone as in `simulate`
    for v in values:
        try:
            scenario = _row_config(cfg_text, args.axis, v).scenario()
            if scenario.equilibria.upper is not None:
                _check_level(args.level, scenario)
        except (ConfigError, eq_mod.ParameterRangeError) as e:
            raise ConfigError(f"{args.axis} = {v!r}: {e}") from None
    # each worker takes a near-equal run of consecutive rows; a fork-started
    # pool launches every worker up front, so it is never larger than the
    # number of rows
    workers = min(args.workers, len(values))
    q, r = divmod(len(values), workers)
    cuts = [i * q + min(i, r) for i in range(workers + 1)]
    payloads = [(cfg_text, args.axis, values[a:b], args.level)
                for a, b in zip(cuts, cuts[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            shares = list(ex.map(_sweep_share, payloads))
    else:
        shares = [_sweep_share(payloads[0])]
    failures = []
    rows = []
    for v, res in zip(values, (res for share in shares for res in share)):
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
    out = _out_dir(args, cfg_text + f"\n# sweep {args.axis}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as fh:
        fh.write(f"{args.axis},outcome,speed\n")
        for v, kind, speed in rows:
            fh.write(f"{v!r},{kind},{speed!r}\n")
    return EXIT_OK if not failures else EXIT_SOLVER


def cmd_cost(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    sched = scenario.schedule
    try:
        T_grid = [float(v) for v in args.horizons.split(",")]
    except ValueError as e:
        raise ConfigError(f"cost --horizons: {e}") from None
    if not all(0.0 < T < math.inf for T in T_grid):
        raise ConfigError(f"cost --horizons {args.horizons}: every horizon "
                          f"must be finite and > 0")
    if len(T_grid) < 2 or len(set(T_grid)) < len(T_grid):
        raise ConfigError(f"cost --horizons {args.horizons}: the exponent "
                          f"needs at least two horizons, none repeated")
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
    # every total before anything is printed: a horizon whose total
    # overflows a double is a config error with empty output
    table = []
    for name, s in strategies.items():
        try:
            totals = [sterile_cost(s, T) for T in T_grid]
        except OverflowError:
            totals = [math.inf]
        if not all(math.isfinite(v) for v in totals):
            raise ConfigError(f"cost --horizons {args.horizons}: the "
                              f"{name} total overflows a double")
        table.append((name, cost_exponent(s, T_grid), totals))
    print(f"{'strategy':>14}  {'exponent':>9}  totals")
    for name, exponent, totals in table:
        cells = "  ".join(f"T={T:g}:{v:.4g}" for T, v in zip(T_grid, totals))
        print(f"{name:>14}  {exponent:>9.4f}  {cells}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sitcarpet",
        description="rolling-carpet sterile insect technique toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, *, level=False, out=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a scenario config file")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="named preset scenario")
        if level:
            p.add_argument("--level", type=float, default=None,
                           help="front-tracking level (default F*/2)")
        if out:
            p.add_argument("--out", help="output root (default "
                                         "$SITCARPET_OUT or ./runs)")
        p.set_defaults(func=func)
        return p

    add_command("analyze", cmd_analyze, "thresholds and equilibria", out=True)
    add_command("simulate", cmd_simulate, "run a scenario and classify it",
                level=True, out=True)

    p_ver = add_command("verify", cmd_verify, "residual certificates")
    p_ver.add_argument("--which",
                       choices=("subsolution", "supersolution",
                                "sterile-bounds", "all"),
                       default="all")

    p_sw = add_command("sweep", cmd_sweep, "sweep one scalar config field",
                       level=True, out=True)
    p_sw.add_argument("--axis", required=True,
                      help="dotted config field, e.g. model.gamma")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.add_argument("--workers", type=int, default=1)

    p_cost = add_command("cost", cmd_cost, "release-cost table per strategy")
    p_cost.add_argument("--horizons", default="10,100,1000,10000",
                        help="comma-separated horizons T")

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
