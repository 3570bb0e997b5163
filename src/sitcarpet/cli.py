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
import copy
import functools
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import equilibria as eq_mod
from .config import (ConfigError, PRESET_NAMES, ScenarioConfig, check_key,
                     preset)
from .solver import (ReleaseSchedule, Scenario, SolverError, batch_key,
                     run, run_batch)
from .supersolution import (CertificateUnavailable,
                            find_supersolution_bundle,
                            make_sterile_lower_bound, sterile_upper_bound)
from .verify import (
    CertificateReport,
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
# member levels off after a few members (on fig1, untraced on a 2-vCPU
# Xeon, about 46, 36, 29 and 27 us at 1, 2, 4 and 8), while a batch holds
# every member's snapshots until it ends, so a long sweep runs in batches
# of this size.
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


# snapshots.csv holds "%.17g" of every value: the bytes of `np.savetxt(fmt=
# "%.17g", delimiter=",")`.  CPython's float formatting was most of a preset
# run's write, so a value 1e-200 < |v| < 1e200 is printed from ints: its 17
# significant digits N and exponent X, found in numpy, with |v| rounded to 17
# digits equal to N * 10**(X - 16).  Every other value, and every one whose
# digits the routine cannot certify, is printed by "%.17g" itself in the same
# `%` call.
_X_MIN, _X_MAX = -200, 199  # the exponents of the digit path
# Rows per chunk.  Every temporary of a chunk (the largest are the 3 ints of
# each of its 4096 values, 96 KiB, and its text, about 100 KB on the carpet
# preset) stays under glibc's 128 KiB mmap threshold, so the chunks reuse
# heap memory: a carpet write takes no page faults, against about 1 500 with
# 4096 rows.
_CHUNK_ROWS = 1024
# a value's spec class: X + 4 for %g's fixed notation (-4 <= X <= 16), then
# %g's exponent notation, +-0.0, and "%.17g" itself
_EXP, _ZERO, _FALLBACK = 21, 22, 23
_N_CLASSES = 24


def _pow10_pair(p: int) -> tuple[float, float]:
    """10**p as the double-double hi + lo, from exact integer arithmetic."""
    if p >= 0:
        hi = float(10 ** p)
        return hi, float(10 ** p - int(hi))
    d = 10 ** -p
    hi = 1 / d  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _split(a):
    """Dekker's split: a = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _g17_spec(sign: str, cls: int, z: int) -> tuple[str, tuple]:
    """The %-spec of a value of class cls whose digits N end in z zeros, and
    which of its ints (the digits before the point, the digits after it, X)
    the spec takes."""
    if cls == _ZERO:
        return sign + "0", (False, False, False)
    if cls == _FALLBACK:  # the value itself, in the first int's place
        return "%.17g", (True, False, False)
    X = cls - 4
    d = 1 if cls == _EXP else max(X + 1, 0)  # digits before the point
    f = 17 - d - min(z, 17 - d)              # digits after it
    if d:
        spec = sign + "%d" + (f".%0{f}d" if f else "")
    else:  # 0.000ddd: the digits after the zeros, of which the first is not 0
        spec = sign + "0." + "0" * (-1 - X) + "%d"
    if cls == _EXP:
        spec += "e%+03d"
    return spec, (d > 0, f > 0, cls == _EXP)


@functools.cache
def _g17_tables():
    """10**(16 - X) per X as hi, hi's split and lo; the spec and the ints of
    each text key ((separator * 2 + sign) * classes + class) * 17 + zeros;
    10**k, k = 0..17, as int64; and per X, the digits before the point and
    the spec class."""
    Xs = np.arange(_X_MIN, _X_MAX + 1)
    hi, lo = np.array([_pow10_pair(16 - X) for X in Xs.tolist()]).T
    specs, takes = [], []
    for sep in ",\n":
        for sign in ("", "-"):
            for cls in range(_N_CLASSES):
                for z in range(17):
                    spec, take = _g17_spec(sign, cls, z)
                    specs.append(spec + sep)
                    takes.append(take)
    fixed = (Xs >= -4) & (Xs <= 16)
    return ((hi, *_split(hi), lo), np.array(specs, dtype=object),
            np.array(takes), 10 ** np.arange(18, dtype=np.int64),
            np.where(fixed, np.maximum(Xs + 1, 0), 1),  # digits before "."
            np.where(fixed, Xs + 4, _EXP))              # spec class


def _g17_chunk(values: np.ndarray) -> tuple[np.ndarray, list]:
    """The %-specs and the arguments that print the (rows, 4) values as
    "%.17g": a comma after each of a row's first three, a newline after the
    fourth."""
    (hi_t, hi_hi_t, hi_lo_t, lo_t), spec_t, take_t, p10, d_t, cls_t = \
        _g17_tables()
    v = values.reshape(-1)
    a = np.abs(v)
    ok = (a > 1e-200) & (a < 1e200)
    a[~ok] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    np.clip(X, _X_MIN, _X_MAX, out=X)
    i = X - _X_MIN
    # a * 10**(16 - X) as s + e: Dekker's exact product a * hi, plus a * lo,
    # then Fast2Sum; the error against the exact product is below 1e-12
    s = a * hi_t[i]
    a_hi, a_lo = _split(a)
    e = ((a_hi * hi_hi_t[i] - s) + a_hi * hi_lo_t[i] + a_lo * hi_hi_t[i]
         + a_lo * hi_lo_t[i] + a * lo_t[i])
    t = s + e
    e -= t - s
    s = t
    r = np.rint(e)
    # s is an even integer, X the true exponent, no tie lies within the
    # error, and N = s + rint(e) carries into no 18th digit
    ok &= ((s >= 2.0 ** 53) & ((s - 1e16) + e >= 0)
           & (np.abs(e - r) < 0.5 - 1e-6))
    N = s.astype(np.int64) + r.astype(np.int64)
    ok &= N < p10[17]
    z = np.zeros(N.size, np.int64)  # N's trailing zeros
    idx = np.flatnonzero(N % 10 == 0)
    m = N[idx]
    while idx.size:
        z[idx] += 1
        m //= 10
        keep = m % 10 == 0
        idx, m = idx[keep], m[keep]
    d = d_t[i]  # digits before the point
    z = np.minimum(z, 17 - d)
    cls = cls_t[i]
    cls[~ok] = _FALLBACK
    cls[v == 0.0] = _ZERO
    z[~ok] = 0
    f = 17 - d - z  # digits after the point
    ints = np.stack([*np.divmod(N // p10[z], p10[f]), X], axis=1)
    key = (np.signbit(v) * _N_CLASSES + cls) * 17 + z
    key.reshape(-1, 4)[:, 3] += 2 * _N_CLASSES * 17  # "\n" ends the row
    take = np.take(take_t, key, axis=0).reshape(-1)
    args = np.compress(take, ints).tolist()
    fallback = np.flatnonzero(cls == _FALLBACK)
    if fallback.size:
        at = np.cumsum(take)[3 * fallback] - 1
        for k, value in zip(at.tolist(), v[fallback].tolist()):
            args[k] = value
    return np.take(spec_t, key), args


def _write_snapshots(path: Path, traj) -> None:
    """Write t, x, E, M, F, Ms, one row per node and snapshot, as "%.17g".

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",")`.  t and
    x are formatted once each; the fields go through `_g17_chunk`, and each
    chunk of rows is one `"".join`, one `%` and one write.
    """
    x = traj.grid.x
    x_heads = np.array(["%.17g," % v for v in x], dtype=object)
    t_heads = np.array(["%.17g," % t for t in traj.times], dtype=object)
    fields = [f.reshape(-1) for f in (traj.E, traj.M, traj.F, traj.Ms)]
    n_rows = t_heads.size * x.size
    with open(path, "w") as fh:
        fh.write("t,x,E,M,F,Ms\n")
        for r0 in range(0, n_rows, _CHUNK_ROWS):
            r1 = min(r0 + _CHUNK_ROWS, n_rows)
            rows = np.arange(r0, r1)
            specs, args = _g17_chunk(
                np.stack([f[r0:r1] for f in fields], axis=1))
            line = np.empty((rows.size, 6), dtype=object)
            line[:, 0] = t_heads[rows // x.size]
            line[:, 1] = x_heads[rows % x.size]
            line[:, 2:] = specs.reshape(-1, 4)
            fh.write("".join(line.ravel().tolist()) % tuple(args))


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    eqs = scenario.equilibria
    report = eq_mod.thresholds(scenario.at_max_K, eqs)

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
    """The verdict of one simulation run."""

    outcome: str
    speed: float | None


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
    _write_snapshots(out / "snapshots.csv", traj)
    tr = outcome.trace.valid()
    np.savetxt(out / "trace.csv",
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
    return RunRecord(outcome.kind, outcome.speed)


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


def _verify_bundle(bundle) -> CertificateReport:
    """Print the bundle's constants, then check it."""
    print(f"bundle constants: mu={bundle.mu:g} eps={bundle.eps:g} "
          f"u0={bundle.u0:g} C1={bundle.C1:g} C2={bundle.C2:g} "
          f"L={bundle.L:g} lambda_bar={bundle.lambda_bar:g}")
    return verify_supersolution(bundle)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenario()
    params = scenario.params
    sched = scenario.schedule
    c = sched.c if sched.c > 0 else 0.01
    lam = sched.lambda_bar if sched.lambda_bar > 0 else 1.0
    which = args.which
    if which != "sterile-bounds" and callable(params.K):
        raise ConfigError(f"verify --which {which} needs a scalar K; this "
                          f"config has a heterogeneous K(x) (--which "
                          f"sterile-bounds works)")
    if which != "sterile-bounds":
        # with no positive equilibrium there is nothing to certify:
        # SolverError (exit 3) before any check runs, as in `simulate`
        scenario.upper
    # one release annulus and one sterile cap for every certificate: the
    # cap's edge is beyond the annulus and the initial sterile dose
    R1, R2, eta = _release_geometry(sched)
    annulus = ReleaseSchedule("annulus", lam, R1, R2, c)
    Rs = R2 + 1.0
    if scenario.initial.kind == "well_prepared":
        Rs = max(Rs, scenario.initial.R0_1)
    cap = sterile_upper_bound(params, lam, c, Rs)
    # (name, build, check) per certificate asked for, in report order
    certificates = []
    if which in ("subsolution", "all"):
        certificates.append(("subsolution", lambda: build_subsolution(
            params, cap, equilibria=scenario.equilibria),
            verify_subsolution))
    if which in ("supersolution", "all"):
        certificates.append((
            "supersolution", lambda: find_supersolution_bundle(
                params, c=c, equilibria=scenario.equilibria), _verify_bundle))
    if which in ("sterile-bounds", "all"):
        certificates.append(("sterile-upper-bound", lambda: annulus,
                             lambda rel: verify_sterile_cap(params, rel,
                                                            cap)))
        # r1 < r2 needs R2 - R1 > 4
        for rel in (annulus, replace(annulus, kind="annulus_tail", eta=eta)):
            certificates.append((
                f"sterile-lower-bound-lower_{rel.kind}",
                lambda rel=rel: make_sterile_lower_bound(params, rel, R1 + 2.0,
                                                         R2 - 2.0),
                verify_sterile_floor))
    reports = []
    for name, build, check in certificates:
        try:
            built = build()
        except CertificateUnavailable as e:  # a failed check, not a crash
            reports.append(CertificateReport(name, [], unbuilt=str(e)))
        else:
            reports.append(check(built))
    for rep in reports:
        print(rep)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _run_rows(scenarios) -> list:
    """Each scenario's Trajectory, or the exception that stopped it: as one
    batch, or one by one if the batch fails, so only failing rows fail."""
    try:
        return run_batch(scenarios)
    except Exception as e:  # recorded per row, reported in the exit code
        if len(scenarios) == 1:
            return [e]
        return [_run_rows([sc])[0] for sc in scenarios]


def _sweep_batch(scenarios, level) -> list:
    """(outcome, speed), or an error message, per row of one sweep batch."""
    results = []
    for traj in _run_rows(scenarios):
        try:
            if isinstance(traj, Exception):
                raise traj
            outcome = classify(traj, level=level)
            results.append((outcome.kind, outcome.speed))
        except Exception as e:  # reported per row and in the exit code
            results.append(f"{type(e).__name__}: {e}")
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
    # every row's scenario, equilibria and level are checked before any row
    # runs, so a bad value is a config error with nothing run or written; a
    # row with no positive equilibrium runs, to fail alone as in `simulate`.
    # The scenarios checked, equilibria solved, are the ones that run.
    scenarios = []
    for v in values:
        row = copy.deepcopy(cfg)
        getattr(row, sec)[key] = v
        try:
            scenario = row.scenario()
            if scenario.equilibria.upper is not None:
                _check_level(args.level, scenario)
        except (ConfigError, eq_mod.ParameterRangeError) as e:
            raise ConfigError(f"{args.axis} = {v!r}: {e}") from None
        scenarios.append(scenario)
    # rows with equal `batch_key` run as batches of at most SWEEP_BATCH_ROWS
    # rows and at most an even share of them per worker; a fork-started pool
    # launches every worker up front, so it is never larger than the number
    # of batches
    size = min(SWEEP_BATCH_ROWS, math.ceil(len(values) / args.workers))
    compatible: dict = {}
    for i, sc in enumerate(scenarios):
        compatible.setdefault(batch_key(sc), []).append(i)
    batches = [rows[k:k + size] for rows in compatible.values()
               for k in range(0, len(rows), size)]
    jobs = [[scenarios[i] for i in rows] for rows in batches]
    levels = [args.level] * len(jobs)
    workers = min(args.workers, len(jobs))
    if workers > 1:
        # imported here, so that only a pooled sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            done = list(ex.map(_sweep_batch, jobs, levels))
    else:
        done = list(map(_sweep_batch, jobs, levels))
    by_row = {i: r for rows, res in zip(batches, done)
              for i, r in zip(rows, res)}
    failures = [(v, by_row[i]) for i, v in enumerate(values)
                if isinstance(by_row[i], str)]
    rows = sorted(((v, *by_row[i]) for i, v in enumerate(values)
                   if not isinstance(by_row[i], str)), key=lambda r: r[0])
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
