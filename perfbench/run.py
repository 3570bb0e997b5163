"""Run one benchmark workload against the sitcarpet sources and print metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory.  The workloads are described in `workloads.py`.  Operations are
issued in whole cycles until `--seconds` have passed, and each operation's
output is checked.

With `--trace 0` the end-to-end metrics are reported: the median and tail
wall time of one operation, scenarios per second, the benchmark process's
peak RSS and the set-up time of a fresh interpreter (median of several).
With `--trace 1` every operation is issued once untraced and once traced,
and the per-layer metrics of `layers.py` are reported from the traced ones;
the spans are written to `.perfbench/` in the repository root.

Standard output carries a machine description, a run summary and, as its
last line, the result object with the keys correct, attempted, failed and
metrics.  Exit code 0 means a result was printed, whether or not every
operation was correct.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def import_package():
    """Import sitcarpet from SRC, refusing any other copy."""
    if not (SRC / "sitcarpet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sitcarpet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sitcarpet

    if not Path(sitcarpet.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: sitcarpet imported from "
                         f"{sitcarpet.__file__}, not from {SRC}")
    return sitcarpet


@dataclass
class RunLog:
    ops: list = field(default_factory=list)  # (label, traced, seconds)
    scenarios: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    missing_hooks: set = field(default_factory=set)
    cycles: int = 0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _timed_call(op, log: RunLog, tracer, out: Path):
    """Call the operation with its output discarded; (result, seconds)."""
    from layers import HOOKS, OP_SPAN
    from tracing import install

    restore, scope = (lambda: None), nullcontext()
    if op.traced:
        restore, missing = install(tracer, HOOKS)
        log.missing_hooks.update(missing)
        scope = tracer.operation(OP_SPAN)
    try:
        with redirect_stdout(io.StringIO()), scope:
            t0 = time.perf_counter()
            result = op.call(out)
            return result, time.perf_counter() - t0
    finally:
        restore()


def _run_op(op, log: RunLog, tracer, work: Path) -> None:
    log.attempted += 1
    out = Path(tempfile.mkdtemp(dir=work))
    try:
        result, seconds = _timed_call(op, log, tracer, out)
        log.ops.append((op.label, op.traced, seconds))
        op.check(result, out)
        log.scenarios += op.scenarios
        if op.traced:
            tracer.count("cli.bytes_written", _dir_bytes(out))
    except Exception as e:  # an operation that fails is counted, not fatal
        log.failures.append(f"{op.label}: {type(e).__name__}: {e}")
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tracer=None) -> RunLog:
    """Issue whole operation cycles until `seconds` have passed."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    rng = random.Random(seed)
    log = RunLog()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ops-", dir=WORK))
    try:
        t_start = time.perf_counter()
        while True:
            for op in wl.cycle(rng, trace):
                _run_op(op, log, tracer, work)
            log.cycles += 1
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return log


def setup_seconds(workload: str, samples: int = SETUP_SAMPLES) -> list[float]:
    """Set-up time of `samples` fresh interpreters, run one after another."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(probe), workload],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end_metrics(log: RunLog, setup: list[float]) -> tuple[dict, dict]:
    from stats import tail

    secs = [s for _, _, s in log.ops]
    pct, tail_value, beyond = tail(secs)
    metrics = {
        "op_s.p50": (median(secs), "s"),
        "op_s.tail": (tail_value, "s"),
        "scenarios_per_s": (log.scenarios / sum(secs), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (median(setup), "s"),
    }
    labels = sorted({label for label, _, _ in log.ops})
    info = {"op_samples": len(secs), "op_s.tail_percentile": pct,
            "op_s.tail_samples_beyond": beyond, "setup_samples_s": setup,
            "op_s.p50_by_label": {
                k: median(s for label, _, s in log.ops if label == k)
                for k in labels}}
    return metrics, info


def per_layer_metrics(log: RunLog, tracer) -> dict:
    from layers import LAYER_METRICS, TraceData
    from tracing import SpanSummary

    data = TraceData(SpanSummary(tracer.spans), dict(tracer.counts), log.ops)
    return {m.name: (m.value(data), m.unit) for m in LAYER_METRICS
            if not log.missing_hooks.intersection(m.needs)}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "sweep", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_package()
    from tracing import Tracer, write_spans

    print(json.dumps({"machine": machine()}))
    trace = bool(args.trace)
    setup = [] if trace else setup_seconds(args.workload)
    tracer = Tracer() if trace else None
    log = measure(args.workload, args.seed, args.seconds, trace, tracer=tracer)
    if not log.ops:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cycles": log.cycles,
            "failed_frac": len(log.failures) / log.attempted,
            "failures": log.failures[:5]}
    if trace:
        metrics = per_layer_metrics(log, tracer)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(spans_file, tracer.spans)
        info.update(missing_hooks=sorted(log.missing_hooks),
                    spans=len(tracer.spans), spans_file=str(spans_file))
    else:
        metrics, extra = end_to_end_metrics(log, setup)
        info.update(extra)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
