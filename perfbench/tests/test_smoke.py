import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYER_METRICS
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(run.__file__).resolve().parent
END_TO_END = {"op_s.p50", "op_s.tail", "scenarios_per_s", "peak_rss_mb",
              "setup_s"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_operation_per_workload(workload, tmp_path):
    wl = WORKLOADS[workload]()
    ops = wl.cycle(random.Random(0), True)
    traced = next(op for op in ops if op.traced)
    untraced = next(op for op in ops
                    if not op.traced and op.label == traced.label)
    log, tracer = run.RunLog(), Tracer()
    run._run_op(untraced, log, tracer, tmp_path)
    assert log.failures == [] and len(log.ops) == 1

    metrics, info = run.end_to_end_metrics(log, setup=[0.5])
    assert set(metrics) == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert info["op_samples"] == 1

    run._run_op(traced, log, tracer, tmp_path)
    assert log.failures == [] and not log.missing_hooks
    layer = run.per_layer_metrics(log, tracer)
    assert set(layer) == {m.name for m in LAYER_METRICS}
    assert 0.0 <= layer["unattributed_frac"][0] < 0.05
    assert list(tmp_path.iterdir()) == []


def test_workload_checks_reject_wrong_output(tmp_path):
    op = WORKLOADS["certify"]().cycle(random.Random(0), False)[0]
    with pytest.raises(AssertionError):
        op.check(4, tmp_path)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in json.loads(line)
