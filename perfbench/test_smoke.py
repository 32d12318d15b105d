"""The benchmark's own tests: one short op per workload and phase, every
metric named in BENCHMARK.json printed with its unit, and the refusals.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, HERE)
from tracing import LAYER_METRICS  # noqa: E402


def _run(cwd, *args):
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    res = _run(ROOT, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{workload} {name} = ")
                   and line.endswith(f" {unit}") for line in lines[:-1]), name
    if trace:
        preds = [line for line in lines if " prediction " in line]
        assert preds and all(line.endswith(("holds", "FAILS"))
                             for line in preds)


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == LAYER_METRICS


def test_refuses_python_optimize():
    res = _run(ROOT, "-O", "perfbench/run.py", "--workload", WORKLOADS[0],
               "--seed", "1", "--smoke")
    assert res.returncode != 0
    assert "python -O" in res.stderr and not res.stdout.strip()


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_bare_", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        res = _run(bare, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                   "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert not res.stdout.strip()
