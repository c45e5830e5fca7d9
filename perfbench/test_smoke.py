"""Smoke test of the benchmark harness at a reduced size.

Every metric ``BENCHMARK.json`` declares must be printed, with its unit, for
every workload: the end-to-end metrics by ``--trace 0`` and the per-layer
metrics by ``--trace 1``.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float), metric["name"]
        assert table.get(metric["name"]) == metric["unit"], metric["name"]


def test_fails_without_the_package(tmp_path):
    """Without ``src/`` next to it the benchmark exits non-zero and prints
    no result."""
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "measure.py", "workloads.py", "layers.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
