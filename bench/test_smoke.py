"""Smoke test of the benchmark at its smallest sizes: the shape of the
result line and the metric names only, never timings.

    python -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "0.1",
              "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_counts_repeat_for_a_seed():
    def counts():
        out = run("--workload", "tall", "--seed", "5", "--seconds", "0.1",
                  "--trace", "1", "--tiny")
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "bytes")}

    first = counts()
    assert first["lattice.elements"] > 0
    assert first == counts()


def test_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "wide", "--seed", "0", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
