"""Self-test of the benchmark: output counts repeat exactly at one seed.

    python3 -m pytest perfbench        # about 5 minutes on 2 cores

Each workload runs twice untraced and twice traced at one seed, with one
pass of its instance list per run.  Output counts, set sizes and per-layer
call and output counts must be identical between the two runs; the metric
names must match BENCHMARK.json; and without the program's sources the
command must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def parse(lines: list[str]) -> tuple[dict, dict]:
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    return report, json.loads(lines[-1])


def exact(metrics: dict) -> dict:
    """Per-layer values that must repeat: everything except times and ratios."""
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_runs_repeat(workload):
    runs = []
    for trace in (0, 0, 1, 1):
        code, lines = bench(workload, trace)
        assert code == 0, lines[-5:]
        report, result = parse(lines)
        assert result["correct"] and result["failed"] == 0
        assert report["unverified_frac"] == 0
        runs.append((report, result))
    (r0, e2e), (r1, _), (t0, layers0), (t1, layers1) = runs
    assert r0["counts"] == r1["counts"] == t0["counts"] == t1["counts"]
    assert r0["set_size_sum"] == r1["set_size_sum"] > 0
    assert exact(layers0["metrics"]) == exact(layers1["metrics"])
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers0["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        found = e2e["metrics"].get(spec["name"]) or layers0["metrics"][spec["name"]]
        assert found["unit"] == spec["unit"]
    for spec in SPEC["end_to_end"]:
        assert e2e["metrics"][spec["name"]]["value"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("girth5", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
