"""Smoke test of the benchmark's quick mode.

    python3 -m pytest -q bench/test_bench.py

Each workload runs once untraced and once traced on tiny inputs; every
metric BENCHMARK.json names must come out with its unit, no operation may
fail its oracle, and the ROADMAP item-1 positions must be judged.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert result["failed"] == 0
    # The four ROADMAP item-1 positions are judged against minimax and
    # reported as known defects, whichever way they come out.
    record = os.path.join(ROOT, ".bench_out",
                          f"result-{workload}-s1-t{trace}.json")
    with open(record, encoding="utf-8") as fh:
        known = json.load(fh)["record"]["known_defects"]
    assert len(known) == (4 if workload == "endgame-query" else 0)
    assert all(seen["judged"] >= 1 for seen in known.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "opening", 0)
    assert done.returncode != 0
    assert done.stdout == ""
