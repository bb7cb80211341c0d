"""Smoke tests of the benchmark: every named metric is emitted with its unit,
and broken outputs are counted as failed operations.

Run from the repository root with `python -m pytest perfbench`.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["run_info"]
    assert info["seed"] == 5 and info["cpu_count"] >= 1
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_policy_row_off_the_simplex_is_a_failure():
    probs = np.full((3, 4, 5), 0.2)
    assert workloads.policy_rows_off_simplex(probs) == 0
    probs[1, 2, 0] = 0.3
    probs[0, 0] = [1.2, -0.2, 0.0, 0.0, 0.0]
    probs[2, 3, 4] = np.nan
    assert workloads.policy_rows_off_simplex(probs) == 3


Cell = namedtuple("Cell", "x y")


def _traj(*cells):
    return SimpleNamespace(cells=[Cell(x, y) for x, y in cells])


def test_shared_cell_and_obstacle_visits_are_violations():
    clean = [_traj((0, 0), (1, 0), (2, 0)), _traj((0, 1), (0, 2))]
    assert workloads.rollout_violations(clean, {Cell(1, 1)}, 3, 3) == 0
    shared = [_traj((0, 0), (1, 0)), _traj((2, 0), (1, 0))]
    assert workloads.rollout_violations(shared, set(), 3, 3) == 1
    on_obstacle = [_traj((0, 0), (1, 1))]
    assert workloads.rollout_violations(on_obstacle, {Cell(1, 1)}, 3, 3) == 1
    off_grid = [_traj((0, 0), (-1, 0))]
    assert workloads.rollout_violations(off_grid, set(), 3, 3) == 1


def test_suite_rows_with_errors_or_missing_are_failures():
    rows = [{"error": ""}, {"error": "boom"}, {"error": ""}]
    assert workloads.suite_row_failures(rows, 3) == 1
    assert workloads.suite_row_failures(rows, 5) == 3


def test_broken_training_output_fails_the_check():
    workload = workloads.TrainTown(seed=0, smoke=True, workdir=".")
    report = SimpleNamespace(
        iterations=workload.iterations,
        policy=SimpleNamespace(probs=np.full((2, 2, 5), 0.2)),
        batch_returns=[1.0] * workload.iterations,
    )
    evaluation = SimpleNamespace(success_rate=0.9, mean_timesteps=12.0, collisions_per_episode=0.2)
    out = {"report": report, "metrics": evaluation,
           "episodes": workload.iterations * workload.batch_size}
    assert workload.check(out) == (2, 0)
    report.policy.probs[0, 0, 0] += 0.5
    assert workload.check(out) == (2, 1)
    evaluation.success_rate = 0.0
    assert workload.check(out) == (2, 2)
    report.policy.probs[0, 0, 0] -= 0.5
    report.batch_returns[-1] = float("nan")
    assert workload.check(out) == (2, 2)


def test_failed_suite_rows_are_reported_not_raised():
    workload = workloads.SuiteSmall(seed=0, smoke=True, workdir=".")
    good = {"success_rate": "0.5", "mean_timesteps": "7.0", "collisions_per_episode": "2.0", "error": ""}
    bad = {"success_rate": "na", "mean_timesteps": "na", "collisions_per_episode": "na", "error": "boom"}
    out = {"wall_s": 1.0, "eval_s": 0.5, "episodes": workload.eval_episodes, "agent_steps": 40,
           "rows": [good, bad]}
    # One error row and six missing rows; the episode count matches the clean row.
    assert workload.check(out) == (workload.expected_rows + 1, workload.expected_rows - 1)
    figures = workload.metrics([out])
    assert (figures["success_rate"], figures["mean_timesteps"], figures["collisions_per_episode"]) == (0.5, 7.0, 2.0)

    empty = {"wall_s": 1.0, "eval_s": 0.0, "episodes": 0, "agent_steps": 0, "rows": []}
    assert workload.check(empty) == (workload.expected_rows + 1, workload.expected_rows)
    assert all(np.isfinite(v) for v in workload.metrics([empty]).values())

