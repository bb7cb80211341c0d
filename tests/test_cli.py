"""End-to-end command-line tests: every subcommand runs in process via main()."""

from __future__ import annotations

import csv
import json

import pytest

from evomapf.cli import main
from evomapf.gridworld import parse_map

STRIP = "....G\n"

FAST_TRAIN = """\
[env]
map = strip.map
horizon = 6

[train]
batch_size = 8
max_iterations = 4
"""


@pytest.fixture
def strip_config(tmp_path):
    (tmp_path / "strip.map").write_text(STRIP)
    config = tmp_path / "run.ini"
    config.write_text(FAST_TRAIN)
    return str(config)


def csv_rows(path: str) -> list[list[str]]:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))


# ---------------------------------------------------------------------------
# train


def test_train_writes_policy_and_report(strip_config, tmp_path, capsys):
    out = str(tmp_path / "policy.txt")
    assert main(["train", "--config", strip_config, "--out", out]) == 0
    assert f"wrote policy to {out}" in capsys.readouterr().out
    report = json.load(open(out + ".report.json"))
    assert report["algorithm"] == "egt"
    assert report["iterations"] >= 1
    assert len(report["batch_returns"]) == report["iterations"]
    first_line = open(out).readline()
    assert first_line.startswith("#")


def test_train_seed_flag_makes_identical_policies(strip_config, tmp_path, capsys):
    out_a = str(tmp_path / "a.policy")
    out_b = str(tmp_path / "b.policy")
    assert main(["train", "--config", strip_config, "--seed", "7", "--out", out_a]) == 0
    assert main(["train", "--config", strip_config, "--seed", "7", "--out", out_b]) == 0
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_train_qlearning_branch(strip_config, tmp_path, capsys):
    out = str(tmp_path / "q.policy")
    code = main(
        ["train", "--config", strip_config, "--algorithm", "qlearning", "--seed", "1", "--out", out]
    )
    assert code == 0
    report = json.load(open(out + ".report.json"))
    assert report["algorithm"] == "qlearning"
    assert report["episodes"] == 2000  # learner default


def test_train_into_a_missing_directory_is_an_io_error(strip_config, tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "policy.txt")
    assert main(["train", "--config", strip_config, "--out", out]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_round_trip(strip_config, tmp_path, capsys):
    policy = str(tmp_path / "policy.txt")
    main(["train", "--config", strip_config, "--seed", "0", "--out", policy])
    capsys.readouterr()
    out_csv = str(tmp_path / "metrics.csv")
    code = main(
        ["eval", policy, "--config", strip_config, "--episodes", "5", "--seed", "3", "--out", out_csv]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "success_rate",
        "mean_timesteps",
        "obstacle_distance",
        "collisions_per_episode",
        "eval_seconds",
    ]
    assert lines[2].split()[1] == "na"  # strip has no obstacles
    rows = csv_rows(out_csv)
    assert rows[0][0] == "algorithm"
    assert len(rows) == 2
    assert rows[1][0] == "egt"


def test_eval_rejects_a_policy_from_another_grid(strip_config, tmp_path, capsys):
    policy = str(tmp_path / "policy.txt")
    main(["train", "--config", strip_config, "--seed", "0", "--out", policy])
    (tmp_path / "wide.map").write_text("...G\n....\n")
    other = tmp_path / "wide.ini"
    other.write_text("[env]\nmap = wide.map\n")
    capsys.readouterr()
    assert main(["eval", policy, "--config", str(other)]) == 2
    err = capsys.readouterr().err
    assert "was trained on a 5x1 grid" in err
    assert "4x2" in err


def test_eval_rejects_a_policy_from_another_map_of_the_same_size(strip_config, tmp_path, capsys):
    policy = str(tmp_path / "policy.txt")
    # Same 5x1 size as the strip; (1,0) is free there but an obstacle, with no row, here.
    (tmp_path / "walled.map").write_text(".#..G\n")
    walled = tmp_path / "walled.ini"
    walled.write_text("[env]\nmap = walled.map\n")
    assert main(["train", "--config", str(walled), "--seed", "0", "--out", policy]) == 0
    capsys.readouterr()
    assert main(["eval", policy, "--config", strip_config]) == 2
    err = capsys.readouterr().err
    assert "no row for free cell (1,0)" in err


# ---------------------------------------------------------------------------
# configuration errors


def test_reward_constraint_violation_exits_2(strip_config, tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text(FAST_TRAIN + "\n[reward]\ngoal_reward = 5\ncollision_penalty = 10\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "need b >= c > a*T" in capsys.readouterr().err


def test_infinite_rewards_exit_2(strip_config, tmp_path, capsys):
    config = tmp_path / "inf.ini"
    config.write_text(FAST_TRAIN + "\n[reward]\ngoal_reward = inf\ncollision_penalty = inf\n")
    out = tmp_path / "p"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert "goal_reward must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_and_section_are_rejected(tmp_path, capsys):
    config = tmp_path / "typo.ini"
    config.write_text("[env]\nmapp = x.map\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "unknown key 'mapp'" in capsys.readouterr().err
    config.write_text("[environment]\nmap = x.map\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "unknown section [environment]" in capsys.readouterr().err


def test_montecarlo_with_an_empty_batch_exits_2(strip_config, tmp_path, capsys):
    config = tmp_path / "mc.ini"
    config.write_text(FAST_TRAIN + "mc_batch = 0\n")
    out = str(tmp_path / "p")
    assert main(["train", "--config", str(config), "--algorithm", "montecarlo", "--out", out]) == 2
    assert "mc_batch must be at least 1" in capsys.readouterr().err


def test_malformed_delta_names_the_key(strip_config, tmp_path, capsys):
    config = tmp_path / "delta.ini"
    config.write_text(FAST_TRAIN + "delta = tiny\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "[train] delta: expected a float, got 'tiny'" in capsys.readouterr().err


def test_malformed_ini_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.ini"
    config.write_text("no section header here\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "malformed config file" in capsys.readouterr().err


def test_missing_map_key_exits_2(tmp_path, capsys):
    config = tmp_path / "nomap.ini"
    config.write_text("[env]\nnum_agents = 1\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "[env] map: a map file path is required" in capsys.readouterr().err


def test_unreadable_map_exits_2(tmp_path, capsys):
    config = tmp_path / "ghost.ini"
    config.write_text("[env]\nmap = missing.map\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# genmap


def test_genmap_prints_a_parseable_map(capsys):
    assert main(["genmap", "--width", "6", "--height", "5", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    grid = parse_map(text)
    assert (grid.width, grid.height) == (6, 5)


def test_genmap_is_seed_deterministic(capsys):
    main(["genmap", "--width", "7", "--height", "7", "--seed", "11"])
    first = capsys.readouterr().out
    main(["genmap", "--width", "7", "--height", "7", "--seed", "11"])
    assert capsys.readouterr().out == first


def test_genmap_density_zero_has_no_obstacles(capsys):
    main(["genmap", "--width", "4", "--height", "4", "--density", "0", "--seed", "0"])
    assert "#" not in capsys.readouterr().out


def test_genmap_writes_a_file(tmp_path, capsys):
    out = str(tmp_path / "maze.map")
    assert main(["genmap", "--width", "8", "--height", "3", "--seed", "2", "--out", out]) == 0
    assert f"wrote 8x3 map to {out}" in capsys.readouterr().out
    grid = parse_map(open(out).read())
    assert (grid.width, grid.height) == (8, 3)


def test_genmap_reports_impossible_boards(capsys):
    code = main(["genmap", "--width", "1", "--height", "2", "--density", "0.4"])
    assert code == 2
    assert "could not generate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


@pytest.mark.parametrize(
    "flags, suite_section, message",
    [
        (["--agents", "0"], "", "agent_counts must be at least 1, got 0"),
        (["--agents", "-1"], "", "agent_counts must be at least 1, got -1"),
        (["--sizes", "-3"], "", "sizes must be at least 1, got -3"),
        ([], "slip_probability = 1.5\n", "slip_probability must lie in [0, 1], got 1.5"),
        ([], "slip_probability = nan\n", "slip_probability must lie in [0, 1], got nan"),
    ],
    ids=["agents-0", "agents-negative", "sizes-negative", "slip-above-1", "slip-nan"],
)
def test_bench_rejects_out_of_range_suite_values(tmp_path, capsys, flags, suite_section, message):
    config = tmp_path / "suite.ini"
    config.write_text("[suite]\nsizes = 5\nagents = 1\nalgorithms = astar\n" + suite_section)
    out = tmp_path / "suite.csv"
    assert main(["bench", "--config", str(config), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_runs_from_flags_alone(tmp_path, capsys):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    argv = ["bench", "--sizes", "5", "--agents", "1", "--algos", "astar", "--episodes", "2"]
    assert main(argv + ["--out", out_a]) == 0
    assert f"wrote 1 rows to {out_a}" in capsys.readouterr().out
    assert main(argv + ["--out", out_b]) == 0
    rows_a, rows_b = csv_rows(out_a), csv_rows(out_b)
    header = rows_a[0]
    assert header == rows_b[0]
    timing = {header.index("train_seconds"), header.index("eval_seconds")}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for i, (a, b) in enumerate(zip(row_a, row_b)):
            if i not in timing:
                assert a == b
    assert rows_a[1][0] == "astar"
    assert rows_a[1][header.index("error")] == ""
