"""End-to-end command-line tests: every subcommand runs in process via main()."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from evomapf.automaton import RewardParams, Valuation, reach_avoid_machine
from evomapf.baselines import LearnerParams
from evomapf.bench import SuiteConfig, evaluate, generate_map
from evomapf.cli import main
from evomapf.config import KEYS, RunConfig, load_config
from evomapf.egt import FitnessTable, TabularPolicy, TrainConfig, mix_with_uniform, replicator_update, sample_batch
from evomapf.gridworld import Cell, ConfigError, EnvConfig, GridEnv, GridMap, parse_map

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
        "mean_cost",
        "obstacle_distance",
        "eval_seconds",
        "collisions_per_episode",
    ]
    assert lines[3].split()[1] == "na"  # strip has no obstacles
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


@pytest.mark.parametrize(
    "algorithm, text, message",
    [
        ("egt", "[env]\nmap = strip.map\nnum_agents = 0\n", "[env] num_agents must be at least 1, got 0"),
        ("egt", FAST_TRAIN + "nu = 0\n", "[train] nu must lie in (0, 1], got 0.0"),
        ("montecarlo", FAST_TRAIN + "mc_batch = 0\n", "[train] mc_batch must be at least 1, got 0"),
        (
            "qlearning",
            FAST_TRAIN + "epsilon_greedy = 2\n",
            "[train] epsilon_greedy must lie in [0, 1], got 2.0",
        ),
        ("egt", FAST_TRAIN + "\n[reward]\nstep_penalty = -1\n", "[reward] step_penalty must be at least 0, got -1.0"),
    ],
    ids=["num_agents", "nu", "mc_batch", "epsilon_greedy", "step_penalty"],
)
def test_train_range_errors_name_the_section_and_key(strip_config, tmp_path, capsys, algorithm, text, message):
    config = tmp_path / "range.ini"
    config.write_text(text)
    out = tmp_path / "p"
    assert main(["train", "--config", str(config), "--algorithm", algorithm, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_malformed_delta_names_the_key(strip_config, tmp_path, capsys):
    config = tmp_path / "delta.ini"
    config.write_text(FAST_TRAIN + "delta = tiny\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "[train] delta: expected a float, got 'tiny'" in capsys.readouterr().err


def test_a_malformed_reward_names_its_section_once(strip_config, tmp_path, capsys):
    config = tmp_path / "lots.ini"
    config.write_text(FAST_TRAIN + "\n[reward]\ngoal_reward = lots\n")
    out = tmp_path / "p"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [reward] goal_reward: expected a float, got 'lots'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("delta = tiny", "[train] delta: expected a float, got 'tiny'"),
        ("valuation = bogus", "[train] valuation: expected sum, avg, or discounted_sum, got 'bogus'"),
        ("patience = 2.5", "[train] patience: expected an integer, got '2.5'"),
    ],
    ids=["delta", "valuation", "patience"],
)
def test_egt_keys_are_checked_when_another_algorithm_trains(strip_config, tmp_path, capsys, line, message):
    config = tmp_path / "q.ini"
    config.write_text(FAST_TRAIN + "algorithm = qlearning\n" + line + "\n")
    out = tmp_path / "p"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nseed = 3\n\n[env]\nmap = strip.map\n\n[train]\nmax_iterations = 2\n", "[DEFAULT]\nseed = 3\n"],
    ids=["with-sections", "alone"],
)
def test_a_default_section_is_rejected(strip_config, tmp_path, capsys, text):
    config = tmp_path / "default.ini"
    config.write_text(text)
    out = tmp_path / "p"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


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
# setting bounds: every one goes through gridworld.check_range


def _after(x: float) -> float:
    return math.nextafter(x, math.inf)


def _before(x: float) -> float:
    return math.nextafter(x, -math.inf)


GRID = parse_map(STRIP)
ENV = EnvConfig(grid=GRID, horizon=6)
UNIFORM = TabularPolicy.uniform(GRID)


def _rewards(**given) -> RewardParams:
    return RewardParams(**{"step_penalty": 1.0, "goal_reward": 10.0, "collision_penalty": 5.0, "horizon": 4, **given})


# (name the message starts with, INI key or None, build(value), finite values accepted, finite values rejected).
# Integer settings step by 1 past a bound, float ones to the next float.
BOUNDED = [
    ("gamma", None, lambda v: Valuation("discounted_sum", v), [0, 1], [_before(0.0), _after(1.0)]),
    ("step_penalty", "reward.step_penalty", lambda v: _rewards(step_penalty=v), [0.0], [_before(0.0)]),
    ("goal_reward", "reward.goal_reward", lambda v: _rewards(goal_reward=v), [5.0], []),
    ("collision_penalty", "reward.collision_penalty", lambda v: _rewards(collision_penalty=v), [10.0], []),
    ("horizon", None, lambda v: _rewards(horizon=v), [1], [0]),
    ("gamma", "reward.gamma", lambda v: _rewards(gamma=v), [0.0, 1.0], [_before(0.0), _after(1.0)]),
    ("width", None, lambda v: GridMap(v, 2, frozenset(), frozenset({Cell(0, 0)}), frozenset({Cell(0, 1)})), [1], [0]),
    ("height", None, lambda v: GridMap(2, v, frozenset(), frozenset({Cell(0, 0)}), frozenset({Cell(1, 0)})), [1], [0]),
    ("num_agents", "env.num_agents", lambda v: EnvConfig(grid=GRID, num_agents=v), [1], [0]),
    # horizon 0 asks for the default, so -1 is the nearest value rejected.
    ("horizon", "env.horizon", lambda v: EnvConfig(grid=GRID, horizon=v), [1], [-1]),
    ("slip_probability", "env.slip_probability", lambda v: EnvConfig(grid=GRID, slip_probability=v),
     [0.0, 1.0], [_before(0.0), _after(1.0)]),
    ("[env] seed", None, lambda v: RunConfig({"env": {"seed": v}}).seed(), [0], [-1]),
    ("nu", "train.nu", lambda v: TrainConfig(env=ENV, nu=v), [_after(0.0), 1.0], [0.0, _after(1.0)]),
    ("epsilon", "train.epsilon", lambda v: TrainConfig(env=ENV, epsilon=v), [0.0, 1.0], [_before(0.0), _after(1.0)]),
    ("alpha", "train.alpha", lambda v: TrainConfig(env=ENV, alpha=v), [_after(0.0), 1.0], [0.0, _after(1.0)]),
    ("batch_size", "train.batch_size", lambda v: TrainConfig(env=ENV, batch_size=v), [1], [0]),
    ("max_iterations", "train.max_iterations", lambda v: TrainConfig(env=ENV, max_iterations=v), [1], [0]),
    ("patience", "train.patience", lambda v: TrainConfig(env=ENV, patience=v), [1], [0]),
    ("delta", "train.delta", lambda v: TrainConfig(env=ENV, delta=v), [_after(0.0)], [0.0]),
    ("episodes", "train.episodes", lambda v: LearnerParams(episodes=v), [1], [0]),
    ("mc_batch", "train.mc_batch", lambda v: LearnerParams(mc_batch=v), [1], [0]),
    *((name, f"train.{name}", lambda v, name=name: LearnerParams(**{name: v}), [0.0, 1.0], [_before(0.0), _after(1.0)])
      for name in ("learning_rate", "epsilon_greedy", "epsilon_decay", "epsilon_min")),
    ("sizes", "suite.sizes", lambda v: SuiteConfig(sizes=(5, v), agents=(1,)), [2], [1]),
    ("agents", "suite.agents", lambda v: SuiteConfig(sizes=(5,), agents=(v, 2)), [1], [0]),
    ("eval_episodes", "suite.eval_episodes", lambda v: SuiteConfig((5,), (1,), eval_episodes=v), [1], [0]),
    ("train_episodes", "suite.train_episodes", lambda v: SuiteConfig((5,), (1,), train_episodes=v), [1], [0]),
    ("density", "suite.density", lambda v: SuiteConfig((5,), (1,), density=v), [0.0, 0.4], [_before(0.0), _after(0.4)]),
    ("slip_probability", "suite.slip_probability", lambda v: SuiteConfig((5,), (1,), slip_probability=v),
     [0.0, 1.0], [_before(0.0), _after(1.0)]),
    ("seed", None, lambda v: SuiteConfig((5,), (1,), seed=v), [0], [-1]),
    ("density", None, lambda v: generate_map(4, 4, v, np.random.default_rng(0)), [0.0, 0.4], [_before(0.0), _after(0.4)]),
    ("episodes", None, lambda v: evaluate(UNIFORM, ENV, v, np.random.default_rng(0)), [1], [0]),
    ("batch_size", None, lambda v: sample_batch(UNIFORM, GridEnv(ENV), reach_avoid_machine(RewardParams.default_for(6)),
                                                Valuation("sum"), v, np.random.default_rng(0)), [1], [0]),
    ("alpha", None, lambda v: replicator_update(UNIFORM, FitnessTable.zeros(GRID), v), [0.0, 1.0],
     [_before(0.0), _after(1.0)]),
    ("mixing weight", None, lambda v: mix_with_uniform(UNIFORM, v), [0.0, 1.0], [_before(0.0), _after(1.0)]),
]


def _build_from_ini(tmp_path, key: str, text: str) -> None:
    """Load key = text through load_config and build the section it belongs to."""
    (tmp_path / "strip.map").write_text(STRIP)
    overrides = {"env.map": str(tmp_path / "strip.map"), "suite.sizes": "5", "suite.agents": "1", key: text}
    config = load_config(None, overrides)
    section = key.partition(".")[0]
    if section == "suite":
        config.build_suite()
        return
    env = config.build_env()
    rewards = config.build_rewards(env.horizon)
    config.build_train(env, rewards)
    config.build_learner_params()


@pytest.mark.parametrize("name, key, build, accepted, rejected", BOUNDED,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(BOUNDED)])
def test_every_bound_accepts_its_edges_and_rejects_the_rest(tmp_path, name, key, build, accepted, rejected):
    for value in accepted:
        build(value)
    for value in [*rejected, math.nan, math.inf, -math.inf]:
        with pytest.raises(ConfigError) as caught:
            build(value)
        message = str(caught.value)
        assert message.startswith(f"{name} must ") and f", got {value!r}" in message
    if key is None:
        return
    section, _, field = key.partition(".")
    non_finite = ["nan", "inf", "-inf"] if KEYS[section][field][0] is float else []  # an integer key fails to parse
    for text in [str(v) for v in rejected] + non_finite:
        with pytest.raises(ConfigError) as caught:
            _build_from_ini(tmp_path, key, text)
        assert str(caught.value).startswith(f"[{section}] {name} must ") and ", got " in str(caught.value)


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


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--config", "{config}", "--seed", "-1", "--out", "{out}"],
        ["eval", "{policy}", "--config", "{config}", "--seed", "-3", "--out", "{out}"],
        ["bench", "--sizes", "5", "--agents", "1", "--algos", "astar", "--seed", "-1", "--out", "{out}"],
        ["genmap", "--width", "8", "--height", "3", "--seed", "-1", "--out", "{out}"],
    ],
    ids=["train", "eval", "bench", "genmap"],
)
def test_negative_seeds_exit_2_naming_the_seed(strip_config, tmp_path, capsys, command):
    policy = str(tmp_path / "policy.txt")
    assert main(["train", "--config", strip_config, "--seed", "0", "--out", policy]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [arg.format(config=strip_config, policy=policy, out=out) for arg in command]
    assert main(argv) == 2
    seed = argv[argv.index("--seed") + 1]
    assert f"seed must be at least 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench


@pytest.mark.parametrize(
    "flags, suite_section, message",
    [
        (["--agents", "0"], "", "[suite] agents must be at least 1, got 0"),
        (["--agents", "-1"], "", "[suite] agents must be at least 1, got -1"),
        (["--sizes", "-3"], "", "[suite] sizes must be at least 2, got -3"),
        (["--sizes", "5,1"], "", "[suite] sizes must be at least 2, got 1"),
        ([], "slip_probability = 1.5\n", "[suite] slip_probability must lie in [0, 1], got 1.5"),
        ([], "slip_probability = nan\n", "[suite] slip_probability must be finite, got nan"),
        (
            ["--algos", "dqn"],
            "",
            "[suite] algorithms must be among ['egt', 'astar', 'qlearning', 'montecarlo'], got ['dqn']",
        ),
        ([], "density = 0.5\n", "[suite] density must lie in [0, 0.4], got 0.5"),
        ([], "eval_episodes = 0\n", "[suite] eval_episodes must be at least 1, got 0"),
    ],
    ids=["agents-0", "agents-negative", "sizes-negative", "sizes-1", "slip-above-1", "slip-nan", "algos-unknown",
         "density-above-0.4", "eval-episodes-0"],
)
def test_bench_rejects_out_of_range_suite_values(tmp_path, capsys, flags, suite_section, message):
    config = tmp_path / "suite.ini"
    config.write_text("[suite]\nsizes = 5\nagents = 1\nalgorithms = astar\n" + suite_section)
    out = tmp_path / "suite.csv"
    assert main(["bench", "--config", str(config), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sizes", "5"], "[suite] agents is required (--agents)"),
        (["--agents", "1"], "[suite] sizes is required (--sizes)"),
        ([], "[suite] sizes is required (--sizes)"),
    ],
    ids=["agents", "sizes", "both"],
)
def test_bench_names_a_missing_list_and_its_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "suite.csv"
    assert main(["bench", *flags, "--algos", "astar", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sizes", "5 6"], "[suite] sizes: expected comma-separated integers, got '5 6'"),
        (["--sizes", "5,"], "[suite] sizes: expected comma-separated integers, got '5,'"),
        (["--agents", "1 2"], "[suite] agents: expected comma-separated integers, got '1 2'"),
        (["--algos", "as tar"], "[suite] algorithms: expected comma-separated names, got 'as tar'"),
    ],
    ids=["sizes-space", "sizes-trailing-comma", "agents-space", "algos-space"],
)
def test_bench_list_items_are_split_on_commas_only(tmp_path, capsys, flags, message):
    out = tmp_path / "suite.csv"
    argv = ["bench", "--sizes", "5", "--agents", "1", "--algos", "astar", "--episodes", "2", *flags]
    assert main(argv + ["--out", str(out)]) == 2
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


# ---------------------------------------------------------------------------
# echoed configuration


def comment_lines(path) -> list[str]:
    return [line for line in open(path).read().splitlines() if line.startswith("# ") and " = " in line]


ECHOED_ENV = [
    "# env.height = 1",
    "# env.horizon = 6",
    "# env.map = strip.map",
    "# env.num_agents = 1",
    "# env.seed = {seed}",
    "# env.slip_probability = 0.0",
    "# env.width = 5",
]
ECHOED_REWARD = [
    "# reward.collision_penalty = 60.0",
    "# reward.gamma = 0.9",
    "# reward.goal_reward = 60.0",
    "# reward.step_penalty = 1.0",
]


def as_config(lines: list[str]) -> dict[str, str]:
    return dict(line[2:].split(" = ", 1) for line in lines)


def test_train_and_eval_echo_the_resolved_configuration(strip_config, tmp_path, capsys):
    config = tmp_path / "echo.ini"
    config.write_text(FAST_TRAIN + "episodes = 30\n\n[reward]\ngamma = 0.9\n")
    egt, q, metrics = (str(tmp_path / name) for name in ("egt.policy", "q.policy", "eval.csv"))
    assert main(["train", "--config", str(config), "--seed", "2", "--out", egt]) == 0
    assert main(["train", "--config", str(config), "--algorithm", "qlearning", "--out", q]) == 0
    argv = ["eval", egt, "--config", str(config), "--episodes", "3", "--seed", "1", "--out", metrics]
    assert main(argv) == 0

    env = [line.format(seed=2) for line in ECHOED_ENV]
    egt_config = env + ECHOED_REWARD + [
        "# train.algorithm = egt",
        "# train.alpha = 0.5",
        "# train.batch_size = 8",
        "# train.delta = 0.6",
        "# train.epsilon = 0.05",
        "# train.max_iterations = 4",
        "# train.nu = 0.05",
        "# train.patience = 3",
        "# train.valuation = discounted_sum",
    ]
    assert comment_lines(egt) == sorted(egt_config + ["# height = 1", "# width = 5"])
    assert json.load(open(egt + ".report.json"))["config"] == as_config(egt_config)

    q_config = [line.format(seed=0) for line in ECHOED_ENV] + ECHOED_REWARD + [
        "# train.algorithm = qlearning",
        "# train.episodes = 30",
    ]
    assert comment_lines(q) == sorted(q_config + ["# height = 1", "# width = 5"])
    assert json.load(open(q + ".report.json"))["config"] == as_config(q_config)

    eval_env = [line.format(seed=1) for line in ECHOED_ENV]
    assert comment_lines(metrics) == eval_env + ["# eval.episodes = 3", f"# eval.policy = {egt}"]


def test_bench_echoes_the_resolved_suite(tmp_path, capsys):
    config = tmp_path / "suite.ini"
    config.write_text("[env]\nseed = 4\n\n[suite]\nsizes = 4, 5\nagents = 1\ndensity = 0.2\n")
    out = str(tmp_path / "suite.csv")
    argv = ["bench", "--config", str(config), "--algos", "astar", "--episodes", "2", "--out", out]
    assert main(argv) == 0
    assert comment_lines(out) == [
        "# suite.agents = 1",
        "# suite.algorithms = astar",
        "# suite.density = 0.2",
        "# suite.eval_episodes = 2",
        "# suite.seed = 4",
        "# suite.sizes = 4,5",
        "# suite.slip_probability = 0.0",
        "# suite.train_episodes = 4000",
    ]
