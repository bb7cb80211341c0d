"""Benchmark harness: maps, metrics, evaluation, and the suite runner."""

from __future__ import annotations

import numpy as np
import pytest

from evomapf.automaton import SUM, RewardParams, reach_avoid_machine, valuate
from evomapf.baselines import manhattan
from evomapf.bench import (
    ALGORITHMS,
    AStarPlanner,
    Metrics,
    SuiteConfig,
    evaluate,
    generate_map,
    metrics_row,
    obstacle_distance,
    obstacle_distance_field,
    plan_rollout,
    run_suite,
    train_subject,
    write_csv,
    write_trajectory_log,
)
from evomapf.egt import TabularPolicy, load_policy, save_policy
from evomapf.gridworld import (
    Action,
    AgentStatus,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    GridMap,
    parse_map,
    run_episode,
)

from oracles import bfs_path_length


class ConstantPolicy:
    def __init__(self, action: Action):
        self.action = action

    def sample_action(self, cell, rng):
        return self.action


def stay_policy(grid) -> TabularPolicy:
    policy = TabularPolicy.uniform(grid)
    probs = np.zeros_like(policy.probs)
    probs[:, :, Action.STAY] = 1.0
    return TabularPolicy(policy.width, policy.height, probs, policy.cells)


# ---------------------------------------------------------------------------
# obstacle clearance


@pytest.mark.parametrize(
    "grid",
    [
        generate_map(8, 8, 0.2, np.random.default_rng([4, 8])),
        generate_map(13, 5, 0.1, np.random.default_rng([1, 13])),
        generate_map(4, 11, 0.3, np.random.default_rng([2, 4])),
        generate_map(50, 50, 0.1, np.random.default_rng([0, 50])),
        parse_map("#......G\n"),
        parse_map("G\n.\n.\n#\n.\n#\n"),
        parse_map("#G\n"),
    ],
    ids=["8x8", "13x5", "4x11", "50x50", "8x1", "1x6", "2x1"],
)
def test_distance_field_matches_brute_force(grid):
    field = obstacle_distance_field(grid)
    assert field is not None and field.shape == (grid.height, grid.width)
    for y in range(grid.height):
        for x in range(grid.width):
            want = min(manhattan(Cell(x, y), o) for o in grid.obstacles)
            assert field[y, x] == want


def test_distance_field_is_none_without_obstacles():
    grid = parse_map("..G\n...\n")
    assert obstacle_distance_field(grid) is None
    assert obstacle_distance([Cell(0, 0)], grid) is None


def test_obstacle_distance_examples():
    grid = parse_map("G#..\n....\n")
    assert obstacle_distance([Cell(0, 1), Cell(1, 1)], grid) == 1.0
    assert obstacle_distance([Cell(0, 1)], grid) == 2.0
    far = parse_map("G..#\n")
    assert obstacle_distance([Cell(0, 0)], far) == 3.0


# ---------------------------------------------------------------------------
# evaluation


def test_astar_evaluation_matches_manhattan_on_an_empty_board():
    goal = Cell(4, 2)
    per_start = []
    distances = []
    for y in range(5):
        for x in range(5):
            start = Cell(x, y)
            if start == goal:
                continue
            grid = GridMap(
                width=5,
                height=5,
                obstacles=frozenset(),
                goals=frozenset({goal}),
                starts=frozenset({start}),
            )
            metrics = evaluate(
                AStarPlanner(), EnvConfig(grid=grid), 1, np.random.default_rng(0)
            )
            assert metrics.success_rate == 1.0
            per_start.append(metrics.mean_timesteps)
            distances.append(manhattan(start, goal))
    assert per_start == distances
    assert np.mean(per_start) == pytest.approx(np.mean(distances))


def test_stay_policy_never_succeeds():
    grid = parse_map("...G\n....\n")
    metrics = evaluate(
        stay_policy(grid), EnvConfig(grid=grid, num_agents=2), 5, np.random.default_rng(0)
    )
    assert metrics.success_rate == 0.0
    assert metrics.mean_timesteps is None
    assert metrics.collisions_per_episode == 0.0


def test_plan_execution_takes_exactly_the_plan_length():
    grid = parse_map("S....\n.###.\n...G.\n")
    want = bfs_path_length(
        grid.width,
        grid.height,
        {(c.x, c.y) for c in grid.obstacles},
        (0, 0),
        {(3, 2)},
    )
    metrics = evaluate(AStarPlanner(), EnvConfig(grid=grid), 1, np.random.default_rng(0))
    assert metrics.success_rate == 1.0
    assert metrics.mean_timesteps == want


def test_plan_rollout_settles_agents_that_start_on_a_goal():
    env = GridEnv(EnvConfig(grid=parse_map("GG\n"), num_agents=2))
    rollout = plan_rollout(env, np.random.default_rng(0))
    assert rollout.steps == 0
    assert {traj.cells[0] for traj in rollout.trajectories} == {Cell(0, 0), Cell(1, 0)}
    for traj in rollout.trajectories:
        assert traj.reached and traj.arrival_time == 0
        assert traj.actions == [] and traj.events == []


def test_two_plans_into_one_corridor_livelock():
    grid = parse_map(".G.\n")
    metrics = evaluate(
        AStarPlanner(),
        EnvConfig(grid=grid, num_agents=2, horizon=9),
        1,
        np.random.default_rng(0),
    )
    assert metrics.success_rate == 0.0
    assert metrics.mean_timesteps is None
    assert metrics.collisions_per_episode == 18.0  # both agents, every step


def test_evaluate_is_seed_deterministic():
    grid = generate_map(8, 8, 0.15, np.random.default_rng([2, 8]))
    config = EnvConfig(grid=grid, num_agents=2)
    a = evaluate(TabularPolicy.uniform(grid), config, 10, np.random.default_rng(5))
    b = evaluate(TabularPolicy.uniform(grid), config, 10, np.random.default_rng(5))
    assert a.success_rate == b.success_rate
    assert a.mean_timesteps == b.mean_timesteps
    assert a.obstacle_distance == b.obstacle_distance
    assert a.collisions_per_episode == b.collisions_per_episode


def test_evaluate_rejects_a_policy_of_another_size():
    grid = parse_map("..G\n...\n")
    for other in (parse_map("...G\n....\n....\n"), parse_map("G\n")):
        with pytest.raises(ConfigError, match="was trained on a"):
            evaluate(TabularPolicy.uniform(other), EnvConfig(grid=grid), 1, np.random.default_rng(0))


def test_evaluate_rejects_a_loaded_policy_from_another_map_of_the_same_size(tmp_path):
    # (1,0) is an obstacle, with no row, where the policy was made; it is free here.
    path = str(tmp_path / "walled.policy")
    save_policy(TabularPolicy.uniform(parse_map(".#..G\n")), path)
    policy, _ = load_policy(path)
    with pytest.raises(ConfigError, match=r"no row for free cell \(1,0\)"):
        evaluate(policy, EnvConfig(grid=parse_map("....G\n")), 1, np.random.default_rng(0))


def test_evaluate_requires_at_least_one_episode():
    grid = parse_map("G.\n")
    with pytest.raises(ConfigError, match="episodes"):
        evaluate(TabularPolicy.uniform(grid), EnvConfig(grid=grid), 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# map generation


def test_generate_map_places_the_exact_obstacle_count():
    grid = generate_map(10, 10, 0.13, np.random.default_rng(0))
    assert len(grid.obstacles) == 13
    assert len(grid.goals) == 1


def test_generate_map_density_zero_is_an_open_board():
    grid = generate_map(6, 4, 0.0, np.random.default_rng(1))
    assert not grid.obstacles
    assert len(grid.goals) == 1


def test_generate_map_is_connected():
    for seed in range(5):
        grid = generate_map(12, 12, 0.3, np.random.default_rng([seed, 12]))
        obstacles = {(c.x, c.y) for c in grid.obstacles}
        goals = {(g.x, g.y) for g in grid.goals}
        for start in sorted(grid.starts):
            assert (
                bfs_path_length(12, 12, obstacles, (start.x, start.y), goals) is not None
            )


def test_generate_map_is_seed_deterministic():
    a = generate_map(9, 9, 0.2, np.random.default_rng(21))
    b = generate_map(9, 9, 0.2, np.random.default_rng(21))
    assert a == b


def test_generate_map_puts_a_goal_in_every_region():
    grid = generate_map(55, 55, 0.05, np.random.default_rng(2))
    assert len(grid.goals) == 4  # one per 50x50 tile


def test_generate_map_gives_up_when_no_start_can_exist():
    # 1x2 board at density 0.4: one obstacle plus the goal fill the map,
    # so there is never a start cell left.
    with pytest.raises(ConfigError, match="could not generate a connected 1x2 map"):
        generate_map(1, 2, 0.4, np.random.default_rng(0))


def test_generate_map_rejects_bad_density():
    with pytest.raises(ConfigError, match="density"):
        generate_map(5, 5, 0.7, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# suite plumbing


def test_algorithm_roster():
    assert ALGORITHMS == ("egt", "astar", "qlearning", "montecarlo")


def test_suite_config_validation():
    with pytest.raises(ConfigError, match="at least one"):
        SuiteConfig(sizes=(), agent_counts=(1,))
    with pytest.raises(ConfigError, match="unknown algorithms"):
        SuiteConfig(sizes=(5,), agent_counts=(1,), algorithms=("ppo",))
    with pytest.raises(ConfigError, match="density"):
        SuiteConfig(sizes=(5,), agent_counts=(1,), density=0.9)
    with pytest.raises(ConfigError, match="sizes"):
        SuiteConfig(sizes=(5, 0), agent_counts=(1,))
    with pytest.raises(ConfigError, match="agent_counts"):
        SuiteConfig(sizes=(5,), agent_counts=(-1,))
    for slip in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="slip_probability"):
            SuiteConfig(sizes=(5,), agent_counts=(1,), slip_probability=slip)


def test_train_subject_astar_needs_no_training():
    grid = parse_map("..G\n...\n")
    subject, seconds = train_subject(
        "astar", EnvConfig(grid=grid), RewardParams.default_for(10), 100, np.random.default_rng(0)
    )
    assert isinstance(subject, AStarPlanner)
    assert seconds >= 0.0


def test_train_subject_egt_budget_sets_the_iteration_count():
    grid = parse_map("...G\n....\n")
    subject, _ = train_subject(
        "egt", EnvConfig(grid=grid), RewardParams.default_for(16), 128, np.random.default_rng(0)
    )
    assert isinstance(subject, TabularPolicy)
    # The returned policy is greedy: one-hot rows.
    assert np.all(subject.probs.max(axis=2) == 1.0)


def test_train_subject_rejects_unknown_algorithms():
    grid = parse_map("G.\n")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        train_subject("ppo", EnvConfig(grid=grid), RewardParams.default_for(4), 10, np.random.default_rng(0))


def test_metrics_row_formatting():
    metrics = Metrics(
        success_rate=0.5,
        mean_timesteps=None,
        obstacle_distance=None,
        collisions_per_episode=0.25,
        train_seconds=1.23456,
        eval_seconds=0.5,
    )
    row = metrics_row("astar", 5, 2, 7, metrics)
    assert row["algorithm"] == "astar"
    assert row["grid_size"] == "5" and row["num_agents"] == "2" and row["seed"] == "7"
    assert row["success_rate"] == "0.500000"
    assert row["mean_timesteps"] == "na"
    assert row["obstacle_distance"] == "na"
    assert row["train_seconds"] == "1.235"
    assert row["eval_seconds"] == "0.500"
    assert row["collisions_per_episode"] == "0.250000"
    assert row["error"] == ""


def test_metrics_row_without_metrics_is_all_na():
    row = metrics_row("egt", 5, 2, 7, None, error="boom")
    assert row["success_rate"] == row["mean_timesteps"] == "na"
    assert row["error"] == "boom"


def test_write_csv_echoes_configuration_comments(tmp_path):
    path = str(tmp_path / "out.csv")
    write_csv(path, [metrics_row("astar", 5, 1, 0, None)], {"suite.sizes": "5"})
    lines = open(path).read().splitlines()
    assert lines[0] == "# suite.sizes = 5"
    assert lines[1].startswith("algorithm,grid_size,num_agents,seed,")


def test_run_suite_rows_and_determinism(tmp_path):
    config = SuiteConfig(
        sizes=(5,),
        agent_counts=(1,),
        algorithms=("astar", "qlearning"),
        eval_episodes=3,
        train_episodes=30,
        seed=0,
    )
    path_a = str(tmp_path / "a.csv")
    path_b = str(tmp_path / "b.csv")
    rows_a = run_suite(config, out_path=path_a)
    rows_b = run_suite(config, out_path=path_b)
    assert len(rows_a) == 2
    assert [r["algorithm"] for r in rows_a] == ["astar", "qlearning"]
    for row_a, row_b in zip(rows_a, rows_b):
        for key, value in row_a.items():
            if key in ("train_seconds", "eval_seconds"):
                continue
            assert row_b[key] == value, key
        assert row_a["error"] == ""


def test_run_suite_records_failures_and_continues(tmp_path):
    config = SuiteConfig(
        sizes=(4,),
        agent_counts=(50,),
        algorithms=("astar", "montecarlo"),
        eval_episodes=2,
        train_episodes=10,
        seed=0,
    )
    rows = run_suite(config, out_path=str(tmp_path / "fail.csv"))
    assert len(rows) == 2
    for row in rows:
        assert "num_agents=50 exceeds" in row["error"]
        assert row["success_rate"] == "na"


# ---------------------------------------------------------------------------
# trajectory logs


def test_trajectory_log_contents(tmp_path):
    grid = parse_map("....G\n")
    rewards = RewardParams(step_penalty=1.0, goal_reward=60.0, collision_penalty=60.0, horizon=6)
    env = GridEnv(EnvConfig(grid=grid, horizon=6))
    rollout = run_episode(
        env,
        ConstantPolicy(Action.RIGHT),
        np.random.default_rng(0),
        initial_state=(AgentStatus(Cell(0, 0)),),
    )
    path = str(tmp_path / "log.csv")
    write_trajectory_log(path, [rollout], reach_avoid_machine(rewards))
    lines = open(path).read().splitlines()
    assert lines[0] == "episode,t,agent,x,y,action,event,reward"
    assert lines[1] == "0,0,0,0,0,right,moved,-1.0"
    assert lines[2] == "0,1,0,1,0,right,moved,-1.0"
    assert lines[3] == "0,2,0,2,0,right,moved,-1.0"
    assert lines[4] == "0,3,0,3,0,right,reached_goal,-1.0"
    assert lines[5] == "0,4,0,4,0,-,reached_goal,60.0"
    assert len(lines) == 6
    rewards_sum = sum(float(line.split(",")[-1]) for line in lines[1:])
    traj = rollout.trajectories[0]
    machine = reach_avoid_machine(rewards)
    assert rewards_sum == valuate(machine.weights(traj.observations()), SUM)
