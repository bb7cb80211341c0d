"""Benchmark harness: maps, metrics, evaluation, and the suite runner."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from evomapf import bench
from evomapf.automaton import SUM, RewardParams, reach_avoid_machine, valuate
from evomapf.baselines import LearnerParams, astar, learn
from evomapf.bench import (
    ALGORITHMS,
    Metrics,
    SuiteConfig,
    astar_policy,
    evaluate,
    generate_map,
    metrics_row,
    obstacle_distance,
    obstacle_distance_field,
    plan_rollout,
    run_suite,
    train_in_workers,
    train_subject,
    write_csv,
    write_trajectory_log,
)
from evomapf.egt import TabularPolicy, TrainConfig, load_policy, save_policy, train
from evomapf.gridworld import (
    Action,
    ACTION_DELTAS,
    Cell,
    ConfigError,
    CONFLICT_EVENTS,
    EnvConfig,
    GridEnv,
    GridMap,
    STEP_EVENTS,
    StepEvent,
    episode_steps,
    format_map,
    parse_map,
    run_episode,
)

from oracles import bfs_path_length, manhattan


class ConstantPolicy:
    def __init__(self, action: Action):
        self.action = action

    def sample_actions(self, cells, rng):
        return [self.action] * len(cells)


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
                astar_policy(grid), EnvConfig(grid=grid), 1, np.random.default_rng(0)
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
    metrics = evaluate(astar_policy(grid), EnvConfig(grid=grid), 1, np.random.default_rng(0))
    assert metrics.success_rate == 1.0
    assert metrics.mean_timesteps == want


def test_astar_policy_walks_the_astar_path_from_every_free_cell():
    """One agent under astar_policy walks astar's path from its start, which is as long as BFS's;
    from a walled-off cell it stays put, where astar has no path."""
    generated = [generate_map(size, size, density, np.random.default_rng([seed, size]))
                 for seed, (size, density) in enumerate([(6, 0.3), (9, 0.2), (12, 0.3), (15, 0.1), (20, 0.2)])]
    written = [parse_map(text) for text in (
        "G...G\n.###.\n.#.#.\n.###.\nG...G\n",  # (2, 2) is walled off
        "G.#..\n..#.G\n###..\n..#..\n..#G.\n",  # so is the bottom-left corner
        "....#G\n.##.##\n.#G...\n.####.\n......\n",
    )]
    for grid in generated + written:
        env = GridEnv(EnvConfig(grid=grid, horizon=grid.width * grid.height))
        policy = astar_policy(grid)
        obstacles = {(c.x, c.y) for c in grid.obstacles}
        goals = {(g.x, g.y) for g in grid.goals}
        for cell in grid.free_cells():
            path = astar(grid, cell)
            want = bfs_path_length(grid.width, grid.height, obstacles, cell, goals)
            (traj,) = run_episode(env, policy, np.random.default_rng(0), starts=[env.index(cell)]).trajectories
            if want is None:
                assert path is None and not traj.reached and set(traj.cells) == {cell}
            else:
                assert traj.cells == path
                assert traj.arrival_time == len(path) - 1 == want


def test_plan_rollout_settles_agents_that_start_on_a_goal():
    env = GridEnv(EnvConfig(grid=parse_map("GG\n"), num_agents=2))
    rollout = plan_rollout(env, np.random.default_rng(0))
    assert rollout.steps == 0
    assert {traj.cells[0] for traj in rollout.trajectories} == {Cell(0, 0), Cell(1, 0)}
    for traj in rollout.trajectories:
        assert traj.reached and traj.arrival_time == 0
        assert traj.actions == [] and traj.events == []
    # plan_rollout is run_episode under astar_policy, draw for draw.
    env = GridEnv(EnvConfig(grid=generate_map(10, 10, 0.1, np.random.default_rng([0, 10])), num_agents=4,
                            slip_probability=0.1))
    planned, policy_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(5):
        assert plan_rollout(env, planned) == run_episode(env, astar_policy(env.grid), policy_rng)
    assert planned.random() == policy_rng.random()


def test_two_plans_into_one_corridor_livelock():
    grid = parse_map(".G.\n")
    metrics = evaluate(
        astar_policy(grid),
        EnvConfig(grid=grid, num_agents=2, horizon=9),
        1,
        np.random.default_rng(0),
    )
    assert metrics.success_rate == 0.0
    assert metrics.mean_timesteps is None
    assert metrics.collisions_per_episode == 18.0  # both agents, every step


class ReplayedPlan:
    """The A* replay that astar_policy replaced: an agent follows the A* path from its start,
    retries a move after a conflict revert, and replans with astar when a slip takes it off its path."""

    # astar builds the map's whole field on each call; the replay asks for the same paths again and again.
    plan = staticmethod(functools.cache(astar))

    def __init__(self, grid: GridMap, start: Cell):
        self.grid = grid
        self.path = self.plan(grid, start)

    def next_action(self, cell: Cell) -> Action:
        if self.path is None:
            return Action.STAY
        if cell not in self.path:
            self.path = self.plan(self.grid, cell)
            if self.path is None:
                return Action.STAY
        i = self.path.index(cell)
        if i + 1 == len(self.path):
            return Action.STAY
        step = (self.path[i + 1].x - cell.x, self.path[i + 1].y - cell.y)
        return next(a for a, delta in ACTION_DELTAS.items() if delta == step)


def replayed_episode(env: GridEnv, rng: np.random.Generator) -> tuple[int, list[int], int]:
    """One episode of ReplayedPlan agents: (agent-episodes, arrival times, conflict events)."""
    starts = env.reset(rng)
    plans = [ReplayedPlan(env.grid, env.cells[c]) for c in starts]
    live = [i for i, c in enumerate(starts) if env.cells[c] not in env.grid.goals]
    arrivals = [0] * (len(starts) - len(live))
    conflicts = 0

    def choose(cells: list[int]) -> list[Action]:
        return [plans[i].next_action(env.cells[c]) for i, c in zip(live, cells)]

    for t, (agents, _, _, _, events) in enumerate(episode_steps(env, starts, choose, rng), 1):
        codes = [STEP_EVENTS[ev] for ev in events]
        conflicts += sum(ev in CONFLICT_EVENTS for ev in codes)
        arrivals += [t] * codes.count(StepEvent.REACHED_GOAL)
        live = [i for i, ev in zip(agents, codes) if ev is not StepEvent.REACHED_GOAL]
    return len(starts), arrivals, conflicts


def test_astar_policy_matches_the_replay_in_distribution_under_slip():
    """With slip, astar_policy draws a policy uniform per agent and step that the replay did not,
    so only the distribution can agree: success, mean arrival time and collisions per episode
    within 4 standard errors, over independent episodes of each."""
    grid = generate_map(10, 10, 0.1, np.random.default_rng([0, 10]))
    env = GridEnv(EnvConfig(grid=grid, num_agents=4, slip_probability=0.1))
    policy = astar_policy(grid)

    def policy_episode(env: GridEnv, rng: np.random.Generator) -> tuple[int, list[int], int]:
        trajs = run_episode(env, policy, rng).trajectories
        conflicts = sum(ev in CONFLICT_EVENTS for t in trajs for ev in t.events)
        return len(trajs), [t.arrival_time for t in trajs if t.reached], conflicts

    episodes = 3000
    sides = []  # per episode: agents, successes, summed arrival time, conflicts
    for seed, play in ((5, policy_episode), (6, replayed_episode)):
        outcomes = [play(env, np.random.default_rng([seed, e])) for e in range(episodes)]
        sides.append(np.array([(n, len(a), sum(a), c) for n, a, c in outcomes], dtype=float))

    def ratio(numerator, denominator):
        # A ratio of episode sums and its delta-method standard error over episodes.
        r = numerator.sum() / denominator.sum()
        return r, (numerator - r * denominator).std() / (denominator.mean() * np.sqrt(len(numerator)))

    figures = [
        [ratio(x[:, 1], x[:, 0]), ratio(x[:, 2], x[:, 1]), (x[:, 3].mean(), x[:, 3].std() / np.sqrt(len(x)))]
        for x in sides
    ]
    for (got, se_got), (want, se_want) in zip(*figures):
        assert abs(got - want) < 4 * np.hypot(se_got, se_want)
    success = figures[0][0][0]
    assert 0.5 < success < 1.0  # some agents time out in a livelock


def test_mean_cost_charges_the_horizon_for_each_failure():
    grid = parse_map("S....\n.###.\n...G.\n")
    planned = evaluate(astar_policy(grid), EnvConfig(grid=grid), 1, np.random.default_rng(0))
    assert planned.mean_cost == planned.mean_timesteps == 5
    stuck = evaluate(stay_policy(grid), EnvConfig(grid=grid, horizon=9), 3, np.random.default_rng(0))
    assert stuck.mean_timesteps is None and stuck.mean_cost == 9.0
    # A uniform policy on a short horizon: some agents arrive, some time out.
    config = EnvConfig(grid=generate_map(8, 8, 0.15, np.random.default_rng([2, 8])), num_agents=2, horizon=12)
    mixed = evaluate(TabularPolicy.uniform(config.grid), config, 40, np.random.default_rng(5))
    assert 0.0 < mixed.success_rate < 1.0
    want = mixed.success_rate * mixed.mean_timesteps + (1.0 - mixed.success_rate) * 12
    assert mixed.mean_cost == pytest.approx(want)


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


def test_generate_map_rejects_a_size_below_one():
    """A side below 1 is rejected by name before the first draw: the generator is left untouched."""
    for width, height in ((0, 5), (-1, 5), (5, 0), (5, -1)):
        rng = np.random.default_rng(0)
        name, value = ("width", width) if width < 1 else ("height", height)
        with pytest.raises(ConfigError, match=f"^{name} must be at least 1, got {value}$"):
            generate_map(width, height, 0.1, rng)
        assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize(
    "size, seed, sha256",
    [
        (20, [7, 20], "8bb88279a05f86eadb36f020e02863924e84753c62e832d735c891941211b828"),
        (50, [0, 50], "9b90f3809d32abfdabbff3c4df911e62c564d6edfa02b97fddc4794df761f091"),
        (10, [0, 10], "89ea7c878353833371e63cdb54e1daa65556f39a4a32151b278cc7accf236056"),
        (20, [0, 20], "b85e33c7ab09df0ececf65d7a1638f030a1ce29b3aa2109a6a20256aca4b6a1c"),
    ],
    ids=["acceptance-6", "eval-crowd", "suite-10", "suite-20"],
)
def test_generate_map_keeps_the_pinned_maps(size, seed, sha256):
    # The training fixture, the 25-agent evaluation map and the default suite maps at density 0.1.
    text = format_map(generate_map(size, size, 0.1, np.random.default_rng(seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# suite plumbing


def test_algorithm_roster():
    assert ALGORITHMS == ("egt", "astar", "qlearning", "montecarlo")


def test_suite_config_validation():
    with pytest.raises(ConfigError, match="at least one"):
        SuiteConfig(sizes=(), agents=(1,))
    with pytest.raises(ConfigError, match="algorithms must be among"):
        SuiteConfig(sizes=(5,), agents=(1,), algorithms=("ppo",))
    with pytest.raises(ConfigError, match="density"):
        SuiteConfig(sizes=(5,), agents=(1,), density=0.9)
    with pytest.raises(ConfigError, match="sizes"):
        SuiteConfig(sizes=(5, 0), agents=(1,))
    with pytest.raises(ConfigError, match="agents must be at least 1"):
        SuiteConfig(sizes=(5,), agents=(-1,))
    for slip in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="slip_probability"):
            SuiteConfig(sizes=(5,), agents=(1,), slip_probability=slip)
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        SuiteConfig(sizes=(5,), agents=(1,), seed=-1)


def test_train_subject_astar_needs_no_training():
    # (4,0) and (4,1) are walled off from the goal.
    grid = parse_map("..G#.\n...#.\n")
    subject, seconds = train_subject(
        "astar", EnvConfig(grid=grid), RewardParams.default_for(10), 100, np.random.default_rng(0)
    )
    assert isinstance(subject, TabularPolicy)
    assert subject.cells == grid.free_cells()
    assert np.all(subject.probs.max(axis=2) == 1.0)
    for cell in grid.free_cells():
        path = astar(grid, cell)
        step = (0, 0) if path is None or len(path) == 1 else (path[1].x - cell.x, path[1].y - cell.y)
        assert ACTION_DELTAS[Action(subject.action_probs(cell).argmax())] == step
    assert seconds >= 0.0


def test_train_subject_egt_budget_sets_the_iteration_count(monkeypatch):
    configs = []

    def recording_train(config, rng):
        configs.append(config)
        return train(config, rng)

    monkeypatch.setattr(bench, "train", recording_train)
    grid = parse_map("...G\n....\n")
    subject, _ = train_subject(
        "egt", EnvConfig(grid=grid), RewardParams.default_for(12), 128, np.random.default_rng(0)
    )
    assert [config.max_iterations for config in configs] == [128 // TrainConfig.batch_size]
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
        mean_cost=12.0,
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
    assert row["mean_cost"] == "12.000000"
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


def serial_suite_rows(config: SuiteConfig) -> list[dict[str, str]]:
    """The suite's rows rolled one after another in this process, on run_suite's seeds."""
    rows = []
    for size in config.sizes:
        grid = generate_map(size, size, config.density, np.random.default_rng([config.seed, size]))
        for num_agents in config.agents:
            for algo_index, algorithm in enumerate(config.algorithms):
                try:
                    env_config = EnvConfig(
                        grid=grid, num_agents=num_agents, slip_probability=config.slip_probability
                    )
                    subject, _ = train_subject(
                        algorithm, env_config, RewardParams.default_for(env_config.horizon),
                        config.train_episodes, np.random.default_rng([config.seed, size, num_agents, algo_index]),
                    )
                    eval_rng = np.random.default_rng([config.seed, size, num_agents, 10_000])
                    metrics = evaluate(subject, env_config, config.eval_episodes, eval_rng)
                    rows.append(metrics_row(algorithm, size, num_agents, config.seed, metrics))
                except ConfigError as exc:
                    rows.append(metrics_row(algorithm, size, num_agents, config.seed, None, error=str(exc)))
    return rows


def without_seconds(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    return [{k: v for k, v in row.items() if k not in ("train_seconds", "eval_seconds")} for row in rows]


def test_run_suite_rows_and_determinism(tmp_path):
    config = SuiteConfig(
        sizes=(5,),
        agents=(1,),
        algorithms=("astar", "qlearning"),
        eval_episodes=3,
        train_episodes=30,
        seed=0,
    )
    path_a = str(tmp_path / "a.csv")
    path_b = str(tmp_path / "b.csv")
    rows_a = run_suite(config, out_path=path_a)
    rows_b = run_suite(config, out_path=path_b)
    assert [r["algorithm"] for r in rows_a] == ["astar", "qlearning"]
    assert without_seconds(rows_a) == without_seconds(rows_b)
    assert [r["error"] for r in rows_a] == ["", ""]


def test_run_suite_keeps_the_shortest_move_astar_rows():
    """At slip 0, the 10x10 A* rows under shortest_moves's tie rule (the first closer move in
    Action order).  The per-cell A* search that came before broke ties otherwise and read
    7.18 collisions at 2 agents and 0.6675 / 5.816479 / 47.28 at 4."""
    config = SuiteConfig(sizes=(10,), agents=(2, 4), algorithms=("astar",), eval_episodes=100, seed=0)
    got = [(r["success_rate"], r["mean_timesteps"], r["collisions_per_episode"]) for r in run_suite(config)]
    assert got == [("0.900000", "5.844444", "7.220000"), ("0.662500", "5.803774", "48.020000")]


def test_run_suite_records_failures_and_continues(tmp_path):
    config = SuiteConfig(
        sizes=(4,),
        agents=(50,),
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


def test_run_suite_matches_a_serial_reference():
    # The 3x3 map has 7 start cells, so its 8-agent rows fail.
    config = SuiteConfig(
        sizes=(3, 5), agents=(2, 8), eval_episodes=10, train_episodes=300, slip_probability=0.1, seed=3
    )
    expected = serial_suite_rows(config)
    assert sum("num_agents=8 exceeds" in row["error"] for row in expected) == len(ALGORITHMS)
    assert without_seconds(run_suite(config)) == without_seconds(expected)


def test_run_suite_leaves_no_worker_running():
    clean = SuiteConfig(sizes=(5,), agents=(1, 2), eval_episodes=2, train_episodes=20)
    failing = SuiteConfig(sizes=(3,), agents=(1, 8), eval_episodes=2, train_episodes=20)
    for config, failures in ((clean, 0), (failing, len(ALGORITHMS))):
        rows = run_suite(config)
        assert sum(bool(row["error"]) for row in rows) == failures
        assert multiprocessing.active_children() == []


def crashing_train_subject(algorithm, *args):
    if algorithm == "qlearning":
        os._exit(1)
    return train_subject(algorithm, *args)


def test_run_suite_records_a_broken_pool_and_continues(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "train_subject", crashing_train_subject)
    config = SuiteConfig(sizes=(5,), agents=(1, 2), eval_episodes=2, train_episodes=20)
    path = tmp_path / "broken.csv"
    rows = run_suite(config, out_path=str(path))
    assert [(r["num_agents"], r["algorithm"]) for r in rows] == [
        (str(n), a) for n in (1, 2) for a in ALGORITHMS
    ]
    # The rows still running or queued when a worker dies get the pool's error; the rest are evaluated.
    crashed = [row for row in rows if "terminated abruptly" in row["error"]]
    assert all(row in crashed for row in rows if row["algorithm"] == "qlearning")
    assert all(row in crashed or not row["error"] for row in rows)
    assert len(path.read_text().splitlines()) == 1 + len(rows)
    assert multiprocessing.active_children() == []


def marking_train_subject(marker, seconds):
    """Stands in for train_subject: sleeps, leaves a marker file and returns its arguments; `crash` kills the worker."""
    if marker == "crash":
        os._exit(1)
    time.sleep(seconds)
    open(marker, "w").close()
    return marker, seconds


def test_train_in_workers_yields_in_call_order_and_closes(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "train_subject", marking_train_subject)
    calls = [(str(tmp_path / name), seconds) for name, seconds in (("a", 0.4), ("b", 0.0), ("c", 0.2), ("d", 0.0))]
    assert list(train_in_workers(calls)) == calls
    trained = train_in_workers(calls)
    assert next(trained) == calls[0]
    trained.close()
    assert multiprocessing.active_children() == []


def test_train_in_workers_yields_a_call_s_exception_in_its_place():
    env_config = EnvConfig(grid=parse_map("...G\n"))
    rewards = RewardParams.default_for(env_config.horizon)
    calls = [(algorithm, env_config, rewards, 10, np.random.default_rng(0)) for algorithm in ("astar", "dqn", "astar")]
    first, failed, last = train_in_workers(calls)
    assert isinstance(failed, ConfigError) and "unknown algorithm 'dqn'" in str(failed)
    assert first[0].probs.tolist() == last[0].probs.tolist() == astar_policy(env_config.grid).probs.tolist()


def test_train_in_workers_yields_only_while_fewer_calls_than_workers_are_unfinished(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "train_subject", marking_train_subject)
    # The first call finishes at once; the rest keep the workers busy for a while.
    calls = [(str(tmp_path / str(k)), 0.0 if k == 0 else 0.3) for k in range(6)]
    for got, call in zip(train_in_workers(calls), calls):
        assert got == call
        # A call leaves its marker before the pool sees it finish, so this undercounts unfinished calls.
        assert len(calls) - len(list(tmp_path.iterdir())) < min(os.cpu_count() or 1, len(calls))


class Abandoned(BaseException):
    """Raised from a signal handler, as KeyboardInterrupt is on Ctrl-C."""


def abandon(signum, frame):
    raise Abandoned


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_abandoning_train_in_workers_cancels_the_queued_calls(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "train_subject", marking_train_subject)
    calls = [(str(tmp_path / str(k)), 0.5) for k in range(12)]
    previous = signal.signal(signal.SIGALRM, abandon)
    try:
        # The timer fires while the caller waits for the first call, as a Ctrl-C would.
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Abandoned):
            next(train_in_workers(calls))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    # Only the calls already running or handed to a worker's queue ran.
    assert len(list(tmp_path.iterdir())) < len(calls)


def test_train_in_workers_yields_every_call_when_the_pool_breaks(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "train_subject", marking_train_subject)
    calls = [(str(tmp_path / "a"), 0.0), ("crash", 0.0), *((str(tmp_path / str(k)), 0.2) for k in range(3))]
    outcomes = list(train_in_workers(calls))
    assert len(outcomes) == len(calls)
    assert isinstance(outcomes[1], BrokenProcessPool)
    assert all(got == call or isinstance(got, BrokenProcessPool) for got, call in zip(outcomes, calls))
    assert multiprocessing.active_children() == []


def test_train_in_workers_learners_equal_direct_training():
    """The route acceptance 7 takes: pooled learners equal the learners trained in this process."""
    grid = generate_map(10, 10, 0.1, np.random.default_rng([7, 10]))
    env_config = EnvConfig(grid=grid, num_agents=2, horizon=80)
    rewards = RewardParams(step_penalty=1.0, goal_reward=800.0, collision_penalty=100.0, horizon=80, gamma=0.97)
    budget = 300
    calls = [(name, env_config, rewards, budget, np.random.default_rng(0)) for name in ("qlearning", "montecarlo")]
    (qlearning, _), (montecarlo, _) = train_in_workers(calls)
    params = LearnerParams(episodes=budget)
    assert qlearning.probs.tobytes() == learn("qlearning", env_config, rewards, params, np.random.default_rng(0)).probs.tobytes()
    assert montecarlo.probs.tobytes() == learn("montecarlo", env_config, rewards, params, np.random.default_rng(0)).probs.tobytes()
    assert qlearning.cells == montecarlo.cells == grid.free_cells()


# ---------------------------------------------------------------------------
# trajectory logs


def test_trajectory_log_contents(tmp_path):
    grid = parse_map("....G\n")
    rewards = RewardParams(step_penalty=1.0, goal_reward=60.0, collision_penalty=60.0, horizon=6)
    env = GridEnv(EnvConfig(grid=grid, horizon=6))
    rollout = run_episode(env, ConstantPolicy(Action.RIGHT), np.random.default_rng(0), starts=[0])
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


class SteppedTable(TabularPolicy):
    """A TabularPolicy that run_episode steps to the horizon, as if it could not replay a cycle."""

    deterministic = False


def test_evaluate_replays_a_crowd_as_it_steps_it(monkeypatch):
    """Every one-hot subject at 16 agents on a 20x20 map (the learners trained on small budgets at 2
    agents): the same metrics whether episodes read its action table and replay their cycles, never
    calling sample_actions, or are forced through sample_actions; the replayed steps hold conflicts,
    so reverts repeat inside the cycles."""
    grid = generate_map(20, 20, 0.1, np.random.default_rng([3, 20]))
    config = EnvConfig(grid=grid, num_agents=16)
    rewards = RewardParams.default_for(config.horizon)
    for algorithm in ALGORITHMS:
        policy, _ = train_subject(algorithm, EnvConfig(grid=grid, num_agents=2), rewards, 256,
                                  np.random.default_rng(5))
        assert policy.deterministic
        sampled, advanced = [], []
        sample = policy.sample_actions
        policy.sample_actions = lambda cells, rng: sampled.append(len(cells)) or sample(cells, rng)
        advance = GridEnv.advance
        monkeypatch.setattr(GridEnv, "advance", lambda *args: advanced.append(1) or advance(*args))
        replayed = []  # (rollout, steps taken) per episode

        def recorded(*args, **kwargs):
            before = len(advanced)
            rollout = run_episode(*args, **kwargs)
            replayed.append((rollout, len(advanced) - before))
            return rollout

        monkeypatch.setattr(bench, "run_episode", recorded)
        got = evaluate(policy, config, 30, np.random.default_rng(11))
        monkeypatch.undo()
        assert sampled == [], algorithm
        want = evaluate(SteppedTable(grid.width, grid.height, policy.probs, policy.cells), config, 30,
                        np.random.default_rng(11))
        assert dataclasses.replace(got, eval_seconds=0.0) == dataclasses.replace(want, eval_seconds=0.0), algorithm
        assert sum(taken for _, taken in replayed) < sum(rollout.steps for rollout, _ in replayed), algorithm
        conflicts_replayed = sum(ev in CONFLICT_EVENTS for rollout, taken in replayed
                                 for traj in rollout.trajectories for ev in traj.events[taken:])
        assert conflicts_replayed > 0, algorithm
