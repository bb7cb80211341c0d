"""A* planning and the tabular Q-learning / Monte-Carlo baselines."""

from __future__ import annotations

import numpy as np
import pytest

from evomapf.automaton import RewardParams
from evomapf.baselines import (
    LearnerParams,
    astar,
    manhattan,
    monte_carlo_table,
    monte_carlo_train,
    qlearning_table,
    qlearning_train,
)
from evomapf.bench import generate_map
from evomapf.egt import TabularPolicy
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


def empty_grid_with_goal(width, height, goal):
    rows = []
    for y in range(height):
        rows.append("".join("G" if Cell(x, y) == goal else "." for x in range(width)))
    return parse_map("\n".join(rows) + "\n")


def greedy_rollout_length(policy, grid, start, horizon):
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=horizon))
    rollout = run_episode(
        env, policy, np.random.default_rng(0), initial_state=(AgentStatus(start),)
    )
    traj = rollout.trajectories[0]
    return traj.arrival_time if traj.reached else None


# ---------------------------------------------------------------------------
# A*


def test_manhattan_distance():
    assert manhattan(Cell(0, 0), Cell(4, 4)) == 8
    assert manhattan(Cell(2, 3), Cell(2, 3)) == 0


def test_astar_straight_shot_on_an_empty_board():
    grid = empty_grid_with_goal(5, 5, Cell(4, 4))
    path = astar(grid, Cell(0, 0))
    assert path is not None
    assert len(path) - 1 == 8
    assert path[0] == Cell(0, 0) and path[-1] == Cell(4, 4)


def test_astar_start_on_goal_is_the_empty_path():
    grid = empty_grid_with_goal(3, 3, Cell(1, 1))
    assert astar(grid, Cell(1, 1)) == [Cell(1, 1)]


def test_astar_returns_none_when_walled_off():
    grid = parse_map("S#G\n")
    assert astar(grid, Cell(0, 0)) is None


def test_astar_matches_breadth_first_search_on_random_maps():
    for seed in range(30):
        grid = generate_map(10, 10, 0.2, np.random.default_rng([seed, 101]))
        obstacles = {(c.x, c.y) for c in grid.obstacles}
        goals = {(g.x, g.y) for g in grid.goals}
        for start in sorted(grid.starts):
            want = bfs_path_length(grid.width, grid.height, obstacles, (start.x, start.y), goals)
            path = astar(grid, start)
            assert want is not None and path is not None  # generated maps are connected
            assert len(path) - 1 == want


def test_astar_paths_are_legal_walks():
    for seed in range(10):
        grid = generate_map(8, 8, 0.25, np.random.default_rng([seed, 55]))
        for start in sorted(grid.starts):
            path = astar(grid, start)
            assert path is not None
            for cell in path:
                assert grid.passable(cell)
            for here, there in zip(path, path[1:]):
                assert manhattan(here, there) == 1
            assert path[-1] in grid.goals


# ---------------------------------------------------------------------------
# Q-learning


STRIP = parse_map("....G\n")
STRIP_REWARDS = RewardParams(step_penalty=1.0, goal_reward=60.0, collision_penalty=60.0, horizon=6)


def test_qlearning_walks_the_strip_right():
    policy = qlearning_train(
        EnvConfig(grid=STRIP, horizon=6),
        STRIP_REWARDS,
        LearnerParams(episodes=500),
        np.random.default_rng(0),
    )
    for x in range(4):
        assert policy.action_probs(Cell(x, 0))[Action.RIGHT] == 1.0


def test_qlearning_with_zero_discount_credits_only_arrivals():
    rewards = RewardParams(step_penalty=0.0, goal_reward=1.0, collision_penalty=1e-9, horizon=6)
    q = qlearning_table(
        EnvConfig(grid=STRIP, horizon=6),
        rewards,
        LearnerParams(episodes=500, gamma=0.0),
        np.random.default_rng(0),
    )
    assert q[0, 3, Action.RIGHT] == pytest.approx(1.0, abs=1e-6)
    q[0, 3, Action.RIGHT] = 0.0
    assert np.abs(q).max() <= 1e-6


def test_qlearning_is_seed_deterministic():
    args = (
        EnvConfig(grid=STRIP, horizon=6),
        STRIP_REWARDS,
        LearnerParams(episodes=50),
    )
    a = qlearning_table(*args, np.random.default_rng(7))
    b = qlearning_table(*args, np.random.default_rng(7))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Monte-Carlo


def test_monte_carlo_walks_the_strip_right():
    # First-visit averages weigh every episode ever seen, so the table needs
    # noticeably more episodes than the TD learner before the argmax settles.
    policy = monte_carlo_train(
        EnvConfig(grid=STRIP, horizon=6),
        STRIP_REWARDS,
        LearnerParams(episodes=8000),
        np.random.default_rng(0),
    )
    for x in range(4):
        assert policy.action_probs(Cell(x, 0))[Action.RIGHT] == 1.0


def test_monte_carlo_single_episode_is_the_first_visit_return():
    # One agent pinned to one start, greedy over a zero table: it bumps the
    # top wall every step, so the only learned entry is the t=0 return-to-go.
    grid = parse_map("S.G\n")
    rewards = RewardParams(step_penalty=1.0, goal_reward=10.0, collision_penalty=10.0, horizon=4)
    gamma = 0.9
    q = monte_carlo_table(
        EnvConfig(grid=grid, horizon=4),
        rewards,
        LearnerParams(episodes=1, mc_batch=1, epsilon=0.0, epsilon_min=0.0, gamma=gamma),
        np.random.default_rng(0),
    )
    step_reward = -1.0 - 10.0  # every step bumps the wall
    want = step_reward * sum(gamma**k for k in range(4))
    assert q[0, 0, Action.UP] == pytest.approx(want)
    q[0, 0, Action.UP] = 0.0
    assert np.all(q == 0.0)


def test_monte_carlo_is_seed_deterministic():
    args = (
        EnvConfig(grid=STRIP, horizon=6),
        STRIP_REWARDS,
        LearnerParams(episodes=60),
    )
    a = monte_carlo_table(*args, np.random.default_rng(3))
    b = monte_carlo_table(*args, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_learners_leave_the_table_at_zero_when_every_agent_starts_on_a_goal():
    env_config = EnvConfig(grid=parse_map("GG\n"), num_agents=2)
    rewards = RewardParams.default_for(env_config.horizon)
    for learner in (qlearning_table, monte_carlo_table):
        q = learner(env_config, rewards, LearnerParams(episodes=20, mc_batch=3), np.random.default_rng(0))
        assert q.shape == (1, 2, 5)
        assert np.all(q == 0.0), learner.__name__


@pytest.mark.parametrize(
    "field, value",
    [
        ("episodes", 0),
        ("mc_batch", 0),
        ("learning_rate", 1.5),
        ("gamma", float("nan")),
        ("epsilon", -0.1),
        ("epsilon_decay", float("inf")),
        ("epsilon_min", float("nan")),
    ],
)
def test_learner_params_reject_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        LearnerParams(**{field: value})


# ---------------------------------------------------------------------------
# both learners against the planner


def test_learners_reach_astar_lengths_on_an_open_grid():
    grid = empty_grid_with_goal(4, 4, Cell(3, 3))
    env_config = EnvConfig(grid=grid, horizon=16)
    rng = np.random.default_rng(1)
    subjects = {
        "qlearning": qlearning_train(env_config, RewardParams.default_for(16), LearnerParams(episodes=2000), rng),
        "montecarlo": monte_carlo_train(env_config, RewardParams.default_for(16), LearnerParams(episodes=4000), rng),
    }
    for name, policy in subjects.items():
        assert isinstance(policy, TabularPolicy)
        for start in sorted(grid.starts):
            optimal = len(astar(grid, start)) - 1
            took = greedy_rollout_length(policy, grid, start, horizon=16)
            assert took == optimal, (name, start)
