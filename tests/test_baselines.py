"""A* planning and the tabular Q-learning / Monte-Carlo baselines."""

from __future__ import annotations

import numpy as np
import pytest

from evomapf.automaton import SEEKING, RewardParams, reach_avoid_machine
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
    COLLISION_EVENTS,
    Action,
    AgentStatus,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    StepEvent,
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


# ---------------------------------------------------------------------------
# both learners against Cell-level reference loops


def reference_steps(env, state, choose, rng):
    """One episode through GridEnv.step: (before, actions, after, events) per step."""
    state = tuple(
        AgentStatus(st.cell, reached=True, active=False) if st.active and st.cell in env.grid.goals else st
        for st in state
    )
    for _ in range(env.config.horizon):
        if not any(st.active for st in state):
            return
        actions = [choose(st.cell) if st.active else Action.STAY for st in state]
        after, events = env.step(state, actions, rng)
        yield state, actions, after, events
        state = after


def reference_tables(env_config, rewards, params, rng):
    """Q-learning and first-visit Monte-Carlo tables, each an epsilon-greedy loop over Cells."""
    env = GridEnv(env_config)
    grid = env_config.grid
    plain, collision, bonus = reach_avoid_machine(rewards).weight[SEEKING].tolist()[:3]
    shape = (grid.height, grid.width, 5)

    def reward_of(event):
        reward = collision if event in COLLISION_EVENTS else plain
        return reward + bonus if event is StepEvent.REACHED_GOAL else reward

    def episodes(q):
        epsilon = params.epsilon

        def choose(cell):
            if rng.random() < epsilon:
                return Action(int(rng.integers(5)))
            return Action(int(np.argmax(q[cell.y, cell.x])))

        for _ in range(params.episodes):
            yield reference_steps(env, env.reset(rng), choose, rng)
            epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)

    q_learned = np.zeros(shape)
    for episode in episodes(q_learned):
        for before, actions, after, events in episode:
            for i, st in enumerate(before):
                if not st.active:
                    continue
                reward = reward_of(events[i])
                nxt = after[i].cell
                if events[i] is not StepEvent.REACHED_GOAL:
                    reward += params.gamma * q_learned[nxt.y, nxt.x].max()
                cell = (st.cell.y, st.cell.x, actions[i])
                q_learned[cell] += params.learning_rate * (reward - q_learned[cell])

    sums, counts, q_means = np.zeros(shape), np.zeros(shape, dtype=np.int64), np.zeros(shape)
    for done, episode in enumerate(episodes(q_means), 1):
        steps = [[] for _ in range(env_config.num_agents)]
        for before, actions, _, events in episode:
            for i, st in enumerate(before):
                if st.active:
                    steps[i].append(((st.cell.y, st.cell.x, actions[i]), reward_of(events[i])))
        for agent_steps in steps:
            returns, ret = [], 0.0
            for _, reward in reversed(agent_steps):
                ret = reward + params.gamma * ret
                returns.append(ret)
            returns.reverse()
            first_visit = {}
            for t, (key, _) in enumerate(agent_steps):
                first_visit.setdefault(key, t)
            for key, t in first_visit.items():
                sums[key] += returns[t]
                counts[key] += 1
        if done % params.mc_batch == 0 or done == params.episodes:
            seen = counts > 0
            q_means[seen] = sums[seen] / counts[seen]
    return q_learned, q_means


@pytest.mark.parametrize("num_agents, slip", [(2, 0.0), (4, 0.2)])
def test_learners_equal_the_cell_level_reference_loops(num_agents, slip):
    grid = generate_map(8, 6, 0.15, np.random.default_rng([num_agents, 86]))
    env_config = EnvConfig(grid=grid, num_agents=num_agents, slip_probability=slip)
    rewards = RewardParams.default_for(env_config.horizon)
    # 200 episodes in batches of 30: the last Monte-Carlo batch is short.
    params = LearnerParams(episodes=200, mc_batch=30, epsilon=0.5, epsilon_decay=0.99)
    want_q, want_mc = reference_tables(env_config, rewards, params, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    got_q = qlearning_table(env_config, rewards, params, rng)
    got_mc = monte_carlo_table(env_config, rewards, params, rng)
    assert np.array_equal(got_q, want_q)
    assert np.array_equal(got_mc, want_mc)
    assert np.any(want_q != 0.0) and np.any(want_mc != 0.0)
