"""A* planning and the tabular Q-learning / Monte-Carlo baselines."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from evomapf import baselines, gridworld
from evomapf.automaton import SEEKING, RewardParams, discounted_sum, reach_avoid_machine, valuate
from evomapf.baselines import (
    LearnerParams,
    astar,
    credit_first_visits,
    learn,
    manhattan,
    monte_carlo_table,
    qlearning_table,
)
from evomapf.bench import generate_map
from evomapf.egt import NUM_ACTIONS, TabularPolicy
from evomapf.gridworld import (
    COLLISION_EVENTS,
    Action,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    GridMap,
    STEP_EVENTS,
    StepEvent,
    parse_map,
    roll_batch,
    run_episode,
)

from oracles import bfs_path_length, first_visit_credit


def empty_grid_with_goal(width, height, goal):
    rows = []
    for y in range(height):
        rows.append("".join("G" if Cell(x, y) == goal else "." for x in range(width)))
    return parse_map("\n".join(rows) + "\n")


def greedy_rollout_length(policy, grid, start, horizon):
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=horizon))
    rollout = run_episode(env, policy, np.random.default_rng(0), starts=[env.index(start)])
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
    policy = learn(
        "qlearning",
        EnvConfig(grid=STRIP, horizon=6),
        STRIP_REWARDS,
        LearnerParams(episodes=500),
        np.random.default_rng(0),
    )
    for x in range(4):
        assert policy.action_probs(Cell(x, 0))[Action.RIGHT] == 1.0


def test_qlearning_with_zero_discount_credits_only_arrivals():
    rewards = RewardParams(step_penalty=0.0, goal_reward=1.0, collision_penalty=1e-9, horizon=6, gamma=0.0)
    q = qlearning_table(
        EnvConfig(grid=STRIP, horizon=6),
        rewards,
        LearnerParams(episodes=500),
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
    policy = learn(
        "montecarlo",
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
    gamma = 0.9
    rewards = RewardParams(step_penalty=1.0, goal_reward=10.0, collision_penalty=10.0, horizon=4, gamma=gamma)
    q = monte_carlo_table(
        EnvConfig(grid=grid, horizon=4),
        rewards,
        LearnerParams(episodes=1, mc_batch=1, epsilon_greedy=0.0, epsilon_min=0.0),
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


def test_monte_carlo_steps_no_single_episode(monkeypatch):
    """Monte-Carlo rolls its batches through roll_batch, never one episode at a time."""

    def refuse(*args, **kwargs):
        raise AssertionError("a single episode was stepped")

    monkeypatch.setattr(GridEnv, "advance", refuse)
    monkeypatch.setattr(gridworld, "episode_steps", refuse)
    monkeypatch.setattr(baselines, "episode_steps", refuse)
    grid = generate_map(6, 5, 0.1, np.random.default_rng(3))
    env_config = EnvConfig(grid=grid, num_agents=2, slip_probability=0.1)
    rewards = RewardParams.default_for(env_config.horizon)
    q = monte_carlo_table(env_config, rewards, LearnerParams(episodes=60, mc_batch=25), np.random.default_rng(0))
    assert np.any(q != 0.0)
    with pytest.raises(AssertionError, match="single episode"):
        qlearning_table(env_config, rewards, LearnerParams(episodes=1), np.random.default_rng(0))


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
        ("epsilon_greedy", -0.1),
        ("epsilon_decay", float("inf")),
        ("epsilon_min", float("nan")),
    ],
)
def test_learner_params_reject_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        LearnerParams(**{field: value})


@pytest.mark.parametrize("learner", [qlearning_table, monte_carlo_table])
def test_learners_reject_rewards_for_another_horizon(learner):
    with pytest.raises(ConfigError, match=r"^rewards.horizon 6 must equal env.horizon 9, "):
        learner(EnvConfig(grid=STRIP, horizon=9), STRIP_REWARDS, LearnerParams(episodes=5), np.random.default_rng(0))


def test_learners_discount_with_the_rewards_gamma():
    assert "gamma" not in {field.name for field in fields(LearnerParams)}
    # Q-learning bootstraps one step: Q(3, RIGHT) = 60 - 1, so Q(2, RIGHT) tends to -1 + gamma * 59.
    for gamma in (0.5, 0.9):
        rewards = replace(STRIP_REWARDS, gamma=gamma)
        q = qlearning_table(EnvConfig(grid=STRIP, horizon=6), rewards, LearnerParams(episodes=500),
                            np.random.default_rng(0))
        assert q[0, 2, Action.RIGHT] == pytest.approx(-1.0 + gamma * 59.0, rel=1e-3)


def test_greedy_tables_put_all_mass_on_the_first_maximum_of_each_row(monkeypatch):
    # Per strip cell: UP ties RIGHT, DOWN ties the rest, all five tie, STAY alone, RIGHT alone.
    q = np.array([[[1, 0, 0, 1, 0], [0, 2, 2, 2, 2], [0, 0, 0, 0, 0], [-1, -1, -1, -1, 3], [0, 0, 0, 5, 0]]], float)
    first = np.eye(NUM_ACTIONS)[[[Action.UP, Action.DOWN, Action.UP, Action.STAY, Action.RIGHT]]]
    monkeypatch.setitem(baselines.LEARNERS, "tied", lambda *args: q)
    policy = learn("tied", EnvConfig(grid=STRIP, horizon=6), STRIP_REWARDS, LearnerParams(), np.random.default_rng(0))
    assert policy.probs.tobytes() == first.tobytes()
    assert TabularPolicy(5, 1, q, STRIP.free_cells()).greedy().probs.tobytes() == first.tobytes()
    # Monte-Carlo's first batch acts on a zero table, where every row ties: all mass on UP, cumulatively.
    tables = []

    def record(env, cumulative, *args):
        tables.append(cumulative)
        return roll_batch(env, cumulative, *args)

    monkeypatch.setattr(baselines, "roll_batch", record)
    monte_carlo_table(EnvConfig(grid=STRIP, horizon=6), STRIP_REWARDS, LearnerParams(episodes=1, mc_batch=1),
                      np.random.default_rng(0))
    assert tables[0].tobytes() == np.ones((5, NUM_ACTIONS)).tobytes()


@pytest.mark.xfail(strict=True, reason=(
    "baselines._step_rewards pays goal_reward on the arrival step; the automaton pays it one step later, "
    "discounted by one more gamma, so the learners and EGT agree only at gamma = 1"))
def test_learners_score_a_trajectory_as_the_automaton_values_it():
    rewards = RewardParams(step_penalty=1.0, goal_reward=100.0, collision_penalty=50.0, horizon=10, gamma=0.9)
    env = GridEnv(EnvConfig(grid=parse_map("S..G\n"), horizon=10))
    right = TabularPolicy(4, 1, np.eye(NUM_ACTIONS)[np.full((1, 4), Action.RIGHT)], env.grid.free_cells())
    trajectory = run_episode(env, right, 0).trajectories[0]
    automaton = valuate(reach_avoid_machine(rewards).weights(trajectory.observations()), discounted_sum(0.9))
    assert automaton == pytest.approx(70.19)
    step_reward = baselines._step_rewards(rewards)
    learners = sum(0.9**t * step_reward[STEP_EVENTS.index(ev)] for t, ev in enumerate(trajectory.events))
    assert learners == pytest.approx(automaton)  # reads 78.29


# ---------------------------------------------------------------------------
# both learners against the planner


OPEN_GRID = empty_grid_with_goal(4, 4, Cell(3, 3))


def greedy_outcomes(policy):
    """Per start of the open 4x4 grid: whether the greedy rollout arrives, and whether in the A* length."""
    starts = sorted(OPEN_GRID.starts)
    lengths = [greedy_rollout_length(policy, OPEN_GRID, s, 16) for s in starts]
    shortest = [len(astar(OPEN_GRID, s)) - 1 for s in starts]
    return [n is not None for n in lengths], [n == want for n, want in zip(lengths, shortest)]


def astar_length_rate(algorithm, params, seeds) -> float:
    """Share of (seed, start) pairs on an open 4x4 grid whose greedy rollout takes the A* length.

    Seed s trains on default_rng([s, 77]); every start is then rolled greedily.
    """
    env_config = EnvConfig(grid=OPEN_GRID, horizon=16)
    hits = []
    for seed in seeds:
        policy = learn(algorithm, env_config, RewardParams.default_for(16), params, np.random.default_rng([seed, 77]))
        assert isinstance(policy, TabularPolicy)
        hits += greedy_outcomes(policy)[1]
    return sum(hits) / len(hits)


# Per learner: training episodes and the least pass rate over seeds 0-19.  Over
# seeds 0-39 Q-learning scored 0.963 and Monte-Carlo 0.708 (0.758 when it stepped
# one episode at a time), with standard errors of a 20-seed mean of 0.012 and
# 0.038; the bounds sit about five and about three of them lower.
ASTAR_RATES = {"qlearning": (2000, 0.90), "montecarlo": (4000, 0.60)}


def test_learners_reach_astar_lengths_on_an_open_grid():
    for algorithm, (episodes, least) in ASTAR_RATES.items():
        rate = astar_length_rate(algorithm, LearnerParams(episodes=episodes), range(20))
        assert rate >= least, (algorithm, rate)


def test_a_learner_without_updates_misses_the_astar_rate():
    # A zero learning rate leaves Q at zero, so the greedy policy always moves up,
    # however many episodes it plays.
    params = LearnerParams(episodes=1, learning_rate=0.0)
    assert astar_length_rate("qlearning", params, range(20)) < ASTAR_RATES["qlearning"][1]


# ---------------------------------------------------------------------------
# both learners against Cell-level reference loops


def reference_steps(env, starts, choose, rng):
    """One episode from the flat start cells through GridEnv.step on the live agents.

    Yields (agents, before, actions, after, events) per step: the live
    agents' indices and one Cell, Action or StepEvent each.  An agent
    placed on a goal is never live, and one that reaches a goal leaves.
    """
    agents = [i for i, c in enumerate(starts) if env.cells[c] not in env.grid.goals]
    before = [env.cells[starts[i]] for i in agents]
    for _ in range(env.config.horizon):
        if not agents:
            return
        actions = [choose(cell) for cell in before]
        after, events = env.step(before, actions, rng)
        yield agents, before, actions, after, events
        kept = [k for k, event in enumerate(events) if event is not StepEvent.REACHED_GOAL]
        agents, before = [agents[k] for k in kept], [after[k] for k in kept]


def reward_table(rewards):
    """Reward of a StepEvent: the collision or plain step weight, plus the goal weight on arrival."""
    plain, collision, bonus = reach_avoid_machine(rewards).weight[SEEKING].tolist()[:3]

    def reward_of(event):
        reward = collision if event in COLLISION_EVENTS else plain
        return reward + bonus if event is StepEvent.REACHED_GOAL else reward

    return reward_of


def reference_episodes(env, params, greedy, rng):
    """params.episodes epsilon-greedy episodes of reference_steps; greedy(cell) is the greedy action."""
    epsilon = params.epsilon_greedy

    def choose(cell):
        if rng.random() < epsilon:
            return Action(int(rng.integers(5)))
        return greedy(cell)

    for _ in range(params.episodes):
        yield reference_steps(env, env.reset(rng), choose, rng)
        epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)


def reference_qlearning_table(env_config, rewards, params, rng):
    """Q-learning as an epsilon-greedy loop over Cells."""
    env = GridEnv(env_config)
    grid = env_config.grid
    reward_of = reward_table(rewards)
    q_learned = np.zeros((grid.height, grid.width, 5))

    def greedy(cell):
        return Action(int(np.argmax(q_learned[cell.y, cell.x])))

    for episode in reference_episodes(env, params, greedy, rng):
        for _, before, actions, after, events in episode:
            for here, action, nxt, event in zip(before, actions, after, events):
                reward = reward_of(event)
                if event is not StepEvent.REACHED_GOAL:
                    reward += rewards.gamma * q_learned[nxt.y, nxt.x].max()
                cell = (here.y, here.x, action)
                q_learned[cell] += params.learning_rate * (reward - q_learned[cell])
    return q_learned


def reference_monte_carlo_table(env_config, rewards, params, rng):
    """First-visit Monte-Carlo control as an epsilon-greedy loop over Cells, credited by the oracle.

    Q is frozen within each batch of mc_batch episodes, as in the library,
    but every action is drawn one agent-step at a time.
    """
    env = GridEnv(env_config)
    grid = env_config.grid
    reward_of = reward_table(rewards)
    size = grid.width * grid.height * 5
    sums, counts, q = [0.0] * size, [0] * size, [0.0] * size

    def greedy(cell):
        first = (cell.y * grid.width + cell.x) * 5
        row = q[first:first + 5]
        return Action(row.index(max(row)))

    for done, episode in enumerate(reference_episodes(env, params, greedy, rng), 1):
        steps = [[] for _ in range(env_config.num_agents)]
        for agents, before, actions, _, events in episode:
            for i, here, action, event in zip(agents, before, actions, events):
                slot = (here.y * grid.width + here.x) * 5 + action
                steps[i].append((slot, reward_of(event)))
        first_visit_credit(steps, rewards.gamma, sums, counts)
        if done % params.mc_batch == 0 or done == params.episodes:
            q = [total / n if n else 0.0 for total, n in zip(sums, counts)]
    return np.array(q).reshape(grid.height, grid.width, 5)


def assert_monte_carlo_credits_like_the_oracle(monkeypatch, env_config, rewards, params, rng):
    """Run monte_carlo_table, then credit the very batches it rolled with the scalar oracle.

    Each batch must be rolled under the one-hot greedy table of the
    oracle's Q and the per-episode epsilons of the scalar schedule, and
    the library's sums, counts and Q must equal the oracle's exactly.
    Returns the rolled batches.
    """
    rolled_batches, tables = [], []

    def recording_roll_batch(env, cumulative, seeds, mix):
        rolled = roll_batch(env, cumulative, seeds, mix)
        rolled_batches.append((cumulative, mix, rolled))
        return rolled

    def recording_credit(rolled, step_reward, gamma, sums, counts):
        credit_first_visits(rolled, step_reward, gamma, sums, counts)
        tables.append((sums, counts))

    monkeypatch.setattr(baselines, "roll_batch", recording_roll_batch)
    monkeypatch.setattr(baselines, "credit_first_visits", recording_credit)
    got_q = monte_carlo_table(env_config, rewards, params, rng)

    grid = env_config.grid
    reward_of = reward_table(rewards)
    size = grid.width * grid.height * 5
    sums, counts, q = [0.0] * size, [0] * size, [0.0] * size
    epsilon, epsilons = params.epsilon_greedy, []
    for _ in range(params.episodes):
        epsilons.append(epsilon)
        epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)
    done = 0
    for cumulative, mix, rolled in rolled_batches:
        greedy = [row.index(max(row)) for row in np.reshape(q, (-1, 5)).tolist()]
        assert np.array_equal(cumulative, [[float(a >= g) for a in range(5)] for g in greedy])
        assert mix.tolist() == epsilons[done:done + params.mc_batch]
        done += len(mix)
        span = rolled.actions.shape[2]
        trajectories = [
            [(c * 5 + a, reward_of(STEP_EVENTS[e])) for c, a, e in zip(cells[:n], acts[:n], evs[:n])]
            for cells, acts, evs, n in zip(
                rolled.cells[:, :, :span].reshape(-1, span).tolist(),
                rolled.actions.reshape(-1, span).tolist(),
                rolled.events.reshape(-1, span).tolist(),
                rolled.lengths.reshape(-1).tolist(),
            )
        ]
        for slot in first_visit_credit(trajectories, rewards.gamma, sums, counts):
            q[slot] = sums[slot] / counts[slot]
    assert done == params.episodes
    got_sums, got_counts = tables[-1]
    assert np.array_equal(got_sums, sums)
    assert np.array_equal(got_counts, counts)
    assert np.array_equal(got_q.reshape(-1), q)
    assert np.any(got_q != 0.0)
    return [rolled for _, _, rolled in rolled_batches]


@pytest.mark.parametrize("num_agents, slip", [(2, 0.0), (4, 0.2)])
def test_learners_equal_the_cell_level_reference_loops(monkeypatch, num_agents, slip):
    grid = generate_map(8, 6, 0.15, np.random.default_rng([num_agents, 86]))
    env_config = EnvConfig(grid=grid, num_agents=num_agents, slip_probability=slip)
    rewards = RewardParams.default_for(env_config.horizon)
    # 200 episodes in batches of 30: the last Monte-Carlo batch is short.
    params = LearnerParams(episodes=200, mc_batch=30, epsilon_greedy=0.5, epsilon_decay=0.99)
    want_q = reference_qlearning_table(env_config, rewards, params, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    got_q = qlearning_table(env_config, rewards, params, rng)
    assert np.array_equal(got_q, want_q)
    assert np.any(want_q != 0.0)
    # Monte-Carlo rolls each batch at once, so its draws differ from the Cell-level
    # loop; the oracle credits the very rollouts the library rolled instead.
    assert len(assert_monte_carlo_credits_like_the_oracle(monkeypatch, env_config, rewards, params, rng)) == 7


def test_monte_carlo_credits_agents_placed_on_goals_like_the_oracle(monkeypatch):
    # Every free cell is a start, goals included, so some agents are done at t = 0.
    grid = parse_map("..G.\n.#..\nG...\n")
    grid = GridMap(grid.width, grid.height, grid.obstacles, grid.goals, grid.starts | grid.goals)
    env_config = EnvConfig(grid=grid, num_agents=4, slip_probability=0.2)
    rewards = RewardParams.default_for(env_config.horizon)
    params = LearnerParams(episodes=45, mc_batch=20, epsilon_greedy=0.9, epsilon_decay=0.9, epsilon_min=0.3)
    batches = assert_monte_carlo_credits_like_the_oracle(
        monkeypatch, env_config, rewards, params, np.random.default_rng(4)
    )
    assert [len(rolled.steps) for rolled in batches] == [20, 20, 5]
    assert any(((rolled.lengths == 0) & rolled.reached).any() for rolled in batches)


def test_batched_monte_carlo_learns_like_the_scalar_oracle():
    """Batched and Cell-level Monte-Carlo, seeds 0-39 at 1000 episodes on the open 4x4 grid.

    Per seed, the shares of starts whose greedy rollout arrives and takes
    the A* length; their means must agree within 4 standard errors of the
    difference.  Over seeds 200-599 the two gave 0.610 and 0.606 arrival,
    0.584 and 0.579 A* length, with standard errors of about 0.009.
    """
    env_config = EnvConfig(grid=OPEN_GRID, horizon=16)
    rewards = RewardParams.default_for(16)
    params = LearnerParams(episodes=1000)
    shares = []
    for table in (monte_carlo_table, reference_monte_carlo_table):
        per_seed = []
        for seed in range(40):
            q = table(env_config, rewards, params, np.random.default_rng([seed, 77]))
            policy = TabularPolicy(4, 4, q, OPEN_GRID.free_cells()).greedy()
            per_seed.append(np.mean(greedy_outcomes(policy), axis=1))
        shares.append(np.array(per_seed))
    batched, oracle = shares
    difference = batched.mean(axis=0) - oracle.mean(axis=0)
    error = np.sqrt(batched.var(axis=0, ddof=1) / 40 + oracle.var(axis=0, ddof=1) / 40)
    assert np.all(np.abs(difference) <= 4 * error), (difference, error)
    assert np.all(oracle.mean(axis=0) > 0.4)
