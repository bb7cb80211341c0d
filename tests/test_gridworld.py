"""Grid, map parsing, and joint-step dynamics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf.gridworld import (
    ACTION_DELTAS,
    Action,
    AgentStatus,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    MapParseError,
    StepEvent,
    default_horizon,
    format_map,
    parse_map,
    run_episode,
)

from oracles import bfs_path_length, resolve_joint_move


class ConstantPolicy:
    def __init__(self, action: Action):
        self.action = action

    def sample_action(self, cell, rng):
        return self.action


class RandomPolicy:
    def sample_action(self, cell, rng):
        return Action(int(rng.integers(5)))


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_map_basic_layout():
    grid = parse_map("..G\n.#.\nS..\n")
    assert (grid.width, grid.height) == (3, 3)
    assert grid.obstacles == frozenset({Cell(1, 1)})
    assert grid.goals == frozenset({Cell(2, 0)})
    assert grid.starts == frozenset({Cell(0, 2)})


def test_parse_map_implicit_starts_are_free_non_goal_cells():
    grid = parse_map("#G\n#.\n")
    assert grid.obstacles == frozenset({Cell(0, 0), Cell(0, 1)})
    assert grid.starts == frozenset({Cell(1, 1)})


def test_parse_map_single_goal_cell_starts_on_goal():
    grid = parse_map("G\n")
    assert grid.goals == frozenset({Cell(0, 0)})
    assert grid.starts == grid.goals


def test_parse_map_ragged_rows_rejected():
    with pytest.raises(MapParseError, match="row 1: expected 2 characters, got 3"):
        parse_map("..\n...\n")


def test_parse_map_unknown_character_rejected():
    with pytest.raises(MapParseError, match="row 0, column 2: unknown character 'X'"):
        parse_map("..X\nG..\n")


def test_parse_map_requires_a_goal():
    with pytest.raises(MapParseError, match="no goal cell"):
        parse_map("...\n...\n")


def test_format_map_round_trips_explicit_starts():
    text = "..G\n.#.\nS..\n"
    grid = parse_map(text)
    assert format_map(grid) == text
    assert parse_map(format_map(grid)) == grid


@st.composite
def map_texts(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    height = draw(st.integers(min_value=1, max_value=5))
    rows = [
        [draw(st.sampled_from(".#G")) for _ in range(width)] for _ in range(height)
    ]
    gx = draw(st.integers(min_value=0, max_value=width - 1))
    gy = draw(st.integers(min_value=0, max_value=height - 1))
    rows[gy][gx] = "G"
    return "\n".join("".join(r) for r in rows) + "\n"


@given(text=map_texts())
@settings(max_examples=100)
def test_parse_format_round_trip(text):
    grid = parse_map(text)
    assert parse_map(format_map(grid)) == grid
    assert grid.starts
    assert not (grid.starts & grid.obstacles)
    assert not (grid.goals & grid.obstacles)


# ---------------------------------------------------------------------------
# configuration


def test_default_horizon_is_twice_the_perimeter_sum():
    assert default_horizon(parse_map("G\n")) == 4
    assert default_horizon(parse_map("..G\n...\n")) == 10


def test_env_config_zero_horizon_takes_default():
    grid = parse_map("..G\n...\n")
    assert EnvConfig(grid=grid).horizon == 10
    assert EnvConfig(grid=grid, horizon=7).horizon == 7


def test_env_config_rejects_too_many_agents():
    grid = parse_map("#G\n#.\n")
    with pytest.raises(ConfigError, match="num_agents=2 exceeds the 1 available"):
        EnvConfig(grid=grid, num_agents=2)


def test_env_config_rejects_bad_slip():
    grid = parse_map("G.\n")
    with pytest.raises(ConfigError, match="slip_probability"):
        EnvConfig(grid=grid, slip_probability=1.5)


# ---------------------------------------------------------------------------
# reset


def test_reset_places_distinct_agents_on_start_cells():
    grid = parse_map("...G\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=3))
    state = env.reset(np.random.default_rng(11))
    cells = [st_.cell for st_ in state]
    assert len(set(cells)) == 3
    assert all(c in grid.starts for c in cells)


def test_reset_is_deterministic_in_the_seed():
    grid = parse_map("...G\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=2))
    a = env.reset(np.random.default_rng(5))
    b = env.reset(np.random.default_rng(5))
    assert a == b


def test_move_tables_agree_with_single_agent_steps():
    grid = parse_map("..#G\n.#..\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    assert env.start_cells == sorted(grid.starts)
    assert [env.cells[i] for i in np.flatnonzero(env.goal_mask)] == sorted(grid.goals, key=lambda c: (c.y, c.x))
    # Active agents never stand on a goal: they despawn on arrival.
    for cell in set(grid.free_cells()) - grid.goals:
        index = cell.y * grid.width + cell.x
        assert env.cells[index] == cell
        for action in Action:
            (after,), (event,) = env.step((AgentStatus(cell),), [action], np.random.default_rng(0))
            assert env.cells[env.move_target[index, action]] == after.cell
            assert env.move_blocked[index, action] == (event is StepEvent.BLOCKED_BY_OBSTACLE)


# ---------------------------------------------------------------------------
# single steps


def _two_agent_env():
    grid = parse_map("...\n..G\n")
    return GridEnv(EnvConfig(grid=grid, num_agents=2))


def test_step_head_on_meeting_is_a_vertex_conflict():
    env = _two_agent_env()
    state = (AgentStatus(Cell(0, 0)), AgentStatus(Cell(2, 0)))
    new_state, events = env.step(state, [Action.RIGHT, Action.LEFT], np.random.default_rng(0))
    assert events == [StepEvent.VERTEX_CONFLICT, StepEvent.VERTEX_CONFLICT]
    assert [s.cell for s in new_state] == [Cell(0, 0), Cell(2, 0)]


def test_step_cell_exchange_is_a_swap_conflict():
    env = _two_agent_env()
    state = (AgentStatus(Cell(0, 0)), AgentStatus(Cell(1, 0)))
    new_state, events = env.step(state, [Action.RIGHT, Action.LEFT], np.random.default_rng(0))
    assert events == [StepEvent.SWAP_CONFLICT, StepEvent.SWAP_CONFLICT]
    assert [s.cell for s in new_state] == [Cell(0, 0), Cell(1, 0)]


def test_step_off_grid_blocks_in_place():
    env = _two_agent_env()
    state = (AgentStatus(Cell(0, 0)), AgentStatus(Cell(2, 0)))
    new_state, events = env.step(state, [Action.UP, Action.STAY], np.random.default_rng(0))
    assert events == [StepEvent.BLOCKED_BY_OBSTACLE, StepEvent.MOVED]
    assert new_state[0].cell == Cell(0, 0)


def test_step_into_obstacle_blocks_in_place():
    grid = parse_map(".#G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    state = (AgentStatus(Cell(0, 0)),)
    _, events = env.step(state, [Action.RIGHT], np.random.default_rng(0))
    assert events == [StepEvent.BLOCKED_BY_OBSTACLE]


def test_step_arrival_emits_reached_goal_and_despawns():
    env = _two_agent_env()
    state = (AgentStatus(Cell(2, 0)), AgentStatus(Cell(0, 0)))
    new_state, events = env.step(state, [Action.DOWN, Action.STAY], np.random.default_rng(0))
    assert events[0] == StepEvent.REACHED_GOAL
    assert new_state[0].reached and not new_state[0].active
    # A despawned agent no longer moves or collides.
    _, events = env.step(new_state, [Action.LEFT, Action.RIGHT], np.random.default_rng(0))
    assert events[0] == StepEvent.INACTIVE


def test_step_rejects_mismatched_state_length():
    env = _two_agent_env()
    with pytest.raises(ConfigError, match="expected 2 agents"):
        env.step((AgentStatus(Cell(0, 0)),), [Action.STAY], np.random.default_rng(0))


def test_step_matches_joint_resolution_oracle_for_all_joint_actions():
    """Every one of the 25 deterministic joint actions of two facing agents."""
    env = _two_agent_env()
    grid = env.grid
    positions = [(0, 0), (2, 0)]
    names = {
        Action.UP: "up",
        Action.DOWN: "down",
        Action.LEFT: "left",
        Action.RIGHT: "right",
        Action.STAY: "stay",
    }
    for a0, a1 in itertools.product(list(Action), repeat=2):
        state = tuple(AgentStatus(Cell(*p)) for p in positions)
        new_state, events = env.step(state, [a0, a1], np.random.default_rng(0))
        want_pos, outcomes = resolve_joint_move(
            grid.width, grid.height, set(), positions, [names[a0], names[a1]]
        )
        for i in range(2):
            if new_state[i].reached:
                assert Cell(*want_pos[i]) in grid.goals
                assert events[i] == StepEvent.REACHED_GOAL
                continue
            assert new_state[i].cell == Cell(*want_pos[i]), (a0, a1, i)
            if outcomes[i] == "moved":
                assert events[i] == StepEvent.MOVED
            elif outcomes[i] == "blocked":
                assert events[i] == StepEvent.BLOCKED_BY_OBSTACLE
            else:
                assert events[i] in (StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT)


def test_slip_replaces_the_chosen_action_with_a_random_move():
    grid = parse_map(".....\n.....\n....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, slip_probability=1.0))
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(200):
        state = (AgentStatus(Cell(2, 1)),)
        new_state, _ = env.step(state, [Action.STAY], rng)
        seen.add(new_state[0].cell)
    # Stay was always replaced, and every neighbour shows up.
    assert Cell(2, 1) not in seen
    assert seen == {Cell(2, 0), Cell(2, 2), Cell(1, 1), Cell(3, 1)}


def test_zero_slip_is_deterministic():
    grid = parse_map(".....\n....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    state = (AgentStatus(Cell(2, 0)),)
    for seed in range(5):
        new_state, _ = env.step(state, [Action.RIGHT], np.random.default_rng(seed))
        assert new_state[0].cell == Cell(3, 0)


# ---------------------------------------------------------------------------
# episodes


def test_run_episode_straight_line_arrival():
    grid = parse_map("....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=10))
    rollout = run_episode(
        env,
        ConstantPolicy(Action.RIGHT),
        np.random.default_rng(0),
        initial_state=(AgentStatus(Cell(0, 0)),),
    )
    traj = rollout.trajectories[0]
    assert traj.reached
    assert traj.arrival_time == 4
    assert traj.cells == [Cell(x, 0) for x in range(5)]
    assert traj.observations() == [(False, False)] * 4 + [(True, False)]
    assert rollout.all_reached


def test_run_episode_settles_agents_that_start_on_a_goal():
    grid = parse_map("G....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=10))
    rollout = run_episode(
        env,
        ConstantPolicy(Action.RIGHT),
        np.random.default_rng(0),
        initial_state=(AgentStatus(Cell(0, 0)),),
    )
    traj = rollout.trajectories[0]
    assert traj.reached and traj.arrival_time == 0
    assert traj.cells == [Cell(0, 0)]
    assert traj.actions == [] and traj.events == []
    assert traj.observations() == [(True, False)]


def test_run_episode_timeout_emits_one_observation_per_step():
    grid = parse_map(".....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=3))
    rollout = run_episode(
        env,
        ConstantPolicy(Action.STAY),
        np.random.default_rng(0),
        initial_state=(AgentStatus(Cell(0, 0)),),
    )
    traj = rollout.trajectories[0]
    assert not traj.reached and traj.arrival_time is None
    assert len(traj.observations()) == 3
    assert traj.observations() == [(False, False)] * 3


def test_run_episode_invariants_under_random_play():
    grid = parse_map("......\n.#..#.\n...#.G\n......\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=3, horizon=25))
    policy = RandomPolicy()
    for seed in range(20):
        rollout = run_episode(env, policy, np.random.default_rng(seed))
        assert rollout.steps <= 25
        longest = max(len(t.cells) for t in rollout.trajectories)
        for traj in rollout.trajectories:
            assert traj.cells[0] in grid.starts
            assert all(c not in grid.obstacles for c in traj.cells)
            assert len(traj.actions) == len(traj.events) == len(traj.cells) - 1
            if traj.reached:
                assert traj.cells[-1] in grid.goals
            for here, there in zip(traj.cells, traj.cells[1:]):
                assert abs(here.x - there.x) + abs(here.y - there.y) <= 1
        for t in range(longest):
            occupied = [tr.cells[t] for tr in rollout.trajectories if t < len(tr.cells)]
            assert len(occupied) == len(set(occupied))


def test_everyone_eventually_arrives_on_an_open_map():
    grid = parse_map("....\n...G\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=2, horizon=300))
    reached = 0
    for seed in range(10):
        rollout = run_episode(env, RandomPolicy(), np.random.default_rng(seed))
        reached += sum(t.reached for t in rollout.trajectories)
    assert reached >= 18  # random walks on a 4x3 board rarely need 300 steps


def test_shortest_paths_exist_where_bfs_says_so():
    grid = parse_map("......\n.####.\n....#.\nG...#.\n......\n")
    for start in sorted(grid.starts):
        length = bfs_path_length(
            grid.width,
            grid.height,
            {(c.x, c.y) for c in grid.obstacles},
            (start.x, start.y),
            {(g.x, g.y) for g in grid.goals},
        )
        assert length is not None  # the layout is connected by construction
        assert length <= grid.width * grid.height


def test_uniform_policy_timeout_rate_regression():
    # Pinned behaviour of the full stack (map generation, reset, stepping)
    # under a fixed seed; a change here means the dynamics changed.
    from evomapf.bench import generate_map
    from evomapf.egt import TabularPolicy

    grid = generate_map(20, 20, 0.1, np.random.default_rng([7, 20]))
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=80))
    policy = TabularPolicy.uniform(grid)
    rng = np.random.default_rng(2024)
    reached = sum(int(run_episode(env, policy, rng).all_reached) for _ in range(200))
    assert reached == 21
