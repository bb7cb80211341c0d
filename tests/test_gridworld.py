"""Grid, map parsing, and joint-step dynamics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf.gridworld import (
    ACTION_DELTAS,
    STEP_EVENTS,
    Action,
    AgentStatus,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    MapParseError,
    StepEvent,
    _resolve_conflicts,
    default_horizon,
    format_map,
    parse_map,
    run_episode,
)

from oracles import SWAP_CODE, VERTEX_CODE, bfs_path_length, resolve_conflicts_pairwise, resolve_joint_move


class ConstantPolicy:
    def __init__(self, action: Action):
        self.action = action

    def sample_actions(self, cells, rng):
        return [self.action] * len(cells)


class RandomPolicy:
    def sample_actions(self, cells, rng):
        return [Action(int(rng.integers(5))) for _ in cells]


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
    obstacles = {(c.x, c.y) for c in grid.obstacles}
    for cell in grid.free_cells():
        index = env.index(cell)
        assert env.cells[index] == cell
        for action in Action:
            (want,), (outcome,) = resolve_joint_move(
                grid.width, grid.height, obstacles, [cell], [action.name.lower()]
            )
            assert env.cells[env.move_target[index, action]] == Cell(*want)
            assert env.move_blocked[index, action] == (outcome == "blocked")


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


@st.composite
def joint_moves(draw):
    """A mostly open map of up to 4x4, 1-6 agents on distinct free cells, one action each."""
    width = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(st.sampled_from("...#")) for _ in range(width)] for _ in range(height)]
    rows[draw(st.integers(0, height - 1))][draw(st.integers(0, width - 1))] = "G"
    grid = parse_map("\n".join("".join(r) for r in rows) + "\n")
    free = grid.free_cells()
    n = draw(st.integers(min_value=1, max_value=min(6, len(free), len(grid.starts))))
    cells = draw(st.permutations(free))[:n]
    actions = draw(st.lists(st.sampled_from(list(Action)), min_size=n, max_size=n))
    return grid, cells, actions


@given(case=joint_moves())
@settings(max_examples=300, deadline=None)
def test_step_matches_joint_resolution_oracle_on_random_maps(case):
    grid, cells, actions = case
    env = GridEnv(EnvConfig(grid=grid, num_agents=len(cells)))
    state = tuple(AgentStatus(c) for c in cells)
    new_state, events = env.step(state, actions, np.random.default_rng(0))
    want_pos, outcomes = resolve_joint_move(
        grid.width,
        grid.height,
        {(c.x, c.y) for c in grid.obstacles},
        [(c.x, c.y) for c in cells],
        [a.name.lower() for a in actions],
    )
    for i, (after, event, outcome) in enumerate(zip(new_state, events, outcomes)):
        assert after.cell == Cell(*want_pos[i]), i
        if after.cell in grid.goals:
            assert event == StepEvent.REACHED_GOAL and after.reached and not after.active
            continue
        assert after.active and not after.reached
        if outcome == "moved":
            assert event == StepEvent.MOVED
        elif outcome == "blocked":
            assert event == StepEvent.BLOCKED_BY_OBSTACLE
        else:
            assert event in (StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT)


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
# the batched conflict kernel against the pairwise rounds

MOVED, BLOCKED, INACTIVE = (
    STEP_EVENTS.index(e) for e in (StepEvent.MOVED, StepEvent.BLOCKED_BY_OBSTACLE, StepEvent.INACTIVE)
)


def test_oracle_event_codes_are_the_step_event_positions():
    assert STEP_EVENTS[VERTEX_CODE] == StepEvent.VERTEX_CONFLICT
    assert STEP_EVENTS[SWAP_CODE] == StepEvent.SWAP_CONFLICT


def assert_kernel_matches_pairwise_rounds(pre, final, active, events, num_cells, dtype):
    """_resolve_conflicts on the active agents equals resolve_conflicts_pairwise on the (B, N) arrays."""
    want_events = events.copy()
    want = resolve_conflicts_pairwise(pre, final, active, want_events)
    episode, agent = np.nonzero(active)
    owner = np.full(pre.shape[0] * num_cells, -1, dtype=dtype)
    got_events = events[episode, agent]
    got = _resolve_conflicts(owner, episode * num_cells, pre[episode, agent], final[episode, agent], got_events)
    assert np.array_equal(got, want[episode, agent])
    assert np.array_equal(got_events, want_events[episode, agent])
    assert (owner == -1).all()


@st.composite
def crowded_moves(draw):
    """(episodes, agents) states on small cell sets: active agents on distinct cells, each
    moving to a random cell or onto another agent's cell, staying, or blocked; inactive
    agents stay anywhere."""
    batch = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=25))
    num_cells = n + draw(st.integers(min_value=0, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pre = np.array([rng.permutation(num_cells)[:n] for _ in range(batch)])
    active = rng.random((batch, n)) < draw(st.sampled_from([1.0, 0.8, 0.4]))
    pre[~active] = rng.integers(num_cells, size=(~active).sum())
    kind = rng.choice(4, size=(batch, n), p=draw(st.sampled_from([(0.4, 0.4, 0.1, 0.1), (0.1, 0.7, 0.1, 0.1)])))
    onto = pre[np.arange(batch)[:, None], rng.integers(n, size=(batch, n))]
    final = np.select([kind == 0, kind == 1], [rng.integers(num_cells, size=(batch, n)), onto], pre)
    final[~active] = pre[~active]
    events = np.where(kind == 3, BLOCKED, MOVED)
    events[~active] = INACTIVE
    dtype = draw(st.sampled_from([np.int16, np.intp]))
    return pre, final, active, events, num_cells, dtype


@given(case=crowded_moves())
@settings(max_examples=300, deadline=None)
def test_conflict_kernel_matches_the_pairwise_rounds(case):
    assert_kernel_matches_pairwise_rounds(*case)


def assert_advance_matches_pairwise_rounds(pre, final, active, events, num_cells):
    """GridEnv.advance, one episode at a time, equals resolve_conflicts_pairwise: same cells and event codes.

    The env is a strip of num_cells free cells plus a goal no move
    reaches; its fused move table is rewritten so that action UP takes each
    live agent from pre to final with its MOVED or BLOCKED event.
    """
    want_events = events.copy()
    want = resolve_conflicts_pairwise(pre, final, active, want_events)
    env = GridEnv(EnvConfig(grid=parse_map("." * num_cells + "G\n")))
    for b in range(len(pre)):
        live = np.flatnonzero(active[b])
        for i in live:
            env._move[pre[b, i]][Action.UP] = (int(final[b, i]), int(events[b, i]))
        got, got_events = env.advance(pre[b, live].tolist(), [Action.UP] * len(live), np.random.default_rng(0))
        assert got == want[b, live].tolist()
        assert got_events == want_events[b, live].tolist()


@given(case=crowded_moves())
@settings(max_examples=300, deadline=None)
def test_advance_matches_the_pairwise_rounds(case):
    pre, final, active, events, num_cells, _ = case
    assert_advance_matches_pairwise_rounds(pre, final, active, events, num_cells)


@pytest.mark.parametrize(
    "pre, final, want_final, want_events",
    [
        # Three movers queue behind an agent that stays: each revert uncovers the next.
        ([0, 1, 2, 3], [1, 2, 3, 3], [0, 1, 2, 3], ["v", "v", "v", "v"]),
        # A swap whose second mover also meets a third agent: vertex comes first for it.
        ([0, 1, 2], [1, 0, 0], [0, 1, 2], ["s", "v", "v"]),
        # A stayer under a swap pair: no conflict of its own.
        ([0, 1, 5], [1, 0, 5], [0, 1, 5], ["s", "s", "m"]),
    ],
    ids=["queue", "swap-and-vertex", "swap-beside-stayer"],
)
def test_conflict_kernel_on_hand_made_cases(pre, final, want_final, want_events):
    codes = {"v": VERTEX_CODE, "s": SWAP_CODE, "m": MOVED}
    pre, final = np.array([pre]), np.array([final])
    active = np.ones(pre.shape, dtype=bool)
    events = np.full(pre.shape, MOVED)
    assert_kernel_matches_pairwise_rounds(pre, final, active, events, 6, np.intp)
    assert_advance_matches_pairwise_rounds(pre, final, active, events, 6)
    got = resolve_conflicts_pairwise(pre, final, active, events)
    assert got.tolist() == [want_final]
    assert events.tolist() == [[codes[e] for e in want_events]]


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


def reference_rollout(env, sample, rng):
    """run_episode's reference over Cells: reset, then per step one sample(cell, rng) per active agent and
    GridEnv.step.  Returns the step count and each agent's (cells, actions, events, reached)."""
    state = tuple(AgentStatus(st.cell, True, False) if st.cell in env.grid.goals else st for st in env.reset(rng))
    record = [([st.cell], [], []) for st in state]
    steps = 0
    while steps < env.config.horizon and any(st.active for st in state):
        actions = [sample(st.cell, rng) if st.active else Action.STAY for st in state]
        after, events = env.step(state, actions, rng)
        for (cells, acts, evs), st, new, action, event in zip(record, state, after, actions, events):
            if st.active:
                cells.append(new.cell)
                acts.append(action)
                evs.append(event)
        state, steps = after, steps + 1
    return steps, [(*r, st.reached) for r, st in zip(record, state)]


@pytest.mark.parametrize("sampler", ["sample_action", "scalar_inverse_cdf"])
@pytest.mark.parametrize("slip", [0.0, 0.2])
@pytest.mark.parametrize("num_agents", [1, 4, 25])
def test_run_episode_equals_the_cell_level_loop(num_agents, slip, sampler):
    """One block of uniforms per step takes exactly the per-agent draws, and leaves the generator alike.

    The per-agent draw is TabularPolicy.sample_action, or one scalar
    rng.random() inverted through the cell's cumulative row.
    """
    from evomapf.bench import generate_map
    from evomapf.egt import TabularPolicy

    grid = generate_map(20, 20, 0.1, np.random.default_rng([7, 20]))
    env = GridEnv(EnvConfig(grid=grid, num_agents=num_agents, horizon=80, slip_probability=slip))
    probs = np.random.default_rng(num_agents).dirichlet(np.full(5, 0.5), size=(grid.height, grid.width))
    policy = TabularPolicy(grid.width, grid.height, probs, grid.free_cells())
    cumulative = policy.cumulative()

    def scalar_inverse_cdf(cell, rng):
        return Action(min(int(np.searchsorted(cumulative[cell.y, cell.x], rng.random(), side="right")), 4))

    sample = policy.sample_action if sampler == "sample_action" else scalar_inverse_cdf
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    conflicts = 0
    for _ in range(6):
        rollout = run_episode(env, policy, got_rng)
        steps, want = reference_rollout(env, sample, want_rng)
        assert rollout.steps == steps
        assert [(t.cells, t.actions, t.events, t.reached) for t in rollout.trajectories] == want
        conflicts += sum(ev in (StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT) for t in rollout.trajectories
                         for ev in t.events)
    assert got_rng.random() == want_rng.random()
    assert conflicts > 0 or num_agents == 1
