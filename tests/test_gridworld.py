"""Grid, map parsing, and joint-step dynamics."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf.gridworld import (
    ACTION_DELTAS,
    STEP_EVENTS,
    Action,
    Cell,
    ConfigError,
    EnvConfig,
    GridEnv,
    MapParseError,
    StepEvent,
    _resolve_conflicts,
    default_horizon,
    draw_batch,
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
    cells = [env.cells[c] for c in env.reset(np.random.default_rng(11))]
    assert len(set(cells)) == 3
    assert all(c in grid.starts for c in cells)


def test_reset_is_deterministic_in_the_seed():
    grid = parse_map("...G\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=2))
    a = env.reset(np.random.default_rng(5))
    b = env.reset(np.random.default_rng(5))
    assert a == b


@pytest.mark.parametrize("num_agents", [1, 2, 5])
def test_reset_draws_sorted_starts_without_replacement(num_agents):
    """reset's draw, rebuilt from the grid: every seeded episode starts from these cells."""
    from evomapf.bench import generate_map

    grids = [
        parse_map("...G\n....\n"),
        parse_map("S.#G\n.S..\nS..S\n#S..\n"),
        generate_map(12, 9, 0.2, np.random.default_rng([3, 12])),
        generate_map(20, 20, 0.1, np.random.default_rng([7, 20])),
    ]
    for grid in grids:
        env = GridEnv(EnvConfig(grid=grid, num_agents=num_agents))
        starts = sorted(grid.starts)
        for seed in range(6):
            picks = np.random.default_rng(seed).choice(len(starts), num_agents, replace=False)
            want = [starts[i].y * grid.width + starts[i].x for i in picks]
            assert env.reset(np.random.default_rng(seed)) == want


@pytest.mark.parametrize("slip", [0.0, 0.3])
def test_draw_batch_draws_keys_then_uniforms_then_slips(slip):
    """Starts rank one key per start cell; then come the uniforms, and at slip > 0 the slip uniforms and moves."""
    grid = parse_map("S.#G\n.S..\nS..S\n#S..\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=3, horizon=7, slip_probability=slip))
    draws = draw_batch(env, 9, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    keys = rng.random((9, len(env.start_index)))
    assert np.array_equal(draws.starts, env.start_index[np.argsort(keys, axis=1)[:, :3]])
    assert np.array_equal(draws.uniforms, rng.random((9, 21)))
    if slip == 0.0:
        assert draws.slip_uniforms is None and draws.slip_moves is None
    else:
        assert np.array_equal(draws.slip_uniforms, rng.random((9, 21)))
        assert np.array_equal(draws.slip_moves, rng.integers(4, size=(9, 21)))


CHI2_11_UPPER = 31.26  # upper 0.1% point of the chi-square distribution with 11 degrees of freedom


def test_draw_batch_starts_are_uniform_over_ordered_distinct_tuples():
    """Two agents on four start cells: the 12 ordered tuples of 24,000 episodes pass a chi-square test."""
    env = GridEnv(EnvConfig(grid=parse_map("SSSSG\n"), num_agents=2))
    counts = Counter(map(tuple, draw_batch(env, 24_000, np.random.default_rng(26)).starts.tolist()))
    assert set(counts) == set(itertools.permutations(range(4), 2))
    expected = 24_000 / 12
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < CHI2_11_UPPER, chi2


def test_draw_batch_rows_are_distinct_when_every_start_is_taken():
    env = GridEnv(EnvConfig(grid=parse_map("SSSSG\n"), num_agents=4))
    starts = draw_batch(env, 500, np.random.default_rng(4)).starts
    assert (np.sort(starts, axis=1) == env.start_index).all()
    assert len(set(map(tuple, starts.tolist()))) == 24


def test_move_tables_agree_with_single_agent_steps():
    grid = parse_map("..#G\n.#..\n....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    assert [env.cells[c] for c in env.start_index] == sorted(grid.starts)
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
    cells, events = env.step([Cell(0, 0), Cell(2, 0)], [Action.RIGHT, Action.LEFT], np.random.default_rng(0))
    assert events == [StepEvent.VERTEX_CONFLICT, StepEvent.VERTEX_CONFLICT]
    assert cells == [Cell(0, 0), Cell(2, 0)]


def test_step_cell_exchange_is_a_swap_conflict():
    env = _two_agent_env()
    cells, events = env.step([Cell(0, 0), Cell(1, 0)], [Action.RIGHT, Action.LEFT], np.random.default_rng(0))
    assert events == [StepEvent.SWAP_CONFLICT, StepEvent.SWAP_CONFLICT]
    assert cells == [Cell(0, 0), Cell(1, 0)]


def test_step_off_grid_blocks_in_place():
    env = _two_agent_env()
    cells, events = env.step([Cell(0, 0), Cell(2, 0)], [Action.UP, Action.STAY], np.random.default_rng(0))
    assert events == [StepEvent.BLOCKED_BY_OBSTACLE, StepEvent.MOVED]
    assert cells[0] == Cell(0, 0)


def test_step_into_obstacle_blocks_in_place():
    grid = parse_map(".#G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    _, events = env.step([Cell(0, 0)], [Action.RIGHT], np.random.default_rng(0))
    assert events == [StepEvent.BLOCKED_BY_OBSTACLE]


def test_step_arrival_emits_reached_goal():
    env = _two_agent_env()
    cells, events = env.step([Cell(2, 0), Cell(0, 0)], [Action.DOWN, Action.STAY], np.random.default_rng(0))
    assert events == [StepEvent.REACHED_GOAL, StepEvent.MOVED]
    assert cells == [Cell(2, 1), Cell(0, 0)]


def test_step_rejects_mismatched_state_length():
    env = _two_agent_env()
    with pytest.raises(ConfigError, match="expected one action for each of at most 2 agents"):
        env.step([Cell(0, 0), Cell(2, 0)], [Action.STAY], np.random.default_rng(0))
    with pytest.raises(ConfigError, match="got cells=3 actions=3"):
        env.step([Cell(0, 0), Cell(1, 0), Cell(2, 0)], [Action.STAY] * 3, np.random.default_rng(0))


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
        cells, events = env.step([Cell(*p) for p in positions], [a0, a1], np.random.default_rng(0))
        want_pos, outcomes = resolve_joint_move(
            grid.width, grid.height, set(), positions, [names[a0], names[a1]]
        )
        for i in range(2):
            assert cells[i] == Cell(*want_pos[i]), (a0, a1, i)
            if cells[i] in grid.goals:
                assert events[i] == StepEvent.REACHED_GOAL
                continue
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
    new_cells, events = env.step(cells, actions, np.random.default_rng(0))
    want_pos, outcomes = resolve_joint_move(
        grid.width,
        grid.height,
        {(c.x, c.y) for c in grid.obstacles},
        [(c.x, c.y) for c in cells],
        [a.name.lower() for a in actions],
    )
    for i, (after, event, outcome) in enumerate(zip(new_cells, events, outcomes)):
        assert after == Cell(*want_pos[i]), i
        if after in grid.goals:
            assert event == StepEvent.REACHED_GOAL
            continue
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
        (cell,), _ = env.step([Cell(2, 1)], [Action.STAY], rng)
        seen.add(cell)
    # Stay was always replaced, and every neighbour shows up.
    assert Cell(2, 1) not in seen
    assert seen == {Cell(2, 0), Cell(2, 2), Cell(1, 1), Cell(3, 1)}


def test_zero_slip_is_deterministic():
    grid = parse_map(".....\n....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1))
    for seed in range(5):
        cells, _ = env.step([Cell(2, 0)], [Action.RIGHT], np.random.default_rng(seed))
        assert cells == [Cell(3, 0)]


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
    rollout = run_episode(env, ConstantPolicy(Action.RIGHT), np.random.default_rng(0), starts=[0])
    traj = rollout.trajectories[0]
    assert traj.reached
    assert traj.arrival_time == 4
    assert traj.cells == [Cell(x, 0) for x in range(5)]
    assert traj.observations() == [(False, False)] * 4 + [(True, False)]
    assert rollout.steps == 4


def test_run_episode_settles_agents_that_start_on_a_goal():
    grid = parse_map("G....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=10))
    rollout = run_episode(env, ConstantPolicy(Action.RIGHT), np.random.default_rng(0), starts=[0])
    traj = rollout.trajectories[0]
    assert traj.reached and traj.arrival_time == 0
    assert traj.cells == [Cell(0, 0)]
    assert traj.actions == [] and traj.events == []
    assert traj.observations() == [(True, False)]


def test_run_episode_timeout_emits_one_observation_per_step():
    grid = parse_map(".....G\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=1, horizon=3))
    rollout = run_episode(env, ConstantPolicy(Action.STAY), np.random.default_rng(0), starts=[0])
    traj = rollout.trajectories[0]
    assert not traj.reached and traj.arrival_time is None
    assert len(traj.observations()) == 3
    assert traj.observations() == [(False, False)] * 3


def test_run_episode_drops_an_arrived_agent_from_later_steps():
    """Once an agent reaches the goal it is neither stepped nor in anyone's way: the second agent
    then walks into the goal cell the first one arrived on without a conflict."""
    env = _two_agent_env()
    script = iter([[Action.DOWN, Action.STAY], [Action.RIGHT]])
    policy = Stepped(lambda cells, rng: next(script))
    calls = counting(policy)
    first, second = Cell(2, 0), Cell(1, 1)
    rollout = run_episode(env, policy, np.random.default_rng(0), starts=[env.index(first), env.index(second)])
    assert calls == [[env.index(first), env.index(second)], [env.index(second)]]
    assert rollout.steps == 2
    arrived, follower = rollout.trajectories
    assert arrived.cells == [first, Cell(2, 1)] and arrived.events == [StepEvent.REACHED_GOAL]
    assert follower.cells == [second, second, Cell(2, 1)]
    assert follower.events == [StepEvent.MOVED, StepEvent.REACHED_GOAL]


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
    reached = sum(int(run_episode(env, policy, rng).trajectories[0].reached) for _ in range(200))
    assert reached == 21


def reference_rollout(env, sample, rng):
    """run_episode's reference over Cells: reset, then per step one sample(cell, rng) per live agent and
    GridEnv.step on the live agents.  An agent placed on a goal is never live, and one that reaches a
    goal leaves the live set.  Returns the step count and each agent's (cells, actions, events, reached)."""
    record = [([env.cells[c]], [], []) for c in env.reset(rng)]
    live = [i for i, (cells, _, _) in enumerate(record) if cells[0] not in env.grid.goals]
    steps = 0
    while steps < env.config.horizon and live:
        actions = [sample(record[i][0][-1], rng) for i in live]
        after, events = env.step([record[i][0][-1] for i in live], actions, rng)
        for i, new, action, event in zip(live, after, actions, events):
            cells, acts, evs = record[i]
            cells.append(new)
            acts.append(action)
            evs.append(event)
        live = [i for i, event in zip(live, events) if event != StepEvent.REACHED_GOAL]
        steps += 1
    # Recording stops on a goal, so an agent ends on one only by starting or arriving there.
    return steps, [(*r, r[0][-1] in env.grid.goals) for r in record]


def dirichlet_world(num_agents, slip):
    """The acceptance 20x20 map at T=80 and a stochastic policy with Dirichlet(0.5) rows."""
    from evomapf.bench import generate_map
    from evomapf.egt import TabularPolicy

    grid = generate_map(20, 20, 0.1, np.random.default_rng([7, 20]))
    env = GridEnv(EnvConfig(grid=grid, num_agents=num_agents, horizon=80, slip_probability=slip))
    probs = np.random.default_rng(num_agents).dirichlet(np.full(5, 0.5), size=(grid.height, grid.width))
    return env, TabularPolicy(grid.width, grid.height, probs, grid.free_cells())


@pytest.mark.parametrize("sampler", ["sample_action", "scalar_inverse_cdf"])
@pytest.mark.parametrize("slip", [0.0, 0.2])
@pytest.mark.parametrize("num_agents", [1, 4, 25])
def test_run_episode_equals_the_cell_level_loop(num_agents, slip, sampler):
    """One block of uniforms per step takes exactly the per-agent draws, and leaves the generator alike.

    The per-agent draw is TabularPolicy.sample_action, or one scalar
    rng.random() inverted through the cell's cumulative row.
    """
    env, policy = dirichlet_world(num_agents, slip)
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


@pytest.mark.parametrize("slip", [0.0, 0.2])
@pytest.mark.parametrize("num_agents", [1, 4, 25])
def test_run_episode_takes_a_seed_or_a_generator(num_agents, slip):
    """A seed plays the episode of default_rng(seed); at slip 0 a one-hot policy from given starts
    leaves a passed generator untouched."""
    env, policy = dirichlet_world(num_agents, slip)
    for seed in range(6):
        got, want = run_episode(env, policy, seed), run_episode(env, policy, np.random.default_rng(seed))
        assert got.steps == want.steps
        assert got.trajectories == want.trajectories
    greedy = policy.greedy()
    starts = env.reset(np.random.default_rng(3))
    rng = np.random.default_rng(9)
    rollout = run_episode(env, greedy, rng, starts)
    assert (rng.bit_generator.state == np.random.default_rng(9).bit_generator.state) == (slip == 0.0)
    assert rollout == run_episode(env, greedy, 9, starts)


# ---------------------------------------------------------------------------
# replaying the cycle of a deterministic episode


class Stepped:
    """A policy's sample_actions without its `deterministic` attribute, so run_episode takes every step."""

    def __init__(self, sample_actions):
        self.sample_actions = sample_actions


def counting(policy):
    """Make policy record the live cells of each sample_actions call; returns the list of them."""
    calls, sample = [], policy.sample_actions
    policy.sample_actions = lambda cells, rng: calls.append(list(cells)) or sample(cells, rng)
    return calls


def advancing(env):
    """Make env record the live cells of each step it advances; returns the list of them."""
    calls, advance = [], env.advance
    env.advance = lambda pre, actions, rng: calls.append(list(pre)) or advance(pre, actions, rng)
    return calls


@st.composite
def one_hot_worlds(draw):
    """A generated map of size 5-20, 1-8 agents and a one-hot policy on it: A*'s or a random table."""
    from evomapf.bench import astar_policy, generate_map
    from evomapf.egt import TabularPolicy

    width, height = draw(st.integers(5, 20)), draw(st.integers(5, 20))
    density = draw(st.sampled_from([0.0, 0.1, 0.2]))
    grid = generate_map(width, height, density, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    num_agents = draw(st.integers(1, min(8, len(grid.starts))))
    if draw(st.booleans()):
        policy = astar_policy(grid)
    else:
        moves = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(5, size=(height, width))
        policy = TabularPolicy(width, height, np.eye(5)[moves], grid.free_cells())
    return grid, num_agents, policy


@given(world=one_hot_worlds(), slip=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_run_episode_replays_a_repeated_state_as_stepping_would(world, slip, seed):
    """A one-hot policy gives the rollout of the stepping loop.  At slip 0 the generator draws only
    the reset and sample_actions is never called; at slip 0.2 every step is taken and drawn as stepping's."""
    grid, num_agents, policy = world
    config = EnvConfig(grid=grid, num_agents=num_agents, slip_probability=slip)
    env = GridEnv(config)
    stepped_policy = Stepped(policy.sample_actions)
    steps, samples = advancing(env), counting(policy)
    assert policy.deterministic
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_episode(env, policy, got_rng)
    want = run_episode(GridEnv(config), stepped_policy, want_rng)
    assert got.steps == want.steps
    assert got.trajectories == want.trajectories
    if slip > 0.0:
        assert len(steps) == len(samples) == got.steps
        assert got_rng.random() == want_rng.random()
    else:
        reset_only = np.random.default_rng(seed)
        env.reset(reset_only)
        assert got_rng.bit_generator.state == reset_only.bit_generator.state
        assert samples == []


def test_run_episode_stops_stepping_once_the_live_cells_repeat():
    """Two agents pace back and forth in period 2 and a third parks on a goal: the episode steps
    until the live cells repeat, one step into the cycle's second lap, and replays the rest."""
    from evomapf.egt import TabularPolicy

    grid = parse_map("....\n...G\n")
    moves = np.array([[Action.RIGHT, Action.LEFT, Action.STAY, Action.DOWN],
                      [Action.RIGHT, Action.LEFT, Action.RIGHT, Action.STAY]])
    policy = TabularPolicy(4, 2, np.eye(5)[moves], grid.free_cells())
    env = GridEnv(EnvConfig(grid=grid, num_agents=3, horizon=11))
    calls = advancing(env)
    rng = np.random.default_rng(8)
    rollout = run_episode(env, policy, rng, starts=[env.index(c) for c in (Cell(0, 0), Cell(0, 1), Cell(3, 0))])
    # The third agent reaches the goal at step 1, so (1, 5), first met after it, recurs before step 4.
    assert calls == [[0, 4, 3], [1, 5], [0, 4], [1, 5]]
    assert rollout.steps == 11
    pacer, lower, parked = rollout.trajectories
    assert pacer.cells == [Cell(x, 0) for x in [0, 1] * 6]
    assert lower.cells == [Cell(x, 1) for x in [0, 1] * 6]
    assert pacer.actions == [Action.RIGHT, Action.LEFT] * 5 + [Action.RIGHT]
    assert set(pacer.events) == {StepEvent.MOVED} and len(pacer.events) == 11
    assert parked.cells == [Cell(3, 0), Cell(3, 1)] and parked.reached
    # Given starts, one-hot actions and no slip: nothing is drawn.
    assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state
