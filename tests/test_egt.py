"""Policies, fitness estimation, the replicator step, and the training loop."""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf import egt
from evomapf.automaton import (
    AVG,
    SUM,
    RewardParams,
    discounted_sum,
    reach_avoid_machine,
    valuate,
)
from evomapf.bench import generate_map
from evomapf.egt import (
    EpisodeBatch,
    FitnessTable,
    TabularPolicy,
    TrainConfig,
    estimate_fitness,
    load_policy,
    mix_with_uniform,
    replicator_update,
    sample_batch,
    save_policy,
    train,
)
from evomapf.gridworld import (
    Action,
    AgentTrajectory,
    BatchRollout,
    Cell,
    ConfigError,
    EnvConfig,
    EpisodeRollout,
    GridEnv,
    StepEvent,
    parse_map,
    roll_batch,
    run_episode,
)

from oracles import fitness_sums, replicator_step


STRIP = parse_map("....G\n")


def single_action_policy(grid, action: Action) -> TabularPolicy:
    policy = TabularPolicy.uniform(grid)
    probs = np.zeros_like(policy.probs)
    probs[:, :, action] = 1.0
    return TabularPolicy(policy.width, policy.height, probs, policy.cells)


def fitness_with(grid, observations) -> FitnessTable:
    """Fitness table holding exactly the given {(cell, action): value} scores."""
    table = FitnessTable.zeros(grid)
    for (cell, action), value in observations.items():
        table.action_sums[cell.y, cell.x, action] = value
        table.action_counts[cell.y, cell.x, action] = 1
    return table


# ---------------------------------------------------------------------------
# policies


def test_uniform_policy_rows_are_uniform():
    policy = TabularPolicy.uniform(STRIP)
    for cell in policy.cells:
        assert np.allclose(policy.action_probs(cell), 0.2)


def test_greedy_puts_all_mass_on_the_argmax():
    policy = TabularPolicy.uniform(STRIP)
    probs = policy.probs.copy()
    probs[0, 1] = [0.1, 0.1, 0.1, 0.6, 0.1]
    greedy = TabularPolicy(policy.width, policy.height, probs, policy.cells).greedy()
    assert list(greedy.action_probs(Cell(1, 0))) == [0.0, 0.0, 0.0, 1.0, 0.0]
    # Ties resolve to the first action index.
    assert list(greedy.action_probs(Cell(0, 0))) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_deterministic_reads_whether_every_row_is_one_hot(tmp_path):
    from evomapf.bench import astar_policy

    grid = parse_map("..#.\n.#.G\n....\n")
    greedy = random_policy(grid, 3, 0.0).greedy()
    path = str(tmp_path / "greedy.txt")
    save_policy(greedy, path)
    loaded, _ = load_policy(path)
    # load_policy fills the unlisted obstacle cells with uniform rows, which do not count.
    assert np.allclose(loaded.action_probs(Cell(2, 0)), 0.2)
    half, last = TabularPolicy.uniform(STRIP).greedy(), TabularPolicy.uniform(STRIP).greedy()
    half.probs[0, 2] = [0.5, 0.5, 0.0, 0.0, 0.0]
    last.probs[0, 2] = [0.0, 0.0, 0.0, 0.5, 0.5]
    truth = {
        "greedy": (greedy, True),
        "astar_policy": (astar_policy(grid), True),
        "greedy round trip": (loaded, True),
        "uniform": (TabularPolicy.uniform(grid), False),
        "greedy mixed 0.05": (mix_with_uniform(greedy, 0.05), False),
        "row [0.5, 0.5, 0, 0, 0]": (half, False),
        "row [0, 0, 0, 0.5, 0.5]": (last, False),
    }
    assert {name: policy.deterministic for name, (policy, _) in truth.items()} == {
        name: want for name, (_, want) in truth.items()
    }

    class Top:
        """A generator stub whose every uniform is the largest double below 1."""

        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

    # On a deterministic policy's cells, fixed_actions is the row's one action, which u = 0 and u < 1 both take.
    for policy in (greedy, astar_policy(grid), loaded):
        cells = [c.y * grid.width + c.x for c in policy.cells]
        want = policy.probs.reshape(-1, 5)[cells].argmax(axis=1).tolist()
        assert [policy.fixed_actions[c] for c in cells] == want
        assert policy.sample_actions(cells, Top()) == want


def test_sample_action_is_seed_deterministic():
    policy = TabularPolicy.uniform(STRIP)
    a = [policy.sample_action(Cell(0, 0), np.random.default_rng(4)) for _ in range(5)]
    b = [policy.sample_action(Cell(0, 0), np.random.default_rng(4)) for _ in range(5)]
    assert a == b


def test_copy_is_independent():
    policy = TabularPolicy.uniform(STRIP)
    clone = policy.copy()
    clone.probs[0, 0, 0] = 0.9
    assert policy.probs[0, 0, 0] == 0.2


# ---------------------------------------------------------------------------
# fitness estimation


def _batch_of(trajectories_and_returns) -> EpisodeBatch:
    """Single-agent episodes in roll_batch's layout, padded with (0, 0) and UP past each end."""
    trajs = [traj for traj, _ in trajectories_and_returns]
    span = max(len(traj.actions) for traj in trajs)
    cells = np.zeros((len(trajs), 1, span + 1), dtype=np.intp)
    actions = np.full((len(trajs), 1, span), Action.UP, dtype=np.intp)
    for k, traj in enumerate(trajs):
        cells[k, 0, : len(traj.cells)] = [c.y * STRIP.width + c.x for c in traj.cells]
        actions[k, 0, : len(traj.actions)] = traj.actions
    lengths = np.array([[len(traj.actions)] for traj in trajs])
    rolled = BatchRollout(
        cells=cells,
        actions=actions,
        events=np.zeros_like(actions),
        lengths=lengths,
        reached=np.zeros(lengths.shape, dtype=bool),
        steps=lengths[:, 0],
    )
    returns = np.array([[ret] for _, ret in trajectories_and_returns])
    return EpisodeBatch(rolled, returns, _strip_env())


def test_estimate_fitness_scores_pairs_by_trajectory_return():
    traj = AgentTrajectory(
        cells=[Cell(0, 0), Cell(1, 0)],
        actions=[Action.RIGHT],
        events=[StepEvent.MOVED],
    )
    table = estimate_fitness(_batch_of([(traj, 7.0)]), STRIP)
    assert table.action_fitness(Cell(0, 0), Action.RIGHT) == 7.0


def test_estimate_fitness_averages_across_trajectories():
    mk = lambda: AgentTrajectory(
        cells=[Cell(0, 0), Cell(1, 0)], actions=[Action.RIGHT], events=[StepEvent.MOVED]
    )
    table = estimate_fitness(_batch_of([(mk(), 4.0), (mk(), 10.0)]), STRIP)
    assert table.action_fitness(Cell(0, 0), Action.RIGHT) == 7.0


def test_estimate_fitness_counts_each_pair_once_per_trajectory():
    loop = AgentTrajectory(
        cells=[Cell(0, 0), Cell(1, 0), Cell(0, 0), Cell(1, 0)],
        actions=[Action.RIGHT, Action.LEFT, Action.RIGHT],
        events=[StepEvent.MOVED] * 3,
    )
    table = estimate_fitness(_batch_of([(loop, 6.0)]), STRIP)
    assert table.action_counts[0, 0, Action.RIGHT] == 1
    assert table.action_fitness(Cell(0, 0), Action.RIGHT) == 6.0
    # Only the two distinct pairs count; the padding past the last step does not.
    assert table.action_counts.sum() == 2


def test_unobserved_pairs_have_no_fitness():
    table = FitnessTable.zeros(STRIP)
    with pytest.raises(ValueError, match="no observation of action"):
        table.action_fitness(Cell(0, 0), Action.UP)


# ---------------------------------------------------------------------------
# replicator update


def test_replicator_worked_example():
    policy = TabularPolicy.uniform(STRIP)
    probs = policy.probs.copy()
    probs[0, 0] = [0.5, 0.5, 0.0, 0.0, 0.0]
    policy = TabularPolicy(policy.width, policy.height, probs, policy.cells)
    table = fitness_with(STRIP, {(Cell(0, 0), Action.UP): 3.0, (Cell(0, 0), Action.DOWN): 1.0})

    full = replicator_update(policy, table, alpha=1.0)
    assert np.allclose(full.action_probs(Cell(0, 0)), [0.75, 0.25, 0, 0, 0])

    half = replicator_update(policy, table, alpha=0.5)
    assert np.allclose(half.action_probs(Cell(0, 0)), [0.625, 0.375, 0, 0, 0])


def test_replicator_alpha_zero_is_the_identity():
    policy = TabularPolicy.uniform(STRIP)
    table = fitness_with(STRIP, {(Cell(0, 0), Action.UP): 3.0, (Cell(0, 0), Action.DOWN): 1.0})
    updated = replicator_update(policy, table, alpha=0.0)
    assert np.array_equal(updated.probs, policy.probs)


def test_replicator_uniform_fitness_is_a_fixed_point():
    policy = TabularPolicy.uniform(STRIP)
    table = fitness_with(
        STRIP, {(Cell(x, 0), a): 2.5 for x in range(4) for a in Action}
    )
    updated = replicator_update(policy, table, alpha=1.0)
    assert np.max(np.abs(updated.probs - policy.probs)) < 1e-12


def test_replicator_leaves_unobserved_rows_alone():
    policy = TabularPolicy.uniform(STRIP)
    table = fitness_with(STRIP, {(Cell(0, 0), Action.RIGHT): 9.0})
    updated = replicator_update(policy, table, alpha=1.0)
    assert np.array_equal(updated.probs[0, 1], policy.probs[0, 1])
    # A single observed action keeps exactly its prior mass.
    assert updated.probs[0, 0, Action.RIGHT] == pytest.approx(0.2)


def test_replicator_rejects_alpha_outside_unit_interval():
    policy = TabularPolicy.uniform(STRIP)
    table = FitnessTable.zeros(STRIP)
    with pytest.raises(ConfigError, match="alpha"):
        replicator_update(policy, table, alpha=1.5)


@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=5, max_size=5
    ),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100)
def test_replicator_rows_stay_on_the_simplex(values, alpha):
    policy = TabularPolicy.uniform(STRIP)
    table = fitness_with(STRIP, {(Cell(0, 0), a): v for a, v in zip(Action, values)})
    updated = replicator_update(policy, table, alpha=alpha)
    row = updated.probs[0, 0]
    assert abs(row.sum() - 1.0) < 1e-9
    assert (row >= -1e-12).all()


@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=5, max_size=5
    ),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100)
def test_replicator_preserves_fitness_order_from_a_uniform_prior(values, alpha):
    policy = TabularPolicy.uniform(STRIP)
    table = fitness_with(STRIP, {(Cell(0, 0), a): v for a, v in zip(Action, values)})
    row = replicator_update(policy, table, alpha=alpha).probs[0, 0]
    for i in range(5):
        for j in range(5):
            if values[i] >= values[j]:
                assert row[i] >= row[j] - 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
)
@settings(max_examples=200, deadline=None)
def test_replicator_update_equals_the_row_loop(seed, alpha):
    """Random tables, with zero-probability actions, rows without prior mass on
    their observed actions, and unobserved rows, match the oracle bit for bit."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, 5)
    probs = rng.random(shape) * (rng.random(shape) < 0.6)
    probs[probs.sum(axis=2) == 0, 0] = 1.0
    probs /= probs.sum(axis=2, keepdims=True)
    table = FitnessTable.zeros(parse_map("...G\n....\n....\n"))
    table.action_counts[:] = rng.integers(0, 3, shape) * (rng.random(shape) < 0.5)
    table.action_sums[:] = rng.normal(0.0, 10.0 ** rng.integers(0, 4), shape) * table.action_counts
    policy = TabularPolicy(4, 3, probs, [])
    updated = replicator_update(policy, table, alpha)
    assert np.array_equal(updated.probs, replicator_step(probs, table.action_sums, table.action_counts, alpha))


# ---------------------------------------------------------------------------
# uniform mixing


def test_mix_with_uniform_endpoints():
    policy = single_action_policy(STRIP, Action.UP)
    assert np.allclose(mix_with_uniform(policy, 1.0).probs, 0.2)
    assert np.array_equal(mix_with_uniform(policy, 0.0).probs, policy.probs)


def test_mix_with_uniform_halfway():
    policy = single_action_policy(STRIP, Action.UP)
    mixed = mix_with_uniform(policy, 0.5)
    assert np.allclose(mixed.probs[0, 0], [0.6, 0.1, 0.1, 0.1, 0.1])


def test_mix_with_uniform_rejects_bad_weight():
    with pytest.raises(ConfigError, match="mixing weight"):
        mix_with_uniform(TabularPolicy.uniform(STRIP), 1.2)


# ---------------------------------------------------------------------------
# batches


def _strip_env(num_agents=1, horizon=6):
    return GridEnv(EnvConfig(grid=STRIP, num_agents=num_agents, horizon=horizon))


STRIP_REWARDS = RewardParams(step_penalty=1.0, goal_reward=60.0, collision_penalty=60.0, horizon=6)


def test_sample_batch_of_one_equals_a_single_episode():
    env = _strip_env()
    machine = reach_avoid_machine(STRIP_REWARDS)
    policy = TabularPolicy.uniform(STRIP)
    batch = sample_batch(policy, env, machine, SUM, 1, np.random.default_rng(9))
    seed = int(np.random.default_rng(9).integers(0, 2**63 - 1, size=1)[0])
    rollout = run_episode(env, policy, np.random.default_rng(seed))
    assert batch.rollouts[0].trajectories[0].cells == rollout.trajectories[0].cells


def test_sample_batch_is_seed_deterministic():
    env = _strip_env()
    machine = reach_avoid_machine(STRIP_REWARDS)
    policy = TabularPolicy.uniform(STRIP)
    a = sample_batch(policy, env, machine, SUM, 16, np.random.default_rng(3))
    b = sample_batch(policy, env, machine, SUM, 16, np.random.default_rng(3))
    assert np.array_equal(a.returns, b.returns)


def test_batch_returns_follow_the_reward_machine():
    env = _strip_env()
    machine = reach_avoid_machine(STRIP_REWARDS)
    policy = TabularPolicy.uniform(STRIP)
    batch = sample_batch(policy, env, machine, SUM, 8, np.random.default_rng(1))
    assert batch.returns.shape == (8, 1)
    for rollout, returns in zip(batch.rollouts, batch.returns):
        for traj, r in zip(rollout.trajectories, returns, strict=True):
            assert r == valuate(machine.weights(traj.observations()), SUM)
    assert batch.expected_return == pytest.approx(
        np.mean([sum(r) for r in batch.returns])
    )


def test_batch_size_must_be_positive():
    env = _strip_env()
    machine = reach_avoid_machine(STRIP_REWARDS)
    with pytest.raises(ConfigError, match="batch_size"):
        sample_batch(TabularPolicy.uniform(STRIP), env, machine, SUM, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the batched kernel against the scalar path


@dataclass
class ScalarBatch:
    """sample_batch's reference result: rollout objects and per-agent returns as lists."""

    rollouts: list[EpisodeRollout]
    returns: list[list[float]]

    @property
    def expected_return(self) -> float:
        return float(np.mean([sum(r) for r in self.returns]))


def scalar_batch(policy, env, machine, valuation, batch_size, rng) -> ScalarBatch:
    """sample_batch's reference: run_episode per derived seed, scored per trajectory."""
    seeds = rng.integers(0, 2**63 - 1, size=batch_size)
    rollouts = [run_episode(env, policy, np.random.default_rng(int(seed))) for seed in seeds]
    returns = [
        [valuate(machine.weights(t.observations()), valuation) for t in r.trajectories]
        for r in rollouts
    ]
    return ScalarBatch(rollouts, returns)


def scalar_fitness(batch, grid) -> FitnessTable:
    return FitnessTable(*fitness_sums(grid.width, grid.height, batch))


def scalar_replicator(policy, fitness, alpha) -> TabularPolicy:
    probs = replicator_step(policy.probs, fitness.action_sums, fitness.action_counts, alpha)
    return TabularPolicy(policy.width, policy.height, probs, policy.cells)


def assert_same_batch(batch: EpisodeBatch, reference: ScalarBatch) -> None:
    assert len(batch.rollouts) == len(reference.rollouts)
    for got, want in zip(batch.rollouts, reference.rollouts):
        assert got.steps == want.steps
        for t, u in zip(got.trajectories, want.trajectories, strict=True):
            assert (t.cells, t.actions, t.events, t.reached) == (u.cells, u.actions, u.events, u.reached)
            assert all(type(c) is Cell for c in t.cells)
            assert all(type(a) is Action for a in t.actions)
    assert batch.returns.tolist() == reference.returns
    assert batch.expected_return == reference.expected_return


def assert_same_fitness(table: FitnessTable, reference: FitnessTable) -> None:
    for name in ("action_sums", "action_counts"):
        got, want = getattr(table, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def random_policy(grid, seed: int, zero_share: float) -> TabularPolicy:
    """Random rows with about zero_share of the actions at probability 0."""
    rng = np.random.default_rng(seed)
    probs = rng.random((grid.height, grid.width, 5)) * (rng.random((grid.height, grid.width, 5)) >= zero_share)
    probs[probs.sum(axis=2) == 0, 4] = 1.0
    probs /= probs.sum(axis=2, keepdims=True)
    return TabularPolicy(grid.width, grid.height, probs, grid.free_cells())


@st.composite
def crowded_worlds(draw):
    """Small maps holding up to six agents, so reverts can cascade."""
    width = draw(st.integers(min_value=1, max_value=5))
    height = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(st.sampled_from("....#G")) for _ in range(width)] for _ in range(height)]
    rows[draw(st.integers(0, height - 1))][draw(st.integers(0, width - 1))] = "G"
    grid = parse_map("\n".join("".join(r) for r in rows) + "\n")
    num_agents = draw(st.integers(min_value=1, max_value=min(6, len(grid.starts))))
    horizon = draw(st.integers(min_value=1, max_value=12))
    return grid, EnvConfig(grid=grid, num_agents=num_agents, horizon=horizon)


@given(
    world=crowded_worlds(),
    policy_seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.4, 0.8]),
    batch_seed=st.integers(0, 2**32 - 1),
    valuation=st.sampled_from([SUM, AVG, discounted_sum(0.9)]),
)
@settings(max_examples=150, deadline=None)
def test_batched_rollouts_equal_run_episode(world, policy_seed, zero_share, batch_seed, valuation):
    grid, config = world
    env = GridEnv(config)
    machine = reach_avoid_machine(RewardParams.default_for(config.horizon))
    policy = random_policy(grid, policy_seed, zero_share)
    batch = sample_batch(policy, env, machine, valuation, 6, np.random.default_rng(batch_seed))
    reference = scalar_batch(policy, env, machine, valuation, 6, np.random.default_rng(batch_seed))
    assert_same_batch(batch, reference)
    assert_same_fitness(estimate_fitness(batch, grid), scalar_fitness(reference, grid))


@pytest.mark.parametrize(
    "text, moves, events",
    [
        # Three movers queue behind an agent that stays: each revert uncovers the next.
        ("SSSSG\n", {0: Action.RIGHT, 1: Action.RIGHT, 2: Action.RIGHT, 3: Action.STAY},
         {StepEvent.VERTEX_CONFLICT}),
        # Two agents trade places head on.
        ("GSSG\n", {1: Action.RIGHT, 2: Action.LEFT}, {StepEvent.SWAP_CONFLICT}),
    ],
)
def test_batched_conflicts_equal_run_episode(text, moves, events):
    grid = parse_map(text)
    config = EnvConfig(grid=grid, num_agents=len(grid.starts), horizon=3)
    probs = np.zeros((1, grid.width, 5))
    probs[0, :, Action.STAY] = 1.0
    for x, action in moves.items():
        probs[0, x] = np.eye(5)[action]
    policy = TabularPolicy(grid.width, 1, probs, grid.free_cells())
    env = GridEnv(config)
    machine = reach_avoid_machine(RewardParams.default_for(3))
    batch = sample_batch(policy, env, machine, SUM, 4, np.random.default_rng(0))
    assert_same_batch(batch, scalar_batch(policy, env, machine, SUM, 4, np.random.default_rng(0)))
    seen = {e for r in batch.rollouts for t in r.trajectories for e in t.events}
    assert seen == events


@pytest.mark.parametrize("zero_share", [None, 0.4], ids=["uniform", "random"])
def test_crowded_batch_equals_run_episode_on_the_acceptance_8_map(zero_share):
    """25 agents on the 50x50 map of acceptance 8: roll_batch equals run_episode seed by seed."""
    grid = generate_map(50, 50, 0.1, np.random.default_rng([0, 50]))
    env = GridEnv(EnvConfig(grid=grid, num_agents=25, horizon=40))
    policy = TabularPolicy.uniform(grid) if zero_share is None else random_policy(grid, 3, zero_share)
    seeds = np.random.default_rng(8).integers(0, 2**63 - 1, size=16)
    rolled = roll_batch(env, policy.cumulative().reshape(-1, 5), seeds)
    for got, seed in zip(rolled.rollouts(env), seeds, strict=True):
        want = run_episode(env, policy, np.random.default_rng(int(seed)))
        assert got.steps == want.steps
        for t, u in zip(got.trajectories, want.trajectories, strict=True):
            assert (t.cells, t.actions, t.events, t.reached) == (u.cells, u.actions, u.events, u.reached)
    seen = {e for r in rolled.rollouts(env) for t in r.trajectories for e in t.events}
    assert {StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT} <= seen


def test_batch_padding_repeats_the_last_cell_with_stay_and_inactive():
    grid = parse_map("....#\n.#..G\n..#..\nG....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=3, horizon=16))
    rolled = roll_batch(env, random_policy(grid, 1, 0.4).cumulative().reshape(-1, 5), np.arange(40))
    span = rolled.actions.shape[2]
    past = np.arange(span) >= rolled.lengths[:, :, None]
    assert past.any() and not past.all()
    assert (rolled.actions[past] == Action.STAY).all()
    assert (rolled.events[past] == list(StepEvent).index(StepEvent.INACTIVE)).all()
    last = np.take_along_axis(rolled.cells, rolled.lengths[:, :, None], axis=2)
    assert (rolled.cells == np.where(np.arange(span + 1) > rolled.lengths[:, :, None], last, rolled.cells)).all()
    assert np.array_equal(rolled.steps, rolled.lengths.max(axis=1))


def test_mixed_batch_equals_run_episode_of_each_blend():
    """With mix, episode k of roll_batch is run_episode on its seed under mix_with_uniform(policy, mix[k])."""
    grid = parse_map("....#\n.#..G\n..#..\nG....\n")
    env = GridEnv(EnvConfig(grid=grid, num_agents=3, horizon=16))
    policy = random_policy(grid, 2, 0.4)
    cumulative = policy.cumulative().reshape(-1, 5)
    mix = np.array([0.0, 0.05, 0.3, 0.5, 0.7, 1.0] * 3)
    seeds = np.random.default_rng(6).integers(0, 2**63 - 1, size=len(mix))
    rolled = roll_batch(env, cumulative, seeds, mix)
    for got, seed, weight in zip(rolled.rollouts(env), seeds, mix, strict=True):
        want = run_episode(env, mix_with_uniform(policy, weight), np.random.default_rng(int(seed)))
        assert got.steps == want.steps
        for t, u in zip(got.trajectories, want.trajectories, strict=True):
            assert (t.cells, t.actions, t.events, t.reached) == (u.cells, u.actions, u.events, u.reached)
    unmixed = roll_batch(env, cumulative, seeds)
    zero = roll_batch(env, cumulative, seeds, np.zeros(len(seeds)))
    for name in ("cells", "actions", "events", "lengths", "reached", "steps"):
        assert np.array_equal(getattr(zero, name), getattr(unmixed, name)), name


def test_training_is_bit_identical_to_the_scalar_path(monkeypatch):
    grid = parse_map("....#\n.#..G\n..#..\nG....\n")
    config = TrainConfig(
        env=EnvConfig(grid=grid, num_agents=3, horizon=16),
        rewards=replace(RewardParams.default_for(16), gamma=0.97),
        batch_size=64,
        max_iterations=10,
        patience=11,
        alpha=0.3,
    )
    batched = train(config, np.random.default_rng(5))
    monkeypatch.setattr(egt, "sample_batch", scalar_batch)
    monkeypatch.setattr(egt, "estimate_fitness", scalar_fitness)
    monkeypatch.setattr(egt, "replicator_update", scalar_replicator)
    scalar = train(config, np.random.default_rng(5))
    assert batched.batch_returns == scalar.batch_returns
    assert np.array_equal(batched.policy.probs, scalar.policy.probs)


def test_training_builds_no_rollout_objects(monkeypatch):
    """train() runs on the batch arrays; rollout objects appear only when batch.rollouts is read."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rollout object was built")

    monkeypatch.setattr(AgentTrajectory, "__init__", refuse)
    monkeypatch.setattr(EpisodeRollout, "__init__", refuse)
    config = TrainConfig(
        env=EnvConfig(grid=parse_map("....#\n.#..G\n..#..\nG....\n"), num_agents=3, horizon=16),
        batch_size=32,
        max_iterations=5,
        patience=6,
    )
    assert train(config, np.random.default_rng(5)).iterations == 5
    machine = reach_avoid_machine(RewardParams.default_for(16))
    batch = sample_batch(TabularPolicy.uniform(config.env.grid), GridEnv(config.env), machine, SUM, 4,
                         np.random.default_rng(0))
    with pytest.raises(AssertionError, match="rollout object"):
        batch.rollouts


def test_slipping_rollouts_match_run_episode_in_distribution():
    """With slip > 0 the kernel draws slips after the policy uniforms, so only the
    distribution can agree: success rate and mean arrival time within 4 standard errors."""
    grid = parse_map("......\n.#..#.\n......\n..#..G\n")
    config = EnvConfig(grid=grid, num_agents=2, horizon=24, slip_probability=0.3)
    env = GridEnv(config)
    policy = mix_with_uniform(single_action_policy(grid, Action.RIGHT), 0.5)
    machine = reach_avoid_machine(RewardParams.default_for(config.horizon))
    episodes = 3000
    batched = sample_batch(policy, env, machine, SUM, episodes, np.random.default_rng(1)).rollouts
    scalar = [run_episode(env, policy, np.random.default_rng([2, k])) for k in range(episodes)]

    def arrivals(rollouts):
        return [t.arrival_time for r in rollouts for t in r.trajectories]

    got, want = arrivals(batched), arrivals(scalar)
    success = [np.mean([a is not None for a in x]) for x in (got, want)]
    p = np.mean(success)
    assert 0.2 < p < 0.8
    assert abs(success[0] - success[1]) < 4 * np.sqrt(2 * p * (1 - p) / len(got))
    times = [np.array([a for a in x if a is not None], dtype=float) for x in (got, want)]
    se = np.sqrt(sum(t.var() / len(t) for t in times))
    assert abs(times[0].mean() - times[1].mean()) < 4 * se


# ---------------------------------------------------------------------------
# expected return


def batch_return(policy, env_config, rewards, episodes) -> float:
    machine = reach_avoid_machine(rewards)
    return sample_batch(policy, GridEnv(env_config), machine, SUM, episodes, np.random.default_rng(0)).expected_return


def test_stay_forever_pays_a_step_penalty_per_timestep():
    policy = single_action_policy(STRIP, Action.STAY)
    assert batch_return(policy, EnvConfig(grid=STRIP, horizon=6), STRIP_REWARDS, 4) == -6.0


def test_starting_on_the_goal_pays_the_goal_reward():
    grid = parse_map("G\n")
    rewards = RewardParams(step_penalty=1.0, goal_reward=40.0, collision_penalty=40.0, horizon=4)
    assert batch_return(TabularPolicy.uniform(grid), EnvConfig(grid=grid), rewards, 3) == 40.0


def test_two_agents_on_goals_pay_twice_the_goal_reward():
    grid = parse_map("GG\n")
    rewards = RewardParams(step_penalty=1.0, goal_reward=40.0, collision_penalty=40.0, horizon=6)
    env_config = EnvConfig(grid=grid, num_agents=2)
    assert batch_return(TabularPolicy.uniform(grid), env_config, rewards, 3) == 80.0


# ---------------------------------------------------------------------------
# training loop


def test_train_config_validation():
    env = EnvConfig(grid=STRIP, horizon=6)
    with pytest.raises(ConfigError, match="alpha"):
        TrainConfig(env=env, alpha=0.0)
    with pytest.raises(ConfigError, match="nu"):
        TrainConfig(env=env, nu=0.0)
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(env=env, patience=0)
    with pytest.raises(ConfigError, match="delta"):
        TrainConfig(env=env, delta=-1.0)


def test_train_config_rejects_a_non_finite_delta():
    env = EnvConfig(grid=STRIP, horizon=6)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="delta must be finite"):
            TrainConfig(env=env, delta=delta)


def test_train_config_defaults_resolve_from_the_environment():
    config = TrainConfig(env=EnvConfig(grid=STRIP, horizon=6))
    assert config.rewards == RewardParams.default_for(6)
    assert config.rewards.goal_reward == config.rewards.collision_penalty == 60.0
    assert config.valuation == discounted_sum(config.rewards.gamma)
    assert config.delta == pytest.approx(0.01 * 1 * 60.0)
    assert TrainConfig(env=EnvConfig(grid=STRIP, horizon=6), delta=2.0).delta == 2.0
    # The valuation's default discount is the given rewards' gamma.
    rewards = replace(STRIP_REWARDS, gamma=0.9)
    assert TrainConfig(env=EnvConfig(grid=STRIP, horizon=6), rewards=rewards).valuation == discounted_sum(0.9)


def test_train_config_rejects_rewards_for_another_horizon():
    with pytest.raises(ConfigError, match=r"^rewards.horizon 6 must equal env.horizon 8, "):
        TrainConfig(env=EnvConfig(grid=STRIP, horizon=8), rewards=STRIP_REWARDS)


def test_train_config_rejects_a_second_discount():
    env = EnvConfig(grid=STRIP, horizon=6)
    with pytest.raises(ConfigError, match=r"^valuation gamma 0\.97 must equal rewards.gamma 0\.99, "):
        TrainConfig(env=env, valuation=discounted_sum(0.97))
    with pytest.raises(ConfigError, match=r"^valuation gamma 0\.99 must equal rewards.gamma 0\.9, "):
        TrainConfig(env=env, rewards=replace(STRIP_REWARDS, gamma=0.9), valuation=discounted_sum(0.99))
    # Undiscounted valuations carry no discount to disagree with.
    assert TrainConfig(env=env, valuation=SUM).valuation == SUM
    assert TrainConfig(env=env, valuation=AVG).valuation == AVG


def test_train_stops_quickly_when_everyone_starts_on_a_goal():
    grid = parse_map("G\n")
    config = TrainConfig(env=EnvConfig(grid=grid), batch_size=4, patience=3)
    report = train(config, np.random.default_rng(0))
    assert report.termination == "converged"
    assert report.iterations == 1 + config.patience
    assert all(r == report.batch_returns[0] for r in report.batch_returns)
    # Nothing was ever observed, so the policy is still uniform.
    assert np.allclose(report.policy.probs, 0.2)


def test_train_report_is_seed_deterministic():
    config = TrainConfig(
        env=EnvConfig(grid=STRIP, horizon=6),
        batch_size=8,
        max_iterations=5,
        patience=10,
    )
    a = train(config, np.random.default_rng(42))
    b = train(config, np.random.default_rng(42))
    assert a.batch_returns == b.batch_returns
    assert a.iterations == b.iterations == 5
    assert a.termination == b.termination == "iteration_cap"
    assert a.final_mix_weight == b.final_mix_weight
    assert np.array_equal(a.policy.probs, b.policy.probs)


def test_train_learns_to_walk_the_strip():
    """With the exploration floor nearly off, training sharpens onto Right.

    Early stopping is disabled (patience past the cap) so the uniform
    mixture has fully decayed by the time we inspect the policy.
    """
    config = TrainConfig(
        env=EnvConfig(grid=STRIP, horizon=6),
        batch_size=32,
        epsilon=0.001,
        alpha=0.5,
        patience=101,
        max_iterations=100,
    )
    for seed in (0, 1, 2):
        report = train(config, np.random.default_rng(seed))
        w = report.final_mix_weight
        # Remove the residual uniform mixture before inspecting the policy.
        sharpened = (report.policy.probs - w / 5.0) / (1.0 - w)
        for x in range(4):
            row = sharpened[0, x]
            assert int(np.argmax(row)) == Action.RIGHT, (seed, x)
            assert row[Action.RIGHT] > 0.7, (seed, x, row)
        # Batch returns climb from the uniform policy's level to near optimal.
        assert np.mean(report.batch_returns[:3]) < 0.0
        assert np.mean(report.batch_returns[-10:]) > 40.0


# ---------------------------------------------------------------------------
# serialization


def test_policy_round_trips_through_a_file(tmp_path):
    policy = mix_with_uniform(single_action_policy(STRIP, Action.RIGHT), 0.3)
    path = str(tmp_path / "policy.txt")
    save_policy(policy, path, {"note": "round-trip"})
    loaded, meta = load_policy(path)
    assert np.array_equal(loaded.probs, policy.probs)
    assert (loaded.width, loaded.height) == (policy.width, policy.height)
    assert meta["note"] == "round-trip"
    assert meta["width"] == "5" and meta["height"] == "1"


def test_load_policy_rejects_other_files(tmp_path):
    path = tmp_path / "nope.txt"
    path.write_text("just some text\n")
    with pytest.raises(ConfigError, match="not a policy file"):
        load_policy(str(path))


def test_load_policy_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# evomapf policy v1\n# width = 2\n# height = 1\n0,0 0.5 0.5\n")
    with pytest.raises(ConfigError, match="has 2 probabilities, expected 5"):
        load_policy(str(path))


def test_load_policy_rejects_out_of_range_cells(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# evomapf policy v1\n# width = 1\n# height = 1\n3,0 0.2 0.2 0.2 0.2 0.2\n")
    with pytest.raises(ConfigError, match="outside the declared 1x1 grid"):
        load_policy(str(path))


@pytest.mark.parametrize(
    "row, complaint",
    [
        ("nan 0.25 0.25 0.25 0.25", "non-finite"),
        ("inf 0.0 0.0 0.0 0.0", "non-finite"),
        ("-0.1 0.3 0.3 0.3 0.2", "negative"),
        ("0.2 0.2 0.2 0.2 0.3", "sums to"),
        ("0.2 0.2 0.2 0.2 0.2000001", "sums to"),
    ],
)
def test_load_policy_rejects_rows_off_the_simplex(tmp_path, row, complaint):
    path = tmp_path / "bad.txt"
    path.write_text(f"# evomapf policy v1\n# width = 2\n# height = 1\n0,0 0.2 0.2 0.2 0.2 0.2\n1,0 {row}\n")
    with pytest.raises(ConfigError, match=f"row '1,0' .*{complaint}"):
        load_policy(str(path))


def test_a_trained_policy_round_trips_through_a_file(tmp_path):
    config = TrainConfig(env=EnvConfig(grid=STRIP, horizon=6), batch_size=16, max_iterations=20, patience=21)
    policy = train(config, np.random.default_rng(3)).policy
    path = str(tmp_path / "trained.txt")
    save_policy(policy, path)
    loaded, _ = load_policy(path)
    assert np.array_equal(loaded.probs, policy.probs)


def test_load_policy_requires_dimensions(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# evomapf policy v1\n0,0 0.2 0.2 0.2 0.2 0.2\n")
    with pytest.raises(ConfigError, match="policy header lacks"):
        load_policy(str(path))


@pytest.mark.parametrize(
    "width, height, row, complaint",
    [
        ("2", "1", "x,0 0.2 0.2 0.2 0.2 0.2", "row 'x,0' is not `x,y` followed by numbers"),
        ("2", "1", "1;0 0.2 0.2 0.2 0.2 0.2", "row '1;0' is not `x,y` followed by numbers"),
        ("2", "1", "1,0,0 0.2 0.2 0.2 0.2 0.2", "row '1,0,0' is not `x,y` followed by numbers"),
        ("2", "1", "1,0 0.2 0.2 abc 0.2 0.2", "row '1,0' is not `x,y` followed by numbers"),
        ("two", "1", "1,0 0.2 0.2 0.2 0.2 0.2", "header entry width = 'two' is not a positive integer"),
        ("2", "1.5", "1,0 0.2 0.2 0.2 0.2 0.2", "header entry height = '1.5' is not a positive integer"),
        ("2", "-1", "1,0 0.2 0.2 0.2 0.2 0.2", "header entry height = '-1' is not a positive integer"),
        ("2", "1", "0,0 0.2 0.2 0.2 0.2 0.2", "row '0,0' repeats cell"),
    ],
)
def test_load_policy_rejects_malformed_rows_and_headers(tmp_path, width, height, row, complaint):
    path = tmp_path / "bad.txt"
    path.write_text(
        f"# evomapf policy v1\n# width = {width}\n# height = {height}\n0,0 0.2 0.2 0.2 0.2 0.2\n{row}\n"
    )
    with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*" + re.escape(complaint)):
        load_policy(str(path))
