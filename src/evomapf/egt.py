"""Shared tabular policy trained with replicator dynamics over batch fitness estimates.

All agents sample actions from one policy table indexed by their own
cell.  Each training iteration rolls a batch of episodes, scores every
visited (cell, action) pair by the mean return of the trajectories that
contain it, pulls the policy toward the replicator-weighted distribution
on the observed actions, and blends in a decaying amount of the uniform
policy for exploration.  Training stops when the batch return stops
improving or the iteration cap is hit.  The batch stays in arrays from
roll to replicator step: fitness is a pair of flat sums and counts over
the slots cell * 5 + action, keyed by BatchRollout.visit_keys.
"""
from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automaton import (
    RewardParams,
    Valuation,
    RewardMachine,
    discounted_sum,
    reach_avoid_machine,
    score_observations,
)
from .gridworld import (
    ACTIONS,
    Action,
    BatchRollout,
    Cell,
    ConfigError,
    EnvConfig,
    EpisodeRollout,
    GridEnv,
    GridMap,
    check_range,
    draw_batch,
    roll_batch,
)

NUM_ACTIONS = len(Action)


class TabularPolicy:
    """Probability table over actions, one row per cell the policy is defined on."""

    def __init__(self, width: int, height: int, probs: np.ndarray, cells: list[Cell]):
        if probs.shape != (height, width, NUM_ACTIONS):
            raise ValueError(f"policy table has shape {probs.shape}, expected "
                             f"({height}, {width}, {NUM_ACTIONS})")
        self.width = width
        self.height = height
        self.probs = probs
        self.cells = list(cells)

    @classmethod
    def uniform(cls, grid: GridMap) -> "TabularPolicy":
        probs = np.full((grid.height, grid.width, NUM_ACTIONS), 1.0 / NUM_ACTIONS)
        return cls(grid.width, grid.height, probs, grid.free_cells())

    def _like(self, probs: np.ndarray) -> "TabularPolicy":
        return TabularPolicy(self.width, self.height, probs, self.cells)

    def action_probs(self, cell: Cell) -> np.ndarray:
        return self.probs[cell.y, cell.x]

    def cumulative(self) -> np.ndarray:
        """Cumulative action probabilities per cell, shape (H, W, A)."""
        return np.cumsum(self.probs, axis=2)

    def sample_action(self, cell: Cell, rng: np.random.Generator) -> Action:
        return ACTIONS[self.sample_actions([cell.y * self.width + cell.x], rng)[0]]

    @cached_property
    def _rows(self) -> list[list[float]]:
        # Flat cumulative rows; STAY's bound at inf makes bisect_right end at STAY at most.
        rows = self.cumulative().reshape(-1, NUM_ACTIONS)
        rows[:, -1] = np.inf
        return rows.tolist()

    def sample_actions(self, cells: list[int], rng: np.random.Generator) -> list[int]:
        """One action per flat cell (y * width + x), on one block of uniforms taken in cell order."""
        return list(map(bisect_right, map(self._rows.__getitem__, cells), rng.random(len(cells)).tolist()))

    @cached_property
    def deterministic(self) -> bool:
        """Whether sample_actions ignores its uniforms on every cell in self.cells (evaluate checks they
        cover the map): no cumulative bound but STAY's lies strictly inside (0, 1), so bisect_right
        returns one action for every u in [0, 1), the one `fixed_actions` holds, and run_episode
        draws no action uniforms at slip 0.  load_policy's uniform filler rows lie outside them."""
        bounds = self.cumulative()[[c.y for c in self.cells], [c.x for c in self.cells], :-1]
        return not ((bounds > 0.0) & (bounds < 1.0)).any()

    @cached_property
    def fixed_actions(self) -> list[int]:
        """Per flat cell, the action sample_actions takes for u = 0; for every u in [0, 1) where deterministic."""
        return [bisect_right(row, 0.0) for row in self._rows]

    def greedy(self) -> "TabularPolicy":
        """Deterministic policy: all mass on each row's argmax (first wins ties)."""
        return self._like(np.eye(NUM_ACTIONS)[self.probs.argmax(axis=2)])

    def copy(self) -> "TabularPolicy":
        return self._like(self.probs.copy())


@dataclass
class EpisodeBatch:
    """A rolled batch and each agent's return; rollout objects are built on first read."""

    rolled: BatchRollout
    returns: np.ndarray  # (episodes, agents)
    env: GridEnv

    @cached_property
    def rollouts(self) -> list[EpisodeRollout]:
        return self.rolled.rollouts(self.env)

    @property
    def expected_return(self) -> float:
        """Mean over episodes of the summed agent returns, each sum taken left to right."""
        return float(np.mean(_row_sum(self.returns)))


def sample_batch(
    policy: TabularPolicy,
    env: GridEnv,
    machine: RewardMachine,
    valuation: Valuation,
    batch_size: int,
    rng: np.random.Generator,
) -> EpisodeBatch:
    """Roll batch_size episodes at once on draw_batch's draws from rng and score them with
    score_observations: each equals run_episode from its starts on its uniforms, scored by
    valuate(machine.weights(observations), valuation)."""
    check_range("batch_size", batch_size, 1)
    rolled = roll_batch(env, policy.cumulative().reshape(-1, NUM_ACTIONS), draw_batch(env, batch_size, rng))
    return EpisodeBatch(rolled, score_observations(machine, *rolled.observations(), valuation), env)


def estimate_fitness(batch: EpisodeBatch) -> tuple[np.ndarray, np.ndarray]:
    """Flat sums and counts of trajectory returns per (cell, action) slot cell * 5 + action.

    A pair's fitness, the mean return of the trajectories that take it, is
    its sum over its count.  A trajectory adds its whole return once to
    every distinct pair it takes, however often it repeats the pair.
    Distinct visit keys sort by trajectory, so each sum adds in trajectory order.
    """
    bins = len(batch.env.cells) * NUM_ACTIONS
    keys = _distinct(batch.rolled.visit_keys(bins)[0])
    slot = keys % bins
    # astype: bincount of no keys comes back integer even with weights.
    sums = np.bincount(slot, weights=batch.returns.reshape(-1)[keys // bins], minlength=bins)
    return sums.astype(float, copy=False), np.bincount(slot, minlength=bins)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys, as np.unique returns them (sorting is faster here)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def replicator_update(policy: TabularPolicy, sums: np.ndarray, counts: np.ndarray, alpha: float) -> TabularPolicy:
    """One replicator step toward fitness-proportional mass on observed actions.

    sums and counts are estimate_fitness's flat arrays.  Per cell with at
    least one observed action: shift the observed fitness values to be
    positive, weight the current probabilities by them, renormalise to
    the prior mass of the observed actions, and step with size alpha.
    Unobserved actions keep their prior mass, so each row stays on the
    simplex.  alpha = 0 is the identity.
    """
    check_range("alpha", alpha, 0, 1)
    probs = policy.probs.reshape(-1, NUM_ACTIONS).copy()
    counts = counts.reshape(-1, NUM_ACTIONS)
    observed = counts > 0
    prior = np.where(observed, probs, 0.0)
    mass = _row_sum(prior)
    rows = np.flatnonzero(observed.any(axis=1) & (mass > 0.0))
    observed, prior, mass = observed[rows], prior[rows], mass[rows, None]
    f = sums.reshape(-1, NUM_ACTIONS)[rows] / np.maximum(counts[rows], 1)
    f = f - np.where(observed, f, np.inf).min(axis=1, keepdims=True) + 1.0
    weighted = np.where(observed, prior * f, 0.0)
    target = weighted / _row_sum(weighted)[:, None] * mass
    stepped = np.where(observed, (1.0 - alpha) * prior + alpha * target, probs[rows])
    probs[rows] = stepped / _row_sum(stepped)[:, None]
    return policy._like(probs.reshape(policy.probs.shape))


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Sum of each row, added left to right like numpy's sum of a short 1-D row.

    Zeros in place of masked entries leave such a sum unchanged, so a
    masked row sums to the same bits as its compressed 1-D slice.
    """
    total = values[:, 0]
    for k in range(1, values.shape[1]):
        total = total + values[:, k]
    return total


def mix_with_uniform(policy: TabularPolicy, weight: float) -> TabularPolicy:
    """Blend every row with the uniform distribution: w*uniform + (1-w)*row."""
    check_range("mixing weight", weight, 0, 1)
    probs = weight / NUM_ACTIONS + (1.0 - weight) * policy.probs
    return policy._like(probs)


def check_horizon(rewards: RewardParams, env: EnvConfig) -> None:
    """Reject rewards whose horizon is not the one the episodes run for: b >= c > a*T needs that T."""
    if rewards.horizon != env.horizon:
        raise ConfigError(
            f"rewards.horizon {rewards.horizon} must equal env.horizon {env.horizon}, "
            "the T for which b >= c > a*T holds"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Replicator settings; rewards, valuation and delta are resolved once, for env's horizon."""

    env: EnvConfig
    rewards: RewardParams | None = None  # None: defaults derived from the horizon
    valuation: Valuation | None = None  # None: discounted_sum(rewards.gamma)
    nu: float = 0.05  # uniform-mixing decay per iteration
    epsilon: float = 0.05  # uniform-mixing floor
    delta: float | None = None  # None: 1% of num_agents * goal_reward
    alpha: float = 0.5  # replicator step size
    batch_size: int = 64
    max_iterations: int = 500
    patience: int = 3  # non-improving iterations tolerated before stopping

    def __post_init__(self) -> None:
        check_range("nu", self.nu, 0, 1, above=True)
        check_range("epsilon", self.epsilon, 0, 1)
        check_range("alpha", self.alpha, 0, 1, above=True)
        for name in ("batch_size", "max_iterations", "patience"):
            check_range(name, getattr(self, name), 1)
        if self.delta is not None:
            check_range("delta", self.delta, 0, above=True)
        rewards = self.rewards or RewardParams.default_for(self.env.horizon)
        check_horizon(rewards, self.env)
        valuation = self.valuation or discounted_sum(rewards.gamma)
        if valuation.kind == "discounted_sum" and valuation.gamma != rewards.gamma:
            raise ConfigError(
                f"valuation gamma {valuation.gamma!r} must equal rewards.gamma {rewards.gamma!r}, "
                "the one discount of EGT and the learners"
            )
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "valuation", valuation)
        if self.delta is None:
            object.__setattr__(self, "delta", 0.01 * self.env.num_agents * rewards.goal_reward)


@dataclass
class TrainReport:
    policy: TabularPolicy
    batch_returns: list[float]  # one value per iteration
    iterations: int
    termination: str  # "converged" | "iteration_cap"
    wall_clock_seconds: float
    final_mix_weight: float
    config: TrainConfig


def train(config: TrainConfig, rng: np.random.Generator) -> TrainReport:
    """Replicator-dynamics training loop.

    Iterates batch sampling, fitness estimation, a replicator step, and
    decaying uniform mixing.  Stops once the batch return has failed to
    improve on its best value by at least delta for `patience`
    consecutive iterations, or at max_iterations.
    """
    started = time.perf_counter()
    env = GridEnv(config.env)
    machine = reach_avoid_machine(config.rewards)
    policy = TabularPolicy.uniform(config.env.grid)
    mix_weight = 1.0
    batch_returns: list[float] = []
    best = -np.inf
    strikes = 0
    termination = "iteration_cap"

    for _ in range(config.max_iterations):
        batch = sample_batch(policy, env, machine, config.valuation, config.batch_size, rng)
        eta = batch.expected_return
        batch_returns.append(eta)
        if eta - best >= config.delta:
            best = eta
            strikes = 0
        else:
            strikes += 1
            if strikes >= config.patience:
                termination = "converged"
                break
        policy = replicator_update(policy, *estimate_fitness(batch), config.alpha)
        mix_weight = max(config.epsilon, mix_weight - config.nu)
        policy = mix_with_uniform(policy, mix_weight)

    return TrainReport(
        policy=policy,
        batch_returns=batch_returns,
        iterations=len(batch_returns),
        termination=termination,
        wall_clock_seconds=time.perf_counter() - started,
        final_mix_weight=mix_weight,
        config=config,
    )


POLICY_MAGIC = "# evomapf policy v1"
ROW_SUM_TOLERANCE = 1e-9  # how far a loaded row's sum may stray from 1
_ACTION_COLUMNS = "p_up p_down p_left p_right p_stay"


def save_policy(policy: TabularPolicy, path: str, header: dict[str, str] | None = None) -> None:
    """Write the policy as one `x,y p_up p_down p_left p_right p_stay` line per cell."""
    lines = [POLICY_MAGIC]
    meta = dict(header or {})
    meta.setdefault("width", str(policy.width))
    meta.setdefault("height", str(policy.height))
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    lines.append(f"# columns: x,y {_ACTION_COLUMNS}")
    for cell in sorted(policy.cells, key=lambda c: (c.y, c.x)):
        row = policy.action_probs(cell)
        lines.append(f"{cell.x},{cell.y} " + " ".join(repr(float(p)) for p in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_policy(path: str) -> tuple[TabularPolicy, dict[str, str]]:
    """Read a policy file back; returns the policy and its header metadata."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != POLICY_MAGIC:
        raise ConfigError(f"{path}: not a policy file (missing {POLICY_MAGIC!r} header)")
    meta: dict[str, str] = {}
    rows: dict[Cell, list[float]] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        coords, _, rest = line.partition(" ")
        try:
            x_text, y_text = coords.split(",")
            cell = Cell(int(x_text), int(y_text))
            values = [float(v) for v in rest.split()]
        except ValueError:
            raise ConfigError(f"{path}: row {coords!r} is not `x,y` followed by numbers") from None
        if cell in rows:
            raise ConfigError(f"{path}: row {coords!r} repeats cell {cell}")
        if len(values) != NUM_ACTIONS:
            raise ConfigError(f"{path}: row {coords!r} has {len(values)} probabilities, expected {NUM_ACTIONS}")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{path}: row {coords!r} has a non-finite probability")
        if min(values) < 0.0:
            raise ConfigError(f"{path}: row {coords!r} has a negative probability")
        if abs(sum(values) - 1.0) > ROW_SUM_TOLERANCE:
            raise ConfigError(f"{path}: row {coords!r} sums to {sum(values)!r}, not 1")
        rows[cell] = values
    width, height = (_header_size(path, meta, key) for key in ("width", "height"))
    probs = np.full((height, width, NUM_ACTIONS), 1.0 / NUM_ACTIONS)
    for cell, values in rows.items():
        if not (0 <= cell.x < width and 0 <= cell.y < height):
            raise ConfigError(f"{path}: cell {cell} lies outside the declared {width}x{height} grid")
        probs[cell.y, cell.x] = values
    return TabularPolicy(width, height, probs, list(rows)), meta


def _header_size(path: str, meta: dict[str, str], key: str) -> int:
    """The positive integer header entry key of a policy file."""
    if key not in meta:
        raise ConfigError(f"{path}: policy header lacks {key!r} entry")
    text = meta[key]
    if not (text.isdecimal() and int(text) > 0):
        raise ConfigError(f"{path}: policy header entry {key} = {text!r} is not a positive integer")
    return int(text)
