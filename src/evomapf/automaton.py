"""The reach-avoid reward as a weighted-automaton table, and valuations that fold its weights.

The reward is a deterministic weighted automaton over (in_goal, collided)
observations with two locations: SEEKING until the first goal visit,
then DONE.  It is stored as its transition table, the table form of a
reward machine: next_location[q, s] and weight[q, s] for location q and
symbol s = 2 * in_goal + collided, the index of the observation in
OBSERVATION_ALPHABET.  A valuation (sum, average, or discounted sum)
folds the weight sequence of a trajectory into a single number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Alphabet of reward observations: (in_goal, collision).
OBSERVATION_ALPHABET: tuple[tuple[bool, bool], ...] = (
    (False, False),
    (False, True),
    (True, False),
    (True, True),
)

# Locations of the reach-avoid automaton, as row indices of its table.
SEEKING = 0
DONE = 1


@dataclass(frozen=True)
class Valuation:
    """How a weight sequence folds into one number."""

    kind: str  # "sum" | "avg" | "discounted_sum"
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "avg", "discounted_sum"):
            raise ValueError(f"unknown valuation kind {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


SUM = Valuation("sum")
AVG = Valuation("avg")


def discounted_sum(gamma: float) -> Valuation:
    return Valuation("discounted_sum", gamma)


def valuate(weights: Sequence[float], valuation: Valuation) -> float:
    if valuation.kind == "sum":
        return float(sum(weights))
    if valuation.kind == "avg":
        if not weights:
            raise ValueError("average of an empty weight sequence is undefined")
        return float(sum(weights)) / len(weights)
    total = 0.0
    g = 1.0
    for w in weights:
        total += g * w
        g *= valuation.gamma
    return total


@dataclass(frozen=True)
class RewardParams:
    """Reach-avoid reward shape: -a per pre-goal step, +b on arrival, -c per collision.

    The constructor enforces b >= c > a*T so that a single collision
    outweighs any number of saved steps within the horizon.
    """

    step_penalty: float  # a
    goal_reward: float  # b
    collision_penalty: float  # c
    horizon: int  # T
    gamma: float = 0.99

    def __post_init__(self) -> None:
        for name in ("step_penalty", "goal_reward", "collision_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.step_penalty < 0:
            raise ValueError("step_penalty must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not self.goal_reward >= self.collision_penalty:
            raise ValueError(
                f"goal_reward must be at least collision_penalty, need b >= c > a*T "
                f"(goal_reward={self.goal_reward}, collision_penalty={self.collision_penalty})"
            )
        if not self.collision_penalty > self.step_penalty * self.horizon:
            raise ValueError(
                f"collision_penalty must exceed step_penalty*horizon, need b >= c > a*T "
                f"(collision_penalty={self.collision_penalty}, step_penalty*horizon={self.step_penalty * self.horizon})"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")

    @classmethod
    def default_for(cls, horizon: int) -> "RewardParams":
        return cls(
            step_penalty=1.0,
            goal_reward=10.0 * horizon,
            collision_penalty=10.0 * horizon,
            horizon=horizon,
            gamma=0.99,
        )


class RewardMachine:
    """The reach-avoid automaton's (location, symbol) table, stepped online or in batches."""

    def __init__(self, next_location: np.ndarray, weight: np.ndarray):
        self.next_location = next_location  # (2, 4) location indices
        self.weight = weight  # (2, 4) emitted weights

    def weights(self, symbols: Iterable[tuple[bool, bool]]) -> list[float]:
        """Weight sequence of the run from SEEKING over the (in_goal, collided) symbols."""
        next_location = self.next_location.tolist()
        weight = self.weight.tolist()
        q = SEEKING
        out = []
        for in_goal, collided in symbols:
            s = 2 * in_goal + collided
            out.append(weight[q][s])
            q = next_location[q][s]
        return out


def reach_avoid_machine(params: RewardParams) -> RewardMachine:
    """The reach-avoid table for the given reward shape.

    Before the first goal visit each step costs step_penalty (plus
    collision_penalty when the step collided); the first goal visit pays
    goal_reward; afterwards only collisions cost anything.
    """
    a = params.step_penalty
    b = params.goal_reward
    c = params.collision_penalty
    next_location = np.array([[SEEKING, SEEKING, DONE, DONE], [DONE] * 4], dtype=np.intp)
    weight = np.array([[-a, -a - c, b, b - c], [0.0, -c, 0.0, -c]])
    return RewardMachine(next_location, weight)


def score_observations(
    machine: RewardMachine,
    in_goal: np.ndarray,
    collided: np.ndarray,
    count: np.ndarray,
    valuation: Valuation,
) -> np.ndarray:
    """Values of many (in_goal, collided) observation sequences at once.

    in_goal and collided have shape (..., L); sequence k is the first
    count[k] entries along the last axis.  Returns the value of each
    sequence, equal to valuate(machine.weights(obs), valuation): the
    values are folded step by step in valuate's order of operations.
    """
    if valuation.kind == "avg" and (count == 0).any():
        raise ValueError("average of an empty weight sequence is undefined")
    symbols = 2 * in_goal.astype(np.intp) + collided
    gamma = valuation.gamma if valuation.kind == "discounted_sum" else 1.0
    location = np.full(count.shape, SEEKING)
    total = np.zeros(count.shape)
    g = 1.0
    for t in range(in_goal.shape[-1]):
        symbol = symbols[..., t]
        total = np.where(t < count, total + g * machine.weight[location, symbol], total)
        location = machine.next_location[location, symbol]
        g *= gamma
    if valuation.kind == "avg":
        total = total / count
    return total
