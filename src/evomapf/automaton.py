"""Weighted automata over observation symbols, and the reach-avoid reward built on them.

An automaton reads a finite symbol sequence and produces one weight per
symbol along each run.  Runs start in an initial location; a run is
accepting when its last location is final.  A valuation (sum, average,
or discounted sum) folds a weight sequence into a single number, and the
weight of a trajectory is the maximum valuation over its runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .gridworld import Cell

Symbol = Hashable

# Alphabet of reward observations: (in_goal, collision).
OBSERVATION_ALPHABET: tuple[tuple[bool, bool], ...] = (
    (False, False),
    (False, True),
    (True, False),
    (True, True),
)


class IncompleteAutomatonError(RuntimeError):
    """A run got stuck: some location has no successor for a symbol."""

    def __init__(self, location: str, symbol: Symbol):
        super().__init__(f"no transition from location {location!r} on symbol {symbol!r}")
        self.location = location
        self.symbol = symbol


@dataclass(frozen=True)
class Transition:
    source: str
    guard: Callable[[Symbol], bool]
    target: str
    weight: float | Callable[[Symbol], float]

    def weight_for(self, symbol: Symbol) -> float:
        return self.weight(symbol) if callable(self.weight) else self.weight


@dataclass(frozen=True)
class RunResult:
    locations: tuple[str, ...]
    weights: tuple[float, ...]
    accepting: bool


class WeightedAutomaton:
    def __init__(
        self,
        locations: Iterable[str],
        initial: Iterable[str],
        final: Iterable[str],
        transitions: Iterable[Transition],
    ):
        self.locations = frozenset(locations)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.transitions = tuple(transitions)
        if not self.initial <= self.locations:
            raise ValueError("initial locations must be a subset of locations")
        if not self.final <= self.locations:
            raise ValueError("final locations must be a subset of locations")
        for t in self.transitions:
            if t.source not in self.locations or t.target not in self.locations:
                raise ValueError(f"transition {t.source!r} -> {t.target!r} uses unknown locations")

    def successors(self, location: str, symbol: Symbol) -> list[tuple[str, float]]:
        """All (target, weight) pairs whose guard accepts the symbol."""
        return [
            (t.target, t.weight_for(symbol))
            for t in self.transitions
            if t.source == location and t.guard(symbol)
        ]

    def is_complete(self, symbols: Iterable[Symbol]) -> bool:
        """Every (location, symbol) pair has at least one successor."""
        return all(
            self.successors(q, s) for q in sorted(self.locations) for s in symbols
        )

    def is_deterministic(self, symbols: Iterable[Symbol]) -> bool:
        """Single initial location and exactly one successor per (location, symbol)."""
        if len(self.initial) != 1:
            return False
        return all(
            len(self.successors(q, s)) == 1
            for q in sorted(self.locations)
            for s in symbols
        )


def runs(automaton: WeightedAutomaton, symbols: Sequence[Symbol]) -> list[RunResult]:
    """Enumerate every run of the automaton on the symbol sequence.

    Raises IncompleteAutomatonError if any run gets stuck.  The empty
    sequence yields one zero-weight run per initial location.
    """
    partial: list[tuple[list[str], list[float]]] = [
        ([q], []) for q in sorted(automaton.initial)
    ]
    for symbol in symbols:
        extended: list[tuple[list[str], list[float]]] = []
        for locs, weights in partial:
            succ = automaton.successors(locs[-1], symbol)
            if not succ:
                raise IncompleteAutomatonError(locs[-1], symbol)
            for target, w in succ:
                extended.append((locs + [target], weights + [w]))
        partial = extended
    return [
        RunResult(tuple(locs), tuple(weights), locs[-1] in automaton.final)
        for locs, weights in partial
    ]


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


def trajectory_weight(
    automaton: WeightedAutomaton, symbols: Sequence[Symbol], valuation: Valuation
) -> float:
    """Maximum valuation over all runs; the max resolves nondeterminism."""
    return max(valuate(r.weights, valuation) for r in runs(automaton, symbols))


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
        if self.step_penalty < 0:
            raise ValueError("step_penalty must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not (self.goal_reward >= self.collision_penalty > self.step_penalty * self.horizon):
            raise ValueError(
                "reward constraint violated: need b >= c > a*T "
                f"(goal_reward={self.goal_reward}, collision_penalty={self.collision_penalty}, "
                f"step_penalty*horizon={self.step_penalty * self.horizon})"
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


SEEKING = "seeking"
DONE = "done"


def reach_avoid_automaton(params: RewardParams) -> WeightedAutomaton:
    """Two-location automaton over (in_goal, collision) observations.

    Before the first goal visit each step costs step_penalty (plus
    collision_penalty when the step collided); the first goal visit pays
    goal_reward; afterwards only collisions cost anything.  Accepting
    means the goal was visited.
    """
    a = params.step_penalty
    b = params.goal_reward
    c = params.collision_penalty

    def seeking_weight(sym: Symbol) -> float:
        _, collided = sym
        return -a - (c if collided else 0.0)

    def arrival_weight(sym: Symbol) -> float:
        _, collided = sym
        return b - (c if collided else 0.0)

    def done_weight(sym: Symbol) -> float:
        _, collided = sym
        return -c if collided else 0.0

    return WeightedAutomaton(
        locations=[SEEKING, DONE],
        initial=[SEEKING],
        final=[DONE],
        transitions=[
            Transition(SEEKING, lambda s: not s[0], SEEKING, seeking_weight),
            Transition(SEEKING, lambda s: s[0], DONE, arrival_weight),
            Transition(DONE, lambda s: True, DONE, done_weight),
        ],
    )


class RewardMachine:
    """Online interface to a deterministic, complete weighted automaton."""

    def __init__(self, automaton: WeightedAutomaton, alphabet: Sequence[Symbol]):
        if not automaton.is_complete(alphabet):
            raise ValueError("reward machine needs a complete automaton over its alphabet")
        if not automaton.is_deterministic(alphabet):
            raise ValueError("reward machine needs a deterministic automaton")
        self.automaton = automaton
        self.alphabet = tuple(alphabet)
        (self.initial,) = automaton.initial
        # Dense lookup: (location, symbol) -> (next location, transition).
        self._table: dict[tuple[str, Symbol], tuple[str, Transition]] = {}
        for q in automaton.locations:
            for s in self.alphabet:
                for t in automaton.transitions:
                    if t.source == q and t.guard(s):
                        self._table[(q, s)] = (t.target, t)
                        break
        # The same table as arrays over location and symbol indices.
        self.locations = tuple(sorted(automaton.locations))
        self.symbol_index = {s: k for k, s in enumerate(self.alphabet)}
        location_index = {q: k for k, q in enumerate(self.locations)}
        self.initial_index = location_index[self.initial]
        shape = (len(self.locations), len(self.alphabet))
        self.next_location = np.empty(shape, dtype=np.intp)
        self.weight = np.empty(shape)
        for (q, s), (target, t) in self._table.items():
            cell = location_index[q], self.symbol_index[s]
            self.next_location[cell] = location_index[target]
            self.weight[cell] = t.weight_for(s)

    def step_reward(self, location: str, symbol: Symbol) -> tuple[str, float]:
        """One online step: the successor location and the emitted weight."""
        hit = self._table.get((location, symbol))
        if hit is None:
            raise IncompleteAutomatonError(location, symbol)
        target, transition = hit
        return target, transition.weight_for(symbol)

    def weights(self, symbols: Iterable[Symbol]) -> list[float]:
        """Weight sequence of the unique run over the symbols."""
        q = self.initial
        out = []
        for s in symbols:
            q, w = self.step_reward(q, s)
            out.append(w)
        return out


def reach_avoid_machine(params: RewardParams) -> RewardMachine:
    return RewardMachine(reach_avoid_automaton(params), OBSERVATION_ALPHABET)


def score_observations(
    machine: RewardMachine,
    in_goal: np.ndarray,
    collided: np.ndarray,
    count: np.ndarray,
    valuation: Valuation,
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and values of many (in_goal, collided) observation sequences at once.

    in_goal and collided have shape (..., L); sequence k is the first
    count[k] entries along the last axis.  Returns the weight array (the
    machine's run over every entry, padding included) and the value of
    each sequence, equal to valuate(machine.weights(obs), valuation):
    the values are folded step by step in valuate's order of operations.
    """
    try:
        columns = np.array(
            [[machine.symbol_index[(g, c)] for c in (False, True)] for g in (False, True)]
        )
    except KeyError as missing:
        raise IncompleteAutomatonError(machine.initial, missing.args[0]) from None
    if valuation.kind == "avg" and (count == 0).any():
        raise ValueError("average of an empty weight sequence is undefined")
    symbols = columns[in_goal.astype(np.intp), collided.astype(np.intp)]
    gamma = valuation.gamma if valuation.kind == "discounted_sum" else 1.0
    location = np.full(count.shape, machine.initial_index)
    weights = np.empty(in_goal.shape)
    total = np.zeros(count.shape)
    g = 1.0
    for t in range(in_goal.shape[-1]):
        symbol = symbols[..., t]
        w = weights[..., t] = machine.weight[location, symbol]
        total = np.where(t < count, total + g * w, total)
        location = machine.next_location[location, symbol]
        g *= gamma
    if valuation.kind == "avg":
        total = total / count
    return weights, total


def toa(cells: Sequence[Cell], goals: frozenset[Cell] | set[Cell]) -> int | None:
    """Time of arrival: index of the first visited goal cell, or None."""
    for t, cell in enumerate(cells):
        if cell in goals:
            return t
    return None
