"""Classical baselines: A* planning plus tabular Q-learning and Monte-Carlo control.

The two learners share the reward shape and the single shared policy
table with the replicator trainer, so benchmark comparisons differ only
in the training rule.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .automaton import RewardParams, reach_avoid_machine, SEEKING
from .egt import NUM_ACTIONS, TabularPolicy
from .gridworld import (
    Cell,
    COLLISION_EVENTS,
    ConfigError,
    EnvConfig,
    GridEnv,
    GridMap,
    STEP_EVENTS,
    episode_steps,
    _INACTIVE,
    _REACHED,
)


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y)


def astar(grid: GridMap, start: Cell) -> list[Cell] | None:
    """Shortest 4-connected path from start to the nearest goal, or None.

    The heuristic is the minimum Manhattan distance over all goals; ties
    in f are broken by the smaller (y, x) of the expanded cell, which
    makes the search fully deterministic.
    """
    if not grid.passable(start):
        return None
    goals = sorted(grid.goals)

    def h(cell: Cell) -> int:
        return min(manhattan(cell, g) for g in goals)

    open_heap: list[tuple[int, int, int]] = [(h(start), start.y, start.x)]
    g_score: dict[Cell, int] = {start: 0}
    came_from: dict[Cell, Cell] = {}
    closed: set[Cell] = set()
    while open_heap:
        _, y, x = heapq.heappop(open_heap)
        current = Cell(x, y)
        if current in closed:
            continue
        closed.add(current)
        if current in grid.goals:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return path
        base = g_score[current]
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            neighbor = Cell(x + dx, y + dy)
            if not grid.passable(neighbor) or neighbor in closed:
                continue
            tentative = base + 1
            if tentative < g_score.get(neighbor, np.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                heapq.heappush(open_heap, (tentative + h(neighbor), neighbor.y, neighbor.x))
    return None


@dataclass(frozen=True)
class LearnerParams:
    """Shared hyperparameters for the tabular learners."""

    episodes: int = 2000
    learning_rate: float = 0.1  # Q-learning only
    gamma: float = 0.99
    epsilon: float = 0.2
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.02
    mc_batch: int = 50  # Monte-Carlo: episodes per policy-improvement batch

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ConfigError("episodes must be at least 1")
        if self.mc_batch < 1:
            raise ConfigError("mc_batch must be at least 1")
        for name in ("learning_rate", "gamma", "epsilon", "epsilon_decay", "epsilon_min"):
            value = getattr(self, name)
            # Also false for NaN.
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a finite number in [0, 1], got {value!r}")


def _epsilon_greedy_episodes(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    q: list[list[float]],
    rng: np.random.Generator,
) -> Iterator[Iterator[tuple[int, int, int, float, int, bool]]]:
    """Play params.episodes epsilon-greedy episodes over q, one row per flat cell.

    Each episode is an iterator over the (agent, cell, action, reward,
    next_cell, arrived) transitions of its active agents, in step and
    agent order.  Actions are drawn lazily, so updates to q steer the rest
    of the episode.  Greedy picks take a row's first maximum, and epsilon
    decays after every episode.
    """
    env = GridEnv(env_config)
    seeking = reach_avoid_machine(rewards).weight[SEEKING].tolist()
    # Reward per event code: the collision or plain step symbol, plus the goal symbol on arrival.
    step_reward = [seeking[1] if ev in COLLISION_EVENTS else seeking[0] for ev in STEP_EVENTS]
    step_reward[_REACHED] += seeking[2]
    epsilon = params.epsilon

    def choose(agent: int, cell: int) -> int:
        if rng.random() < epsilon:
            return int(rng.integers(NUM_ACTIONS))
        row = q[cell]
        return row.index(max(row))

    for _ in range(params.episodes):
        yield (
            (i, c, a, step_reward[ev], f, ev == _REACHED)
            for pre, actions, final, events in episode_steps(env, env.reset(rng), choose, rng)
            for i, (c, a, f, ev) in enumerate(zip(pre, actions, final, events))
            if ev != _INACTIVE
        )
        epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)


def qlearning_table(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Tabular Q-learning on the shared table; returns the (H, W, A) Q-values.

    Every agent feeds transitions into one Q-table keyed by its own cell.
    The arriving transition is treated as terminal for bootstrapping.
    """
    grid = env_config.grid
    q = [[0.0] * NUM_ACTIONS for _ in range(grid.width * grid.height)]
    lr = params.learning_rate
    gamma = params.gamma
    for episode in _epsilon_greedy_episodes(env_config, rewards, params, q, rng):
        for _, cell, action, reward, nxt, arrived in episode:
            target = reward if arrived else reward + gamma * max(q[nxt])
            row = q[cell]
            row[action] += lr * (target - row[action])
    return np.array(q).reshape(grid.height, grid.width, NUM_ACTIONS)


def qlearning_train(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> TabularPolicy:
    """Greedy policy over the learned Q-table."""
    grid = env_config.grid
    q = qlearning_table(env_config, rewards, params, rng)
    return TabularPolicy(grid.width, grid.height, q, grid.free_cells()).greedy()


def monte_carlo_table(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-visit Monte-Carlo control on the shared table; returns the (H, W, A) Q-values.

    Rolls episodes with an epsilon-greedy behavior policy, averages
    first-visit discounted returns-to-go per (cell, action) across the
    trajectories of every agent, and acts greedily on the running means.
    """
    grid = env_config.grid
    cells = grid.width * grid.height
    sums = [[0.0] * NUM_ACTIONS for _ in range(cells)]
    counts = [[0] * NUM_ACTIONS for _ in range(cells)]
    q = [[0.0] * NUM_ACTIONS for _ in range(cells)]
    gamma = params.gamma
    touched: set[tuple[int, int]] = set()
    for done, episode in enumerate(_epsilon_greedy_episodes(env_config, rewards, params, q, rng), 1):
        steps: list[list[tuple[int, int, float]]] = [[] for _ in range(env_config.num_agents)]
        for agent, cell, action, reward, _, _ in episode:
            steps[agent].append((cell, action, reward))
        for agent_steps in steps:
            # Walking back from the end, the last return written per pair is its first visit's.
            ret = 0.0
            first_return: dict[tuple[int, int], float] = {}
            for cell, action, reward in reversed(agent_steps):
                ret = reward + gamma * ret
                first_return[cell, action] = ret
            for (cell, action), ret in first_return.items():
                sums[cell][action] += ret
                counts[cell][action] += 1
            touched.update(first_return)
        # Q is frozen within a batch of mc_batch episodes.
        if done % params.mc_batch == 0 or done == params.episodes:
            for cell, action in touched:
                q[cell][action] = sums[cell][action] / counts[cell][action]
            touched.clear()
    return np.array(q).reshape(grid.height, grid.width, NUM_ACTIONS)


def monte_carlo_train(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> TabularPolicy:
    """Greedy policy over the Monte-Carlo value estimates."""
    grid = env_config.grid
    q = monte_carlo_table(env_config, rewards, params, rng)
    return TabularPolicy(grid.width, grid.height, q, grid.free_cells()).greedy()
