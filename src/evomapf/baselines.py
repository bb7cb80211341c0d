"""Classical baselines: A* planning plus tabular Q-learning and Monte-Carlo control.

The two learners share the reward shape and the single shared policy
table with the replicator trainer, so benchmark comparisons differ only
in the training rule.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .automaton import RewardParams, reach_avoid_machine, SEEKING
from .egt import NUM_ACTIONS, TabularPolicy
from .gridworld import (
    Action,
    Cell,
    COLLISION_EVENTS,
    ConfigError,
    EnvConfig,
    GridEnv,
    GridMap,
    StepEvent,
    episode_steps,
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


def _pick_epsilon_greedy(q_row: np.ndarray, epsilon: float, rng: np.random.Generator) -> Action:
    if rng.random() < epsilon:
        return Action(int(rng.integers(NUM_ACTIONS)))
    return Action(int(np.argmax(q_row)))


def qlearning_table(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Tabular Q-learning on the shared table; returns the (H, W, A) Q-values.

    Every agent feeds transitions into one Q-table keyed by its own cell.
    Step rewards come from the reach-avoid machine, with the arrival
    bonus folded into the arriving transition, which is treated as
    terminal for bootstrapping.
    """
    env = GridEnv(env_config)
    grid = env_config.grid
    seeking = reach_avoid_machine(rewards).weight[SEEKING].tolist()
    penalty_plain, penalty_collision, arrival_bonus = seeking[:3]
    q = np.zeros((grid.height, grid.width, NUM_ACTIONS))
    epsilon = params.epsilon
    lr = params.learning_rate
    gamma = params.gamma

    def choose(agent: int, cell: Cell) -> Action:
        return _pick_epsilon_greedy(q[cell.y, cell.x], epsilon, rng)

    for _ in range(params.episodes):
        for before, actions, after, events in episode_steps(env, env.reset(rng), choose, rng):
            for i, st in enumerate(before):
                if not st.active:
                    continue
                ev = events[i]
                reward = penalty_collision if ev in COLLISION_EVENTS else penalty_plain
                terminal = ev is StepEvent.REACHED_GOAL
                if terminal:
                    reward += arrival_bonus
                nxt = after[i].cell
                target = reward if terminal else reward + gamma * q[nxt.y, nxt.x].max()
                sy, sx = st.cell.y, st.cell.x
                q[sy, sx, actions[i]] += lr * (target - q[sy, sx, actions[i]])
        epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)
    return q


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
    env = GridEnv(env_config)
    grid = env_config.grid
    seeking = reach_avoid_machine(rewards).weight[SEEKING].tolist()
    penalty_plain, penalty_collision, arrival_bonus = seeking[:3]
    sums = np.zeros((grid.height, grid.width, NUM_ACTIONS))
    counts = np.zeros((grid.height, grid.width, NUM_ACTIONS), dtype=np.int64)
    q = np.zeros_like(sums)
    epsilon = params.epsilon
    gamma = params.gamma

    def choose(agent: int, cell: Cell) -> Action:
        return _pick_epsilon_greedy(q[cell.y, cell.x], epsilon, rng)

    done = 0
    while done < params.episodes:
        batch = min(params.mc_batch, params.episodes - done)
        for _ in range(batch):
            steps: list[list[tuple[Cell, Action, float]]] = [[] for _ in range(env_config.num_agents)]
            for before, actions, _, events in episode_steps(env, env.reset(rng), choose, rng):
                for i, st in enumerate(before):
                    if not st.active:
                        continue
                    ev = events[i]
                    reward = penalty_collision if ev in COLLISION_EVENTS else penalty_plain
                    if ev is StepEvent.REACHED_GOAL:
                        reward += arrival_bonus
                    steps[i].append((st.cell, actions[i], reward))
            for agent_steps in steps:
                ret = 0.0
                returns = [0.0] * len(agent_steps)
                for t in range(len(agent_steps) - 1, -1, -1):
                    ret = agent_steps[t][2] + gamma * ret
                    returns[t] = ret
                first_visit: dict[tuple[Cell, Action], int] = {}
                for t, (cell, action, _) in enumerate(agent_steps):
                    first_visit.setdefault((cell, action), t)
                for (cell, action), t in first_visit.items():
                    sums[cell.y, cell.x, action] += returns[t]
                    counts[cell.y, cell.x, action] += 1
            epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)
            done += 1
        nonzero = counts > 0
        q[nonzero] = sums[nonzero] / counts[nonzero]
    return q


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
