"""Classical baselines: shortest paths from one goal-distance field, plus tabular Q-learning
and Monte-Carlo control.

On a unit-cost grid a breadth-first field gives A*'s distances for every
cell at once.  The two learners share the reward shape and the single
shared policy table with the replicator trainer, so benchmark
comparisons differ only in the training rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import RewardParams, reach_avoid_machine, SEEKING
from .egt import NUM_ACTIONS, TabularPolicy, check_horizon
from .gridworld import (
    ACTION_DELTAS,
    Action,
    BatchRollout,
    Cell,
    COLLISION_EVENTS,
    EnvConfig,
    GridEnv,
    GridMap,
    MOVE_ACTIONS,
    STEP_EVENTS,
    check_range,
    draw_batch,
    episode_steps,
    roll_batch,
    _REACHED,
)


def goal_distances(free: np.ndarray, goals: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Steps from each cell of the (H, W) free mask to its nearest goal (given as ys, xs) over
    4-connected free cells, or -1 where no goal can be reached.  Breadth-first, as a flood fill
    that records the round in which it first reaches each cell."""
    dist = np.full(free.shape, -1)
    reached = np.zeros_like(free)
    reached[goals] = True
    new, steps = reached, 0
    while new.any():
        dist[new] = steps
        grown = reached.copy()
        grown[1:] |= reached[:-1]
        grown[:-1] |= reached[1:]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= free
        new, reached, steps = grown ^ reached, grown, steps + 1
    return dist


def shortest_moves(grid: GridMap) -> np.ndarray:
    """(H, W) table of each cell's first move, in Action order, that steps one closer to a goal;
    goals, obstacles and cells walled off from every goal STAY."""
    free = np.ones((grid.height, grid.width), dtype=bool)
    for cell in grid.obstacles:
        free[cell.y, cell.x] = False
    dist = goal_distances(free, (np.array([g.y for g in grid.goals]), np.array([g.x for g in grid.goals])))
    padded = np.pad(dist, 1, constant_values=-1)
    h, w = dist.shape
    closer = [(padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] == dist - 1) & (dist > 0)
              for dx, dy in map(ACTION_DELTAS.get, MOVE_ACTIONS)]
    return np.select(closer, MOVE_ACTIONS, Action.STAY)


def astar(grid: GridMap, start: Cell) -> list[Cell] | None:
    """Shortest path from start to the nearest goal, walking shortest_moves: the length A* finds.

    None off the map, on an obstacle or when no goal can be reached; [start] on a goal.
    """
    if not grid.passable(start):
        return None
    moves = shortest_moves(grid)
    path = [start]
    while (action := moves[path[-1].y, path[-1].x]) != Action.STAY:
        dx, dy = ACTION_DELTAS[action]
        path.append(Cell(path[-1].x + dx, path[-1].y + dy))
    return path if path[-1] in grid.goals else None


@dataclass(frozen=True)
class LearnerParams:
    """Shared hyperparameters for the tabular learners; both discount with RewardParams.gamma."""

    episodes: int = 2000
    learning_rate: float = 0.1  # Q-learning only
    epsilon_greedy: float = 0.2
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.02
    mc_batch: int = 50  # Monte-Carlo: episodes per policy-improvement batch

    def __post_init__(self) -> None:
        check_range("episodes", self.episodes, 1)
        check_range("mc_batch", self.mc_batch, 1)
        for name in ("learning_rate", "epsilon_greedy", "epsilon_decay", "epsilon_min"):
            check_range(name, getattr(self, name), 0, 1)


def _step_rewards(rewards: RewardParams) -> list[float]:
    """Reward per event code: the collision or plain step symbol, plus the goal symbol on arrival."""
    seeking = reach_avoid_machine(rewards).weight[SEEKING].tolist()
    step_reward = [seeking[1] if ev in COLLISION_EVENTS else seeking[0] for ev in STEP_EVENTS]
    step_reward[_REACHED] += seeking[2]
    return step_reward


def qlearning_table(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Tabular Q-learning on the shared table; returns the (H, W, A) Q-values.

    Every agent of params.episodes epsilon-greedy episodes feeds its
    transitions, in step and agent order, into one Q-table (a Python row
    per flat cell) keyed by its own cell, so updates steer the rest of
    the episode.  Greedy picks take a row's first maximum, epsilon decays
    after every episode, and arrival is terminal for bootstrapping.
    """
    check_horizon(rewards, env_config)
    env = GridEnv(env_config)
    grid = env_config.grid
    q = [[0.0] * NUM_ACTIONS for _ in range(grid.width * grid.height)]
    step_reward = _step_rewards(rewards)
    lr, gamma, epsilon = params.learning_rate, rewards.gamma, params.epsilon_greedy

    def choose(cells: list[int]) -> list[int]:
        # Each explore test draws before its random action: the condition is evaluated first.
        return [int(rng.integers(NUM_ACTIONS)) if rng.random() < epsilon else q[c].index(max(q[c])) for c in cells]

    for _ in range(params.episodes):
        for _, pre, actions, final, events in episode_steps(env, env.reset(rng), choose, rng):
            for cell, action, nxt, ev in zip(pre, actions, final, events):
                reward = step_reward[ev]
                target = reward if ev == _REACHED else reward + gamma * max(q[nxt])
                row = q[cell]
                row[action] += lr * (target - row[action])
        epsilon = max(params.epsilon_min, epsilon * params.epsilon_decay)
    return np.array(q).reshape(grid.height, grid.width, NUM_ACTIONS)


def monte_carlo_table(
    env_config: EnvConfig,
    rewards: RewardParams,
    params: LearnerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-visit Monte-Carlo control on the shared table; returns the (H, W, A) Q-values.

    Q is frozen within each batch of mc_batch episodes, so a batch is one
    roll_batch call on draw_batch's draws from rng, under the epsilon-greedy
    table: each episode explores with its own epsilon, which decays after
    every episode, and is otherwise greedy (a row's first maximum).  Q is
    the running mean of the first-visit returns that credit_first_visits adds up.
    """
    check_horizon(rewards, env_config)
    env = GridEnv(env_config)
    grid = env_config.grid
    step_reward = np.array(_step_rewards(rewards))
    q = np.zeros((grid.width * grid.height, NUM_ACTIONS))
    sums, counts = np.zeros(q.size), np.zeros(q.size, dtype=np.int64)
    epsilons = [params.epsilon_greedy]
    for _ in range(params.episodes - 1):
        epsilons.append(max(params.epsilon_min, epsilons[-1] * params.epsilon_decay))
    for first in range(0, params.episodes, params.mc_batch):
        mix = np.array(epsilons[first : first + params.mc_batch])
        # The greedy table's cumulative distribution: 0 before each row's first maximum, 1 from it on.
        greedy = np.eye(NUM_ACTIONS)[q.argmax(axis=1)].cumsum(axis=1)
        rolled = roll_batch(env, greedy, draw_batch(env, len(mix), rng), mix)
        credit_first_visits(rolled, step_reward, rewards.gamma, sums, counts)
        seen = counts > 0
        q.reshape(-1)[seen] = sums[seen] / counts[seen]
    return q.reshape(grid.height, grid.width, NUM_ACTIONS)


def credit_first_visits(
    rolled: BatchRollout, step_reward: np.ndarray, gamma: float, sums: np.ndarray, counts: np.ndarray
) -> None:
    """Add each trajectory's first-visit returns to the flat (cell * 5 + action) sums and counts.

    step_reward holds the reward of each event code, and the keys are
    BatchRollout.visit_keys's, as in estimate_fitness.  Returns-to-go walk
    back from each trajectory's last step, ret = reward + gamma * ret, as
    a loop over one trajectory would.  Each distinct (trajectory, cell,
    action) key takes the return of its earliest step, and np.add.at adds
    the keys in trajectory order, so every sum adds its returns in
    (episode, agent) order, one at a time.
    """
    keys, taken = rolled.visit_keys(sums.size)
    reward = np.where(taken, step_reward[rolled.events], 0.0)
    returns = np.empty_like(reward)
    ret = np.zeros(reward.shape[:2])
    for t in range(reward.shape[2] - 1, -1, -1):
        ret = reward[:, :, t] + gamma * ret
        returns[:, :, t] = ret
    # np.unique sorts by trajectory first, and its index is each key's earliest step.
    distinct, earliest = np.unique(keys, return_index=True)
    slot = distinct % sums.size
    np.add.at(sums, slot, returns[taken][earliest])
    np.add.at(counts, slot, 1)


# The tabular learners by algorithm name; each returns its (H, W, A) Q-values.
LEARNERS = {"qlearning": qlearning_table, "montecarlo": monte_carlo_table}


def learn(algorithm: str, env_config: EnvConfig, rewards: RewardParams, params: LearnerParams,
          rng: np.random.Generator) -> TabularPolicy:
    """Train the named learner; returns the greedy policy over its Q-values (a row's first maximum wins)."""
    grid = env_config.grid
    q = LEARNERS[algorithm](env_config, rewards, params, rng)
    return TabularPolicy(grid.width, grid.height, np.eye(NUM_ACTIONS)[q.argmax(axis=2)], grid.free_cells())
