"""Reference implementations the tests compare the library against.

Everything here is written from scratch against the plain definitions
(breadth-first search, a connectivity flood fill, brute-force joint-move
resolution, pairwise batched conflict rounds, one generator per episode
for batch draws, a direct scan and a guard-based automaton for reach-avoid scoring,
per-trajectory set loops for fitness, a row-by-row
replicator step, a per-trajectory first-visit Monte-Carlo credit loop)
so that tests never check the library against itself.
Keep this module free of evomapf imports.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np


def bfs_path_length(width, height, obstacles, start, goals):
    """Length (in moves) of a shortest 4-connected path, or None."""
    if start in goals:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (x, y), dist = frontier.popleft()
        for nx, ny in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            if (nx, ny) in obstacles or (nx, ny) in seen:
                continue
            if (nx, ny) in goals:
                return dist + 1
            seen.add((nx, ny))
            frontier.append(((nx, ny), dist + 1))
    return None


def manhattan(a, b):
    """Taxicab distance between two (x, y) cells."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def reaches_everywhere(free, seeds):
    """Whether every free cell of the (H, W) mask connects to a seed cell, by flood fill.

    seeds holds the seeds' (ys, xs).  Each round adds the free neighbours
    of the reached cells, until a round adds none.
    """
    reached = np.zeros_like(free)
    reached[seeds] = True
    while True:
        grown = reached.copy()
        grown[1:] |= reached[:-1]
        grown[:-1] |= reached[1:]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= free
        if np.array_equal(grown, reached):
            return np.array_equal(reached, free)
        reached = grown


MOVE_DELTAS = {
    "up": (0, -1),
    "down": (0, 1),
    "left": (-1, 0),
    "right": (1, 0),
    "stay": (0, 0),
}


def resolve_joint_move(width, height, obstacles, positions, moves):
    """Brute-force one deterministic joint step (no slip, all agents live).

    positions: list of (x, y); moves: list of move names.  Returns
    (new_positions, outcomes) where each outcome is one of "moved",
    "blocked", or "conflict".  Movers that would share a cell or swap
    cells are put back where they started, repeatedly, until the
    configuration is stable; anyone ever caught in that is a "conflict".
    """
    n = len(positions)
    outcomes = ["moved"] * n
    finals = []
    for i, ((x, y), move) in enumerate(zip(positions, moves)):
        dx, dy = MOVE_DELTAS[move]
        tx, ty = x + dx, y + dy
        if (tx, ty) == (x, y):
            finals.append((x, y))
        elif 0 <= tx < width and 0 <= ty < height and (tx, ty) not in obstacles:
            finals.append((tx, ty))
        else:
            finals.append((x, y))
            outcomes[i] = "blocked"

    while True:
        to_revert = set()
        for i in range(n):
            for j in range(i + 1, n):
                same_cell = finals[i] == finals[j]
                swapped = (
                    finals[i] == positions[j]
                    and finals[j] == positions[i]
                    and finals[i] != positions[i]
                    and finals[j] != positions[j]
                )
                if same_cell or swapped:
                    for k in (i, j):
                        outcomes[k] = "conflict"
                        if finals[k] != positions[k]:
                            to_revert.add(k)
        if not to_revert:
            break
        for k in to_revert:
            finals[k] = positions[k]
    return finals, outcomes


# Event codes (positions in evomapf's StepEvent order) that resolve_conflicts_pairwise writes.
VERTEX_CODE, SWAP_CODE = 2, 3


def resolve_conflicts_pairwise(pre, final, active, events):
    """Batched revert rounds over (episodes, agents) arrays by pairwise comparison.

    pre and final hold each agent's cell before and after its move
    (final == pre for agents that stay, are blocked or are inactive);
    only active agents of the same episode conflict.  Each round marks
    vertex conflicts, then swap conflicts, on the moves as they stand at
    the start of the round; an agent keeps the first conflict event it
    gets.  Conflicting movers are reverted and rounds repeat until none
    is left.  Updates events in place; returns the resolved cells.
    """
    n = pre.shape[1]
    pairs = active[:, :, None] & active[:, None, :] & ~np.eye(n, dtype=bool)
    while True:
        moved = final != pre
        vertex = ((final[:, :, None] == final[:, None, :]) & pairs).any(axis=2)
        events[vertex & (events != SWAP_CODE)] = VERTEX_CODE
        swap = (
            (final[:, :, None] == pre[:, None, :])
            & (pre[:, :, None] == final[:, None, :])
            & moved[:, :, None]
            & moved[:, None, :]
            & pairs
        ).any(axis=2)
        events[swap & (events != VERTEX_CODE)] = SWAP_CODE
        revert = (vertex & moved) | swap
        if not revert.any():
            return final
        final = np.where(revert, pre, final)


def per_episode_draws(env, seeds):
    """Batch draws from one generator per episode: (starts, uniforms, slip_uniforms, slip_moves).

    Row k holds what run_episode draws on default_rng(seeds[k]), in its
    order: the reset's `choice` of start cells (as flat cells), then the
    horizon * agents policy uniforms; at slip > 0, then as many slip
    uniforms and slip moves in [0, 4).  The slip arrays are None at slip 0.
    """
    n, slip = env.config.num_agents, env.config.slip_probability
    size = env.config.horizon * n
    starts, uniforms, slip_uniforms, slip_moves = [], [], [], []
    for seed in np.asarray(seeds).tolist():
        rng = np.random.default_rng(seed)
        starts.append(env.start_index[rng.choice(len(env.start_index), size=n, replace=False)])
        uniforms.append(rng.random(size))
        if slip > 0.0:
            slip_uniforms.append(rng.random(size))
            slip_moves.append(rng.integers(4, size=size))
    slips = (np.array(slip_uniforms), np.array(slip_moves)) if slip > 0.0 else (None, None)
    return np.array(starts), np.array(uniforms), *slips


def reach_avoid_weights(observations, a, b, c):
    """Score (in_goal, collided) pairs directly: -a per pre-goal step
    (minus c more when collided), b on first goal entry, afterwards 0
    or -c."""
    weights = []
    arrived = False
    for in_goal, collided in observations:
        if arrived:
            weights.append(-c if collided else 0.0)
        elif in_goal:
            weights.append(b - (c if collided else 0.0))
            arrived = True
        else:
            weights.append(-a - (c if collided else 0.0))
    return weights


class Run(NamedTuple):
    weights: tuple
    accepting: bool


def reach_avoid_automaton(params):
    """The reach-avoid reward as a guard-based weighted automaton.

    params is any object with step_penalty, goal_reward and
    collision_penalty.  Returns (initial, final, transitions), each
    transition a (source, guard, target, weight) tuple whose guard and
    weight are functions of the (in_goal, collided) symbol.
    """
    a, b, c = params.step_penalty, params.goal_reward, params.collision_penalty
    transitions = [
        ("seeking", lambda s: not s[0], "seeking", lambda s: -a - (c if s[1] else 0.0)),
        ("seeking", lambda s: s[0], "done", lambda s: b - (c if s[1] else 0.0)),
        ("done", lambda s: True, "done", lambda s: -c if s[1] else 0.0),
    ]
    return "seeking", {"done"}, transitions


def runs(automaton, symbols):
    """Every run of the automaton on the symbols, as Run(weights, accepting).

    Follows each transition whose guard accepts the symbol, so a
    nondeterministic automaton yields one run per branch; a run with no
    successor is dropped.
    """
    initial, final, transitions = automaton
    partial = [(initial, ())]
    for symbol in symbols:
        partial = [
            (target, weights + (weight(symbol),))
            for location, weights in partial
            for source, guard, target, weight in transitions
            if source == location and guard(symbol)
        ]
    return [Run(weights, location in final) for location, weights in partial]


def fitness_sums(width, height, batch, num_actions=5):
    """Per-(cell, action) return sums and counts, by set loops.

    Each trajectory adds its return once to every distinct (cell, action)
    pair it takes, in trajectory order.  Returns (action_sums,
    action_counts), both of shape (height, width, num_actions).
    """
    action_sums = np.zeros((height, width, num_actions))
    action_counts = np.zeros((height, width, num_actions), dtype=np.int64)
    for rollout, agent_returns in zip(batch.rollouts, batch.returns):
        for traj, ret in zip(rollout.trajectories, agent_returns):
            for cell, action in {(c, a) for c, a in zip(traj.cells, traj.actions)}:
                action_sums[cell.y, cell.x, action] += ret
                action_counts[cell.y, cell.x, action] += 1
    return action_sums, action_counts


def replicator_step(probs, action_sums, action_counts, alpha):
    """One replicator step, row by row, over (height, width, actions) tables.

    Rows with observed actions move toward fitness-proportional mass on
    those actions (fitness shifted to start at 1), keeping the prior mass
    of the observed set; rows without observations or without prior mass
    on them are left alone.  Returns a new table.
    """
    probs = probs.copy()
    for y, x in np.argwhere(action_counts.sum(axis=2) > 0):
        counts = action_counts[y, x]
        mask = counts > 0
        f = action_sums[y, x, mask] / counts[mask]
        f = f - f.min() + 1.0
        prior = probs[y, x, mask]
        mass = prior.sum()
        if mass <= 0.0:
            continue
        weighted = prior * f
        target = weighted / weighted.sum() * mass
        probs[y, x, mask] = (1.0 - alpha) * prior + alpha * target
        probs[y, x] /= probs[y, x].sum()
    return probs


def first_visit_credit(trajectories, gamma, sums, counts):
    """First-visit Monte-Carlo credit, one trajectory at a time.

    trajectories holds one list of (slot, reward) steps per trajectory,
    in (episode, agent) order.  Each trajectory adds, for every distinct
    slot it takes, the discounted return-to-go from that slot's first
    visit to sums[slot], and 1 to counts[slot].  Returns the slots
    touched.
    """
    touched = set()
    for steps in trajectories:
        # Walking back from the end, the last return written per slot is its first visit's.
        ret = 0.0
        first_return = {}
        for slot, reward in reversed(steps):
            ret = reward + gamma * ret
            first_return[slot] = ret
        for slot, ret in first_return.items():
            sums[slot] += ret
            counts[slot] += 1
        touched.update(first_return)
    return touched
