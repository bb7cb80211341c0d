"""Benchmark harness: map generation, policy evaluation, and suite runs.

Evaluation rolls frozen tabular policies over seeded episodes and
reports success rate, timesteps to goal, obstacle clearance, and
agent-agent collisions.  The A* baseline is one such policy: each cell
takes its shortest move toward a goal, read off one breadth-first
distance field, which also checks that a generated map is connected.
Suites sweep grid sizes, agent counts, and algorithms into a CSV where
every algorithm sees the identical map and start draws.
"""
from __future__ import annotations

import csv
import os
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .automaton import RewardParams, RewardMachine
from .baselines import LEARNERS, LearnerParams, goal_distances, learn, shortest_moves
from .egt import NUM_ACTIONS, TabularPolicy, TrainConfig, train
from .gridworld import (
    Cell,
    CONFLICT_EVENTS,
    ConfigError,
    EnvConfig,
    EpisodeRollout,
    GridEnv,
    GridMap,
    check_range,
    run_episode,
)

ALGORITHMS = ("egt", "astar", *LEARNERS)


def obstacle_distance_field(grid: GridMap) -> np.ndarray | None:
    """Manhattan distance from each cell to the nearest obstacle; None if no obstacles.

    The taxicab transform is separable: a 1-D transform along the rows,
    then one along the columns.  Along a line, min_j d[j] + |i - j| is
    the smaller of i plus a forward running minimum of d[j] - j and a
    backward running minimum of d[j] + j, minus i.
    """
    if not grid.obstacles:
        return None
    dist = np.full((grid.height, grid.width), grid.width + grid.height, dtype=np.int64)
    for cell in grid.obstacles:
        dist[cell.y, cell.x] = 0
    for _ in range(2):
        i = np.arange(dist.shape[1])
        forward = np.minimum.accumulate(dist - i, axis=1) + i
        backward = np.minimum.accumulate((dist + i)[:, ::-1], axis=1)[:, ::-1] - i
        dist = np.minimum(forward, backward).T
    return dist


def obstacle_distance(cells: list[Cell], grid: GridMap, field: np.ndarray | list | None = None) -> float | None:
    """Minimum Manhattan distance to any obstacle over the visited cells; field may be nested lists."""
    if not grid.obstacles:
        return None
    if field is None:
        field = obstacle_distance_field(grid)
    return float(min(field[c.y][c.x] for c in cells))


@dataclass
class Metrics:
    success_rate: float
    mean_timesteps: float | None  # over agent-episodes that reached a goal
    mean_cost: float  # over all agent-episodes: the arrival time, or the horizon T for a failure
    obstacle_distance: float | None  # mean over agent-episodes of min clearance
    collisions_per_episode: float  # vertex + swap conflict events
    train_seconds: float
    eval_seconds: float


def astar_policy(grid: GridMap) -> TabularPolicy:
    """The A* baseline as a one-hot policy: each free cell takes its move of shortest_moves.

    So an agent walks astar's path from its start, and after a slip the
    one from where it lands.  A goal cell, or one walled off from every goal, stays.
    """
    return TabularPolicy(grid.width, grid.height, np.eye(NUM_ACTIONS)[shortest_moves(grid)], grid.free_cells())


def plan_rollout(env: GridEnv, rng: np.random.Generator, starts: list[int] | None = None) -> EpisodeRollout:
    """run_episode under astar_policy; kept only because perfbench's suite-small patches
    `bench.plan_rollout` and its `--trace 1` spans it.  Benchmark v2 (ROADMAP item 1) deletes it."""
    return run_episode(env, astar_policy(env.grid), rng, starts)


def evaluate(
    policy: TabularPolicy,
    env_config: EnvConfig,
    episodes: int,
    rng: np.random.Generator,
) -> Metrics:
    """Roll seeded evaluation episodes of policy and aggregate Metrics.

    Start placements come from a reset stream independent of the action
    stream, so two policies evaluated with generators seeded alike see
    the identical start draws.  Each episode hands run_episode its action
    seed, so a one-hot policy at slip 0 builds no action generator.  The
    policy must be the map's size and have a row for every free cell of it.
    """
    check_range("episodes", episodes, 1)
    grid = env_config.grid
    if (policy.width, policy.height) != (grid.width, grid.height):
        raise ConfigError(
            f"policy was trained on a {policy.width}x{policy.height} grid "
            f"but the map is {grid.width}x{grid.height}"
        )
    known = set(policy.cells)
    missing = [c for c in grid.free_cells() if c not in known]
    if missing:
        raise ConfigError(
            f"policy has no row for free cell ({missing[0].x},{missing[0].y}) of the map "
            f"({len(missing)} missing); it was trained on another map"
        )
    env = GridEnv(env_config)
    field = obstacle_distance_field(grid)
    field = None if field is None else field.tolist()  # indexing lists is cheaper than numpy scalars
    seeds = rng.integers(0, 2**63 - 1, size=(episodes, 2))
    arrivals: list[int] = []
    clearances: list[float] = []
    agent_episodes = 0
    successes = 0
    conflicts = 0
    started = time.perf_counter()
    for reset_seed, action_seed in seeds:
        starts = env.reset(np.random.default_rng(int(reset_seed)))
        rollout = run_episode(env, policy, int(action_seed), starts)
        for traj in rollout.trajectories:
            agent_episodes += 1
            if traj.reached:
                successes += 1
                arrivals.append(traj.arrival_time)
            if field is not None:
                clearances.append(obstacle_distance(traj.cells, grid, field))
            conflicts += sum(map(traj.events.count, CONFLICT_EVENTS))
    eval_seconds = time.perf_counter() - started
    return Metrics(
        success_rate=successes / agent_episodes,
        mean_timesteps=float(np.mean(arrivals)) if arrivals else None,
        mean_cost=(sum(arrivals) + (agent_episodes - successes) * env_config.horizon) / agent_episodes,
        obstacle_distance=float(np.mean(clearances)) if clearances else None,
        collisions_per_episode=conflicts / episodes,
        train_seconds=0.0,
        eval_seconds=eval_seconds,
    )


# Generated maps get one goal per GOAL_REGION x GOAL_REGION tile, and a
# draw is retried at most MAX_TRIES times.
GOAL_REGION = 50
MAX_TRIES = 200


def generate_map(width: int, height: int, density: float, rng: np.random.Generator) -> GridMap:
    """Random map: uniform obstacles at the given density, one goal per
    GOAL_REGION x GOAL_REGION tile (at least one), every free cell
    connected to some goal.  Rejected draws are retried."""
    check_range("width", width, 1)
    check_range("height", height, 1)
    check_range("density", density, 0, 0.4)
    total = width * height
    n_obstacles = round(density * total)
    tiles = [(ry, rx) for ry in range(0, height, GOAL_REGION) for rx in range(0, width, GOAL_REGION)]
    for _ in range(MAX_TRIES):
        free = np.ones(total, dtype=bool)
        if n_obstacles:
            free[rng.choice(total, size=n_obstacles, replace=False)] = False
        free = free.reshape(height, width)
        goal_ys: list[int] = []
        goal_xs: list[int] = []
        for ry, rx in tiles:
            # Candidates in row-major order.
            ys, xs = np.nonzero(free[ry:ry + GOAL_REGION, rx:rx + GOAL_REGION])
            if not len(ys):
                break
            k = int(rng.integers(len(ys)))
            goal_ys.append(ry + int(ys[k]))
            goal_xs.append(rx + int(xs[k]))
        else:
            goals = (np.array(goal_ys), np.array(goal_xs))
            # A free cell besides the goals is a start.
            if free.sum() > len(tiles) and (goal_distances(free, goals)[free] >= 0).all():
                starts = free.copy()
                starts[goals] = False
                return GridMap(
                    width=width,
                    height=height,
                    obstacles=frozenset(Cell(x, y) for y, x in np.argwhere(~free).tolist()),
                    goals=frozenset(map(Cell, goal_xs, goal_ys)),
                    starts=frozenset(Cell(x, y) for y, x in np.argwhere(starts).tolist()),
                )
    raise ConfigError(
        f"could not generate a connected {width}x{height} map at density {density} "
        f"after {MAX_TRIES} tries"
    )


@dataclass(frozen=True)
class SuiteConfig:
    sizes: tuple[int, ...]
    agents: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    eval_episodes: int = 100
    train_episodes: int = 4000  # total environment episodes granted each learner
    density: float = 0.1
    slip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sizes", "agents", "algorithms"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must list at least one item")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(f"algorithms must be among {list(ALGORITHMS)}, got {unknown}")
        # A map needs a goal and a start cell, so at least two cells.
        for name, least in (("sizes", 2), ("agents", 1)):
            for value in getattr(self, name):
                check_range(name, value, least)
        check_range("eval_episodes", self.eval_episodes, 1)
        check_range("train_episodes", self.train_episodes, 1)
        check_range("density", self.density, 0, 0.4)
        check_range("slip_probability", self.slip_probability, 0, 1)
        check_range("seed", self.seed, 0)


# The metric columns of a suite row, in CSV order, each with its number format.
METRIC_FORMATS = (
    ("success_rate", ".6f"),
    ("mean_timesteps", ".6f"),
    ("mean_cost", ".6f"),
    ("obstacle_distance", ".6f"),
    ("train_seconds", ".3f"),
    ("eval_seconds", ".3f"),
    ("collisions_per_episode", ".6f"),
)

CSV_COLUMNS = ("algorithm", "grid_size", "num_agents", "seed", *(name for name, _ in METRIC_FORMATS), "error")

NA = "na"


def train_subject(
    algorithm: str,
    env_config: EnvConfig,
    rewards: RewardParams,
    train_episodes: int,
    rng: np.random.Generator,
) -> tuple[TabularPolicy, float]:
    """Train (or construct) an algorithm's evaluation policy; returns it with wall-clock seconds."""
    started = time.perf_counter()
    if algorithm == "astar":
        subject = astar_policy(env_config.grid)
    elif algorithm == "egt":
        config = TrainConfig(
            env=env_config,
            rewards=rewards,
            max_iterations=max(1, train_episodes // TrainConfig.batch_size),
        )
        subject = train(config, rng).policy.greedy()
    elif algorithm in LEARNERS:
        subject = learn(algorithm, env_config, rewards, LearnerParams(episodes=train_episodes), rng)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}")
    return subject, time.perf_counter() - started


def metrics_row(
    algorithm: str, grid_size: int, num_agents: int, seed: int, metrics: Metrics | None, error: str = ""
) -> dict[str, str]:
    """One suite row; every metric is `na` when metrics is None, or when it has no value."""
    row = {"algorithm": algorithm, "grid_size": str(grid_size), "num_agents": str(num_agents), "seed": str(seed)}
    for name, spec in METRIC_FORMATS:
        value = None if metrics is None else getattr(metrics, name)
        row[name] = NA if value is None else format(value, spec)
    row["error"] = error
    return row


def write_csv(path: str, rows: list[dict[str, str]], header_meta: dict[str, str] | None = None) -> None:
    """Write suite rows; `# key = value` comment lines echo the configuration."""
    with open(path, "w", newline="") as fh:
        for key in sorted(header_meta or {}):
            fh.write(f"# {key} = {header_meta[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def train_in_workers(calls: list[tuple]) -> Iterator[tuple[TabularPolicy, float] | Exception]:
    """Run train_subject(*call) for each call in worker processes, one per CPU at most; yield
    each result or exception in call order.  A call is yielded once it has finished and fewer
    calls are unfinished than there are workers, so the caller's work between yields runs on a
    CPU no worker uses.  Abandoning the generator cancels the queued calls; the running ones, and one
    the executor has already fed to its call queue, finish before it returns.  No worker outlives it.
    """
    # Imported here: multiprocessing adds about 1.4 MB to every process that imports this module.
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait

    workers = min(os.cpu_count() or 1, len(calls)) or 1
    # The platform's start method: on Linux workers fork with the package imported, where
    # spawning them would import numpy and the package again in each, about 0.45 s per
    # suite-small sweep on a 2-vCPU host.
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        jobs = []
        for call in calls:
            try:
                jobs.append(pool.submit(train_subject, *call))
            except BrokenExecutor as exc:  # a worker died before this call was queued
                jobs.append(Future())
                jobs[-1].set_exception(exc)
        for job in jobs:
            while not job.done() or sum(not j.done() for j in jobs) >= workers:
                wait([j for j in jobs if not j.done()], return_when=FIRST_COMPLETED)
            yield job.result() if job.exception() is None else job.exception()
    finally:
        pool.shutdown(cancel_futures=True)


def run_suite(config: SuiteConfig, out_path: str | None = None, header_meta: dict[str, str] | None = None) -> list[dict[str, str]]:
    """Sweep sizes x agent counts x algorithms; one CSV row per combination.

    Each size gets one generated map shared by every algorithm, and the
    evaluation generator is re-seeded identically per algorithm so start
    draws match.  Every row trains from its own seeded generator in
    `train_in_workers`, which times `train_seconds` in the worker.  Each
    row is evaluated in this process, in row order, as its training is
    handed back, on a CPU no worker is using; so a wrapper around this
    module's `evaluate` or `run_episode` sees every evaluation episode.  A
    failing combination, or a row left waiting when the pool breaks,
    records its error and the sweep continues.
    """
    grids = {size: generate_map(size, size, config.density, np.random.default_rng([config.seed, size]))
             for size in config.sizes}
    combos = [(size, num_agents, algo_index, algorithm)
              for size in config.sizes for num_agents in config.agents
              for algo_index, algorithm in enumerate(config.algorithms)]
    calls: list[tuple | Exception] = []  # train_subject's arguments, or why the row cannot train
    for size, num_agents, algo_index, algorithm in combos:
        try:
            env_config = EnvConfig(grid=grids[size], num_agents=num_agents, slip_probability=config.slip_probability)
            calls.append((algorithm, env_config, RewardParams.default_for(env_config.horizon),
                          config.train_episodes, np.random.default_rng([config.seed, size, num_agents, algo_index])))
        except Exception as exc:  # the row records it when its turn comes
            calls.append(exc)
    rows: list[dict[str, str]] = []
    with closing(train_in_workers([c for c in calls if not isinstance(c, Exception)])) as trained:
        for (size, num_agents, _, algorithm), call in zip(combos, calls):
            try:
                outcome = call if isinstance(call, Exception) else next(trained)
                if isinstance(outcome, Exception):
                    raise outcome
                subject, train_seconds = outcome
                eval_rng = np.random.default_rng([config.seed, size, num_agents, 10_000])
                metrics = evaluate(subject, call[1], config.eval_episodes, eval_rng)
                metrics.train_seconds = train_seconds
                rows.append(metrics_row(algorithm, size, num_agents, config.seed, metrics))
            except Exception as exc:  # record and continue with the next combination
                rows.append(metrics_row(algorithm, size, num_agents, config.seed, None, error=str(exc)))
            if out_path is not None:
                write_csv(out_path, rows, header_meta)
    return rows


def write_trajectory_log(
    path: str,
    rollouts: list[EpisodeRollout],
    machine: RewardMachine,
) -> None:
    """Log rollouts as one `episode,t,agent,x,y,action,event,reward` line per timestep.

    Lines follow the reward observations: each executed step logs the
    cell it started from, and a reached agent gets a closing line at its
    arrival cell with action `-`.  Rewards on each agent's lines sum to
    its undiscounted return.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "t", "agent", "x", "y", "action", "event", "reward"])
        for episode, rollout in enumerate(rollouts):
            for agent, traj in enumerate(rollout.trajectories):
                weights = machine.weights(traj.observations())
                for t, w in enumerate(weights):
                    if t < len(traj.actions):
                        cell = traj.cells[t]
                        action = traj.actions[t].name.lower()
                        event = traj.events[t].value
                    else:
                        cell = traj.cells[-1]
                        action = "-"
                        event = "reached_goal"
                    writer.writerow(
                        [episode, t, agent, cell.x, cell.y, action, event, repr(float(w))]
                    )
