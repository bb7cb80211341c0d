"""Benchmark harness: map generation, policy/planner evaluation, and suite runs.

Evaluation rolls frozen policies (or A* plans executed step by step in
the live environment) over seeded episodes and reports success rate,
timesteps to goal, obstacle clearance, and agent-agent collisions.
Suites sweep grid sizes, agent counts, and algorithms into a CSV where
every algorithm sees the identical map and start draws.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .automaton import RewardParams, RewardMachine
from .baselines import LearnerParams, astar, monte_carlo_train, qlearning_train
from .egt import TabularPolicy, TrainConfig, train
from .gridworld import (
    ACTION_DELTAS,
    ACTION_NAMES,
    Action,
    Cell,
    CONFLICT_EVENTS,
    ConfigError,
    EnvConfig,
    EpisodeRollout,
    GridEnv,
    GridMap,
    JointState,
    roll_episode,
    run_episode,
)

ALGORITHMS = ("egt", "astar", "qlearning", "montecarlo")


class AStarPlanner:
    """Evaluation subject that plans with A* per agent and replays the paths."""


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


def obstacle_distance(cells: list[Cell], grid: GridMap, field: np.ndarray | None = None) -> float | None:
    """Minimum Manhattan distance to any obstacle over the visited cells."""
    if not grid.obstacles:
        return None
    if field is None:
        field = obstacle_distance_field(grid)
    return float(min(field[c.y, c.x] for c in cells))


@dataclass
class Metrics:
    success_rate: float
    mean_timesteps: float | None  # over agent-episodes that reached a goal
    obstacle_distance: float | None  # mean over agent-episodes of min clearance
    collisions_per_episode: float  # vertex + swap conflict events
    train_seconds: float
    eval_seconds: float


# The action that moves by (dx, dy); a plan's next cell is always one such move away.
_ACTION_BY_DELTA = {delta: action for action, delta in ACTION_DELTAS.items()}


class _PlanFollower:
    """Replays an A* path; retries the same move after a conflict revert."""

    def __init__(self, grid: GridMap, start: Cell):
        self.grid = grid
        self.path = astar(grid, start)
        self.index = {cell: i for i, cell in enumerate(self.path)} if self.path else {}

    def next_action(self, cell: Cell) -> Action:
        if self.path is None:
            return Action.STAY
        i = self.index.get(cell)
        if i is None:
            # Slipped off the plan; replan from here.
            self.path = astar(self.grid, cell)
            self.index = {c: j for j, c in enumerate(self.path)} if self.path else {}
            i = self.index.get(cell)
            if i is None:
                return Action.STAY
        if i + 1 >= len(self.path):
            return Action.STAY
        nxt = self.path[i + 1]
        return _ACTION_BY_DELTA[nxt.x - cell.x, nxt.y - cell.y]


def plan_rollout(env: GridEnv, rng: np.random.Generator, initial_state: JointState | None = None) -> EpisodeRollout:
    """Plan per agent with A* at reset, then execute jointly in the environment."""
    state = env.reset(rng) if initial_state is None else initial_state
    followers = [_PlanFollower(env.grid, st.cell) for st in state]
    return roll_episode(env, state, lambda i, c: followers[i].next_action(env.cells[c]), rng)


def evaluate(
    subject: TabularPolicy | AStarPlanner,
    env_config: EnvConfig,
    episodes: int,
    rng: np.random.Generator,
) -> Metrics:
    """Roll seeded evaluation episodes and aggregate Metrics.

    Start placements come from a reset stream independent of the action
    stream, so two subjects evaluated with generators seeded alike see
    the identical start draws.  A policy must be the map's size and have
    a row for every free cell of it.
    """
    if episodes < 1:
        raise ConfigError("episodes must be at least 1")
    grid = env_config.grid
    if not isinstance(subject, AStarPlanner):
        if (subject.width, subject.height) != (grid.width, grid.height):
            raise ConfigError(
                f"policy was trained on a {subject.width}x{subject.height} grid "
                f"but the map is {grid.width}x{grid.height}"
            )
        known = set(subject.cells)
        missing = [c for c in grid.free_cells() if c not in known]
        if missing:
            raise ConfigError(
                f"policy has no row for free cell ({missing[0].x},{missing[0].y}) of the map "
                f"({len(missing)} missing); it was trained on another map"
            )
    env = GridEnv(env_config)
    field = obstacle_distance_field(grid)
    seeds = rng.integers(0, 2**63 - 1, size=(episodes, 2))
    arrivals: list[int] = []
    clearances: list[float] = []
    agent_episodes = 0
    successes = 0
    conflicts = 0
    started = time.perf_counter()
    for reset_seed, action_seed in seeds:
        state = env.reset(np.random.default_rng(int(reset_seed)))
        action_rng = np.random.default_rng(int(action_seed))
        if isinstance(subject, AStarPlanner):
            rollout = plan_rollout(env, action_rng, initial_state=state)
        else:
            rollout = run_episode(env, subject, action_rng, initial_state=state)
        for traj in rollout.trajectories:
            agent_episodes += 1
            if traj.reached:
                successes += 1
                arrivals.append(traj.arrival_time)
            if field is not None:
                clearances.append(obstacle_distance(traj.cells, grid, field))
            conflicts += sum(1 for ev in traj.events if ev in CONFLICT_EVENTS)
    eval_seconds = time.perf_counter() - started
    return Metrics(
        success_rate=successes / agent_episodes,
        mean_timesteps=float(np.mean(arrivals)) if arrivals else None,
        obstacle_distance=float(np.mean(clearances)) if clearances else None,
        collisions_per_episode=conflicts / episodes,
        train_seconds=0.0,
        eval_seconds=eval_seconds,
    )


def generate_map(
    width: int,
    height: int,
    density: float,
    rng: np.random.Generator,
    goal_region: int = 50,
    max_tries: int = 200,
) -> GridMap:
    """Random map: uniform obstacles at the given density, one goal per
    goal_region x goal_region tile (at least one), every free cell
    connected to some goal.  Rejected draws are retried."""
    if not 0.0 <= density <= 0.4:
        raise ConfigError("obstacle density must lie in [0, 0.4]")
    if width < 1 or height < 1:
        raise ConfigError("map must have positive width and height")
    total = width * height
    n_obstacles = round(density * total)
    all_cells = [Cell(x, y) for y in range(height) for x in range(width)]
    for _ in range(max_tries):
        picks = rng.choice(total, size=n_obstacles, replace=False) if n_obstacles else []
        obstacles = {all_cells[int(i)] for i in picks}
        goals: set[Cell] = set()
        feasible = True
        for ry in range(0, height, goal_region):
            for rx in range(0, width, goal_region):
                candidates = [
                    Cell(x, y)
                    for y in range(ry, min(ry + goal_region, height))
                    for x in range(rx, min(rx + goal_region, width))
                    if Cell(x, y) not in obstacles
                ]
                if not candidates:
                    feasible = False
                    break
                goals.add(candidates[int(rng.integers(len(candidates)))])
            if not feasible:
                break
        if not feasible:
            continue
        free = [c for c in all_cells if c not in obstacles]
        starts = {c for c in free if c not in goals}
        if not starts:
            continue
        # Every free cell must reach some goal.
        seen = set(goals)
        frontier = list(goals)
        while frontier:
            cur = frontier.pop()
            for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
                nxt = Cell(cur.x + dx, cur.y + dy)
                if (
                    0 <= nxt.x < width
                    and 0 <= nxt.y < height
                    and nxt not in obstacles
                    and nxt not in seen
                ):
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != len(free):
            continue
        return GridMap(
            width=width,
            height=height,
            obstacles=frozenset(obstacles),
            goals=frozenset(goals),
            starts=frozenset(starts),
        )
    raise ConfigError(
        f"could not generate a connected {width}x{height} map at density {density} "
        f"after {max_tries} tries"
    )


@dataclass(frozen=True)
class SuiteConfig:
    sizes: tuple[int, ...]
    agent_counts: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    eval_episodes: int = 100
    train_episodes: int = 4000  # total environment episodes granted each learner
    density: float = 0.1
    slip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sizes or not self.agent_counts or not self.algorithms:
            raise ConfigError("suite needs at least one size, agent count, and algorithm")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(f"unknown algorithms {unknown}; choose from {list(ALGORITHMS)}")
        if self.eval_episodes < 1 or self.train_episodes < 1:
            raise ConfigError("episode counts must be positive")
        if not 0.0 <= self.density <= 0.4:
            raise ConfigError("obstacle density must lie in [0, 0.4]")
        if min(self.sizes) < 1:
            raise ConfigError(f"sizes must be at least 1, got {min(self.sizes)}")
        if min(self.agent_counts) < 1:
            raise ConfigError(f"agent_counts must be at least 1, got {min(self.agent_counts)}")
        # Also false for NaN.
        if not 0.0 <= self.slip_probability <= 1.0:
            raise ConfigError(f"slip_probability must lie in [0, 1], got {self.slip_probability!r}")


CSV_COLUMNS = (
    "algorithm,grid_size,num_agents,seed,success_rate,mean_timesteps,"
    "obstacle_distance,train_seconds,eval_seconds,collisions_per_episode,error"
)

NA = "na"


def train_subject(
    algorithm: str,
    env_config: EnvConfig,
    rewards: RewardParams,
    train_episodes: int,
    rng: np.random.Generator,
) -> tuple[TabularPolicy | AStarPlanner, float]:
    """Train (or construct) an evaluation subject; returns it with wall-clock seconds."""
    started = time.perf_counter()
    if algorithm == "astar":
        subject: TabularPolicy | AStarPlanner = AStarPlanner()
    elif algorithm == "egt":
        config = TrainConfig(
            env=env_config,
            rewards=rewards,
            max_iterations=max(1, train_episodes // TrainConfig(env=env_config).batch_size),
        )
        subject = train(config, rng).policy.greedy()
    elif algorithm == "qlearning":
        subject = qlearning_train(env_config, rewards, LearnerParams(episodes=train_episodes), rng)
    elif algorithm == "montecarlo":
        subject = monte_carlo_train(env_config, rewards, LearnerParams(episodes=train_episodes), rng)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}")
    return subject, time.perf_counter() - started


def metrics_row(
    algorithm: str, grid_size: int, num_agents: int, seed: int, metrics: Metrics | None, error: str = ""
) -> dict[str, str]:
    def fmt(value: float | None, spec: str = ".6f") -> str:
        return NA if value is None else format(value, spec)

    if metrics is None:
        fields = dict.fromkeys(
            ("success_rate", "mean_timesteps", "obstacle_distance",
             "train_seconds", "eval_seconds", "collisions_per_episode"),
            NA,
        )
    else:
        fields = {
            "success_rate": fmt(metrics.success_rate),
            "mean_timesteps": fmt(metrics.mean_timesteps),
            "obstacle_distance": fmt(metrics.obstacle_distance),
            "train_seconds": fmt(metrics.train_seconds, ".3f"),
            "eval_seconds": fmt(metrics.eval_seconds, ".3f"),
            "collisions_per_episode": fmt(metrics.collisions_per_episode),
        }
    return {
        "algorithm": algorithm,
        "grid_size": str(grid_size),
        "num_agents": str(num_agents),
        "seed": str(seed),
        **fields,
        "error": error,
    }


def write_csv(path: str, rows: list[dict[str, str]], header_meta: dict[str, str] | None = None) -> None:
    """Write suite rows; `# key = value` comment lines echo the configuration."""
    columns = CSV_COLUMNS.split(",")
    with open(path, "w", newline="") as fh:
        for key in sorted(header_meta or {}):
            fh.write(f"# {key} = {header_meta[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def run_suite(config: SuiteConfig, out_path: str | None = None, header_meta: dict[str, str] | None = None) -> list[dict[str, str]]:
    """Sweep sizes x agent counts x algorithms; one CSV row per combination.

    Each size gets one generated map shared by every algorithm, and the
    evaluation generator is re-seeded identically per algorithm so start
    draws match.  A failing combination records its error and the sweep
    continues.
    """
    rows: list[dict[str, str]] = []
    for size in config.sizes:
        grid = generate_map(size, size, config.density, np.random.default_rng([config.seed, size]))
        for num_agents in config.agent_counts:
            for algo_index, algorithm in enumerate(config.algorithms):
                try:
                    env_config = EnvConfig(
                        grid=grid,
                        num_agents=num_agents,
                        slip_probability=config.slip_probability,
                        seed=config.seed,
                    )
                    rewards = RewardParams.default_for(env_config.horizon)
                    train_rng = np.random.default_rng([config.seed, size, num_agents, algo_index])
                    subject, train_seconds = train_subject(
                        algorithm, env_config, rewards, config.train_episodes, train_rng
                    )
                    eval_rng = np.random.default_rng([config.seed, size, num_agents, 10_000])
                    metrics = evaluate(subject, env_config, config.eval_episodes, eval_rng)
                    metrics.train_seconds = train_seconds
                    rows.append(metrics_row(algorithm, size, num_agents, config.seed, metrics))
                except Exception as exc:  # record and continue with the next combination
                    rows.append(
                        metrics_row(algorithm, size, num_agents, config.seed, None, error=str(exc))
                    )
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
                        action = ACTION_NAMES[traj.actions[t]]
                        event = traj.events[t].value
                    else:
                        cell = traj.cells[-1]
                        action = "-"
                        event = "reached_goal"
                    writer.writerow(
                        [episode, t, agent, cell.x, cell.y, action, event, repr(float(w))]
                    )
