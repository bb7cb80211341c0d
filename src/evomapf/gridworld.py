"""Multi-agent grid world with simultaneous moves and conflict-revert collision rules.

Maps are rectangular character grids ('.' free, '#' obstacle, 'G' goal,
'S' start candidate).  All agents move at once; moves into walls or
obstacles are blocked in place, and agents that end up sharing a cell or
swapping cells are reverted to where they stood.  An agent that enters a
goal cell despawns at the end of that step.

`episode_steps` plays one episode through `GridEnv.step` under any action
choice; `run_episode`, the A* replay and the tabular learners all run on
it.  `roll_batch` rolls many episodes at once over flat cell indices with
the same rules and random draws.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Iterator, NamedTuple

import numpy as np


class Cell(NamedTuple):
    x: int
    y: int


class Action(IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4


# (dx, dy) per action; y grows downward, matching the row order of map text.
ACTION_DELTAS: dict[Action, tuple[int, int]] = {
    Action.UP: (0, -1),
    Action.DOWN: (0, 1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
    Action.STAY: (0, 0),
}

ACTIONS: tuple[Action, ...] = tuple(Action)
MOVE_ACTIONS: tuple[Action, ...] = (Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT)

ACTION_NAMES: dict[Action, str] = {
    Action.UP: "up",
    Action.DOWN: "down",
    Action.LEFT: "left",
    Action.RIGHT: "right",
    Action.STAY: "stay",
}


class StepEvent(Enum):
    MOVED = "moved"
    BLOCKED_BY_OBSTACLE = "blocked_by_obstacle"
    VERTEX_CONFLICT = "vertex_conflict"
    SWAP_CONFLICT = "swap_conflict"
    REACHED_GOAL = "reached_goal"
    INACTIVE = "inactive"


# Events that read as a collision in the reward observation stream.
COLLISION_EVENTS = frozenset(
    {StepEvent.BLOCKED_BY_OBSTACLE, StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT}
)

# Agent-agent conflicts only; this is what the benchmark counts as collisions.
CONFLICT_EVENTS = frozenset({StepEvent.VERTEX_CONFLICT, StepEvent.SWAP_CONFLICT})

# Event codes of the batched kernel: positions in STEP_EVENTS (declaration order).
STEP_EVENTS: tuple[StepEvent, ...] = tuple(StepEvent)
_MOVED, _BLOCKED, _VERTEX, _SWAP, _REACHED, _INACTIVE = range(len(STEP_EVENTS))


class MapParseError(ValueError):
    """Raised for malformed map text."""


class ConfigError(ValueError):
    """Raised for invalid environment or run configuration."""


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    obstacles: frozenset[Cell]
    goals: frozenset[Cell]
    starts: frozenset[Cell]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("map must have positive width and height")
        for name in ("obstacles", "goals", "starts"):
            for cell in getattr(self, name):
                if not self.in_bounds(cell):
                    raise ConfigError(f"{name} cell {cell} lies outside the {self.width}x{self.height} grid")
        if not self.goals:
            raise ConfigError("map must contain at least one goal cell")
        if self.obstacles & self.goals:
            raise ConfigError("obstacles and goals must be disjoint")
        if self.starts & self.obstacles:
            raise ConfigError("start cells must not sit on obstacles")
        if not self.starts:
            raise ConfigError("map must contain at least one start cell")

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell.x < self.width and 0 <= cell.y < self.height

    def passable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def free_cells(self) -> list[Cell]:
        """All non-obstacle cells in (y, x) order."""
        return [
            Cell(x, y)
            for y in range(self.height)
            for x in range(self.width)
            if Cell(x, y) not in self.obstacles
        ]


_CHAR_MEANING = {".": "free", "#": "obstacle", "G": "goal", "S": "start"}


def parse_map(text: str) -> GridMap:
    """Parse map text into a GridMap.

    Rows must have equal length and use only '.', '#', 'G', 'S'.  When no
    'S' appears, every free non-goal cell is a start candidate; if the map
    consists of goals only, the goals themselves are the start candidates.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MapParseError("map text is empty")
    width = len(lines[0])
    obstacles: set[Cell] = set()
    goals: set[Cell] = set()
    starts: set[Cell] = set()
    for y, line in enumerate(lines):
        if len(line) != width:
            raise MapParseError(f"row {y}: expected {width} characters, got {len(line)}")
        for x, ch in enumerate(line):
            if ch not in _CHAR_MEANING:
                raise MapParseError(f"row {y}, column {x}: unknown character {ch!r}")
            if ch == "#":
                obstacles.add(Cell(x, y))
            elif ch == "G":
                goals.add(Cell(x, y))
            elif ch == "S":
                starts.add(Cell(x, y))
    if not goals:
        raise MapParseError("map has no goal cell ('G')")
    if not starts:
        starts = {
            Cell(x, y)
            for y in range(len(lines))
            for x in range(width)
            if Cell(x, y) not in obstacles and Cell(x, y) not in goals
        }
        if not starts:
            # Degenerate all-goal map: agents may start on goals.
            starts = set(goals)
    return GridMap(
        width=width,
        height=len(lines),
        obstacles=frozenset(obstacles),
        goals=frozenset(goals),
        starts=frozenset(starts),
    )


def format_map(grid: GridMap) -> str:
    """Inverse of parse_map; emits 'S' only where starts differ from the implicit rule."""
    implicit = {
        Cell(x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if Cell(x, y) not in grid.obstacles and Cell(x, y) not in grid.goals
    }
    if not implicit:
        implicit = set(grid.goals)
    mark_starts = grid.starts != frozenset(implicit)
    rows = []
    for y in range(grid.height):
        row = []
        for x in range(grid.width):
            cell = Cell(x, y)
            if cell in grid.obstacles:
                row.append("#")
            elif cell in grid.goals:
                row.append("G")
            elif mark_starts and cell in grid.starts:
                row.append("S")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def default_horizon(grid: GridMap) -> int:
    return 2 * (grid.width + grid.height)


@dataclass(frozen=True)
class EnvConfig:
    grid: GridMap
    num_agents: int = 1
    horizon: int = 0  # 0 means 2 * (width + height)
    slip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon == 0:
            object.__setattr__(self, "horizon", default_horizon(self.grid))
        if self.num_agents < 1:
            raise ConfigError("num_agents must be at least 1")
        if self.num_agents > len(self.grid.starts):
            raise ConfigError(
                f"num_agents={self.num_agents} exceeds the {len(self.grid.starts)} available start cells"
            )
        if self.horizon < 1:
            raise ConfigError("horizon must be positive")
        if not 0.0 <= self.slip_probability <= 1.0:
            raise ConfigError("slip_probability must lie in [0, 1]")


@dataclass(frozen=True)
class AgentStatus:
    cell: Cell
    reached: bool = False
    active: bool = True


JointState = tuple[AgentStatus, ...]


class GridEnv:
    """Stateless stepper over a fixed EnvConfig; the joint state is a value."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.grid = grid = config.grid
        self.start_cells = sorted(grid.starts)
        # Flat-index tables for roll_batch; cell index c = y * width + x.
        w, h = grid.width, grid.height
        self.cells = [Cell(c % w, c // w) for c in range(w * h)]
        self.start_index = np.array([c.y * w + c.x for c in self.start_cells], dtype=np.intp)
        self.goal_mask = np.zeros(w * h, dtype=bool)
        self.goal_mask[[c.y * w + c.x for c in grid.goals]] = True
        free = np.ones(w * h, dtype=bool)
        free[[c.y * w + c.x for c in grid.obstacles]] = False
        x = np.arange(w * h) % w
        y = np.arange(w * h) // w
        dx = np.array([ACTION_DELTAS[a][0] for a in Action])
        dy = np.array([ACTION_DELTAS[a][1] for a in Action])
        tx = x[:, None] + dx
        ty = y[:, None] + dy
        inside = (tx >= 0) & (tx < w) & (ty >= 0) & (ty < h)
        target = np.where(inside, ty * w + tx, 0)
        passable = inside & free[target]
        # Per (cell, action): the cell the move lands on, and whether it was blocked.
        self.move_target = np.where(passable, target, np.arange(w * h)[:, None])
        self.move_blocked = ~passable & ((dx != 0) | (dy != 0))

    def reset(self, rng: np.random.Generator) -> JointState:
        """Place agents uniformly at random on distinct start cells."""
        starts = self.start_cells
        picks = rng.choice(len(starts), size=self.config.num_agents, replace=False)
        return tuple(AgentStatus(starts[int(i)]) for i in picks)

    def step(
        self, state: JointState, actions: list[Action], rng: np.random.Generator
    ) -> tuple[JointState, list[StepEvent]]:
        """Advance all agents one step; returns the new state and one event per agent."""
        n = self.config.num_agents
        if len(state) != n or len(actions) != n:
            raise ConfigError(f"expected {n} agents, got state={len(state)} actions={len(actions)}")
        grid = self.grid
        slip = self.config.slip_probability
        pre = [st.cell for st in state]
        final = list(pre)
        events = [StepEvent.INACTIVE] * n

        for i, st in enumerate(state):
            if not st.active:
                continue
            act = actions[i]
            if slip > 0.0 and rng.random() < slip:
                act = MOVE_ACTIONS[int(rng.integers(4))]
            dx, dy = ACTION_DELTAS[act]
            target = Cell(st.cell.x + dx, st.cell.y + dy)
            if target == st.cell:
                events[i] = StepEvent.MOVED
            elif grid.passable(target):
                events[i] = StepEvent.MOVED
                final[i] = target
            else:
                # Off-grid counts as an obstacle.
                events[i] = StepEvent.BLOCKED_BY_OBSTACLE

        # Conflict resolution: revert movers until no cell is shared and no
        # pair has swapped.  Reverting can push an agent back into the path
        # of another mover, so iterate to a fixed point; each round reverts
        # at least one mover, so the loop is bounded by the agent count.
        while True:
            reverted: set[int] = set()
            occupied: dict[Cell, list[int]] = {}
            for i in range(n):
                if state[i].active:
                    occupied.setdefault(final[i], []).append(i)
            for members in occupied.values():
                if len(members) < 2:
                    continue
                for i in members:
                    if events[i] not in CONFLICT_EVENTS:
                        events[i] = StepEvent.VERTEX_CONFLICT
                    if final[i] != pre[i]:
                        reverted.add(i)
            origin = {pre[i]: i for i in range(n) if state[i].active}
            for i in range(n):
                if not state[i].active or final[i] == pre[i]:
                    continue
                j = origin.get(final[i])
                if j is not None and j != i and final[j] == pre[i] and final[j] != pre[j]:
                    for k in (i, j):
                        if events[k] not in CONFLICT_EVENTS:
                            events[k] = StepEvent.SWAP_CONFLICT
                        reverted.add(k)
            if not reverted:
                break
            for i in reverted:
                final[i] = pre[i]

        new_state = []
        for i, st in enumerate(state):
            if not st.active:
                new_state.append(st)
            elif final[i] in grid.goals and not st.reached:
                events[i] = StepEvent.REACHED_GOAL
                new_state.append(AgentStatus(final[i], reached=True, active=False))
            else:
                new_state.append(AgentStatus(final[i], st.reached, True))
        return tuple(new_state), events


@dataclass
class AgentTrajectory:
    """One agent's view of an episode.

    cells holds the visited cells (length = steps taken + 1), actions and
    events hold one entry per executed step.  Recording stops once the
    agent reaches a goal.
    """

    cells: list[Cell]
    actions: list[Action] = field(default_factory=list)
    events: list[StepEvent] = field(default_factory=list)
    reached: bool = False

    @property
    def arrival_time(self) -> int | None:
        return len(self.cells) - 1 if self.reached else None

    def observations(self) -> list[tuple[bool, bool]]:
        """Reward observations: one (in_goal, collision) pair per timestep.

        Every step before arrival yields (False, collided); reaching a goal
        appends a final (True, False).  An agent that times out therefore
        emits exactly horizon-many pairs, and one that starts on a goal
        emits the single pair (True, False).
        """
        obs = [(False, ev in COLLISION_EVENTS) for ev in self.events]
        if self.reached:
            return obs[: len(self.cells) - 1] + [(True, False)]
        return obs


@dataclass
class EpisodeRollout:
    trajectories: list[AgentTrajectory]
    steps: int

    @property
    def all_reached(self) -> bool:
        return all(t.reached for t in self.trajectories)


def episode_steps(
    env: GridEnv, state: JointState, choose: Callable[[int, Cell], Action], rng: np.random.Generator
) -> Iterator[tuple[JointState, list[Action], JointState, list[StepEvent]]]:
    """Play one episode from state, yielding (before, actions, after, events) per step.

    Agents placed on a goal are done at t = 0 without taking a step.
    choose(agent, cell) -> Action is called for each active agent in
    agent order, after the previous step has been yielded.  The episode
    ends at the horizon or once no agent is active.
    """
    goals = env.grid.goals
    state = tuple(
        AgentStatus(st.cell, reached=True, active=False) if st.active and st.cell in goals else st
        for st in state
    )
    for _ in range(env.config.horizon):
        if not any(st.active for st in state):
            return
        actions = [choose(i, st.cell) if st.active else Action.STAY for i, st in enumerate(state)]
        after, events = env.step(state, actions, rng)
        yield state, actions, after, events
        state = after


def roll_episode(
    env: GridEnv, state: JointState, choose: Callable[[int, Cell], Action], rng: np.random.Generator
) -> EpisodeRollout:
    """Record the episode_steps of one episode as an EpisodeRollout."""
    trajs = [AgentTrajectory(cells=[st.cell]) for st in state]
    steps = 0
    for before, actions, after, events in episode_steps(env, state, choose, rng):
        steps += 1
        for i, traj in enumerate(trajs):
            if before[i].active:
                traj.actions.append(actions[i])
                traj.events.append(events[i])
                traj.cells.append(after[i].cell)
    for traj in trajs:
        # Recording stops on a goal, so an agent ends on one only by reaching it.
        traj.reached = traj.cells[-1] in env.grid.goals
    return EpisodeRollout(trajectories=trajs, steps=steps)


def run_episode(
    env: GridEnv,
    policy,
    rng: np.random.Generator,
    initial_state: JointState | None = None,
) -> EpisodeRollout:
    """Roll one episode; ends at the horizon or once every agent has reached a goal.

    policy is anything with a `sample_action(cell, rng) -> Action` method.
    """
    state = env.reset(rng) if initial_state is None else initial_state
    return roll_episode(env, state, lambda i, cell: policy.sample_action(cell, rng), rng)


@dataclass
class BatchRollout:
    """A batch of episodes as arrays indexed [episode, agent, step].

    cells holds flat cell indices (y * width + x), actions Action values
    and events indices into STEP_EVENTS.  Agent i of episode b recorded
    lengths[b, i] steps, so its trajectory is cells[b, i, :lengths + 1]
    with actions[b, i, :lengths] and events[b, i, :lengths]; entries past
    that are padding.  steps[b] is the episode's step count.
    """

    cells: np.ndarray  # (B, N, S + 1)
    actions: np.ndarray  # (B, N, S)
    events: np.ndarray  # (B, N, S)
    lengths: np.ndarray  # (B, N)
    reached: np.ndarray  # (B, N) bool
    steps: np.ndarray  # (B,)

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form of AgentTrajectory.observations: in_goal, collided, count.

        in_goal and collided have shape (B, N, S + 1); the first count[b, i]
        entries are agent i's observation sequence, the rest (False, False).
        """
        span = self.events.shape[2]
        collided = np.zeros(self.cells.shape, dtype=bool)
        collided[:, :, :span] = np.isin(self.events, [STEP_EVENTS.index(e) for e in COLLISION_EVENTS])
        in_goal = np.zeros(self.cells.shape, dtype=bool)
        arrival = np.arange(span + 1) == self.lengths[:, :, None]
        in_goal[arrival & self.reached[:, :, None]] = True
        return in_goal, collided, self.lengths + self.reached

    def rollouts(self, env: GridEnv) -> list[EpisodeRollout]:
        """The same episodes as EpisodeRollout objects."""
        out = []
        for cells, actions, events, lengths, reached, steps in zip(
            self.cells, self.actions, self.events,
            self.lengths.tolist(), self.reached.tolist(), self.steps.tolist(),
        ):
            trajectories = [
                AgentTrajectory(
                    cells=list(map(env.cells.__getitem__, c[: n + 1].tolist())),
                    actions=list(map(ACTIONS.__getitem__, a[:n].tolist())),
                    events=list(map(STEP_EVENTS.__getitem__, e[:n].tolist())),
                    reached=r,
                )
                for c, a, e, n, r in zip(cells, actions, events, lengths, reached)
            ]
            out.append(EpisodeRollout(trajectories=trajectories, steps=steps))
        return out


def _resolve_conflicts(
    pre: np.ndarray, final: np.ndarray, active: np.ndarray, events: np.ndarray
) -> np.ndarray:
    """Batched conflict resolution of GridEnv.step over (B, N) arrays.

    Each round marks vertex conflicts, then swap conflicts, on the moves
    as they stand at the start of the round; an agent keeps the first
    conflict event it gets.  Conflicting movers are reverted and rounds
    repeat until none is left.  Updates events in place; returns the
    resolved cells.
    """
    n = pre.shape[1]
    pairs = active[:, :, None] & active[:, None, :] & ~np.eye(n, dtype=bool)
    while True:
        moved = final != pre
        vertex = ((final[:, :, None] == final[:, None, :]) & pairs).any(axis=2)
        events[vertex & (events != _SWAP)] = _VERTEX
        swap = (
            (final[:, :, None] == pre[:, None, :])
            & (pre[:, :, None] == final[:, None, :])
            & moved[:, :, None]
            & moved[:, None, :]
            & pairs
        ).any(axis=2)
        events[swap & (events != _VERTEX)] = _SWAP
        revert = (vertex & moved) | swap
        if not revert.any():
            return final
        final = np.where(revert, pre, final)


def roll_batch(env: GridEnv, cumulative: np.ndarray, seeds: np.ndarray) -> BatchRollout:
    """Roll one episode per seed, all at once, under a shared tabular policy.

    cumulative is the policy's cumulative action distribution per flat
    cell, shape (cells, 5).  Episode k replays what run_episode does on
    default_rng(seeds[k]): the same reset draw, then one uniform per
    active agent and step, taken in agent order, and the action is the
    number of cumulative entries at or below it (the last, STAY, at most).
    With slip_probability 0 the result equals run_episode's exactly.
    Slip draws (a uniform and a direction per agent-step) come from each
    episode's generator after the policy uniforms, so slipping rollouts
    follow the same distribution as run_episode but not the same draws.
    """
    config = env.config
    batch, n, horizon = len(seeds), config.num_agents, config.horizon
    slip = config.slip_probability
    uniforms = np.empty((batch, horizon * n))
    slip_uniforms = np.empty((batch, horizon * n))
    slip_moves = np.empty((batch, horizon * n), dtype=np.intp)
    pos = np.empty((batch, n), dtype=np.intp)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed))
        pos[k] = env.start_index[rng.choice(len(env.start_index), size=n, replace=False)]
        uniforms[k] = rng.random(horizon * n)
        if slip > 0.0:
            slip_uniforms[k] = rng.random(horizon * n)
            slip_moves[k] = rng.integers(len(MOVE_ACTIONS), size=horizon * n)

    # Agents placed on a goal are done at t = 0 without taking a step.
    reached = env.goal_mask[pos]
    active = ~reached
    lengths = np.zeros((batch, n), dtype=np.intp)
    steps = np.zeros(batch, dtype=np.intp)
    drawn = np.zeros((batch, 1), dtype=np.intp)  # uniforms consumed per episode
    cells = np.empty((batch, n, horizon + 1), dtype=np.intp)
    actions = np.empty((batch, n, horizon), dtype=np.intp)
    events = np.empty((batch, n, horizon), dtype=np.intp)
    cells[:, :, 0] = pos
    span = 0
    while span < horizon and active.any():
        steps += active.any(axis=1)
        lengths += active
        taken = np.cumsum(active, axis=1)
        draw = drawn + taken - 1
        drawn += taken[:, -1:]
        u = np.take_along_axis(uniforms, draw, axis=1)
        act = np.minimum((cumulative[pos] <= u[:, :, None]).sum(axis=2), Action.STAY)
        act[~active] = Action.STAY
        move = act
        if slip > 0.0:
            slipped = active & (np.take_along_axis(slip_uniforms, draw, axis=1) < slip)
            move = np.where(slipped, np.take_along_axis(slip_moves, draw, axis=1), act)
        ev = np.where(env.move_blocked[pos, move], _BLOCKED, _MOVED)
        ev[~active] = _INACTIVE
        final = _resolve_conflicts(pos, env.move_target[pos, move], active, ev)
        arrived = active & env.goal_mask[final]
        ev[arrived] = _REACHED
        reached |= arrived
        active &= ~arrived
        pos = final
        actions[:, :, span] = act
        events[:, :, span] = ev
        span += 1
        cells[:, :, span] = pos

    return BatchRollout(
        cells=cells[:, :, : span + 1],
        actions=actions[:, :, :span],
        events=events[:, :, :span],
        lengths=lengths,
        reached=reached,
        steps=steps,
    )
