"""Multi-agent grid world with simultaneous moves and conflict-revert collision rules.

Maps are rectangular character grids ('.' free, '#' obstacle, 'G' goal,
'S' start candidate).  All agents move at once; moves into walls or
obstacles are blocked in place, and agents that end up sharing a cell or
swapping cells are reverted to where they stood.  An agent that enters a
goal cell despawns at the end of that step.

Both steppers work on flat cell indices (y * width + x) through one
(cells x 5) move table and emit STEP_EVENTS codes.  `GridEnv.advance`
steps one episode's live agents and re-checks only cells a revert
touches; `episode_steps` plays an episode on it with one choose call
per step, for Q-learning and `run_episode`, which draws one block of
uniforms per step, or none under a one-hot policy at slip 0: it then reads
each action from the policy's per-cell table and, once the live cells
repeat, replays the cycle to the horizon.  `roll_batch` rolls many
episodes at once with the same rules and draws.  An agent is its flat
cell from `reset` on; `GridEnv.step` is advance on live `Cell`s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import cycle, islice
from operator import ne
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple

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


def check_range(name: str, value: float, low: float, high: float = math.inf, *, above: bool = False) -> None:
    """Raise ConfigError unless value is finite and lies in [low, high], or in (low, high] if above.

    The message reads `<name> must be finite`, `... be at least <low>` or `... lie in [<low>, <high>]`,
    then `, got <value!r>`.
    """
    if not -math.inf < value < math.inf:  # false for NaN too
        bound = "be finite"
    elif (low < value if above else low <= value) and value <= high:
        return
    elif high == math.inf and not above:
        bound = f"be at least {low}"
    else:
        bound = f"lie in {'(' if above else '['}{low}, {high}{']' if high < math.inf else ')'}"
    raise ConfigError(f"{name} must {bound}, got {value!r}")


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    obstacles: frozenset[Cell]
    goals: frozenset[Cell]
    starts: frozenset[Cell]

    def __post_init__(self) -> None:
        check_range("width", self.width, 1)
        check_range("height", self.height, 1)
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
    return GridMap(
        width=width,
        height=len(lines),
        obstacles=frozenset(obstacles),
        goals=frozenset(goals),
        starts=frozenset(starts or _implicit_starts(width, len(lines), obstacles, goals)),
    )


def _implicit_starts(
    width: int, height: int, obstacles: AbstractSet[Cell], goals: AbstractSet[Cell]
) -> set[Cell]:
    """Every free non-goal cell; on a map of goals only, the goals (agents may start on goals)."""
    return {Cell(x, y) for y in range(height) for x in range(width)} - obstacles - goals or set(goals)


def format_map(grid: GridMap) -> str:
    """Inverse of parse_map; emits 'S' only where starts differ from the implicit rule."""
    mark_starts = grid.starts != _implicit_starts(grid.width, grid.height, grid.obstacles, grid.goals)
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

    def __post_init__(self) -> None:
        if self.horizon == 0:
            object.__setattr__(self, "horizon", default_horizon(self.grid))
        check_range("num_agents", self.num_agents, 1)
        if self.num_agents > len(self.grid.starts):
            raise ConfigError(
                f"num_agents={self.num_agents} exceeds the {len(self.grid.starts)} available start cells"
            )
        check_range("horizon", self.horizon, 1)
        check_range("slip_probability", self.slip_probability, 0, 1)


class GridEnv:
    """Stateless stepper over a fixed EnvConfig; agents are flat cell indices (y * width + x)."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.grid = grid = config.grid
        # Flat-index tables; cell index c = y * width + x.
        w, h = grid.width, grid.height
        self.cells = [Cell(c % w, c // w) for c in range(w * h)]
        self.start_index = np.array([self.index(c) for c in sorted(grid.starts)], dtype=np.intp)
        self.goal_mask = np.zeros(w * h, dtype=bool)
        self.goal_mask[[self.index(c) for c in grid.goals]] = True
        free = np.ones(w * h, dtype=bool)
        free[[self.index(c) for c in grid.obstacles]] = False
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
        # As lists, for stepping one episode: per (cell, action) the target and its event, REACHED on a goal.
        self._goal = goal = self.goal_mask.tolist()
        self._move = [[(t, _REACHED if goal[t] else ev) for t, ev in zip(targets, blocked)]
                      for targets, blocked in zip(self.move_target.tolist(), self.move_blocked.astype(int).tolist())]

    def index(self, cell: Cell) -> int:
        return cell.y * self.grid.width + cell.x

    def reset(self, rng: np.random.Generator) -> list[int]:
        """The flat cells of agents placed uniformly at random on distinct start cells."""
        return self.start_index[rng.choice(len(self.start_index), size=self.config.num_agents, replace=False)].tolist()

    def advance(self, pre: list[int], actions: list[int], rng: np.random.Generator) -> tuple[list[int], list[int]]:
        """Move the live agents one step from their distinct flat cells pre; returns their cells and event codes.

        Each agent, in order, may slip to a uniformly random move, then
        moves through the move table or is blocked in place; a lone agent
        is done.  Unless the targets are distinct and none lands on another
        agent's cell, movers that share or swap cells are reverted in rounds:
        the first checks every agent, later ones only the agent headed for a
        cell a revert returned to (a revert makes no mover).  An agent keeps
        its first conflict event, and one that ends on a goal reaches it.
        """
        move, goal, slip = self._move, self._goal, self.config.slip_probability
        if slip > 0.0:
            actions = [MOVE_ACTIONS[int(rng.integers(4))] if rng.random() < slip else a for a in actions]
        if len(pre) == 1:
            final, event = move[pre[0]][actions[0]]
            return [final], [event]
        moves = [move[c][a] for c, a in zip(pre, actions)]
        final = [f for f, _ in moves]
        events = [ev for _, ev in moves]
        # Distinct targets, none a start but the mover's own: no conflict.
        if len(set(pre).union(final)) == len(pre) + sum(map(ne, final, pre)):
            return final, events
        shared: dict[int, int] = {}  # agents per cell
        for c in final:
            shared[c] = shared.get(c, 0) + 1
        origin = {c: i for i, c in enumerate(pre)}  # who stood where
        entering = {f: i for i, (f, c) in enumerate(zip(final, pre)) if f != c}
        check: Iterable[int] = range(len(pre))
        while check:
            reverted = []
            for i in check:
                f = final[i]
                vertex = shared[f] > 1
                j = origin.get(f)
                if vertex or (j is not None and j != i and final[j] == pre[i]):
                    if events[i] not in (_VERTEX, _SWAP):  # no conflict yet, though maybe a REACHED
                        events[i] = _VERTEX if vertex else _SWAP
                    if f != pre[i]:
                        reverted.append(i)
            for i in reverted:
                shared[final[i]] -= 1
                final[i] = c = pre[i]
                shared[c] = shared.get(c, 0) + 1
            # A reverted agent already has its event and stays; only who heads for its cell can change.
            check = [entering[pre[i]] for i in reverted if pre[i] in entering]
        return final, [_REACHED if goal[c] else ev for c, ev in zip(final, events)]

    def step(self, cells: list[Cell], actions: list[Action],
             rng: np.random.Generator) -> tuple[list[Cell], list[StepEvent]]:
        """advance on the live agents' Cells: returns their new Cells and one StepEvent each."""
        n = self.config.num_agents
        if len(cells) != len(actions) or len(cells) > n:
            raise ConfigError(f"expected one action for each of at most {n} agents, "
                              f"got cells={len(cells)} actions={len(actions)}")
        final, events = self.advance([self.index(c) for c in cells], actions, rng)
        return [self.cells[c] for c in final], [STEP_EVENTS[ev] for ev in events]


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


def _trajectory(
    env: GridEnv, cells: list[int], actions: list[int], events: list[int], reached: bool
) -> AgentTrajectory:
    """An AgentTrajectory from flat cells, action values and event codes."""
    return AgentTrajectory(
        cells=list(map(env.cells.__getitem__, cells)),
        actions=list(map(ACTIONS.__getitem__, actions)),
        events=list(map(STEP_EVENTS.__getitem__, events)),
        reached=reached,
    )


def episode_steps(
    env: GridEnv, starts: list[int], choose: Callable[[list[int]], list[int]], rng: np.random.Generator
) -> Iterator[tuple[list[int], list[int], list[int], list[int], list[int]]]:
    """Play one episode from the flat start cells, yielding (agents, before, actions, after, events) per step.

    A step covers the live agents only: agents holds their indices into
    starts, in order, and the other lists one flat cell, action or event
    code each.  An agent placed on a goal is done at t = 0, and one that
    reaches a goal drops out after that step.
    choose(cells) -> actions is called once per step with the live
    agents' cells, after the previous step has been yielded.  The episode
    ends at the horizon or once no agent is live.
    """
    agents = [i for i, c in enumerate(starts) if not env._goal[c]]
    pre = [starts[i] for i in agents]
    for _ in range(env.config.horizon):
        if not agents:
            return
        actions = choose(pre)
        final, events = env.advance(pre, actions, rng)
        yield agents, pre, actions, final, events
        if _REACHED in events:
            agents = [i for i, ev in zip(agents, events) if ev != _REACHED]
            final = [c for c, ev in zip(final, events) if ev != _REACHED]
        pre = final


def run_episode(
    env: GridEnv, policy, rng: np.random.Generator | int, starts: list[int] | None = None
) -> EpisodeRollout:
    """Roll one episode from the flat start cells, or from env.reset(rng); ends at the horizon
    or once every agent has reached a goal.

    rng is a Generator, or a seed for one that is built only if the
    episode draws: for the reset, a stochastic policy or slip.  policy is
    anything with a `sample_actions(cells, rng) -> actions` method, called
    once per step with the live agents' flat cells; a TabularPolicy takes
    one block of uniforms, one per agent in order.  A policy whose
    `deterministic` is true is one-hot on every cell an agent may stand on,
    so at slip 0 a step takes its `fixed_actions`, draws nothing and
    depends only on the live cells it starts from.  Once those repeat, the
    episode stops stepping and repeats each live agent's last cycle of
    cells, actions and events up to the horizon.
    """
    one_hot = env.config.slip_probability == 0.0 and getattr(policy, "deterministic", False)
    if starts is None or not one_hot:
        rng = np.random.default_rng(rng)  # returns a Generator unchanged
        starts = env.reset(rng) if starts is None else starts
    record = [([c], [], []) for c in starts]  # cells, actions, events per agent
    horizon, steps, period = env.config.horizon, 0, 0
    seen: dict[tuple, int] = {}  # if one_hot, the step after which each tuple of live cells was first seen
    if one_hot:  # rng may still be a seed: advance draws nothing at slip 0 either
        fixed = policy.fixed_actions
        choose = lambda cells: [fixed[c] for c in cells]
    else:
        choose = lambda cells: policy.sample_actions(cells, rng)
    for steps, (agents, before, actions, after, events) in enumerate(episode_steps(env, starts, choose, rng), 1):
        for i, action, cell, event in zip(agents, actions, after, events):
            cells, acts, evs = record[i]
            cells.append(cell)
            acts.append(action)
            evs.append(event)
        if one_hot:
            first = seen.setdefault(tuple(before), steps - 1)
            if first < steps - 1:  # this step replays step first + 1, and so on to the horizon
                period = steps - 1 - first
                break
    # Recording stops on a goal, so an agent ends on one only by reaching it.
    trajectories = [_trajectory(env, *r, env._goal[r[0][-1]]) for r in record]
    if period:
        for i in agents:
            t = trajectories[i]
            for column in (t.cells, t.actions, t.events):
                column.extend(islice(cycle(column[-period:]), horizon - steps))
        steps = horizon
    return EpisodeRollout(trajectories=trajectories, steps=steps)


@dataclass
class BatchRollout:
    """A batch of episodes as arrays indexed [episode, agent, step].

    cells holds flat cell indices (y * width + x), actions Action values
    and events indices into STEP_EVENTS.  Agent i of episode b recorded
    lengths[b, i] steps, so its trajectory is cells[b, i, :lengths + 1]
    with actions[b, i, :lengths] and events[b, i, :lengths]; entries past
    that are padding: its last cell, STAY and INACTIVE.  steps[b] is the
    episode's step count.
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
                _trajectory(env, c[: n + 1].tolist(), a[:n].tolist(), e[:n].tolist(), r)
                for c, a, e, n, r in zip(cells, actions, events, lengths, reached)
            ]
            out.append(EpisodeRollout(trajectories=trajectories, steps=steps))
        return out


def _resolve_conflicts(
    owner: np.ndarray, base: np.ndarray, pre: np.ndarray, final: np.ndarray, events: np.ndarray
) -> np.ndarray:
    """GridEnv.advance's revert rounds for the active agents of many episodes, in linear time.

    Agent j stands on cell pre[j] of the episode whose cells start at
    base[j] in owner, a table of -1 with one entry per cell of every
    episode, and is headed for cell final[j] with event MOVED or BLOCKED.
    The agents of one episode stand on distinct cells.  Each round looks
    at the moves as they stand at its start:

    - vertex: every agent writes its index at its target and reads back
      the index kept there; one that finds another's shares its cell
      with that agent;
    - swap: every agent writes its target at its start; a mover that
      reads its own start back at its target swaps with the agent
      standing there.

    An agent keeps its first conflict event, vertex before swap.
    Conflicting movers are reverted and rounds repeat until none is
    left.  Updates events in place, leaves owner all -1 again and returns
    the resolved cells.
    """
    ids = np.arange(len(pre), dtype=owner.dtype)
    start = base + pre
    while True:
        slot = base + final
        owner[slot] = ids
        kept = owner[slot]
        owner[slot] = -1
        vertex = kept != ids
        vertex[kept[vertex]] = True
        moved = final != pre
        owner[start] = final
        swap = (owner[slot] == pre) & moved
        owner[start] = -1
        hit = vertex | swap
        if not hit.any():
            return final
        fresh = hit & (events <= _BLOCKED)  # MOVED or BLOCKED: no conflict yet
        events[fresh] = np.where(vertex[fresh], _VERTEX, _SWAP)
        revert = hit & moved
        if not revert.any():
            return final
        final = np.where(revert, pre, final)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank within its run of equal keys, and that run's length; keys are sorted."""
    first = np.searchsorted(keys, keys, side="left")
    return np.arange(len(keys)) - first, np.searchsorted(keys, keys, side="right") - first


def roll_batch(
    env: GridEnv, cumulative: np.ndarray, seeds: np.ndarray, mix: np.ndarray | None = None
) -> BatchRollout:
    """Roll one episode per seed, all at once, under a shared tabular policy.

    cumulative is the policy's cumulative action distribution per flat
    cell, shape (cells, 5), each row non-decreasing.  With mix, episode k
    acts on the blend (1 - mix[k]) * cumulative + mix[k] * uniform, so
    each episode can explore on its own weight.  Episode k replays
    what run_episode does on default_rng(seeds[k]): the same reset draw,
    then one uniform per active agent and step, taken in agent order, and
    the action is the number of cumulative entries at or below it (the
    last, STAY, at most).  With slip_probability 0 the result equals
    run_episode's exactly.  Slip draws (a uniform and a direction per
    agent-step) come from each episode's generator after the policy
    uniforms, so slipping rollouts follow the same distribution as
    run_episode but not the same draws.

    A step works only on the agents still active, held as flat arrays in
    (episode, agent) order; an agent drops out on the step it reaches a
    goal.  Conflicts are resolved by _resolve_conflicts on one owner
    table with an entry per (episode, cell), so a step costs time linear
    in the number of active agents.
    """
    config = env.config
    batch, n, horizon = len(seeds), config.num_agents, config.horizon
    slip = config.slip_probability
    draws = horizon * n  # uniforms per episode
    slip_draws = draws if slip > 0.0 else 0
    starts = np.empty((batch, n), dtype=np.intp)
    uniforms = np.empty((batch, draws))
    slip_uniforms = np.empty((batch, slip_draws))
    slip_moves = np.empty((batch, slip_draws), dtype=np.intp)
    for k, seed in enumerate(np.asarray(seeds).tolist()):
        rng = np.random.default_rng(seed)
        starts[k] = rng.choice(len(env.start_index), size=n, replace=False)
        uniforms[k] = rng.random(draws)
        if slip > 0.0:
            slip_uniforms[k] = rng.random(draws)
            slip_moves[k] = rng.integers(len(MOVE_ACTIONS), size=draws)
    # Flat agent b * n + i is agent i of episode b; episode b's uniforms start at b * draws.
    start = env.start_index[starts.reshape(-1)]
    uniforms, slip_uniforms, slip_moves = (a.reshape(-1) for a in (uniforms, slip_uniforms, slip_moves))

    # One row per flat agent: cells[:, t + 1] is its cell after step t.
    width = horizon + 1
    cells = np.empty((batch * n, width), dtype=np.intp)
    cells[:, 0] = start
    actions = np.full((batch * n, width), Action.STAY, dtype=np.intp)
    events = np.full((batch * n, width), _INACTIVE, dtype=np.intp)
    after, taken, happened = cells.reshape(-1)[1:], actions.reshape(-1), events.reshape(-1)
    lengths = np.zeros(batch * n, dtype=np.intp)

    num_cells = len(env.move_target)
    target = env.move_target.reshape(-1)
    move_event = env.move_blocked.reshape(-1).astype(np.intp)  # MOVED 0 or BLOCKED 1
    # The action is the first whose cumulative mass exceeds u; STAY takes the rest.
    bounds = np.array(cumulative, dtype=float)
    bounds[:, Action.STAY] = np.inf
    uniform = np.arange(1, len(ACTIONS)) / len(ACTIONS)  # the uniform policy's bounds but STAY's
    # The smallest integer type that holds every agent index and cell keeps the table small.
    owner = np.full(batch * num_cells, -1, dtype=np.min_scalar_type(-max(batch * n, num_cells)))

    # The active agents (those placed on a goal are done at t = 0).  An
    # agent takes the uniform at draw; its episode's stride active agents
    # take stride uniforms per step, until one of them drops out.
    agent = np.flatnonzero(~env.goal_mask[start])
    pos = start[agent]
    row = agent * width
    base = agent // n * num_cells
    rank, stride = _runs(base)
    draw = agent // n * draws + rank
    span = 0
    while span < horizon and len(pos):
        u = uniforms[draw]
        rows = bounds.take(pos, axis=0)
        if mix is not None:
            weight = mix[row // (width * n), None]
            rows[:, : Action.STAY] = (1.0 - weight) * rows[:, : Action.STAY] + weight * uniform
        act = (rows > u[:, None]).argmax(axis=1)
        move = act
        if slip > 0.0:
            move = np.where(slip_uniforms[draw] < slip, slip_moves[draw], act)
        entry = pos * len(ACTIONS) + move  # into the flat move tables
        ev = move_event[entry]
        final = _resolve_conflicts(owner, base, pos, target[entry], ev)
        arrived = env.goal_mask[final]
        ev[arrived] = _REACHED
        at = row + span
        taken[at] = act
        happened[at] = ev
        after[at] = final
        span += 1
        if not arrived.any():
            pos = final
            draw += stride
            continue
        lengths[row[arrived] // width] = span
        keep = ~arrived
        cursor = (draw - rank + stride)[keep]  # each episode's first uniform of the next step
        pos, row, base = final[keep], row[keep], base[keep]
        rank, stride = _runs(base)
        draw = cursor + rank
    lengths[row // width] = span

    # Past its last step an agent stays where it ended, and it ended on a goal only by reaching it.
    last = cells[np.arange(batch * n), lengths]
    np.copyto(cells, last[:, None], where=np.arange(width) > lengths[:, None])
    lengths = lengths.reshape(batch, n)
    return BatchRollout(
        cells=cells[:, : span + 1].reshape(batch, n, span + 1),
        actions=actions[:, :span].reshape(batch, n, span),
        events=events[:, :span].reshape(batch, n, span),
        lengths=lengths,
        reached=env.goal_mask[last].reshape(batch, n),
        steps=lengths.max(axis=1),
    )
