"""Per-layer tracing installed from outside the package.

Each traced function is replaced, for the length of a `Tracer.installed()`
block, by a wrapper that times the call and keeps per-function totals in
memory.  A wrapper has to sit at every name a caller looks the function up
by: `evomapf.egt` calls `run_episode` through its own module global, so
patching `evomapf.gridworld.run_episode` alone would miss those calls.
`patch_everywhere` therefore replaces the function object under every
module attribute of the package that refers to it.  Methods are patched
on their class, which every caller shares.

Self time is a span's duration minus the durations of the traced spans
it directly encloses.  Spans are aggregated per function rather than
stored one by one: the crowd workload makes millions of calls.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Iterator

PACKAGE = "evomapf"

# (module, qualified name) of every traced function, grouped by layer.
TRACED = (
    ("gridworld", "GridEnv.step"),
    ("gridworld", "GridEnv.reset"),
    ("gridworld", "run_episode"),
    ("egt", "TabularPolicy.sample_action"),
    ("egt", "sample_batch"),
    ("egt", "estimate_fitness"),
    ("egt", "replicator_update"),
    ("egt", "mix_with_uniform"),
    ("automaton", "RewardMachine.weights"),
    ("automaton", "valuate"),
    ("baselines", "astar"),
    ("baselines", "qlearning_table"),
    ("baselines", "monte_carlo_table"),
    ("bench", "evaluate"),
    ("bench", "plan_rollout"),
    ("bench", "generate_map"),
    ("bench", "run_suite"),
    ("cli", "main"),
    ("config", "load_config"),
)

COUNTS = (
    ("gridworld.agent_steps", "count"),
    ("gridworld.vertex_conflicts", "count"),
    ("gridworld.swap_conflicts", "count"),
    ("gridworld.obstacle_bumps", "count"),
    ("gridworld.moved_ratio", "ratio"),
    ("egt.timeout_ratio", "ratio"),
    ("automaton.symbols_scored", "count"),
    ("bench.astar_calls_per_agent_episode", "ratio"),
)


def package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextlib.contextmanager
def patch_everywhere(module_name: str, qualname: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace a package function (or method) by `make(original)` at every lookup site."""
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    restore: list[tuple[object, str, object]] = []
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        original = owner.__dict__[attr]
        restore.append((owner, attr, original))
        setattr(owner, attr, make(original))
    else:
        original = getattr(module, qualname)
        replacement = make(original)
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


class Tracer:
    """Aggregated spans (calls, total and self seconds) plus layer counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {
            "agent_steps": 0, "vertex_conflicts": 0, "swap_conflicts": 0,
            "obstacle_bumps": 0, "moves_attempted": 0, "moves_stuck": 0,
            "agent_episodes": 0, "timeouts": 0, "symbols_scored": 0,
            "plan_agent_episodes": 0,
        }
        self._stack: list[float] = []  # traced child seconds of each open span
        self._gridworld = None

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            # Counting runs after the span closes, so it lands in the
            # caller's self time and in the measured tracing overhead.
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self._gridworld = sys.modules[f"{PACKAGE}.gridworld"]
        hooks = {
            "GridEnv.step": self._after_step,
            "run_episode": self._after_rollout,
            "plan_rollout": self._after_plan_rollout,
            "RewardMachine.weights": self._after_weights,
        }
        with contextlib.ExitStack() as stack:
            for module_name, qualname in TRACED:
                name = f"{module_name}.{qualname}"
                after = hooks.get(qualname)
                stack.enter_context(patch_everywhere(
                    module_name, qualname, lambda fn, n=name, a=after: self.wrap(n, fn, a)))
            yield self

    def _after_step(self, args, result) -> None:
        _, state, actions, _ = args
        new_state, events = result
        ev = self._gridworld.StepEvent
        stay = self._gridworld.Action.STAY
        c = self.counts
        for i, event in enumerate(events):
            if event is ev.INACTIVE:
                continue
            c["agent_steps"] += 1
            if event is ev.VERTEX_CONFLICT:
                c["vertex_conflicts"] += 1
            elif event is ev.SWAP_CONFLICT:
                c["swap_conflicts"] += 1
            elif event is ev.BLOCKED_BY_OBSTACLE:
                c["obstacle_bumps"] += 1
            if actions[i] != stay:
                c["moves_attempted"] += 1
                if new_state[i].cell != state[i].cell:
                    c["moves_stuck"] += 1

    def _after_rollout(self, args, rollout) -> None:
        trajs = rollout.trajectories
        self.counts["agent_episodes"] += len(trajs)
        self.counts["timeouts"] += sum(1 for t in trajs if not t.reached)

    def _after_plan_rollout(self, args, rollout) -> None:
        self._after_rollout(args, rollout)
        self.counts["plan_agent_episodes"] += len(rollout.trajectories)

    def _after_weights(self, args, weights) -> None:
        self.counts["symbols_scored"] += len(weights)

    def metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-unit means of every span and counter, as (value, unit) pairs."""
        out: dict[str, tuple[float, str]] = {}
        for module_name, qualname in TRACED:
            calls, total, self_s = self.spans.get(f"{module_name}.{qualname}", (0, 0.0, 0.0))
            prefix = f"{module_name}.{qualname}"
            out[f"{prefix}.calls"] = (calls / units, "count")
            out[f"{prefix}.total_s"] = (total / units, "s")
            out[f"{prefix}.self_s"] = (self_s / units, "s")
        c = self.counts
        astar_calls = self.spans.get("baselines.astar", (0,))[0]
        derived = {
            "gridworld.agent_steps": c["agent_steps"] / units,
            "gridworld.vertex_conflicts": c["vertex_conflicts"] / units,
            "gridworld.swap_conflicts": c["swap_conflicts"] / units,
            "gridworld.obstacle_bumps": c["obstacle_bumps"] / units,
            "gridworld.moved_ratio": _ratio(c["moves_stuck"], c["moves_attempted"]),
            "egt.timeout_ratio": _ratio(c["timeouts"], c["agent_episodes"]),
            "automaton.symbols_scored": c["symbols_scored"] / units,
            "bench.astar_calls_per_agent_episode": _ratio(astar_calls, c["plan_agent_episodes"]),
        }
        for name, unit in COUNTS:
            out[name] = (derived[name], unit)
        return out

    def self_seconds(self) -> float:
        return sum(stats[2] for stats in self.spans.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
