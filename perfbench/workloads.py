"""The three benchmark workloads.

A workload builds its inputs in `setup` from the workload seed, does one
fixed amount of work per `unit` call, and checks that unit's outputs in
`check`.  Only the calls into `evomapf` inside `unit` are timed; the
checks and counting run outside the timed spans.  Why each workload was
chosen is written down in WORKLOADS.md beside this file.

Every workload reports every end-to-end metric, so that one bound per
metric holds across all of them:

- episodes and active agent-steps are counted from the trajectories the
  measured phase returns, at the one name its caller looks the rollout up
  by (`patch_in`), so that rollouts made elsewhere are not counted;
- success, timesteps and collisions are `bench.evaluate` figures (for
  `suite-small`, pooled over the rows of the CSV the sweep writes).
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import os
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

from tracing import PACKAGE, package_modules

clock = time.perf_counter

MODULES = ("gridworld", "automaton", "egt", "baselines", "bench", "config", "cli")


def import_package() -> SimpleNamespace:
    """Import evomapf afresh, so that set-up time includes the package imports."""
    for module in package_modules():
        del sys.modules[module.__name__]
    for name in MODULES:
        importlib.import_module(f"{PACKAGE}.{name}")
    return SimpleNamespace(**{name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES})


@contextlib.contextmanager
def patch_in(module, attr: str, make):
    """Replace `module.attr` by `make(original)`: only the calls that look it up there see it."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class RolloutCounter:
    """Counts episodes and active agent-steps in the rollouts a function returns.

    `batches` wraps `egt.sample_batch`, `rollouts` wraps a single-episode
    function such as `run_episode`; both return the result unchanged.
    """

    def __init__(self) -> None:
        self.episodes = 0
        self.agent_steps = 0

    def _count(self, rollout) -> None:
        self.episodes += 1
        self.agent_steps += sum(len(t.actions) for t in rollout.trajectories)

    def rollouts(self, fn):
        def counted(*args, **kwargs):
            rollout = fn(*args, **kwargs)
            self._count(rollout)
            return rollout
        return counted

    def batches(self, fn):
        def counted(*args, **kwargs):
            batch = fn(*args, **kwargs)
            for rollout in batch.rollouts:
                self._count(rollout)
            return batch
        return counted


# ---------------------------------------------------------------------------
# Output checks.  Each returns the number of failed operations it found.


def policy_rows_off_simplex(probs: np.ndarray, tol: float = 1e-9) -> int:
    """Rows that are not probability distributions (|sum - 1| > tol, a negative or NaN entry)."""
    rows = np.asarray(probs, dtype=float).reshape(-1, probs.shape[-1])
    bad = ~np.isfinite(rows).all(axis=1)
    bad |= np.abs(rows.sum(axis=1) - 1.0) > tol
    bad |= rows.min(axis=1) < 0.0
    return int(bad.sum())


def evaluation_is_sane(metrics) -> bool:
    """The Metrics of a run in which some agent reached a goal."""
    return (
        0.0 < metrics.success_rate <= 1.0
        and metrics.mean_timesteps is not None
        and math.isfinite(metrics.mean_timesteps)
        and metrics.mean_timesteps >= 0.0
        and math.isfinite(metrics.collisions_per_episode)
        and metrics.collisions_per_episode >= 0.0
    )


def rollout_violations(trajectories, obstacles, width: int, height: int) -> int:
    """Cells shared by two active agents after a step, plus cells on obstacles or off the grid.

    An agent is active at step t while its trajectory still records a
    cell for t; recording stops on the step it reaches a goal.
    """
    cells = [list(t.cells) for t in trajectories]
    violations = 0
    for t in range(max(len(c) for c in cells)):
        here = [c[t] for c in cells if t < len(c)]
        violations += len(here) - len(set(here))
        violations += sum(
            1 for cell in here
            if cell in obstacles or not (0 <= cell.x < width and 0 <= cell.y < height)
        )
    return violations


def read_suite_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def suite_row_failures(rows: list[dict[str, str]], expected_rows: int) -> int:
    """Rows with a non-empty `error` column, plus rows missing from the CSV."""
    failed = sum(1 for row in rows if row.get("error"))
    return failed + max(0, expected_rows - len(rows))


# ---------------------------------------------------------------------------
# Workloads.


def _mean(values) -> float:
    """Mean of the values that are there; 0 when none is, so that a failed run still reports."""
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _eval_figures(metrics_list) -> dict[str, float]:
    # No arrivals leave mean_timesteps None; check() has already failed that unit.
    return {
        "success_rate": _mean(m.success_rate for m in metrics_list),
        "mean_timesteps": _mean(m.mean_timesteps for m in metrics_list),
        "collisions_per_episode": _mean(m.collisions_per_episode for m in metrics_list),
    }


class TrainTown:
    """Replicator training on the acceptance-6 fixture, then evaluation of the trained policy."""

    name = "train-town"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.iterations = 3 if smoke else 30
        self.batch_size = 16 if smoke else 256
        self.eval_episodes = 50 if smoke else 2000

    def setup(self) -> None:
        api = self.api = import_package()
        grid = api.bench.generate_map(20, 20, 0.1, np.random.default_rng([7, 20]))
        rewards = api.automaton.RewardParams(
            step_penalty=1.0, goal_reward=800.0, collision_penalty=100.0, horizon=80, gamma=0.97
        )
        self.env_config = api.gridworld.EnvConfig(grid=grid, num_agents=2, horizon=80)
        self.config = api.egt.TrainConfig(
            env=self.env_config,
            rewards=rewards,
            valuation=api.automaton.discounted_sum(0.97),
            batch_size=self.batch_size,
            max_iterations=self.iterations,
            patience=self.iterations + 1,
            epsilon=0.05,
            alpha=0.3,
        )

    def unit(self, index: int) -> dict:
        api = self.api
        counter = RolloutCounter()
        with patch_in(api.egt, "sample_batch", counter.batches):
            started = clock()
            report = api.egt.train(self.config, np.random.default_rng([self.seed, index]))
            train_s = clock() - started
        eval_rng = np.random.default_rng([self.seed, index, 1])
        started = clock()
        metrics = api.bench.evaluate(report.policy, self.env_config, self.eval_episodes, eval_rng)
        eval_s = clock() - started
        return {
            "wall_s": train_s + eval_s,
            "train_s": train_s,
            "episodes": counter.episodes,
            "agent_steps": counter.agent_steps,
            "report": report,
            "metrics": metrics,
        }

    def check(self, out: dict) -> tuple[int, int]:
        report = out["report"]
        trained_ok = (
            report.iterations == self.iterations
            and out["episodes"] == self.iterations * self.batch_size
            and policy_rows_off_simplex(report.policy.probs) == 0
            and all(math.isfinite(r) for r in report.batch_returns)
        )
        return 2, int(not trained_ok) + int(not evaluation_is_sane(out["metrics"]))

    def final_checks(self) -> tuple[int, int]:
        return 0, 0

    def metrics(self, outs: list[dict]) -> dict[str, float]:
        return {
            "wall_s": statistics.median(o["wall_s"] for o in outs),
            "episodes_per_s": statistics.median(o["episodes"] / o["train_s"] for o in outs),
            "agent_steps_per_s": statistics.median(o["agent_steps"] / o["train_s"] for o in outs),
            **_eval_figures([o["metrics"] for o in outs]),
        }


def greedy_field_policy(api, grid, mix: float):
    """Policy over a BFS distance-to-goal field: greedy step with most mass, `mix` uniform.

    The greedy action is the first of up/down/left/right that lowers the
    distance; goal cells stay.  Built by the benchmark, not by training.
    """
    Action, Cell = api.gridworld.Action, api.gridworld.Cell
    deltas = api.gridworld.ACTION_DELTAS
    dist = np.full((grid.height, grid.width), -1, dtype=np.int64)
    frontier = sorted(grid.goals)
    for goal in frontier:
        dist[goal.y, goal.x] = 0
    while frontier:
        nxt = []
        for cell in frontier:
            for action in api.gridworld.MOVE_ACTIONS:
                dx, dy = deltas[action]
                n = Cell(cell.x + dx, cell.y + dy)
                if grid.passable(n) and dist[n.y, n.x] < 0:
                    dist[n.y, n.x] = dist[cell.y, cell.x] + 1
                    nxt.append(n)
        frontier = nxt
    num_actions = len(Action)
    probs = np.full((grid.height, grid.width, num_actions), mix / num_actions)
    for cell in grid.free_cells():
        best = Action.STAY
        for action in api.gridworld.MOVE_ACTIONS:
            dx, dy = deltas[action]
            n = Cell(cell.x + dx, cell.y + dy)
            if grid.passable(n) and dist[n.y, n.x] < dist[cell.y, cell.x]:
                best = action
                break
        probs[cell.y, cell.x, best] += 1.0 - mix
    return api.egt.TabularPolicy(grid.width, grid.height, probs, grid.free_cells())


class EvalCrowd:
    """Evaluation of a fixed 25-agent policy on the acceptance-8 map."""

    name = "eval-crowd"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.episodes = 2 if smoke else 50
        self.check_rollouts = 1 if smoke else 5

    def setup(self) -> None:
        api = self.api = import_package()
        self.grid = api.bench.generate_map(50, 50, 0.1, np.random.default_rng([0, 50]))
        self.env_config = api.gridworld.EnvConfig(grid=self.grid, num_agents=25, horizon=200)
        self.policy = greedy_field_policy(api, self.grid, mix=0.1)

    def unit(self, index: int) -> dict:
        counter = RolloutCounter()
        rng = np.random.default_rng([self.seed, index])
        with patch_in(self.api.bench, "run_episode", counter.rollouts):
            started = clock()
            metrics = self.api.bench.evaluate(self.policy, self.env_config, self.episodes, rng)
            wall_s = clock() - started
        return {"wall_s": wall_s, "episodes": counter.episodes,
                "agent_steps": counter.agent_steps, "metrics": metrics}

    def check(self, out: dict) -> tuple[int, int]:
        ok = evaluation_is_sane(out["metrics"]) and out["episodes"] == self.episodes
        return 1, int(not ok)

    def final_checks(self) -> tuple[int, int]:
        """Replay a few episodes and check the occupancy rules after every step."""
        api = self.api
        env = api.gridworld.GridEnv(self.env_config)
        failed = 0
        for k in range(self.check_rollouts):
            rollout = api.gridworld.run_episode(
                env, self.policy, np.random.default_rng([self.seed, 1_000_000 + k]))
            bad = rollout_violations(
                rollout.trajectories, self.grid.obstacles, self.grid.width, self.grid.height)
            failed += int(bad > 0)
        return self.check_rollouts, failed

    def metrics(self, outs: list[dict]) -> dict[str, float]:
        return {
            "wall_s": statistics.median(o["wall_s"] for o in outs),
            "episodes_per_s": statistics.median(o["episodes"] / o["wall_s"] for o in outs),
            "agent_steps_per_s": statistics.median(o["agent_steps"] / o["wall_s"] for o in outs),
            **_eval_figures([o["metrics"] for o in outs]),
        }


SUITE_INI = """\
[suite]
sizes = {sizes}
agents = 2,4
algorithms = egt,astar,qlearning,montecarlo
eval_episodes = {eval_episodes}
train_episodes = {train_episodes}
density = 0.1
"""


class SuiteSmall:
    """`evomapf bench` over two sizes, two agent counts and all four algorithms, via cli.main.

    The sweep keeps the suite's default seed (0) whatever the workload
    seed: `run_suite` draws its maps and every training and evaluation
    stream from that one seed, and one sweep is all a run has time for,
    so a seeded sweep would measure the maps rather than the code (over
    workload seeds 1-5 its wall time spread by 29%).
    """

    name = "suite-small"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.workdir = workdir
        self.sizes = (10,) if smoke else (10, 20)
        self.eval_episodes = 5 if smoke else 100
        self.train_episodes = 20 if smoke else 1000
        self.expected_rows = len(self.sizes) * 2 * 4

    def setup(self) -> None:
        self.api = import_package()
        self.ini_path = os.path.join(self.workdir, "suite.ini")
        with open(self.ini_path, "w") as fh:
            fh.write(SUITE_INI.format(
                sizes=",".join(map(str, self.sizes)),
                eval_episodes=self.eval_episodes,
                train_episodes=self.train_episodes,
            ))

    def unit(self, index: int) -> dict:
        counter = RolloutCounter()
        eval_time = [0.0]

        def timed(fn):
            def wrapper(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    eval_time[0] += clock() - started
            return wrapper

        # Only `bench.evaluate` looks the rollouts up in `bench`; training
        # rolls its episodes through `egt` and `baselines`, and is not counted.
        bench = self.api.bench
        csv_path = os.path.join(self.workdir, f"suite-{index}.csv")
        argv = ["bench", "--config", self.ini_path, "--out", csv_path]
        with contextlib.ExitStack() as stack:
            stack.enter_context(patch_in(bench, "run_episode", counter.rollouts))
            stack.enter_context(patch_in(bench, "plan_rollout", counter.rollouts))
            stack.enter_context(patch_in(bench, "evaluate", timed))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            started = clock()
            status = self.api.cli.main(argv)
            wall_s = clock() - started
        rows = read_suite_csv(csv_path) if os.path.exists(csv_path) else []
        if rows:
            os.remove(csv_path)
        return {"wall_s": wall_s, "status": status, "rows": rows, "eval_s": eval_time[0],
                "episodes": counter.episodes, "agent_steps": counter.agent_steps}

    def check(self, out: dict) -> tuple[int, int]:
        """One operation per expected CSV row, plus the count of evaluation episodes."""
        clean_rows = sum(1 for row in out["rows"] if not row.get("error"))
        miscounted = out["episodes"] != clean_rows * self.eval_episodes
        return self.expected_rows + 1, suite_row_failures(out["rows"], self.expected_rows) + miscounted

    def final_checks(self) -> tuple[int, int]:
        return 0, 0

    def metrics(self, outs: list[dict]) -> dict[str, float]:
        rows = [row for o in outs for row in o["rows"]]

        def column(name: str):
            # A row that failed, or had no arrivals, holds "na"; check() counted the failure.
            return (float(r[name]) for r in rows if r.get(name, "na") != "na")

        # Pool the rows: every row evaluates the same number of episodes,
        # so means of per-row rates are pooled rates.
        return {
            "wall_s": statistics.median(o["wall_s"] for o in outs),
            "episodes_per_s": statistics.median(_rate(o["episodes"], o["eval_s"]) for o in outs),
            "agent_steps_per_s": statistics.median(_rate(o["agent_steps"], o["eval_s"]) for o in outs),
            "success_rate": _mean(column("success_rate")),
            "mean_timesteps": _mean(column("mean_timesteps")),
            "collisions_per_episode": _mean(column("collisions_per_episode")),
        }


WORKLOADS = {w.name: w for w in (TrainTown, EvalCrowd, SuiteSmall)}
