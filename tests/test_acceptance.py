"""Acceptance suite: end-to-end checks of reward soundness, training
invariants, benchmark behavior, and CLI reproducibility.

Each test prints one `ACCEPTANCE <n> <label>: PASS|FAIL` line before its
assertions so a suite run reads as a checklist.
"""

from __future__ import annotations

import csv
import itertools
import json
import time

import numpy as np
import pytest

from evomapf.automaton import (
    SUM,
    RewardParams,
    discounted_sum,
    reach_avoid_machine,
    valuate,
)
from evomapf.baselines import astar
from evomapf.bench import evaluate, generate_map, train_in_workers
from evomapf.cli import main as cli_main
from evomapf.egt import (
    FitnessTable,
    TabularPolicy,
    TrainConfig,
    estimate_fitness,
    mix_with_uniform,
    replicator_update,
    sample_batch,
    train,
)
from evomapf.gridworld import (
    Action,
    AgentStatus,
    Cell,
    COLLISION_EVENTS,
    EnvConfig,
    GridEnv,
    GridMap,
    parse_map,
    run_episode,
)

from oracles import bfs_path_length, reach_avoid_automaton, runs


def report_line(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")


def stripped(policy: TabularPolicy, mix_weight: float) -> TabularPolicy:
    """Undo the residual uniform exploration mixture of a trained policy."""
    probs = (policy.probs - mix_weight / 5.0) / (1.0 - mix_weight)
    return TabularPolicy(policy.width, policy.height, probs, policy.cells)


class ScriptPolicy:
    """Replays a fixed action sequence (single-agent episodes only)."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.cursor = 0

    def sample_actions(self, cells, rng):
        actions = self.actions[self.cursor : self.cursor + len(cells)]
        self.cursor += len(cells)
        return actions


# ---------------------------------------------------------------------------
# 1: earlier arrivals always outweigh later ones


def test_01_arrival_order_weight_dominance():
    started = time.perf_counter()
    params = RewardParams.default_for(40)
    machine = reach_avoid_machine(params)
    valuations = (SUM, discounted_sum(0.99))
    rng = np.random.default_rng(42)
    maps = [generate_map(10, 10, 0.1, np.random.default_rng([i, 10])) for i in range(20)]

    checked = 0
    ordered = 0
    while checked < 1000:
        grid = maps[checked % len(maps)]
        starts = sorted(grid.starts)
        i, j = rng.choice(len(starts), size=2, replace=False)
        toa_a = len(astar(grid, starts[i])) - 1
        toa_b = len(astar(grid, starts[j])) - 1
        if toa_a == toa_b:
            # Delay one walk with a leading wait so the arrival times differ.
            toa_b += 1 + int(rng.integers(3))
        early, late = sorted((toa_a, toa_b))
        obs_early = [(False, False)] * early + [(True, False)]
        obs_late = [(False, False)] * late + [(True, False)]
        w_early = machine.weights(obs_early)
        w_late = machine.weights(obs_late)
        checked += 1
        if all(valuate(w_early, v) > valuate(w_late, v) for v in valuations):
            ordered += 1
    elapsed = time.perf_counter() - started

    ok = ordered == 1000 and elapsed < 5.0
    report_line(1, "arrival-order weight dominance", ok)
    print(f"  ordered pairs: {ordered}/1000 in {elapsed:.2f}s")
    assert ordered == 1000
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2: with b = c, positive total weight certifies a clean goal run


def test_02_positive_weight_implies_clean_goal_runs():
    started = time.perf_counter()
    grid = parse_map("..G\n.#.\n...\n")
    params = RewardParams(
        step_penalty=1.0, goal_reward=10.0, collision_penalty=10.0, horizon=5
    )
    machine = reach_avoid_machine(params)
    env = GridEnv(EnvConfig(grid=grid, horizon=5))

    positives = 0
    violations = 0
    total = 0
    for start in sorted(grid.starts):
        for script in itertools.product(tuple(Action), repeat=5):
            rollout = run_episode(
                env,
                ScriptPolicy(script),
                np.random.default_rng(0),
                initial_state=(AgentStatus(start),),
            )
            traj = rollout.trajectories[0]
            total_weight = valuate(machine.weights(traj.observations()), SUM)
            total += 1
            if total_weight > 0:
                positives += 1
                clean = traj.reached and not any(
                    ev in COLLISION_EVENTS for ev in traj.events
                )
                if not clean:
                    violations += 1
    elapsed = time.perf_counter() - started

    ok = violations == 0 and positives > 0 and elapsed < 10.0
    report_line(2, "positive weight implies a clean goal run", ok)
    print(
        f"  trajectories: {total}, positive: {positives}, "
        f"violations: {violations}, {elapsed:.2f}s"
    )
    assert positives > 0
    assert violations == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3: the online reward stream equals the offline automaton run


def test_03_online_and_offline_rewards_agree():
    started = time.perf_counter()
    maps = [generate_map(8, 8, 0.15, np.random.default_rng([i, 99])) for i in range(10)]
    mismatches = 0
    trajectories = 0
    for episode in range(500):
        grid = maps[episode % len(maps)]
        config = EnvConfig(grid=grid, num_agents=1 + episode % 3)
        env = GridEnv(config)
        params = RewardParams.default_for(config.horizon)
        machine = reach_avoid_machine(params)
        automaton = reach_avoid_automaton(params)
        policy = TabularPolicy.uniform(grid)
        rollout = run_episode(env, policy, np.random.default_rng(episode))
        for traj in rollout.trajectories:
            obs = traj.observations()
            online = machine.weights(obs)
            offline = runs(automaton, obs)
            trajectories += 1
            if len(offline) != 1:
                mismatches += 1
                continue
            if list(offline[0].weights) != online:
                mismatches += 1
            if offline[0].accepting != traj.reached:
                mismatches += 1
    elapsed = time.perf_counter() - started

    ok = mismatches == 0 and elapsed < 5.0
    report_line(3, "online/offline reward agreement", ok)
    print(f"  trajectories: {trajectories}, mismatches: {mismatches}, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4: every replicator update stays on the probability simplex


def test_04_replicator_simplex_invariants():
    grid = generate_map(6, 6, 0.15, np.random.default_rng([3, 6]))
    config = EnvConfig(grid=grid, num_agents=2)
    machine = reach_avoid_machine(RewardParams.default_for(config.horizon))
    env = GridEnv(config)
    rng = np.random.default_rng(0)
    valuation = discounted_sum(0.99)

    policy = TabularPolicy.uniform(grid)
    mix_weight = 1.0
    worst_row_error = 0.0
    min_entry = np.inf
    for _ in range(100):
        batch = sample_batch(policy, env, machine, valuation, 16, rng)
        fitness = estimate_fitness(batch, grid)
        policy = replicator_update(policy, fitness, 0.5)
        for probs in (policy.probs,):
            worst_row_error = max(worst_row_error, float(np.abs(probs.sum(axis=2) - 1.0).max()))
            min_entry = min(min_entry, float(probs.min()))
        mix_weight = max(0.05, mix_weight - 0.05)
        policy = mix_with_uniform(policy, mix_weight)
        worst_row_error = max(worst_row_error, float(np.abs(policy.probs.sum(axis=2) - 1.0).max()))
        min_entry = min(min_entry, float(policy.probs.min()))

    # A fitness table that is constant over all actions must not move the policy.
    flat = FitnessTable.zeros(grid)
    flat.action_counts[:] = 1
    flat.action_sums[:] = 3.7
    fixed = replicator_update(policy, flat, 0.7)
    drift = float(np.abs(fixed.probs - policy.probs).max())

    ok = worst_row_error <= 1e-9 and min_entry >= 0.0 and drift <= 1e-12
    report_line(4, "replicator simplex invariants", ok)
    print(
        f"  max row-sum error: {worst_row_error:.2e}, min entry: {min_entry:.2e}, "
        f"uniform-fitness drift: {drift:.2e}"
    )
    assert worst_row_error <= 1e-9
    assert min_entry >= 0.0
    assert drift <= 1e-12


# ---------------------------------------------------------------------------
# 5: trained greedy paths come close to the optimal planner


def test_05_near_optimal_paths_on_an_open_grid():
    size = 10
    goal = Cell(9, 9)
    cells = [Cell(x, y) for y in range(size) for x in range(size)]
    grid = GridMap(
        width=size,
        height=size,
        obstacles=frozenset(),
        goals=frozenset({goal}),
        starts=frozenset(c for c in cells if c != goal),
    )
    rewards = RewardParams(
        step_penalty=1.0, goal_reward=400.0, collision_penalty=50.0, horizon=40, gamma=0.9
    )
    env_config = EnvConfig(grid=grid, horizon=40)
    config = TrainConfig(
        env=env_config,
        rewards=rewards,
        batch_size=256,
        max_iterations=400,
        patience=401,
        epsilon=0.05,
        alpha=0.3,
    )
    result = train(config, np.random.default_rng(0))
    greedy = result.policy.greedy()

    env = GridEnv(env_config)
    starts = sorted(grid.starts)
    picks = np.random.default_rng(123).choice(len(starts), size=20, replace=False)
    near_optimal = 0
    for pick in picks:
        start = starts[int(pick)]
        optimal = len(astar(grid, start)) - 1
        rollout = run_episode(
            env, greedy, np.random.default_rng(0), initial_state=(AgentStatus(start),)
        )
        arrival = rollout.trajectories[0].arrival_time
        if arrival is not None and arrival <= 1.2 * optimal:
            near_optimal += 1

    ok = near_optimal >= 18 and result.wall_clock_seconds < 60.0
    report_line(5, "near-optimal paths on an open grid", ok)
    print(
        f"  near-optimal starts: {near_optimal}/20, "
        f"training: {result.wall_clock_seconds:.1f}s"
    )
    assert near_optimal >= 18
    assert result.wall_clock_seconds < 60.0


# ---------------------------------------------------------------------------
# 6 and 7 share one trained policy on the same generated 20x20 map


@pytest.fixture(scope="module")
def town_map():
    return generate_map(20, 20, 0.1, np.random.default_rng([7, 20]))


@pytest.fixture(scope="module")
def town_training(town_map):
    rewards = RewardParams(
        step_penalty=1.0, goal_reward=800.0, collision_penalty=100.0, horizon=80, gamma=0.97
    )
    env_config = EnvConfig(grid=town_map, num_agents=2, horizon=80)
    config = TrainConfig(
        env=env_config,
        rewards=rewards,
        batch_size=256,
        max_iterations=500,
        patience=501,
        epsilon=0.05,
        alpha=0.3,
    )
    result = train(config, np.random.default_rng(0))
    return {
        "rewards": rewards,
        "env_config": env_config,
        "result": result,
        "policy": stripped(result.policy, result.final_mix_weight),
    }


def test_06_two_agent_reach_avoid_on_a_random_map(town_map, town_training):
    env_config = town_training["env_config"]
    policy = town_training["policy"]
    metrics = evaluate(policy, env_config, 200, np.random.default_rng(123))

    # Obstacle cells are unreachable by construction; confirm on live rollouts.
    env = GridEnv(env_config)
    occupancy_violations = 0
    for episode in range(20):
        rollout = run_episode(env, policy, np.random.default_rng(episode))
        for traj in rollout.trajectories:
            occupancy_violations += sum(1 for c in traj.cells if c in town_map.obstacles)

    train_seconds = town_training["result"].wall_clock_seconds
    ok = (
        metrics.success_rate >= 0.95
        and occupancy_violations == 0
        and metrics.collisions_per_episode < 0.1
        and train_seconds < 300.0
    )
    report_line(6, "two-agent reach-avoid on a random map", ok)
    print(
        f"  success: {metrics.success_rate:.3f}, collisions/episode: "
        f"{metrics.collisions_per_episode:.3f}, obstacle violations: "
        f"{occupancy_violations}, training: {train_seconds:.0f}s"
    )
    assert metrics.success_rate >= 0.95
    assert occupancy_violations == 0
    assert train_seconds < 300.0
    assert metrics.collisions_per_episode < 0.1


def test_07_sample_efficiency_against_tabular_baselines(town_training):
    env_config = town_training["env_config"]
    rewards = town_training["rewards"]
    result = town_training["result"]
    budget = result.config.batch_size * result.iterations
    assert budget == 128_000

    subjects = {"egt": result.policy.greedy()}
    # The two learners train side by side in worker processes, each as it would here.
    calls = [(name, env_config, rewards, budget, np.random.default_rng(0)) for name in ("qlearning", "montecarlo")]
    for (name, *_), outcome in zip(calls, list(train_in_workers(calls))):
        if isinstance(outcome, Exception):
            raise outcome
        subjects[name], _ = outcome
    results = {
        name: evaluate(subject, env_config, 200, np.random.default_rng(123))
        for name, subject in subjects.items()
    }

    timesteps = {name: m.mean_timesteps for name, m in results.items()}
    ok = (
        timesteps["egt"] is not None
        and timesteps["qlearning"] is not None
        and timesteps["montecarlo"] is not None
        and timesteps["egt"] <= timesteps["qlearning"]
        and timesteps["egt"] <= timesteps["montecarlo"]
    )
    report_line(7, "sample efficiency against tabular baselines", ok)
    horizon = env_config.horizon
    for name in ("egt", "qlearning", "montecarlo"):
        m = results[name]
        steps = "na" if m.mean_timesteps is None else f"{m.mean_timesteps:.2f}"
        print(
            f"  {name}: mean timesteps {steps} "
            f"(success {m.success_rate:.3f}, cost {m.mean_cost:.2f} with failures at T={horizon}) "
            f"at {budget} episodes"
        )
    assert timesteps["egt"] is not None
    assert timesteps["qlearning"] is None or timesteps["egt"] <= timesteps["qlearning"]
    assert timesteps["montecarlo"] is None or timesteps["egt"] <= timesteps["montecarlo"]


# ---------------------------------------------------------------------------
# 8: shared-policy evaluation cost grows sub-linearly with the agent count


def test_08_evaluation_scales_sublinearly_with_agents():
    grid = generate_map(50, 50, 0.1, np.random.default_rng([0, 50]))
    rewards = RewardParams(
        step_penalty=1.0, goal_reward=2000.0, collision_penalty=250.0, horizon=200, gamma=0.97
    )
    config = TrainConfig(
        env=EnvConfig(grid=grid, num_agents=2, horizon=200),
        rewards=rewards,
        batch_size=32,
        max_iterations=50,
        patience=51,
        epsilon=0.05,
        alpha=0.3,
    )
    result = train(config, np.random.default_rng(0))
    policy = stripped(result.policy, result.final_mix_weight)

    clocks = {}
    for num_agents in (2, 10, 25):
        env_config = EnvConfig(grid=grid, num_agents=num_agents, horizon=200)
        metrics = evaluate(policy, env_config, 200, np.random.default_rng(77))
        clocks[num_agents] = metrics.eval_seconds

    ratio_10 = clocks[10] / clocks[2]
    ratio_25 = clocks[25] / clocks[2]
    ok = ratio_10 < 5.0 and ratio_25 < 12.5
    report_line(8, "evaluation scales sub-linearly with agents", ok)
    print(
        f"  eval seconds - 2 agents: {clocks[2]:.2f}, 10 agents: {clocks[10]:.2f} "
        f"(x{ratio_10:.2f}, linear x5.0), 25 agents: {clocks[25]:.2f} "
        f"(x{ratio_25:.2f}, linear x12.5)"
    )
    assert ratio_10 < 5.0
    assert ratio_25 < 12.5


# ---------------------------------------------------------------------------
# 9: the planner is exact


def test_09_planner_matches_breadth_first_oracle():
    agreements = 0
    instances = 0
    for i in range(100):
        grid = generate_map(10, 10, 0.2, np.random.default_rng([i, 900]))
        obstacles = {(c.x, c.y) for c in grid.obstacles}
        goals = {(g.x, g.y) for g in grid.goals}
        for start in sorted(grid.starts):
            path = astar(grid, start)
            want = bfs_path_length(10, 10, obstacles, (start.x, start.y), goals)
            instances += 1
            if path is not None and want is not None and len(path) - 1 == want:
                agreements += 1

    ok = agreements == instances
    report_line(9, "planner matches the breadth-first oracle", ok)
    print(f"  agreement: {agreements}/{instances} start cells across 100 maps")
    assert agreements == instances


# ---------------------------------------------------------------------------
# 10: seeded CLI runs are reproducible


def masked_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header = rows[0]
    timing = [i for i, name in enumerate(header) if name.endswith("_seconds")]
    for row in rows[1:]:
        for i in timing:
            row[i] = "-"
    return rows


def test_10_seeded_cli_runs_reproduce_outputs(tmp_path, capsys):
    (tmp_path / "strip.map").write_text("....G\n")
    config = tmp_path / "run.ini"
    config.write_text(
        "[env]\nmap = strip.map\nhorizon = 6\n\n[train]\nbatch_size = 8\nmax_iterations = 4\n"
    )
    checks: list[bool] = []

    # train: identical policy bytes, identical report minus the wall clock
    policies = []
    reports = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.policy")
        assert cli_main(["train", "--config", str(config), "--seed", "5", "--out", out]) == 0
        policies.append(open(out, "rb").read())
        report = json.load(open(out + ".report.json"))
        report.pop("wall_clock_seconds")
        reports.append(report)
    checks.append(policies[0] == policies[1] and reports[0] == reports[1])

    # eval: identical stdout minus the timing line, identical masked CSV
    outputs = []
    tables = []
    for name in ("a", "b"):
        out_csv = str(tmp_path / f"eval_{name}.csv")
        capsys.readouterr()
        code = cli_main(
            ["eval", str(tmp_path / "a.policy"), "--config", str(config),
             "--episodes", "5", "--seed", "9", "--out", out_csv]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.append([line for line in lines if not line.startswith("eval_seconds")])
        tables.append(masked_csv(out_csv))
    checks.append(outputs[0] == outputs[1] and tables[0] == tables[1])

    # bench: identical masked CSV
    tables = []
    for name in ("a", "b"):
        out_csv = str(tmp_path / f"bench_{name}.csv")
        code = cli_main(
            ["bench", "--sizes", "5", "--agents", "1", "--algos", "astar,qlearning",
             "--episodes", "2", "--seed", "3", "--out", out_csv]
        )
        assert code == 0
        tables.append(masked_csv(out_csv))
    checks.append(tables[0] == tables[1])

    # genmap: identical stdout and identical file bytes
    maps = []
    for name in ("a", "b"):
        capsys.readouterr()
        assert cli_main(["genmap", "--width", "12", "--height", "9", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        out_map = str(tmp_path / f"{name}.map")
        assert cli_main(
            ["genmap", "--width", "12", "--height", "9", "--seed", "4", "--out", out_map]
        ) == 0
        maps.append((text, open(out_map, "rb").read()))
    checks.append(maps[0] == maps[1])

    ok = all(checks)
    report_line(10, "seeded CLI runs reproduce byte-identical outputs", ok)
    print(f"  train/eval/bench/genmap reproducible: {checks}")
    assert all(checks)
