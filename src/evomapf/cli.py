"""Command-line interface: train, eval, bench, and genmap subcommands."""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .baselines import monte_carlo_train, qlearning_train
from .bench import evaluate, generate_map, metrics_row, run_suite, write_csv
from .config import RunConfig, load_config
from .egt import load_policy, save_policy, train
from .gridworld import ConfigError, MapParseError, format_map


def _echo_env(config: RunConfig, env) -> dict[str, str]:
    return {
        "env.map": config.get("env", "map") or "",
        "env.width": str(env.grid.width),
        "env.height": str(env.grid.height),
        "env.num_agents": str(env.num_agents),
        "env.horizon": str(env.horizon),
        "env.slip_probability": repr(env.slip_probability),
        "env.seed": str(env.seed),
    }


def _echo_rewards(rewards) -> dict[str, str]:
    return {
        "reward.step_penalty": repr(rewards.step_penalty),
        "reward.goal_reward": repr(rewards.goal_reward),
        "reward.collision_penalty": repr(rewards.collision_penalty),
        "reward.gamma": repr(rewards.gamma),
    }


def cmd_train(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["env.seed"] = str(args.seed)
    if args.algorithm is not None:
        overrides["train.algorithm"] = args.algorithm
    config = load_config(args.config, overrides)
    env = config.build_env()
    algorithm = config.algorithm()
    rewards = config.build_rewards(env.horizon)
    rng = np.random.default_rng(env.seed)

    header = {**_echo_env(config, env), **_echo_rewards(rewards), "train.algorithm": algorithm}
    report: dict[str, object] = {"algorithm": algorithm, "config": header.copy()}
    if algorithm == "egt":
        train_config = config.build_train(env)
        result = train(train_config, rng)
        policy = result.policy
        header.update(
            {
                "train.nu": repr(train_config.nu),
                "train.epsilon": repr(train_config.epsilon),
                "train.delta": repr(train_config.resolved_delta()),
                "train.alpha": repr(train_config.alpha),
                "train.batch_size": str(train_config.batch_size),
                "train.max_iterations": str(train_config.max_iterations),
                "train.patience": str(train_config.patience),
                "train.valuation": train_config.valuation.kind,
            }
        )
        report.update(
            {
                "config": header.copy(),
                "iterations": result.iterations,
                "termination": result.termination,
                "batch_returns": result.batch_returns,
                "final_mix_weight": result.final_mix_weight,
                "wall_clock_seconds": result.wall_clock_seconds,
            }
        )
    else:
        params = config.build_learner_params()
        started = time.perf_counter()
        trainer = qlearning_train if algorithm == "qlearning" else monte_carlo_train
        policy = trainer(env, rewards, params, rng)
        header.update({"train.episodes": str(params.episodes)})
        report.update(
            {
                "config": header.copy(),
                "episodes": params.episodes,
                "wall_clock_seconds": time.perf_counter() - started,
            }
        )

    save_policy(policy, args.out, header)
    with open(args.out + ".report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote policy to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["env.seed"] = str(args.seed)
    config = load_config(args.config, overrides)
    env = config.build_env()
    policy, meta = load_policy(args.policy)
    rng = np.random.default_rng(env.seed)
    metrics = evaluate(policy, env, args.episodes, rng)
    print(f"success_rate            {metrics.success_rate:.6f}")
    print(f"mean_timesteps          {'na' if metrics.mean_timesteps is None else format(metrics.mean_timesteps, '.6f')}")
    print(f"obstacle_distance       {'na' if metrics.obstacle_distance is None else format(metrics.obstacle_distance, '.6f')}")
    print(f"collisions_per_episode  {metrics.collisions_per_episode:.6f}")
    print(f"eval_seconds            {metrics.eval_seconds:.3f}")
    if args.out:
        header = {**_echo_env(config, env), "eval.episodes": str(args.episodes), "eval.policy": args.policy}
        size = max(env.grid.width, env.grid.height)
        row = metrics_row(meta.get("train.algorithm", "policy"), size, env.num_agents, env.seed, metrics)
        write_csv(args.out, [row], header)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["env.seed"] = str(args.seed)
    if args.sizes is not None:
        overrides["suite.sizes"] = args.sizes
    if args.agents is not None:
        overrides["suite.agents"] = args.agents
    if args.algos is not None:
        overrides["suite.algorithms"] = args.algos
    if args.episodes is not None:
        overrides["suite.eval_episodes"] = str(args.episodes)
    config = load_config(args.config, overrides)
    suite = config.build_suite()
    header = {
        "suite.sizes": ",".join(map(str, suite.sizes)),
        "suite.agents": ",".join(map(str, suite.agent_counts)),
        "suite.algorithms": ",".join(suite.algorithms),
        "suite.eval_episodes": str(suite.eval_episodes),
        "suite.train_episodes": str(suite.train_episodes),
        "suite.density": repr(suite.density),
        "suite.slip_probability": repr(suite.slip_probability),
        "suite.seed": str(suite.seed),
    }
    rows = run_suite(suite, out_path=args.out, header_meta=header)
    failures = [row for row in rows if row["error"]]
    print(f"wrote {len(rows)} rows to {args.out}" if args.out else f"{len(rows)} rows")
    for row in failures:
        print(
            f"  failed: {row['algorithm']} size={row['grid_size']} agents={row['num_agents']}: {row['error']}",
            file=sys.stderr,
        )
    return 0


def cmd_genmap(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    grid = generate_map(args.width, args.height, args.density, rng)
    text = format_map(grid)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.width}x{args.height} map to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evomapf",
        description="Multi-agent grid pathfinding: policy training, evaluation, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy and write it to a file")
    p_train.add_argument("--config", required=True, help="INI config file")
    p_train.add_argument("--algorithm", choices=("egt", "qlearning", "montecarlo"))
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out", required=True, help="policy output path")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved policy")
    p_eval.add_argument("policy", help="policy file written by train")
    p_eval.add_argument("--config", required=True, help="INI config file")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", help="optional CSV output path")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run a benchmark suite into a CSV")
    p_bench.add_argument("--config", help="INI config file")
    p_bench.add_argument("--sizes", help="comma-separated grid sizes")
    p_bench.add_argument("--agents", help="comma-separated agent counts")
    p_bench.add_argument("--algos", help="comma-separated algorithms")
    p_bench.add_argument("--episodes", type=int, help="evaluation episodes per row")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=cmd_bench)

    p_genmap = sub.add_parser("genmap", help="generate a random connected map")
    p_genmap.add_argument("--width", type=int, required=True)
    p_genmap.add_argument("--height", type=int, required=True)
    p_genmap.add_argument("--density", type=float, default=0.1)
    p_genmap.add_argument("--seed", type=int)
    p_genmap.add_argument("--out", help="map output path (stdout when omitted)")
    p_genmap.set_defaults(func=cmd_genmap)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MapParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
