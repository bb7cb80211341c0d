"""Command-line interface: train, eval, bench, and genmap subcommands."""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

import numpy as np

from .automaton import Valuation
from .baselines import learn
from .bench import METRIC_FORMATS, evaluate, generate_map, metrics_row, run_suite, write_csv
from .config import KEYS, TRAINABLE_ALGORITHMS, RunConfig, load_config
from .egt import load_policy, save_policy, train
from .gridworld import EnvConfig, format_map


def _text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, Valuation):
        return value.kind
    return str(value)


def _echo(section: str, obj, names) -> dict[str, str]:
    """`section.name` header entries for the named attributes of obj."""
    return {f"{section}.{name}": _text(getattr(obj, name)) for name in names}


def _echo_keys(section: str, obj) -> dict[str, str]:
    """`section.key` header entries for every field of obj that is a [section] key."""
    return _echo(section, obj, (field.name for field in fields(obj) if field.name in KEYS[section]))


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    """The `section.key` flags that were given, as config overrides."""
    return {dest: str(value) for dest, value in vars(args).items() if "." in dest and value is not None}


def _echo_env(config: RunConfig, env: EnvConfig) -> dict[str, str]:
    return {
        "env.map": config.get("env", "map"),
        **_echo("env", env.grid, ("width", "height")),
        **_echo_keys("env", env),
        "env.seed": str(config.seed()),
    }


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    env = config.build_env()
    algorithm = config.get("train", "algorithm", "egt")
    rewards = config.build_rewards(env.horizon)
    rng = np.random.default_rng(config.seed())

    header = {**_echo_env(config, env), **_echo_keys("reward", rewards), "train.algorithm": algorithm}
    if algorithm == "egt":
        settings = config.build_train(env, rewards)
        result = train(settings, rng)
        policy = result.policy
        outcome = {
            "iterations": result.iterations,
            "termination": result.termination,
            "batch_returns": result.batch_returns,
            "final_mix_weight": result.final_mix_weight,
            "wall_clock_seconds": result.wall_clock_seconds,
        }
    else:
        settings = config.build_learner_params()
        started = time.perf_counter()
        policy = learn(algorithm, env, rewards, settings, rng)
        outcome = {"episodes": settings.episodes, "wall_clock_seconds": time.perf_counter() - started}
    header.update(_echo_keys("train", settings))

    save_policy(policy, args.out, header)
    with open(args.out + ".report.json", "w") as fh:
        json.dump({"algorithm": algorithm, "config": header, **outcome}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote policy to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    seed = config.seed()
    env = config.build_env()
    policy, meta = load_policy(args.policy)
    rng = np.random.default_rng(seed)
    metrics = evaluate(policy, env, args.episodes, rng)
    size = max(env.grid.width, env.grid.height)
    row = metrics_row(meta.get("train.algorithm", "policy"), size, env.num_agents, seed, metrics)
    for name, _ in METRIC_FORMATS:
        if name != "train_seconds":
            print(f"{name:<24}{row[name]}")
    if args.out:
        header = {**_echo_env(config, env), "eval.episodes": str(args.episodes), "eval.policy": args.policy}
        write_csv(args.out, [row], header)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    suite = load_config(args.config, _overrides(args)).build_suite()
    header = _echo("suite", suite, (field.name for field in fields(suite)))
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
    rng = np.random.default_rng(load_config(None, _overrides(args)).seed())
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
    # A flag whose dest is `section.key` overrides that config key; its metavar names the value after the flag.

    p_train = sub.add_parser("train", help="train a policy and write it to a file")
    p_train.add_argument("--config", required=True, help="INI config file")
    p_train.add_argument("--algorithm", dest="train.algorithm", choices=TRAINABLE_ALGORITHMS)
    p_train.add_argument("--seed", dest="env.seed", metavar="SEED", type=int)
    p_train.add_argument("--out", required=True, help="policy output path")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved policy")
    p_eval.add_argument("policy", help="policy file written by train")
    p_eval.add_argument("--config", required=True, help="INI config file")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", dest="env.seed", metavar="SEED", type=int)
    p_eval.add_argument("--out", help="optional CSV output path")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run a benchmark suite into a CSV")
    p_bench.add_argument("--config", help="INI config file")
    p_bench.add_argument("--sizes", dest="suite.sizes", metavar="SIZES", help="comma-separated grid sizes")
    p_bench.add_argument("--agents", dest="suite.agents", metavar="AGENTS", help="comma-separated agent counts")
    p_bench.add_argument("--algos", dest="suite.algorithms", metavar="ALGOS", help="comma-separated algorithms")
    p_bench.add_argument(
        "--episodes", dest="suite.eval_episodes", metavar="EPISODES", type=int,
        help="evaluation episodes per row",
    )
    p_bench.add_argument("--seed", dest="env.seed", metavar="SEED", type=int)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=cmd_bench)

    p_genmap = sub.add_parser("genmap", help="generate a random connected map")
    p_genmap.add_argument("--width", type=int, required=True)
    p_genmap.add_argument("--height", type=int, required=True)
    p_genmap.add_argument("--density", type=float, default=0.1)
    p_genmap.add_argument("--seed", dest="env.seed", metavar="SEED", type=int)
    p_genmap.add_argument("--out", help="map output path (stdout when omitted)")
    p_genmap.set_defaults(func=cmd_genmap)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and MapParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
