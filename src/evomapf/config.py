"""Run configuration: INI-style key-value sections with command-line overrides."""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .automaton import AVG, SUM, RewardParams, Valuation, discounted_sum
from .baselines import LearnerParams
from .bench import SuiteConfig
from .egt import TrainConfig
from .gridworld import ConfigError, EnvConfig, parse_map

KNOWN_KEYS: dict[str, frozenset[str]] = {
    "env": frozenset({"map", "num_agents", "horizon", "slip_probability", "seed"}),
    "reward": frozenset({"step_penalty", "goal_reward", "collision_penalty", "gamma"}),
    "train": frozenset(
        {
            "algorithm",
            "nu",
            "epsilon",
            "delta",
            "alpha",
            "batch_size",
            "max_iterations",
            "patience",
            "valuation",
            "episodes",
            "learning_rate",
            "epsilon_greedy",
            "epsilon_decay",
            "epsilon_min",
            "mc_batch",
        }
    ),
    "suite": frozenset(
        {
            "sizes",
            "agents",
            "algorithms",
            "eval_episodes",
            "train_episodes",
            "density",
            "slip_probability",
        }
    ),
}

TRAINABLE_ALGORITHMS = ("egt", "qlearning", "montecarlo")


def _parse_int_list(text: str, context: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise ConfigError(f"{context}: expected comma-separated integers, got {text!r}") from None


@dataclass
class RunConfig:
    """Merged configuration: file values overlaid with flag overrides."""

    values: dict[str, dict[str, str]]
    base_dir: str = "."

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.values.get(section, {}).get(key, default)

    def set(self, section: str, key: str, value: str) -> None:
        self.values.setdefault(section, {})[key] = value

    def _typed(self, section: str, key: str, default, cast, what: str):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected {what}, got {raw!r}") from None

    def seed(self) -> int:
        return self._typed("env", "seed", 0, int, "an integer")

    def build_env(self) -> EnvConfig:
        map_path = self.get("env", "map")
        if map_path is None:
            raise ConfigError("[env] map: a map file path is required")
        resolved = map_path if os.path.isabs(map_path) else os.path.join(self.base_dir, map_path)
        try:
            with open(resolved) as fh:
                grid = parse_map(fh.read())
        except OSError as exc:
            raise ConfigError(f"[env] map: cannot read {resolved!r} ({exc})") from None
        return EnvConfig(
            grid=grid,
            num_agents=self._typed("env", "num_agents", 1, int, "an integer"),
            horizon=self._typed("env", "horizon", 0, int, "an integer"),
            slip_probability=self._typed("env", "slip_probability", 0.0, float, "a float"),
            seed=self.seed(),
        )

    def build_rewards(self, horizon: int) -> RewardParams:
        defaults = RewardParams.default_for(horizon)
        try:
            return RewardParams(
                step_penalty=self._typed("reward", "step_penalty", defaults.step_penalty, float, "a float"),
                goal_reward=self._typed("reward", "goal_reward", defaults.goal_reward, float, "a float"),
                collision_penalty=self._typed(
                    "reward", "collision_penalty", defaults.collision_penalty, float, "a float"
                ),
                horizon=horizon,
                gamma=self._typed("reward", "gamma", defaults.gamma, float, "a float"),
            )
        except ValueError as exc:
            raise ConfigError(f"[reward]: {exc}") from None

    def build_valuation(self) -> Valuation:
        kind = self.get("train", "valuation", "discounted_sum")
        gamma = self._typed("reward", "gamma", 0.99, float, "a float")
        if kind == "sum":
            return SUM
        if kind == "avg":
            return AVG
        if kind == "discounted_sum":
            return discounted_sum(gamma)
        raise ConfigError(
            f"[train] valuation: expected sum, avg, or discounted_sum, got {kind!r}"
        )

    def algorithm(self) -> str:
        algo = self.get("train", "algorithm", "egt")
        if algo not in TRAINABLE_ALGORITHMS:
            raise ConfigError(
                f"[train] algorithm: expected one of {list(TRAINABLE_ALGORITHMS)}, got {algo!r}"
            )
        return algo

    def build_train(self, env: EnvConfig) -> TrainConfig:
        rewards = self.build_rewards(env.horizon)
        defaults = TrainConfig(env=env)
        return TrainConfig(
            env=env,
            rewards=rewards,
            valuation=self.build_valuation(),
            nu=self._typed("train", "nu", defaults.nu, float, "a float"),
            epsilon=self._typed("train", "epsilon", defaults.epsilon, float, "a float"),
            delta=self._typed("train", "delta", defaults.delta, float, "a float"),
            alpha=self._typed("train", "alpha", defaults.alpha, float, "a float"),
            batch_size=self._typed("train", "batch_size", defaults.batch_size, int, "an integer"),
            max_iterations=self._typed(
                "train", "max_iterations", defaults.max_iterations, int, "an integer"
            ),
            patience=self._typed("train", "patience", defaults.patience, int, "an integer"),
        )

    def build_learner_params(self) -> LearnerParams:
        defaults = LearnerParams()
        return LearnerParams(
            episodes=self._typed("train", "episodes", defaults.episodes, int, "an integer"),
            learning_rate=self._typed(
                "train", "learning_rate", defaults.learning_rate, float, "a float"
            ),
            gamma=self._typed("reward", "gamma", defaults.gamma, float, "a float"),
            epsilon=self._typed("train", "epsilon_greedy", defaults.epsilon, float, "a float"),
            epsilon_decay=self._typed(
                "train", "epsilon_decay", defaults.epsilon_decay, float, "a float"
            ),
            epsilon_min=self._typed("train", "epsilon_min", defaults.epsilon_min, float, "a float"),
            mc_batch=self._typed("train", "mc_batch", defaults.mc_batch, int, "an integer"),
        )

    def build_suite(self) -> SuiteConfig:
        sizes = self.get("suite", "sizes")
        agents = self.get("suite", "agents")
        if sizes is None or agents is None:
            raise ConfigError("[suite]: both sizes and agents are required")
        algorithms = self.get("suite", "algorithms")
        defaults = SuiteConfig(sizes=(1,), agent_counts=(1,))
        return SuiteConfig(
            sizes=_parse_int_list(sizes, "[suite] sizes"),
            agent_counts=_parse_int_list(agents, "[suite] agents"),
            algorithms=tuple(algorithms.replace(" ", "").split(","))
            if algorithms is not None
            else defaults.algorithms,
            eval_episodes=self._typed(
                "suite", "eval_episodes", defaults.eval_episodes, int, "an integer"
            ),
            train_episodes=self._typed(
                "suite", "train_episodes", defaults.train_episodes, int, "an integer"
            ),
            density=self._typed("suite", "density", defaults.density, float, "a float"),
            slip_probability=self._typed(
                "suite", "slip_probability", defaults.slip_probability, float, "a float"
            ),
            seed=self.seed(),
        )


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read an INI-style config file and apply `section.key` overrides.

    Unknown sections or keys are rejected so typos fail loudly.
    """
    values: dict[str, dict[str, str]] = {}
    base_dir = "."
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r} ({exc})") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        base_dir = os.path.dirname(os.path.abspath(path))
        for section in parser.sections():
            if section not in KNOWN_KEYS:
                raise ConfigError(
                    f"unknown section [{section}] in {path!r}; known: {sorted(KNOWN_KEYS)}"
                )
            for key, value in parser.items(section):
                if key not in KNOWN_KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}] of {path!r}; "
                        f"known: {sorted(KNOWN_KEYS[section])}"
                    )
                values.setdefault(section, {})[key] = value
    config = RunConfig(values=values, base_dir=base_dir)
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        config.set(section, key, value)
    return config
