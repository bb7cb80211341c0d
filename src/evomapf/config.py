"""Run configuration: INI-style key-value sections with command-line overrides."""
from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, TypeVar

from .automaton import RewardParams, Valuation
from .baselines import LEARNERS, LearnerParams
from .bench import SuiteConfig
from .egt import TrainConfig
from .gridworld import ConfigError, EnvConfig, check_range, parse_map

TRAINABLE_ALGORITHMS = ("egt", *LEARNERS)

T = TypeVar("T")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    names = tuple(item.strip() for item in text.split(","))
    if not all(name.isidentifier() for name in names):
        raise ValueError(text)
    return names


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text

    return parse


FLOAT = (float, "a float")
INT = (int, "an integer")
INTS = (_ints, "comma-separated integers")

# Every INI key: section -> key -> (parser, what the parser expects).
KEYS: dict[str, dict[str, tuple[Callable[[str], object], str]]] = {
    "env": {"map": (str, "a path"), "num_agents": INT, "horizon": INT, "slip_probability": FLOAT, "seed": INT},
    "reward": dict.fromkeys(("step_penalty", "goal_reward", "collision_penalty", "gamma"), FLOAT),
    "train": {
        "algorithm": (_one_of(TRAINABLE_ALGORITHMS), f"one of {list(TRAINABLE_ALGORITHMS)}"),
        "valuation": (_one_of(("sum", "avg", "discounted_sum")), "sum, avg, or discounted_sum"),
        # replicator loop
        **dict.fromkeys(("nu", "epsilon", "delta", "alpha"), FLOAT),
        **dict.fromkeys(("batch_size", "max_iterations", "patience"), INT),
        # tabular learners
        **dict.fromkeys(("learning_rate", "epsilon_greedy", "epsilon_decay", "epsilon_min"), FLOAT),
        **dict.fromkeys(("episodes", "mc_batch"), INT),
    },
    "suite": {
        "sizes": INTS,
        "agents": INTS,
        "algorithms": (_names, "comma-separated names"),
        **dict.fromkeys(("eval_episodes", "train_episodes"), INT),
        **dict.fromkeys(("density", "slip_probability"), FLOAT),
    },
}


@dataclass
class RunConfig:
    """Merged configuration: parsed file values overlaid with flag overrides."""

    values: dict[str, dict[str, object]]
    base_dir: str = "."

    def get(self, section: str, key: str, default=None):
        return self.values.get(section, {}).get(key, default)

    def _build(self, section: str, cls: type[T], **given) -> T:
        """cls(**given) plus the keys of section that are set and are fields of cls, but not given.

        A range error from cls comes back as `[section] <message>`, and
        every such message starts with the field, so it names the key.
        """
        names = {field.name for field in fields(cls)} - given.keys()
        keys = {key: value for key, value in self.values.get(section, {}).items() if key in names}
        try:
            return cls(**given, **keys)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None

    def seed(self) -> int:
        seed = self.get("env", "seed", 0)
        check_range("[env] seed", seed, 0)
        return seed

    def build_env(self) -> EnvConfig:
        map_path = self.get("env", "map")
        if map_path is None:
            raise ConfigError("[env] map: a map file path is required")
        resolved = os.path.join(self.base_dir, map_path)
        try:
            with open(resolved) as fh:
                grid = parse_map(fh.read())
        except OSError as exc:
            raise ConfigError(f"[env] map: cannot read {resolved!r} ({exc})") from None
        return self._build("env", EnvConfig, grid=grid)

    def build_rewards(self, horizon: int) -> RewardParams:
        defaults = asdict(RewardParams.default_for(horizon))
        return self._build("reward", RewardParams, **{**defaults, **self.values.get("reward", {})})

    def build_train(self, env: EnvConfig, rewards: RewardParams) -> TrainConfig:
        kind = self.get("train", "valuation", "discounted_sum")
        # None: TrainConfig discounts with rewards.gamma.
        valuation = None if kind == "discounted_sum" else Valuation(kind)
        return self._build("train", TrainConfig, env=env, rewards=rewards, valuation=valuation)

    def build_learner_params(self) -> LearnerParams:
        return self._build("train", LearnerParams)

    def build_suite(self) -> SuiteConfig:
        for key in ("sizes", "agents"):
            if self.get("suite", key) is None:
                raise ConfigError(f"[suite] {key} is required (--{key})")
        return self._build("suite", SuiteConfig, seed=self.seed())


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read an INI-style config file and apply `section.key` overrides.

    Unknown sections or keys are rejected so typos fail loudly, and every
    value is parsed here, so a malformed one fails before anything runs.
    """
    raw: dict[str, dict[str, str]] = {}
    base_dir = "."
    if path is not None:
        # No header can name the empty section, so [DEFAULT] is an ordinary, unknown, section.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r} ({exc})") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        base_dir = os.path.dirname(os.path.abspath(path))
        for section in parser.sections():
            if section not in KEYS:
                raise ConfigError(f"unknown section [{section}] in {path!r}; known: {sorted(KEYS)}")
            for key, value in parser.items(section):
                if key not in KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}] of {path!r}; "
                        f"known: {sorted(KEYS[section])}"
                    )
                raw.setdefault(section, {})[key] = value
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        raw.setdefault(section, {})[key] = value
    values: dict[str, dict[str, object]] = {}
    for section, keys in raw.items():
        for key, text in keys.items():
            parse, what = KEYS[section][key]
            try:
                values.setdefault(section, {})[key] = parse(text)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: expected {what}, got {text!r}") from None
    return RunConfig(values=values, base_dir=base_dir)
