"""Multi-agent grid pathfinding workbench.

A shared tabular policy trained with replicator dynamics against
automaton-shaped reach-avoid rewards, classical planning and tabular
learning baselines, and a benchmark harness over random maps.
"""

from .automaton import (
    AVG,
    DONE,
    SEEKING,
    SUM,
    OBSERVATION_ALPHABET,
    RewardMachine,
    RewardParams,
    Valuation,
    discounted_sum,
    reach_avoid_machine,
    score_observations,
    valuate,
)
from .baselines import (
    LearnerParams,
    astar,
    manhattan,
    monte_carlo_table,
    monte_carlo_train,
    qlearning_table,
    qlearning_train,
)
from .bench import (
    ALGORITHMS,
    AStarPlanner,
    Metrics,
    SuiteConfig,
    evaluate,
    generate_map,
    obstacle_distance,
    obstacle_distance_field,
    run_suite,
    write_trajectory_log,
)
from .egt import (
    EpisodeBatch,
    FitnessTable,
    TabularPolicy,
    TrainConfig,
    TrainReport,
    estimate_fitness,
    expected_return,
    load_policy,
    mix_with_uniform,
    replicator_update,
    sample_batch,
    save_policy,
    train,
)
from .gridworld import (
    Action,
    AgentStatus,
    AgentTrajectory,
    BatchRollout,
    Cell,
    ConfigError,
    EnvConfig,
    EpisodeRollout,
    GridEnv,
    GridMap,
    MapParseError,
    StepEvent,
    default_horizon,
    episode_steps,
    format_map,
    parse_map,
    roll_batch,
    roll_episode,
    run_episode,
)

__version__ = "0.1.0"
