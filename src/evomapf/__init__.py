"""Multi-agent grid pathfinding workbench.

A shared tabular policy trained with replicator dynamics against
automaton-shaped reach-avoid rewards, classical planning and tabular
learning baselines, and a benchmark harness over random maps.
"""

from .automaton import (
    AVG,
    SUM,
    OBSERVATION_ALPHABET,
    IncompleteAutomatonError,
    RewardMachine,
    RewardParams,
    RunResult,
    Transition,
    Valuation,
    WeightedAutomaton,
    discounted_sum,
    reach_avoid_automaton,
    reach_avoid_machine,
    runs,
    score_observations,
    toa,
    trajectory_weight,
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
    format_map,
    parse_map,
    roll_batch,
    run_episode,
)

__version__ = "0.1.0"
