"""Valuations and the reach-avoid reward table."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf.automaton import (
    AVG,
    DONE,
    OBSERVATION_ALPHABET,
    SEEKING,
    SUM,
    RewardParams,
    Valuation,
    discounted_sum,
    reach_avoid_machine,
    score_observations,
    valuate,
)

from oracles import reach_avoid_automaton, reach_avoid_weights, runs


def goal_run(k: int) -> list[tuple[bool, bool]]:
    """Observations of a clean trajectory arriving at time k."""
    return [(False, False)] * k + [(True, False)]


# ---------------------------------------------------------------------------
# valuations


def test_sum_valuation():
    assert valuate([1.0, 1.0, 1.0], SUM) == 3.0
    assert valuate([], SUM) == 0.0


def test_discounted_sum_valuation():
    assert valuate([1.0, 1.0, 1.0], discounted_sum(0.5)) == pytest.approx(1.75)
    assert valuate([], discounted_sum(0.9)) == 0.0


def test_average_valuation():
    assert valuate([-1.0, -1.0, 100.0], AVG) == pytest.approx(98.0 / 3.0)
    with pytest.raises(ValueError, match="average of an empty weight sequence"):
        valuate([], AVG)


def test_valuation_validates_its_fields():
    with pytest.raises(ValueError, match="unknown valuation kind"):
        Valuation("median")
    with pytest.raises(ValueError, match="gamma"):
        Valuation("discounted_sum", gamma=1.5)


# ---------------------------------------------------------------------------
# reward parameters


def test_reward_params_defaults_scale_with_the_horizon():
    params = RewardParams.default_for(40)
    assert params.step_penalty == 1.0
    assert params.goal_reward == 400.0
    assert params.collision_penalty == 400.0
    assert params.horizon == 40
    assert params.gamma == 0.99


def test_reward_params_enforce_the_shape_constraint():
    with pytest.raises(ValueError, match=r"need b >= c > a\*T"):
        RewardParams(step_penalty=1.0, goal_reward=5.0, collision_penalty=10.0, horizon=4)
    with pytest.raises(ValueError, match=r"need b >= c > a\*T"):
        RewardParams(step_penalty=1.0, goal_reward=10.0, collision_penalty=3.0, horizon=4)
    # c just above a*T is fine.
    RewardParams(step_penalty=1.0, goal_reward=10.0, collision_penalty=5.0, horizon=4)


@pytest.mark.parametrize("field", ["step_penalty", "goal_reward", "collision_penalty"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_reward_params_reject_non_finite_rewards(field, value):
    fields = dict(step_penalty=1.0, goal_reward=10.0, collision_penalty=5.0, horizon=4)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RewardParams(**fields)


@pytest.mark.parametrize("gamma", [float("nan"), -0.1, 1.5])
def test_reward_params_reject_a_discount_outside_the_unit_interval(gamma):
    # RewardParams owns the one discount of the valuation and both learners.
    message = "gamma must be finite" if math.isnan(gamma) else r"gamma must lie in \[0, 1\]"
    with pytest.raises(ValueError, match=message):
        RewardParams(step_penalty=1.0, goal_reward=10.0, collision_penalty=5.0, horizon=4, gamma=gamma)


# ---------------------------------------------------------------------------
# the reach-avoid machine


PARAMS = RewardParams(step_penalty=1.0, goal_reward=50.0, collision_penalty=50.0, horizon=12)


def test_runs_on_the_empty_word():
    machine = reach_avoid_machine(PARAMS)
    assert machine.weights([]) == []
    (only,) = runs(reach_avoid_automaton(PARAMS), [])
    assert only.weights == ()
    assert not only.accepting


def test_reach_avoid_automaton_is_deterministic_and_complete():
    # The offline reference has exactly one run on every word, so it can
    # stand for the table on each observation sequence.
    automaton = reach_avoid_automaton(PARAMS)
    for length in range(4):
        for word in itertools.product(OBSERVATION_ALPHABET, repeat=length):
            assert len(runs(automaton, word)) == 1


def test_clean_arrival_scores_goal_reward_minus_steps():
    machine = reach_avoid_machine(PARAMS)
    weights = machine.weights(goal_run(4))
    assert weights == [-1.0] * 4 + [50.0]
    assert valuate(weights, SUM) == 50.0 - 4.0


def test_timeout_scores_step_penalties_only():
    machine = reach_avoid_machine(PARAMS)
    weights = machine.weights([(False, False)] * 12)
    assert valuate(weights, SUM) == -12.0


def test_starting_on_the_goal_scores_exactly_the_goal_reward():
    machine = reach_avoid_machine(PARAMS)
    assert machine.weights([(True, False)]) == [50.0]


def test_collision_then_arrival_combines_both_penalties():
    machine = reach_avoid_machine(PARAMS)
    obs = [(False, False), (False, True), (False, False), (True, False)]
    assert valuate(machine.weights(obs), SUM) == 50.0 - 50.0 - 3.0


def test_reward_table_pins_next_location_and_weight():
    machine = reach_avoid_machine(PARAMS)
    assert [2 * g + c for g, c in OBSERVATION_ALPHABET] == [0, 1, 2, 3]
    assert machine.next_location.tolist() == [[SEEKING, SEEKING, DONE, DONE], [DONE] * 4]
    assert machine.weight.tolist() == [[-1.0, -51.0, 50.0, 0.0], [0.0, -50.0, 0.0, -50.0]]


def test_accepting_iff_the_goal_was_visited():
    auto = reach_avoid_automaton(PARAMS)
    assert runs(auto, goal_run(2))[0].accepting
    assert not runs(auto, [(False, False)] * 3)[0].accepting


observation_lists = st.lists(
    st.tuples(st.booleans(), st.booleans()), min_size=0, max_size=40
)


@given(obs=observation_lists)
@settings(max_examples=100)
def test_machine_weights_match_the_direct_scan(obs):
    machine = reach_avoid_machine(PARAMS)
    assert machine.weights(obs) == reach_avoid_weights(
        obs, PARAMS.step_penalty, PARAMS.goal_reward, PARAMS.collision_penalty
    )


@given(obs=observation_lists)
@settings(max_examples=100)
def test_online_stepping_equals_the_offline_run(obs):
    machine = reach_avoid_machine(PARAMS)
    (run,) = runs(reach_avoid_automaton(PARAMS), obs)
    assert machine.weights(obs) == list(run.weights)


# Inexact constants, so that the order of floating-point operations shows.
UNEVEN = RewardParams(step_penalty=0.37, goal_reward=55.1, collision_penalty=30.3, horizon=40, gamma=0.97)


@given(
    sequences=st.lists(observation_lists, min_size=1, max_size=6),
    gamma=st.floats(min_value=0.5, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_score_observations_equals_valuate_of_machine_weights(sequences, gamma):
    machine = reach_avoid_machine(UNEVEN)
    span = max(len(obs) for obs in sequences) + 1
    in_goal = np.zeros((len(sequences), span), dtype=bool)
    collided = np.zeros((len(sequences), span), dtype=bool)
    for k, obs in enumerate(sequences):
        for t, (g, c) in enumerate(obs):
            in_goal[k, t], collided[k, t] = g, c
    count = np.array([len(obs) for obs in sequences])
    valuations = [SUM, discounted_sum(gamma)] + ([AVG] if count.min() > 0 else [])
    for valuation in valuations:
        values = score_observations(machine, in_goal, collided, count, valuation)
        for k, obs in enumerate(sequences):
            assert values[k] == valuate(machine.weights(obs), valuation)


# ---------------------------------------------------------------------------
# expeditiousness: earlier arrivals always weigh more


@given(
    early=st.integers(min_value=0, max_value=59),
    gap=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=100)
def test_earlier_arrival_weighs_strictly_more(early, gap):
    machine = reach_avoid_machine(
        RewardParams(step_penalty=1.0, goal_reward=800.0, collision_penalty=800.0, horizon=80)
    )
    late = early + gap
    for valuation in (SUM, discounted_sum(0.99)):
        w_early = valuate(machine.weights(goal_run(early)), valuation)
        w_late = valuate(machine.weights(goal_run(late)), valuation)
        assert w_early > w_late


def test_one_step_delay_costs_a_plus_discount_adjusted_goal():
    a, b, gamma = 1.0, 800.0, 0.99
    machine = reach_avoid_machine(
        RewardParams(step_penalty=a, goal_reward=b, collision_penalty=800.0, horizon=80)
    )
    for k in (0, 3, 17):
        now = valuate(machine.weights(goal_run(k)), discounted_sum(gamma))
        later = valuate(machine.weights(goal_run(k + 1)), discounted_sum(gamma))
        assert later - now == pytest.approx(-(gamma**k) * (a + (1 - gamma) * b))

