"""Weighted automata, valuations, and the reach-avoid reward machine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evomapf.automaton import (
    AVG,
    DONE,
    OBSERVATION_ALPHABET,
    SEEKING,
    SUM,
    IncompleteAutomatonError,
    RewardMachine,
    RewardParams,
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
from evomapf.gridworld import Cell

from oracles import reach_avoid_weights


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
# automaton runs


def _nondeterministic_automaton() -> WeightedAutomaton:
    return WeightedAutomaton(
        locations=["q0", "hi", "lo"],
        initial=["q0"],
        final=["hi"],
        transitions=[
            Transition("q0", lambda s: True, "hi", 5.0),
            Transition("q0", lambda s: True, "lo", 2.0),
        ],
    )


def test_runs_enumerates_nondeterministic_branches():
    got = runs(_nondeterministic_automaton(), ["x"])
    assert len(got) == 2
    assert {r.weights for r in got} == {(5.0,), (2.0,)}
    assert {r.accepting for r in got} == {True, False}


def test_trajectory_weight_takes_the_best_run():
    assert trajectory_weight(_nondeterministic_automaton(), ["x"], SUM) == 5.0


def test_runs_on_the_empty_word():
    auto = _nondeterministic_automaton()
    (only,) = runs(auto, [])
    assert only.locations == ("q0",)
    assert only.weights == ()
    assert not only.accepting


def test_runs_raises_when_stuck():
    auto = WeightedAutomaton(
        locations=["q0"],
        initial=["q0"],
        final=[],
        transitions=[Transition("q0", lambda s: s == "a", "q0", 1.0)],
    )
    with pytest.raises(IncompleteAutomatonError, match="no transition from location 'q0'"):
        runs(auto, ["a", "b"])


def test_automaton_rejects_unknown_locations():
    with pytest.raises(ValueError, match="unknown locations"):
        WeightedAutomaton(["q0"], ["q0"], [], [Transition("q0", lambda s: True, "q1", 0.0)])


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


# ---------------------------------------------------------------------------
# the reach-avoid machine


PARAMS = RewardParams(step_penalty=1.0, goal_reward=50.0, collision_penalty=50.0, horizon=12)


def test_reach_avoid_automaton_is_deterministic_and_complete():
    auto = reach_avoid_automaton(PARAMS)
    assert auto.is_complete(OBSERVATION_ALPHABET)
    assert auto.is_deterministic(OBSERVATION_ALPHABET)


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


def test_step_reward_transition_table():
    machine = reach_avoid_machine(PARAMS)
    assert machine.step_reward(SEEKING, (False, False)) == (SEEKING, -1.0)
    assert machine.step_reward(SEEKING, (False, True)) == (SEEKING, -51.0)
    assert machine.step_reward(SEEKING, (True, False)) == (DONE, 50.0)
    assert machine.step_reward(DONE, (False, False)) == (DONE, 0.0)
    assert machine.step_reward(DONE, (False, True)) == (DONE, -50.0)


def test_accepting_iff_the_goal_was_visited():
    auto = reach_avoid_automaton(PARAMS)
    assert runs(auto, goal_run(2))[0].accepting
    assert not runs(auto, [(False, False)] * 3)[0].accepting


def test_reward_machine_rejects_nondeterminism():
    auto = WeightedAutomaton(
        locations=["q0", "hi", "lo"],
        initial=["q0"],
        final=["hi"],
        transitions=[
            Transition("q0", lambda s: True, "hi", 5.0),
            Transition("q0", lambda s: True, "lo", 2.0),
            Transition("hi", lambda s: True, "hi", 0.0),
            Transition("lo", lambda s: True, "lo", 0.0),
        ],
    )
    with pytest.raises(ValueError, match="deterministic"):
        RewardMachine(auto, ["x"])


def test_reward_machine_rejects_incompleteness():
    auto = WeightedAutomaton(
        locations=["q0"], initial=["q0"], final=[], transitions=[]
    )
    with pytest.raises(ValueError, match="complete"):
        RewardMachine(auto, ["x"])


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
    (run,) = runs(machine.automaton, obs)
    assert machine.weights(obs) == list(run.weights)


def test_dense_tables_match_step_reward():
    machine = reach_avoid_machine(PARAMS)
    assert machine.locations[machine.initial_index] == machine.initial
    for q in machine.locations:
        for symbol in machine.alphabet:
            target, weight = machine.step_reward(q, symbol)
            entry = machine.locations.index(q), machine.symbol_index[symbol]
            assert machine.locations[machine.next_location[entry]] == target
            assert machine.weight[entry] == weight


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
        weights, values = score_observations(machine, in_goal, collided, count, valuation)
        for k, obs in enumerate(sequences):
            expected = machine.weights(obs)
            assert weights[k, : len(obs)].tolist() == expected
            assert values[k] == valuate(expected, valuation)


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


# ---------------------------------------------------------------------------
# time of arrival


def test_toa_is_the_first_goal_visit():
    goals = {Cell(3, 0)}
    cells = [Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0)]
    assert toa(cells, goals) == 3
    assert toa([Cell(0, 0), Cell(1, 0)], goals) is None
    assert toa([Cell(3, 0)], goals) == 0


def test_toa_counts_the_first_visit_even_after_leaving():
    goals = {Cell(2, 0)}
    cells = [Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 0), Cell(1, 0), Cell(2, 0)]
    assert toa(cells, goals) == 3
