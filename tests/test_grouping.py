"""Grouping validity, aggregate gain, and the optimizer against exhaustive oracles."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity.grouping import (
    Grouping,
    InfeasibleGroupingError,
    InvalidGroupingError,
    ModelCandidate,
    aggregate_performance,
    is_valid_grouping,
    optimize_grouping,
)
from mtl_affinity.matrices import TaskMatrix
from oracles import best_grouping_naive, best_total_by_subsets

ABC = ("a", "b", "c")


def gain_matrix(flat, tasks=ABC):
    it = iter(flat)
    return TaskMatrix(tasks, {(w, t): float(next(it))
                              for w in tasks for t in tasks if w != t})


# --- candidates and groupings ---


def test_candidate_normalization_and_validation():
    c = ModelCandidate(("b", "a", "a"), ("b",), 2.0)
    assert c.training == ("a", "b")
    assert c.serving == ("b",)
    assert c.encoding == (("a", "b"), ("b",))
    with pytest.raises(ValueError, match="serve"):
        ModelCandidate(("a",), (), 1.0)
    with pytest.raises(ValueError, match="not trained"):
        ModelCandidate(("a",), ("b",), 1.0)
    with pytest.raises(ValueError, match="cost"):
        ModelCandidate(("a",), ("a",), 0.0)


def test_grouping_sorts_candidates_and_round_trips():
    g = Grouping((ModelCandidate(("b", "c"), ("c",), 2.0),
                  ModelCandidate(("a",), ("a",), 1.0)), budget=3.0)
    assert g.candidates[0].training == ("a",)
    assert g.total_cost == 3.0
    payload = g.to_json_dict()
    assert payload["models"][0]["training_tasks"] == ["a"]
    assert payload["budget"] == 3.0
    assert Grouping.from_json_dict(payload) == g


def test_grouping_unlimited_budget_round_trips_as_null():
    g = Grouping((ModelCandidate(("a",), ("a",), 1.0),), budget=math.inf)
    payload = g.to_json_dict()
    assert payload["budget"] is None
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    assert Grouping.from_json_dict(payload) == g


# --- validity ---


def valid_fixture(budget=4.0):
    """Two models: {a,b} serves both; {b,c} uses b only as a training aid."""
    return Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),
                     ModelCandidate(("b", "c"), ("c",), 2.0)), budget=budget)


def invalid_fixture(budget=4.0):
    """Both models serve b."""
    return Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),
                     ModelCandidate(("b", "c"), ("b", "c"), 2.0)), budget=budget)


def test_reference_valid_grouping():
    assert is_valid_grouping(ABC, valid_fixture()) == []


def test_reference_invalid_grouping_names_task():
    violations = is_valid_grouping(ABC, invalid_fixture())
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "served_twice"
    assert v.subject == "b"
    assert "'b'" in v.detail and "2 times" in v.detail


def test_empty_grouping_flags_every_task():
    violations = is_valid_grouping(ABC, Grouping((), budget=10.0))
    assert [v.subject for v in violations] == list(ABC)
    assert all(v.kind == "unserved" for v in violations)


def test_budget_and_unknown_task_violations():
    over = valid_fixture(budget=3.0)
    kinds = {v.kind for v in is_valid_grouping(ABC, over)}
    assert kinds == {"over_budget"}
    foreign = Grouping((ModelCandidate(("a", "z"), ("a",), 2.0),
                        ModelCandidate(("b",), ("b",), 1.0),
                        ModelCandidate(("c",), ("c",), 1.0)), budget=10.0)
    kinds = {(v.kind, v.subject) for v in is_valid_grouping(ABC, foreign)}
    assert ("unknown_task", "z") in kinds


# --- aggregate performance ---


def test_aggregate_all_stl_is_baseline():
    g = Grouping(tuple(ModelCandidate((t,), (t,), 1.0) for t in ABC), budget=3.0)
    gains = gain_matrix([5.0, -1.0, 2.0, 3.0, -4.0, 6.0])
    assert aggregate_performance(g, gains) == 0.0
    assert aggregate_performance(g, gains, stl_baseline=1.5) == pytest.approx(4.5)


def test_aggregate_sums_directional_gains():
    gains = TaskMatrix(ABC, {("b", "a"): 10.0, ("a", "b"): 3.0,
                             ("c", "a"): 0.0, ("a", "c"): 0.0,
                             ("c", "b"): 0.0, ("b", "c"): 7.0})
    pair_both = Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),
                          ModelCandidate(("c",), ("c",), 1.0)), budget=3.0)
    assert aggregate_performance(pair_both, gains) == pytest.approx(13.0)
    pair_one = Grouping((ModelCandidate(("a", "b"), ("a",), 2.0),
                         ModelCandidate(("b", "c"), ("b", "c"), 2.0)), budget=4.0)
    # a with b: +10; b with c: +0; c with b: +7
    assert aggregate_performance(pair_one, gains) == pytest.approx(17.0)


def test_aggregate_rejects_invalid_and_oversized():
    gains = gain_matrix([0.0] * 6)
    with pytest.raises(InvalidGroupingError, match="served 2 times"):
        aggregate_performance(invalid_fixture(), gains)
    big = Grouping((ModelCandidate(ABC, ABC, 3.0),), budget=3.0)
    with pytest.raises(ValueError, match="only 1 or 2"):
        aggregate_performance(big, gains)


# --- optimizer ---


def test_optimizer_prefers_stl_when_gains_negative():
    tasks = ("a", "b")
    gains = TaskMatrix(tasks, {("a", "b"): -1.0, ("b", "a"): -2.0})
    grouping, total = optimize_grouping(tasks, gains, budget=2.0)
    assert total == 0.0
    assert [c.encoding for c in grouping.candidates] == [(("a",), ("a",)),
                                                         (("b",), ("b",))]


def test_optimizer_takes_dominant_mtl_pair():
    tasks = ("a", "b")
    gains = TaskMatrix(tasks, {("a", "b"): 1.0, ("b", "a"): 1.0})
    grouping, total = optimize_grouping(tasks, gains, budget=2.0)
    assert total == 2.0
    assert len(grouping.candidates) == 1
    assert grouping.candidates[0].serving == ("a", "b")


def test_optimizer_infeasible_budget():
    gains = gain_matrix([0.0] * 6)
    with pytest.raises(InfeasibleGroupingError):
        optimize_grouping(ABC, gains, budget=2.0)  # cheapest cover costs 1+2


def test_optimizer_validates_inputs():
    gains = gain_matrix([0.0] * 6)
    with pytest.raises(ValueError, match="match"):
        optimize_grouping(("a", "b", "z"), gains, budget=10.0)
    with pytest.raises(ValueError, match="costs"):
        optimize_grouping(ABC, gains, budget=10.0, stl_cost=-1.0)
    eleven = tuple(f"t{i}" for i in range(11))
    big = TaskMatrix(eleven, {(w, t): 0.0 for w in eleven for t in eleven if w != t})
    with pytest.raises(ValueError, match="10"):
        optimize_grouping(eleven, big, budget=100.0)


def test_optimizer_uses_training_only_partner():
    # b boosts a hugely but pairing hurts b; best: train {a,b} serve a, STL b.
    tasks = ("a", "b")
    gains = TaskMatrix(tasks, {("b", "a"): 10.0, ("a", "b"): -5.0})
    grouping, total = optimize_grouping(tasks, gains, budget=3.0)
    assert total == 10.0
    assert [c.encoding for c in grouping.candidates] == [
        (("a", "b"), ("a",)), (("b",), ("b",))]


def oracle_gains_dict(gain: TaskMatrix) -> dict:
    return {(t, w): gain.get(w, t)
            for t in gain.tasks for w in gain.tasks if w != t}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=4), st.data())
def test_optimizer_matches_enumeration_oracle(n, data):
    tasks = tuple(f"t{i}" for i in range(n))
    flat = data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                              min_size=n * (n - 1), max_size=n * (n - 1)))
    gains = gain_matrix(flat, tasks=tasks)
    budget = float(data.draw(st.integers(min_value=n - 1, max_value=2 * n)))
    oracle = best_grouping_naive(tasks, oracle_gains_dict(gains), 1.0, budget)
    if oracle is None:
        with pytest.raises(InfeasibleGroupingError):
            optimize_grouping(tasks, gains, budget)
        return
    grouping, total = optimize_grouping(tasks, gains, budget)
    assert total == oracle[0]
    oracle_key = tuple(sorted((tuple(sorted(t)), tuple(sorted(s)))
                              for _, t, s in oracle[1]))
    assert grouping.encoding() == oracle_key
    assert is_valid_grouping(tasks, grouping) == []
    assert aggregate_performance(grouping, gains) == total


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6),
       st.integers(min_value=3, max_value=5))
def test_optimizer_monotone_in_budget(flat, small_budget):
    gains = gain_matrix(flat)
    low = optimize_grouping(ABC, gains, float(small_budget))[1]
    high = optimize_grouping(ABC, gains, float(small_budget) + 1.0)[1]
    assert high >= low


def test_optimizer_all_nonpositive_gains_hits_zero():
    gains = gain_matrix([-3.0, -1.0, 0.0, -2.0, -5.0, 0.0])
    _, total = optimize_grouping(ABC, gains, budget=3.0)
    assert total == 0.0


# --- optimizer at its bound ---


def oracle_key(grouping):
    return tuple(sorted((tuple(sorted(t)), tuple(sorted(s))) for _, t, s in grouping))


def seeded_gains(seed, tasks, low=-0.2, high=0.3):
    rng = np.random.default_rng(seed)
    return TaskMatrix(tasks, {(w, t): float(rng.uniform(low, high))
                              for w in tasks for t in tasks if w != t})


def check_against_oracle(tasks, gains, budget, mtl_cost):
    """The oracle's grouping and total, or no grouping for either."""
    oracle = best_grouping_naive(tasks, oracle_gains_dict(gains), 1.0, budget, mtl_cost)
    if oracle is None:
        with pytest.raises(InfeasibleGroupingError):
            optimize_grouping(tasks, gains, budget, mtl_cost=mtl_cost)
        return
    grouping, total = optimize_grouping(tasks, gains, budget, mtl_cost=mtl_cost)
    assert total == pytest.approx(oracle[0], abs=1e-12)
    assert grouping.encoding() == oracle_key(oracle[1])
    assert aggregate_performance(grouping, gains) == total


COST_RATIOS = st.sampled_from([2.0, 1.5, 3.0])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=5, max_value=6), st.integers(min_value=0, max_value=2**32 - 1),
       COST_RATIOS, st.data())
def test_optimizer_matches_oracle_at_five_and_six_tasks(n, seed, mtl_cost, data):
    """Continuous gains: one best grouping, found for any cost ratio."""
    tasks = tuple(f"t{i}" for i in range(n))
    budget = data.draw(st.sampled_from([n - 1.0, float(n), 1.5 * n, 2.0 * n]))
    check_against_oracle(tasks, seeded_gains(seed, tasks), budget, mtl_cost)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=5, max_value=6), COST_RATIOS, st.data())
def test_optimizer_breaks_ties_like_oracle_at_five_and_six_tasks(n, mtl_cost, data):
    """Gains in steps of 0.25 tie often, and sum exactly in any order."""
    tasks = tuple(f"t{i}" for i in range(n))
    steps = data.draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=n * (n - 1), max_size=n * (n - 1)))
    budget = data.draw(st.sampled_from([n - 1.0, float(n), 1.5 * n, 2.0 * n]))
    check_against_oracle(tasks, gain_matrix([0.25 * s for s in steps], tasks=tasks),
                         budget, mtl_cost)


def test_optimizer_matches_oracle_on_mostly_negative_gains():
    """200 fixed instances whose partial totals often fall below 0.

    A bound that counts the total so far twice prunes good branches here.
    """
    for seed in range(200):
        n = 4 + seed % 2
        tasks = tuple(f"t{i}" for i in range(n))
        check_against_oracle(tasks, seeded_gains(seed, tasks, low=-0.3, high=0.2),
                             float(n - 1 + seed % (n + 2)), (1.5, 2.0, 3.0)[seed % 3])


TEN = tuple(f"t{i}" for i in range(10))


def solve_within(seconds, gains, budget):
    start = time.perf_counter()
    grouping, total = optimize_grouping(TEN, gains, budget)
    assert time.perf_counter() - start < seconds
    assert is_valid_grouping(TEN, grouping) == []
    assert aggregate_performance(grouping, gains) == total
    return grouping, total


@pytest.mark.parametrize("budget", [10.0, 15.0, 20.0])
def test_optimizer_ten_random_tasks(budget):
    gains = seeded_gains(int(budget), TEN)
    _, total = solve_within(5.0, gains, budget)
    best = best_total_by_subsets(TEN, oracle_gains_dict(gains), 1.0, budget, 2.0)
    assert total == pytest.approx(best, abs=1e-12)


def pair(a, b, *serving):
    return ((f"t{a}", f"t{b}"), tuple(f"t{s}" for s in serving))


@pytest.mark.parametrize("budget, expected", [
    # Every task in a two-task model that serves both, paired in name order.
    (10.0, (pair(0, 1, 0, 1), pair(2, 3, 2, 3), pair(4, 5, 4, 5), pair(6, 7, 6, 7),
            pair(8, 9, 8, 9))),
    # Models serving one task sort first: t0 with t1, then t2..t4 served with
    # t0 spend 8 of 15, which leaves just enough for pairs serving both.
    (15.0, (pair(0, 1, 0), pair(0, 2, 2), pair(0, 3, 3), pair(0, 4, 4),
            pair(1, 5, 1, 5), pair(6, 7, 6, 7), pair(8, 9, 8, 9))),
    # Ten one-task-serving models: t1 cannot reuse the pair {t0, t1}.
    (20.0, (pair(0, 1, 0), *(pair(0, k, k) for k in range(2, 10)), pair(1, 2, 1))),
])
def test_optimizer_ten_equal_gains_takes_smallest_tie(budget, expected):
    """All gains 0.1: every task can gain 0.1, in many tied groupings.

    Sums of 0.1 differ in the last bits with their order, so these ties
    are only ties within the optimizer's slack.
    """
    gains = TaskMatrix(TEN, {(w, t): 0.1 for w in TEN for t in TEN if w != t})
    grouping, total = solve_within(5.0, gains, budget)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert grouping.encoding() == expected


@pytest.mark.parametrize("field", ["budget", "stl_cost", "mtl_cost"])
def test_optimizer_rejects_nan_budget_and_costs(field):
    gains = gain_matrix([1.0] * 6)
    kwargs = {"budget": 6.0, field: float("nan")}
    with pytest.raises(ValueError, match=field):
        optimize_grouping(ABC, gains, **kwargs)


def test_optimizer_allows_infinite_budget_and_costs():
    gains = gain_matrix([1.0, -1.0, 2.0, 0.5, -3.0, 0.25])
    _, total = optimize_grouping(ABC, gains, budget=float("inf"))
    assert total == best_grouping_naive(ABC, oracle_gains_dict(gains), 1.0, 100.0)[0]
    # An unaffordable two-task model leaves the single-task models.
    grouping, total = optimize_grouping(ABC, gains, budget=3.0, mtl_cost=float("inf"))
    assert (grouping.encoding(), total) == (tuple(((t,), (t,)) for t in ABC), 0.0)
