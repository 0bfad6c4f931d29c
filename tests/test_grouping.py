"""Grouping validity, aggregate gain, and the optimizer against exhaustive oracles."""

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouping_pins import PINS_PATH, pin_instances, solve_pin
from mtl_affinity.grouping import (
    BUDGET_SLACK,
    Grouping,
    InfeasibleGroupingError,
    InvalidGroupingError,
    ModelCandidate,
    aggregate_performance,
    is_valid_grouping,
    _Completions,
    _encoding_order,
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
    with pytest.raises(ValueError, match=r"^a model trains on 1 or 2 tasks, got \['a', 'b', 'c'\]$"):
        ModelCandidate(("a", "b", "c"), ("a",), 1.0)
    with pytest.raises(ValueError, match=r"1 or 2 tasks, got \[\]$"):
        ModelCandidate((), ("a",), 1.0)


def one_model_json(cost=1, budget=5):
    return {"models": [{"training_tasks": ["a"], "serving_tasks": ["a"], "cost": cost}],
            "budget": budget}


@pytest.mark.parametrize("field, build", [
    ("cost", lambda v: ModelCandidate(("a",), ("a",), v)),
    ("budget", lambda v: Grouping((ModelCandidate(("a",), ("a",), 1.0),), v)),
    ("cost", lambda v: Grouping.from_json_dict(one_model_json(cost=v))),
    ("budget", lambda v: Grouping.from_json_dict(one_model_json(budget=v))),
    ("budget", lambda v: optimize_grouping(ABC, gain_matrix([0.0] * 6), v)),
    ("stl_cost", lambda v: optimize_grouping(ABC, gain_matrix([0.0] * 6), 5.0, stl_cost=v)),
    ("mtl_cost", lambda v: optimize_grouping(ABC, gain_matrix([0.0] * 6), 5.0, mtl_cost=v)),
])
@pytest.mark.parametrize("value", [True, False, "2", [1.0]])
def test_grouping_numbers_are_checked_not_coerced(field, build, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
        build(value)


def test_grouping_keeps_integer_numbers_as_floats():
    grouping = Grouping.from_json_dict(one_model_json(cost=1, budget=5))
    assert grouping.to_json_dict() == {"models": [{"training_tasks": ["a"], "serving_tasks": ["a"],
                                                   "cost": 1.0}],
                                       "budget": 5.0, "total_cost": 1.0}
    assert [type(x) for x in (grouping.budget, grouping.candidates[0].cost)] == [float, float]
    assert is_valid_grouping(("a",), grouping) == []
    by_ints, _ = optimize_grouping(ABC, gain_matrix([1.0] * 6), 5, stl_cost=1, mtl_cost=2)
    by_floats, _ = optimize_grouping(ABC, gain_matrix([1.0] * 6), 5.0, stl_cost=1.0, mtl_cost=2.0)
    assert json.dumps(by_ints.to_json_dict()) == json.dumps(by_floats.to_json_dict())


def test_grouping_json_with_a_three_task_model_is_refused():
    payload = Grouping((ModelCandidate(("a", "b"), ("a", "b"), 2.0),), budget=3.0).to_json_dict()
    payload["models"][0]["training_tasks"].append("c")
    with pytest.raises(ValueError, match=r"1 or 2 tasks, got \['a', 'b', 'c'\]"):
        Grouping.from_json_dict(payload)


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


def two_single_task_models(cost, budget):
    return Grouping((ModelCandidate(("a",), ("a",), cost),
                     ModelCandidate(("b",), ("b",), cost)), budget=budget)


@pytest.mark.parametrize("cost, budget", [(math.inf, math.inf), (1e308, math.inf),
                                          (1.0, math.nan)])
def test_validator_refuses_what_the_optimizer_never_affords(cost, budget):
    """An infinite total (given, or overflowed from 1e308 + 1e308) or a NaN budget."""
    violations = is_valid_grouping(("a", "b"), two_single_task_models(cost, budget))
    assert [v.kind for v in violations] == ["over_budget"]
    gains = TaskMatrix(("a", "b"), {("a", "b"): 1.0, ("b", "a"): 1.0})
    with pytest.raises(ValueError, match="no valid grouping|budget must be a number"):
        optimize_grouping(("a", "b"), gains, budget, stl_cost=cost)


def test_validator_budget_limit_holds_at_the_bound():
    at = BUDGET_SLACK + 3.0
    assert is_valid_grouping(("a",), Grouping((ModelCandidate(("a",), ("a",), at),), 3.0)) == []
    above = Grouping((ModelCandidate(("a",), ("a",), math.nextafter(at, math.inf)),), 3.0)
    assert [v.kind for v in is_valid_grouping(("a",), above)] == ["over_budget"]


# --- aggregate performance ---


def test_aggregate_all_stl_is_baseline():
    g = Grouping(tuple(ModelCandidate((t,), (t,), 1.0) for t in ABC), budget=3.0)
    gains = gain_matrix([5.0, -1.0, 2.0, 3.0, -4.0, 6.0])
    assert aggregate_performance(g, gains) == 0.0


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
    # A three-task model is refused when it is built, so no grouping to score holds one.
    with pytest.raises(ValueError, match="1 or 2 tasks"):
        ModelCandidate(ABC, ABC, 3.0)


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
    partial = TaskMatrix(ABC, {k: v for k, v in gains.cells().items() if k != ("b", "c")})
    with pytest.raises(ValueError, match=r"missing cells \[\('b', 'c'\)\]"):
        optimize_grouping(ABC, partial, budget=10.0)


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


def test_optimizer_matches_pinned_tie_breaks_at_seven_to_ten_tasks():
    """Identical encodings and ``==`` totals on 144 pinned instances, ties included."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    got = {label: solve_pin(gain, budget, mtl_cost)
           for label, gain, budget, mtl_cost in pin_instances()}
    assert set(got) == set(pins)
    assert [label for label in pins if got[label] != pins[label]] == []


@pytest.mark.parametrize("field", ["budget", "stl_cost", "mtl_cost"])
def test_optimizer_rejects_nan_budget_and_costs(field):
    gains = gain_matrix([1.0] * 6)
    kwargs = {"budget": 6.0, field: float("nan")}
    with pytest.raises(ValueError, match=field):
        optimize_grouping(ABC, gains, **kwargs)


def test_optimizer_rejects_gains_whose_tie_slack_overflows():
    """Two gains of 1e308 sum past the float range; no grouping is returned."""
    gains = gain_matrix([0.1, 1e308, 0.2, 0.3, 1e308, 0.15])
    with pytest.raises(ValueError, match="overflows"):
        optimize_grouping(ABC, gains, budget=6.0)


def test_optimizer_allows_infinite_budget_and_costs():
    gains = gain_matrix([1.0, -1.0, 2.0, 0.5, -3.0, 0.25])
    _, total = optimize_grouping(ABC, gains, budget=float("inf"))
    assert total == best_grouping_naive(ABC, oracle_gains_dict(gains), 1.0, 100.0)[0]
    # An unaffordable two-task model leaves the single-task models.
    grouping, total = optimize_grouping(ABC, gains, budget=3.0, mtl_cost=float("inf"))
    assert (grouping.encoding(), total) == (tuple(((t,), (t,)) for t in ABC), 0.0)


@pytest.mark.parametrize("stl_cost, mtl_cost", [(math.inf, math.inf), (1e308, 1e308)])
def test_optimizer_never_affords_an_infinite_total_cost(stl_cost, mtl_cost):
    gains = gain_matrix([1.0, -1.0, 2.0, 0.5, -3.0, 0.25])
    with pytest.raises(InfeasibleGroupingError, match="no valid grouping"):
        optimize_grouping(ABC, gains, budget=math.inf, stl_cost=stl_cost, mtl_cost=mtl_cost)


COSTS = [1.0, 1.5, 2.0, math.inf, 1e308]


@pytest.mark.parametrize("stl_cost", COSTS)
@pytest.mark.parametrize("mtl_cost", COSTS)
@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_validator_and_scorer_agree_with_the_optimizer(stl_cost, mtl_cost, n, data):
    """At every budget, a returned grouping is valid and scores its total; when none is
    returned, the single-task models alone are over budget."""
    tasks = tuple(f"t{i}" for i in range(n))
    steps = data.draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=n * (n - 1), max_size=n * (n - 1)))
    gains = gain_matrix([0.25 * s for s in steps], tasks=tasks)
    for budget in (n - 1.0, float(n), 1.5 * n, 2.0 * n, 1e308, math.inf):
        try:
            grouping, total = optimize_grouping(tasks, gains, budget, stl_cost, mtl_cost)
        except InfeasibleGroupingError:
            singles = Grouping(tuple(ModelCandidate((t,), (t,), stl_cost) for t in tasks), budget)
            assert "over_budget" in {v.kind for v in is_valid_grouping(tasks, singles)}
            continue
        assert is_valid_grouping(tasks, grouping) == []
        assert aggregate_performance(grouping, gains) == total


# --- the tie-break pass: carried solo gains and the root-bound precheck ---


def scratch_solo_gain(gains, t, used):
    """Task t's best gain with a partner it has no chosen pair with; None if none is left."""
    allowed = [gains[q][t] for q in range(len(gains)) if q != t and not used >> q & 1]
    return max(allowed) if allowed else None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans(), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.data())
def test_carried_solo_gains_and_root_bound_precheck_match_a_fresh_search(
        n, seed, stepped, mtl_cost, data):
    """Along a random walk of candidates, the carried solo gains equal ones recomputed
    from scratch, and the precheck rejects exactly where a search with the fresh upside
    sum prunes its root: ``0.0 + rest < need``, rest summed in index order."""
    rng = np.random.default_rng(seed)
    gains = [[0.0 if p == t else float(rng.uniform(-0.3, 0.4)) for t in range(n)]
             for p in range(n)]
    if stepped:
        gains = [[round(v * 10) / 10 for v in row] for row in gains]
    budget = data.draw(st.floats(min_value=0.9 * n, max_value=3.0 * n))
    completions = _Completions(gains, budget + BUDGET_SLACK, 1.0, mtl_cost)
    everyone = (1 << n) - 1
    served, used, spent, pairs = 0, [0] * n, 0.0, [0] * n  # pairs: used, as the test keeps it
    solo = [scratch_solo_gain(gains, t, 0) for t in range(n)]
    upside = [max(0.0, v) for v in solo]
    while served != everyone:
        training, serving, serves = data.draw(st.sampled_from([
            (training, serving, serves) for training, serving, serves, _ in _encoding_order(n)
            if not served & serves and not pairs[training[0]] >> training[-1] & 1]))
        served |= serves
        left = everyone ^ served
        used, solo, upside = completions.carry(used, solo, upside, training, serving, left)
        if len(training) == 2:
            a, b = training
            pairs[a], pairs[b] = pairs[a] | 1 << b, pairs[b] | 1 << a
        spent += 1.0 if len(training) == 1 else mtl_cost
        unserved = [t for t in range(n) if left >> t & 1]
        assert used == pairs
        assert [solo[t] for t in unserved] == [scratch_solo_gain(gains, t, pairs[t])
                                               for t in unserved]
        assert [upside[t] for t in range(n) if not left >> t & 1] == [0.0] * (n - len(unserved))
        # The search's root bound as it was computed per call: every task's
        # upside from its fresh solo gain, summed over the tasks left.
        fresh = [max(0.0, v) if v is not None else 0.0
                 for v in (scratch_solo_gain(gains, t, pairs[t]) for t in range(n))]
        rest = sum(v for t, v in enumerate(fresh) if left >> t & 1)
        assert repr(sum(upside)) == repr(float(rest))
        for need in (rest, math.nextafter(rest, math.inf), math.nextafter(rest, -math.inf),
                     data.draw(st.floats(min_value=-2.0, max_value=3.0))):
            rejected = sum(upside) < need
            assert rejected == (0.0 + rest < need)
            if rejected or spent + completions.floor[len(unserved)] > completions.limit:
                for first in (True, False):
                    assert completions.best(left, spent, solo, upside, need, first) is None


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_optimizer_matches_subset_oracle_at_a_budget_of_one_and_a_quarter_per_task(
        n, seed, stepped):
    """The benchmark's n8 budget factor, 1.25 per task, which the pins do not cover."""
    tasks = tuple(f"t{i}" for i in range(n))
    gains = seeded_gains([seed, n], tasks)
    if stepped:  # 0.1 steps: many ties
        gains = TaskMatrix(tasks, {key: round(v * 10) / 10 for key, v in gains.cells().items()})
    grouping, total = optimize_grouping(tasks, gains, 1.25 * n)
    assert is_valid_grouping(tasks, grouping) == []
    assert aggregate_performance(grouping, gains) == total
    best = best_total_by_subsets(tasks, oracle_gains_dict(gains), 1.0, 1.25 * n, 2.0)
    assert total == pytest.approx(best, abs=1e-12)
