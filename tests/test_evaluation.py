"""Gain, the three evaluation levels, and the cost model."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtl_affinity import evaluation as ev
from mtl_affinity.evaluation import SCORE_KINDS, assemble_matrix
from mtl_affinity.matrices import TaskMatrix, read_table
from mtl_affinity.stats import DegenerateInputError
from oracles import kendall_tau_naive, pearson_naive

TASKS = ("t1", "t2", "t3")


def matrix(cells, tasks=TASKS):
    return TaskMatrix(tasks, cells)


def full_matrix(values, tasks=TASKS):
    """Build a complete matrix from a flat row-major off-diagonal list."""
    it = iter(values)
    return TaskMatrix(tasks, {(w, t): next(it) for w in tasks for t in tasks if w != t})


def mapped(m, fn):
    """A new matrix with fn applied to every cell of a complete matrix."""
    return TaskMatrix(m.tasks, {(w, t): fn(m.get(w, t))
                                for w in m.tasks for t in m.tasks if w != t})


# --- mtl_gain ---


def test_mtl_gain_formula():
    assert ev.mtl_gain(2.0, 2.0) == 0.0
    assert ev.mtl_gain(3.0, 2.0) == pytest.approx(0.5)
    assert ev.mtl_gain(1.0, 2.0) == pytest.approx(-0.5)


def test_mtl_gain_rejects_nonpositive():
    for stl, mtl in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            ev.mtl_gain(stl, mtl)


# --- level 1 ---


def test_level1_identity_is_all_ones():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    r = ev.level1_predictive(g, g)
    assert all(v == pytest.approx(1.0) for v in r.per_target.values())
    assert r.summary == pytest.approx(1.0)


def test_level1_negated_score_is_minus_one():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    s = mapped(g, lambda v: -v)
    r = ev.level1_predictive(g, s)
    assert all(v == pytest.approx(-1.0) for v in r.per_target.values())
    assert r.summary == pytest.approx(-1.0)


def test_level1_matches_column_oracle():
    g = full_matrix([0.3, -1.2, 2.0, 0.7, -0.5, 1.1])
    s = full_matrix([1.0, 0.2, -0.4, 2.2, 0.9, -1.3])
    r = ev.level1_predictive(g, s)
    for t in TASKS:
        sv = [v for _, v in s.column(t)]
        gv = [v for _, v in g.column(t)]
        assert r.per_target[t] == pytest.approx(pearson_naive(sv, gv), abs=1e-12)
    pool_s = [s.get(w, t) for t in TASKS for w in TASKS if w != t]
    pool_g = [g.get(w, t) for t in TASKS for w in TASKS if w != t]
    assert r.summary == pytest.approx(pearson_naive(pool_s, pool_g), abs=1e-12)


def test_level_checks_task_alignment_and_completeness():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    other = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], tasks=("t1", "t2", "x"))
    with pytest.raises(ValueError, match="task sets"):
        ev.level1_predictive(g, other)
    partial = matrix({("t1", "t2"): 1.0})
    with pytest.raises(ValueError, match="incomplete"):
        ev.level1_predictive(g, partial)


# --- level 2 ---


def test_level2_identity_and_reverse():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    r = ev.level2_ranking(g, g)
    assert all(v == pytest.approx(1.0) for v in r.per_target.values())
    assert r.summary == pytest.approx(1.0)
    rev = ev.level2_ranking(g, mapped(g, lambda v: -v))
    assert rev.summary == pytest.approx(-1.0)


def test_level2_matches_oracle_and_variant():
    """Level 2 is Kendall tau-b, which differs from tau-a on tied columns."""
    tasks = ("a", "b", "c", "d")
    g = TaskMatrix(tasks, {(w, t): float(3 * i + j) for i, w in enumerate(tasks)
                           for j, t in enumerate(tasks) if w != t})
    s = mapped(g, lambda v: float(v >= 6))  # two partners tie in every column
    r = ev.level2_ranking(g, s)
    for t in tasks:
        sv = [v for _, v in s.column(t)]
        gv = [v for _, v in g.column(t)]
        assert r.per_target[t] == pytest.approx(kendall_tau_naive(sv, gv, variant="b"),
                                                abs=1e-12)
        assert r.per_target[t] != pytest.approx(kendall_tau_naive(sv, gv, variant="a"))
    assert r.summary == pytest.approx(sum(r.per_target.values()) / 4, abs=1e-12)


@pytest.mark.parametrize("level, function", [(1, ev.level1_predictive),
                                             (2, ev.level2_ranking)])
def test_undefined_correlation_names_level_and_target(level, function):
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    s = full_matrix([7.0, 2.0, 3.0, 4.0, 5.0, 7.0])  # t2's two partners score alike
    with pytest.raises(DegenerateInputError, match=f"^level {level}, target 't2': "):
        function(g, s)


# --- level 3 ---


def test_level3_identity_selects_true_best():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    r = ev.level3_best_partner(g, g)
    for t, sel in r.items():
        assert sel.selected == sel.true_best
        assert sel.delta == 0.0
        assert not sel.tie


def test_level3_wrong_pick_and_delta():
    tasks = ("a", "b", "c")
    g = TaskMatrix(tasks, {("b", "a"): 10.0, ("c", "a"): 2.0,
                           ("a", "b"): 1.0, ("c", "b"): 3.0,
                           ("a", "c"): 0.0, ("b", "c"): 5.0})
    s = TaskMatrix(tasks, {("b", "a"): 0.1, ("c", "a"): 0.9,
                           ("a", "b"): 0.9, ("c", "b"): 0.1,
                           ("a", "c"): 0.1, ("b", "c"): 0.9})
    r = ev.level3_best_partner(g, s)
    assert r["a"].selected == "c"
    assert r["a"].true_best == "b"
    assert r["a"].delta == pytest.approx(2.0 - 10.0)
    assert r["c"].delta == 0.0


def test_level3_tie_reporting():
    tasks = ("a", "b", "c", "d")
    score_cells = {}
    gain_cells = {}
    vals = iter(range(1, 13))
    for w in tasks:
        for t in tasks:
            if w != t:
                gain_cells[(w, t)] = float(next(vals))
                score_cells[(w, t)] = 0.5
    # target "a": all three partners tie at 0.5; break lexicographically
    score_cells[("d", "a")] = 0.9
    score_cells[("c", "a")] = 0.9
    g = TaskMatrix(tasks, gain_cells)
    s = TaskMatrix(tasks, score_cells)
    sel = ev.level3_best_partner(g, s)["a"]
    assert sel.tied == ("c", "d")
    assert sel.selected == "c"
    assert sel.tie
    best = max(v for _, v in g.column("a"))
    tied_mean = (g.get("c", "a") + g.get("d", "a")) / 2
    assert sel.delta == pytest.approx(g.get("c", "a") - best)
    assert sel.delta_tied_mean == pytest.approx(tied_mean - best)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=12, max_size=12),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=12, max_size=12))
def test_level3_delta_never_positive(gvals, svals):
    tasks = ("a", "b", "c", "d")
    cells_g, cells_s = {}, {}
    it_g, it_s = iter(gvals), iter(svals)
    for w in tasks:
        for t in tasks:
            if w != t:
                cells_g[(w, t)] = float(next(it_g))
                cells_s[(w, t)] = float(next(it_s))
    r = ev.level3_best_partner(TaskMatrix(tasks, cells_g), TaskMatrix(tasks, cells_s))
    for sel in r.values():
        assert sel.delta <= 0.0
        assert sel.delta_tied_mean <= 0.0
        assert (sel.delta == 0.0) == (sel.selected == sel.true_best
                                      or cells_g[(sel.selected, sel.target)]
                                      == cells_g[(sel.true_best, sel.target)])


def test_evaluate_bundles_all_levels():
    g = full_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    s = assemble_matrix("GS", TASKS, {("t1", "t2"): 0.3, ("t1", "t3"): 0.1,
                                      ("t2", "t3"): -0.2})
    report = ev.evaluate(g, s)
    assert report.tasks == TASKS
    assert set(report.level1.per_target) == set(TASKS)
    assert report.level3["t1"].target == "t1"


# --- cost model ---


def test_cost_model_validation():
    with pytest.raises(ValueError, match="n"):
        ev.CostModel(1, 10.0)
    with pytest.raises(ValueError, match="c_s"):
        ev.CostModel(3, 0.0)
    assert ev.MODEL_FAMILIES["mtl"].members(("c", "a", "b")) == [("a", "b"), ("a", "c"),
                                                                 ("b", "c")]


@pytest.mark.parametrize("c_s", [True, "3"])
def test_cost_model_refuses_a_non_real_c_s(c_s):
    with pytest.raises(ValueError, match=f"^c_s must be a real number, got {c_s!r}$"):
        ev.CostModel(4, c_s)


def test_cost_model_takes_a_numpy_integer_n():
    cost = ev.CostModel(np.int64(4), 1.0)
    assert type(cost.n) is int and cost == ev.CostModel(4, 1.0)


def test_cost_expressions_are_fixed_strings():
    assert ev.score_cost_expression("TD") == "0"
    assert ev.score_cost_expression("IAS") == "n*c_s"
    assert ev.score_cost_expression("RSA") == "n*c_s"
    assert ev.score_cost_expression("LI") == "n*c_s + 2*C(n,2)*c_s"
    assert ev.score_cost_expression("GS") == "C(n,2)*2*c_s"
    assert ev.score_cost_expression("GT") == "C(n,2)*2*c_s"
    with pytest.raises(ValueError, match="kind"):
        ev.score_cost_expression("XX")
    assert {f for kind in SCORE_KINDS.values() for f in kind.families} == set(ev.MODEL_FAMILIES)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_cost_numeric_values(n):
    c_s = 3.5
    cost = ev.CostModel(n, c_s)
    pairs = math.comb(n, 2)
    assert ev.score_cost("TD", cost) == 0.0
    assert ev.score_cost("IAS", cost) == pytest.approx(n * c_s)
    assert ev.score_cost("RSA", cost) == pytest.approx(n * c_s)
    assert ev.score_cost("LI", cost) == pytest.approx(n * c_s + 2 * pairs * c_s)
    assert ev.score_cost("GS", cost) == pytest.approx(2 * pairs * c_s)
    assert ev.score_cost("GT", cost) == pytest.approx(2 * pairs * c_s)


def test_cost_worked_examples():
    five = ev.CostModel(5, 1.0)
    assert ev.score_cost("LI", five) == 25.0
    assert ev.score_cost("GS", five) == 20.0
    assert ev.score_cost("TD", ev.CostModel(2, 1.0)) == 0.0


# --- CSV emission ---


def make_reports():
    g = full_matrix([0.3, -1.2, 2.0, 0.7, -0.5, 1.1])
    s1 = assemble_matrix("GS", TASKS, {("t1", "t2"): 0.3, ("t1", "t3"): 0.1,
                                       ("t2", "t3"): -0.2})
    s2 = assemble_matrix("LI", TASKS, {(w, t): float(i) for i, (w, t) in enumerate(
        (w, t) for w in TASKS for t in TASKS if w != t)})
    return {"GS": ev.evaluate(g, s1), "LI": ev.evaluate(g, s2)}


def test_level_csv_round_trips():
    # Every reported value reads back exactly from the written text.
    reports = make_reports()
    for level, text in ((1, ev.level1_csv(reports)), (2, ev.level2_csv(reports))):
        _, rows = read_table(text, f"level{level}", {"score": str, "*": float})
        assert [row[0] for row in rows] == ["GS", "LI"]
        for kind, *values in rows:
            result = getattr(reports[kind], f"level{level}")
            assert values == [*(result.per_target[t] for t in TASKS), result.summary]
    _, rows = read_table(ev.level3_csv(reports), "level3", {
        "score": str, "target": str, "selected": str, "tied": str, "true_best": str,
        "delta": float, "delta_tied_mean": float})
    assert [(row[0], row[1]) for row in rows] == [(k, t) for k in ("GS", "LI") for t in TASKS]
    for kind, target, selected, tied, true_best, delta, delta_tied_mean in rows:
        assert reports[kind].level3[target] == ev.Level3Selection(
            target, selected, tuple(tied.split("|")), true_best, delta, delta_tied_mean)


# --- invariance properties ---


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=6, max_size=6),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=6, max_size=6),
       st.integers(min_value=1, max_value=9), st.integers(min_value=-5, max_value=5))
def test_levels_invariant_to_positive_affine_score_transform(gv, sv, scale, shift):
    g = full_matrix([float(v) for v in gv])
    s = full_matrix([float(v) for v in sv])
    s2 = mapped(s, lambda v: scale * v + shift)
    try:
        r_a, r_b = ev.level1_predictive(g, s), ev.level1_predictive(g, s2)
        k_a, k_b = ev.level2_ranking(g, s), ev.level2_ranking(g, s2)
    except DegenerateInputError:
        assume(False)
    for t in TASKS:
        assert r_a.per_target[t] == pytest.approx(r_b.per_target[t], abs=1e-9)
        assert k_a.per_target[t] == pytest.approx(k_b.per_target[t], abs=1e-12)
    sel_a = ev.level3_best_partner(g, s)
    sel_b = ev.level3_best_partner(g, s2)
    assert {t: x.selected for t, x in sel_a.items()} == {t: x.selected for t, x in sel_b.items()}
