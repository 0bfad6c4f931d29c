"""Correlation statistics against brute-force oracles and scipy."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtl_affinity import stats
from oracles import kendall_tau_naive, pearson_naive, rankdata_naive, spearman_naive

finite_lists = st.lists(
    st.integers(min_value=-50, max_value=50).map(float), min_size=2, max_size=30
)


def _nonconstant_pairs(draw_x, draw_y):
    return len(set(draw_x)) > 1 and len(set(draw_y)) > 1


def test_pearson_hand_value():
    assert stats.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert stats.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert stats.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_constant_input_raises():
    with pytest.raises(stats.DegenerateInputError):
        stats.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(stats.DegenerateInputError):
        stats.pearson([1.0], [2.0])


def test_rankdata_ties_average():
    np.testing.assert_array_equal(stats.rankdata([10.0, 20.0, 20.0, 30.0]),
                                  [1.0, 2.5, 2.5, 4.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1.5, 0.0, 2.0]), min_size=0, max_size=40))
@example([])
@example([3.0])
@example([2.0, 2.0])
@example([2.0, -1.0])
def test_rankdata_ties_heavy_and_short_match_loop(values):
    np.testing.assert_array_equal(stats.rankdata(values), rankdata_naive(values))


def test_kendall_variants_on_tied_data():
    # 6 pairs, 1 tie in x: tau-a = 4/6, tau-b = 4/sqrt(5*6)
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 2.0, 3.0, 4.0]
    assert stats.kendall_tau(x, y, variant="a") == pytest.approx(5 / 6)
    assert stats.kendall_tau(x, y, variant="b") == pytest.approx(5 / np.sqrt(30))


def test_kendall_all_tied_raises_for_b():
    with pytest.raises(stats.DegenerateInputError):
        stats.kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], variant="b")
    assert stats.kendall_tau([1.0, 1.0], [1.0, 2.0], variant="a") == 0.0


def test_kendall_rejects_unknown_variant():
    with pytest.raises(ValueError):
        stats.kendall_tau([1.0, 2.0], [1.0, 2.0], variant="c")


def test_length_mismatch_rejected():
    for fn in (stats.pearson, stats.spearman, stats.kendall_tau):
        with pytest.raises(ValueError):
            fn([1.0, 2.0], [1.0, 2.0, 3.0])


def test_non_finite_rejected():
    for fn in (stats.pearson, stats.spearman, stats.kendall_tau):
        with pytest.raises(ValueError):
            fn([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(finite_lists, finite_lists)
def test_matches_naive_oracles(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert stats.pearson(x, y) == pytest.approx(pearson_naive(x, y), abs=1e-12)
    assert stats.spearman(x, y) == pytest.approx(spearman_naive(x, y), abs=1e-12)
    assert stats.kendall_tau(x, y, "a") == pytest.approx(kendall_tau_naive(x, y, "a"), abs=1e-12)
    assert stats.kendall_tau(x, y, "b") == pytest.approx(kendall_tau_naive(x, y, "b"), abs=1e-12)
    np.testing.assert_array_equal(stats.rankdata(x), rankdata_naive(x))


@settings(max_examples=100, deadline=None)
@given(finite_lists, finite_lists)
def test_matches_scipy(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert stats.pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)
    assert stats.spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0], abs=1e-12)
    assert stats.kendall_tau(x, y, "b") == pytest.approx(
        scipy.stats.kendalltau(x, y, variant="b")[0], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(finite_lists, finite_lists,
       st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=-5.0, max_value=5.0))
def test_affine_invariance(x, y, scale, shift):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    xs = [scale * v + shift for v in x]
    assert stats.pearson(xs, y) == pytest.approx(stats.pearson(x, y), abs=1e-9)
    assert stats.spearman(xs, y) == pytest.approx(stats.spearman(x, y), abs=1e-9)
    assert stats.kendall_tau(xs, y) == pytest.approx(stats.kendall_tau(x, y), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(finite_lists, finite_lists)
def test_symmetry(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert stats.pearson(x, y) == pytest.approx(stats.pearson(y, x), abs=1e-12)
    assert stats.kendall_tau(x, y) == pytest.approx(stats.kendall_tau(y, x), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(finite_lists)
def test_self_correlation_is_one(x):
    if len(set(x)) < 2:
        return
    assert stats.pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert stats.spearman(x, x) == pytest.approx(1.0, abs=1e-12)
    assert stats.kendall_tau(x, x) == pytest.approx(1.0, abs=1e-12)
