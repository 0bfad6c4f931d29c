"""TaskMatrix semantics and CSV/JSON round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtl_affinity.matrices import MatrixFormatError, MissingCellError, TaskMatrix


def full_matrix():
    m = TaskMatrix(["a", "b", "c"])
    for w in m.tasks:
        for t in m.tasks:
            if w != t:
                m.set(w, t, ord(w) * 10.0 + ord(t) / 7.0)
    return m


def test_get_set_roundtrip():
    m = TaskMatrix(["x", "y"])
    m.set("x", "y", 0.5)
    assert m.get("x", "y") == 0.5
    assert m.has("x", "y")
    assert not m.has("y", "x")


def test_diagonal_rejected():
    m = TaskMatrix(["x", "y"])
    with pytest.raises(ValueError):
        m.set("x", "x", 1.0)
    with pytest.raises(ValueError):
        m.get("y", "y")


def test_unknown_task_rejected():
    m = TaskMatrix(["x", "y"])
    with pytest.raises(KeyError):
        m.set("x", "z", 1.0)


def test_missing_cell_error():
    m = TaskMatrix(["x", "y"])
    with pytest.raises(MissingCellError):
        m.get("x", "y")
    assert m.missing_cells() == [("x", "y"), ("y", "x")]
    assert not m.is_complete()


def test_duplicate_and_short_task_lists_rejected():
    with pytest.raises(ValueError):
        TaskMatrix(["a", "a"])
    with pytest.raises(ValueError):
        TaskMatrix(["solo"])


def test_column_order_and_content():
    m = full_matrix()
    col = m.column("b")
    assert [w for w, _ in col] == ["a", "c"]
    assert col[0][1] == m.get("a", "b")


def test_as_array_nan_diagonal():
    arr = full_matrix().as_array()
    assert np.all(np.isnan(np.diag(arr)))
    assert np.isfinite(arr[0, 1])


def test_csv_layout():
    m = TaskMatrix(["t1", "t2"])
    m.set("t1", "t2", 0.25)
    m.set("t2", "t1", -1.5)
    lines = m.to_csv_text().splitlines()
    assert lines[0] == "with,t1,t2"
    assert lines[1] == "t1,,0.25"
    assert lines[2] == "t2,-1.5,"


def test_csv_roundtrip_exact():
    m = full_matrix()
    assert TaskMatrix.from_csv_text(m.to_csv_text()) == m


def test_csv_rejects_bad_header():
    with pytest.raises(MatrixFormatError):
        TaskMatrix.from_csv_text("tasks,a,b\na,,1\nb,2,\n")


def test_csv_rejects_nonempty_diagonal():
    with pytest.raises(MatrixFormatError):
        TaskMatrix.from_csv_text("with,a,b\na,9,1\nb,2,\n")


def test_csv_rejects_row_order_mismatch():
    with pytest.raises(MatrixFormatError):
        TaskMatrix.from_csv_text("with,a,b\nb,1,\na,,2\n")


def test_csv_rejects_non_numeric():
    with pytest.raises(MatrixFormatError):
        TaskMatrix.from_csv_text("with,a,b\na,,oops\nb,2,\n")


def test_csv_partial_matrix_allowed():
    m = TaskMatrix.from_csv_text("with,a,b\na,,\nb,2,\n")
    assert m.get("b", "a") == 2.0
    assert not m.has("a", "b")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_csv_roundtrip_random(n, seed):
    rng = np.random.default_rng(seed)
    tasks = [f"task{i}" for i in range(n)]
    m = TaskMatrix(tasks)
    for w in tasks:
        for t in tasks:
            if w != t:
                m.set(w, t, float(rng.normal()))
    assert TaskMatrix.from_csv_text(m.to_csv_text()) == m
