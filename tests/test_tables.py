"""The CSV table format: pinned writer output and checked reading.

The five report writers are compared with literal expected text built
from hand-made results, so the format is pinned without training. Reports
are written only. Every table kind the package reads rejects a malformed
row, naming the kind and the line, after the file's path when a user names
the file.
"""

import pytest

from mtl_affinity import evaluation as ev
from mtl_affinity import paper_data as pd
from mtl_affinity.experiment import costs_csv, scatter_csv
from mtl_affinity.matrices import MatrixFormatError, TaskMatrix
from mtl_affinity.tasks import (
    generate_latent_factor_suite,
    load_dataset,
    load_taxonomy_distances,
    save_dataset,
)


def hand_made_reports() -> dict[str, ev.EvaluationReport]:
    tasks = ("a", "b", "c")
    tie = ev.Level3Selection(target="c", selected="a", tied=("a", "b"), true_best="b",
                             delta=-0.1, delta_tied_mean=-0.05)
    report = ev.EvaluationReport(
        tasks=tasks,
        level1=ev.Correlations({"a": 0.1, "b": -0.0, "c": 1.0}, summary=1 / 3),
        level2=ev.Correlations({"a": -1.0, "b": 0.5, "c": 0.0},
                               summary=-0.16666666666666666),
        level3={"a": ev.Level3Selection("a", "b", ("b",), "b", -0.0, -0.0),
                "b": ev.Level3Selection("b", "c", ("c",), "a", -2.5, -2.5),
                "c": tie})
    other = ev.EvaluationReport(
        tasks=tasks,
        level1=ev.Correlations({"a": 0.2, "b": 0.3, "c": -0.7}, summary=0.0),
        level2=ev.Correlations({"a": 1.0, "b": 1.0, "c": 1.0}, summary=1.0),
        level3={"a": ev.Level3Selection("a", "c", ("c",), "c", 0.0, 0.0),
                "b": ev.Level3Selection("b", "a", ("a",), "a", 0.0, 0.0),
                "c": ev.Level3Selection("c", "b", ("b",), "b", 0.0, 0.0)})
    return {"GS": report, "LI": other}


def test_level_writers_pinned():
    reports = hand_made_reports()
    assert ev.level1_csv(reports) == (
        "score,a,b,c,all_at_once\n"
        "GS,0.1,-0.0,1.0,0.3333333333333333\n"
        "LI,0.2,0.3,-0.7,0.0\n")
    assert ev.level2_csv(reports) == (
        "score,a,b,c,average\n"
        "GS,-1.0,0.5,0.0,-0.16666666666666666\n"
        "LI,1.0,1.0,1.0,1.0\n")
    assert ev.level3_csv(reports) == (
        "score,target,selected,tied,true_best,delta,delta_tied_mean\n"
        "GS,a,b,b,b,-0.0,-0.0\n"
        "GS,b,c,c,a,-2.5,-2.5\n"
        "GS,c,a,a|b,b,-0.1,-0.05\n"
        "LI,a,c,c,c,0.0,0.0\n"
        "LI,b,a,a,a,0.0,0.0\n"
        "LI,c,b,b,b,0.0,0.0\n")


def test_cost_and_scatter_writers_pinned():
    assert costs_csv([("GS", "C(n,2)*2*c_s", 3, 0.1, 0.6000000000000001),
                      ("TD", "0", 3, 0.1, 0.0)]) == (
        "score,expression,n,c_s,multiply_adds\n"
        'GS,"C(n,2)*2*c_s",3,0.1,0.6000000000000001\n'
        "TD,0,3,0.1,0.0\n")
    assert scatter_csv([("IAS", "a", "b", -0.0, 0.1),
                        ("IAS", "b", "a", 1e-20, -12.5)]) == (
        "score,target,with,score_value,gain\n"
        "IAS,a,b,-0.0,0.1\n"
        "IAS,b,a,1e-20,-12.5\n")


def _bundled_reader(monkeypatch, name, load):
    """A reader that loads the bundled file ``name`` as the given text."""
    original = pd._read_text

    def read(text):
        monkeypatch.setattr(pd, "_read_text",
                            lambda requested: text if requested == name else original(requested))
        return load()
    return read, original(name)


def _file_case(kind, tmp_path):
    """(reader, valid text, a numeric column, path) of a table read from a file."""
    if kind == "taxonomy":
        path = tmp_path / "taxonomy.csv"
        text, column, load = TAXONOMY_TEXT, "c", lambda: load_taxonomy_distances(path)
    else:
        save_dataset(generate_latent_factor_suite(seed=0, n_tasks=2, d_latent=2, d_in=2,
                                                  n_examples=30, overlap=0.5, noise_std=0.1),
                     tmp_path / "ds")
        path = tmp_path / "ds" / "splits.csv"
        text, column, load = path.read_text(), "index", lambda: load_dataset(tmp_path / "ds")

    def read(new_text):
        path.write_text(new_text, encoding="utf-8")
        return load()
    return read, text, column, path


MATRIX_TEXT = "with,a,b,c\na,,1.0,2.0\nb,3.0,,4.0\nc,5.0,6.0,\n"
TAXONOMY_TEXT = "task,a,b,c\na,0,-1,-2\nb,-1,0,-3\nc,-2,-3,0\n"
# Each bundled expected table, with a numeric column of it.
BUNDLED = {"expected_level1.csv": (pd.load_expected_level1, "paper"),
           "expected_level2.csv": (pd.load_expected_level2, "paper"),
           "expected_level3.csv": (pd.load_expected_level3, "paper_delta")}


def table_case(kind, tmp_path, monkeypatch):
    """(reader, valid text, a numeric column, error type, message prefix)."""
    if kind in BUNDLED:
        load, column = BUNDLED[kind]
        read, text = _bundled_reader(monkeypatch, kind, load)
        return read, text, column, pd.BundledDataError, f"{kind}: expected table"
    if kind in ("taxonomy", "splits"):  # a file the user names: messages start with it
        read, text, column, path = _file_case(kind, tmp_path)
        return read, text, column, MatrixFormatError, f"{path}: {kind}"
    return TaskMatrix.from_csv_text, MATRIX_TEXT, "a", MatrixFormatError, kind


def _fault(text, fault, column):
    """``text`` with its line 3 (the second data row) made malformed."""
    lines = text.splitlines()
    header, row = lines[0].split(","), lines[2].split(",")
    if fault == "short":
        row = row[:-1]
    elif fault == "long":
        row = row + ["1.0"]
    else:
        row[header.index(column)] = "oops"
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fault", ["short", "long", "cell"])
@pytest.mark.parametrize("kind", [*BUNDLED, "matrix", "taxonomy", "splits"])
def test_malformed_row_names_kind_and_line(kind, fault, tmp_path, monkeypatch):
    read, text, column, error, prefix = table_case(kind, tmp_path, monkeypatch)
    read(text)  # the valid text reads
    with pytest.raises(error) as info:
        read(_fault(text, fault, column))
    message = str(info.value)
    where = f"{prefix} line 3, column {column!r}" if fault == "cell" else f"{prefix} line 3: "
    assert message.startswith(where), message
