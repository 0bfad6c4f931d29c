"""Bundled benchmark tables: loading, integrity, and spot values."""

import pytest

from mtl_affinity import paper_data as pd
from mtl_affinity.evaluation import SCORE_KINDS


def test_task_roster():
    assert pd.TASKS == ("SemSeg", "Keypts", "Edges", "Depth", "Normal")


def test_gain_matrix_spot_values():
    gain = pd.load_gain()
    assert gain.is_complete()
    # Edges improves 78.05% when partnered with Normal.
    assert gain.get("Normal", "Edges") == 78.05
    assert gain.get("SemSeg", "Keypts") == -11.81
    assert gain.get("Keypts", "SemSeg") == -6.70
    assert gain.get("Normal", "Depth") == -0.45


def test_taxonomy_distances():
    tax = pd.load_taxonomy()
    assert tax.tasks == pd.TASKS
    assert tax.is_complete()
    assert tax.get("SemSeg", "Keypts") == -8.0
    assert tax.get("Keypts", "SemSeg") == -8.0
    assert tax.get("Keypts", "Depth") == -12.0
    assert tax == pd.load_affinity("TD")


def test_affinity_matrices_load_and_mirror():
    matrices = pd.load_all_affinities()
    assert set(matrices) == set(SCORE_KINDS)
    for kind, m in matrices.items():
        assert m.tasks == pd.TASKS
        assert m.is_complete()
        if SCORE_KINDS[kind].symmetric:
            assert all(m.get(w, t) == m.get(t, w) for w, t in m.cells()), kind
    assert matrices["TD"].get("SemSeg", "Normal") == -5.0
    assert matrices["IAS"].get("Keypts", "Edges") == 0.52
    assert matrices["RSA"].get("Depth", "Normal") == 0.69
    assert matrices["LI"].get("Normal", "SemSeg") == 25.68  # asymmetric
    assert matrices["LI"].get("SemSeg", "Normal") == 3.70
    assert matrices["GS"].get("Depth", "Normal") == 8.40
    assert matrices["GT"].get("SemSeg", "Depth") == 1.69
    assert matrices["GT"].get("Depth", "SemSeg") == 0.47


def test_expected_level1_shape_and_flags():
    cells = pd.load_expected_level1()
    assert len(cells) == 36  # 6 scores x (5 targets + pooled)
    flagged = {(c.score, c.target) for c in cells if c.flag}
    assert flagged == {("IAS", "SemSeg"), ("IAS", "Keypts"), ("IAS", "Normal"),
                       ("RSA", "Edges"), ("RSA", "Depth"), ("LI", "SemSeg")}
    by_key = {(c.score, c.target): c for c in cells}
    assert by_key[("LI", "all_at_once")].paper == 0.47
    assert by_key[("LI", "SemSeg")].expectation() == (0.996766, pd.RECOMPUTED_TOL)
    assert by_key[("TD", "Depth")].expectation() == (0.90, pd.PAPER_TOL_CORRELATION)


def test_expected_level2_shape_and_flags():
    cells = pd.load_expected_level2()
    assert len(cells) == 36
    flagged = {(c.score, c.target) for c in cells if c.flag}
    assert flagged == {("TD", "SemSeg"), ("TD", "Normal"), ("TD", "average"),
                       ("IAS", "Depth"), ("IAS", "average"),
                       ("RSA", "SemSeg"), ("RSA", "average")}
    by_key = {(c.score, c.target): c for c in cells}
    assert by_key[("TD", "Depth")].paper == 1.0
    assert by_key[("GS", "average")].paper == 0.40
    assert by_key[("TD", "SemSeg")].recomputed == pytest.approx(0.182574)


def test_expected_level3_shape_and_ties():
    rows = pd.load_expected_level3()
    assert len(rows) == 30
    by_key = {(r.score, r.target): r for r in rows}
    flagged = {k for k, r in by_key.items() if r.flag}
    assert flagged == {("TD", "Normal"), ("RSA", "SemSeg")}
    td_tie = by_key[("TD", "Normal")]
    assert td_tie.tied == ("SemSeg", "Depth")
    assert td_tie.selected == "Depth"
    assert td_tie.paper_delta == -4.9  # published as the mean over the tie
    assert td_tie.recomputed_tied_mean == pytest.approx(-4.89)
    rsa_tie = by_key[("RSA", "SemSeg")]
    assert rsa_tie.tied == ("Depth", "Normal")
    assert rsa_tie.recomputed_delta == pytest.approx(-32.22)
    # every target's true best is shared across scores
    for t, best in [("SemSeg", "Normal"), ("Keypts", "Normal"), ("Edges", "Normal"),
                    ("Depth", "Normal"), ("Normal", "Edges")]:
        assert all(by_key[(k, t)].true_best == best for k in SCORE_KINDS)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        pd.load_affinity("XX")


def _with_cell(monkeypatch, name, with_task, target, cell):
    """Make the bundled file ``name`` read with one cell replaced by ``cell``."""
    original = pd._read_text

    def read_text(requested):
        text = original(requested)
        if requested != name:
            return text
        rows = [line.split(",") for line in text.splitlines()]
        rows[1 + pd.TASKS.index(with_task)][1 + pd.TASKS.index(target)] = cell
        return "".join(",".join(row) + "\n" for row in rows)

    monkeypatch.setattr(pd, "_read_text", read_text)


@pytest.mark.parametrize("kind", ["IAS", "RSA", "GS"])
def test_symmetric_csv_with_disagreeing_mirror_rejected(monkeypatch, kind):
    name = f"{kind.lower()}.csv"
    mirror = pd.load_affinity(kind).get("SemSeg", "Keypts")
    _with_cell(monkeypatch, name, "Keypts", "SemSeg", repr(mirror + 0.01))
    with pytest.raises(pd.BundledDataError, match=rf"{name}: .*conflicting"):
        pd.load_affinity(kind)


def test_bundled_taxonomy_is_read_and_checked_like_the_other_tables(monkeypatch):
    _with_cell(monkeypatch, "taxonomy_distances.csv", "Keypts", "SemSeg", "-7")
    for load in (pd.load_taxonomy, lambda: pd.load_affinity("TD")):
        with pytest.raises(pd.BundledDataError,
                           match="^taxonomy_distances.csv: taxonomy distances must be symmetric$"):
            load()


@pytest.mark.parametrize("outcome", [None, FileNotFoundError(2, "No such file")],
                         ids=["no_loader", "no_file"])
def test_unreadable_bundled_file_is_named(monkeypatch, outcome):
    def get_data(package, resource):
        if isinstance(outcome, OSError):
            raise outcome
        return outcome

    monkeypatch.setattr(pd.pkgutil, "get_data", get_data)
    with pytest.raises(pd.BundledDataError, match="bundled file 'gain.csv' is missing"):
        pd.load_gain()


@pytest.mark.parametrize("kind", ["IAS", "GS", "LI"])
def test_csv_with_blank_cell_rejected(monkeypatch, kind):
    name = f"{kind.lower()}.csv"
    _with_cell(monkeypatch, name, "Keypts", "SemSeg", "")
    with pytest.raises(pd.BundledDataError,
                       match=rf"{name} is missing cells: \[\('Keypts', 'SemSeg'\)\]"):
        pd.load_affinity(kind)
