"""Bundled five-task benchmark tables and their loaders.

The package ships the measured MTL gain matrix, the six raw affinity
matrices, and the expected evaluation tables for one fixed five-task
vision benchmark (SemSeg, Keypts, Edges, Depth, Normal). Expected cells
carry a flag when the published value is known not to be recomputable
from the bundled inputs:

* ``rounding``: the published correlation was computed on unrounded
  internal data; recomputing from the two-decimal tables shifts it by
  more than the display precision. The exact recomputed value is stored
  alongside and pinned instead.
* ``tie``: the score column contains tied values and the published
  tie handling is not recoverable; recomputed tau-b values (and both
  tie representations for best-partner rows) are stored alongside.

Every loader validates shape and consistency, so a corrupted bundle
fails loudly rather than skewing comparisons.
"""

from __future__ import annotations

import pkgutil
from dataclasses import dataclass

from .evaluation import SCORE_KINDS, MatrixAssemblyError, assemble_matrix, evaluate, lookup_kind
from .matrices import MatrixFormatError, TaskMatrix, optional_float, parse_taxonomy, read_table

__all__ = [
    "TASKS",
    "BundledDataError",
    "CheckRow",
    "ExpectedCell",
    "ExpectedSelection",
    "check_tables",
    "load_gain",
    "load_taxonomy",
    "load_affinity",
    "load_all_affinities",
    "load_expected_level1",
    "load_expected_level2",
    "load_expected_level3",
]

TASKS = ("SemSeg", "Keypts", "Edges", "Depth", "Normal")

# Published-minus-recomputed tolerance for unflagged cells: correlations
# are printed with two decimals, level-3 deltas with one.
PAPER_TOL_CORRELATION = 0.005
PAPER_TOL_DELTA = 0.05
RECOMPUTED_TOL = 1e-4


class BundledDataError(ValueError):
    """A bundled data file is missing, malformed, or inconsistent."""


def _read_text(name: str) -> str:
    try:
        data = pkgutil.get_data(__package__, f"data/{name}")
    except OSError as exc:
        raise BundledDataError(f"bundled file {name!r} is missing: {exc}") from exc
    if data is None:  # a loader that cannot read package data
        raise BundledDataError(f"bundled file {name!r} is missing: no loader reads it")
    return data.decode("utf-8")


def _check_tasks(name: str, tasks) -> None:
    if tuple(tasks) != TASKS:
        raise BundledDataError(f"{name}: task set {list(tasks)} does not match "
                               f"the benchmark set {list(TASKS)}")


def _load_matrix(name: str) -> TaskMatrix:
    """A complete bundled matrix over the benchmark tasks."""
    try:
        matrix = TaskMatrix.from_csv_text(_read_text(name))
    except ValueError as exc:
        raise BundledDataError(f"{name}: {exc}") from exc
    _check_tasks(name, matrix.tasks)
    if not matrix.is_complete():
        raise BundledDataError(f"{name} is missing cells: {matrix.missing_cells()}")
    return matrix


def load_gain() -> TaskMatrix:
    """The measured MTL gain matrix, in percent."""
    return _load_matrix("gain.csv")


def load_taxonomy() -> TaskMatrix:
    """The negated taxonomy tree distances between the five tasks."""
    name = "taxonomy_distances.csv"
    text = _read_text(name)
    try:
        tax = parse_taxonomy(text, name)
    except ValueError as exc:  # its message leads with the file name
        raise BundledDataError(str(exc)) from exc
    _check_tasks(name, tax.tasks)
    return tax


def load_affinity(score_kind: str) -> TaskMatrix:
    """One raw affinity matrix; TD is read from the taxonomy file.

    LI values are in percent and GS values are x100, exactly as published.
    Both are positive rescalings, which all three evaluation levels are
    invariant to (level-3 deltas are read from the gain matrix). The
    matrix goes through :func:`assemble_matrix`, so a symmetric kind whose
    mirror cells disagree is rejected.
    """
    lookup_kind(score_kind)
    if score_kind == "TD":
        name, matrix = "taxonomy_distances.csv", load_taxonomy()
    else:
        name = f"{score_kind.lower()}.csv"
        matrix = _load_matrix(name)
    try:
        return assemble_matrix(score_kind, TASKS, matrix.cells())
    except MatrixAssemblyError as exc:
        raise BundledDataError(f"{name}: {exc}") from exc


def load_all_affinities() -> dict[str, TaskMatrix]:
    return {kind: load_affinity(kind) for kind in SCORE_KINDS}


@dataclass(frozen=True)
class ExpectedCell:
    """One published correlation cell, optionally flagged as discrepant."""

    score: str
    target: str
    paper: float
    recomputed: float | None
    flag: str

    def expectation(self) -> tuple[float, float]:
        """(value to match, tolerance): pinned recomputation when flagged."""
        if self.flag:
            assert self.recomputed is not None
            return self.recomputed, RECOMPUTED_TOL
        return self.paper, PAPER_TOL_CORRELATION


@dataclass(frozen=True)
class ExpectedSelection:
    """One published best-partner cell with its tie bookkeeping."""

    score: str
    target: str
    selected: str
    tied: tuple[str, ...]
    true_best: str
    paper_delta: float
    recomputed_delta: float | None
    recomputed_tied_mean: float | None
    flag: str


def _parse_rows(name: str, columns: dict) -> list[list]:
    text = _read_text(name)
    try:
        return read_table(text, "expected table", columns)[1]
    except MatrixFormatError as exc:
        raise BundledDataError(f"{name}: {exc}") from exc


_EXPECTED_CELL_COLUMNS = {"score": str, "target": str, "paper": float,
                          "recomputed": optional_float, "flag": str}
_EXPECTED_LEVEL3_COLUMNS = {"score": str, "target": str, "selected": str, "tied": str,
                            "true_best": str, "paper_delta": float,
                            "recomputed_delta": optional_float,
                            "recomputed_tied_mean": optional_float, "flag": str}


def _load_expected_cells(name: str, summary: str) -> list[ExpectedCell]:
    out = []
    for score, target, paper, recomputed, flag in _parse_rows(name, _EXPECTED_CELL_COLUMNS):
        if score not in SCORE_KINDS:
            raise BundledDataError(f"{name}: unknown score {score!r}")
        if target not in (*TASKS, summary):
            raise BundledDataError(f"{name}: unknown target {target!r}")
        if flag and recomputed is None:
            raise BundledDataError(f"{name}: flagged cell ({score}, {target}) "
                                   f"needs a recomputed value")
        out.append(ExpectedCell(score=score, target=target, paper=paper,
                                recomputed=recomputed, flag=flag))
    return out


def load_expected_level1() -> list[ExpectedCell]:
    """Published per-target and pooled Pearson cells (target 'all_at_once')."""
    return _load_expected_cells("expected_level1.csv", "all_at_once")


def load_expected_level2() -> list[ExpectedCell]:
    """Published per-target and mean Kendall cells (target 'average')."""
    return _load_expected_cells("expected_level2.csv", "average")


def load_expected_level3() -> list[ExpectedSelection]:
    """Published best-partner selections with deltas in percent gain."""
    out = []
    for (score, target, selected, tied, true_best, paper_delta, rec_d, rec_m,
         flag) in _parse_rows("expected_level3.csv", _EXPECTED_LEVEL3_COLUMNS):
        if score not in SCORE_KINDS:
            raise BundledDataError(f"expected_level3.csv: unknown score {score!r}")
        tied_tuple = tuple(tied.split("|"))
        for name in (target, selected, true_best, *tied_tuple):
            if name not in TASKS:
                raise BundledDataError(f"expected_level3.csv: unknown task {name!r}")
        out.append(ExpectedSelection(
            score=score, target=target, selected=selected, tied=tied_tuple,
            true_best=true_best, paper_delta=paper_delta, recomputed_delta=rec_d,
            recomputed_tied_mean=rec_m, flag=flag))
    return out


@dataclass(frozen=True)
class CheckRow:
    """Outcome of re-deriving one published cell from the bundled inputs."""

    table: str
    score: str
    target: str
    detail: str
    flagged: bool
    ok: bool

    def line(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        tag = " [flagged known-discrepant]" if self.flagged else ""
        return f"{mark} {self.table} {self.score} x {self.target}: {self.detail}{tag}"


def check_tables() -> list[CheckRow]:
    """Re-derive every published evaluation cell and compare.

    Unflagged cells must match the published value within the display
    tolerance; flagged cells must match their pinned recomputation (and,
    for best-partner ties, the published delta under one of the two tie
    representations: lexicographic pick or tied-set mean).
    """
    gain = load_gain()
    reports = {kind: evaluate(gain, matrix)
               for kind, matrix in load_all_affinities().items()}

    rows = []
    for table, cells in (("level1", load_expected_level1()), ("level2", load_expected_level2())):
        for cell in cells:  # a target column, or the table's summary column
            result = getattr(reports[cell.score], table)
            got = result.per_target[cell.target] if cell.target in TASKS else result.summary
            want, tol = cell.expectation()
            rows.append(CheckRow(table, cell.score, cell.target,
                                 f"recomputed {got:.6f}, expected {want} within {tol}",
                                 bool(cell.flag), abs(got - want) <= tol))
    for exp in load_expected_level3():
        got = reports[exp.score].level3[exp.target]
        checks = [got.selected == exp.selected, got.tied == exp.tied,
                  got.true_best == exp.true_best]
        if exp.flag:
            checks.append(abs(got.delta - exp.recomputed_delta) <= RECOMPUTED_TOL)
            checks.append(abs(got.delta_tied_mean - exp.recomputed_tied_mean)
                          <= RECOMPUTED_TOL)
            checks.append(min(abs(got.delta - exp.paper_delta),
                              abs(got.delta_tied_mean - exp.paper_delta))
                          <= PAPER_TOL_DELTA)
        else:
            checks.append(abs(got.delta - exp.paper_delta) <= PAPER_TOL_DELTA)
        detail = (f"selected {got.selected} (delta {got.delta:.2f}), expected "
                  f"{exp.selected} (delta {exp.paper_delta} within {PAPER_TOL_DELTA})")
        rows.append(CheckRow("level3", exp.score, exp.target, detail,
                             bool(exp.flag), all(checks)))
    return rows
