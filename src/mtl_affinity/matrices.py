"""Pairwise task matrices and their CSV interchange format.

A :class:`TaskMatrix` stores one number per ordered pair of distinct
tasks. Rows are the partner task (the "with" task), columns the target:
cell (b, a) answers "what is the value for target a when paired with b".
Symmetric scores simply store equal (a, b) and (b, a) cells. Diagonal
cells do not exist; pairing a task with itself is meaningless here.

The CSV layout mirrors that: header ``with,<task1>,...``, one row per
partner, diagonal cells left empty. Values are written with ``repr`` so a
write/read round trip is exact.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping

import numpy as np

__all__ = ["TaskMatrix", "MatrixFormatError", "MissingCellError"]


class MatrixFormatError(ValueError):
    """A serialized matrix does not follow the expected layout."""


class MissingCellError(KeyError):
    """A required (with, target) cell has not been filled in."""


def _check_tasks(tasks: Iterable[str]) -> tuple[str, ...]:
    names = tuple(tasks)
    if len(names) < 2:
        raise ValueError(f"need at least 2 tasks, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names in {names}")
    for t in names:
        if not isinstance(t, str) or not t:
            raise ValueError(f"task names must be non-empty strings, got {t!r}")
    return names


class TaskMatrix:
    """Off-diagonal matrix of per-pair values, keyed (with_task, target)."""

    def __init__(self, tasks: Iterable[str],
                 values: Mapping[tuple[str, str], float] | None = None):
        self.tasks = _check_tasks(tasks)
        self._cells: dict[tuple[str, str], float] = {}
        if values:
            for (w, t), v in values.items():
                self.set(w, t, v)

    def _check_pair(self, with_task: str, target: str) -> tuple[str, str]:
        for name in (with_task, target):
            if name not in self.tasks:
                raise KeyError(f"unknown task {name!r}; tasks are {list(self.tasks)}")
        if with_task == target:
            raise ValueError(f"diagonal cell ({target!r}, {target!r}) does not exist")
        return with_task, target

    def set(self, with_task: str, target: str, value: float) -> None:
        key = self._check_pair(with_task, target)
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"cell {key} must be finite, got {value}")
        self._cells[key] = v

    def get(self, with_task: str, target: str) -> float:
        key = self._check_pair(with_task, target)
        if key not in self._cells:
            raise MissingCellError(f"cell (with={with_task!r}, target={target!r}) is empty")
        return self._cells[key]

    def has(self, with_task: str, target: str) -> bool:
        return self._check_pair(with_task, target) in self._cells

    def is_complete(self) -> bool:
        return len(self._cells) == len(self.tasks) * (len(self.tasks) - 1)

    def cells(self) -> dict[tuple[str, str], float]:
        """The filled cells, keyed (with_task, target)."""
        return dict(self._cells)

    def missing_cells(self) -> list[tuple[str, str]]:
        return [(w, t) for w in self.tasks for t in self.tasks
                if w != t and (w, t) not in self._cells]

    def column(self, target: str) -> list[tuple[str, float]]:
        """(partner, value) for one target, partners in canonical task order."""
        if target not in self.tasks:
            raise KeyError(f"unknown task {target!r}; tasks are {list(self.tasks)}")
        return [(w, self.get(w, target)) for w in self.tasks if w != target]

    def is_symmetric(self, tol: float = 0.0) -> bool:
        return all(abs(self.get(a, b) - self.get(b, a)) <= tol
                   for i, a in enumerate(self.tasks) for b in self.tasks[i + 1:])

    def as_array(self) -> np.ndarray:
        """Dense array in task order; the diagonal is NaN."""
        n = len(self.tasks)
        out = np.full((n, n), np.nan)
        for (w, t), v in self._cells.items():
            out[self.tasks.index(w), self.tasks.index(t)] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskMatrix):
            return NotImplemented
        return self.tasks == other.tasks and self._cells == other._cells

    def __repr__(self) -> str:
        return f"TaskMatrix(tasks={list(self.tasks)}, filled={len(self._cells)})"

    # --- CSV ---

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["with", *self.tasks])
        for w in self.tasks:
            row: list[str] = [w]
            for t in self.tasks:
                if w == t:
                    row.append("")
                else:
                    row.append("" if (w, t) not in self._cells else repr(self._cells[(w, t)]))
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "TaskMatrix":
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r]
        if not rows:
            raise MatrixFormatError("empty matrix file")
        header = rows[0]
        if not header or header[0] != "with":
            raise MatrixFormatError(f"first header cell must be 'with', got {header[:1]}")
        tasks = _check_tasks(header[1:])
        if len(rows) - 1 != len(tasks):
            raise MatrixFormatError(f"expected {len(tasks)} data rows, got {len(rows) - 1}")
        matrix = cls(tasks)
        for row in rows[1:]:
            if len(row) != len(tasks) + 1:
                raise MatrixFormatError(f"row {row[:1]} has {len(row) - 1} cells, expected {len(tasks)}")
            w = row[0]
            if w not in tasks:
                raise MatrixFormatError(f"row label {w!r} is not in the header tasks")
            for t, cell in zip(tasks, row[1:]):
                if w == t:
                    if cell.strip() != "":
                        raise MatrixFormatError(f"diagonal cell for {t!r} must be empty, got {cell!r}")
                    continue
                if cell.strip() == "":
                    continue  # legitimately absent (partial matrix)
                try:
                    matrix.set(w, t, float(cell))
                except ValueError as exc:
                    raise MatrixFormatError(f"cell ({w!r}, {t!r}): {exc}") from exc
        row_labels = [r[0] for r in rows[1:]]
        if row_labels != list(tasks):
            raise MatrixFormatError(f"row order {row_labels} must match header order {list(tasks)}")
        return matrix
