"""Pairwise task matrices and their CSV interchange format.

A :class:`TaskMatrix` stores one number per ordered pair of distinct
tasks. Rows are the partner task (the "with" task), columns the target:
cell (b, a) answers "what is the value for target a when paired with b".
Symmetric scores simply store equal (a, b) and (b, a) cells. Diagonal
cells do not exist; pairing a task with itself is meaningless here.

The CSV layout mirrors that: header ``with,<task1>,...``, one row per
partner, diagonal cells left empty. Values are written with ``repr`` so a
write/read round trip is exact.

Every CSV text table of the package goes through the table codec here.
Matrices, reports and suite splits are written with :func:`write_table`;
the tables the package reads (matrices, the bundled tables, suite splits
and the taxonomy, :func:`parse_taxonomy`) go through the checked
:func:`read_table`. Reports are written only, never read back. Only
:meth:`TaskMatrix.as_array` loads numpy, so reading a table needs none.
The package's one number rule is here too: :func:`integer` takes any integer
type but a bool, :func:`real` any real number but a bool or a string; each
returns a plain int or float or raises ValueError naming the argument.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TaskMatrix", "MatrixFormatError", "MissingCellError", "integer", "optional_float",
           "parse_taxonomy", "read_table", "real", "write_table"]


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
        v = real(f"cell {key}", value)
        if not math.isfinite(v):
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

    def as_array(self) -> np.ndarray:
        """Dense array in task order; the diagonal is NaN."""
        import numpy as np
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
        return write_table([["with", *self.tasks],
                            *([w, *(self._cells.get((w, t)) for t in self.tasks)]
                              for w in self.tasks)])

    @classmethod
    def from_csv_text(cls, text: str) -> "TaskMatrix":
        header, rows = read_table(text, "matrix", {"with": str, "*": optional_float})
        tasks = header[1:]
        labels = [row[0] for row in rows]
        if labels != tasks:
            raise MatrixFormatError(f"matrix: row labels {labels} must match header {tasks}")
        try:  # a blank cell is absent (partial matrix); set() rejects the diagonal
            return cls(tasks, {(w, t): v for w, *values in rows
                               for t, v in zip(tasks, values) if v is not None})
        except ValueError as exc:
            raise MatrixFormatError(f"matrix: {exc}") from exc


# --- the number rule and the table codec ---


def integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int (numpy's integers too); a bool, a non-integer or one
    below ``minimum`` raises ValueError naming ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def real(name: str, value) -> float:
    """``value`` as a plain float (integers and numpy's reals too); a bool or a non-real (a
    numeric string too) raises ValueError naming ``name``. A plain float skips the ABC check."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def optional_float(cell: str) -> float | None:
    """A float cell that may be left blank (None)."""
    return float(cell) if cell.strip() else None


def write_table(rows: Iterable[Sequence]) -> str:
    """CSV text, one line per row; a float as its ``repr`` (exact), None as empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def read_table(text: str, kind: str, columns: Mapping[str, Callable[[str], object]],
               ) -> tuple[list[str], list[list]]:
    """The header and the typed rows of a CSV table; blank lines are skipped.

    ``columns`` maps each header cell, in order, to the parser of its column;
    a ``"*"`` key stands for any number of columns parsed alike. A wrong
    header, a row whose cell count differs from the header's, or a cell its
    parser rejects raises MatrixFormatError naming ``kind``, the 1-based
    line and, for a cell, its column. A table read from a file the user
    names passes ``"<path>: <kind>"`` as ``kind``, so the message leads
    with the file.
    """
    reader = csv.reader(io.StringIO(text))
    # An empty text reads as an empty header on line 1.
    (line, header), *rows = [(reader.line_num, row) for row in reader if row] or [(1, [])]
    names, parsers = list(columns), list(columns.values())
    if "*" in columns:
        i, n = names.index("*"), len(header) - len(names) + 1
        if n >= 0:
            names[i:i + 1], parsers[i:i + 1] = header[i:i + n], [columns["*"]] * n
    if header != names:
        raise MatrixFormatError(f"{kind} line {line}: header must be {list(columns)}, "
                                f"got {header}")
    out = []
    for line, row in rows:
        if len(row) != len(header):
            raise MatrixFormatError(f"{kind} line {line}: {len(row)} cells, "
                                    f"header has {len(header)}")
        cells = []
        for name, parse, cell in zip(header, parsers, row):
            try:
                cells.append(parse(cell))
            except ValueError:
                raise MatrixFormatError(f"{kind} line {line}, column {name!r}: "
                                        f"cannot read {cell!r}") from None
        out.append(cells)
    return header, out


def parse_taxonomy(text: str, source: str) -> TaskMatrix:
    """The off-diagonal cells of a taxonomy CSV text: ``task,<task1>,...``, a row per task.

    Mislabeled rows, non-finite or asymmetric values, a nonzero diagonal or
    a positive off-diagonal entry raise ValueError, and a malformed row
    MatrixFormatError, each led by ``source``.
    """
    header, rows = read_table(text, f"{source}: taxonomy", {"task": str, "*": float})
    tasks = tuple(header[1:])
    labels = tuple(row[0] for row in rows)
    values = [row[1:] for row in rows]  # square once the labels match the header
    if len(tasks) < 2 or len(set(tasks)) != len(tasks):
        problem = f"taxonomy needs two or more distinct task names, got {list(tasks)}"
    elif labels != tasks:
        problem = f"rows are labeled {list(labels)}, expected {list(tasks)}"
    elif not all(math.isfinite(v) for row in values for v in row):
        problem = "taxonomy distances must be finite"
    elif any(v != values[j][i] for i, row in enumerate(values) for j, v in enumerate(row)):
        problem = "taxonomy distances must be symmetric"
    elif any(row[i] != 0.0 for i, row in enumerate(values)):
        problem = "taxonomy diagonal must be 0"
    elif any(v > 0.0 for row in values for v in row):
        problem = "off-diagonal taxonomy values must be <= 0 (negated distances)"
    else:
        return TaskMatrix(tasks, {(w, t): v for w, *row in rows
                                  for t, v in zip(tasks, row) if w != t})
    raise ValueError(f"{source}: {problem}")
