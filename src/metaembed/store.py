"""Embedding tables and their on-disk text formats.

Two table kinds cover everything the combiners consume:

* vector table: one fixed-width vector per id.  File format is a header
  line ``N D`` followed by N rows ``id v1 ... vD``.
* sequence table: one (S, D) matrix per id, e.g. the token embeddings of a
  sentence.  File format is a header line ``N D`` followed by N blocks,
  each a line ``#id S`` and then S rows of D values.

Values are separated by single spaces; ids are arbitrary non-empty
strings without whitespace.  Encoding, line ends, number format and atomic
writes follow :mod:`metaembed.textio`.  Parse failures raise
:class:`FileFormatError` carrying the path and the 1-based line number.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .linalg import as_matrix
from .textio import (
    fmt_row,
    keyed_values,
    parse_block,
    parse_values,
    read_lines,
    row_format,
    truncated,
    write_lines,
)

__all__ = [
    "EmbeddingTable",
    "SequenceTable",
    "load_vector_table",
    "save_vector_table",
    "load_sequence_table",
    "save_sequence_table",
    "sniff_table_kind",
    "load_table",
    "intersect_ids",
    "AlignedViews",
    "align_by_id",
    "sequence_views",
]


def _check_ids(ids) -> tuple[str, ...]:
    out = tuple(ids)
    seen = set()
    for i, ident in enumerate(out):
        if not isinstance(ident, str) or not ident:
            raise ValidationError(f"id at position {i} is empty or not a string")
        if ident.split() != [ident]:
            raise ValidationError(f"id {ident!r} contains whitespace")
        if ident in seen:
            raise ValidationError(f"duplicate id {ident!r}")
        seen.add(ident)
    return out


class EmbeddingTable:
    """An ordered id -> vector mapping backed by one (N, D) float64 matrix.

    The table holds a copy of *vectors*; with ``copy=False`` it holds an array
    that is already a C-ordered float64 matrix as is, for callers handing over
    an array they have just built.
    """

    KIND = "vector-table"

    def __init__(self, ids, vectors, *, copy: bool = True):
        self.vectors = as_matrix(vectors, "vectors", copy=copy)
        self.ids = _check_ids(ids)
        if len(self.ids) != self.vectors.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids for {self.vectors.shape[0]} vector rows"
            )
        self._index = {ident: i for i, ident in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, ident) -> bool:
        return ident in self._index

    def index(self, ident: str) -> int:
        try:
            return self._index[ident]
        except KeyError:
            raise ValidationError(f"unknown embedding id {ident!r}") from None

    def indices(self, ids) -> np.ndarray:
        """Row index of each of *ids*, in order."""
        ids = list(ids)
        return np.fromiter((self.index(i) for i in ids), dtype=np.intp, count=len(ids))

    def row(self, ident: str) -> np.ndarray:
        return self.vectors[self.index(ident)]

    def lookup(self, ids) -> np.ndarray:
        """Rows for *ids*, in order, as a new (len(ids), D) matrix."""
        ids = list(ids)
        missing = [i for i in ids if i not in self._index]
        if missing:
            shown = ", ".join(repr(m) for m in missing[:5])
            more = "" if len(missing) <= 5 else f" (and {len(missing) - 5} more)"
            raise ValidationError(f"unknown embedding id(s): {shown}{more}")
        rows = np.fromiter((self._index[i] for i in ids), dtype=np.intp, count=len(ids))
        return self.vectors[rows]

    def describe(self) -> list[str]:
        """The ``info`` lines after the kind line."""
        return [f"rows {len(self)}", f"dim {self.dim}"]


class SequenceTable:
    """An ordered id -> (S, D) matrix mapping; all matrices share D."""

    KIND = "sequence-table"

    def __init__(self, ids, matrices):
        self.ids = _check_ids(ids)
        mats = [as_matrix(m, f"sequence {ident!r}") for ident, m in zip(self.ids, matrices)]
        if len(self.ids) != len(mats):
            raise ValidationError(f"{len(self.ids)} ids for {len(mats)} sequences")
        if not mats:
            raise ValidationError("sequence table must contain at least one sequence")
        dims = {m.shape[1] for m in mats}
        if len(dims) != 1:
            raise ValidationError(f"sequences have mixed widths: {sorted(dims)}")
        self.matrices = mats
        self._index = {ident: i for i, ident in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, ident) -> bool:
        return ident in self._index

    def lookup(self, ident: str) -> np.ndarray:
        try:
            return self.matrices[self._index[ident]]
        except KeyError:
            raise ValidationError(f"unknown sequence id {ident!r}") from None

    def describe(self) -> list[str]:
        """The ``info`` lines after the kind line."""
        return [f"rows {len(self)}", f"dim {self.dim}",
                f"total_steps {sum(m.shape[0] for m in self.matrices)}"]

    @classmethod
    def from_vector_table(cls, table: EmbeddingTable) -> "SequenceTable":
        """View each vector as a length-1 sequence."""
        return cls(table.ids, [table.vectors[i : i + 1] for i in range(len(table))])


def _parse_header(lines: list[str], path) -> tuple[int, int]:
    if not lines or not lines[0].strip():
        raise FileFormatError(path, 1, "empty file; expected header 'N D'")
    tokens = lines[0].split()
    if len(tokens) != 2:
        raise FileFormatError(path, 1, f"expected header 'N D', got {lines[0]!r}")
    try:
        n, d = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise FileFormatError(path, 1, f"expected header 'N D', got {lines[0]!r}") from None
    if n < 1 or d < 1:
        raise FileFormatError(path, 1, f"header counts must be positive, got {n} {d}")
    return n, d


def _check_trailing(lines: list[str], used: int, path) -> None:
    for extra in range(used, len(lines)):
        if lines[extra].strip():
            raise FileFormatError(path, extra + 1, "unexpected content after the declared rows")


def _bulk_rows(lines: list[str], n: int, d: int):
    """(ids, rows) of the *n* data rows if they are plain and their ids distinct, else None."""
    bulk = keyed_values(lines[1 : 1 + n], d) if len(lines) > n else None
    return bulk if bulk is not None and len(set(bulk[0])) == n else None


def load_vector_table(path) -> EmbeddingTable:
    """Parse a vector table file.

    Plainly laid-out rows are parsed in bulk; any other file goes through the
    per-line parser, which accepts it or names the line at fault.
    """
    lines = read_lines(path)
    n, d = _parse_header(lines, path)
    bulk = _bulk_rows(lines, n, d)
    if bulk is not None:
        _check_trailing(lines, 1 + n, path)
        return EmbeddingTable(*bulk, copy=False)
    ids: list[str] = []
    rows = np.empty((n, d), dtype=np.float64)
    seen: set[str] = set()
    for i in range(n):
        lineno = 2 + i
        if lineno > len(lines):
            raise truncated(path, lines, f"expected {n} data rows")
        tokens = lines[lineno - 1].split()
        if not tokens:
            raise FileFormatError(path, lineno, "unexpected blank line")
        ident = tokens[0]
        if ident in seen:
            raise FileFormatError(path, lineno, f"duplicate id {ident!r}")
        seen.add(ident)
        rows[i] = parse_values(tokens[1:], d, path, lineno)
        ids.append(ident)
    _check_trailing(lines, 1 + n, path)
    if not np.all(np.isfinite(rows)):
        bad = int(np.argwhere(~np.isfinite(rows).all(axis=1))[0, 0])
        raise FileFormatError(path, 2 + bad, "non-finite value")
    return EmbeddingTable(ids, rows, copy=False)


def save_vector_table(path, table: EmbeddingTable) -> None:
    """Write *table* in the vector table format (17 significant digits)."""
    row = "%s " + row_format(table.dim)
    out = [f"{len(table)} {table.dim}"]
    out += [row % (ident, *values) for ident, values in zip(table.ids, table.vectors.tolist())]
    write_lines(path, out)


def load_sequence_table(path) -> SequenceTable:
    """Parse a sequence table file."""
    lines = read_lines(path)
    n, d = _parse_header(lines, path)
    ids: list[str] = []
    mats: list[np.ndarray] = []
    seen: set[str] = set()
    cursor = 2  # 1-based line number of the next unread line
    for _ in range(n):
        if cursor > len(lines):
            raise truncated(path, lines, f"expected {n} sequence blocks")
        tokens = lines[cursor - 1].split()
        if len(tokens) != 2 or not tokens[0].startswith("#"):
            raise FileFormatError(path, cursor, f"expected block header '#id S', got {lines[cursor - 1]!r}")
        ident = tokens[0][1:]
        if not ident:
            raise FileFormatError(path, cursor, "empty id in block header")
        if ident in seen:
            raise FileFormatError(path, cursor, f"duplicate id {ident!r}")
        seen.add(ident)
        try:
            steps = int(tokens[1])
        except ValueError:
            raise FileFormatError(path, cursor, f"expected integer row count, got {tokens[1]!r}") from None
        if steps < 1:
            raise FileFormatError(path, cursor, f"sequence length must be positive, got {steps}")
        mat = parse_block(lines, cursor + 1, steps, d, path, ident)
        cursor += 1 + steps
        ids.append(ident)
        mats.append(mat)
    _check_trailing(lines, cursor - 1, path)
    return SequenceTable(ids, mats)


def save_sequence_table(path, table: SequenceTable) -> None:
    """Write *table* in the sequence table format (17 significant digits)."""
    out = [f"{len(table)} {table.dim}"]
    for ident, mat in zip(table.ids, table.matrices):
        out.append(f"#{ident} {mat.shape[0]}")
        for row in mat:
            out.append(fmt_row(row))
    write_lines(path, out)


def sniff_table_kind(path) -> str:
    """Return ``"sequence"`` if the first data line is a block header, else ``"vector"``."""
    lines = read_lines(path, limit=2)
    _parse_header(lines, path)
    if len(lines) < 2:
        raise truncated(path, lines, "expected at least one data row")
    first = lines[1].split()
    if first and first[0].startswith("#"):
        return "sequence"
    return "vector"


def load_table(path) -> EmbeddingTable | SequenceTable:
    """Parse a vector or sequence table, whichever :func:`sniff_table_kind` finds."""
    return (load_sequence_table if sniff_table_kind(path) == "sequence" else load_vector_table)(path)


def intersect_ids(tables) -> list[str]:
    """Ids present in every table, sorted.

    Sorting (rather than keeping any one table's order) makes the aligned
    row order independent of the order the tables are passed in, so every
    downstream fit is reproducible across runs and platforms.
    """
    tables = list(tables)
    if not tables:
        raise ValidationError("need at least one table")
    shared = set(tables[0].ids)
    for t in tables[1:]:
        shared &= set(t.ids)
    return sorted(shared)


class AlignedViews(NamedTuple):
    """Row-aligned matrices over a sorted shared id list.

    ``dropped[i]`` counts the ids of table i that fell out of the
    intersection, so ``len(tables[i]) - len(ids) == dropped[i]``.
    """

    ids: list
    views: list
    dropped: tuple

    def __iter__(self):
        # unpacking as ``ids, views = align_by_id(...)`` stays supported
        return iter((self.ids, self.views))


def align_by_id(tables) -> AlignedViews:
    """Row-align several tables over the sorted intersection of their ids.

    Returns one (len(ids), D_i) matrix per table, rows in id order.  An
    empty intersection is an error that reports every table's size, since
    the usual cause is tables keyed by different id schemes.
    """
    tables = list(tables)
    ids = intersect_ids(tables)
    if not ids:
        sizes = ", ".join(str(len(t)) for t in tables)
        raise ValidationError(
            f"no shared ids across the {len(tables)} table(s) (sizes: {sizes})"
        )
    dropped = tuple(len(t) - len(ids) for t in tables)
    return AlignedViews(ids, [t.lookup(ids) for t in tables], dropped)


def sequence_views(tables, ident: str) -> list[np.ndarray]:
    """Per-source token matrices for one sequence id, validated to align.

    Every table must contain *ident* and the sequences must agree on length
    (token positions correspond across sources).
    """
    views = [t.lookup(ident) for t in tables]
    lengths = {v.shape[0] for v in views}
    if len(lengths) != 1:
        raise ValidationError(
            f"sequence {ident!r} has mismatched lengths across sources: {sorted(lengths)}"
        )
    return views
