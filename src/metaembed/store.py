"""Embedding tables and their on-disk text formats.

Two table kinds cover everything the combiners consume:

* vector table: one fixed-width vector per id.  File format is a header
  line ``N D`` followed by N rows ``id v1 ... vD``.
* sequence table: one (S, D) matrix per id, e.g. the token embeddings of a
  sentence.  File format is a header line ``N D`` followed by N blocks,
  each a line ``#id S`` and then S rows of D values.

Values are separated by single spaces; ids are arbitrary non-empty
strings without whitespace.  Encoding, line ends, number format and atomic
writes follow :mod:`metaembed.textio`.  A reader walks its file once through
:class:`~metaembed.textio.Lines`, and :func:`~metaembed.textio.read_rows`
parses the rows of values a chunk at a time into the table's one array.
Parse failures raise :class:`FileFormatError` carrying the path and the
1-based line number.

A vector table is parsed once per content: :func:`load_vector_table` keeps
each parsed table in a cache directory, keyed by the sha256 of the bytes it
parsed, and a later load of the same bytes reads the arrays from there
instead of the text.  The directory is ``$METAEMBED_CACHE``, by default
``${XDG_CACHE_HOME:-~/.cache}/metaembed``.  An entry that is missing or
fails a check is a miss, a directory that cannot be written means no
caching, and neither shows in any output.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .errors import FileFormatError, ValidationError
from .linalg import as_matrix
from .textio import (
    Lines,
    check_trailing,
    file_digest,
    read_rows,
    refuse_pipe,
    replace_file,
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
    "align_by_id",
    "sequence_views",
]


def _indexed(ids) -> tuple[tuple[str, ...], dict[str, int]]:
    """*ids* as a tuple, and the position of each; they must be distinct non-empty strings without whitespace."""
    out, index = tuple(ids), {}
    for i, ident in enumerate(out):
        if not isinstance(ident, str) or not ident:
            raise ValidationError(f"id at position {i} is empty or not a string")
        if ident.split() != [ident]:
            raise ValidationError(f"id {ident!r} contains whitespace")
        if index.setdefault(ident, i) != i:
            raise ValidationError(f"duplicate id {ident!r}")
    return out, index


class EmbeddingTable:
    """An ordered id -> vector mapping backed by one (N, D) float64 matrix.

    The table adopts *vectors* when it is already a C-ordered float64 matrix
    (see :func:`~metaembed.linalg.as_matrix`) and never writes into it; a
    caller that goes on writing into the array hands the table a copy.  *digest*
    is the sha256 of the file the table was read from, None for one built in memory.
    """

    KIND = "vector-table"

    def __init__(self, ids, vectors, digest: str | None = None):
        self.vectors, self.digest = as_matrix(vectors, "vectors"), digest
        self.ids, self._index = _indexed(ids)
        if len(self.ids) != self.vectors.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids for {self.vectors.shape[0]} vector rows"
            )

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
    """An ordered id -> (S, D) matrix mapping, D shared; adopts each matrix, and has a digest, as EmbeddingTable."""

    KIND = "sequence-table"

    def __init__(self, ids, matrices, digest: str | None = None):
        self.ids, self._index = _indexed(ids)
        self.digest = digest
        matrices = list(matrices)
        if len(self.ids) != len(matrices):
            raise ValidationError(f"{len(self.ids)} ids for {len(matrices)} sequences")
        self.matrices = [as_matrix(m, f"sequence {ident!r}") for ident, m in zip(self.ids, matrices)]
        if not self.matrices:
            raise ValidationError("sequence table must contain at least one sequence")
        dims = {m.shape[1] for m in self.matrices}
        if len(dims) != 1:
            raise ValidationError(f"sequences have mixed widths: {sorted(dims)}")

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
        return cls(table.ids, [table.vectors[i : i + 1] for i in range(len(table))], table.digest)


def _parse_header(line: str | None, path) -> tuple[int, int]:
    if not line or not line.strip():
        raise FileFormatError(path, 1, "empty file; expected header 'N D'")
    tokens = line.split()
    if len(tokens) != 2:
        raise FileFormatError(path, 1, f"expected header 'N D', got {line!r}")
    try:
        n, d = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise FileFormatError(path, 1, f"expected header 'N D', got {line!r}") from None
    if n < 1 or d < 1:
        raise FileFormatError(path, 1, f"header counts must be positive, got {n} {d}")
    return n, d


def load_vector_table(path) -> EmbeddingTable:
    """Parse a vector table file, or read the same table from the cache if its bytes were parsed before."""
    table = _cached_vector_table(path)
    if table is None:
        with Lines(path) as lines:
            n, d = _parse_header(lines.line(), path)
            table = EmbeddingTable(*read_rows(lines, n, d, path, keyed=True), lines.digest())  # read to the end
        _cache_vector_table(table)
    return table


# names an entry's layout and the reader's rules; change it whenever either changes
_CACHE_TAG = "vector-table-1"


def _cache_entry(digest: str) -> str:
    """The path of the entry for bytes of sha256 *digest*; an OSError when there is no cache directory."""
    root = os.environ.get("METAEMBED_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):  # a relative XDG_CACHE_HOME, or a home that is unknown: no caching
            raise FileNotFoundError("no cache directory")
        root = os.path.join(base, "metaembed")
    return os.path.join(root, f"{digest}.{_CACHE_TAG}.npy")


def _cached_vector_table(path) -> EmbeddingTable | None:
    """The table cached for the bytes of *path*, or None if there is none or it fails a check.

    Only a regular file is looked up: hashing a pipe would consume what the parse is to read.
    """
    try:
        if not os.path.isfile(path):
            return None
        digest = file_digest(path)
        with open(_cache_entry(digest), "rb") as f:
            values = np.load(f, allow_pickle=False)
            ids = np.load(f, allow_pickle=False)
            if f.read(1):
                return None
        if values.dtype != np.float64 or ids.dtype != np.uint8 or ids.ndim != 1:
            return None
        return EmbeddingTable(ids.tobytes().decode("utf-8").split("\n"), values, digest)
    except (OSError, EOFError, ValueError, ValidationError):
        return None


def _cache_vector_table(table: EmbeddingTable) -> None:
    """Write the cache entry of *table*, keyed by the digest of the bytes it was parsed from: its
    values, then its ids as UTF-8 joined by LF; an entry that cannot be written is left out."""
    ids = np.frombuffer("\n".join(table.ids).encode("utf-8"), dtype=np.uint8)

    def write(f):
        np.save(f, table.vectors, allow_pickle=False)
        np.save(f, ids, allow_pickle=False)

    try:
        entry = _cache_entry(table.digest)
        os.makedirs(os.path.dirname(entry), mode=0o700, exist_ok=True)
        replace_file(entry, write, 0o600)
    except (OSError, ValidationError):
        pass


def save_vector_table(path, table: EmbeddingTable) -> None:
    """Write *table* in the vector table format (17 significant digits), one row formatted at a time."""
    row = "%s " + row_format(table.dim)
    rows = (row % (ident, *values.tolist()) for ident, values in zip(table.ids, table.vectors))
    write_lines(path, itertools.chain([f"{len(table)} {table.dim}"], rows))


def load_sequence_table(path) -> SequenceTable:
    """Parse a sequence table file.

    Each block header is checked as it is reached, and the rows of all the
    blocks are parsed a chunk at a time into one array, whose blocks the table
    holds as views.  A fault in a header is raised once the rows before it are
    parsed, so that the first fault in the file is the one named.
    """
    with Lines(path) as lines:
        n, d = _parse_header(lines.line(), path)
        steps, faults = {}, []
        values = read_rows(lines, _blocks(lines, n, steps, faults, path), d, path)
        if faults:
            raise faults[0]
        check_trailing(lines)
        return SequenceTable(steps, np.split(values, np.cumsum(list(steps.values()))[:-1]), lines.digest())


def _blocks(lines: Lines, n: int, steps: dict, faults: list, path):
    """The id and row count of each of the *n* blocks, also put in *steps*, each header checked when
    it is the next line.  A faulty header ends the blocks, and its error goes into *faults*, to be
    raised once the rows before it are parsed; an undecodable byte is raised at once."""
    for _ in range(n):
        line = lines.line()
        try:
            if line is None:
                raise truncated(path, lines.count, f"expected {n} sequence blocks")
            tokens = line.split()
            if len(tokens) != 2 or not tokens[0].startswith("#"):
                raise FileFormatError(path, lines.count, f"expected block header '#id S', got {line!r}")
            ident = tokens[0][1:]
            if not ident:
                raise FileFormatError(path, lines.count, "empty id in block header")
            if ident in steps:
                raise FileFormatError(path, lines.count, f"duplicate id {ident!r}")
            try:
                count = int(tokens[1])
            except ValueError:
                raise FileFormatError(path, lines.count, f"expected integer row count, got {tokens[1]!r}") from None
            if count < 1:
                raise FileFormatError(path, lines.count, f"sequence length must be positive, got {count}")
        except FileFormatError as exc:
            faults.append(exc)
            return
        steps[ident] = count
        yield ident, count


def save_sequence_table(path, table: SequenceTable) -> None:
    """Write *table* in the sequence table format (17 significant digits), one row formatted at a time."""
    row = row_format(table.dim)
    blocks = (itertools.chain([f"#{ident} {mat.shape[0]}"], (row % tuple(values.tolist()) for values in mat))
              for ident, mat in zip(table.ids, table.matrices))
    write_lines(path, itertools.chain([f"{len(table)} {table.dim}"], itertools.chain.from_iterable(blocks)))


def sniff_table_kind(path) -> str:
    """``"sequence"`` if the first data row is ``#id S`` (S all digits at D = 1), else ``"vector"``."""
    refuse_pipe(path)
    with Lines(path) as lines:
        d = _parse_header(lines.line(), path)[1]
        first = lines.line()
        if first is None:
            raise truncated(path, lines.count, "expected at least one data row")
    first = first.split()
    if len(first) == 2 and first[0].startswith("#") and (d > 1 or first[1].isdecimal()):
        return "sequence"
    return "vector"


def load_table(path) -> EmbeddingTable | SequenceTable:
    """Parse a vector or sequence table, whichever :func:`sniff_table_kind` finds."""
    return (load_sequence_table if sniff_table_kind(path) == "sequence" else load_vector_table)(path)


def intersect_ids(tables) -> list[str]:
    """Ids present in every table, sorted.

    Sorting (rather than keeping any one table's order) makes the aligned
    row order independent of the order the tables are passed in, so every
    downstream fit is reproducible across runs and platforms.  An empty
    intersection is an error that reports every table's size, since the
    usual cause is tables keyed by different id schemes.
    """
    tables = list(tables)
    if not tables:
        raise ValidationError("need at least one table")
    shared = set(tables[0].ids)
    for t in tables[1:]:
        shared &= set(t.ids)
    if not shared:
        sizes = ", ".join(str(len(t)) for t in tables)
        raise ValidationError(f"no shared ids across the {len(tables)} table(s) (sizes: {sizes})")
    return sorted(shared)


def align_by_id(tables) -> tuple[list[str], list[np.ndarray]]:
    """``(ids, views)``: the :func:`intersect_ids` of *tables* and each table's rows for them, in order."""
    tables = list(tables)
    ids = intersect_ids(tables)
    return ids, [t.lookup(ids) for t in tables]


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
