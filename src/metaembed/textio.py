"""The text codec behind every file the package reads or writes.

Files are UTF-8.  Lines end in LF; a CR right before the LF is dropped on
read, so CRLF files load, and no other character ends a line (a sentence
column may hold U+2028, a form feed and the like).  A byte that is not UTF-8
raises :class:`FileFormatError` naming its line, before any other fault of
the file.  Floats are written with 17 significant digits, so a save/load
round trip reproduces every float64 bit for bit; a row of them is formatted
with one :func:`row_format` string.  Tables and models are read through
:class:`Lines` about 64 KiB of text at a time, and :func:`read_rows` parses
each chunk of rows into one array allocated for all of them: a reader holds
the array and a chunk, never the whole text, and allocates nothing for rows
the file does not hold.  A write goes to a temporary file next to the
destination, which then replaces it in one step: a write that fails leaves
the old file as it was and no temporary file behind.  Lines go out about
64 KiB of text at a time, so a writer that passes them lazily holds no more
than that and its longest line, whatever the file's size or row width.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
import warnings

import numpy as np

from .errors import FileFormatError, ValidationError

__all__ = ["fmt", "fmt_row", "row_format", "read_lines", "write_lines", "Lines", "read_rows", "check_trailing",
           "truncated"]


def fmt(x: float) -> str:
    """*x* with 17 significant digits, enough to read back the same float64."""
    return f"{x:.17g}"


def row_format(cols: int) -> str:
    """The ``%`` format of *cols* space-separated values, each as :func:`fmt` writes it."""
    return " ".join(["%.17g"] * cols)


def fmt_row(values) -> str:
    """Space-separated :func:`fmt` of each value."""
    values = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
    return row_format(len(values)) % values


def read_lines(path, limit: int | None = None) -> list[str]:
    """The lines of *path* without their line ends; only the first *limit* if given.

    For pair files, parsed line by line, and for the sniffers, which read the
    first lines only; tables and models are read through :class:`Lines`.
    Lines are read and decoded one at a time: a buffer the size of the file,
    once freed, would raise glibc's mmap threshold to that size, so that the
    large arrays made after it would come from a fragmented heap.
    """
    try:
        with open(path, "rb") as f:
            return _decode(itertools.islice(f, limit), 1, path)
    except OSError as exc:
        raise FileFormatError(path, 1, f"cannot read file: {exc}") from exc


def _decode(raw, first: int, path) -> list[str]:
    """The byte lines *raw*, numbered from *first*, decoded and without their line ends."""
    lines = []
    try:
        for line in raw:
            lines.append(line.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, first + len(lines), f"invalid UTF-8 byte 0x{line[exc.start]:02x}") from None
    return lines


_CHUNK_CHARS = 1 << 16  # per read or write: a sliver of a large file, yet few calls per file


def _chunks(lines):
    """*lines* in lists of about :data:`_CHUNK_CHARS` characters, a longer line on its own."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= _CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def write_lines(path, lines) -> None:
    """Replace *path* with *lines*, each ended by LF, in one atomic step.

    *lines* may be any iterable of strings, consumed about 64 KiB of text
    (or one longer line) at a time.  The new file gets the mode a plain
    ``open(path, "w")`` would give it (0666 less the umask).  An OS error
    raises :class:`ValidationError` naming *path*.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "wb") as f:
            for chunk in _chunks(lines):
                f.write(("\n".join(chunk) + "\n").encode("utf-8"))
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write file: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


class Lines:
    """The lines of a file, decoded about 64 KiB of text at a time and handed out in order.

    A context manager; ``count`` lines have been handed out.  An OS error
    raises :class:`FileFormatError` naming line 1, and an error raised inside
    the ``with`` gives way to an undecodable byte further on, as if the whole
    file had been decoded first.  Given *parts*, an iterable of lists of
    lines, it hands those lines out instead, numbered from ``count + 1``.
    """

    def __init__(self, path, parts=None, count: int = 0):
        self.path, self.count, self._chunk, self._pos, self._f = path, count, [], 0, None
        if parts is None:
            try:
                self._f = open(path, "rb")
            except OSError as exc:
                raise FileFormatError(path, 1, f"cannot read file: {exc}") from exc
        self._chunks = _decoded(self._f, path) if parts is None else _joined(parts)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        with self._f:
            if isinstance(exc, OSError):
                raise FileFormatError(self.path, 1, f"cannot read file: {exc}") from exc
            if isinstance(exc, ValidationError):
                for _ in self.take(sys.maxsize):  # an undecodable byte further on is the error to report
                    pass

    def line(self) -> str | None:
        """The next line, or None at the end."""
        if not self._ready():
            return None
        self._pos += 1
        self.count += 1
        return self._chunk[self._pos - 1]

    def _ready(self) -> bool:
        """Whether a line is waiting, reading the next chunk if need be."""
        if self._pos == len(self._chunk):
            self._chunk, self._pos = next(self._chunks, []), 0
        return self._pos < len(self._chunk)

    def take(self, n: int):
        """The next *n* lines, fewer at the end, in lists of at most one chunk each."""
        while n > 0 and self._ready():
            part = self._chunk[self._pos : self._pos + n]
            self._pos += len(part)
            self.count += len(part)
            n -= len(part)
            yield part

    def left(self) -> int:
        """The characters not yet handed out, one per line end: the bytes left in the file, or fewer."""
        self._ready()
        unread = os.fstat(self._f.fileno()).st_size - self._f.tell() if self._f else 0
        return unread + sum(len(line) + 1 for line in self._chunk[self._pos :])


def _joined(parts):
    """The lists of lines *parts*, joined into lists of about :data:`_CHUNK_CHARS` characters or more."""
    chunk, size = [], 0
    for part in parts:
        chunk += part
        size += sum(map(len, part)) + len(part)
        if size >= _CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _decoded(f, path):
    """The lines of binary file *f*, decoded, in lists of about :data:`_CHUNK_CHARS` bytes."""
    count = 0
    while raw := f.readlines(_CHUNK_CHARS):
        yield _decode(raw, count + 1, path)
        count += len(raw)


# the ASCII whitespace other than " " and LF; no line holds an LF, and U+0020 is
# the only printable whitespace character
_OTHER_SPACES = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def read_rows(lines: Lines | list[str], start: int, rows: int | None, cols: int, path,
              label: str | None = None, *, keyed: bool = False):
    """Lines ``start .. start + rows - 1`` (1-based) of *path* as a (rows, cols) array of finite values.

    *lines* is a :class:`Lines` with line *start* next, or a list of every
    line of the file; with *rows* None, every line it has left is a row.  With
    *keyed*, rows are ``key v1 ... vCOLS`` with distinct keys, the result is
    (keys, values), and only blank lines may follow the rows, as in a vector
    table.  *label* names the block in errors.  The array is allocated once if
    the text left can hold the rows (a value takes a character and a
    separator), and grows as they are parsed if not.  A chunk of plain rows is
    parsed in one C pass, any other row by row, which reads the same values
    and names the first line at fault.
    """
    if isinstance(lines, list):
        lines = Lines(path, [lines[start - 1 :]], start - 1)
    out = np.empty((rows if rows and 2 * rows * cols <= lines.left() else 0, cols))
    keys, seen, filled, bad = ([] if keyed else None), set(), 0, None
    parts = lines.take(rows or sys.maxsize)
    part = next(parts, None)
    while part:
        # with rows declared, the next part shows whether the file ends too soon to complete them;
        # such rows are parsed one at a time, up to the fault
        first, after = start + filled, (next(parts, None) if rows else None)
        got = None if rows and after is None and filled + len(part) < rows else _bulk_rows(part, cols, keyed)
        if got is None or keyed and not seen.isdisjoint(got[0]):
            got = _row_by_row(part, first, cols, path, seen if keyed else None)
            finite = np.isfinite(got[1]).all(axis=1)
            bad = first + int(np.argmin(finite)) if bad is None and not finite.all() else bad
        if keyed:
            seen.update(got[0])
            keys += got[0]
        if filled + len(part) > len(out):
            out.resize((max(filled + len(part), len(out) * 5 // 4), cols), refcheck=False)
        out[filled : filled + len(part)] = got[1]
        filled, part = filled + len(part), (after if rows else next(parts, None))
    if rows and filled < rows:
        what = "data rows" if label is None else f"rows in block {label!r}"
        raise truncated(path, lines.count, f"expected {rows} {what}")
    if keyed:
        check_trailing(lines)
    if bad is not None:
        raise FileFormatError(path, bad, "non-finite value" + ("" if label is None else f" in block {label!r}"))
    out.resize((filled, cols), refcheck=False)
    return (keys, out) if keyed else out


def _bulk_rows(lines: list[str], cols: int, keyed: bool):
    """(keys or None, values) of *lines* in one C pass, or None if a line is not plain.

    A plain line is a non-empty key (with *keyed*; no key twice) and *cols*
    finite numbers, joined by single spaces, with no other whitespace.
    """
    # isprintable() alone would do; on ASCII lines these scans are several times faster
    if all(map(str.isascii, lines)):
        spaced = not any(c in line for line in lines for c in _OTHER_SPACES)
    else:
        spaced = all(map(str.isprintable, lines))
    if not spaced:
        return None
    keys, rows = None, len(lines)
    if keyed:
        keys = [line.partition(" ")[0] for line in lines]
        if not all(keys):
            return None
        lines = (line.partition(" ")[2] for line in lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-empty input warns; the shape check rejects it
            values = np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (rows, cols) or not np.isfinite(values).all() or keyed and len(set(keys)) != rows:
        return None
    return keys, values


def _row_by_row(lines: list[str], first: int, cols: int, path, seen: set | None):
    """(keys or None, values) of *lines*, numbered from *first*, parsed one value at a time.

    With *seen*, the keys of the rows before, the rows are keyed and each key
    must be new.  Finiteness is left to the caller.
    """
    keys, out = ([] if seen is not None else None), []
    for lineno, line in enumerate(lines, start=first):
        tokens = line.split()
        if seen is not None:
            if not tokens:
                raise FileFormatError(path, lineno, "unexpected blank line")
            if tokens[0] in seen:
                raise FileFormatError(path, lineno, f"duplicate id {tokens[0]!r}")
            seen.add(tokens[0])
            keys.append(tokens.pop(0))
        if len(tokens) != cols:
            raise FileFormatError(path, lineno, f"expected {cols} values, got {len(tokens)}")
        row = np.empty(cols)
        for i, token in enumerate(tokens):
            try:
                row[i] = float(token)
            except ValueError:
                raise FileFormatError(path, lineno, f"could not parse value {token!r}") from None
        out.append(row)
    return keys, np.array(out)


def check_trailing(lines: Lines) -> None:
    """Reject anything but blank lines in the rest of *lines*."""
    for line in iter(lines.line, None):
        if line.strip():
            raise FileFormatError(lines.path, lines.count, "unexpected content after the declared rows")


def truncated(path, count: int, what: str) -> FileFormatError:
    """The error for a file of *count* lines that ends before *what* was complete."""
    last = max(1, count)
    return FileFormatError(path, last, f"{what}; file ends after line {last}")
