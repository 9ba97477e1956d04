"""The text codec behind every file the package reads or writes.

Files are UTF-8.  Lines end in LF; a CR right before the LF is dropped on
read, so CRLF files load, and no other character ends a line (a sentence
column may hold U+2028, a form feed and the like).  Bytes that are not UTF-8
raise :class:`FileFormatError` naming the line that holds them.  Floats are
written with 17 significant digits, so a save/load round trip reproduces
every float64 bit for bit; a row of them is formatted with one
:func:`row_format` string.  Every table and model file reads its rows of
values through :func:`read_rows`, which allocates nothing for rows the file
does not hold: in one C pass where they are plainly laid out, and one value
at a time otherwise, which reads the same numbers and names the line of the
first fault.  A write goes to a temporary file next to the destination, which
then replaces the destination in one step: a write that fails leaves the old
file as it was and no temporary file behind.  Lines go out about 64 KiB of
text at a time, so a writer that passes them lazily holds no more than that
and its longest line, whatever the file's size or the width of its rows.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import warnings

import numpy as np

from .errors import FileFormatError, ValidationError

__all__ = ["fmt", "fmt_row", "row_format", "read_lines", "write_lines", "read_rows", "check_trailing",
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

    Lines are read and decoded one at a time.  A buffer the size of the file,
    once freed, would raise glibc's mmap threshold to that size, so that the
    large arrays made after it would come from a fragmented heap and raise
    the peak memory.
    """
    lines = []
    try:
        with open(path, "rb") as f:
            for lineno, line in enumerate(itertools.islice(f, limit), start=1):
                lines.append(line.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8"))
    except OSError as exc:
        raise FileFormatError(path, 1, f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, lineno, f"invalid UTF-8 byte 0x{line[exc.start]:02x}") from None
    return lines


_CHUNK_CHARS = 1 << 16  # per write: a sliver of a large file, yet few calls per file


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


# the ASCII whitespace other than " " and LF; no line holds an LF, and U+0020 is
# the only printable whitespace character
_OTHER_SPACES = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def read_rows(lines: list[str], start: int, rows: int, cols: int, path, label: str | None = None, *,
              keyed: bool = False):
    """Lines ``start .. start + rows - 1`` (1-based) of *path* as a (rows, cols) array of finite values.

    With *keyed*, rows are ``key v1 ... vCOLS`` with distinct keys, the result
    is (keys, values), and only blank lines may follow the rows, as in a
    vector table.  *label* names the block in errors.  If the lines hold all
    the rows and every row is plain, they are parsed in one C pass; otherwise
    row by row, which reads the same values, allocates no row the file does
    not hold, and names the first line at fault.
    """
    end = start - 1 + rows
    bulk = _bulk_rows(lines[start - 1 : end], cols, keyed) if end <= len(lines) else None
    keys, values = bulk if bulk is not None else _row_by_row(lines, start, rows, cols, path, label, keyed)
    if keyed:
        check_trailing(lines, end, path)
    if bulk is None and not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values).all(axis=1)))
        where = "" if label is None else f" in block {label!r}"
        raise FileFormatError(path, start + bad, f"non-finite value{where}")
    return (keys, values) if keyed else values


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


def _row_by_row(lines: list[str], start: int, rows: int, cols: int, path, label, keyed: bool):
    """(keys or None, values) of the rows, parsed one value at a time; finiteness is left to the caller."""
    keys, seen, out = ([] if keyed else None), set(), []
    for lineno in range(start, start + rows):
        if lineno > len(lines):
            what = "data rows" if label is None else f"rows in block {label!r}"
            raise truncated(path, lines, f"expected {rows} {what}")
        tokens = lines[lineno - 1].split()
        if keyed:
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


def check_trailing(lines: list[str], used: int, path) -> None:
    """Reject anything but blank lines after the first *used* lines."""
    for extra in range(used, len(lines)):
        if lines[extra].strip():
            raise FileFormatError(path, extra + 1, "unexpected content after the declared rows")


def truncated(path, lines: list[str], what: str) -> FileFormatError:
    """The error for a file that ends before *what* was complete."""
    last = max(1, len(lines))
    return FileFormatError(path, last, f"{what}; file ends after line {last}")
