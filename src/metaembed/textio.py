"""The text codec behind every file the package reads or writes.

Files are UTF-8.  Lines end in LF; a CR right before the LF is dropped on
read, so CRLF files load, and no other character ends a line (a sentence
column may hold U+2028, a form feed and the like).  Bytes that are not UTF-8
raise :class:`FileFormatError` naming the line that holds them.  Floats are
written with 17 significant digits, so a save/load round trip reproduces
every float64 bit for bit; a row of them is formatted with one
:func:`row_format` string.  Rows of values are parsed in one C pass where
they are plainly laid out (:func:`keyed_values`), and one value at a time
otherwise (:func:`parse_values`), which reads the same numbers and names the
line of the first bad one.  A write goes to a temporary file next to the
destination, which then replaces the destination in one step: a write that
fails leaves the old file as it was and no temporary file behind.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import numpy as np

from .errors import FileFormatError, ValidationError

__all__ = ["fmt", "fmt_row", "row_format", "read_lines", "write_lines", "keyed_values", "parse_values",
           "parse_block", "truncated"]


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
    """The lines of *path* without their line ends; only the first *limit* if given."""
    try:
        with open(path, "rb") as f:
            raw = f.read() if limit is None else b"".join(f.readline() for _ in range(limit))
    except OSError as exc:
        raise FileFormatError(path, 1, f"cannot read file: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(path, line, f"invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None
    del raw  # keeps the peak at the text plus its lines
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def write_lines(path, lines) -> None:
    """Replace *path* with *lines*, each ended by LF, in one atomic step.

    The new file gets the mode a plain ``open(path, "w")`` would give it
    (0666 less the umask).  An OS error raises :class:`ValidationError`
    naming *path*.
    """
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write file: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# the ASCII whitespace other than " " and LF; no line holds an LF, and U+0020 is
# the only printable whitespace character
_OTHER_SPACES = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def keyed_values(lines: list[str], cols: int) -> tuple[list[str], np.ndarray] | None:
    """The keys and the (len(lines), cols) values of rows ``key v1 ... vCOLS``, parsed in one C pass.

    Every line must be exactly that: a non-empty key and *cols* finite
    numbers, joined by single spaces, with no other whitespace.  For anything
    else (another space character, an empty or unreadable token, a wrong
    count, a non-finite value) the result is None, and the caller parses the
    lines one by one with :func:`parse_values`, which reads the same numbers
    to the same values and names the line of the first bad one.
    """
    text = " ".join(lines)
    # isprintable() alone would do; on ASCII text these scans are several times faster
    spaced = not any(c in text for c in _OTHER_SPACES) if text.isascii() else text.isprintable()
    del text  # keeps the peak at the lines plus the array
    if not spaced:
        return None
    keys = [line.partition(" ")[0] for line in lines]
    if not all(keys):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-empty input warns; the shape check rejects it
            values = np.loadtxt((line.partition(" ")[2] for line in lines), dtype=np.float64,
                                delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), cols) or not np.isfinite(values).all():
        return None
    return keys, values


def parse_values(tokens: list[str], d: int, path, lineno: int) -> np.ndarray:
    """*tokens* as *d* float64 values; line *lineno* of *path* is named on error."""
    if len(tokens) != d:
        raise FileFormatError(path, lineno, f"expected {d} values, got {len(tokens)}")
    try:
        return np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        bad = next(t for t in tokens if not _is_float(t))
        raise FileFormatError(path, lineno, f"could not parse value {bad!r}") from None


def parse_block(lines: list[str], start: int, rows: int, cols: int, path, label: str) -> np.ndarray:
    """Lines ``start .. start + rows - 1`` (1-based) as a (rows, cols) array of finite values."""
    out = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        if start + r > len(lines):
            raise truncated(path, lines, f"expected {rows} rows in block {label!r}")
        out[r] = parse_values(lines[start + r - 1].split(), cols, path, start + r)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise FileFormatError(path, start + int(np.argmax(bad)), f"non-finite value in block {label!r}")
    return out


def truncated(path, lines: list[str], what: str) -> FileFormatError:
    """The error for a file that ends before *what* was complete."""
    last = max(1, len(lines))
    return FileFormatError(path, last, f"{what}; file ends after line {last}")
