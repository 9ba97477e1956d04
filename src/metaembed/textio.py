"""The text codec behind every file the package reads or writes.

Files are UTF-8.  Lines end in LF; a CR right before the LF is dropped on
read, so CRLF files load, and no other character ends a line (a sentence
column may hold U+2028, a form feed and the like).  A byte that is not UTF-8
raises :class:`FileFormatError` naming its line, before any other fault of
the file.  Floats are written with 17 significant digits, so a save/load
round trip reproduces every float64 bit for bit; a row of them is formatted
with one :func:`row_format` string.  Every file the package reads, tables,
models, pair files and the first lines a sniffer looks at, is read through
:class:`Lines` about 64 KiB of text at a time, so no reader holds a file's
text whole, and :func:`read_rows` parses each chunk of rows of values into
one array allocated for all of them, allocating nothing for rows the file
does not hold.  :class:`Lines` hashes the bytes it reads, so a reader knows
the sha256 of exactly what it parsed, even from a pipe; :func:`file_digest`
hashes a file the same 64 KiB at a time, before a parse.  A write goes to a
temporary file next to the destination, which then replaces it in one step:
a write that fails leaves the old file as it was and no temporary file
behind.  Lines go out about 64 KiB of text at a time, so a writer that
passes them lazily holds no more than that and its longest line, whatever
the file's size or row width.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import stat
import sys
import warnings

import numpy as np

from .errors import FileFormatError, ValidationError

__all__ = ["fmt", "fmt_row", "row_format", "write_lines", "replace_file", "refuse_pipe", "file_digest", "Lines",
           "read_rows", "check_trailing", "truncated"]


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
    def write(f):
        for chunk in _chunks(lines):
            f.write(("\n".join(chunk) + "\n").encode("utf-8"))

    replace_file(path, write)


def replace_file(path, write, mode: int = 0o666) -> None:
    """Replace *path* with what ``write(f)`` writes to a binary file, in one atomic step.

    The bytes go to a temporary file next to *path*, created with *mode*
    less the umask, which then replaces *path*; a write that fails leaves
    the old file as it was and no temporary file behind.  An OS error raises
    :class:`ValidationError` naming *path*.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        with open(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write file: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def refuse_pipe(path) -> None:
    """Raise :class:`FileFormatError` if *path* is a pipe, which a reader that opens it twice cannot read."""
    with contextlib.suppress(OSError):  # a file that cannot be reached is named by the open that follows
        if stat.S_ISFIFO(os.stat(path).st_mode):
            raise FileFormatError(path, 1, "a pipe cannot be read twice, to find its kind and then to load it")


def file_digest(path) -> str:
    """The sha256 of the bytes of *path*, in hex, read about 64 KiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_CHUNK_CHARS), b""):
            h.update(block)
    return h.hexdigest()


class Lines:
    """The lines of a file, decoded about 64 KiB of text at a time and handed out in order.

    A context manager; ``count`` lines have been handed out.  An OS error
    raises :class:`FileFormatError` naming line 1, and an error raised inside
    the ``with`` gives way to an undecodable byte further on, as if the whole
    file had been decoded first.  The raw bytes are hashed as they are read,
    and :meth:`digest` is the sha256 of those that were.
    """

    def __init__(self, path):
        self.path, self.count, self._chunk, self._pos, self._hash = path, 0, [], 0, hashlib.sha256()
        try:
            self._f = open(path, "rb")
        except OSError as exc:
            raise FileFormatError(path, 1, f"cannot read file: {exc}") from exc
        # a chunk is read once every line before it has been handed out, so its first line is count + 1
        self._chunks = (_decode(raw, self.count + 1, path) for raw in iter(self._read, []))

    def _read(self) -> list[bytes]:
        raw = self._f.readlines(_CHUNK_CHARS)
        self._hash.update(b"".join(raw))
        return raw

    def digest(self) -> str:
        """The sha256, in hex, of the bytes read so far: of the whole file once a reader has met its end."""
        return self._hash.hexdigest()

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
        """The characters not yet handed out, one per line end: the bytes left in the file, or fewer (0 in a pipe)."""
        if not self._f.seekable():
            return 0
        self._ready()
        return os.fstat(self._f.fileno()).st_size - self._f.tell() + sum(len(s) + 1 for s in self._chunk[self._pos :])


# the ASCII whitespace other than " " and LF; no line holds an LF, and U+0020 is
# the only printable whitespace character
_OTHER_SPACES = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def read_rows(lines: Lines, rows, cols: int, path, label: str | None = None, *, keyed: bool = False):
    """The next rows of *lines* as an array of finite values, *cols* to a row.

    *rows* is a count, or (label, count) blocks whose iterator reads each
    block's header from *lines*; their rows go into one array.  With *keyed*,
    rows are ``key v1 ... vCOLS`` with distinct keys, the result is (keys,
    values), and only blank lines may follow, as in a vector table.  *label*
    names a counted block in errors.  Given a count, the array is allocated
    once if the text left can hold the rows (a value takes a character and a
    separator); else it grows.  A chunk of rows, short blocks joined, is parsed
    in one C pass if plain and row by row if not, which reads the same values
    and names the first fault as if each block were read on its own.
    """
    counted = isinstance(rows, int)
    out = np.empty((rows if counted and 2 * rows * cols <= lines.left() else 0, cols))
    keys, seen, filled, bad = [], set(), 0, None
    for group in _groups(lines, [(label, rows)] if counted else rows, path):
        # rows the file ends inside, or after a non-finite value, are parsed one at a time
        got = not bad and group[-1][2] and _bulk_rows([line for _, _, part in group for line in part], cols, keyed)
        if not got or keyed and not seen.isdisjoint(got[0]):
            *got, bad = _row_by_row(group, cols, path, seen if keyed else None, bad)
        if keyed:
            seen.update(got[0])
            keys += got[0]
        if filled + len(got[1]) > len(out):
            out.resize((max(filled + len(got[1]), len(out) * 5 // 4), cols), refcheck=False)
        out[filled : filled + len(got[1])] = got[1]
        filled += len(got[1])
    if keyed:
        check_trailing(lines)
    if bad:
        raise bad[1]
    out.resize((filled, cols), refcheck=False)
    return (keys, out) if keyed else out


def _groups(lines: Lines, blocks, path):
    """Each block's rows as parts ``(first line number, label, lines)``, in lists of about 64 KiB.

    *blocks* holds (label, count) pairs.  A block the file ends inside gets an
    empty last part, and its error is raised once that part's list is parsed.
    """
    group, size = [], 0
    for label, rows in blocks:
        end = lines.count + rows  # the number of the block's last line
        for part in lines.take(rows):
            group.append((lines.count - len(part) + 1, label, part))
            size += sum(map(len, part)) + len(part)
            if size >= _CHUNK_CHARS:
                yield group
                group, size = [], 0
        if lines.count < end:
            yield group + [(lines.count + 1, label, [])]
            what = "data rows" if label is None else f"rows in block {label!r}"
            raise truncated(path, lines.count, f"expected {rows} {what}")
    if group:
        yield group


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


def _row_by_row(group, cols: int, path, seen: set | None, bad):
    """(keys or None, values, bad) of the parts *group*, parsed one value at a time.

    With *seen*, the keys of the rows before, the rows are keyed and each key
    must be new.  *bad*, None or the block and error of the first non-finite
    value, is raised once that block has ended.
    """
    keys, out = ([] if seen is not None else None), []
    for first, block, part in group:
        if bad and bad[0] != block:
            raise bad[1]
        for lineno, line in enumerate(part, start=first):
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
            if not bad and not np.isfinite(row).all():
                where = "" if block is None else f" in block {block!r}"
                bad = block, FileFormatError(path, lineno, "non-finite value" + where)
            out.append(row)
    return keys, np.array(out).reshape(-1, cols), bad


def check_trailing(lines: Lines) -> None:
    """Reject anything but blank lines in the rest of *lines*."""
    for line in iter(lines.line, None):
        if line.strip():
            raise FileFormatError(lines.path, lines.count, "unexpected content after the declared rows")


def truncated(path, count: int, what: str) -> FileFormatError:
    """The error for a file of *count* lines that ends before *what* was complete."""
    last = max(1, count)
    return FileFormatError(path, last, f"{what}; file ends after line {last}")
