"""Reader and writer for the labeled-block model file format.

Every fitted model is stored as plain text:

    <MAGIC> v1
    <one hyperparameter line>
    <label> <rows> <cols>
    ... rows lines of cols values ...
    (further blocks until end of file)

The hyperparameter line has one grammar for every kind: each field name is
followed by its values, and the fields come in a fixed order per kind (for
GCCA, ``dims 300 200 tau 10``).  A 1-D parameter is stored as a one-row
block.  The text codec (encoding, line ends, 17-digit values, atomic writes)
is :mod:`metaembed.textio`, and every block's rows are parsed by its
:func:`~metaembed.textio.read_rows`.  This module is the only one that formats
or splits the file itself, and it owns every kind's field names (:data:`FIELDS`),
so one read learns a file's kind and splits its fields.  The model classes own
their magics, block labels and the checks that mean something for one kind
only, and build themselves from a parsed :class:`ModelFile` (``from_file``).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .textio import Lines, fmt, read_rows, refuse_pipe, row_format, write_lines

__all__ = ["FIELDS", "ModelFile", "StoredModel", "write_model", "read_model", "sniff_model_kind"]

FORMAT_VERSION = "v1"

# each kind's hyperparameter fields, in the order its header line holds them
FIELDS = {"SVDMETA": ("dims",), "GCCA": ("dims", "tau"),
          **dict.fromkeys(("DME", "CDME"), ("n", "dims", "proj", "att", "enc", "seed", "classes"))}


class ModelFile(NamedTuple):
    """A parsed model file: field name -> value tokens, block label -> 2-d array, and the sha256 of its bytes."""

    path: str
    magic: str
    fields: dict[str, list[str]]
    blocks: dict[str, np.ndarray]
    digest: str

    def ints(self, name: str) -> list[int]:
        """The values of field *name* as integers."""
        try:
            return [int(t) for t in self.fields[name]]
        except ValueError:
            raise ValidationError(
                f"{self.path}: non-integer value in field {name!r}: {' '.join(self.fields[name])}"
            ) from None

    def one(self, name: str, convert=int):
        """The single value of field *name*, passed through *convert*."""
        values = self.fields[name]
        if len(values) != 1:
            raise ValidationError(f"{self.path}: expected exactly one value for {name!r}, got {len(values)}")
        try:
            return convert(values[0])
        except ValueError:
            raise ValidationError(f"{self.path}: could not parse {name!r} value {values[0]!r}") from None

    def row(self, label: str) -> np.ndarray:
        """The one-row block *label* as a 1-d array."""
        block = self.blocks[label]
        if block.shape[0] != 1:
            raise ValidationError(f"{self.path}: block {label!r} has shape {block.shape}, expected one row")
        return block[0]

    def expect_blocks(self, labels) -> None:
        """Check that the file holds exactly the blocks *labels*."""
        missing = [lab for lab in labels if lab not in self.blocks]
        if missing:
            raise ValidationError(f"{self.path}: model file is missing block {missing[0]!r}")
        unexpected = [lab for lab in self.blocks if lab not in labels]
        if unexpected:
            raise ValidationError(f"{self.path}: model file has unexpected block {unexpected[0]!r}")

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)`` carrying this file's digest; any ValidationError it raises names this file."""
        try:
            model = make(*args, **kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{self.path}: {exc}") from None
        model.digest = self.digest
        return model


class StoredModel:
    """A model class kept in model files whose magic is one of its ``MAGICS``; ``from_file`` builds one."""

    MAGICS: tuple = ()

    @classmethod
    def load(cls, path):
        """The model in the file at *path*, read once."""
        return cls.from_file(read_model(path, cls.MAGICS))


def write_model(path, magic: str, values, blocks) -> None:
    """Write a model file, one row formatted at a time.

    *values* holds one entry per field of ``FIELDS[magic]``, in that order; a
    value is an int, a float (written with :func:`metaembed.textio.fmt`) or
    a string, and an entry is one value or a sequence of them.  *blocks* is
    an iterable of (label, 1-d or 2-d array).
    """
    hyper = []
    for name, entry in zip(FIELDS[magic], values, strict=True):
        hyper.append(name)
        for v in entry if isinstance(entry, (list, tuple)) else [entry]:
            hyper.append(fmt(v) if isinstance(v, float) else str(v))
    body = itertools.chain.from_iterable(itertools.starmap(_block_lines, blocks))
    write_lines(path, itertools.chain([f"{magic} {FORMAT_VERSION}", " ".join(hyper)], body))


def _block_lines(label: str, arr):
    """The header line and the rows of one block, each row formatted as it is consumed."""
    a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError(f"block {label!r} must be 1-d or 2-d, got ndim={a.ndim}")
    row = row_format(a.shape[1])
    return itertools.chain([f"{label} {a.shape[0]} {a.shape[1]}"], (row % tuple(v.tolist()) for v in a))


def _header(line: str | None, path) -> list[str]:
    """The tokens of the header *line*, which must hold some."""
    if not line or not line.strip():
        raise FileFormatError(path, 1, "empty file; expected a model header")
    return line.split()


def read_model(path, magics: tuple) -> ModelFile:
    """Parse a model file whose magic is one of *magics* (another is refused at line 1), split by its magic's fields."""
    with Lines(path) as lines:
        line = lines.line()
        magic, *version = _header(line, path)
        if magic not in magics:
            raise FileFormatError(path, 1, f"expected a {' or '.join(magics)} model, found {magic}")
        if version != [FORMAT_VERSION]:
            raise FileFormatError(path, 1, f"expected '<KIND> {FORMAT_VERSION}' header, got {line!r}")
        line = lines.line()
        if line is None:
            raise FileFormatError(path, 1, "file ends before the hyperparameter line")
        fields = _split_fields(line.split(), FIELDS[magic], path)
        blocks: dict[str, np.ndarray] = {}
        for raw in iter(lines.line, None):
            if not raw.strip():
                continue
            tokens = raw.split()
            if len(tokens) != 3:
                raise FileFormatError(path, lines.count,
                                      f"expected block header '<label> <rows> <cols>', got {raw!r}")
            label = tokens[0]
            if label in blocks:
                raise FileFormatError(path, lines.count, f"duplicate block {label!r}")
            try:
                rows, cols = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise FileFormatError(path, lines.count, f"non-integer block shape in {raw!r}") from None
            if rows < 1 or cols < 1:
                raise FileFormatError(path, lines.count, f"block shape must be positive, got {rows} {cols}")
            blocks[label] = read_rows(lines, rows, cols, path, label)
    return ModelFile(str(path), magic, fields, blocks, lines.digest())  # read to the end


def _split_fields(tokens: list[str], names: tuple, path) -> dict[str, list[str]]:
    """Each field's value tokens: those between its name and the next field's name."""
    missing = [name for name in names if name not in tokens]
    if missing:
        raise ValidationError(f"{path}: hyperparameter line is missing {missing[0]!r}")
    starts = [tokens.index(name) for name in names]
    if starts[0] != 0 or starts != sorted(starts):
        raise ValidationError(
            f"{path}: hyperparameter fields out of order; expected {', '.join(map(repr, names))}"
        )
    ends = starts[1:] + [len(tokens)]
    return {name: tokens[s + 1 : e] for name, s, e in zip(names, starts, ends)}


def sniff_model_kind(path) -> str:
    """First token of the header line, e.g. ``"GCCA"``; a pipe is refused."""
    refuse_pipe(path)
    with Lines(path) as lines:
        return _header(lines.line(), path)[0]
