"""Reader and writer for the labeled-block model file format.

Every fitted model is stored as plain text:

    <MAGIC> v1
    <one model-specific hyperparameter line>
    <label> <rows> <cols>
    ... rows lines of cols values ...
    (further blocks until end of file)

The text codec (encoding, line ends, 17-digit values, atomic writes) is
:mod:`metaembed.textio`.  The concrete magics, hyperparameter lines and block
labels are owned by the model classes; this module only knows the envelope.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FileFormatError
from .textio import fmt_row, parse_block, read_lines, write_lines

__all__ = ["ModelFile", "write_model", "read_model", "sniff_model_kind"]

FORMAT_VERSION = "v1"


class ModelFile(NamedTuple):
    magic: str
    hyper: list[str]
    blocks: dict[str, np.ndarray]


def write_model(path, magic: str, hyper: str, blocks) -> None:
    """Write a model file; *blocks* is an iterable of (label, 2-d array)."""
    out = [f"{magic} {FORMAT_VERSION}", hyper]
    for label, arr in blocks:
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"block {label!r} must be 2-d, got ndim={a.ndim}")
        out.append(f"{label} {a.shape[0]} {a.shape[1]}")
        for row in a:
            out.append(fmt_row(row))
    write_lines(path, out)


def read_model(path, expected_magic: str | None = None) -> ModelFile:
    """Parse a model file, optionally insisting on a particular magic."""
    lines = read_lines(path)
    if not lines or not lines[0].strip():
        raise FileFormatError(path, 1, "empty file; expected a model header")
    head = lines[0].split()
    if len(head) != 2 or head[1] != FORMAT_VERSION:
        raise FileFormatError(path, 1, f"expected '<KIND> {FORMAT_VERSION}' header, got {lines[0]!r}")
    magic = head[0]
    if expected_magic is not None and magic != expected_magic:
        raise FileFormatError(path, 1, f"expected a {expected_magic} model, found {magic}")
    if len(lines) < 2:
        raise FileFormatError(path, 1, "file ends before the hyperparameter line")
    hyper = lines[1].split()
    blocks: dict[str, np.ndarray] = {}
    cursor = 3  # 1-based line number of the next unread line
    while cursor <= len(lines):
        raw = lines[cursor - 1]
        if not raw.strip():
            cursor += 1
            continue
        tokens = raw.split()
        if len(tokens) != 3:
            raise FileFormatError(path, cursor, f"expected block header '<label> <rows> <cols>', got {raw!r}")
        label = tokens[0]
        if label in blocks:
            raise FileFormatError(path, cursor, f"duplicate block {label!r}")
        try:
            rows, cols = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise FileFormatError(path, cursor, f"non-integer block shape in {raw!r}") from None
        if rows < 1 or cols < 1:
            raise FileFormatError(path, cursor, f"block shape must be positive, got {rows} {cols}")
        blocks[label] = parse_block(lines, cursor + 1, rows, cols, path, label)
        cursor += 1 + rows
    return ModelFile(magic, hyper, blocks)


def sniff_model_kind(path) -> str:
    """First token of the header line, e.g. ``"GCCA"``."""
    lines = read_lines(path, limit=1)
    if not lines or not lines[0].strip():
        raise FileFormatError(path, 1, "empty file; expected a model header")
    return lines[0].split()[0]
