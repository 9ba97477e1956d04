"""Scoring primitives and evaluation drivers for sentence pairs.

Unsupervised similarity: cosine between the two sentence vectors, mapped
onto the task's score range (negative cosines clamp to the range floor,
since the tasks treat cosine 0 as "least similar"), compared to gold scores
by Pearson correlation.  Classification: predicted label against gold label,
summarized by accuracy in percent.  Every driver returns an
:class:`EvalReport` whose fingerprint hashes all inputs and seeds, so two
reports with the same fingerprint are guaranteed to describe the same run;
the per-pair rows come back alongside so callers can write predictions next
to the summary.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .store import EmbeddingTable, sequence_views

__all__ = [
    "cosine",
    "scale_similarity",
    "pearson",
    "accuracy",
    "EvalReport",
    "config_fingerprint",
    "format_report_table",
    "evaluate_similarity",
    "evaluate_classification",
    "embed_table",
    "pair_ids",
]

_ZERO_VECTOR = "cosine of a zero vector is undefined"
# pairs whose vectors are gathered at a time to score similarity, and rows at a time to fingerprint
# them; cosines are per row and the fingerprint is a stream, so neither result depends on it
_COSINE_ROWS = 256


def _vector(v, name: str) -> np.ndarray:
    a = np.array(v, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def _row_cosines(a: np.ndarray, b: np.ndarray, zero_a: str, zero_b: str) -> np.ndarray:
    """Cosine of each row of *a* with the same row of *b*, clamped into [-1, 1].

    Each row is divided by its largest magnitude first, as LAPACK ``dnrm2``
    does, so no square overflows or underflows anywhere in the float64
    range.  The division is in place: callers pass fresh arrays.  A zero row
    raises :class:`ValidationError` with message *zero_a* or *zero_b*.
    """
    for m, message in ((a, zero_a), (b, zero_b)):
        peak = np.maximum(m.max(axis=1), -m.min(axis=1))
        if not np.all(peak > 0.0):
            raise ValidationError(message)
        m /= peak[:, None]
    dots = np.einsum("ij,ij->i", a, b)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b))
    return np.clip(dots / norms, -1.0, 1.0)


def cosine(u, v) -> float:
    """Cosine similarity, clamped into [-1, 1]; zero vectors are an error."""
    a = _vector(u, "u")
    b = _vector(v, "v")
    if a.size != b.size:
        raise ValidationError(f"length mismatch: {a.size} vs {b.size}")
    return float(_row_cosines(a[None, :], b[None, :], _ZERO_VECTOR, _ZERO_VECTOR)[0])


def scale_similarity(cos, lo: float = 0.0, hi: float = 5.0):
    """Map cosines onto [lo, hi]: lo + max(0, cos) * (hi - lo), elementwise.

    Cosine 1 is the ceiling and cosine 0 the floor; negative cosines clamp
    to the floor rather than extending the scale below it, because the
    similarity tasks have no notion of "less similar than unrelated".
    Takes a number or an array and returns the same kind.
    """
    if not hi > lo:
        raise ValidationError(f"range must satisfy hi > lo, got [{lo}, {hi}]")
    return lo + np.maximum(0.0, cos) * (hi - lo)


def _centered_row(a: np.ndarray) -> np.ndarray:
    """*a* divided by its largest magnitude, then centered, as one row."""
    peak = np.abs(a).max()
    if peak > 0.0:
        a = a / peak  # the mean of samples near the float64 maximum would overflow
    return (a - a.mean())[None, :]


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length samples, clamped into [-1, 1].

    The cosine of the centered samples (two passes) rather than the
    raw-moment arrangement; the two are algebraically equal and the centered
    form does not cancel catastrophically.
    """
    a = _vector(x, "x")
    b = _vector(y, "y")
    if a.size != b.size:
        raise ValidationError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValidationError("need at least two points")
    return float(_row_cosines(
        _centered_row(a), _centered_row(b),
        "zero variance in x; correlation is undefined",
        "zero variance in y; correlation is undefined",
    )[0])


def accuracy(golds, preds) -> float:
    """Percentage of positions where the two label sequences agree, in [0, 100]."""
    golds = list(golds)
    preds = list(preds)
    if len(golds) != len(preds):
        raise ValidationError(f"length mismatch: {len(golds)} vs {len(preds)}")
    if not golds:
        raise ValidationError("need at least one labeled example")
    return 100.0 * (sum(g == p for g, p in zip(golds, preds)) / len(golds))


class EvalReport(NamedTuple):
    """One evaluation outcome: a metric value plus its provenance hash."""

    task: str
    metric: str
    value: float
    n: int
    fingerprint: str


def config_fingerprint(*parts) -> str:
    """Stable hex digest of everything that determined a report.

    Accepts strings, numbers, sequences and numpy arrays; identical inputs
    (including seeds) always hash identically, so a fingerprint match means
    the reports are comparable.
    """
    h = hashlib.sha256()
    tokens: list = []
    _tokens(parts, tokens)
    for text, run in itertools.groupby(tokens, key=lambda token: type(token) is str):
        if text:
            h.update(("\x1f".join(run) + "\x1f").encode())
        else:
            for token in run:
                for piece in token.blocks() if isinstance(token, _Rows) else (token,):
                    h.update(piece)
                h.update(b"\x1f")
    return h.hexdigest()


# The digest hashes a stream of tokens, each followed by 0x1f: the repr of a
# scalar, a bytes value, an array's shape and then its float64 bytes, and
# "(" and ")" around a sequence's items.  Text tokens are hashed as UTF-8.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _tokens(part, out: list) -> None:
    """Append the tokens of *part* to *out*; a sequence of plain scalars becomes one text token."""
    if isinstance(part, (list, tuple)):
        if _PLAIN.issuperset(map(type, part)):
            out.append("\x1f".join(["(", *map(repr, part), ")"]))
        else:
            out.append("(")
            for item in part:
                _tokens(item, out)
            out.append(")")
    elif isinstance(part, bytes):
        out.append(part)
    elif isinstance(part, _Rows):
        out += (str(part.shape), part)
    elif isinstance(part, np.ndarray):
        a = np.ascontiguousarray(part, dtype=np.float64)
        out += (str(a.shape), a)  # the array is hashed through the buffer protocol, not copied
    elif isinstance(part, (str, int, float, bool)) or part is None:
        out.append(repr(part))
    else:
        raise ValidationError(f"cannot fingerprint a {type(part).__name__}")


def format_report_table(reports) -> str:
    """Aligned plain-text table of reports, one line per report."""
    reports = list(reports)
    if not reports:
        raise ValidationError("no reports to format")
    rows = [("task", "metric", "value", "n", "fingerprint")]
    for r in reports:
        rows.append((r.task, r.metric, f"{r.value:.6f}", str(r.n), r.fingerprint[:12]))
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class _Rows:
    """Rows *index* of *vectors*, fingerprinted as the array ``vectors[index]`` but gathered a block at a time."""

    def __init__(self, vectors: np.ndarray, index: np.ndarray):
        self.shape, self._vectors, self._index = (len(index), vectors.shape[1]), vectors, index

    def blocks(self):
        for start in range(0, len(self._index), _COSINE_ROWS):
            yield np.take(self._vectors, self._index[start : start + _COSINE_ROWS], axis=0)


def pair_ids(pairs) -> list[str]:
    """Every id *pairs* mention, once each, in order of first mention."""
    return list(dict.fromkeys(ident for p in pairs for ident in (p.id_a, p.id_b)))


def _pair_cosines(table: EmbeddingTable, pairs: list) -> np.ndarray:
    """Cosine of each pair's two vectors, gathered :data:`_COSINE_ROWS` pairs at a time."""
    rows_a, rows_b = table.indices(p.id_a for p in pairs), table.indices(p.id_b for p in pairs)
    size = min(len(pairs), _COSINE_ROWS)
    u, v = np.empty((size, table.dim)), np.empty((size, table.dim))
    cos = np.empty(len(pairs))
    for start in range(0, len(pairs), size):
        stop = min(start + size, len(pairs))
        np.take(table.vectors, rows_a[start:stop], axis=0, out=u[: stop - start])
        np.take(table.vectors, rows_b[start:stop], axis=0, out=v[: stop - start])
        cos[start:stop] = _row_cosines(u[: stop - start], v[: stop - start], _ZERO_VECTOR, _ZERO_VECTOR)
    return cos


def evaluate_similarity(table: EmbeddingTable, pairs, lo: float = 0.0, hi: float = 5.0,
                        task: str = "sts") -> tuple:
    """Score every pair by scaled cosine of its sentence vectors.

    *table* maps sentence ids to vectors; each pair carries a gold score as
    its label.  The report's fingerprint covers the pairs' :func:`pair_ids`
    and their vectors, hashed as a table of just those rows would be,
    whatever else *table* holds.  Returns (EvalReport
    with the Pearson correlation, rows of (id_a, id_b, gold, predicted)).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no pairs to evaluate")
    ids = pair_ids(pairs)
    index = table.indices(ids)  # an unknown id of any pair is named here
    golds = [_gold_score(p) for p in pairs]
    preds = scale_similarity(_pair_cosines(table, pairs), lo, hi)
    value = pearson(preds, golds)
    rows = [(p.id_a, p.id_b, g, pred) for p, g, pred in zip(pairs, golds, preds.tolist())]
    fingerprint = config_fingerprint(
        task, "pearson", lo, hi,
        [(p.id_a, p.id_b, g) for p, g in zip(pairs, golds)],
        ids, _Rows(table.vectors, index),
    )
    return EvalReport(task, "pearson", value, len(pairs), fingerprint), rows


def _gold_score(p) -> float:
    try:
        return float(p.label)
    except (TypeError, ValueError):
        raise ValidationError(
            f"pair ({p.id_a}, {p.id_b}) has no usable gold score: {p.label!r}"
        ) from None


def evaluate_classification(model, table: EmbeddingTable, pairs, task: str = "classification") -> tuple:
    """Predict a label for every pair with *model*'s pair head and compare to gold.

    *table* maps sentence ids to the model's sentence vectors (see
    :func:`embed_table`); every pair is scored from it in one product.
    Returns (EvalReport with accuracy in percent, rows of (id_a, id_b,
    gold, predicted)).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no pairs to evaluate")
    known = set(model.classes)
    for p in pairs:
        if p.label not in known:
            raise ValidationError(
                f"gold label {p.label!r} is not among the model classes {list(model.classes)}"
            )
    table.indices(pair_ids(pairs))  # an unknown id of any pair is named here
    logits, _ = model.pair_logits(table.lookup(p.id_a for p in pairs), table.lookup(p.id_b for p in pairs))
    preds = [model.classes[k] for k in np.argmax(logits, axis=1)]
    golds = [p.label for p in pairs]
    rows = [(p.id_a, p.id_b, p.label, pred) for p, pred in zip(pairs, preds)]
    value = accuracy(golds, preds)
    fingerprint = config_fingerprint(
        task, "accuracy", model.kind, model.seed,
        [(p.id_a, p.id_b, p.label) for p in pairs],
        [model.params[k] for k in sorted(model.params)],
    )
    return EvalReport(task, "accuracy", value, len(pairs), fingerprint), rows


def embed_table(model, tables, ids) -> EmbeddingTable:
    """Sentence vectors for *ids* computed by a dynamic model, as a table.

    The sentences are sorted by length and embedded one block of
    :data:`~metaembed.lstm.BLOCK_ROWS` at a time, so a block pads little;
    each row is bitwise the vector ``model.embed`` gives that sentence alone.
    """
    from .lstm import BLOCK_ROWS  # the model's own layer: a similarity or probe eval never loads it

    ids = list(ids)
    if not ids:
        raise ValidationError("no ids to embed")
    sentences = [sequence_views(tables, ident) for ident in ids]
    order = sorted(range(len(ids)), key=lambda k: sentences[k][0].shape[0])
    out = np.empty((len(ids), model.dim))
    for start in range(0, len(order), BLOCK_ROWS):
        block = order[start : start + BLOCK_ROWS]
        out[block] = model.embed([sentences[k] for k in block])[0]
    return EmbeddingTable(ids, out)
