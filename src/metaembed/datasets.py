"""Labeled sentence-pair datasets.

Two tab-separated layouts are read:

* canonical: no header, exactly five columns per line,
  ``id_a  id_b  label  sent_a  sent_b``.  The label column holds a score
  (for score datasets, validated against a declared [lo, hi] range) or a
  class name (validated against a declared class set).  The sentence
  columns document what the ids refer to; the models never read them,
  because sentences reach the pipeline pre-embedded and keyed by id.
* official relatedness corpus export: a header line starting with
  ``pair_ID`` and carrying sentence_A, sentence_B, relatedness_score and
  entailment_judgment columns, optionally SemEval_set.  One file yields two
  datasets over the same pairs: scores in [1, 5] and entailment classes.
  Sentence ids are derived as ``<pair_ID>_A`` and ``<pair_ID>_B``.
  SemEval_set values TRAIN/TRIAL/TEST map to train/dev/test splits.

Splits are stored as index tuples into the pair list.  Canonical files
carry no split information; use :func:`random_splits` to draw a
deterministic seeded partition when a task needs one.  Encoding, line ends
and atomic writes follow :mod:`metaembed.textio`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .optim import seed_sequence
from .store import sequence_views
from .textio import fmt, read_lines, write_lines

__all__ = [
    "Pair",
    "Splits",
    "PairDataset",
    "TASK_CLASSES",
    "score_dataset",
    "class_dataset",
    "load_pair_dataset_tsv",
    "load_class_dataset_tsv",
    "save_pair_dataset_tsv",
    "load_sick_official",
    "random_splits",
    "make_pair_examples",
]

SPLIT_NAMES = ("train", "dev", "test")

# class inventories for the named evaluation tasks
TASK_CLASSES = {
    "sick-e": ("ENTAILMENT", "NEUTRAL", "CONTRADICTION"),
    "nli": ("entailment", "neutral", "contradiction"),
    "paraphrase": ("paraphrase", "not_paraphrase"),
}

_OFFICIAL_SPLITS = {"TRAIN": "train", "TRIAL": "dev", "TEST": "test"}
_OFFICIAL_RANGE = (1.0, 5.0)


class Pair(NamedTuple):
    id_a: str
    id_b: str
    label: object  # float for score datasets, str for class datasets


class Splits(NamedTuple):
    """Disjoint index tuples into a dataset's pair list."""

    train: tuple
    dev: tuple
    test: tuple


class PairDataset(NamedTuple):
    name: str
    kind: str  # "score" or "classes"
    pairs: tuple
    lo: float | None
    hi: float | None
    classes: tuple | None
    splits: Splits | None
    sentences: tuple  # (sent_a, sent_b) per pair, documentation only

    def split_pairs(self, part: str) -> list:
        """Pairs of one split, e.g. ``split_pairs("train")``."""
        if self.splits is None:
            raise ValidationError(f"dataset {self.name!r} has no splits")
        if part not in SPLIT_NAMES:
            raise ValidationError(f"split must be one of {SPLIT_NAMES}, got {part!r}")
        return [self.pairs[i] for i in getattr(self.splits, part)]


def _check_pair_ids(pairs):
    for k, p in enumerate(pairs):
        for ident in (p.id_a, p.id_b):
            if not isinstance(ident, str) or not ident or any(ch.isspace() for ch in ident):
                raise ValidationError(f"pair {k} has a bad id {ident!r}")


def _check_splits(splits, n: int) -> Splits | None:
    if splits is None:
        return None
    splits = Splits(tuple(splits.train), tuple(splits.dev), tuple(splits.test))
    seen = set()
    for name, part in zip(SPLIT_NAMES, splits):
        for i in part:
            if not 0 <= i < n:
                raise ValidationError(f"{name} split index {i} out of range for {n} pairs")
            if i in seen:
                raise ValidationError(f"pair index {i} appears in more than one split")
            seen.add(i)
    return splits


def _check_sentences(sentences, n: int) -> tuple:
    if sentences is None:
        return tuple(("-", "-") for _ in range(n))
    sentences = tuple((str(a), str(b)) for a, b in sentences)
    if len(sentences) != n:
        raise ValidationError(f"{len(sentences)} sentence pairs for {n} pairs")
    return sentences


def score_dataset(name, pairs, lo: float, hi: float, splits=None, sentences=None) -> PairDataset:
    """Build a score-labeled dataset, validating every label against [lo, hi]."""
    if not np.isfinite(lo) or not np.isfinite(hi) or not hi > lo:
        raise ValidationError(f"score range must satisfy hi > lo, got [{lo}, {hi}]")
    pairs = tuple(Pair(p.id_a, p.id_b, float(p.label)) for p in pairs)
    if not pairs:
        raise ValidationError("dataset has no pairs")
    _check_pair_ids(pairs)
    for k, p in enumerate(pairs):
        if not np.isfinite(p.label) or not lo <= p.label <= hi:
            raise ValidationError(f"pair {k} score {p.label} outside [{lo}, {hi}]")
    return PairDataset(str(name), "score", pairs, float(lo), float(hi), None,
                       _check_splits(splits, len(pairs)), _check_sentences(sentences, len(pairs)))


def class_dataset(name, pairs, classes, splits=None, sentences=None) -> PairDataset:
    """Build a class-labeled dataset, validating every label against *classes*."""
    classes = tuple(classes)
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise ValidationError(f"need at least two distinct classes, got {list(classes)}")
    pairs = tuple(Pair(p.id_a, p.id_b, p.label) for p in pairs)
    if not pairs:
        raise ValidationError("dataset has no pairs")
    _check_pair_ids(pairs)
    known = set(classes)
    for k, p in enumerate(pairs):
        if p.label not in known:
            raise ValidationError(f"pair {k} label {p.label!r} is not in {list(classes)}")
    return PairDataset(str(name), "classes", pairs, None, None, classes,
                       _check_splits(splits, len(pairs)), _check_sentences(sentences, len(pairs)))


def _check_id(token: str, path, lineno: int, column: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise FileFormatError(path, lineno, f"bad {column} value {token!r}")
    return token


def _parse_canonical_rows(path):
    """Rows of (lineno, id_a, id_b, label, sent_a, sent_b); blank lines skipped."""
    rows = [line.split("\t") for line in read_lines(path)]
    out = []
    for i, row in enumerate(rows, start=1):
        if row == [""]:
            continue
        if len(row) != 5:
            raise FileFormatError(path, i, f"expected 5 tab-separated columns, got {len(row)}")
        id_a = _check_id(row[0], path, i, "id_a")
        id_b = _check_id(row[1], path, i, "id_b")
        out.append((i, id_a, id_b, row[2], row[3], row[4]))
    if not out:
        raise FileFormatError(path, max(1, len(rows)), "no pair rows")
    return out


def load_pair_dataset_tsv(path, *, score_range=None, classes=None, name=None) -> PairDataset:
    """Parse a canonical pair TSV against a declared label kind.

    Give exactly one of *score_range* (a (lo, hi) tuple; every label must be
    a number inside it) or *classes* (an inventory every label must belong
    to).  Returns a dataset without splits; draw them with
    :func:`random_splits` if the task needs a partition.
    """
    if (score_range is None) == (classes is None):
        raise ValidationError("give exactly one of score_range or classes")
    name = str(path) if name is None else str(name)
    rows = _parse_canonical_rows(path)
    if score_range is not None:
        pairs = []
        sentences = []
        lo, hi = float(score_range[0]), float(score_range[1])
        if not hi > lo:
            raise ValidationError(f"score range must satisfy hi > lo, got [{lo}, {hi}]")
        for lineno, id_a, id_b, label, sent_a, sent_b in rows:
            try:
                value = float(label)
            except ValueError:
                raise FileFormatError(path, lineno, f"could not parse score {label!r}") from None
            if not np.isfinite(value) or not lo <= value <= hi:
                raise FileFormatError(path, lineno, f"score {label} outside [{lo:g}, {hi:g}]")
            pairs.append(Pair(id_a, id_b, value))
            sentences.append((sent_a, sent_b))
        return score_dataset(name, pairs, lo, hi, sentences=sentences)
    return _class_rows_dataset(path, rows, tuple(classes), name)


def load_class_dataset_tsv(path) -> PairDataset:
    """Parse a canonical class-labeled TSV whose classes are its own labels.

    The class inventory is the file's distinct labels, sorted.  Returns a
    dataset without splits.
    """
    rows = _parse_canonical_rows(path)
    return _class_rows_dataset(path, rows, _distinct_labels(rows), str(path))


def _class_rows_dataset(path, rows, inventory: tuple, name: str) -> PairDataset:
    known = set(inventory)
    pairs = []
    sentences = []
    for lineno, id_a, id_b, label, sent_a, sent_b in rows:
        if label not in known:
            raise FileFormatError(
                path, lineno, f"unknown class {label!r}; expected one of {', '.join(inventory)}"
            )
        pairs.append(Pair(id_a, id_b, label))
        sentences.append((sent_a, sent_b))
    return class_dataset(name, pairs, inventory, sentences=sentences)


def save_pair_dataset_tsv(path, dataset: PairDataset) -> None:
    """Write a dataset in the canonical five-column layout."""
    out = []
    for p, (sent_a, sent_b) in zip(dataset.pairs, dataset.sentences):
        label = fmt(p.label) if dataset.kind == "score" else p.label
        out.append("\t".join([p.id_a, p.id_b, label, sent_a, sent_b]))
    write_lines(path, out)


def _distinct_labels(rows) -> tuple:
    return tuple(sorted({row[3] for row in rows}))


def load_sick_official(path, name: str = "sick") -> tuple:
    """Parse an official relatedness corpus export into two datasets.

    Returns (scores, classes): the same pairs labeled once with their
    relatedness score in [1, 5] and once with their entailment class.  Both
    share ids, sentences and (when the file carries SemEval_set) splits.
    """
    rows = [line.split("\t") for line in read_lines(path)]
    if not rows or rows == [[""]]:
        raise FileFormatError(path, 1, "empty file; expected a header line")
    header = rows[0]
    if header[0] != "pair_ID":
        raise FileFormatError(path, 1, f"expected a header starting with 'pair_ID', got {header[0]!r}")
    required = ["pair_ID", "sentence_A", "sentence_B", "relatedness_score", "entailment_judgment"]
    missing = [c for c in required if c not in header]
    if missing:
        raise FileFormatError(path, 1, f"official header is missing column(s) {', '.join(missing)}")
    col = {name_: header.index(name_) for name_ in header}
    has_split = "SemEval_set" in col
    lo, hi = _OFFICIAL_RANGE
    entailment = TASK_CLASSES["sick-e"]
    score_pairs = []
    class_pairs = []
    sentences = []
    split_of = []
    for i, row in enumerate(rows[1:], start=2):
        if row == [""]:
            continue
        if len(row) != len(header):
            raise FileFormatError(path, i, f"expected {len(header)} fields, got {len(row)}")
        pid = _check_id(row[col["pair_ID"]], path, i, "pair_ID")
        raw_score = row[col["relatedness_score"]]
        try:
            value = float(raw_score)
        except ValueError:
            raise FileFormatError(path, i, f"could not parse score {raw_score!r}") from None
        if not np.isfinite(value) or not lo <= value <= hi:
            raise FileFormatError(path, i, f"score {raw_score} outside [{lo:g}, {hi:g}]")
        label = row[col["entailment_judgment"]]
        if label not in entailment:
            raise FileFormatError(
                path, i, f"unknown entailment class {label!r}; expected one of {', '.join(entailment)}"
            )
        if has_split:
            raw = row[col["SemEval_set"]]
            if raw not in _OFFICIAL_SPLITS:
                raise FileFormatError(path, i, f"unknown SemEval_set value {raw!r}")
            split_of.append(_OFFICIAL_SPLITS[raw])
        id_a, id_b = f"{pid}_A", f"{pid}_B"
        score_pairs.append(Pair(id_a, id_b, value))
        class_pairs.append(Pair(id_a, id_b, label))
        sentences.append((row[col["sentence_A"]], row[col["sentence_B"]]))
    if not score_pairs:
        raise FileFormatError(path, max(1, len(rows)), "no pair rows")
    splits = None
    if has_split:
        by = {part: [] for part in SPLIT_NAMES}
        for idx, part in enumerate(split_of):
            by[part].append(idx)
        splits = Splits(tuple(by["train"]), tuple(by["dev"]), tuple(by["test"]))
    scores = score_dataset(name, score_pairs, lo, hi, splits=splits, sentences=sentences)
    classes = class_dataset(name, class_pairs, entailment, splits=splits, sentences=sentences)
    return scores, classes


def random_splits(n: int, seed: int = 0, ratios=(0.7, 0.1, 0.2)) -> Splits:
    """Deterministic seeded train/dev/test partition of indices 0..n-1.

    A permutation keyed by *seed* assigns floor(ratios[0] n) indices to
    train and floor(ratios[1] n) to dev; the remainder is test.
    """
    if n < 1:
        raise ValidationError(f"need at least one pair to split, got {n}")
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must be three non-negative numbers summing to 1, got {ratios}")
    rng = np.random.default_rng(seed_sequence(seed))
    order = rng.permutation(n)
    n_train = int(n * ratios[0])
    n_dev = int(n * ratios[1])
    return Splits(
        tuple(int(i) for i in order[:n_train]),
        tuple(int(i) for i in order[n_train : n_train + n_dev]),
        tuple(int(i) for i in order[n_train + n_dev :]),
    )


def make_pair_examples(dataset: PairDataset, tables, indices=None) -> list[tuple]:
    """Resolve class-labeled pairs into (views_a, views_b, label_index) triples.

    *indices* restricts to a subset (e.g. one split); None takes every pair.
    """
    if dataset.kind != "classes":
        raise ValidationError(f"dataset {dataset.name!r} is {dataset.kind}-labeled, need classes")
    index = {c: i for i, c in enumerate(dataset.classes)}
    chosen = range(len(dataset.pairs)) if indices is None else indices
    examples = []
    for i in chosen:
        p = dataset.pairs[i]
        examples.append(
            (sequence_views(tables, p.id_a), sequence_views(tables, p.id_b), index[p.label])
        )
    return examples
