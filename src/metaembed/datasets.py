"""Labeled sentence-pair datasets and the tasks that read them.

Two tab-separated layouts are read; :func:`load_dataset` tells them apart
by their first line:

* canonical: no header, exactly five columns per line,
  ``id_a  id_b  label  sent_a  sent_b``.  The label column holds a score
  (for score datasets, validated against a declared [lo, hi] range) or a
  class name (validated against a declared class set).  The sentence
  columns document what the ids refer to; the readers skip them, because
  sentences reach the pipeline pre-embedded and keyed by id.
* official relatedness corpus export: a header line whose first field is
  exactly ``pair_ID`` and carrying sentence_A, sentence_B, relatedness_score
  and entailment_judgment columns, optionally SemEval_set.  One file yields
  two datasets over the same pairs: scores in [1, 5] and entailment classes.
  Sentence ids are derived as ``<pair_ID>_A`` and ``<pair_ID>_B``.
  SemEval_set values TRAIN/TRIAL/TEST map to train/dev/test splits.

The file is read once through :class:`~metaembed.textio.Lines`, about 64 KiB
of text at a time, and each row is parsed as its chunk arrives, so a load
holds the dataset it builds and one chunk of text, never every line.  Each
rule is checked once, while its row is parsed, and a failure names the file
and line.  The evaluation tasks are :data:`TASKS`; each has a score
range in :data:`TASK_RANGES` or a class inventory in :data:`TASK_CLASSES`.

Splits are stored as int64 index arrays into the pair list.  Canonical files
carry no split information; use :func:`random_splits` to draw a
deterministic seeded partition when a task needs one.  Encoding and line
ends follow :mod:`metaembed.textio`.
"""

from __future__ import annotations

import itertools
import sys
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .optim import seed_sequence
from .store import sequence_views
from .textio import Lines

__all__ = [
    "Pair",
    "Splits",
    "PairDataset",
    "TASK_RANGES",
    "TASK_CLASSES",
    "TASKS",
    "load_dataset",
    "random_splits",
    "make_pair_examples",
]

SPLIT_NAMES = ("train", "dev", "test")

# score ranges of the score-labeled tasks and class inventories of the class-labeled ones
TASK_RANGES = {"sts": (0.0, 5.0), "sick-r": (1.0, 5.0)}
TASK_CLASSES = {
    "sick-e": ("ENTAILMENT", "NEUTRAL", "CONTRADICTION"),
    "nli": ("entailment", "neutral", "contradiction"),
    "paraphrase": ("paraphrase", "not_paraphrase"),
}
TASKS = (*TASK_RANGES, *TASK_CLASSES)

_OFFICIAL_SPLITS = {"TRAIN": "train", "TRIAL": "dev", "TEST": "test"}


class Pair(NamedTuple):
    id_a: str
    id_b: str
    label: object  # float for score datasets, str for class datasets


class Splits(NamedTuple):
    """Disjoint int64 index arrays into a dataset's pair list."""

    train: np.ndarray
    dev: np.ndarray
    test: np.ndarray


class PairDataset(NamedTuple):
    name: str
    kind: str  # "score" or "classes"
    pairs: tuple
    lo: float | None
    hi: float | None
    classes: tuple | None
    splits: Splits | None
    digest: str | None = None  # the sha256 of the file it was read from

    def split_pairs(self, part: str) -> list:
        """Pairs of one split, e.g. ``split_pairs("train")``."""
        if self.splits is None:
            raise ValidationError(f"dataset {self.name!r} has no splits")
        if part not in SPLIT_NAMES:
            raise ValidationError(f"split must be one of {SPLIT_NAMES}, got {part!r}")
        return [self.pairs[i] for i in getattr(self.splits, part)]


def _check_id(token: str, seen: dict, path, lineno: int, column: str) -> str:
    """*token* as the one string *seen* keeps for it, checked when first seen."""
    kept = seen.get(token)
    if kept is None:
        if token.split() != [token]:  # empty, or holds whitespace
            raise FileFormatError(path, lineno, f"bad {column} value {token!r}")
        kept = seen[token] = token
    return kept


def _score(raw: str, lo: float, hi: float, path, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise FileFormatError(path, lineno, f"could not parse score {raw!r}") from None
    if not np.isfinite(value) or not lo <= value <= hi:
        raise FileFormatError(path, lineno, f"score {raw} outside [{lo:g}, {hi:g}]")
    return value


def _label(raw: str, inventory: tuple, path, lineno: int, what: str = "class") -> str:
    if raw not in inventory:
        raise FileFormatError(path, lineno, f"unknown {what} {raw!r}; expected one of {', '.join(inventory)}")
    return inventory[inventory.index(raw)]  # the inventory's own string, stored once


def _canonical(lines: Lines, parts, score_range=None, classes=None) -> PairDataset:
    """The dataset of a canonical file, whose lines come in *parts* from *lines*.

    Labels are scores inside *score_range* or members of *classes*; with
    neither, the classes are the file's own labels, sorted.  Each distinct
    id and class label is stored as one string.
    """
    path = lines.path
    if score_range is not None:
        lo, hi = score_range
    pairs = []
    ids: dict = {}
    labels: dict = {}
    for part in parts:
        for i, line in enumerate(part, start=lines.count - len(part) + 1):
            row = line.split("\t")
            if row == [""]:
                continue
            if len(row) != 5:
                raise FileFormatError(path, i, f"expected 5 tab-separated columns, got {len(row)}")
            id_a = _check_id(row[0], ids, path, i, "id_a")
            id_b = _check_id(row[1], ids, path, i, "id_b")
            label = row[2]
            if score_range is not None:
                label = _score(label, lo, hi, path, i)
            elif classes is not None:
                label = _label(label, classes, path, i)
            else:
                label = labels.setdefault(label, label)
            pairs.append(Pair(id_a, id_b, label))
    if not pairs:
        raise FileFormatError(path, max(1, lines.count), "no pair rows")
    if score_range is not None:
        return PairDataset(str(path), "score", tuple(pairs), lo, hi, None, None, lines.digest())
    classes = tuple(sorted({p.label for p in pairs}) if classes is None else classes)
    if len(classes) < 2:
        raise ValidationError(f"{path}: need at least two distinct classes, got {list(classes)}")
    return PairDataset(str(path), "classes", tuple(pairs), None, None, classes, None, lines.digest())


def _official(lines: Lines, header: list, parts) -> tuple:
    """The (scores, classes) datasets of an official export with *header*, whose rows come in *parts*."""
    path = lines.path
    required = ["pair_ID", "sentence_A", "sentence_B", "relatedness_score", "entailment_judgment"]
    missing = [c for c in required if c not in header]
    if missing:
        raise FileFormatError(path, 1, f"official header is missing column(s) {', '.join(missing)}")
    col = {name: header.index(name) for name in header}
    has_split = "SemEval_set" in col
    lo, hi = TASK_RANGES["sick-r"]
    entailment = TASK_CLASSES["sick-e"]
    score_pairs = []
    class_pairs = []
    by_split = {part: [] for part in SPLIT_NAMES}
    pair_ids: dict = {}
    for part in parts:
        for i, line in enumerate(part, start=lines.count - len(part) + 1):
            row = line.split("\t")
            if row == [""]:
                continue
            if len(row) != len(header):
                raise FileFormatError(path, i, f"expected {len(header)} fields, got {len(row)}")
            pid = _check_id(row[col["pair_ID"]], pair_ids, path, i, "pair_ID")
            value = _score(row[col["relatedness_score"]], lo, hi, path, i)
            label = _label(row[col["entailment_judgment"]], entailment, path, i, "entailment class")
            if has_split:
                raw = row[col["SemEval_set"]]
                if raw not in _OFFICIAL_SPLITS:
                    raise FileFormatError(path, i, f"unknown SemEval_set value {raw!r}")
                by_split[_OFFICIAL_SPLITS[raw]].append(len(score_pairs))
            id_a, id_b = f"{pid}_A", f"{pid}_B"
            score_pairs.append(Pair(id_a, id_b, value))
            class_pairs.append(Pair(id_a, id_b, label))
    if not score_pairs:
        raise FileFormatError(path, max(1, lines.count), "no pair rows")
    splits = Splits(*(np.array(by_split[part], dtype=np.int64) for part in SPLIT_NAMES)) if has_split else None
    return (PairDataset(str(path), "score", tuple(score_pairs), lo, hi, None, splits, lines.digest()),
            PairDataset(str(path), "classes", tuple(class_pairs), None, None, entailment, splits, lines.digest()))


def load_dataset(path, task: str | None = None) -> PairDataset:
    """The dataset *task* reads from the canonical file or official export at *path*.

    A canonical file is read against the task's score range or class
    inventory.  An official export gives its relatedness scores for ``sts``
    and ``sick-r`` and its entailment classes for ``sick-e``.  With no
    *task*, the dataset is class-labeled: the export's entailment classes,
    or the canonical file's own sorted distinct labels.
    """
    if task is not None and task not in TASKS:
        raise ValidationError(f"task must be one of {TASKS}, got {task!r}")
    with Lines(path) as lines:
        parts = lines.take(sys.maxsize)
        first = next(parts, [""])  # its first line tells the layouts apart; an empty file has a blank one
        header = first[0].split("\t")
        if header[0] != "pair_ID":
            return _canonical(lines, itertools.chain([first], parts), TASK_RANGES.get(task), TASK_CLASSES.get(task))
        if task in TASK_CLASSES and task != "sick-e":
            raise ValidationError(
                f"an official export carries relatedness scores and entailment classes; "
                f"task {task!r} needs a canonical file"
            )
        scores, classes = _official(lines, header, itertools.chain([first[1:]], parts))
        return scores if task in TASK_RANGES else classes


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
    return Splits(order[:n_train], order[n_train : n_train + n_dev], order[n_train + n_dev :])


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
