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

Each rule is checked once, while its row is parsed, and a failure names the
file and line.  The evaluation tasks are :data:`TASKS`; each has a score
range in :data:`TASK_RANGES` or a class inventory in :data:`TASK_CLASSES`.

Splits are stored as index tuples into the pair list.  Canonical files
carry no split information; use :func:`random_splits` to draw a
deterministic seeded partition when a task needs one.  Encoding and line
ends follow :mod:`metaembed.textio`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .optim import seed_sequence
from .store import sequence_views
from .textio import read_lines

__all__ = [
    "Pair",
    "Splits",
    "PairDataset",
    "TASK_RANGES",
    "TASK_CLASSES",
    "TASKS",
    "load_dataset",
    "load_pair_dataset_tsv",
    "load_class_dataset_tsv",
    "load_sick_official",
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

    def split_pairs(self, part: str) -> list:
        """Pairs of one split, e.g. ``split_pairs("train")``."""
        if self.splits is None:
            raise ValidationError(f"dataset {self.name!r} has no splits")
        if part not in SPLIT_NAMES:
            raise ValidationError(f"split must be one of {SPLIT_NAMES}, got {part!r}")
        return [self.pairs[i] for i in getattr(self.splits, part)]


def _check_id(token: str, path, lineno: int, column: str) -> str:
    if token.split() != [token]:  # empty, or holds whitespace
        raise FileFormatError(path, lineno, f"bad {column} value {token!r}")
    return token


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
    return raw


def _is_official(lines) -> bool:
    """Whether *lines* open with an official export's header."""
    return bool(lines) and lines[0].split("\t")[0] == "pair_ID"


def _canonical(path, lines, score_range=None, classes=None) -> PairDataset:
    """The dataset of a canonical file's *lines*.

    Labels are scores inside *score_range* or members of *classes*; with
    neither, the classes are the file's own labels, sorted.
    """
    if score_range is not None:
        lo, hi = float(score_range[0]), float(score_range[1])
        if not np.isfinite(lo) or not np.isfinite(hi) or not hi > lo:
            raise ValidationError(f"score range must satisfy hi > lo, got [{lo}, {hi}]")
    pairs = []
    for i, line in enumerate(lines, start=1):
        row = line.split("\t")
        if row == [""]:
            continue
        if len(row) != 5:
            raise FileFormatError(path, i, f"expected 5 tab-separated columns, got {len(row)}")
        id_a = _check_id(row[0], path, i, "id_a")
        id_b = _check_id(row[1], path, i, "id_b")
        label = row[2]
        if score_range is not None:
            label = _score(label, lo, hi, path, i)
        elif classes is not None:
            label = _label(label, classes, path, i)
        pairs.append(Pair(id_a, id_b, label))
    if not pairs:
        raise FileFormatError(path, max(1, len(lines)), "no pair rows")
    if score_range is not None:
        return PairDataset(str(path), "score", tuple(pairs), lo, hi, None, None)
    classes = tuple(sorted({p.label for p in pairs}) if classes is None else classes)
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise ValidationError(f"{path}: need at least two distinct classes, got {list(classes)}")
    return PairDataset(str(path), "classes", tuple(pairs), None, None, classes, None)


def _official(path, lines) -> tuple:
    """The (scores, classes) datasets of an official export's *lines*."""
    if not lines or lines == [""]:
        raise FileFormatError(path, 1, "empty file; expected a header line")
    header = lines[0].split("\t")
    if not _is_official(lines):
        raise FileFormatError(path, 1, f"expected a header starting with 'pair_ID', got {header[0]!r}")
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
    for i, line in enumerate(lines[1:], start=2):
        row = line.split("\t")
        if row == [""]:
            continue
        if len(row) != len(header):
            raise FileFormatError(path, i, f"expected {len(header)} fields, got {len(row)}")
        pid = _check_id(row[col["pair_ID"]], path, i, "pair_ID")
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
        raise FileFormatError(path, max(1, len(lines)), "no pair rows")
    splits = Splits(*(tuple(by_split[part]) for part in SPLIT_NAMES)) if has_split else None
    return (PairDataset(str(path), "score", tuple(score_pairs), lo, hi, None, splits),
            PairDataset(str(path), "classes", tuple(class_pairs), None, None, entailment, splits))


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
    lines = read_lines(path)
    if not _is_official(lines):
        return _canonical(path, lines, TASK_RANGES.get(task), TASK_CLASSES.get(task))
    if task in TASK_CLASSES and task != "sick-e":
        raise ValidationError(
            f"an official export carries relatedness scores and entailment classes; "
            f"task {task!r} needs a canonical file"
        )
    scores, classes = _official(path, lines)
    return scores if task in TASK_RANGES else classes


def load_pair_dataset_tsv(path, *, score_range=None, classes=None) -> PairDataset:
    """Parse a canonical pair TSV against a declared label kind.

    Give exactly one of *score_range* (a (lo, hi) tuple; every label must be
    a number inside it) or *classes* (an inventory every label must belong
    to).  Returns a dataset without splits; draw them with
    :func:`random_splits` if the task needs a partition.
    """
    if (score_range is None) == (classes is None):
        raise ValidationError("give exactly one of score_range or classes")
    return _canonical(path, read_lines(path), score_range, None if classes is None else tuple(classes))


def load_class_dataset_tsv(path) -> PairDataset:
    """Parse a canonical class-labeled TSV whose classes are its own labels.

    The class inventory is the file's distinct labels, sorted.  Returns a
    dataset without splits.
    """
    return _canonical(path, read_lines(path))


def load_sick_official(path) -> tuple:
    """Parse an official relatedness corpus export into two datasets.

    Returns (scores, classes): the same pairs labeled once with their
    relatedness score in [1, 5] and once with their entailment class.  Both
    share ids and (when the file carries SemEval_set) splits.
    """
    return _official(path, read_lines(path))


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
