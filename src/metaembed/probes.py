"""Linear probes trained on frozen sentence vectors.

A probe is a softmax regression over precomputed features, trained with Adam
in rounds of ``epoch_size`` epochs.  After each round the dev metric is
measured; a round must strictly beat the best seen so far to count as
progress, and training stops after ``tenacity`` non-improving rounds in a
row (or at the ``max_rounds`` safety cap).  The weights that scored best on
dev are restored before the test metric is computed.

Two probe heads are provided:

* classification: one-hot targets, metric accuracy in percent.
* relatedness: a gold score r in [1, 5] becomes a soft target over the
  integer bins 1..5 with mass r - floor(r) on ceil(r) and the rest on
  floor(r); the predicted score is the probability-weighted sum of bin
  values and the metric is Pearson correlation with gold.

Weights start from a seeded Xavier draw rather than zero: an all-zero probe
predicts the same score everywhere, and a constant prediction has no
defined correlation with anything.

Features are the [u; v; |u-v|; u*v] rows of sentence pairs, given as
matrices.  The train split may instead be given as :class:`PairRows`, the
pairs' row indices into a table of sentence vectors: the probe then gathers
each minibatch's features into one reused buffer, so the (n, 4D) matrix is
never built, and the weights are bitwise those trained on that matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteLossError, ValidationError
from .evaluation import accuracy, pearson
from .linalg import as_matrix
from .optim import Adam, seeded_rngs, xavier_uniform
from .store import EmbeddingTable

__all__ = [
    "ProbeConfig",
    "ProbeHistory",
    "ProbeReport",
    "probe_classification",
    "probe_relatedness",
    "relatedness_targets",
    "relatedness_score",
    "pair_features",
    "PairRows",
    "pair_rows",
    "pair_feature_matrix",
]

# probe training rate; large enough that a separable task converges well
# inside one tenacity window of rounds, which the stated protocol relies on
_PROBE_LR = 1e-2
_SCORE_BINS = np.arange(1.0, 6.0)  # integer bin values 1..5
_CHECK_ROWS = 256  # pairs gathered at a time to check train features for overflow


class ProbeConfig(NamedTuple):
    nhid: int = 0
    optimizer: str = "adam"
    batch_size: int = 64
    tenacity: int = 5
    epoch_size: int = 4
    seed: int = 0


class ProbeHistory(NamedTuple):
    rounds: int
    best_round: int
    stopped_early: bool
    dev_curve: list


class ProbeReport(NamedTuple):
    metric: str
    dev: float
    test: float
    n_train: int
    n_dev: int
    n_test: int
    history: ProbeHistory
    test_predictions: list


def _check_config(config: ProbeConfig) -> None:
    if config.nhid != 0:
        raise ValidationError(f"only linear probes are supported (nhid=0), got nhid={config.nhid}")
    if config.optimizer != "adam":
        raise ValidationError(f"unsupported optimizer {config.optimizer!r}")
    if config.batch_size < 1 or config.tenacity < 1 or config.epoch_size < 1:
        raise ValidationError("batch_size, tenacity and epoch_size must be positive")


def _check_features(x, name: str):
    """*x* checked without a copy: a float64 matrix, or PairRows.

    PairRows are gathered a few rows at a time for the check: |u-v| and u*v
    of finite vectors can still overflow.
    """
    if not isinstance(x, PairRows):
        return as_matrix(x, f"{name} features", copy=False)
    rows = _gatherer(x, min(x.shape[0], _CHECK_ROWS))
    for start in range(0, x.shape[0], _CHECK_ROWS):
        if not np.all(np.isfinite(rows(slice(start, start + _CHECK_ROWS)))):
            raise ValidationError(f"{name} features contains non-finite entries")
    return x


def _check_split(x, t, name: str) -> tuple:
    xm = _check_features(x, name)
    tm = np.asarray(t, dtype=np.float64)
    if tm.shape[0] != xm.shape[0]:
        raise ValidationError(f"{name}: {xm.shape[0]} feature rows for {tm.shape[0]} targets")
    return xm, tm


def _weights(flat: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (w, b) of one flat vector holding a (n_out, n_feat) matrix, then n_out biases."""
    return flat[:-n_out].reshape(n_out, -1), flat[-n_out:]


def _train_softmax(train_x, train_t, dev_eval, config: ProbeConfig, max_rounds: int):
    """Shared round-based trainer; returns ((w, b), history)."""
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be positive, got {max_rounds}")
    n, n_feat = train_x.shape
    n_out = train_t.shape[1]
    rngs = seeded_rngs(config.seed, ("weights", "shuffle"))
    # w and b are views of one vector, so one Adam block updates both
    flat = np.zeros(n_out * n_feat + n_out)
    grad = np.empty_like(flat)
    w, b = _weights(flat, n_out)
    grad_w, grad_b = _weights(grad, n_out)
    w[...] = xavier_uniform(rngs["weights"], n_out, n_feat)
    adam = Adam({"wb": flat}, lr=_PROBE_LR)
    batch_rows = _gatherer(train_x, min(n, config.batch_size))
    best_metric = -np.inf
    best = flat.copy()
    best_round = 0
    bad_rounds = 0
    curve = []
    stopped_early = False
    rounds = 0
    for rnd in range(max_rounds):
        for e in range(config.epoch_size):
            order = rngs["shuffle"].permutation(n)
            for b_idx, start in enumerate(range(0, n, config.batch_size)):
                rows = order[start : start + config.batch_size]
                x = batch_rows(rows)
                t = train_t[rows]
                logits = x @ w.T + b
                shifted = logits - logits.max(axis=1, keepdims=True)
                lse = np.log(np.exp(shifted).sum(axis=1))
                loss = float(np.mean(np.sum(t * (lse[:, None] - shifted), axis=1)))
                if not np.isfinite(loss):
                    raise NonFiniteLossError(rnd * config.epoch_size + e + 1, b_idx + 1, loss)
                probs = np.exp(shifted - lse[:, None])
                d_logits = (probs - t) / len(rows)
                np.matmul(d_logits.T, x, out=grad_w)
                np.sum(d_logits, axis=0, out=grad_b)
                adam.step({"wb": grad})
        rounds = rnd + 1
        metric = dev_eval(w, b)
        curve.append(metric)
        if metric > best_metric:
            best_metric = metric
            best[...] = flat
            best_round = rnd
            bad_rounds = 0
        else:
            bad_rounds += 1
        if bad_rounds >= config.tenacity:
            stopped_early = True
            break
    flat[...] = best
    return (w, b), ProbeHistory(rounds, best_round, stopped_early, curve)


def _softmax_rows(x, w, b) -> np.ndarray:
    logits = x @ w.T + b
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def probe_classification(train_x, train_labels, dev_x, dev_labels, test_x, test_labels,
                         classes, config: ProbeConfig = ProbeConfig(),
                         max_rounds: int = 200) -> ProbeReport:
    """Train a label probe; metric is accuracy in percent on dev and test."""
    _check_config(config)
    classes = tuple(classes)
    if len(classes) < 2:
        raise ValidationError(f"need at least two classes, got {len(classes)}")
    index = {c: i for i, c in enumerate(classes)}

    def onehot(labels, name):
        labels = list(labels)
        t = np.zeros((len(labels), len(classes)))
        for k, lab in enumerate(labels):
            if lab not in index:
                raise ValidationError(f"{name} label {lab!r} is not in the class set {list(classes)}")
            t[k, index[lab]] = 1.0
        return t

    tx, tt = _check_split(train_x, onehot(train_labels, "train"), "train")
    dx, dt = _check_split(dev_x, onehot(dev_labels, "dev"), "dev")
    sx, st = _check_split(test_x, onehot(test_labels, "test"), "test")
    present = set(train_labels)
    absent = [c for c in classes if c not in present]
    if absent:
        raise ValidationError(f"class {absent[0]!r} has no examples in the train split")

    def dev_metric(w, b):
        pred = np.argmax(dx @ w.T + b, axis=1)
        return accuracy(np.argmax(dt, axis=1).tolist(), pred.tolist())

    (w, b), history = _train_softmax(tx, tt, dev_metric, config, max_rounds)
    dev = dev_metric(w, b)
    test_pred = np.argmax(sx @ w.T + b, axis=1)
    test = accuracy(np.argmax(st, axis=1).tolist(), test_pred.tolist())
    predictions = [classes[i] for i in test_pred]
    return ProbeReport("accuracy", dev, test, tx.shape[0], len(dx), len(sx), history, predictions)


def relatedness_targets(scores) -> np.ndarray:
    """Soft targets over the bins 1..5 for gold scores in [1, 5]."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise ValidationError("no scores")
    if not np.all(np.isfinite(s)) or np.any(s < 1.0) or np.any(s > 5.0):
        raise ValidationError("relatedness scores must be finite and within [1, 5]")
    t = np.zeros((s.size, _SCORE_BINS.size))
    low = np.floor(s).astype(int)
    frac = s - low
    rows = np.arange(s.size)
    t[rows, low - 1] = 1.0 - frac
    up = frac > 0.0
    t[rows[up], low[up]] = frac[up]
    return t


def relatedness_score(probs) -> np.ndarray:
    """Probability-weighted bin value, the probe's predicted score."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if p.shape[1] != _SCORE_BINS.size:
        raise ValidationError(f"expected {_SCORE_BINS.size} bin probabilities, got {p.shape[1]}")
    return p @ _SCORE_BINS


def probe_relatedness(train_x, train_scores, dev_x, dev_scores, test_x, test_scores,
                      config: ProbeConfig = ProbeConfig(), max_rounds: int = 200) -> ProbeReport:
    """Train a score probe; metric is Pearson correlation on dev and test."""
    _check_config(config)
    tx, tt = _check_split(train_x, relatedness_targets(train_scores), "train")
    dx, _ = _check_split(dev_x, relatedness_targets(dev_scores), "dev")
    sx, _ = _check_split(test_x, relatedness_targets(test_scores), "test")
    dev_gold = np.asarray(dev_scores, dtype=np.float64).reshape(-1)
    test_gold = np.asarray(test_scores, dtype=np.float64).reshape(-1)

    def dev_metric(w, b):
        return pearson(relatedness_score(_softmax_rows(dx, w, b)), dev_gold)

    (w, b), history = _train_softmax(tx, tt, dev_metric, config, max_rounds)
    dev = dev_metric(w, b)
    test_pred = relatedness_score(_softmax_rows(sx, w, b))
    test = pearson(test_pred, test_gold)
    return ProbeReport("pearson", dev, test, tx.shape[0], len(dx), len(sx), history, test_pred.tolist())


def pair_features(u, v, out=None) -> np.ndarray:
    """Features [u; v; |u-v|; u*v] (B, 4D) of B pairs from their sentence vectors u, v (B, D).

    They are written into *out* when it is given; *u* and *v* may already be
    views of its first two quarters.
    """
    if out is None:
        out = np.empty((u.shape[0], 4 * u.shape[1]))
    _fill_features(np.hsplit(out, 4), u, v)
    return out


def _fill_features(quarters, u, v) -> None:
    a, b, dist, prod = quarters
    a[...] = u  # a no-op when u is a
    b[...] = v
    np.abs(np.subtract(u, v, out=dist), out=dist)
    np.multiply(u, v, out=prod)


class PairRows(NamedTuple):
    """Sentence pairs as row indices into one (N, D) matrix of sentence vectors.

    Stands in for the pairs' :func:`pair_feature_matrix` as a probe's train
    features; ``shape`` is that matrix's shape.
    """

    vectors: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], 4 * self.vectors.shape[1])


def pair_rows(table: EmbeddingTable, pairs) -> PairRows:
    """Each pair's two row indices into *table*'s vectors."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no pairs")
    return PairRows(table.vectors, table.indices(p.id_a for p in pairs),
                    table.indices(p.id_b for p in pairs))


def _gatherer(x, size: int):
    """A function from row picks (at most *size*) to the feature rows of *x* at them.

    A matrix is indexed; PairRows are gathered into one reused (size, 4D)
    buffer, whose leading rows come back.
    """
    if not isinstance(x, PairRows):
        return x.__getitem__
    out = np.empty((size, x.shape[1]))
    quarters = np.hsplit(out, 4)

    def rows(picks):
        a, b = x.a[picks], x.b[picks]
        _fill_features([q[: len(a)] for q in quarters], x.vectors[a], x.vectors[b])
        return out[: len(a)]

    return rows


def pair_feature_matrix(table: EmbeddingTable, pairs) -> np.ndarray:
    """:func:`pair_features` for each pair's sentence vectors in *table*."""
    rows = pair_rows(table, pairs)
    return _gatherer(rows, rows.shape[0])(slice(None))
