"""Trained dynamic combiners: attention-weighted mixtures of sources.

Where the ensemble combiners fix one linear map for the whole vocabulary,
the dynamic combiners decide per token how much each source contributes.
For a sentence with token views w_ij (source i, position j):

    projected   m_ij  = P_i w_ij + b_i            (shared width d')
    plain gate  l_ij  = a . m_ij + beta           ("dme")
    contextual  l_ij  = a . h_ij + beta           ("cdme"; h_ij from one
                                                   shared BiLSTM run over
                                                   each source's m_i1..m_iS)
    attention   alpha_.j = softmax over sources of l_.j
    combined    e_j   = sum_i alpha_ij m_ij

The combined sequence feeds a max-pooled BiLSTM sentence encoder; a sentence
pair (u, v) is classified from [u; v; |u-v|; u*v] with a softmax layer and
trained by cross-entropy.  All gradients are derived by hand and exact,
including full backpropagation through both LSTMs, so they can be verified
coordinate-by-coordinate against finite differences.

The attention vector ``a`` and the gate bias start at zero, which makes the
initial mixture exactly uniform over sources; training breaks the symmetry
through the gradient on ``a``.

Sentences run in batches.  :meth:`DynamicModel.embed` takes a list of
sentences and keeps them in the padded, time-major block layout of
:mod:`metaembed.lstm` from the projections through the pooled vectors; the
cdme attention recurrence runs over every source of every sentence as one
batch.  :meth:`DynamicModel.loss_and_grads` embeds a minibatch's 2B
sentences in one call and runs the pair head as one matrix product.
Because every product works on fixed-shape blocks, a sentence's vector is
the same, bit for bit, whichever sentences share its batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteLossError, ValidationError
from .lstm import PARAM_KEYS, BiLstm, pad
from .modelio import read_model, write_model
from .optim import Adam, seeded_rngs, xavier_uniform
from .probes import pair_features

__all__ = ["DynamicModel", "new_dynamic_model", "TrainConfig", "train_dynamic", "DEFAULT_ATT_HIDDEN"]

KINDS = ("dme", "cdme")
DEFAULT_ATT_HIDDEN = 2

# independent random streams per component, all spawned from one seed; the
# same table is used at init and in training so the streams never collide
_RNG_COMPONENTS = ("proj", "att", "enc", "head", "shuffle")

# the hyperparameter fields of a DME or CDME file, in order
_FIELDS = ("n", "dims", "proj", "att", "enc", "seed", "classes")


def _check_classes(classes) -> tuple[str, ...]:
    out = tuple(classes)
    if len(out) < 2:
        raise ValidationError(f"need at least two class labels, got {len(out)}")
    seen = set()
    for c in out:
        if not isinstance(c, str) or not c or any(ch.isspace() for ch in c):
            raise ValidationError(f"class label {c!r} must be a non-empty string without whitespace")
        if c in seen:
            raise ValidationError(f"duplicate class label {c!r}")
        seen.add(c)
    return out


class _Mixture(NamedTuple):
    """The attention stage of K sentences in the block layout of :func:`metaembed.lstm.pad`."""

    count: int
    xs: list                # per source: token views, (S, nblocks, R, width)
    lengths: np.ndarray     # (nblocks, R)
    proj: np.ndarray        # (S, n, nblocks, R, d')
    states: np.ndarray | None  # cdme: attention-recurrence states, (S, n * nblocks, R, 2 att_hidden)
    att_cache: dict | None
    alpha: np.ndarray       # (S, n, nblocks, R)
    combined: np.ndarray    # (S, nblocks, R, d')


class DynamicModel:
    """A DME or CDME combiner plus its sentence-pair classifier."""

    def __init__(self, kind: str, dims, classes, proj_dim: int, enc_hidden: int,
                 att_hidden: int | None = None, seed: int = 0):
        if kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise ValidationError(f"need at least one source with a positive width, got {self.dims}")
        self.classes = _check_classes(classes)
        if proj_dim < 1 or enc_hidden < 1:
            raise ValidationError(f"proj_dim and enc_hidden must be positive, got {proj_dim}, {enc_hidden}")
        self.proj_dim = int(proj_dim)
        self.enc_hidden = int(enc_hidden)
        if kind == "cdme":
            self.att_hidden = DEFAULT_ATT_HIDDEN if att_hidden is None else int(att_hidden)
            if self.att_hidden < 1:
                raise ValidationError(f"att_hidden must be positive, got {att_hidden}")
        else:
            if att_hidden is not None:
                raise ValidationError("att_hidden only applies to cdme")
            self.att_hidden = None
        self.seed = int(seed)

        rngs = seeded_rngs(self.seed, _RNG_COMPONENTS)
        n = len(self.dims)
        c = len(self.classes)
        # the insertion order is the block order of the model file
        self.params: dict[str, np.ndarray] = {}
        for i, d in enumerate(self.dims):
            self.params[f"p{i}"] = xavier_uniform(rngs["proj"], self.proj_dim, d)
        self.params["bias"] = np.zeros((n, self.proj_dim))
        att_in = 2 * self.att_hidden if kind == "cdme" else self.proj_dim
        self.params["att_a"] = np.zeros(att_in)
        self.params["att_beta"] = np.zeros(1)
        if kind == "cdme":
            self.att_lstm = BiLstm(self.proj_dim, self.att_hidden, rngs["att"])
            for key in PARAM_KEYS:
                self.params[f"att_{key}"] = self.att_lstm.p[key]
        else:
            self.att_lstm = None
        self.encoder = BiLstm(self.proj_dim, self.enc_hidden, rngs["enc"])
        for key in PARAM_KEYS:
            self.params[f"enc_{key}"] = self.encoder.p[key]
        self.params["head_w"] = xavier_uniform(rngs["head"], c, 8 * self.enc_hidden)
        self.params["head_b"] = np.zeros(c)

    @property
    def dim(self) -> int:
        """Width of a sentence vector."""
        return 2 * self.enc_hidden

    @property
    def magic(self) -> str:
        return self.kind.upper()

    def _check_sentence(self, views) -> list[np.ndarray]:
        """The views as float arrays; :meth:`_mix` checks that their entries are finite."""
        mats = [np.asarray(v, dtype=np.float64) for v in views]
        if len(mats) != len(self.dims):
            raise ValidationError(f"model expects {len(self.dims)} sources, got {len(mats)}")
        for i, (m, d) in enumerate(zip(mats, self.dims)):
            if m.ndim != 2:
                raise ValidationError(f"source {i} must be 2-dimensional, got ndim={m.ndim}")
            if m.shape[1] != d:
                raise ValidationError(f"source {i} has width {m.shape[1]}, model expects {d}")
        lengths = {m.shape[0] for m in mats}
        if len(lengths) != 1:
            raise ValidationError(f"sources disagree on sequence length: {sorted(lengths)}")
        return mats

    def _mix(self, sentences) -> _Mixture:
        """Projections, attention weights and combined sequences of K sentences."""
        sentences = [self._check_sentence(views) for views in sentences]
        if not sentences:
            raise ValidationError("need at least one sentence")
        n = len(self.dims)
        xs = []
        for i in range(n):
            x, lengths = pad([views[i] for views in sentences])
            if not np.isfinite(x).all():
                raise ValidationError(f"source {i} contains non-finite entries")
            xs.append(x)
        steps, nblocks, rows = xs[0].shape[:3]
        proj = np.empty((steps, n, nblocks, rows, self.proj_dim))
        for i in range(n):
            proj[:, i] = xs[i] @ self.params[f"p{i}"].T + self.params["bias"][i]
        a = self.params["att_a"]
        beta = self.params["att_beta"][0]
        if self.kind == "dme":
            states = None
            att_cache = None
            logits = proj @ a + beta
        else:
            # one batch over every source of every sentence
            att_in = proj.reshape(steps, n * nblocks, rows, self.proj_dim)
            states, att_cache = self.att_lstm.forward_blocks(att_in, np.tile(lengths, (n, 1)))
            logits = (states @ a + beta).reshape(steps, n, nblocks, rows)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        alpha = shifted / shifted.sum(axis=1, keepdims=True)
        combined = (alpha[..., None] * proj).sum(axis=1)
        return _Mixture(len(sentences), xs, lengths, proj, states, att_cache, alpha, combined)

    def embed(self, sentences):
        """Vectors (K, 2*enc_hidden) for K sentences, plus the backward cache.

        Each sentence is a list of per-source token views, one (S, width)
        matrix per source.  The sentences run together in padded blocks
        (see :mod:`metaembed.lstm`); a sentence's vector does not depend on
        which other sentences it is embedded with, bit for bit.
        """
        mix = self._mix(sentences)
        vecs, enc_cache = self.encoder.encode_blocks(mix.combined, mix.lengths)
        return vecs.reshape(-1, self.dim)[: mix.count], (mix, enc_cache)

    def embed_backward(self, cache, d_vecs, grads) -> None:
        """Accumulate gradients of one embed() call into *grads*; *d_vecs* is (K, 2*enc_hidden).

        A cache serves one backward pass (see :meth:`metaembed.lstm.BiLstm.backward_blocks`).
        """
        mix, enc_cache = cache
        proj, alpha = mix.proj, mix.alpha
        steps, n, nblocks, rows, width = proj.shape
        d_pooled = np.zeros((nblocks * rows, self.dim))
        d_pooled[: mix.count] = d_vecs
        d_comb, enc_grads = self.encoder.encode_backward_blocks(
            enc_cache, d_pooled.reshape(nblocks, rows, self.dim))
        for key, g in enc_grads.items():
            grads[f"enc_{key}"] += g
        d_proj = alpha[..., None] * d_comb[:, None]
        d_alpha = np.einsum("sbrd,snbrd->snbr", d_comb, proj)
        inner = np.sum(alpha * d_alpha, axis=1, keepdims=True)
        d_logits = alpha * (d_alpha - inner)
        grads["att_beta"][0] += d_logits.sum()
        a = self.params["att_a"]
        if self.kind == "dme":
            grads["att_a"] += d_logits.reshape(-1) @ proj.reshape(-1, width)
            d_proj += d_logits[..., None] * a
        else:
            grads["att_a"] += d_logits.reshape(-1) @ mix.states.reshape(-1, a.size)
            d_states = d_logits.reshape(steps, n * nblocks, rows)[..., None] * a
            d_in, att_grads = self.att_lstm.backward_blocks(mix.att_cache, d_states)
            d_proj += d_in.reshape(d_proj.shape)
            for key, g in att_grads.items():
                grads[f"att_{key}"] += g
        for i, x in enumerate(mix.xs):
            d_rows = d_proj[:, i].reshape(-1, width)
            grads[f"p{i}"] += d_rows.T @ x.reshape(-1, x.shape[-1])
            grads["bias"][i] += d_rows.sum(axis=0)

    def attention(self, views) -> np.ndarray:
        """Per-token source weights of one sentence, shape (S, n sources); rows sum to 1."""
        return self._mix([views]).alpha[:, :, 0, 0].copy()

    def pair_logits(self, u, v):
        """Class logits (B, classes) for the sentence vectors u, v of B pairs, plus the features.

        The features are :func:`~metaembed.probes.pair_features`, shape (B, 8*enc_hidden).
        """
        z = pair_features(u, v)
        return z @ self.params["head_w"].T + self.params["head_b"], z

    def predict_proba(self, views_a, views_b) -> np.ndarray:
        """Class probabilities for one sentence pair, ordered like ``classes``."""
        vecs, _ = self.embed([views_a, views_b])
        logits = self.pair_logits(vecs[:1], vecs[1:])[0][0]
        shifted = np.exp(logits - logits.max())
        return shifted / shifted.sum()

    def loss_and_grads(self, batch):
        """Mean cross-entropy over (views_a, views_b, label_index) triples.

        The batch's 2B sentences are embedded in one call and the pair head
        runs as one matrix product.  Returns (loss, grads) with one gradient
        array per parameter; grads for parameters with no influence on the
        batch come out exactly zero.
        """
        batch = list(batch)
        if not batch:
            raise ValidationError("batch must contain at least one example")
        labels = np.array([int(label) for _, _, label in batch])
        bad = labels[(labels < 0) | (labels >= len(self.classes))]
        if bad.size:
            raise ValidationError(f"label index {bad[0]} out of range for {len(self.classes)} classes")
        size = len(batch)
        grads = {key: np.zeros_like(p) for key, p in self.params.items()}
        vecs, cache = self.embed([views_a for views_a, _, _ in batch] + [views_b for _, views_b, _ in batch])
        u, v = vecs[:size], vecs[size:]
        logits, z = self.pair_logits(u, v)
        top = logits.max(axis=1, keepdims=True)
        lse = top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
        picked = np.arange(size)
        scale = 1.0 / size
        loss = float(np.sum(lse[:, 0] - logits[picked, labels])) * scale
        d_logits = np.exp(logits - lse)
        d_logits[picked, labels] -= 1.0
        d_logits *= scale
        grads["head_w"] += d_logits.T @ z
        grads["head_b"] += d_logits.sum(axis=0)
        dz = d_logits @ self.params["head_w"]
        dzu, dzv, dza, dzp = np.split(dz, 4, axis=1)
        sign = np.sign(u - v)
        self.embed_backward(cache, np.vstack([dzu + sign * dza + v * dzp, dzv - sign * dza + u * dzp]), grads)
        return loss, grads

    def describe(self) -> list[str]:
        """The ``info`` lines after the kind line."""
        att = [f"att_hidden {self.att_hidden}"] if self.kind == "cdme" else []
        return [f"sources {len(self.dims)}", "widths " + " ".join(map(str, self.dims)),
                f"proj_dim {self.proj_dim}", f"enc_hidden {self.enc_hidden}", *att, f"seed {self.seed}",
                f"sentence_dim {self.dim}", "classes " + " ".join(self.classes)]

    def save(self, path) -> None:
        values = (len(self.dims), self.dims, self.proj_dim, self.att_hidden or 0, self.enc_hidden,
                  self.seed, self.classes)
        write_model(path, self.magic, zip(_FIELDS, values), self.params.items())

    @classmethod
    def load(cls, path) -> "DynamicModel":
        mf = read_model(path, ("DME", "CDME"), _FIELDS)
        kind = mf.magic.lower()
        n, dims = mf.one("n"), mf.ints("dims")
        if n != len(dims):
            raise ValidationError(f"{path}: hyperparameter line claims {n} sources but lists {len(dims)} widths")
        att = mf.one("att")
        if kind == "dme" and att != 0:
            raise ValidationError(f"{path}: a DME model must record att 0, got {att}")
        model = mf.build(cls, kind, dims, mf.fields["classes"], mf.one("proj"), mf.one("enc"),
                         att if kind == "cdme" else None, seed=mf.one("seed"))
        mf.expect_blocks(model.params)
        for key, p in model.params.items():
            block, expected = mf.blocks[key], np.atleast_2d(p).shape
            if block.shape != expected:
                raise ValidationError(f"{path}: block {key!r} has shape {block.shape}, expected {expected}")
            p[...] = block.reshape(p.shape)
        return model


def new_dynamic_model(kind: str, dims, classes, proj_dim: int, enc_hidden: int,
                      att_hidden: int | None = None, seed: int = 0) -> DynamicModel:
    """Freshly initialized model; same arguments and seed give identical parameters."""
    return DynamicModel(kind, dims, classes, proj_dim, enc_hidden, att_hidden, seed=seed)


class TrainConfig(NamedTuple):
    """Hyperparameters for :func:`train_dynamic`: Adam at rate ``lr`` with
    its default betas, minibatches of ``batch_size`` pairs, and an order
    shuffled afresh each epoch from ``seed``.  ``epochs`` = 0 is a valid
    no-op (parameters untouched).
    """

    epochs: int
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0


def train_dynamic(model: DynamicModel, examples, config: TrainConfig) -> list[float]:
    """Minibatch Adam training; returns the mean loss of each epoch.

    *examples* is a sequence of (views_a, views_b, label_index) triples.
    The shuffle order is driven by ``config.seed`` alone, so a rerun with
    the same seed and data reproduces the parameter trajectory exactly.  A
    non-finite batch loss aborts with :class:`NonFiniteLossError`.
    """
    if config.epochs < 0:
        raise ValidationError(f"epochs must be non-negative, got {config.epochs}")
    if not config.lr > 0:
        raise ValidationError(f"learning rate must be positive, got {config.lr}")
    if config.batch_size < 1:
        raise ValidationError(f"batch_size must be positive, got {config.batch_size}")
    examples = list(examples)
    if not examples:
        raise ValidationError("no training examples")
    rng = seeded_rngs(config.seed, _RNG_COMPONENTS)["shuffle"]
    adam = Adam(model.params, lr=config.lr)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for b, start in enumerate(range(0, len(examples), config.batch_size)):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise NonFiniteLossError(epoch + 1, b + 1, float(loss))
            adam.step(grads)
            epoch_loss += loss * len(batch)
        history.append(epoch_loss / len(examples))
    return history
