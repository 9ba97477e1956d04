"""Bidirectional LSTM with max pooling, forward and backward passes by hand.

The recurrence follows the standard formulation with gates stacked in the
order input, forget, candidate, output:

    z_t = W x_t + U h_{t-1} + b
    i_t = sigmoid(z[:m])      f_t = sigmoid(z[m:2m])
    g_t = tanh(z[2m:3m])      o_t = sigmoid(z[3m:])
    c_t = f_t c_{t-1} + i_t g_t
    h_t = o_t tanh(c_t)

One direction reads each sequence as given, the other reads it reversed, and
the per-step states are concatenated after re-aligning the reversed run, so
``states[t]`` is ``[h_fw_t ; h_bw_t]`` for the original position t.  The
sentence vector is the componentwise max over steps; its gradient flows only
to the argmax step of each component (first occurrence on ties).

Sequences run together, time-major, in padded blocks: :func:`pad` places
sequence k at row k % R of block k // R of an array of shape
(S, nblocks, R, d), with S the longest length and R = :data:`BLOCK_ROWS`,
and records each row's length.  Both directions step together, each with
one stacked matmul per step over all blocks.  The backward direction
reverses every sequence within its own length by a gather over index
arrays, so its padding also sits after its last real step and no real step
ever reads a padded one.  Padded steps are masked to -inf before the max
pool, so they never win the argmax; their gradients come out exactly zero.
Backward passes are exact backpropagation through time; the parameter
gradients are formed once per direction after the time loop, as
``dW = dZᵀX``, ``dU = dZᵀH_prev`` and ``db = ΣdZ``, and the gradients with
respect to the inputs are returned too, so the layer composes with upstream
trainable projections.

The block shape is fixed because OpenBLAS picks its GEMM kernel by shape: a
row multiplied inside matrices of different heights can come out different
in the last bits.  Every product here is a stack of (R, d) blocks, so a
sequence's states do not depend on which other sequences share its blocks,
or where it sits among them, bit for bit.  There is no single-sequence
API: one sequence runs as ``pad([x])``, a block with one used row.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .optim import xavier_uniform

__all__ = ["BiLstm", "BLOCK_ROWS", "pad"]

PARAM_KEYS = ("w_fw", "u_fw", "b_fw", "w_bw", "u_bw", "b_bw")

# rows per block; 32 holds the 2B sentences of a 16-pair minibatch
BLOCK_ROWS = 32


def pad(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of shape (S_k, d) as one zero-padded, time-major block array.

    Returns (x, lengths): x has shape (S, nblocks, BLOCK_ROWS, d) with S the
    longest S_k and sequence k at block k // BLOCK_ROWS, row
    k % BLOCK_ROWS; lengths (nblocks, BLOCK_ROWS) holds each row's length,
    0 for the rows past the last sequence.
    """
    seqs = [np.asarray(s, dtype=np.float64) for s in seqs]
    if not seqs:
        raise ValidationError("need at least one sequence")
    if any(s.ndim != 2 for s in seqs) or len({s.shape[1] for s in seqs}) != 1:
        raise ValidationError("sequences must be 2-dimensional with one shared width")
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.intp)
    if lengths.min() < 1:
        raise ValidationError("sequence must have at least one step")
    count = len(seqs)
    nblocks = -(-count // BLOCK_ROWS)
    rows = np.repeat(np.arange(count), lengths)
    steps = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    x = np.zeros((int(lengths.max()), nblocks * BLOCK_ROWS, seqs[0].shape[1]))
    x[steps, rows] = np.concatenate(seqs)
    row_lengths = np.zeros(nblocks * BLOCK_ROWS, dtype=np.intp)
    row_lengths[:count] = lengths
    return x.reshape(x.shape[0], nblocks, BLOCK_ROWS, -1), row_lengths.reshape(nblocks, BLOCK_ROWS)


def _sigmoid(z: np.ndarray) -> None:
    """The logistic function 1 / (1 + exp(-z)), in place.

    Where exp(-z) overflows to inf the result is 0, its limit; callers
    silence that overflow.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _reverse(a: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """*a* (S, nblocks, R, k) with every row reversed within its own length.

    *rev* maps each flat (step, block, row) position to its source position.
    """
    return np.take(a.reshape(-1, a.shape[-1]), rev, axis=0).reshape(a.shape)


def _gate_gradients(act, c, tc, dh_seq, u):
    """dZ (2, S, nblocks, R, 4m) by backpropagation through time, written over *act*."""
    m = c.shape[-1]
    gates = act.reshape(act.shape[:-1] + (4, m))
    dh_next = np.zeros_like(dh_seq[:, 0])
    dc_next = np.zeros_like(dh_next)
    for step in range(act.shape[1] - 1, -1, -1):
        i, f, g, o = (gates[:, step, ..., k, :] for k in range(4))
        tc_t = tc[:, step]
        dh = dh_seq[:, step] + dh_next
        dc = dh * o * (1.0 - tc_t * tc_t) + dc_next
        d_o = dh * tc_t * o * (1.0 - o)
        d_i = dc * g * i * (1.0 - i)
        d_g = dc * i * (1.0 - g * g)
        d_f = dc * c[:, step - 1] * f * (1.0 - f) if step else 0.0
        dc_next = dc * f
        i[...] = d_i
        f[...] = d_f
        g[...] = d_g
        o[...] = d_o
        dh_next = act[:, step] @ u
    return act


class BiLstm:
    """A bidirectional LSTM layer over blocks of (S, in_dim) sequences from :func:`pad`."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        if in_dim < 1 or hidden < 1:
            raise ValidationError(f"in_dim and hidden must be positive, got {in_dim}, {hidden}")
        self.in_dim = in_dim
        self.hidden = hidden
        self.p = {}
        for direction in ("fw", "bw"):
            b = np.zeros(4 * hidden)
            b[hidden : 2 * hidden] = 1.0  # open the forget gate at init
            self.p[f"w_{direction}"] = xavier_uniform(rng, 4 * hidden, in_dim)
            self.p[f"u_{direction}"] = xavier_uniform(rng, 4 * hidden, hidden)
            self.p[f"b_{direction}"] = b

    def _stacked(self, key: str) -> np.ndarray:
        """Parameter *key* of both directions, forward first: shape (2, ...)."""
        return np.stack([self.p[f"{key}_fw"], self.p[f"{key}_bw"]])

    def forward_blocks(self, x, lengths):
        """Per-step states (S, nblocks, R, 2*hidden) for blocks from :func:`pad`, plus a cache.

        States at padded steps are finite but meaningless.
        """
        x = np.asarray(x, dtype=np.float64)
        lengths = np.asarray(lengths)
        if x.ndim != 4 or x.shape[2] != BLOCK_ROWS or x.shape[3] != self.in_dim:
            raise ValidationError(
                f"expected blocks of shape (S, nblocks, {BLOCK_ROWS}, {self.in_dim}), got {x.shape}"
            )
        if lengths.shape != x.shape[1:3]:
            raise ValidationError(f"lengths of shape {lengths.shape} for blocks of shape {x.shape}")
        m = self.hidden
        steps = x.shape[0]
        t = np.arange(steps)[:, None, None]
        valid = t < lengths
        cell = np.arange(lengths.size).reshape(lengths.shape)
        rev = (np.where(valid, lengths - 1 - t, t) * lengths.size + cell).reshape(-1)
        act = np.empty((2,) + x.shape[:-1] + (4 * m,))
        np.matmul(x, self.p["w_fw"].T, out=act[0])
        np.matmul(_reverse(x, rev), self.p["w_bw"].T, out=act[1])
        act += self._stacked("b")[:, None, None, None]
        u_t = np.ascontiguousarray(self._stacked("u").transpose(0, 2, 1))[:, None]
        c = np.empty(act.shape[:-1] + (m,))
        tc = np.empty_like(c)
        h = np.empty_like(c)
        h_prev = np.zeros(c.shape[:1] + c.shape[2:])
        c_prev = np.zeros_like(h_prev)
        with np.errstate(over="ignore"):
            for step in range(steps):
                z = act[:, step]
                z += h_prev @ u_t
                g = z[..., 2 * m : 3 * m]
                np.tanh(g, out=g)
                _sigmoid(z[..., : 2 * m])
                _sigmoid(z[..., 3 * m :])
                np.multiply(z[..., m : 2 * m], c_prev, out=c[:, step])
                c[:, step] += z[..., :m] * g
                np.tanh(c[:, step], out=tc[:, step])
                np.multiply(z[..., 3 * m :], tc[:, step], out=h[:, step])
                h_prev = h[:, step]
                c_prev = c[:, step]
        states = np.concatenate([h[0], _reverse(h[1], rev)], axis=-1)
        # what the backward pass needs; shapes (2, S, nblocks, R, k) hold both directions
        cache = {"valid": valid, "rev": rev, "x": x, "act": act, "c": c, "tc": tc, "h": h}
        return states, cache

    def backward_blocks(self, cache, d_states):
        """Gradients for one :meth:`forward_blocks` call.

        Returns (dx, grads): dx has the input's block shape and is exactly
        zero at padded steps; grads uses the same keys as ``self.p``.  A
        cache serves one backward pass, which overwrites and releases it.
        """
        m = self.hidden
        return self._backward(cache, np.stack([d_states[..., :m], _reverse(d_states[..., m:], cache["rev"])]))

    def _backward(self, cache, dh_seq):
        """:meth:`backward_blocks` for state gradients (2, S, nblocks, R, m),
        each direction's half in the order that direction read its input."""
        m = self.hidden
        # arrays leave the cache as soon as they are used: peak memory, not
        # time, is what the block layout costs
        dz = _gate_gradients(cache.pop("act"), cache.pop("c"), cache.pop("tc"), dh_seq,
                             self._stacked("u")[:, None])
        du = dz[:, 1:].reshape(2, -1, 4 * m).transpose(0, 2, 1) @ cache.pop("h")[:, :-1].reshape(2, -1, m)
        dz = dz.reshape(2, -1, 4 * m)
        db = dz.sum(axis=1)
        x, rev = cache["x"], cache["rev"]
        grads = {
            "w_fw": dz[0].T @ x.reshape(-1, self.in_dim), "u_fw": du[0], "b_fw": db[0],
            "w_bw": dz[1].T @ _reverse(x, rev).reshape(-1, self.in_dim), "u_bw": du[1], "b_bw": db[1],
        }
        dx = (dz[0] @ self.p["w_fw"]).reshape(x.shape)
        dx += _reverse((dz[1] @ self.p["w_bw"]).reshape(x.shape), rev)
        return dx, grads

    def encode_blocks(self, x, lengths):
        """Max-pooled vectors (nblocks, R, 2*hidden) plus a cache; empty rows read -inf."""
        states, cache = self.forward_blocks(x, lengths)
        states[~cache["valid"]] = -np.inf
        return states.max(axis=0), (cache, np.argmax(states, axis=0))

    def encode_backward_blocks(self, enc_cache, d_vecs):
        """Gradients for one :meth:`encode_blocks` call; see :meth:`backward_blocks`."""
        cache, argmax = enc_cache
        m = self.hidden
        valid = cache["valid"]
        # empty rows (past the last sequence) take no gradient
        d_vecs = np.where(valid[0, ..., None], d_vecs, 0.0)
        # flat (step, block, row) position of each component's argmax
        at = argmax * valid[0].size + np.arange(valid[0].size).reshape(valid[0].shape + (1,))
        dh = np.zeros((2, valid.size, m))
        dh[0, at[..., :m], np.arange(m)] = d_vecs[..., :m]
        # the backward direction read step t as step rev[t] of its own run
        dh[1, cache["rev"][at[..., m:]], np.arange(m)] = d_vecs[..., m:]
        return self._backward(cache, dh.reshape((2,) + valid.shape + (m,)))
