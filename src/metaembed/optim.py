"""Shared training machinery: Adam, seeded init, finite-difference checks.

Parameters live in ordered ``{label: ndarray}`` dicts owned by the model;
the optimizer updates them in place.  Random state is derived from a single
integer seed through ``numpy.random.SeedSequence.spawn``, which gives every
component an independent stream without manual offset bookkeeping.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = ["Adam", "seed_sequence", "seeded_rngs", "xavier_uniform", "GradCheckReport", "gradient_check"]


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """The root of every random stream drawn from *seed*, a non-negative integer."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed)


def seeded_rngs(seed: int, labels) -> dict[str, np.random.Generator]:
    """One independent Generator per label, all derived from *seed*."""
    labels = list(labels)
    children = seed_sequence(seed).spawn(len(labels))
    return {lab: np.random.default_rng(child) for lab, child in zip(labels, children)}


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform init on [-a, a] with a = sqrt(6 / (rows + cols))."""
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


class Adam:
    """Adam with bias correction; defaults beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValidationError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        """Apply one update from *grads* (same labels and shapes as params)."""
        if set(grads) != set(self.params):
            raise ValidationError("gradient labels do not match parameter labels")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for key, p in self.params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ValidationError(f"gradient for {key!r} has shape {g.shape}, expected {p.shape}")
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class GradCheckReport(NamedTuple):
    max_rel_err: float
    worst_param: str
    worst_index: int
    n_checked: int
    per_block: dict


def gradient_check(func: Callable[[], tuple[float, dict]], params: dict, *,
                   epsilon: float = 1e-5, per_block_cap: int = 200,
                   seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    *func* evaluates the current ``params`` and returns (loss, grads).  For
    each parameter block up to *per_block_cap* coordinates are drawn without
    replacement and perturbed by +/- epsilon; the relative error for a
    coordinate is |ga - gn| / max(1e-8, |ga| + |gn|).  Every block is
    represented in the checked set.

    A coordinate where both gradients sit below 1e-10 counts as matching.
    At that magnitude the difference quotient is dominated by rounding in
    the two loss evaluations, so the relative error would measure float
    noise, not the derivation; the case comes up for parameters the loss
    provably cannot depend on, such as a bias shared by every branch of a
    softmax.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValidationError(f"epsilon must be in [1e-7, 1e-4], got {epsilon}")
    _, analytic = func()
    rng = np.random.default_rng(seed)
    worst = (0.0, "", 0)
    per_block: dict[str, float] = {}
    n_checked = 0
    for label, p in params.items():
        flat = p.reshape(-1)
        ga_flat = analytic[label].reshape(-1)
        n = min(flat.size, per_block_cap)
        coords = rng.choice(flat.size, size=n, replace=False)
        block_worst = 0.0
        for idx in coords:
            saved = flat[idx]
            flat[idx] = saved + epsilon
            plus, _ = func()
            flat[idx] = saved - epsilon
            minus, _ = func()
            flat[idx] = saved
            gn = (plus - minus) / (2.0 * epsilon)
            ga = ga_flat[idx]
            if abs(ga) < 1e-10 and abs(gn) < 1e-10:
                rel = 0.0
            else:
                rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
            if rel > block_worst:
                block_worst = rel
            if rel > worst[0]:
                worst = (rel, label, int(idx))
            n_checked += 1
        per_block[label] = block_worst
    return GradCheckReport(worst[0], worst[1], worst[2], n_checked, per_block)
