"""Fixed ensemble combiners over aligned embedding views.

A "view" is one source's (n, d_i) matrix for a shared row order of n items.
Three combiners are provided:

* concatenation: [x_1; ...; x_m], width k = sum(d_i), no fitting.
* SVD compression: center the concatenation, keep the top right-singular
  directions, project, and L2-normalize each row.  Similarity between the
  unit rows is their dot product.  The fit scales the centered (n, k)
  matrix by the power of two that puts its largest magnitude in [0.5, 1),
  so the model is exact under power-of-two scaling of the inputs.  From
  n >= 11k/6 rows (gesdd's crossover, where gesdd itself would factor
  A = QR first) it never forms that matrix: it streams the k x k factor R
  of a QR over row blocks built from the views (TSQR) and takes R's SVD.
* generalized CCA: per-view linear maps into one shared d-dimensional space,
  found from the generalized eigenproblem  C theta = rho B theta  where B is
  the block diagonal of regularized per-view covariances and C holds the
  cross-view covariance blocks (diagonal blocks zeroed), solved by whitening
  each view: theta_j = L_j^-T u_j with L_j L_j^T = B_j.  Each centered view
  is scaled by a power of two first, as in the SVD fit, so the model is
  exact under power-of-two scaling of a view.  When the total width k is at
  most n, B and C come from the k x k Gram matrix of the scaled, centered
  concatenation, accumulated over row blocks built from the views.  When
  k > n, a view wider than the n rows is solved on its n whitened row-space
  coordinates (a QR rotation); its other coordinates are exact rho = 0
  pairs, so the eigensolve is of size sum(min(d_i, n)) rather than k.
  Applying the model sums the per-view projections of the centered inputs.

Covariances use the population divisor n.  The per-view regularizer adds
(tau / d_i) * trace(cov_i) to every diagonal entry of cov_i, so tau is a
dimension-free knob; tau=10 is the default used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, ValidationError
from .linalg import (
    as_matrix,
    cholesky,
    column_means_and_center,
    l2_normalize_rows,
    lead_signs,
    sym_eig_desc,
    thin_svd,
)
from .modelio import read_model, write_model
from .textio import fmt, fmt_row

__all__ = ["concat_views", "SvdMetaModel", "fit_svd_meta", "GccaModel", "fit_gcca", "DEFAULT_TAU"]

DEFAULT_TAU = 10.0

# a view whose centered entries all sit below this (relative) level carries
# no usable variance and would make the GCCA metric singular
_CONSTANT_VIEW_TOL = 1e-12


def _check_views(views, min_views: int, min_rows: int = 1) -> list[np.ndarray]:
    mats = [as_matrix(v, f"view {i}") for i, v in enumerate(views)]
    if len(mats) < min_views:
        raise ValidationError(f"need at least {min_views} view(s), got {len(mats)}")
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValidationError(f"views disagree on row count: {sorted(rows)}")
    if mats[0].shape[0] < min_rows:
        raise ValidationError(f"need at least {min_rows} rows, got {mats[0].shape[0]}")
    return mats


def _check_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or min(out) < 1:
        raise ValidationError(f"view widths must be positive integers, got {out}")
    return out


def _check_tau(tau) -> float:
    tau = float(tau)
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError(f"tau must be finite and non-negative, got {tau}")
    return tau


def _check_widths(mats: list[np.ndarray], dims) -> None:
    if len(mats) != len(dims):
        raise ValidationError(f"model expects {len(dims)} views, got {len(mats)}")
    for i, (m, d) in enumerate(zip(mats, dims)):
        if m.shape[1] != d:
            raise ValidationError(f"view {i} has width {m.shape[1]}, model expects {d}")


def concat_views(views) -> np.ndarray:
    """Row-wise concatenation of the views; output width is the sum of widths."""
    mats = _check_views(views, min_views=1)
    return np.hstack(mats)


class SvdMetaModel:
    """Centered-concatenation SVD compressor with unit-norm output rows."""

    MAGIC = "SVDMETA"

    def __init__(self, dims, mean, projection, singular_values):
        self.dims = _check_dims(dims)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.projection = np.asarray(projection, dtype=np.float64)
        self.singular_values = np.asarray(singular_values, dtype=np.float64)
        k = sum(self.dims)
        if self.mean.shape != (k,):
            raise ValidationError(f"mean must have shape ({k},), got {self.mean.shape}")
        if self.projection.shape[0] != k:
            raise ValidationError(
                f"projection must have {k} rows, got {self.projection.shape[0]}"
            )
        if self.singular_values.shape != (self.projection.shape[1],):
            raise ValidationError("one singular value per kept direction is required")

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    def apply(self, views) -> np.ndarray:
        """Project aligned views to (n, dim) unit-norm meta-embeddings."""
        mats = _check_views(views, min_views=1)
        _check_widths(mats, self.dims)
        x = np.hstack(mats)
        x -= self.mean
        x = x @ self.projection  # the (n, k) buffer is freed before the rows are normalized
        return l2_normalize_rows(x)

    def describe(self) -> list[str]:
        """The ``info`` lines after the kind line."""
        return [f"views {len(self.dims)}", "widths " + " ".join(map(str, self.dims)), f"dim {self.dim}",
                "singular_values " + fmt_row(self.singular_values)]

    def save(self, path) -> None:
        write_model(path, self.MAGIC, [("dims", self.dims)],
                    [("mean", self.mean), ("proj", self.projection), ("sing", self.singular_values)])

    @classmethod
    def load(cls, path) -> "SvdMetaModel":
        mf = read_model(path, (cls.MAGIC,), ["dims"])
        mf.expect_blocks(["mean", "proj", "sing"])
        return mf.build(cls, mf.ints("dims"), mf.row("mean"), mf.blocks["proj"], mf.row("sing"))


def _mean_and_top(m: np.ndarray) -> tuple[np.ndarray, float]:
    """A view's two-sweep column means and its largest centered magnitude; the centered copy is dropped."""
    mu, c = column_means_and_center(m)
    return mu, max(c.max(), -c.min())


def _row_blocks(n: int, k: int) -> list[slice]:
    """Row blocks of max(k, ceil(n / 16)) rows, which depends only on the shape, covering n rows."""
    step = max(k, -(-n // 16))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _scaled_block(mats, means, exponents, rows: slice) -> np.ndarray:
    """*rows* of the views side by side, each less its column means and scaled by 2**-e."""
    return np.hstack([np.ldexp(m[rows] - mu, -e) for m, mu, e in zip(mats, means, exponents)])


def fit_svd_meta(views, dim: int) -> SvdMetaModel:
    """Fit the SVD compressor on aligned views; 1 <= dim <= min(n, k).

    From n = 11k/6 rows on, R of the centered concatenation's QR is streamed
    over row blocks built from the views, each step factoring R stacked on the
    next block; R's singular values and right singular vectors are the matrix's.
    """
    mats = _check_views(views, min_views=1, min_rows=2)
    n, k = mats[0].shape[0], sum(m.shape[1] for m in mats)
    if not 1 <= dim <= min(n, k):
        raise ValidationError(f"dim must be in [1, {min(n, k)}] for {n} rows of width {k}, got {dim}")
    if n < 11 * k // 6:
        x = np.hstack(mats)
        mean, centered = column_means_and_center(x)
        del x  # not held through the factorization
        # exact power-of-two equilibration: the largest magnitude lands in [0.5, 1)
        e = int(np.frexp(max(centered.max(), -centered.min()))[1])
        np.ldexp(centered, -e, out=centered)
    else:
        means, tops = zip(*map(_mean_and_top, mats))
        mean, e = np.concatenate(means), int(np.frexp(max(tops))[1])
        centered = np.empty((0, k))  # R of the rows so far, stacked on each next block
        for rows in _row_blocks(n, k):
            block = _scaled_block(mats, means, [e] * len(mats), rows)
            centered = np.linalg.qr(np.vstack([centered, block]), mode="r")
    _, s, v = thin_svd(centered)
    return SvdMetaModel([m.shape[1] for m in mats], mean, v[:, :dim].copy(), np.ldexp(s[:dim], e))


class GccaModel:
    """Per-view linear maps into a shared space, summed at apply time.

    ``residual_ratio``: the fit's largest residual over its bound; not saved, so None when loaded.
    """

    MAGIC = "GCCA"

    def __init__(self, dims, tau, means, projections, eigenvalues, residual_ratio=None):
        self.residual_ratio = residual_ratio
        self.dims = _check_dims(dims)
        self.tau = _check_tau(tau)
        self.means = [np.asarray(m, dtype=np.float64) for m in means]
        self.projections = [np.asarray(p, dtype=np.float64) for p in projections]
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        if not (len(self.dims) == len(self.means) == len(self.projections)):
            raise ValidationError("dims, means and projections must line up one per view")
        for j, d in enumerate(self.dims):
            if self.means[j].shape != (d,):
                raise ValidationError(f"mean {j} must have shape ({d},), got {self.means[j].shape}")
            if self.projections[j].shape != (d, self.dim):
                raise ValidationError(
                    f"projection {j} must have shape ({d}, {self.dim}), "
                    f"got {self.projections[j].shape}"
                )
        if self.eigenvalues.shape != (self.dim,):
            raise ValidationError(f"eigenvalues must have shape ({self.dim},), got {self.eigenvalues.shape}")

    @property
    def dim(self) -> int:
        return self.projections[0].shape[1]

    def apply(self, views) -> np.ndarray:
        """Sum of per-view projections of the centered inputs, shape (n, dim)."""
        mats = _check_views(views, min_views=1)
        _check_widths(mats, self.dims)
        out = np.zeros((mats[0].shape[0], self.dim))
        for m, mu, proj in zip(mats, self.means, self.projections):
            out += (m - mu) @ proj
        return out

    def describe(self) -> list[str]:
        """The ``info`` lines after the kind line."""
        return [f"views {len(self.dims)}", "widths " + " ".join(map(str, self.dims)), f"dim {self.dim}",
                f"tau {fmt(self.tau)}", "eigenvalues " + fmt_row(self.eigenvalues)]

    def save(self, path) -> None:
        blocks = []
        for j in range(len(self.dims)):
            blocks.append((f"mean{j}", self.means[j]))
            blocks.append((f"proj{j}", self.projections[j]))
        blocks.append(("eigs", self.eigenvalues))
        write_model(path, self.MAGIC, [("dims", self.dims), ("tau", self.tau)], blocks)

    @classmethod
    def load(cls, path) -> "GccaModel":
        mf = read_model(path, (cls.MAGIC,), ["dims", "tau"])
        views = range(len(mf.fields["dims"]))
        mf.expect_blocks([f"mean{j}" for j in views] + [f"proj{j}" for j in views] + ["eigs"])
        means = [mf.row(f"mean{j}") for j in views]
        projections = [mf.blocks[f"proj{j}"] for j in views]
        return mf.build(cls, mf.ints("dims"), mf.one("tau", float), means, projections, mf.row("eigs"))


def _gcca_metric(gram: np.ndarray, n: int, tau: float) -> np.ndarray:
    """One view's block of the GCCA metric from its Gram block c.T @ c over n rows: the covariance
    plus (tau / d) trace on the diagonal."""
    block = gram / n
    block[np.diag_indices(block.shape[0])] += (tau / block.shape[0]) * np.trace(block)
    return block


def _scaled_view(m: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A view's column means, its centered copy scaled by 2**-e, and e.

    e is the exponent that puts the largest centered magnitude in [0.5, 1), so the scaling is exact.
    """
    mu, c = column_means_and_center(m)
    top = max(c.max(), -c.min())
    if top <= _CONSTANT_VIEW_TOL * max(m.max(), -m.min()):
        raise ValidationError(f"view {j} is constant over the fit rows")
    e = int(np.frexp(top)[1])
    np.ldexp(c, -e, out=c)
    return mu, c, e


def _whitener(b: np.ndarray, offset: int, e: int) -> np.ndarray:
    """L^-1 for the Cholesky factor L of a scaled view's metric block *b*; a singular block is named
    by its pivot's index in the concatenated width and its value scaled back by 2**(2e)."""
    try:
        return np.linalg.inv(cholesky(b))
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(offset + exc.pivot_index,
                                       float(np.ldexp(exc.pivot_value, 2 * e))) from None


def fit_gcca(views, dim: int, tau: float = DEFAULT_TAU) -> GccaModel:
    """Fit generalized CCA on aligned views.

    Scales each centered view by the power of two that puts its largest
    magnitude in [0.5, 1) and whitens it by the inverse Cholesky factor of
    its block B_j of the metric.  The top *dim* eigenpairs of the whitened
    cross-covariance, mapped back per view and scaled back by the view's
    power of two, are the kept pairs.

    When the total width k is at most the n rows, one pass over row blocks of
    the views accumulates the k x k Gram matrix G of the scaled, centered
    concatenation; B_j comes from G's diagonal blocks, each view's map w_j is
    made once, and the cross-covariance blocks are w_i G_ij w_j^T / n.  When
    k > n the fit works on the views (see :func:`_fit_gcca_on_views`).

    A singular B_j raises :class:`NotPositiveDefiniteError` naming its pivot's
    index in the concatenated width, and a projection that overflows float64
    once scaled back raises :class:`ValidationError` naming its view.  Each
    kept pair must meet the bound ||C t - rho B t|| <= 1e-7 (1 + |rho|) ||B||_F
    on the scaled views, with C t from G or from the views; the largest
    ratio of residual to bound is the model's ``residual_ratio``.
    """
    tau = _check_tau(tau)
    mats = _check_views(views, min_views=2, min_rows=2)
    widths = [m.shape[1] for m in mats]
    n, k = mats[0].shape[0], sum(widths)
    if not 1 <= dim <= k:
        raise ValidationError(f"dim must be in [1, {k}], got {dim}")
    offsets = np.cumsum([0, *widths]).tolist()
    if k > n:
        means, exponents, theta, rho, residual, bnorm = _fit_gcca_on_views(mats, offsets, dim, tau)
    else:
        spans = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
        means, exponents = zip(*(_scaled_view(m, j)[::2] for j, m in enumerate(mats)))  # copies dropped
        gram = np.zeros((k, k))
        for rows in _row_blocks(n, k):
            block = _scaled_block(mats, means, exponents, rows)
            gram += block.T @ block
        del block  # not held through the eigensolve
        maps = [_whitener(_gcca_metric(gram[s, s], n, tau), offsets[j], exponents[j])
                for j, s in enumerate(spans)]
        cross = np.zeros((k, k))
        for i, si in enumerate(spans):
            for j, sj in enumerate(spans[i + 1:], i + 1):
                cross[si, sj] = maps[i] @ gram[si, sj] @ maps[j].T / n
                cross[sj, si] = cross[si, sj].T
        values, vectors = sym_eig_desc(cross)
        del cross
        rho = values[:dim]
        theta = [w.T @ vectors[s, :dim] for w, s in zip(maps, spans)]
        del maps, vectors
        # on the scaled views, and unsigned: a column's sign does not change its residual's norm
        metric = [_gcca_metric(gram[s, s], n, tau) for s in spans]
        bnorm = float(np.sqrt(sum(np.sum(b * b) for b in metric)))
        btheta = np.vstack([b @ t for b, t in zip(metric, theta)])
        for s in spans:
            gram[s, s] = 0.0  # what is left is n C
        residual = gram @ np.vstack(theta) / n - btheta * rho
    with np.errstate(over="ignore"):  # an overflow is named below
        projections = [np.ldexp(t, -e) for t, e in zip(theta, exponents)]
    for j, (p, e) in enumerate(zip(projections, exponents)):
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"view {j}'s projection overflows float64 once scaled back by 2**{-e}")
    signs = lead_signs(np.vstack(projections))
    for p in projections:
        p *= signs
    ratio = 0.0
    for t in range(dim):
        r = float(np.linalg.norm(residual[:, t]))
        bound = 1e-7 * (1.0 + abs(rho[t])) * bnorm
        if r > bound:
            raise ConvergenceError(
                f"generalized eigenpair {t} residual {r:.3e} exceeds bound {bound:.3e}"
            )
        ratio = max(ratio, r / bound)
    return GccaModel(widths, tau, means, projections, rho, residual_ratio=ratio)


def _fit_gcca_on_views(mats, offsets, dim, tau):
    """fit_gcca's k > n path: means, exponents, unsigned scaled theta_j, rho, C t - rho B t and ||B||_F.

    A view wider than the n rows is rotated by the complete QR of its whitened
    block, W_j^T = Q_j R_j, so that its first n coordinates carry all of its
    cross-covariance and the other d_j - n are exact rho = 0 pairs.  A
    whitening pass writes each view's whitened block (R_j for a wide view) and
    drops its centered copy and map, so only the caller's views and the
    whitened cross-covariance are alive through the eigensolve; a mapping pass
    rebuilds each map, Q_j included, with the same arithmetic.
    """
    widths = np.diff(offsets).tolist()
    n, k = mats[0].shape[0], offsets[-1]
    reduced = np.cumsum([0, *(min(d, n) for d in widths)]).tolist()
    means, exponents = [], []
    whitened = np.empty((n, reduced[-1]))
    for j, m in enumerate(mats):
        mu, c, e = _scaled_view(m, j)
        w = _whitener(_gcca_metric(c.T @ c, n, tau), offsets[j], e)
        if widths[j] > n:
            # the R of one geqrf, bit for bit the complete QR's: the mapping pass forms Q_j
            whitened[:, reduced[j]:reduced[j + 1]] = np.linalg.qr(w @ c.T, mode="r").T
        else:
            whitened[:, reduced[j]:reduced[j + 1]] = c @ w.T
        means.append(mu)
        exponents.append(e)
    del c, w  # not held through the eigensolve
    cross = whitened.T @ whitened
    del whitened
    cross /= n
    for a, b in zip(reduced, reduced[1:]):
        cross[a:b, a:b] = 0.0
    values, vectors = sym_eig_desc(cross)
    del cross
    # a wide view's rotated coordinates past n are rho = 0 pairs; a stable sort puts them after
    # the solved pairs of rho >= 0 and before the negative ones
    solved = len(values)
    rho = np.concatenate([values, np.zeros(k - solved)])
    keep = np.argsort(-rho, kind="stable")[:dim]
    rho = rho[keep]
    inner = np.concatenate([np.arange(d) < n for d in widths])
    u = np.zeros((k, dim))
    from_solve = keep < solved
    u[np.ix_(inner, from_solve)] = vectors[:, keep[from_solve]]
    u[np.flatnonzero(~inner)[keep[~from_solve] - solved], ~from_solve] = 1.0
    del vectors
    centered, metric, theta = [], [], []
    for j, (m, e) in enumerate(zip(mats, exponents)):
        c = _scaled_view(m, j)[1]
        b = _gcca_metric(c.T @ c, n, tau)
        w = _whitener(b, offsets[j], e)
        if widths[j] > n:
            w = np.linalg.qr(w @ c.T, mode="complete")[0].T @ w  # theta_j = w.T @ u_j, rotated
        theta.append(w.T @ u[offsets[j]:offsets[j + 1]])
        del w  # not held through the next view's map
        centered.append(c)
        metric.append(b)
    mapped = sum(c @ t for c, t in zip(centered, theta))
    # on the scaled views, and unsigned: a column's sign does not change its residual's norm
    residual = np.vstack([c.T @ (mapped - c @ t) / n - (b @ t) * rho
                          for c, b, t in zip(centered, metric, theta)])
    bnorm = float(np.sqrt(sum(np.sum(b * b) for b in metric)))
    return means, exponents, theta, rho, residual, bnorm
