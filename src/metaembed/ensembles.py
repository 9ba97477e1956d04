"""Fixed ensemble combiners over aligned embedding views.

A "view" is one source's (n, d_i) matrix for a shared row order of n items.
Three combiners are provided:

* concatenation: [x_1; ...; x_m], width k = sum(d_i), no fitting.
* SVD compression: center the concatenation, keep the top right-singular
  directions, project, and L2-normalize each row.  Similarity between the
  unit rows is their dot product.
* generalized CCA: per-view linear maps into one shared d-dimensional space,
  found from the generalized eigenproblem  C theta = rho B theta  where B is
  the block diagonal of regularized per-view covariances and C holds the
  cross-view covariance blocks (diagonal blocks zeroed).  Applying the model
  sums the per-view projections of the centered inputs.

Covariances use the population divisor n.  The per-view regularizer adds
(tau / d_i) * trace(cov_i) to every diagonal entry of cov_i, so tau is a
dimension-free knob; tau=10 is the default used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError
from .linalg import (
    as_matrix,
    column_means_and_center,
    gen_sym_eig,
    l2_normalize_rows,
    thin_svd,
)
from .modelio import read_model, write_model
from .textio import fmt

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
        self.dims = tuple(int(d) for d in dims)
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
        x = np.hstack(mats) - self.mean
        return l2_normalize_rows(x @ self.projection)

    def save(self, path) -> None:
        write_model(
            path,
            self.MAGIC,
            "dims " + " ".join(str(d) for d in self.dims),
            [
                ("mean", self.mean[None, :]),
                ("proj", self.projection),
                ("sing", self.singular_values[None, :]),
            ],
        )

    @classmethod
    def load(cls, path) -> "SvdMetaModel":
        mf = read_model(path, cls.MAGIC)
        dims = _parse_dims_hyper(mf.hyper, path)
        blocks = _require_blocks(mf, path, ["mean", "proj", "sing"])
        return cls(dims, blocks["mean"][0], blocks["proj"], blocks["sing"][0])


def fit_svd_meta(views, dim: int) -> SvdMetaModel:
    """Fit the SVD compressor on aligned views; 1 <= dim <= min(n, k)."""
    mats = _check_views(views, min_views=1, min_rows=2)
    x = np.hstack(mats)
    n, k = x.shape
    if not 1 <= dim <= min(n, k):
        raise ValidationError(f"dim must be in [1, {min(n, k)}] for {n} rows of width {k}, got {dim}")
    mean, centered = column_means_and_center(x)
    _, s, v = thin_svd(centered)
    return SvdMetaModel([m.shape[1] for m in mats], mean, v[:, :dim], s[:dim].copy())


class GccaModel:
    """Per-view linear maps into a shared space, summed at apply time."""

    MAGIC = "GCCA"

    def __init__(self, dims, tau, means, projections, eigenvalues):
        self.dims = tuple(int(d) for d in dims)
        self.tau = float(tau)
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

    def save(self, path) -> None:
        hyper = "dims " + " ".join(str(d) for d in self.dims) + f" tau {fmt(self.tau)}"
        blocks = []
        for j in range(len(self.dims)):
            blocks.append((f"mean{j}", self.means[j][None, :]))
            blocks.append((f"proj{j}", self.projections[j]))
        blocks.append(("eigs", self.eigenvalues[None, :]))
        write_model(path, self.MAGIC, hyper, blocks)

    @classmethod
    def load(cls, path) -> "GccaModel":
        mf = read_model(path, cls.MAGIC)
        dims, tau = _parse_dims_tau_hyper(mf.hyper, path)
        labels = [f"mean{j}" for j in range(len(dims))]
        labels += [f"proj{j}" for j in range(len(dims))]
        blocks = _require_blocks(mf, path, labels + ["eigs"])
        means = [blocks[f"mean{j}"][0] for j in range(len(dims))]
        projections = [blocks[f"proj{j}"] for j in range(len(dims))]
        return cls(dims, tau, means, projections, blocks["eigs"][0])


def fit_gcca(views, dim: int, tau: float = DEFAULT_TAU) -> GccaModel:
    """Fit generalized CCA on aligned views.

    Builds the metric B from regularized per-view covariances and the
    cross-covariance matrix C with zeroed diagonal blocks, then keeps the
    top *dim* generalized eigenvectors.  Each kept eigenpair is checked
    against the residual bound ||C t - rho B t|| <= 1e-7 (1 + |rho|) ||B||_F.
    """
    mats = _check_views(views, min_views=2, min_rows=2)
    widths = [m.shape[1] for m in mats]
    k = sum(widths)
    if not 1 <= dim <= k:
        raise ValidationError(f"dim must be in [1, {k}], got {dim}")
    if tau < 0:
        raise ValidationError(f"tau must be non-negative, got {tau}")
    n = mats[0].shape[0]
    means = []
    centered = []
    for j, m in enumerate(mats):
        mu, c = column_means_and_center(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(c))) <= _CONSTANT_VIEW_TOL * scale:
            raise ValidationError(f"view {j} is constant over the fit rows")
        means.append(mu)
        centered.append(c)
    x = np.hstack(centered)
    cov = x.T @ x / n
    bmat = np.zeros_like(cov)
    cross = cov.copy()
    offsets = np.concatenate(([0], np.cumsum(widths)))
    for j, dj in enumerate(widths):
        sl = slice(offsets[j], offsets[j + 1])
        block = cov[sl, sl].copy()
        block[np.diag_indices(dj)] += (tau / dj) * np.trace(block)
        bmat[sl, sl] = block
        cross[sl, sl] = 0.0
    values, vectors = gen_sym_eig(cross, bmat)
    rho = values[:dim].copy()
    theta = vectors[:, :dim]
    residual = cross @ theta - (bmat @ theta) * rho
    bnorm = float(np.linalg.norm(bmat))
    for t in range(dim):
        r = float(np.linalg.norm(residual[:, t]))
        bound = 1e-7 * (1.0 + abs(rho[t])) * bnorm
        if r > bound:
            raise ConvergenceError(
                f"generalized eigenpair {t} residual {r:.3e} exceeds bound {bound:.3e}"
            )
    projections = [theta[offsets[j] : offsets[j + 1]].copy() for j in range(len(mats))]
    return GccaModel(widths, tau, means, projections, rho)


def _parse_dims_hyper(hyper: list[str], path) -> list[int]:
    if not hyper or hyper[0] != "dims":
        raise ValidationError(f"{path}: hyperparameter line must start with 'dims'")
    try:
        dims = [int(t) for t in hyper[1:]]
    except ValueError:
        raise ValidationError(f"{path}: non-integer view width in hyperparameter line") from None
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"{path}: view widths must be positive integers")
    return dims


def _parse_dims_tau_hyper(hyper: list[str], path) -> tuple[list[int], float]:
    if "tau" not in hyper:
        raise ValidationError(f"{path}: hyperparameter line is missing 'tau'")
    cut = hyper.index("tau")
    dims = _parse_dims_hyper(hyper[:cut], path)
    if cut + 2 != len(hyper):
        raise ValidationError(f"{path}: expected exactly one value after 'tau'")
    try:
        tau = float(hyper[cut + 1])
    except ValueError:
        raise ValidationError(f"{path}: could not parse tau value {hyper[cut + 1]!r}") from None
    return dims, tau


def _require_blocks(mf, path, labels) -> dict[str, np.ndarray]:
    missing = [lab for lab in labels if lab not in mf.blocks]
    if missing:
        raise ValidationError(f"{path}: model file is missing block(s) {', '.join(missing)}")
    unexpected = [lab for lab in mf.blocks if lab not in labels]
    if unexpected:
        raise ValidationError(f"{path}: model file has unexpected block(s) {', '.join(unexpected)}")
    return mf.blocks
