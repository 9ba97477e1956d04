"""Dense linear-algebra kernels used by every combiner.

Thin SVD, symmetric and generalized symmetric-definite eigendecompositions,
Cholesky factorization, column centering and row normalization.  All
arithmetic is 64-bit.  Each factorization is one LAPACK call (``gesdd``,
``syevd``, ``sygvd``, ``potrf``) with a deterministic order and sign
convention on top: eigenvalues descending, ties in backend output order, each
eigenvector (and each singular pair, by its v_j) flipped so its
largest-magnitude entry is positive.  Fitted model files therefore do not
depend on the backend's sign choices.

Every function here is pure: inputs are never mutated and there is no shared
state, so calls are safe from concurrent workers.

scipy is imported inside :func:`cholesky` and :func:`gen_sym_eig`, its only
users, so a process that never factors a matrix never loads it.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, ValidationError, ZeroRowWarning

__all__ = [
    "EigenResult",
    "as_matrix",
    "thin_svd",
    "sym_eig_desc",
    "cholesky",
    "gen_sym_eig",
    "column_means_and_center",
    "l2_normalize_rows",
]

# Rows whose squared norm is already this close to 1 are passed through
# untouched, which makes repeated normalization bit-for-bit idempotent.
_UNIT_SKIP_TOL = 5e-13


class EigenResult(NamedTuple):
    """Eigenvalues sorted descending and the matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, name: str = "matrix", copy: bool = True) -> np.ndarray:
    """Validate and return *a* as a 2-d C-ordered float64 array.

    Requires at least one row and one column and all entries finite.
    Raises :class:`ValidationError` otherwise.  The result is a new array
    (never a view of the input), so callers may mutate it freely; with
    ``copy=False`` an input that is already such an array comes back as is.
    """
    m = np.array(a, dtype=np.float64, order="C", copy=True if copy else None)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _check_symmetric(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T)))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(a))))
    if asym > tol:
        raise ValidationError(f"{name} is not symmetric: max asymmetry {asym:.6g}")


def _lead_signs(v: np.ndarray) -> np.ndarray:
    """Per-column +1/-1 that makes each column's largest-magnitude entry positive."""
    lead = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _descending(values: np.ndarray, vectors: np.ndarray) -> EigenResult:
    """Eigenpairs sorted descending (ties in backend order) with fixed signs."""
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    return EigenResult(values[order], vectors * _lead_signs(vectors))


def thin_svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition m = u @ diag(s) @ v.T.

    Returns (u, s, v) with u of shape (rows, r), v of shape (cols, r),
    r = min(rows, cols), and s non-negative sorted descending.  Columns of
    u and v are orthonormal; each pair (u_j, v_j) is signed so the
    largest-magnitude entry of v_j is positive.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            "thin SVD did not converge within the backend iteration cap "
            f"(LAPACK gesdd, 30 sweeps per superdiagonal): {exc}"
        ) from exc
    v = vh.T
    signs = _lead_signs(v)
    return u * signs, s, v * signs


def sym_eig_desc(a) -> EigenResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Satisfies ``a @ vec = val * vec`` within 1e-8 * (1 + |val|) per pair and
    returns orthonormal eigenvectors.  Ties between equal eigenvalues keep
    the backend's output order; signs are fixed so each eigenvector's
    largest-magnitude entry is positive.
    """
    m = as_matrix(a)
    _check_symmetric(m, "matrix")
    return _descending(*np.linalg.eigh(m))


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a for symmetric positive definite a.

    LAPACK ``potrf`` on the lower triangle.  Raises
    :class:`NotPositiveDefiniteError` naming the failing pivot index and its
    value when the input is not positive definite.
    """
    m = as_matrix(a)
    _check_symmetric(m, "matrix")
    import scipy.linalg

    low, info = scipy.linalg.lapack.dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1, float(low[info - 1, info - 1]))
    return low


def gen_sym_eig(c, b) -> EigenResult:
    """Solve c @ vec = val * b @ vec for symmetric c and SPD b.

    One LAPACK ``sygvd`` call; the eigenvectors are b-orthonormal
    (vec.T @ b @ vec = I).  Eigenvalues come out descending; sign and tie
    conventions follow :func:`sym_eig_desc`.  A b that is not positive
    definite raises :class:`NotPositiveDefiniteError` naming its pivot.
    """
    cm = as_matrix(c, "c")
    bm = as_matrix(b, "b")
    _check_symmetric(cm, "c")
    _check_symmetric(bm, "b")
    if cm.shape != bm.shape:
        raise ValidationError(f"c and b must have the same shape, got {cm.shape} and {bm.shape}")
    import scipy.linalg

    try:
        values, vectors = scipy.linalg.eigh(cm, bm, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        cholesky(bm)
        raise ConvergenceError(f"generalized eigensolver (LAPACK sygvd) failed: {exc}") from exc
    return _descending(values, vectors)


def column_means_and_center(m) -> tuple[np.ndarray, np.ndarray]:
    """Column means of *m* and the column-centered copy.

    Centering is done in two sweeps so the centered column means are zero to
    machine precision even for large-magnitude data.
    """
    a = as_matrix(m)
    means = a.mean(axis=0)
    centered = a - means
    correction = centered.mean(axis=0)
    centered -= correction
    return means + correction, centered


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row of *m* to unit Euclidean norm.

    Zero rows are passed through unchanged with a :class:`ZeroRowWarning`
    (out-of-vocabulary placeholders may legitimately be zero).  Rows already
    unit-norm within 2.5e-13 are returned untouched, so applying the function
    twice is bit-for-bit the same as applying it once.  Rows whose squared
    norm underflows below the smallest normal number (to zero included) or
    overflows are divided by their largest magnitude first, so every nonzero
    row in the float64 range comes out unit-norm.
    """
    a = as_matrix(m)
    sq = np.einsum("ij,ij->i", a, a)
    zero = ~np.any(a != 0.0, axis=1)
    skip = np.abs(sq - 1.0) <= _UNIT_SKIP_TOL
    rescale = ~zero & ((sq < np.finfo(np.float64).tiny) | np.isinf(sq))
    scale = np.ones_like(sq)
    active = ~(zero | skip | rescale)
    scale[active] = 1.0 / np.sqrt(sq[active])
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} zero row(s) passed through un-normalized",
            ZeroRowWarning,
            stacklevel=2,
        )
    out = a * scale[:, None]
    if np.any(rescale):
        b = a[rescale] / np.abs(a[rescale]).max(axis=1, keepdims=True)
        out[rescale] = b / np.sqrt(np.einsum("ij,ij->i", b, b))[:, None]
    return out
