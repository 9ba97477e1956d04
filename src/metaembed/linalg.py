"""Dense linear-algebra kernels used by every combiner.

Thin SVD, symmetric eigendecomposition, Cholesky factorization, column
centering and row normalization, on numpy alone.  All arithmetic is 64-bit.
Each factorization is one LAPACK call through ``numpy.linalg`` (``gesdd``,
``syevd``, ``potrf``) with a deterministic order and sign convention on top:
eigenvalues descending, ties in backend output order, each eigenvector (and
each singular pair, by its v_j) flipped by :func:`lead_signs` so its
largest-magnitude entry is positive.  Fitted model files therefore do not
depend on the backend's sign choices.

For a matrix with at least 11/6 as many rows as columns (MNTHR), ``gesdd``
factors A = QR first and takes the SVD of R.  From there on the SVD fit
passes :func:`thin_svd` an R it streams over row blocks with
``numpy.linalg.qr`` (TSQR), which gives A's s and v to rounding and never
forms A or an (n, k) left factor.  ``gesdd`` also rescales a matrix whose
largest entry lies outside about 1e+-138, which makes its results inexact
under scaling; the SVD fit first scales its input by a power of two to a
largest magnitude in [0.5, 1), which is exact.

Every function here is pure: none writes into an array it was given, and
only :func:`as_matrix` returns one; a caller that writes makes its own copy.
There is no shared state, so calls are safe from concurrent workers.
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
    "lead_signs",
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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return *a* as a 2-d C-ordered float64 array.

    Requires at least one row and one column and all entries finite.
    Raises :class:`ValidationError` otherwise.  An input that is already
    such an array is returned itself, anything else converted; a caller that
    wants to write into the result makes its own copy.
    """
    m = np.asarray(a, dtype=np.float64, order="C")
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
    asym = float(np.max(a - a.T))  # a - a.T is antisymmetric: its max is its largest magnitude
    tol = 1e-10 * max(a.max(), -a.min())  # relative to the largest magnitude, at every scale
    if asym > tol:
        raise ValidationError(f"{name} is not symmetric: max asymmetry {asym:.6g}")


def lead_signs(v: np.ndarray) -> np.ndarray:
    """Per-column +1/-1 that makes each column's largest-magnitude entry (the first, on a tie) positive."""
    cols = np.arange(v.shape[1])
    hi, lo = np.argmax(v, axis=0), np.argmin(v, axis=0)
    top, bottom = v[hi, cols], -v[lo, cols]
    return np.where((top > bottom) | ((top == bottom) & (hi <= lo)), 1.0, -1.0)


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
    signs = lead_signs(v)
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
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver (LAPACK syevd) did not converge: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    vectors *= lead_signs(vectors)
    return EigenResult(values[order], vectors)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a for symmetric positive definite a.

    LAPACK ``potrf`` on the lower triangle.  Raises
    :class:`NotPositiveDefiniteError` naming the failing pivot index and its
    value when the input is not positive definite: the pivot is the first j
    whose leading (j+1) x (j+1) block fails, found by bisection, and its value
    is a[j, j] - |L_j^-1 a[:j, j]|^2 with L_j the factor of the block before it.
    """
    m = as_matrix(a)
    _check_symmetric(m, "matrix")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    good, bad = 0, m.shape[0]  # leading blocks of these orders factor and fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(m[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    row = np.linalg.solve(np.linalg.cholesky(m[:good, :good]), m[:good, good])
    raise NotPositiveDefiniteError(good, float(m[good, good] - row @ row))


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
    twice is bit-for-bit the same as applying it once.  Every other row is
    scaled by the power of two that puts its largest magnitude in [0.5, 1),
    which is exact, and multiplied by the reciprocal of its norm: the squared
    norm neither under- nor overflows, every nonzero row in the float64 range
    comes out unit-norm, and the output is unchanged when a row is scaled by a
    power of two.
    """
    a = as_matrix(m)
    top = np.maximum(a.max(axis=1), -a.min(axis=1))
    e = np.frexp(top)[1]
    out = np.ldexp(a, -e[:, None])
    sq = np.einsum("ij,ij->i", out, out)
    zero = top == 0.0
    with np.errstate(over="ignore"):  # a row whose squared norm overflows is not a unit row
        skip = zero | (np.abs(np.ldexp(sq, 2 * e) - 1.0) <= _UNIT_SKIP_TOL)
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} zero row(s) passed through un-normalized",
            ZeroRowWarning,
            stacklevel=2,
        )
    sq[zero] = 1.0
    out *= (1.0 / np.sqrt(sq))[:, None]
    out[skip] = a[skip]
    return out
