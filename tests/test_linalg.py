import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_spd, random_symmetric
from metaembed.ensembles import fit_gcca, fit_svd_meta
from metaembed.errors import NotPositiveDefiniteError, ValidationError, ZeroRowWarning
from metaembed.linalg import (
    as_matrix,
    cholesky,
    column_means_and_center,
    l2_normalize_rows,
    lead_signs,
    sym_eig_desc,
    thin_svd,
)

RT2 = math.sqrt(2.0)


class TestAsMatrix:
    def test_copies_and_casts(self):
        src = [[1, 2], [3, 4]]
        m = as_matrix(src)
        assert m.dtype == np.float64 and m.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            as_matrix(np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="at least one row"):
            as_matrix(np.empty((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_matrix([[1.0, np.nan]])

    def test_returns_a_conforming_input_itself(self):
        src = np.ones((2, 2))
        assert as_matrix(src) is src
        src.flags.writeable = False
        assert as_matrix(src) is src
        for other in (src.T, src.astype(np.float32), src[:, :1]):
            assert as_matrix(other).flags.c_contiguous and as_matrix(other).dtype == np.float64


class TestThinSvd:
    def test_identity(self):
        u, s, v = thin_svd(np.eye(3))
        assert np.allclose(s, [1.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(u @ np.diag(s) @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        _, s, _ = thin_svd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_shapes_thin(self):
        u, s, v = thin_svd(np.ones((5, 3)))
        assert u.shape == (5, 3) and s.shape == (3,) and v.shape == (3, 3)
        u, s, v = thin_svd(np.ones((3, 5)))
        assert u.shape == (3, 3) and s.shape == (3,) and v.shape == (5, 3)

    def test_reconstruction_and_orthonormality(self, rng):
        for rows, cols in [(8, 5), (5, 8), (6, 6), (1, 4), (7, 1)]:
            m = rng.normal(size=(rows, cols)) * 10.0
            u, s, v = thin_svd(m)
            err = np.linalg.norm(u @ np.diag(s) @ v.T - m)
            assert err <= 1e-9 * np.linalg.norm(m)
            r = min(rows, cols)
            assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-9
            assert np.max(np.abs(v.T @ v - np.eye(r))) <= 1e-9
            assert np.all(s >= 0) and np.all(np.diff(s) <= 0)

    def test_rank_deficient(self, rng):
        base = rng.normal(size=(6, 2))
        m = base @ rng.normal(size=(2, 5))
        u, s, v = thin_svd(m)
        assert np.sum(s > 1e-10 * s[0]) == 2
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-9 * np.linalg.norm(m)

    def test_sign_convention_and_reconstruction(self, rng):
        # each pair (u_j, v_j) is flipped together so v_j's largest-magnitude
        # entry is positive; the product u diag(s) v^T is unchanged by that
        for rows, cols in [(9, 4), (4, 9), (6, 6), (30, 12)]:
            m = rng.normal(size=(rows, cols))
            u, s, v = thin_svd(m)
            r = min(rows, cols)
            lead = np.argmax(np.abs(v), axis=0)
            assert np.all(v[lead, np.arange(r)] > 0)
            assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-12 * np.linalg.norm(m)

    def test_signs_independent_of_input_sign(self, rng):
        # m and -m have the same v under the convention; only u flips
        m = rng.normal(size=(7, 5))
        u1, s1, v1 = thin_svd(m)
        u2, s2, v2 = thin_svd(-m)
        assert np.allclose(s1, s2, atol=1e-12)
        assert np.allclose(v1, v2, atol=1e-10)
        assert np.allclose(u1, -u2, atol=1e-10)

    def test_truncation_beats_random_projections(self, rng):
        # the top-d right-singular directions are the best rank-d column
        # projection in Frobenius norm; no random subspace should win
        m = rng.normal(size=(12, 7))
        d = 3
        _, s, v = thin_svd(m)
        best = np.linalg.norm(m - (m @ v[:, :d]) @ v[:, :d].T)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(7, d)))
            rand_err = np.linalg.norm(m - (m @ q) @ q.T)
            assert best <= rand_err + 1e-12


class TestSymEig:
    def test_characteristic_polynomial_oracle(self):
        res = sym_eig_desc([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(res.values, [3.0, 1.0], atol=1e-12)
        expect = np.array([[1.0 / RT2, 1.0 / RT2], [1.0 / RT2, -1.0 / RT2]])
        assert np.allclose(res.vectors, expect, atol=1e-12)

    def test_residual_and_orthonormality(self, rng):
        a = random_symmetric(rng, 9) * 5.0
        values, vectors = sym_eig_desc(a)
        for k in range(9):
            resid = np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k])
            assert resid <= 1e-8 * (1.0 + abs(values[k]))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(9))) <= 1e-9
        assert np.all(np.diff(values) <= 1e-12)

    def test_trace_equals_eigenvalue_sum(self, rng):
        a = random_symmetric(rng, 7)
        values, _ = sym_eig_desc(a)
        assert abs(values.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))

    def test_sign_convention(self, rng):
        _, vectors = sym_eig_desc(random_symmetric(rng, 6))
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(6)] > 0)

    def test_rejects_asymmetric_naming_the_gap(self):
        with pytest.raises(ValidationError, match="max asymmetry"):
            sym_eig_desc([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            sym_eig_desc(np.ones((2, 3)))

    def test_symmetry_tolerance_is_relative_at_every_scale(self):
        # the tolerance is 1e-10 of the largest magnitude, so scaling by a power of two changes no
        # verdict: an asymmetric matrix is refused, and a symmetric one, also off by 1e-12 of its
        # scale, is accepted, by both functions that check
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        sym = np.array([[2.0, 1.0], [1.0, 2.0]])
        near = sym + np.array([[0.0, 1e-12], [0.0, 0.0]])
        for k in range(-1000, 1001):
            for fn in (sym_eig_desc, cholesky):
                with pytest.raises(ValidationError, match="not symmetric"):
                    fn(np.ldexp(asym, k))
                fn(np.ldexp(sym, k))
                fn(np.ldexp(near, k))

    def test_repeat_calls_are_bitwise_identical(self, rng):
        a = random_symmetric(rng, 8)
        r1 = sym_eig_desc(a)
        r2 = sym_eig_desc(a)
        assert r1.values.tobytes() == r2.values.tobytes()
        assert r1.vectors.tobytes() == r2.vectors.tobytes()


class TestCholesky:
    def test_diagonal_oracle_exact(self):
        low = cholesky(np.diag([4.0, 9.0]))
        assert np.array_equal(low, np.diag([2.0, 3.0]))

    def test_hand_oracle_exact(self):
        low = cholesky([[4.0, 2.0], [2.0, 10.0]])
        assert np.array_equal(low, [[2.0, 0.0], [1.0, 3.0]])

    def test_reconstruction(self, rng):
        a = random_spd(rng, 8)
        low = cholesky(a)
        assert np.linalg.norm(low @ low.T - a) <= 1e-9 * np.linalg.norm(a)
        assert np.array_equal(np.triu(low, 1), np.zeros_like(low))

    def test_matches_backend(self, rng):
        a = random_spd(rng, 6)
        assert np.allclose(cholesky(a), np.linalg.cholesky(a), atol=1e-9)

    def test_indefinite_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_value == pytest.approx(-3.0)
        assert "pivot 1" in str(exc.value)

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.zeros((3, 3)))
        assert exc.value.pivot_index == 0


def spd_failing_at(rng, n, j):
    """SPD leading j x j block; pivot j comes out -1 in exact arithmetic.

    Returns the matrix and the pivot a[j, j] - L[j, :j] . L[j, :j] computed
    from the factor of the leading block.
    """
    a = random_spd(rng, n)
    lead = np.linalg.cholesky(a[:j, :j])
    row = np.linalg.solve(lead, a[:j, j])
    a[j, j] = row @ row - 1.0
    return a, a[j, j] - row @ row


class TestCholeskyPastBlockSize:
    # LAPACK potrf factors in blocks; a failure beyond the first block must
    # still name the global pivot index and value
    @pytest.mark.parametrize("j", [257, 299])
    def test_names_pivot_index_and_value(self, rng, j):
        a, pivot = spd_failing_at(rng, 300, j)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(a)
        assert exc.value.pivot_index == j
        assert abs(exc.value.pivot_value - pivot) <= 1e-9 * abs(pivot)
        assert f"pivot {j}" in str(exc.value)

    def test_large_spd_reconstructs(self, rng):
        a = random_spd(rng, 300)
        low = cholesky(a)
        assert np.array_equal(np.triu(low, 1), np.zeros_like(low))
        assert np.linalg.norm(low @ low.T - a) <= 1e-12 * np.linalg.norm(a)


class TestLeadSigns:
    def test_matches_the_sign_of_the_first_largest_magnitude_entry(self, rng):
        # the reference takes |v| whole; lead_signs reads the column max and min instead
        for _ in range(300):
            v = rng.integers(-3, 4, size=tuple(rng.integers(1, 6, size=2))).astype(float)
            lead = np.argmax(np.abs(v), axis=0)
            expect = np.sign(v[lead, np.arange(v.shape[1])])
            expect[expect == 0] = 1.0
            assert np.array_equal(lead_signs(v), expect)

    def test_ties_and_zero_columns(self):
        v = np.array([[2.0, -2.0, 0.0], [-2.0, 2.0, 0.0]])
        assert np.array_equal(lead_signs(v), [1.0, -1.0, 1.0])


class TestCentering:
    def test_centered_means_are_tiny(self, rng):
        a = rng.normal(size=(40, 6)) * 7.0 + 3.0
        means, centered = column_means_and_center(a)
        assert np.max(np.abs(centered.mean(axis=0))) <= 1e-12
        assert np.allclose(means + centered, a, atol=1e-9)

    def test_large_magnitude_columns(self, rng):
        a = 1e8 + rng.normal(size=(50, 4))
        _, centered = column_means_and_center(a)
        assert np.max(np.abs(centered.mean(axis=0))) <= 1e-12

    def test_single_row(self):
        means, centered = column_means_and_center([[3.0, -1.0]])
        assert np.allclose(means, [3.0, -1.0])
        assert np.allclose(centered, 0.0, atol=1e-15)


class TestL2Normalize:
    def test_unit_norms(self, rng):
        x = rng.normal(size=(30, 5)) * np.logspace(-3, 3, 30)[:, None]
        y = l2_normalize_rows(x)
        assert np.max(np.abs(np.einsum("ij,ij->i", y, y) - 1.0)) <= 1e-12

    def test_bitwise_idempotent(self, rng):
        x = rng.normal(size=(25, 4)) * np.logspace(-2, 4, 25)[:, None]
        once = l2_normalize_rows(x)
        twice = l2_normalize_rows(once)
        assert once.tobytes() == twice.tobytes()

    def test_zero_row_passes_through_with_warning(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        with pytest.warns(ZeroRowWarning):
            y = l2_normalize_rows(x)
        assert np.allclose(y[0], [0.6, 0.8], atol=1e-15)
        assert np.array_equal(y[1], [0.0, 0.0])

    def test_exact_unit_row_untouched(self):
        x = np.zeros((1, 3))
        x[0, 1] = 1.0
        y = l2_normalize_rows(x)
        assert y.tobytes() == x.tobytes()

    def test_subnormal_squared_norm_comes_out_unit(self):
        x = np.array([[4.67e-162, 0.0, 0.0], [3e-160, -4e-160, 0.0], [3.0, 4.0, 0.0]])
        y = l2_normalize_rows(x)
        assert np.array_equal(y[0], [1.0, 0.0, 0.0])
        assert np.allclose(y[1], [0.6, -0.8, 0.0], rtol=0, atol=1e-15)
        assert y[2].tobytes() == (x[2] * (1.0 / np.sqrt(25.0))).tobytes()

    def test_overflowing_squared_norm_comes_out_unit(self):
        x = np.array([[1e200, 1e200, 0.0], [-1.7e308, 0.0, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = l2_normalize_rows(x)
        assert np.allclose(y, [[RT2 / 2, RT2 / 2, 0.0], [-RT2 / 2, 0.0, RT2 / 2]], rtol=0, atol=1e-15)

    def test_underflowing_squared_norm_is_not_a_zero_row(self):
        # every entry squares to 0, yet the row is nonzero: no warning, unit out.  The row is
        # normalized as its power-of-two scaling into the normal range is, so it gives the bits
        # that [3, -4, 0] * 2**-e gives
        x = np.array([[3e-170, -4e-170, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = l2_normalize_rows(x)
        assert np.array_equal(y, [[0.6, -0.7999999999999999, 0.0]])
        assert y.tobytes() == l2_normalize_rows(np.ldexp(x, 560)).tobytes()

    def test_direction_preserved(self, rng):
        x = rng.normal(size=(10, 3))
        y = l2_normalize_rows(x)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        assert np.allclose(y, x / norms, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (4, 3), elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_l2_normalize_property(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroRowWarning)
        y = l2_normalize_rows(x)
    nonzero = np.any(x != 0, axis=1)
    out = np.einsum("ij,ij->i", y, y)
    assert np.all(np.abs(out[nonzero] - 1.0) <= 1e-12)
    assert np.all(out[~nonzero] == 0.0)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (5, 5), elements=st.floats(-100, 100, allow_nan=False)))
def test_sym_eig_trace_property(a):
    sym = 0.5 * (a + a.T)
    values, _ = sym_eig_desc(sym)
    scale = max(1.0, float(np.max(np.abs(sym))))
    assert abs(values.sum() - np.trace(sym)) <= 1e-8 * scale



def _views(rng):
    return [rng.normal(size=(9, 3)), rng.normal(size=(9, 2))]


# each call with a builder of the array inputs it takes positionally
_CALLS = {
    "thin_svd": (lambda rng: [rng.normal(size=(9, 4))], thin_svd),
    "sym_eig_desc": (lambda rng: [random_symmetric(rng, 4)], sym_eig_desc),
    "cholesky": (lambda rng: [random_spd(rng, 4)], cholesky),
    # a 1 x 1 matrix is both C- and F-ordered, so LAPACK may work on it in place
    "cholesky 1x1": (lambda rng: [np.full((1, 1), 3.0)], cholesky),
    "lead_signs": (lambda rng: [rng.normal(size=(9, 4))], lead_signs),
    "column_means_and_center": (lambda rng: [rng.normal(size=(9, 4))], column_means_and_center),
    "l2_normalize_rows": (lambda rng: [rng.normal(size=(9, 4))], l2_normalize_rows),
    "fit_svd_meta": (_views, lambda *v: fit_svd_meta(v, 2)),
    "fit_gcca": (_views, lambda *v: fit_gcca(v, 2)),
    # one-wide views: each view's metric block and whitener is 1 x 1
    "fit_gcca 1-wide views": (lambda rng: [rng.normal(size=(9, 1)), rng.normal(size=(9, 1))],
                              lambda *v: fit_gcca(v, 2)),
    "SvdMetaModel.apply": (_views, lambda *v: fit_svd_meta(v, 2).apply(v)),
    "GccaModel.apply": (_views, lambda *v: fit_gcca(v, 2).apply(v)),
}


def _result_arrays(out):
    """Every array in a result: itself, or those in the items of a tuple or the attributes of a model."""
    if isinstance(out, np.ndarray):
        return [out]
    items = out if isinstance(out, (tuple, list)) else getattr(out, "__dict__", {}).values()
    return [a for item in items for a in _result_arrays(item)]


# as_matrix is the one function that returns its input; TestAsMatrix covers it
@pytest.mark.parametrize("writeable", [True, False])
@pytest.mark.parametrize("name", list(_CALLS))
def test_inputs_are_never_written_or_shared(rng, name, writeable):
    build, call = _CALLS[name]
    inputs = build(rng)
    before = [a.tobytes() for a in inputs]
    for a in inputs:
        a.flags.writeable = writeable
    results = _result_arrays(call(*inputs))
    assert results and [a.tobytes() for a in inputs] == before
    assert not any(np.shares_memory(r, a) for r in results for a in inputs)
