import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_live_at, traced_peak
from metaembed import ensembles
from metaembed.ensembles import (
    GccaModel,
    SvdMetaModel,
    concat_views,
    fit_gcca,
    fit_svd_meta,
)
from metaembed.errors import NotPositiveDefiniteError, ValidationError
from metaembed.evaluation import cosine, pearson
from metaembed.linalg import cholesky, column_means_and_center, lead_signs, sym_eig_desc, thin_svd

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestConcat:
    def test_values_and_width(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 3))
        out = concat_views([a, b])
        assert out.shape == (4, 5)
        assert np.array_equal(out[:, :2], a)
        assert np.array_equal(out[:, 2:], b)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="row count"):
            concat_views([np.ones((2, 2)), np.ones((3, 2))])


def test_gcca_fit_peak_memory(rng):
    # n < k, as in the wide-fit workload.  Each view wider than n is solved on its n whitened
    # coordinates, so the eigensolve takes a 170 x 170 matrix instead of the k x k one, and the
    # fit holds no map or centered view through it.  The mapping pass now sets the peak, at
    # 1.25 k x k: the widest view's map, its Q and their product, over the centered views and
    # metric blocks rebuilt so far.  With the maps and centered views held through the eigensolve
    # the fit peaked at 1.57; solving the whole k x k problem at 3.6, with a dense metric and
    # scipy's generalized solver at 7.5, and at 9.5 when every view and matrix it validated was
    # also copied.
    views = [rng.normal(size=(60, d)) for d in (150, 100, 50)]
    kxk = 300 * 300 * 8
    assert traced_peak(fit_gcca, views, 20) < 1.4 * kxk
    # n >> k, as in the ensemble-io workload: the fit accumulates the k x k Gram matrix over row
    # blocks built from the views, so the widest view's centered copy, taken for its mean, sets
    # the peak at 0.51 n x k.  Whitening each view in an (n, k) matrix it peaked at 2.02, and at
    # 2.19 with every centered copy held
    views = [rng.normal(size=(4000, d)) for d in (120, 80, 40)]
    assert traced_peak(fit_gcca, views, 32) < 0.75 * 4000 * 240 * 8
    assert "scipy" not in sys.modules


def test_gcca_eigensolve_sees_only_the_cross_covariance(rng):
    # n < k: the whitening pass drops each view's centered copy and map once its whitened block
    # is written, so on entry to the eigensolve the whitened r x r cross-covariance (r = 300 +
    # 300 + 200) is all the fit holds besides the caller's views: 1.002 of it.  A fit that held
    # the maps and centered views through the eigensolve was at 2.44
    views = [rng.normal(size=(300, d)) for d in (600, 400, 200)]
    live = traced_live_at(ensembles, "sym_eig_desc", fit_gcca, views, 100)
    assert len(live) == 1 and live[0] <= 1.1 * 800 * 800 * 8


def test_tall_gcca_eigensolve_sees_the_gram_and_cross_covariance(rng):
    # k <= n: on entry to the eigensolve the fit holds the k x k Gram matrix (its diagonal blocks
    # turned into the metric blocks B_j), the k x k cross-covariance and each view's d_j x d_j
    # whitening map, which the projections need after it: 2.39 k x k here, and no row block
    widths = (120, 80, 40)
    views = [rng.normal(size=(4000, d)) for d in widths]
    live = traced_live_at(ensembles, "sym_eig_desc", fit_gcca, views, 32)
    assert len(live) == 1 and live[0] <= 1.02 * (2 * 240 * 240 + sum(d * d for d in widths)) * 8


def test_svd_fit_and_apply_peak_memory(rng):
    # n >> k, as in the ensemble-io workload.  The fit takes each view's mean from its own centered
    # copy and then streams R of a QR over row blocks of max(k, n / 16) rows built from the views,
    # so the widest view's centered copy sets the peak at 0.51 n x k.  Through the concatenation,
    # its centered copy and the QR's working copy it peaked at 2.07, and at 4.13 through gesdd's
    # own copy and left factors.  apply holds one centered concatenation and the (n, dim) output:
    # 1.13; it peaked at 2.01 with two.
    views = [rng.normal(size=(4000, d)) for d in (120, 80, 40)]
    nxk = 4000 * 240 * 8
    model = fit_svd_meta(views, 32)
    assert traced_peak(fit_svd_meta, views, 32) < 0.75 * nxk
    assert traced_peak(model.apply, views) < 1.5 * nxk


def test_callers_views_come_back_unmutated(rng):
    views = [rng.normal(size=(12, 3)), rng.normal(size=(12, 2))]
    before = [v.tobytes() for v in views]
    svd, gcca = fit_svd_meta(views, 2), fit_gcca(views, 2)
    for out in (concat_views(views), concat_views(views[:1]), svd.apply(views), gcca.apply(views)):
        assert not any(np.shares_memory(out, v) for v in views)
    assert [v.tobytes() for v in views] == before


class TestSvdMeta:
    def test_unit_rows(self, rng):
        mats = [rng.normal(size=(30, 4)), rng.normal(size=(30, 3))]
        model = fit_svd_meta(mats, 5)
        out = model.apply(mats)
        assert out.shape == (30, 5)
        assert np.max(np.abs(np.einsum("ij,ij->i", out, out) - 1.0)) <= 1e-12

    def test_projection_matches_left_factors(self, rng):
        # on the training rows, (x - mean) @ proj equals u_d * s_d of the
        # centered concatenation, so the compressor keeps exactly the
        # dominant structure
        mats = [rng.normal(size=(20, 3)), rng.normal(size=(20, 2))]
        model = fit_svd_meta(mats, 2)
        x = np.hstack(mats) - model.mean
        proj = x @ model.projection
        u, s, v = np.linalg.svd(x, full_matrices=False)
        expect = u[:, :2] * s[:2]
        # columns agree up to the sign convention of the backend
        for k in range(2):
            assert min(np.max(np.abs(proj[:, k] - expect[:, k])),
                       np.max(np.abs(proj[:, k] + expect[:, k]))) <= 1e-9

    def test_projection_owns_its_data(self, rng):
        # a view would keep the whole (k, r) right-singular matrix alive
        mats = [rng.normal(size=(60, 200)), rng.normal(size=(60, 100))]
        model = fit_svd_meta(mats, 20)
        assert model.projection.shape == (300, 20)
        assert model.projection.base is None and model.projection.flags.c_contiguous

    def test_dot_products_are_cosines(self, rng):
        mats = [rng.normal(size=(12, 3)), rng.normal(size=(12, 4))]
        model = fit_svd_meta(mats, 3)
        out = model.apply(mats)
        assert abs(float(out[0] @ out[1]) - cosine(out[0], out[1])) <= 1e-12

    def test_dim_bounds(self, rng):
        mats = [rng.normal(size=(4, 3)), rng.normal(size=(4, 2))]
        with pytest.raises(ValidationError, match=r"dim must be in \[1, 4\]"):
            fit_svd_meta(mats, 5)
        with pytest.raises(ValidationError, match="dim"):
            fit_svd_meta(mats, 0)

    def test_apply_validates_widths(self, rng):
        mats = [rng.normal(size=(6, 3)), rng.normal(size=(6, 2))]
        model = fit_svd_meta(mats, 2)
        with pytest.raises(ValidationError, match="width"):
            model.apply([mats[1], mats[0]])
        with pytest.raises(ValidationError, match="expects 2 views"):
            model.apply([mats[0]])

    def test_round_trip_bitwise(self, rng, tmp_path):
        mats = [rng.normal(size=(10, 3)), rng.normal(size=(10, 2))]
        model = fit_svd_meta(mats, 3)
        path = tmp_path / "m.model"
        model.save(path)
        back = SvdMetaModel.load(path)
        assert back.dims == model.dims
        assert back.mean.tobytes() == model.mean.tobytes()
        assert back.projection.tobytes() == model.projection.tobytes()
        assert back.singular_values.tobytes() == model.singular_values.tobytes()
        assert back.apply(mats).tobytes() == model.apply(mats).tobytes()

    def test_streaming_matches_batch(self, rng):
        mats = [rng.normal(size=(15, 3)), rng.normal(size=(15, 4))]
        model = fit_svd_meta(mats, 4)
        batch = model.apply(mats)
        for i in range(15):
            single = model.apply([m[i : i + 1] for m in mats])
            assert np.max(np.abs(single[0] - batch[i])) <= 1e-12

    @pytest.mark.parametrize("widths", [(4, 3), (20, 12), (120, 80, 40)])
    @pytest.mark.parametrize("rows", ["below", "at", "above", "wide"])
    def test_qr_crossover_keeps_the_plain_svd_bitwise(self, rng, widths, rows):
        # below gesdd's crossover at 11 k // 6 rows the fit takes the SVD of the whole centered
        # matrix, bit for bit; from there on it streams R of a QR over row blocks, which moves
        # the last bits, so it is held to the whole matrix's SVD within rounding
        k = sum(widths)
        n = {"below": 11 * k // 6 - 1, "at": 11 * k // 6, "above": 11 * k // 6 + 1, "wide": k // 2}[rows]
        views = [rng.normal(size=(n, w)) for w in widths]
        dim = min(n, k)
        model = fit_svd_meta(views, dim)
        _, s, v = thin_svd(column_means_and_center(np.hstack(views))[1])
        if rows in ("below", "wide"):
            assert model.singular_values.tobytes() == s[:dim].tobytes()
            assert model.projection.tobytes() == v[:, :dim].tobytes()
        else:
            assert_svd_close(model, s[:dim], v[:, :dim])

    def test_streamed_qr_matches_the_plain_svd_at_block_edges(self, rng):
        # blocks of max(k, ceil(n / 16)) rows: at the crossover the last block is short of k rows,
        # 2k and 16k rows fill two and sixteen blocks exactly, 2k + 1 leaves a last block of one
        # row, 16k + 1 is the first n with blocks wider than k, and 40k takes 2.5k-row blocks
        for widths in ((5, 3), (20, 12)):
            k = sum(widths)
            for n in (11 * k // 6, 2 * k, 2 * k + 1, 16 * k, 16 * k + 1, 40 * k):
                views = [rng.normal(size=(n, w)) for w in widths]
                model = fit_svd_meta(views, k)
                _, s, v = thin_svd(column_means_and_center(np.hstack(views))[1])
                assert_svd_close(model, s, v)


def assert_svd_close(model, s, v):
    """Singular values within 1e-13 s_0 of *s*, and each projection column within 1e-10 of *v*'s
    once its sign is fixed."""
    assert np.max(np.abs(model.singular_values - s)) <= 1e-13 * s[0]
    signs = np.sign(np.sum(model.projection * v, axis=0))
    assert np.max(np.abs(model.projection * signs - v)) <= 1e-10


_RANGE_SHAPES = {"tall": (60, (5, 3)), "wide": (6, (5, 4))}


@settings(max_examples=50, deadline=None)
@given(st.integers(-1000, 1000))
@example(-1000)
@example(1000)
def test_svd_fit_is_exact_under_power_of_two_scaling(k):
    # the fit scales its centered input to a largest magnitude in [0.5, 1) first, so gesdd's
    # own rescaling (outside about 1e+-138) never starts and the scale drops out exactly
    for shape, (n, widths) in _RANGE_SHAPES.items():
        views = [np.random.default_rng(7).normal(size=(n, w)) for w in widths]
        base = fit_svd_meta(views, min(n, sum(widths)))
        model = fit_svd_meta([np.ldexp(v, k) for v in views], base.dim)
        assert model.projection.tobytes() == base.projection.tobytes(), shape
        assert model.singular_values.tobytes() == np.ldexp(base.singular_values, k).tobytes(), shape


@settings(max_examples=50, deadline=None)
@given(st.integers(-1000, 1000))
@example(-1000)
@example(1000)
def test_gcca_fit_is_exact_under_power_of_two_scaling(k):
    # each centered view is scaled to a largest magnitude in [0.5, 1) first, so the scale of a
    # view drops out exactly: the wide shape's views are wider than its rows and are solved on
    # their whitened row space, with rho = 0 pairs for the rest of their width
    for shape, (n, widths) in {"tall": (60, (5, 3)), "wide": (4, (5, 6))}.items():
        views = [np.random.default_rng(7).normal(size=(n, w)) for w in widths]
        base = fit_gcca(views, sum(widths))
        model = fit_gcca([np.ldexp(v, k) for v in views], base.dim)
        assert model.eigenvalues.tobytes() == base.eigenvalues.tobytes(), shape
        for p, q in zip(model.projections, base.projections):
            assert p.tobytes() == np.ldexp(q, -k).tobytes(), shape


@settings(max_examples=50, deadline=None)
@given(st.integers(-1000, 1000))
@example(-1000)
@example(1000)
def test_apply_is_exact_under_power_of_two_scaling(k):
    # views scaled by 2**k, each model fitted on its own views: concatenation scales exactly, and
    # GCCA's projections scale by 2**-k, so its output does not move at all.  SVD's projected rows
    # scale exactly too, and l2_normalize_rows scales each row by a power of two before it takes
    # the norm, so its output does not move either wherever the projected rows are exact.  They
    # are at every k but the wide shape's lowest: its sixth direction is null, and its
    # projections, rounding noise at about 1e-16 of a row's norm, go subnormal below 2**-967
    for shape, (n, widths) in _RANGE_SHAPES.items():
        views = [np.random.default_rng(7).normal(size=(n, w)) for w in widths]
        scaled = [np.ldexp(v, k) for v in views]
        assert concat_views(scaled).tobytes() == np.ldexp(concat_views(views), k).tobytes(), shape
        gcca = fit_gcca(views, sum(widths))
        assert fit_gcca(scaled, gcca.dim).apply(scaled).tobytes() == gcca.apply(views).tobytes(), shape
        svd = fit_svd_meta(views, min(n, sum(widths)))
        model = fit_svd_meta(scaled, svd.dim)
        out, base = model.apply(scaled), svd.apply(views)
        rows = (concat_views(scaled) - model.mean) @ model.projection
        if np.ldexp(rows, -k).tobytes() == ((concat_views(views) - svd.mean) @ svd.projection).tobytes():
            assert out.tobytes() == base.tobytes(), shape
        else:
            assert shape == "wide" and k < -967
            assert np.max(np.abs(out - base)) <= 2.0**-52, shape


def test_gcca_projection_that_overflows_names_its_view(rng):
    views = [rng.normal(size=(20, 3)), np.ldexp(rng.normal(size=(20, 2)), -1060)]
    with pytest.raises(ValidationError, match=r"view 1's projection overflows float64"):
        fit_gcca(views, dim=2)


def dense_problem(views, tau):
    """C (diagonal blocks zeroed) and B of GCCA's generalized eigenproblem, built densely."""
    x = np.hstack([v - v.mean(axis=0) for v in views])
    cov = x.T @ x / len(x)
    c, b = cov.copy(), np.zeros_like(cov)
    start = 0
    for v in views:
        s = slice(start, start + v.shape[1])
        start = s.stop
        b[s, s] = cov[s, s] + np.eye(v.shape[1]) * (tau / v.shape[1]) * np.trace(cov[s, s])
        c[s, s] = 0.0
    return c, b


def reference_gcca(views, dim, tau):
    """GCCA by whitening in one pass, unscaled: every map is held through one eigh.

    A view wider than the n rows is rotated by the complete QR of its whitened block, solved on its
    first n coordinates, and adds the others as rho = 0 pairs, merged into the solved pairs by a
    stable descending sort.
    """
    n = len(views[0])
    centered = [column_means_and_center(v)[1] for v in views]
    blocks, maps = [], []
    for c in centered:
        b = c.T @ c / n
        b[np.diag_indices(c.shape[1])] += (tau / c.shape[1]) * np.trace(b)
        w = np.linalg.inv(cholesky(b))
        if c.shape[1] > n:
            q, r = np.linalg.qr(w @ c.T, mode="complete")
            blocks.append(r[:n].T)
            w = q.T @ w
        else:
            blocks.append(c @ w.T)
        maps.append(w)
    whitened = np.hstack(blocks)
    cross = whitened.T @ whitened / n
    offsets = np.cumsum([0, *(b.shape[1] for b in blocks)])
    for a, b in zip(offsets, offsets[1:]):
        cross[a:b, a:b] = 0.0
    values, vectors = sym_eig_desc(cross)
    rest = [(j, i) for j, c in enumerate(centered) for i in range(n, c.shape[1])]
    rho = np.concatenate([values, np.zeros(len(rest))])
    keep = np.argsort(-rho, kind="stable")[:dim]
    coords = [np.zeros((c.shape[1], dim)) for c in centered]
    for t, pair in enumerate(keep):
        if pair < len(values):
            for j, (a, b) in enumerate(zip(offsets, offsets[1:])):
                coords[j][:b - a, t] = vectors[a:b, pair]
        else:
            j, i = rest[pair - len(values)]
            coords[j][i, t] = 1.0
    theta = [w.T @ u for w, u in zip(maps, coords)]
    signs = lead_signs(np.vstack(theta))
    return rho[keep], [t * signs for t in theta]


class TestGcca:
    # n > k, n < k with every view at most n wide, and n < d_j for two views, whose last d_j - n
    # rotated coordinates give rho = 0 pairs that dim = k needs
    @pytest.mark.parametrize("rows", [40, 8, 3])
    def test_residual_bound_and_b_orthonormality(self, rng, rows):
        views = [rng.normal(size=(rows, d)) * scale for d, scale in ((4, 1.0), (3, 5.0), (5, 0.2))]
        model = fit_gcca(views, dim=12, tau=0.5)
        c, b = dense_problem(views, 0.5)
        theta = np.vstack(model.projections)
        bnorm = np.linalg.norm(b)
        for t, rho in enumerate(model.eigenvalues):
            resid = np.linalg.norm(c @ theta[:, t] - rho * (b @ theta[:, t]))
            assert resid <= 1e-7 * (1.0 + abs(rho)) * bnorm
        assert np.max(np.abs(theta.T @ b @ theta - np.eye(12))) <= 1e-8
        lead = np.argmax(np.abs(theta), axis=0)
        assert np.all(theta[lead, np.arange(12)] > 0)

    def test_eigenvalues_match_the_dense_problem(self, rng):
        for rows, widths in ((30, (3, 4, 2)), (4, (6, 5, 2))):  # n > k, and n < d_j for two views
            views = [rng.normal(size=(rows, d)) for d in widths]
            model = fit_gcca(views, dim=sum(widths), tau=1.0)
            c, b = dense_problem(views, 1.0)
            expect = np.sort(np.linalg.eigvals(np.linalg.solve(b, c)).real)[::-1]
            assert np.allclose(model.eigenvalues, expect, rtol=0, atol=1e-9), rows

    @pytest.mark.parametrize("position, pivot", [(1, 4), (2, 6)])
    def test_singular_view_names_its_global_pivot(self, rng, position, pivot):
        # a constant column makes that view's block of B singular at tau = 0; the pivot named
        # is the one a Cholesky factorization of the whole block-diagonal B fails at
        views = [rng.normal(size=(15, 3)), rng.normal(size=(15, 2))]
        singular = rng.normal(size=(15, 3))
        singular[:, 1] = 7.0
        views.insert(position, singular)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            fit_gcca(views, dim=1, tau=0.0)
        with pytest.raises(NotPositiveDefiniteError) as dense:
            cholesky(dense_problem(views, 0.0)[1])
        assert exc.value.pivot_index == dense.value.pivot_index == pivot
        assert exc.value.pivot_value == dense.value.pivot_value == 0.0
        assert f"pivot {pivot} is 0" in str(exc.value)
        assert fit_gcca(views, dim=1, tau=0.1).dim == 1

    @pytest.mark.parametrize("rows, widths, dim", [(40, (4, 3, 5), 12), (300, (120, 80, 40), 32),
                                                   (10, (4, 3, 5), 12)])
    def test_views_at_most_n_wide_keep_the_plain_whitening_bitwise(self, rng, rows, widths, dim):
        # with k > n and no view wider than n, no view is reduced and the power-of-two scaling is
        # exact, so the model is the plain whitening path's bit for bit, whatever the views'
        # magnitudes.  With k <= n the fit whitens from the Gram matrix accumulated over row
        # blocks, which moves the last bits
        views = [rng.normal(size=(rows, d)) * scale for d, scale in zip(widths, (3e-7, 1.0, 5e4))]
        model = fit_gcca(views, dim, tau=0.5)
        values, projections = reference_gcca(views, dim, tau=0.5)
        if sum(widths) > rows:
            assert model.eigenvalues.tobytes() == values.tobytes()
            for p, q in zip(model.projections, projections):
                assert p.tobytes() == q.tobytes()
        else:
            assert np.max(np.abs(model.eigenvalues - values)) <= 1e-14
            for p, q in zip(model.projections, projections):
                assert np.all(np.max(np.abs(p - q), axis=0) <= 1e-11 * np.max(np.abs(q), axis=0))

    @pytest.mark.parametrize("rows, widths, dim", [(8, (12, 3, 9), 10), (8, (12, 3, 9), 24),
                                                   (30, (45, 20, 60), 40), (30, (45, 20, 60), 125)])
    def test_wide_views_match_the_one_pass_fit_bitwise(self, rng, rows, widths, dim):
        # two views wider than n: the whitening pass takes only R of each one's whitened block and
        # the mapping pass rebuilds its map with the complete QR, so the model is the one-pass
        # fit's bit for bit, with dim = k taking every rho = 0 pair from the maps' rows past n
        views = [rng.normal(size=(rows, d)) * scale for d, scale in zip(widths, (3e-7, 1.0, 5e4))]
        model = fit_gcca(views, dim, tau=0.5)
        values, projections = reference_gcca(views, dim, tau=0.5)
        assert model.eigenvalues.tobytes() == values.tobytes()
        for p, q in zip(model.projections, projections):
            assert p.tobytes() == q.tobytes()

    def test_duplicated_views_are_perfectly_aligned(self, rng):
        # two copies of one view: the top generalized correlation is 1 and
        # the two per-view projections agree on every row
        x = rng.normal(size=(50, 3))
        model = fit_gcca([x, x], dim=1, tau=0.0)
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        z1 = (x - model.means[0]) @ model.projections[0]
        z2 = (x - model.means[1]) @ model.projections[1]
        assert pearson(z1[:, 0], z2[:, 0]) >= 1.0 - 1e-10

    def test_latent_recovery_with_default_regularizer(self):
        rng = np.random.default_rng(11)
        n = 200
        z = rng.normal(size=n)
        w1 = rng.normal(size=4)
        w2 = rng.normal(size=3)
        v1 = np.outer(z, w1) + 0.1 * rng.normal(size=(n, 4))
        v2 = np.outer(z, w2) + 0.1 * rng.normal(size=(n, 3))
        model = fit_gcca([v1, v2], dim=2)
        assert model.tau == 10.0
        out = model.apply([v1, v2])
        assert abs(pearson(out[:, 0], z)) > 0.9

    def test_apply_is_sum_of_view_projections(self, rng):
        mats = [rng.normal(size=(25, 3)), rng.normal(size=(25, 2))]
        model = fit_gcca(mats, dim=2)
        out = model.apply(mats)
        manual = sum((m - mu) @ p for m, mu, p in zip(mats, model.means, model.projections))
        assert np.max(np.abs(out - manual)) <= 1e-12

    def test_mean_inputs_map_to_zero(self, rng):
        mats = [rng.normal(size=(20, 3)), rng.normal(size=(20, 2))]
        model = fit_gcca(mats, dim=2)
        out = model.apply([model.means[0][None, :], model.means[1][None, :]])
        assert np.max(np.abs(out)) <= 1e-12

    def test_constant_view_rejected(self, rng):
        const = np.full((10, 2), 3.0)
        other = rng.normal(size=(10, 3))
        with pytest.raises(ValidationError, match="view 0 is constant"):
            fit_gcca([const, other], dim=1)

    def test_singular_view_needs_regularization(self, rng):
        col = rng.normal(size=(15, 1))
        dup = np.hstack([col, col])  # rank-1 covariance
        other = rng.normal(size=(15, 2))
        with pytest.raises(NotPositiveDefiniteError):
            fit_gcca([dup, other], dim=1, tau=0.0)
        model = fit_gcca([dup, other], dim=1, tau=10.0)
        assert model.dim == 1

    def test_needs_two_views(self, rng):
        with pytest.raises(ValidationError, match="at least 2"):
            fit_gcca([rng.normal(size=(5, 2))], dim=1)

    def test_dim_and_tau_bounds(self, rng):
        mats = [rng.normal(size=(8, 2)), rng.normal(size=(8, 2))]
        with pytest.raises(ValidationError, match=r"dim must be in \[1, 4\]"):
            fit_gcca(mats, dim=5)
        with pytest.raises(ValidationError, match="tau"):
            fit_gcca(mats, dim=1, tau=-0.5)

    def test_round_trip_bitwise(self, rng, tmp_path):
        mats = [rng.normal(size=(12, 3)), rng.normal(size=(12, 2))]
        model = fit_gcca(mats, dim=3, tau=2.5)
        path = tmp_path / "g.model"
        model.save(path)
        back = GccaModel.load(path)
        assert back.dims == model.dims and back.tau == model.tau
        for a, b in zip(back.means, model.means):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(back.projections, model.projections):
            assert a.tobytes() == b.tobytes()
        assert back.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert back.apply(mats).tobytes() == model.apply(mats).tobytes()

    def test_streaming_matches_batch(self, rng):
        mats = [rng.normal(size=(10, 3)), rng.normal(size=(10, 2))]
        model = fit_gcca(mats, dim=2)
        batch = model.apply(mats)
        for i in range(10):
            single = model.apply([m[i : i + 1] for m in mats])
            assert np.max(np.abs(single[0] - batch[i])) <= 1e-12

    def test_three_views(self, rng):
        mats = [rng.normal(size=(30, 2)), rng.normal(size=(30, 3)), rng.normal(size=(30, 2))]
        model = fit_gcca(mats, dim=2)
        assert model.apply(mats).shape == (30, 2)
        assert len(model.projections) == 3


class TestTau:
    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -5.0])
    def test_fit_rejects_before_any_work(self, tau, monkeypatch):
        import metaembed.ensembles as ensembles

        monkeypatch.setattr(ensembles, "_check_views", None)
        with pytest.raises(ValidationError, match="tau must be finite and non-negative"):
            fit_gcca([np.ones((3, 1)), np.ones((3, 1))], dim=1, tau=tau)

    @pytest.mark.parametrize("tau", ["nan", "inf", "-5"])
    def test_load_rejects_and_names_the_path(self, tau, tmp_path):
        path = tmp_path / "gcca.model"
        path.write_text((GOLDEN / "gcca.model").read_text().replace("tau 0\n", f"tau {tau}\n", 1))
        with pytest.raises(ValidationError, match=f"{path}: tau must be finite and non-negative"):
            GccaModel.load(path)


class TestGoldenFiles:
    def test_svdmeta_golden_loads_and_applies(self, tmp_path):
        model = SvdMetaModel.load(GOLDEN / "svdmeta.model")
        assert model.dims == (2, 1) and model.dim == 2
        assert np.array_equal(model.mean, [1.0, 2.0, 3.0])
        out = model.apply([np.array([[2.0, 2.0]]), np.array([[3.0]])])
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-15)
        rewritten = tmp_path / "svdmeta.model"
        model.save(rewritten)
        assert rewritten.read_bytes() == (GOLDEN / "svdmeta.model").read_bytes()

    def test_gcca_golden_loads_and_applies(self, tmp_path):
        model = GccaModel.load(GOLDEN / "gcca.model")
        assert model.dims == (1, 1) and model.tau == 0.0
        out = model.apply([np.array([[3.0]]), np.array([[1.0]])])
        assert np.allclose(out, [[1.5]], atol=1e-15)
        rewritten = tmp_path / "gcca.model"
        model.save(rewritten)
        assert rewritten.read_bytes() == (GOLDEN / "gcca.model").read_bytes()
