import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaembed.datasets import Pair
from metaembed.dynamic import new_dynamic_model
from metaembed.errors import ValidationError
from metaembed.evaluation import (
    EvalReport,
    _pair_cosines,
    _row_cosines,
    accuracy,
    config_fingerprint,
    cosine,
    embed_table,
    evaluate_classification,
    evaluate_similarity,
    format_report_table,
    pearson,
    scale_similarity,
)
from metaembed.lstm import BLOCK_ROWS
from metaembed.store import EmbeddingTable, SequenceTable

# keep magnitudes in a range where centered norms cannot underflow to zero
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-6
)


class TestCosine:
    def test_oracle(self):
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine([1, 0], [1, 0]) == 1.0
        assert cosine([1, 0], [-1, 0]) == -1.0
        assert cosine([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_self_similarity(self, rng):
        for _ in range(5):
            v = rng.normal(size=8)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_and_scale_invariance(self, rng):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert cosine(u, v) == cosine(v, u)
        assert cosine(3.0 * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
        assert cosine(u, -v) == pytest.approx(-cosine(u, v), abs=1e-12)

    def test_clamped_into_range(self):
        # parallel vectors can exceed 1 by rounding; the clamp stops that
        v = np.full(1000, 0.1)
        assert -1.0 <= cosine(v, 7 * v) <= 1.0

    def test_zero_vector_error(self):
        with pytest.raises(ValidationError, match="zero vector"):
            cosine([0, 0], [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            cosine([1, 0], [1, 0, 0])

    def test_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            cosine([np.nan, 1], [1, 0])

    def test_huge_entries(self):
        # the squared norms overflow unless each vector is scaled first
        expected = 0.9 / math.sqrt(2.0 * 1.01)
        assert cosine([1e200, 1e200], [1e200, -1e199]) == pytest.approx(expected, abs=1e-15)
        assert abs(expected - 0.63324) < 1e-5

    def test_tiny_entries(self):
        # the squared norms underflow to zero unless each vector is scaled first
        assert cosine([1e-170, 0.0], [1e-170, 0.0]) == 1.0
        assert cosine([1e-170, 0.0], [0.0, 3e-300]) == 0.0

    def test_inputs_not_mutated(self):
        u = np.array([3.0, 4.0])
        v = np.array([1e-170, 2e-170])
        cosine(u, v)
        assert u.tolist() == [3.0, 4.0] and v.tolist() == [1e-170, 2e-170]

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        st.floats(-300.0, 300.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance_over_float64_range(self, u, v, exponent):
        # entries of magnitude >= 1e-3 stay normal after scaling by 1e-300
        u = [x if abs(x) >= 1e-3 else 0.0 for x in u]
        v = [x if abs(x) >= 1e-3 else 0.0 for x in v]
        assume(any(u) and any(v))
        c = 10.0 ** exponent
        assert abs(cosine([c * x for x in u], v) - cosine(u, v)) <= 1e-12


class TestScaleSimilarity:
    def test_endpoints_exact(self):
        assert scale_similarity(1.0, 0.0, 5.0) == 5.0
        assert scale_similarity(0.0, 0.0, 5.0) == 0.0
        assert scale_similarity(0.5, 0.0, 5.0) == 2.5
        assert scale_similarity(1.0, 1.0, 5.0) == 5.0
        assert scale_similarity(0.25, 1.0, 5.0) == 2.0

    def test_negative_cosines_clamp_to_floor(self):
        assert scale_similarity(-1.0, 0.0, 5.0) == 0.0
        assert scale_similarity(-0.3, 0.0, 5.0) == 0.0
        assert scale_similarity(-1e-12, 1.0, 5.0) == 1.0

    def test_bad_range_rejected(self):
        with pytest.raises(ValidationError, match="hi > lo"):
            scale_similarity(0.0, 5.0, 0.0)

    def test_arrays_elementwise(self):
        cos = np.array([1.0, 0.25, 0.0, -0.3])
        out = scale_similarity(cos, 1.0, 5.0)
        assert out.tolist() == [scale_similarity(c, 1.0, 5.0) for c in cos] == [5.0, 2.0, 1.0, 1.0]

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, v):
        s = scale_similarity(v, 1.0, 5.0)
        assert 1.0 <= s <= 5.0
        if v < 1.0:
            assert scale_similarity(v + (1.0 - v) / 2, 1.0, 5.0) >= s


class TestPearson:
    def test_perfect_correlation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-15)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = pearson(x, y)
        assert pearson(2.5 * x + 3.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.1 * y - 7.0) == pytest.approx(base, abs=1e-12)

    def test_oracle(self):
        # hand-checked: x=[0,1,2], y=[0,1,4] -> r = 4/sqrt(2*26/3)
        x = [0.0, 1.0, 2.0]
        y = [0.0, 1.0, 4.0]
        expected = 4.0 / math.sqrt(2.0 * 8.666666666666666)
        assert pearson(x, y) == pytest.approx(expected, abs=1e-15)

    def test_constant_input_error_names_x(self):
        with pytest.raises(ValidationError, match="zero variance in x"):
            pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_constant_input_error_names_y(self):
        with pytest.raises(ValidationError, match="zero variance in y"):
            pearson([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])

    def test_needs_two_points(self):
        with pytest.raises(ValidationError, match="two points"):
            pearson([1.0], [2.0])

    def test_huge_entries(self):
        # the centered sum of squares overflows unless the sample is scaled first
        assert pearson([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]) == 1.0
        assert pearson([1e-170, 2e-170, 3e-170], [3.0, 2.0, 1.0]) == -1.0
        # here even the sample mean overflows unless the sample is scaled first
        assert pearson([1.7e308, 1.6e308, 1.5e308], [1.0, 2.0, 3.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_constant_input_error_at_any_scale(self):
        for c in (0.1, 1e-300, 1.7e308):
            with pytest.raises(ValidationError, match="zero variance in x"):
                pearson([c, c, c], [0.0, 1.0, 2.0])

    @given(st.lists(finite, min_size=3, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, xs):
        ys = [x * 0.5 + i for i, x in enumerate(xs)]
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            assert -1.0 <= pearson(xs, ys) <= 1.0


class TestAccuracy:
    def test_is_a_percentage(self):
        assert accuracy(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(100.0 * 2 / 3)
        assert accuracy(["a"], ["a"]) == 100.0
        assert accuracy(["a"], ["b"]) == 0.0
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0
        assert accuracy(["a", "b", "a", "b"], ["a", "a", "a", "a"]) == 50.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            accuracy(["a"], ["a", "b"])
        with pytest.raises(ValidationError, match="at least one"):
            accuracy([], [])


class TestFingerprint:
    def test_deterministic_and_sensitive(self):
        a = config_fingerprint("sts", 0.0, 5.0, [1, 2, 3])
        assert a == config_fingerprint("sts", 0.0, 5.0, [1, 2, 3])
        assert a != config_fingerprint("sts", 0.0, 5.0, [1, 2, 4])
        assert a != config_fingerprint("sick-r", 0.0, 5.0, [1, 2, 3])

    def test_arrays_hash_by_shape_and_bytes(self):
        m = np.arange(6.0).reshape(2, 3)
        assert config_fingerprint(m) == config_fingerprint(m.copy())
        assert config_fingerprint(m) != config_fingerprint(m.reshape(3, 2))

    def test_type_distinctions_survive(self):
        assert config_fingerprint("1") != config_fingerprint(1)
        assert config_fingerprint(None) != config_fingerprint("None")

    # digests of the token-per-element implementation, which the bulk one must reproduce
    PINNED = {
        "8d9fc70bb4d2d299bebe05964e4c0c64d47a8d7d039853ac6639d60f1e323857":
            ("sts", 0, -7, 2.5, -0.0, float("inf"), True, False, None, "ünï cödé", ""),
        "e767e3dcfb85ee6d4b9f4c7497c9c11175aea7f4dad3a6c12f18e6d401b2ddfa":
            ("a", (1, 2.0, None), [], (), [[("x", "y", 3.25)], b"raw\x1f"], (True, "t")),
        "539620886468557b040df276a729dfd440c59c48165b3fb71f717e61f963bd73":
            (np.arange(6.0).reshape(2, 3), np.float64(1.5), np.array(2.0), np.zeros((0, 4)),
             np.arange(6).reshape(3, 2).T, [np.ones(3), ("k", 1)]),
        "bc3a209c69d52b0abfebd2c95b658260135a72f226f880a49941ae7ef87d52e0":
            ("sick-r", [(f"s{i}", f"t{i}", i / 7) for i in range(50)], ("id1", "id2")),
        "915cddb04d34ad9d97c487c349502ef5b80edf464490b5813e79ab9b90c651c5":
            (b"", bytes(range(256)), 10**30, -1e-320, 1e308, float("nan"), [None, [None, []]]),
    }

    @pytest.mark.parametrize("digest", sorted(PINNED))
    def test_digests_are_pinned(self, digest):
        assert config_fingerprint(*self.PINNED[digest]) == digest

    def test_unsupported_types_refused_inside_sequences(self):
        for bad in ({"a": 1}, np.int64(3), {1, 2}):
            with pytest.raises(ValidationError, match="cannot fingerprint a"):
                config_fingerprint("x", [("a", 1), ("b", bad)])


class TestReportFormats:
    def report(self):
        return EvalReport("sts", "pearson", 0.75, 300, "ab" * 32)

    def test_json_line_round_trips(self):
        r = self.report()
        line = json.dumps(r._asdict())
        back = json.loads(line)
        assert back == {"task": "sts", "metric": "pearson", "value": 0.75,
                        "n": 300, "fingerprint": "ab" * 32}

    def test_table_is_aligned(self):
        other = EvalReport("sick-e", "accuracy", 81.5, 4906, "cd" * 32)
        text = format_report_table([self.report(), other])
        lines = text.splitlines()
        assert lines[0].startswith("task")
        assert len({len(line) for line in lines}) <= 2  # last column padding may differ
        assert "0.750000" in lines[1] and "81.500000" in lines[2]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no reports"):
            format_report_table([])


class TestSimilarityDriver:
    def make_table(self):
        vectors = np.array([
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
        ])
        return EmbeddingTable(["s1", "s2", "s3", "s4"], vectors)

    def test_rows_and_pearson(self):
        table = self.make_table()
        pairs = [
            Pair("s1", "s2", 5.0),
            Pair("s1", "s3", 2.5),
            Pair("s1", "s4", 0.0),
        ]
        report, rows = evaluate_similarity(table, pairs, 0.0, 5.0)
        assert report.task == "sts" and report.metric == "pearson"
        assert report.n == 3
        # cos 1 -> 5, cos 0 -> 0, cos -1 clamps to 0
        assert [r[3] for r in rows] == [5.0, 0.0, 0.0]
        assert rows[0][:3] == ("s1", "s2", 5.0)
        assert -1.0 <= report.value <= 1.0

    def test_fingerprint_tracks_inputs(self):
        table = self.make_table()
        pairs = [Pair("s1", "s2", 5.0), Pair("s1", "s3", 1.0)]
        r1, _ = evaluate_similarity(table, pairs)
        r2, _ = evaluate_similarity(table, pairs)
        assert r1.fingerprint == r2.fingerprint
        r3, _ = evaluate_similarity(table, [Pair("s1", "s2", 5.0), Pair("s1", "s3", 2.0)])
        assert r3.fingerprint != r1.fingerprint

    def test_label_must_be_numeric(self):
        pairs = [Pair("s1", "s2", None)]
        with pytest.raises(ValidationError, match="no usable gold score"):
            evaluate_similarity(self.make_table(), pairs)

    def test_unknown_ids_listed(self):
        pairs = [Pair("s1", "zz", 1.0), Pair("yy", "s2", 2.0)]
        with pytest.raises(ValidationError, match=r"2 pair id\(s\) have no vector.*'yy', 'zz'"):
            evaluate_similarity(self.make_table(), pairs)

    def test_empty(self):
        with pytest.raises(ValidationError, match="no pairs"):
            evaluate_similarity(self.make_table(), [])

    def test_matches_per_pair_reference(self, rng):
        ids = [f"s{i}" for i in range(12)]
        vectors = rng.normal(size=(12, 5)) * np.logspace(-150, 150, 12)[:, None]
        table = EmbeddingTable(ids, vectors)
        picks = rng.integers(0, 12, size=(40, 2))
        pairs = [Pair(ids[i], ids[j], float(k % 5)) for k, (i, j) in enumerate(picks)]
        _, rows = evaluate_similarity(table, pairs, 1.0, 5.0)
        for p, row in zip(pairs, rows):
            expected = scale_similarity(cosine(table.row(p.id_a), table.row(p.id_b)), 1.0, 5.0)
            assert row[:3] == (p.id_a, p.id_b, p.label)
            assert abs(row[3] - expected) <= 1e-15
            assert type(row[2]) is float and type(row[3]) is float

    def test_zero_vector_rejected(self):
        table = EmbeddingTable(["s1", "z"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="zero vector"):
            evaluate_similarity(table, [Pair("s1", "s1", 1.0), Pair("s1", "z", 2.0)])

    def chunk_fixture(self, rng, n_pairs):
        ids = [f"s{i}" for i in range(40)]
        vectors = rng.normal(size=(40, 6)) * np.logspace(-150, 150, 40)[:, None]
        table = EmbeddingTable(ids, vectors)
        picks = rng.integers(0, 40, size=(n_pairs, 2))
        return table, [Pair(ids[i], ids[j], float(k % 5)) for k, (i, j) in enumerate(picks)]

    @pytest.mark.parametrize("n_pairs", [2, 1024, 2 * 1024 + 5])
    def test_chunked_cosines_equal_one_shot(self, rng, n_pairs):
        table, pairs = self.chunk_fixture(rng, n_pairs)
        one_shot = _row_cosines(table.lookup(p.id_a for p in pairs), table.lookup(p.id_b for p in pairs),
                                "a", "b")
        assert _pair_cosines(table, pairs).tobytes() == one_shot.tobytes()
        _, rows = evaluate_similarity(table, pairs)
        assert [r[3] for r in rows] == scale_similarity(one_shot, 0.0, 5.0).tolist()

    def test_fingerprint_hashes_the_mentioned_rows_as_a_table_of_them(self, rng):
        # 2500 of 3000 ids, several gather blocks, mentioned in an order that is not the table's
        ids = [f"s{i}" for i in range(3000)]
        table = EmbeddingTable(ids, rng.normal(size=(3000, 4)))
        order = [ids[i] for i in rng.permutation(3000)[:2500]]
        pairs = [Pair(order[i], order[i + 1], float(i % 5)) for i in range(0, 2500, 2)]
        fingerprint = evaluate_similarity(table, pairs)[0].fingerprint
        assert fingerprint == evaluate_similarity(EmbeddingTable(order, table.lookup(order)), pairs)[0].fingerprint
        # a row no pair mentions does not count; a mentioned one does
        changed = table.vectors.copy()
        changed[table.index(sorted(set(ids) - set(order))[0])] += 1.0
        assert evaluate_similarity(EmbeddingTable(ids, changed), pairs)[0].fingerprint == fingerprint
        changed[table.index(order[-1])] += 1.0
        assert evaluate_similarity(EmbeddingTable(ids, changed), pairs)[0].fingerprint != fingerprint

    def test_zero_vector_in_a_later_chunk_rejected(self, rng):
        table, pairs = self.chunk_fixture(rng, 2 * 1024 + 5)
        vectors = np.vstack([table.vectors, np.zeros((1, 6))])
        table = EmbeddingTable(table.ids + ("z",), vectors)
        pairs[2 * 1024 + 1] = Pair("z", pairs[0].id_a, 1.0)
        with pytest.raises(ValidationError, match="^cosine of a zero vector is undefined$"):
            evaluate_similarity(table, pairs)


class FixedModel:
    """Predicts by comparing first vector components; stands in for a trained model."""

    kind = "stub"
    seed = 0
    classes = ("low", "high")
    params: dict = {}

    def pair_logits(self, u, v):
        return np.hstack([np.zeros_like(u), np.where(u >= v, 1.0, -1.0)]), None


class TestClassificationDriver:
    def make_table(self):
        return EmbeddingTable(["a", "b"], np.array([[3.0], [1.0]]))

    def make_tables(self):
        ids = ["a", "b"]
        t1 = SequenceTable(ids, [np.full((1, 2), 3.0), np.full((1, 2), 1.0)])
        t2 = SequenceTable(ids, [np.zeros((1, 1)), np.zeros((1, 1))])
        return [t1, t2]

    def test_rows_and_accuracy(self):
        pairs = [
            Pair("a", "b", "high"),
            Pair("b", "a", "high"),
        ]
        report, rows = evaluate_classification(FixedModel(), self.make_table(), pairs)
        assert report.metric == "accuracy"
        assert report.n == 2
        assert rows[0] == ("a", "b", "high", "high")
        assert rows[1] == ("b", "a", "high", "low")
        assert report.value == 50.0

    def test_gold_label_must_be_known(self):
        pairs = [Pair("a", "b", "medium")]
        with pytest.raises(ValidationError, match="'medium' is not among the model classes"):
            evaluate_classification(FixedModel(), self.make_table(), pairs)

    def test_real_model_round(self):
        model = new_dynamic_model("dme", [2, 1], ("x", "y"), proj_dim=3, enc_hidden=2, seed=0)
        pairs = [Pair("a", "b", "x"), Pair("b", "a", "y")]
        table = embed_table(model, self.make_tables(), ["a", "b"])
        report, rows = evaluate_classification(model, table, pairs)
        assert report.n == 2
        assert all(r[3] in ("x", "y") for r in rows)

    def test_pair_id_without_vector_reported(self):
        pairs = [Pair("a", "b", "high"), Pair("a", "zz", "low")]
        with pytest.raises(ValidationError, match="1 pair id\\(s\\) have no vector: 'zz'"):
            evaluate_classification(FixedModel(), self.make_table(), pairs)


class TestEmbedTable:
    def test_matches_direct_embedding(self):
        rng = np.random.default_rng(3)
        ids = ["a", "b", "c"]
        t1 = SequenceTable(ids, [rng.normal(size=(s, 2)) for s in (2, 1, 3)])
        t2 = SequenceTable(ids, [rng.normal(size=(s, 3)) for s in (2, 1, 3)])
        model = new_dynamic_model("cdme", [2, 3], ("x", "y"), proj_dim=4, enc_hidden=2,
                                  att_hidden=2, seed=1)
        table = embed_table(model, [t1, t2], ids)
        assert table.dim == model.dim
        direct, _ = model.embed([[t1.lookup("b"), t2.lookup("b")]])
        assert np.array_equal(table.row("b"), direct[0])

    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    def test_rows_across_blocks_match_embedding_alone(self, kind):
        # 2R+3 ids of random lengths span three length-sorted blocks; every
        # row is bitwise the vector of its sentence embedded on its own
        rng = np.random.default_rng(11)
        ids = [f"s{k}" for k in range(2 * BLOCK_ROWS + 3)]
        lengths = rng.integers(1, 13, size=len(ids))
        t1 = SequenceTable(ids, [rng.normal(size=(s, 2)) for s in lengths])
        t2 = SequenceTable(ids, [rng.normal(size=(s, 3)) for s in lengths])
        model = new_dynamic_model(kind, [2, 3], ("x", "y"), proj_dim=4, enc_hidden=3,
                                  att_hidden=(2 if kind == "cdme" else None), seed=2)
        model.params["att_a"] += 0.4
        table = embed_table(model, [t1, t2], ids)
        assert list(table.ids) == ids
        for ident in ids:
            alone, _ = model.embed([[t1.lookup(ident), t2.lookup(ident)]])
            assert table.row(ident).tobytes() == alone[0].tobytes(), ident

    def test_empty_ids(self):
        with pytest.raises(ValidationError, match="no ids"):
            embed_table(None, [], [])
