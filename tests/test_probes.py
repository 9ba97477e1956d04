import numpy as np
import pytest

from metaembed.datasets import Pair
from metaembed.errors import NonFiniteLossError, ValidationError
from metaembed.optim import Adam
from metaembed.probes import (
    PairRows,
    ProbeConfig,
    _check_split,
    _train_softmax,
    pair_feature_matrix,
    pair_features,
    pair_rows,
    probe_classification,
    probe_relatedness,
    relatedness_score,
    relatedness_targets,
)
from metaembed.store import EmbeddingTable


def class_blocks(rng, n, margin=4.0):
    x = rng.normal(size=(n, 4))
    x[:, 0] = np.where(x[:, 0] >= 0, margin, -margin) + 0.3 * rng.normal(size=n)
    labels = ["pos" if v >= 0 else "neg" for v in x[:, 0]]
    return x, labels


def score_blocks(rng, n):
    x = rng.normal(size=(n, 6))
    return x, 3.0 + 2.0 * np.tanh(x[:, 0])


class TestTargets:
    def test_fractional_score_splits_mass(self):
        t = relatedness_targets([1.6])
        assert np.allclose(t, [[0.4, 0.6, 0.0, 0.0, 0.0]], atol=1e-15)
        assert abs(float(relatedness_score(t)[0]) - 1.6) <= 1e-12

    def test_integer_score_is_one_hot(self):
        t = relatedness_targets([5.0, 1.0, 3.0])
        assert np.array_equal(t[0], [0, 0, 0, 0, 1])
        assert np.array_equal(t[1], [1, 0, 0, 0, 0])
        assert np.array_equal(t[2], [0, 0, 1, 0, 0])

    def test_round_trip_over_grid(self):
        scores = np.linspace(1.0, 5.0, 41)
        back = relatedness_score(relatedness_targets(scores))
        assert np.max(np.abs(back - scores)) <= 1e-12

    def test_matches_per_pair_reference(self, rng):
        scores = np.concatenate([[1.0, 5.0, 3.0, 4.999999], rng.uniform(1.0, 5.0, size=60)])
        expected = np.zeros((scores.size, 5))
        for k, s in enumerate(scores):
            low = int(np.floor(s))
            expected[k, low - 1] += 1.0 - (s - low)
            if s - low > 0.0:
                expected[k, low] += s - low
        assert relatedness_targets(scores).tobytes() == expected.tobytes()

    def test_rows_sum_to_one(self):
        t = relatedness_targets([1.0, 2.3, 4.99, 5.0])
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"within \[1, 5\]"):
            relatedness_targets([0.9])
        with pytest.raises(ValidationError, match=r"within \[1, 5\]"):
            relatedness_targets([5.01])
        with pytest.raises(ValidationError, match="no scores"):
            relatedness_targets([])

    def test_score_shape_checked(self):
        with pytest.raises(ValidationError, match="expected 5 bin probabilities"):
            relatedness_score([[0.5, 0.5]])


class TestConfig:
    def test_only_linear_probes(self):
        x = np.ones((4, 2))
        with pytest.raises(ValidationError, match="nhid=0"):
            probe_classification(x, ["a"] * 4, x, ["a"] * 4, x, ["a"] * 4,
                                 ("a", "b"), ProbeConfig(nhid=50))

    def test_only_adam(self):
        x = np.ones((4, 2))
        with pytest.raises(ValidationError, match="unsupported optimizer 'rmsprop'"):
            probe_relatedness(x, [3] * 4, x, [3] * 4, x, [3] * 4,
                              ProbeConfig(optimizer="rmsprop"))

    def test_positive_knobs(self):
        x = np.ones((4, 2))
        with pytest.raises(ValidationError, match="must be positive"):
            probe_classification(x, ["a"] * 4, x, ["a"] * 4, x, ["a"] * 4,
                                 ("a", "b"), ProbeConfig(tenacity=0))

    def test_unknown_label_rejected(self):
        x = np.ones((2, 2))
        with pytest.raises(ValidationError, match="label 'c' is not in the class set"):
            probe_classification(x, ["a", "c"], x, ["a", "a"], x, ["a", "a"], ("a", "b"))

    def test_class_missing_from_train_split(self):
        x = np.ones((4, 2))
        with pytest.raises(ValidationError, match="class 'c' has no examples in the train split"):
            probe_classification(x, ["a", "b", "a", "b"], x, ["a", "c", "a", "b"],
                                 x, ["a"] * 4, ("a", "b", "c"))

    def test_row_count_mismatch(self):
        x = np.ones((3, 2))
        with pytest.raises(ValidationError, match="train: 3 feature rows for 2 targets"):
            probe_classification(x, ["a", "b"], x, ["a"] * 3, x, ["a"] * 3, ("a", "b"))


class TestStopping:
    def plateau_report(self, tenacity=5, max_rounds=200):
        # identical dev rows with three distinct labels pin dev accuracy at
        # exactly 1/3 no matter what the weights do, so the first round is
        # the only improvement and training must stop after `tenacity`
        # non-improving rounds
        rng = np.random.default_rng(0)
        x_train = rng.normal(size=(30, 4))
        l_train = [("a", "b", "c")[i % 3] for i in range(30)]
        x_dev = np.tile(rng.normal(size=(1, 4)), (3, 1))
        return probe_classification(
            x_train, l_train, x_dev, ["a", "b", "c"], x_train[:3], l_train[:3],
            ("a", "b", "c"), ProbeConfig(tenacity=tenacity, seed=0), max_rounds=max_rounds)

    def test_plateau_stops_after_tenacity_rounds(self):
        h = self.plateau_report(tenacity=5).history
        assert h.rounds == 6
        assert h.best_round == 0
        assert h.stopped_early is True
        assert h.dev_curve == [pytest.approx(100 / 3)] * 6

    def test_tenacity_is_respected(self):
        assert self.plateau_report(tenacity=2).history.rounds == 3
        assert self.plateau_report(tenacity=8).history.rounds == 9

    def test_max_rounds_caps_training(self):
        h = self.plateau_report(tenacity=50, max_rounds=3).history
        assert h.rounds == 3
        assert h.stopped_early is False

    def test_bad_max_rounds(self):
        with pytest.raises(ValidationError, match="max_rounds"):
            self.plateau_report(max_rounds=0)


class TestClassificationProbe:
    def test_learns_separable_labels(self):
        rng = np.random.default_rng(7)
        xtr, ltr = class_blocks(rng, 200)
        xd, ld = class_blocks(rng, 50)
        xt, lt = class_blocks(rng, 80)
        rep = probe_classification(xtr, ltr, xd, ld, xt, lt, ("neg", "pos"),
                                   ProbeConfig(seed=0, epoch_size=8, tenacity=8), max_rounds=60)
        assert rep.metric == "accuracy"
        assert rep.dev == 100.0
        assert rep.test == 100.0
        assert rep.test_predictions == lt
        assert (rep.n_train, rep.n_dev, rep.n_test) == (200, 50, 80)

    def test_best_dev_weights_are_restored(self):
        rng = np.random.default_rng(7)
        xtr, ltr = class_blocks(rng, 200)
        xd, ld = class_blocks(rng, 50)
        rep = probe_classification(xtr, ltr, xd, ld, xd, ld, ("neg", "pos"),
                                   ProbeConfig(seed=0, epoch_size=8, tenacity=8), max_rounds=60)
        assert rep.dev == max(rep.history.dev_curve)
        assert rep.history.dev_curve[rep.history.best_round] == rep.dev

    def test_shuffled_labels_stay_near_chance(self):
        rng = np.random.default_rng(0)
        classes = ("a", "b", "c")
        x = rng.normal(size=(510, 8))
        labels = [classes[i] for i in rng.integers(0, 3, 510)]
        rep = probe_classification(x[:300], labels[:300], x[300:360], labels[300:360],
                                   x[360:], labels[360:], classes,
                                   ProbeConfig(seed=0), max_rounds=20)
        assert abs(rep.test - 100 / 3) < 10.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        xtr, ltr = class_blocks(rng, 80)
        xd, ld = class_blocks(rng, 20)
        runs = [probe_classification(xtr, ltr, xd, ld, xd, ld, ("neg", "pos"),
                                     ProbeConfig(seed=3), max_rounds=5) for _ in range(2)]
        assert runs[0] == runs[1]


class TestRelatednessProbe:
    def test_learns_monotone_scores(self):
        rng = np.random.default_rng(7)
        xtr, str_ = score_blocks(rng, 300)
        xd, sd = score_blocks(rng, 60)
        xt, st = score_blocks(rng, 120)
        rep = probe_relatedness(xtr, str_, xd, sd, xt, st, ProbeConfig(seed=0), max_rounds=60)
        assert rep.metric == "pearson"
        assert rep.dev > 0.9
        assert rep.test > 0.9
        assert len(rep.test_predictions) == 120
        assert all(1.0 <= p <= 5.0 for p in rep.test_predictions)

    def test_shuffled_scores_stay_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(510, 8))
        s = rng.uniform(1, 5, 510)
        rep = probe_relatedness(x[:300], s[:300], x[300:360], s[300:360],
                                x[360:], s[360:], ProbeConfig(seed=0), max_rounds=20)
        assert abs(rep.test) < 0.2

    def test_non_finite_loss_aborts(self):
        # the public loaders refuse non-finite features, so poke the trainer
        # directly: a nan feature must abort with 1-based epoch and batch
        from metaembed.probes import _train_softmax

        x = np.ones((4, 2))
        x[0, 0] = np.nan
        targets = relatedness_targets([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NonFiniteLossError) as exc:
            _train_softmax(x, targets, lambda w, b: 0.0, ProbeConfig(seed=0), max_rounds=5)
        assert exc.value.epoch == 1 and exc.value.batch == 1
        assert "batch 1" in str(exc.value)


class TestPairFeatures:
    def test_layout(self):
        table = EmbeddingTable(["a", "b"], np.array([[1.0, 2.0], [4.0, 0.5]]))
        feats = pair_feature_matrix(table, [Pair("a", "b", None)])
        assert feats.shape == (1, 8)
        assert np.array_equal(feats[0], [1, 2, 4, 0.5, 3, 1.5, 4, 1])

    def test_many_pairs_match_per_pair_reference(self, rng):
        ids = [f"s{i}" for i in range(9)]
        table = EmbeddingTable(ids, rng.normal(size=(9, 6)))
        picks = rng.integers(0, 9, size=(25, 2))
        pairs = [Pair(ids[i], ids[j], None) for i, j in picks]
        expected = np.array([
            np.concatenate([u, v, np.abs(u - v), u * v])
            for u, v in ((table.row(p.id_a), table.row(p.id_b)) for p in pairs)
        ])
        assert pair_feature_matrix(table, pairs).tobytes() == expected.tobytes()

    def test_pair_features_match_the_stacked_layout(self, rng):
        u, v = rng.normal(size=(2, 7, 3))
        expected = np.hstack([u, v, np.abs(u - v), u * v])
        assert pair_features(u, v).tobytes() == expected.tobytes()
        # u and v already in place in out, as pair_feature_matrix gathers them
        out = np.full((7, 12), np.nan)
        out[:, :3], out[:, 3:6] = u, v
        assert pair_features(out[:, :3], out[:, 3:6], out) is out
        assert out.tobytes() == expected.tobytes()

    def test_unknown_id(self):
        table = EmbeddingTable(["a"], np.ones((1, 2)))
        with pytest.raises(ValidationError, match="unknown embedding id 'zz'"):
            pair_feature_matrix(table, [Pair("a", "zz", None)])

    def test_empty(self):
        table = EmbeddingTable(["a"], np.ones((1, 2)))
        with pytest.raises(ValidationError, match="no pairs"):
            pair_feature_matrix(table, [])


def reference_adam_step(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam update, one expression per moment, as the probe applied it per block."""
    state["t"] += 1
    c1 = 1.0 - beta1 ** state["t"]
    c2 = 1.0 - beta2 ** state["t"]
    for key, p in params.items():
        m = state.setdefault(("m", key), np.zeros_like(p))
        v = state.setdefault(("v", key), np.zeros_like(p))
        g = grads[key]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def reference_train(train_x, train_t, dev_eval, config, max_rounds):
    """The probe trainer on a whole feature matrix, with w and b as two Adam blocks."""
    from metaembed.optim import seeded_rngs, xavier_uniform

    n, n_feat = train_x.shape
    n_out = train_t.shape[1]
    rngs = seeded_rngs(config.seed, ("weights", "shuffle"))
    params = {"w": xavier_uniform(rngs["weights"], n_out, n_feat), "b": np.zeros(n_out)}
    state = {"t": 0}
    best, best_metric, bad_rounds, curve = None, -np.inf, 0, []
    for _ in range(max_rounds):
        for _ in range(config.epoch_size):
            order = rngs["shuffle"].permutation(n)
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                x, t = train_x[rows], train_t[rows]
                shifted = x @ params["w"].T + params["b"]
                shifted = shifted - shifted.max(axis=1, keepdims=True)
                lse = np.log(np.exp(shifted).sum(axis=1))
                d_logits = (np.exp(shifted - lse[:, None]) - t) / len(rows)
                reference_adam_step(state, params, {"w": d_logits.T @ x, "b": d_logits.sum(axis=0)},
                                    lr=1e-2)
        metric = dev_eval(params["w"], params["b"])
        curve.append(metric)
        if metric > best_metric:
            best_metric, best, bad_rounds = metric, (params["w"].copy(), params["b"].copy()), 0
        else:
            bad_rounds += 1
        if bad_rounds >= config.tenacity:
            break
    return best, curve


class TestPerMinibatchFeatures:
    """A probe given PairRows trains bitwise as one given the pairs' feature matrix."""

    def fixture(self, n_pairs, dim=5, n_ids=30, seed=4):
        rng = np.random.default_rng(seed)
        ids = [f"s{i}" for i in range(n_ids)]
        table = EmbeddingTable(ids, rng.normal(size=(n_ids, dim)))
        picks = rng.integers(0, n_ids, size=(n_pairs, 2))
        pairs = [Pair(ids[i], ids[j], None) for i, j in picks]
        # labels follow the first coordinate of u - v, so the probe has something to learn
        gap = table.vectors[picks[:, 0], 0] - table.vectors[picks[:, 1], 0]
        labels = ["hi" if g > 0.3 else "lo" if g < -0.3 else "mid" for g in gap]
        scores = list(np.clip(3.0 + gap, 1.0, 5.0))
        return table, pairs, labels, scores

    @pytest.mark.parametrize("n_pairs, batch_size", [(100, 16), (103, 16), (9, 64)])
    def test_trainer_matches_the_matrix_reference(self, n_pairs, batch_size):
        table, pairs, labels, _ = self.fixture(n_pairs)
        targets = np.eye(3)[[("hi", "lo", "mid").index(lab) for lab in labels]]
        x = pair_feature_matrix(table, pairs)
        dev_x = x[: n_pairs // 2]
        config = ProbeConfig(batch_size=batch_size, epoch_size=2, tenacity=2, seed=5)

        def dev_eval(w, b):
            return float(-np.abs(dev_x @ w.T + b).sum())  # any deterministic function of w, b

        (w, b), history = _train_softmax(pair_rows(table, pairs), targets, dev_eval, config, 6)
        (w_ref, b_ref), curve = reference_train(x, targets, dev_eval, config, 6)
        assert w.tobytes() == w_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()
        assert history.dev_curve == curve
        (w_x, b_x), history_x = _train_softmax(x, targets, dev_eval, config, 6)
        assert (w_x.tobytes(), b_x.tobytes(), history_x) == (w.tobytes(), b.tobytes(), history)

    @pytest.mark.parametrize("n_pairs, batch_size", [(120, 16), (123, 16), (20, 64)])
    def test_probes_match_on_rows_and_on_matrices(self, n_pairs, batch_size):
        table, pairs, labels, scores = self.fixture(n_pairs)
        splits = [slice(0, n_pairs // 2), slice(n_pairs // 2, 3 * n_pairs // 4), slice(3 * n_pairs // 4, None)]
        config = ProbeConfig(batch_size=batch_size, epoch_size=2, tenacity=2, seed=1)
        for targets, probe, extra in ((labels, probe_classification, [("hi", "lo", "mid")]),
                                      (scores, probe_relatedness, [])):
            on_rows = [pair_rows(table, pairs[splits[0]]), targets[splits[0]]]
            on_matrix = []
            for s in splits:
                on_matrix += [pair_feature_matrix(table, pairs[s]), targets[s]]
            assert probe(*on_rows, *on_matrix[2:], *extra, config, max_rounds=8) == probe(
                *on_matrix, *extra, config, max_rounds=8)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("values", [(1e308, -1e308), (1e200, 1e200)])
    def test_overflowing_features_refused_before_the_first_step(self, monkeypatch, late, values):
        # |u - v| overflows for the first pair of values, u * v for the second
        n = 600
        vectors = np.ones((n + 2, 3))
        vectors[n:, 0] = values
        a = np.arange(n)
        b = np.arange(n)[::-1].copy()
        bad = 450 if late else 0  # a later chunk of the check, or the first
        a[bad], b[bad] = n, n + 1
        rows = PairRows(vectors, a, b)
        assert rows.shape == (n, 12)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self, grads: steps.append(1))
        x = np.ones((4, 12))
        labels = ["p", "q"] * (n // 2)
        with pytest.raises(ValidationError, match="train features contains non-finite entries"):
            probe_classification(rows, labels, x, ["p", "q"] * 2, x, ["p", "q"] * 2, ("p", "q"))
        with pytest.raises(ValidationError, match="train features contains non-finite entries"):
            probe_relatedness(rows, [3.0] * n, x, [3.0] * 4, x, [3.0] * 4)
        assert steps == []

    def test_dev_and_test_matrices_are_checked_in_place(self):
        x = np.ones((4, 8))
        assert _check_split(x, np.ones(4), "dev")[0] is x
        assert _check_split(x.tolist(), np.ones(4), "dev")[0].tobytes() == x.tobytes()
        x[2, 3] = np.inf
        with pytest.raises(ValidationError, match="dev features contains non-finite entries"):
            _check_split(x, np.ones(4), "dev")

    def test_pair_rows_index_the_table(self):
        table = EmbeddingTable(["a", "b", "c"], np.arange(6.0).reshape(3, 2))
        rows = pair_rows(table, [Pair("c", "a", None), Pair("b", "b", None)])
        assert rows.vectors is table.vectors
        assert rows.a.tolist() == [2, 1] and rows.b.tolist() == [0, 1]
        assert rows.shape == (2, 8)
        with pytest.raises(ValidationError, match="unknown embedding id 'zz'"):
            pair_rows(table, [Pair("a", "zz", None)])
        with pytest.raises(ValidationError, match="no pairs"):
            pair_rows(table, [])
