import pathlib

import numpy as np
import pytest

from metaembed.dynamic import DynamicModel, TrainConfig, new_dynamic_model, train_dynamic
from metaembed.errors import NonFiniteLossError, ValidationError
from metaembed.optim import gradient_check

GOLDEN = pathlib.Path(__file__).parent / "golden"


def small_model(kind, seed=7):
    return new_dynamic_model(kind, [3, 4], ("a", "b", "c"), proj_dim=5, enc_hidden=3,
                             att_hidden=(2 if kind == "cdme" else None), seed=seed)


def small_batch(seed=42):
    rng = np.random.default_rng(seed)

    def views(steps):
        return [rng.normal(size=(steps, 3)), rng.normal(size=(steps, 4))]

    return [(views(3), views(2), 0), (views(2), views(3), 1), (views(1), views(2), 2)]


def separable_task(seed, n_pairs):
    rng = np.random.default_rng(seed)
    examples = []
    for k in range(n_pairs):
        y = k % 2
        steps = int(rng.integers(1, 3))

        def sentence(sign):
            lead = np.zeros((steps, 3))
            lead[:, 0] = sign
            return [lead + 0.2 * rng.normal(size=(steps, 3)), rng.normal(size=(steps, 2))]

        examples.append((sentence(1.0), sentence(1.0 if y == 0 else -1.0), y))
    return examples


def task_model(kind, seed):
    return new_dynamic_model(kind, [3, 2], ("same", "diff"), proj_dim=6, enc_hidden=4,
                             att_hidden=(2 if kind == "cdme" else None), seed=seed)


def example_accuracy(model, examples):
    hits = sum(int(np.argmax(model.predict_proba(va, vb)) == y) for va, vb, y in examples)
    return hits / len(examples)


class TestConstruction:
    def test_same_seed_same_parameters(self):
        a = small_model("dme", seed=3)
        b = small_model("dme", seed=3)
        for key in a.params:
            assert a.params[key].tobytes() == b.params[key].tobytes()

    def test_different_seed_differs(self):
        a = small_model("dme", seed=3)
        b = small_model("dme", seed=4)
        assert a.params["p0"].tobytes() != b.params["p0"].tobytes()

    def test_attention_starts_at_zero(self):
        m = small_model("cdme")
        assert np.array_equal(m.params["att_a"], np.zeros_like(m.params["att_a"]))
        assert m.params["att_beta"][0] == 0.0

    def test_single_source_is_allowed(self):
        m = new_dynamic_model("dme", [3], ("a", "b"), proj_dim=4, enc_hidden=2, seed=0)
        assert m.dims == (3,)
        vecs, _ = m.embed([[np.ones((2, 3))]])
        assert vecs.shape == (1, m.dim)

    def test_validation(self):
        with pytest.raises(ValidationError, match="kind"):
            new_dynamic_model("mean", [3, 4], ("a", "b"), 4, 2)
        with pytest.raises(ValidationError, match="at least one source"):
            new_dynamic_model("dme", [], ("a", "b"), 4, 2)
        with pytest.raises(ValidationError, match="at least one source"):
            new_dynamic_model("dme", [3, 0], ("a", "b"), 4, 2)
        with pytest.raises(ValidationError, match="att_hidden only applies"):
            new_dynamic_model("dme", [3, 4], ("a", "b"), 4, 2, att_hidden=2)
        with pytest.raises(ValidationError, match="duplicate class"):
            new_dynamic_model("dme", [3, 4], ("a", "a"), 4, 2)
        with pytest.raises(ValidationError, match="two class"):
            new_dynamic_model("dme", [3, 4], ("a",), 4, 2)


class TestAttention:
    def test_uniform_at_init(self):
        # a == 0 makes every token's logits equal, so the mixture starts
        # exactly uniform over sources
        for kind in ("dme", "cdme"):
            m = small_model(kind)
            views = [np.ones((4, 3)), np.arange(16.0).reshape(4, 4)]
            alpha = m.attention(views)
            assert alpha.shape == (4, 2)
            assert np.max(np.abs(alpha - 0.5)) <= 1e-15

    def test_rows_sum_to_one_after_training_step(self):
        rng = np.random.default_rng(0)
        for kind in ("dme", "cdme"):
            m = small_model(kind)
            train_dynamic(m, small_batch(), TrainConfig(epochs=2, lr=0.05, batch_size=2, seed=0))
            views = [rng.normal(size=(5, 3)), rng.normal(size=(5, 4))]
            alpha = m.attention(views)
            assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(alpha >= 0.0)

    def test_cdme_attention_is_contextual(self):
        # with a off zero, changing the attention recurrence changes the
        # weights even though the projections are untouched
        m = small_model("cdme")
        m.params["att_a"] += 0.5
        views = [np.ones((3, 3)), np.ones((3, 4))]
        before = m.attention(views)
        m.params["att_w_fw"] += 0.3
        after = m.attention(views)
        assert np.max(np.abs(before - after)) > 1e-6

    def test_single_source_weights_are_one(self):
        for kind in ("dme", "cdme"):
            m = new_dynamic_model(kind, [3], ("a", "b"), proj_dim=4, enc_hidden=2,
                                  att_hidden=(2 if kind == "cdme" else None), seed=0)
            m.params["att_a"] += 0.7  # even off the zero init
            alpha = m.attention([np.arange(12.0).reshape(4, 3)])
            assert np.array_equal(alpha, np.ones((4, 1)))

    def test_dme_attention_ignores_other_tokens(self):
        # plain gating scores each token on its own: weights for a token are
        # unchanged when the rest of the sentence changes
        m = small_model("dme")
        m.params["att_a"] += np.linspace(-0.5, 0.5, 5)
        rng = np.random.default_rng(1)
        tok0 = [rng.normal(size=(1, 3)), rng.normal(size=(1, 4))]
        rest = [rng.normal(size=(2, 3)), rng.normal(size=(2, 4))]
        alone = m.attention(tok0)
        padded = m.attention([np.vstack([tok0[0], rest[0]]), np.vstack([tok0[1], rest[1]])])
        assert np.allclose(alone[0], padded[0], atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    def test_analytic_gradients_match_finite_differences(self, kind):
        m = small_model(kind)
        rng = np.random.default_rng(5)
        # move the attention off its zero init so every path carries signal
        m.params["att_a"] += 0.3 * rng.normal(size=m.params["att_a"].shape)
        m.params["att_beta"][0] = 0.1
        batch = small_batch()
        report = gradient_check(lambda: m.loss_and_grads(batch), m.params, epsilon=1e-5, seed=1)
        total = sum(p.size for p in m.params.values())
        assert report.max_rel_err <= 1e-4
        assert set(report.per_block) == set(m.params)
        assert report.n_checked >= min(total, 200)

    def test_gradient_keys_match_parameters(self):
        m = small_model("cdme")
        _, grads = m.loss_and_grads(small_batch())
        assert set(grads) == set(m.params)
        for key in grads:
            assert grads[key].shape == m.params[key].shape

    def test_unused_source_projection_gets_exact_zero_gradient(self):
        # a source whose token views are all zero contributes only through
        # its bias row; the projection matrix cannot influence the loss
        m = small_model("dme")
        rng = np.random.default_rng(8)

        def views(steps):
            return [rng.normal(size=(steps, 3)), np.zeros((steps, 4))]

        batch = [(views(2), views(3), 0), (views(1), views(2), 2)]
        loss, grads = m.loss_and_grads(batch)
        assert np.array_equal(grads["p1"], np.zeros_like(grads["p1"]))
        assert np.any(grads["bias"][1] != 0.0)
        m.params["p1"] += 17.0
        loss_shifted, _ = m.loss_and_grads(batch)
        assert loss_shifted == loss


class TestTraining:
    def test_loss_decreases_and_beats_chance(self):
        train = separable_task(100, 24)
        m = task_model("dme", seed=1)
        history = train_dynamic(m, train, TrainConfig(epochs=8, lr=0.01, batch_size=8, seed=1))
        assert len(history) == 8
        assert history[-1] < history[0]
        assert example_accuracy(m, train) > 0.5

    def test_training_is_deterministic(self):
        train = separable_task(100, 12)
        runs = []
        for _ in range(2):
            m = task_model("cdme", seed=2)
            train_dynamic(m, train, TrainConfig(epochs=3, lr=0.01, batch_size=4, seed=2))
            runs.append({k: v.tobytes() for k, v in m.params.items()})
        assert runs[0] == runs[1]

    def test_shuffle_seed_changes_trajectory(self):
        train = separable_task(100, 12)
        outs = []
        for seed in (0, 1):
            m = task_model("dme", seed=5)
            train_dynamic(m, train, TrainConfig(epochs=2, lr=0.01, batch_size=4, seed=seed))
            outs.append(m.params["head_w"].tobytes())
        assert outs[0] != outs[1]

    def test_non_finite_loss_aborts(self):
        m = small_model("dme")
        m.params["head_w"][0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as exc:
            train_dynamic(m, small_batch(), TrainConfig(epochs=2, lr=0.01, batch_size=4, seed=0))
        assert exc.value.epoch == 1 and exc.value.batch == 1
        assert "epoch 1" in str(exc.value)

    def test_empty_examples_rejected(self):
        with pytest.raises(ValidationError, match="no training examples"):
            train_dynamic(small_model("dme"), [], TrainConfig(epochs=1))

    def test_zero_epochs_leaves_parameters_untouched(self):
        m = small_model("dme", seed=9)
        before = {k: v.tobytes() for k, v in m.params.items()}
        history = train_dynamic(m, small_batch(), TrainConfig(epochs=0))
        assert history == []
        assert {k: v.tobytes() for k, v in m.params.items()} == before

    def test_config_is_the_only_way_to_give_settings(self):
        assert TrainConfig._fields == ("epochs", "lr", "batch_size", "seed")
        with pytest.raises(TypeError):
            train_dynamic(small_model("dme"), small_batch(), epochs=1)

    def test_config_validation(self):
        m = small_model("dme")
        with pytest.raises(ValidationError, match="epochs"):
            train_dynamic(m, small_batch(), TrainConfig(epochs=-1))
        with pytest.raises(ValidationError, match="learning rate"):
            train_dynamic(m, small_batch(), TrainConfig(epochs=1, lr=0.0))
        with pytest.raises(ValidationError, match="batch"):
            train_dynamic(m, small_batch(), TrainConfig(epochs=1, batch_size=0))


class TestPredict:
    def test_probabilities_sum_to_one(self):
        m = small_model("cdme")
        views_a, views_b, _ = small_batch()[0]
        p = m.predict_proba(views_a, views_b)
        assert p.shape == (3,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_sentence_validation(self):
        m = small_model("dme")
        with pytest.raises(ValidationError, match="expects 2 sources"):
            m.embed([[np.ones((2, 3))]])
        with pytest.raises(ValidationError, match="width"):
            m.embed([[np.ones((2, 4)), np.ones((2, 4))]])
        with pytest.raises(ValidationError, match="sequence length"):
            m.embed([[np.ones((2, 3)), np.ones((3, 4))]])

    def test_label_index_validation(self):
        m = small_model("dme")
        views_a, views_b, _ = small_batch()[0]
        with pytest.raises(ValidationError, match="label index"):
            m.loss_and_grads([(views_a, views_b, 3)])


class TestSerialization:
    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    def test_round_trip_bitwise(self, kind, tmp_path):
        m = small_model(kind, seed=11)
        train_dynamic(m, small_batch(), TrainConfig(epochs=1, lr=0.01, batch_size=2, seed=11))
        path = tmp_path / "m.model"
        m.save(path)
        back = DynamicModel.load(path)
        assert back.kind == kind and back.dims == m.dims and back.classes == m.classes
        assert back.proj_dim == m.proj_dim and back.enc_hidden == m.enc_hidden
        assert back.att_hidden == m.att_hidden
        assert back.seed == m.seed
        for key in m.params:
            assert back.params[key].tobytes() == m.params[key].tobytes()
        views_a, views_b, _ = small_batch()[0]
        assert back.predict_proba(views_a, views_b).tobytes() == m.predict_proba(views_a, views_b).tobytes()

    def test_loaded_model_params_stay_aliased(self, tmp_path):
        # the encoder must see loaded weights, not its seed-0 init
        m = small_model("dme", seed=13)
        path = tmp_path / "m.model"
        m.save(path)
        back = DynamicModel.load(path)
        assert back.params["enc_w_fw"] is back.encoder.p["w_fw"]

    def test_header_magic_checked(self, tmp_path):
        path = tmp_path / "m.model"
        small_model("dme").save(path)
        text = path.read_text().replace("DME v1", "GLUE v1", 1)
        path.write_text(text)
        with pytest.raises(ValidationError, match="expected a DME or CDME"):
            DynamicModel.load(path)

    def test_hyper_line_records_shape_and_seed(self, tmp_path):
        path = tmp_path / "m.model"
        small_model("cdme", seed=21).save(path)
        assert path.read_text().splitlines()[1] == "n 2 dims 3 4 proj 5 att 2 enc 3 seed 21 classes a b c"

    def test_source_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "m.model"
        small_model("dme").save(path)
        text = path.read_text().replace("n 2 dims 3 4", "n 3 dims 3 4", 1)
        path.write_text(text)
        with pytest.raises(ValidationError, match="claims 3 sources but lists 2 widths"):
            DynamicModel.load(path)

    def test_dme_must_record_zero_attention_width(self, tmp_path):
        path = tmp_path / "m.model"
        small_model("dme").save(path)
        text = path.read_text().replace("att 0", "att 2", 1)
        path.write_text(text)
        with pytest.raises(ValidationError, match="must record att 0"):
            DynamicModel.load(path)

    def test_missing_block_detected(self, tmp_path):
        path = tmp_path / "m.model"
        small_model("dme").save(path)
        lines = path.read_text().splitlines()
        cut = lines.index("head_b 1 3")
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValidationError, match="missing block 'head_b'"):
            DynamicModel.load(path)


class TestGoldenFiles:
    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    def test_golden_loads_and_resaves_byte_identical(self, kind, tmp_path):
        model = DynamicModel.load(GOLDEN / f"{kind}.model")
        assert model.kind == kind and model.dims == (3, 4) and model.classes == ("a", "b", "c")
        assert model.proj_dim == 2 and model.enc_hidden == 2 and model.seed == 5
        assert model.att_hidden == (2 if kind == "cdme" else None)
        rewritten = tmp_path / f"{kind}.model"
        model.save(rewritten)
        assert rewritten.read_bytes() == (GOLDEN / f"{kind}.model").read_bytes()


# --- per-example reference: one sentence at a time, one step at a time -------

def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def _ref_run(w, u, b, x):
    """One LSTM direction over x (S, d); per-step caches."""
    m = u.shape[1]
    h_prev, c_prev = np.zeros(m), np.zeros(m)
    steps = []
    for t in range(x.shape[0]):
        z = w @ x[t] + u @ h_prev + b
        i, f, g, o = _sig(z[:m]), _sig(z[m:2 * m]), np.tanh(z[2 * m:3 * m]), _sig(z[3 * m:])
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        steps.append((i, f, g, o, c_prev, c, h_prev, h))
        h_prev, c_prev = h, c
    return steps


def _ref_run_backward(w, u, x, steps, dh_seq):
    m = u.shape[1]
    dw, du, db, dx = np.zeros_like(w), np.zeros_like(u), np.zeros(4 * m), np.zeros_like(x)
    dh_next, dc_next = np.zeros(m), np.zeros(m)
    for t in range(len(steps) - 1, -1, -1):
        i, f, g, o, c_prev, c, h_prev, _ = steps[t]
        tc = np.tanh(c)
        dh = dh_seq[t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)])
        dc_next = dc * f
        dw += np.outer(dz, x[t])
        du += np.outer(dz, h_prev)
        db += dz
        dx[t] = w.T @ dz
        dh_next = u.T @ dz
    return dw, du, db, dx


def _ref_bilstm(p, prefix, x):
    fw = _ref_run(p[f"{prefix}_w_fw"], p[f"{prefix}_u_fw"], p[f"{prefix}_b_fw"], x)
    bw = _ref_run(p[f"{prefix}_w_bw"], p[f"{prefix}_u_bw"], p[f"{prefix}_b_bw"], x[::-1])
    states = np.hstack([np.array([s[7] for s in fw]), np.array([s[7] for s in bw])[::-1]])
    return states, (x, fw, bw)


def _ref_bilstm_backward(p, prefix, cache, d_states, grads):
    x, fw, bw = cache
    m = d_states.shape[1] // 2
    dw, du, db, dx_f = _ref_run_backward(p[f"{prefix}_w_fw"], p[f"{prefix}_u_fw"], x, fw, d_states[:, :m])
    grads[f"{prefix}_w_fw"] += dw
    grads[f"{prefix}_u_fw"] += du
    grads[f"{prefix}_b_fw"] += db
    dw, du, db, dx_b = _ref_run_backward(p[f"{prefix}_w_bw"], p[f"{prefix}_u_bw"], x[::-1], bw,
                                         d_states[::-1, m:])
    grads[f"{prefix}_w_bw"] += dw
    grads[f"{prefix}_u_bw"] += du
    grads[f"{prefix}_b_bw"] += db
    return dx_f + dx_b[::-1]


def _ref_embed(model, views):
    p = model.params
    n = len(views)
    proj = np.array([views[i] @ p[f"p{i}"].T + p["bias"][i] for i in range(n)])
    if model.kind == "dme":
        att = None
        logits = proj @ p["att_a"] + p["att_beta"][0]
    else:
        att = [_ref_bilstm(p, "att", proj[i]) for i in range(n)]
        logits = np.array([s @ p["att_a"] for s, _ in att]) + p["att_beta"][0]
    alpha = np.exp(logits - logits.max(axis=0))
    alpha /= alpha.sum(axis=0)
    combined = np.einsum("ns,nsd->sd", alpha, proj)
    states, enc = _ref_bilstm(p, "enc", combined)
    argmax = np.argmax(states, axis=0)
    vec = states[argmax, np.arange(states.shape[1])]
    return vec, (views, proj, att, alpha, enc, argmax, states.shape)


def _ref_embed_backward(model, cache, d_vec, grads):
    p = model.params
    views, proj, att, alpha, enc, argmax, shape = cache
    d_states = np.zeros(shape)
    d_states[argmax, np.arange(shape[1])] = d_vec
    d_comb = _ref_bilstm_backward(p, "enc", enc, d_states, grads)
    d_proj = alpha[:, :, None] * d_comb[None]
    d_alpha = np.einsum("sd,nsd->ns", d_comb, proj)
    d_logits = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=0))
    grads["att_beta"][0] += d_logits.sum()
    if model.kind == "dme":
        grads["att_a"] += np.einsum("ns,nsd->d", d_logits, proj)
        d_proj += d_logits[:, :, None] * p["att_a"]
    else:
        for i, (states, cache_i) in enumerate(att):
            grads["att_a"] += d_logits[i] @ states
            d_proj[i] += _ref_bilstm_backward(p, "att", cache_i, np.outer(d_logits[i], p["att_a"]), grads)
    for i, v in enumerate(views):
        grads[f"p{i}"] += d_proj[i].T @ v
        grads["bias"][i] += d_proj[i].sum(axis=0)


def reference_loss_and_grads(model, batch):
    """Mean cross-entropy and its gradients, one pair and one sentence at a time."""
    p = model.params
    grads = {key: np.zeros_like(v) for key, v in p.items()}
    total = 0.0
    width = model.dim
    for views_a, views_b, label in batch:
        u, cache_a = _ref_embed(model, views_a)
        v, cache_b = _ref_embed(model, views_b)
        z = np.concatenate([u, v, np.abs(u - v), u * v])
        logits = p["head_w"] @ z + p["head_b"]
        lse = logits.max() + np.log(np.exp(logits - logits.max()).sum())
        total += lse - logits[label]
        d_logits = np.exp(logits - lse)
        d_logits[label] -= 1.0
        d_logits /= len(batch)
        grads["head_w"] += np.outer(d_logits, z)
        grads["head_b"] += d_logits
        dz = p["head_w"].T @ d_logits
        dzu, dzv, dza, dzp = (dz[k * width:(k + 1) * width] for k in range(4))
        sign = np.sign(u - v)
        _ref_embed_backward(model, cache_a, dzu + sign * dza + v * dzp, grads)
        _ref_embed_backward(model, cache_b, dzv - sign * dza + u * dzp, grads)
    return total / len(batch), grads


class TestBatchedMatchesPerExample:
    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    @pytest.mark.parametrize("pairs", [12, 20])
    def test_loss_and_grads_match_reference(self, kind, pairs):
        # sentence lengths 1..12 mixed in one minibatch; 20 pairs need two blocks
        rng = np.random.default_rng(31)
        m = small_model(kind, seed=3)
        m.params["att_a"] += 0.5 * rng.normal(size=m.params["att_a"].shape)
        m.params["att_beta"][0] = -0.2

        def views(steps):
            return [rng.normal(size=(steps, 3)), rng.normal(size=(steps, 4))]

        batch = [(views(1 + k % 12), views(12 - k % 12), k % 3) for k in range(pairs)]
        loss, grads = m.loss_and_grads(batch)
        ref_loss, ref_grads = reference_loss_and_grads(m, batch)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert set(grads) == set(ref_grads)
        for key, ref in ref_grads.items():
            if key == "att_beta":
                continue
            scale = np.max(np.abs(ref))
            assert scale > 0.0, key
            assert np.max(np.abs(grads[key] - ref)) <= 1e-12 * scale, key
        # a shared shift of every source's logit leaves the softmax unchanged,
        # so the bias gradient is zero up to rounding in both computations
        bound = 1e-12 * np.max(np.abs(ref_grads["att_a"]))
        assert abs(grads["att_beta"][0]) <= bound and abs(ref_grads["att_beta"][0]) <= bound

    def test_sentence_vectors_ignore_batch_mates(self):
        rng = np.random.default_rng(2)
        for kind in ("dme", "cdme"):
            m = small_model(kind, seed=4)
            m.params["att_a"] += 0.5
            sentences = [[rng.normal(size=(s, 3)), rng.normal(size=(s, 4))]
                         for s in rng.integers(1, 10, size=40)]
            vecs, _ = m.embed(sentences)
            for k, views in enumerate(sentences):
                assert vecs[k].tobytes() == m.embed([views])[0][0].tobytes()
