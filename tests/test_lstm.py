import math

import numpy as np
import pytest

from metaembed.errors import ValidationError
from metaembed.lstm import BLOCK_ROWS, BiLstm, pad
from metaembed.optim import gradient_check


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def make_lstm(in_dim, hidden, seed=0):
    return BiLstm(in_dim, hidden, np.random.default_rng(seed))


# one sequence through the block methods, as row 0 of a one-block batch

def forward(lstm, x):
    """Per-step states (S, 2*hidden) of sequence *x*, plus the block cache."""
    states, cache = lstm.forward_blocks(*pad([x]))
    return states[:, 0, 0], cache


def backward(lstm, cache, d_states):
    """(dx, grads) for one :func:`forward` call; dx has the sequence's shape."""
    d_blocks = np.zeros(cache["valid"].shape + (2 * lstm.hidden,))
    d_blocks[:, 0, 0] = d_states
    dx, grads = lstm.backward_blocks(cache, d_blocks)
    return dx[:, 0, 0], grads


def encode(lstm, x):
    """Max-pooled vector (2*hidden,) of sequence *x*, plus the block cache."""
    vecs, cache = lstm.encode_blocks(*pad([x]))
    return vecs[0, 0], cache


def encode_backward(lstm, cache, d_vec):
    """(dx, grads) for one :func:`encode` call."""
    d_vecs = np.zeros((1, BLOCK_ROWS, 2 * lstm.hidden))
    d_vecs[0, 0] = d_vec
    dx, grads = lstm.encode_backward_blocks(cache, d_vecs)
    return dx[:, 0, 0], grads


class TestForward:
    def test_init_biases(self):
        lstm = make_lstm(3, 4)
        for d in ("fw", "bw"):
            b = lstm.p[f"b_{d}"]
            assert np.array_equal(b[4:8], np.ones(4))  # forget gate open
            assert np.array_equal(b[:4], np.zeros(4))
            assert np.array_equal(b[8:], np.zeros(8))

    def test_xavier_bounds(self):
        lstm = make_lstm(5, 3)
        w = lstm.p["w_fw"]
        bound = math.sqrt(6.0 / (12 + 5))
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) > 0.5 * bound  # actually spread out

    def test_single_step_hand_oracle(self):
        # one unit, one step: recurrence reduces to the gate formulas alone
        lstm = make_lstm(1, 1)
        lstm.p["w_fw"][:, 0] = [0.5, 0.5, 1.0, 0.5]
        lstm.p["u_fw"][:, 0] = 0.0
        lstm.p["b_fw"][:] = 0.0
        states, _ = forward(lstm, np.array([[1.0]]))
        i = sig(0.5)
        g = math.tanh(1.0)
        c1 = i * g
        h1 = sig(0.5) * math.tanh(c1)
        assert states[0, 0] == pytest.approx(h1, abs=1e-12)

    def test_two_step_hand_oracle(self):
        lstm = make_lstm(1, 1)
        lstm.p["w_fw"][:, 0] = [0.5, 0.5, 1.0, 0.5]
        lstm.p["u_fw"][:, 0] = 0.2
        lstm.p["b_fw"][:] = [0.0, 1.0, 0.0, 0.0]
        states, _ = forward(lstm, np.array([[1.0], [-1.0]]))
        i1 = sig(0.5)
        f1 = sig(1.5)
        g1 = math.tanh(1.0)
        o1 = sig(0.5)
        c1 = i1 * g1
        h1 = o1 * math.tanh(c1)
        i2 = sig(-0.5 + 0.2 * h1)
        f2 = sig(0.5 + 0.2 * h1)
        g2 = math.tanh(-1.0 + 0.2 * h1)
        o2 = sig(-0.5 + 0.2 * h1)
        c2 = f2 * c1 + i2 * g2
        h2 = o2 * math.tanh(c2)
        assert states[0, 0] == pytest.approx(h1, abs=1e-12)
        assert states[1, 0] == pytest.approx(h2, abs=1e-12)

    def test_state_shape_and_alignment(self, rng):
        lstm = make_lstm(3, 2, seed=4)
        x = rng.normal(size=(5, 3))
        states, _ = forward(lstm, x)
        assert states.shape == (5, 4)
        # left half is the forward direction: its first step only sees x[0]
        solo, _ = forward(lstm, x[:1])
        assert np.array_equal(states[0, :2], solo[0, :2])
        # right half is the backward direction: its value at the last step
        # only sees x[-1]
        solo_last, _ = forward(lstm, x[-1:])
        assert np.array_equal(states[-1, 2:], solo_last[0, 2:])

    def test_encode_is_componentwise_max(self, rng):
        lstm = make_lstm(3, 2, seed=9)
        x = rng.normal(size=(6, 3))
        states, _ = forward(lstm, x)
        vec, _ = encode(lstm, x)
        assert np.array_equal(vec, states.max(axis=0))

    def test_validation(self, rng):
        lstm = make_lstm(3, 2)
        with pytest.raises(ValidationError, match="shape"):
            forward(lstm, rng.normal(size=(4, 2)))
        with pytest.raises(ValidationError, match="at least one step"):
            forward(lstm, np.empty((0, 3)))


class TestReversal:
    def test_swapped_directions_mirror_exactly(self, rng):
        # running the mirrored parameters over the reversed sequence gives
        # the same numbers bit for bit, with the two halves exchanged
        lstm = make_lstm(4, 3, seed=2)
        mirrored = make_lstm(4, 3, seed=3)
        for key in ("w", "u", "b"):
            mirrored.p[f"{key}_fw"] = lstm.p[f"{key}_bw"].copy()
            mirrored.p[f"{key}_bw"] = lstm.p[f"{key}_fw"].copy()
        x = rng.normal(size=(7, 4))
        states, _ = forward(lstm, x)
        swapped, _ = forward(mirrored, x[::-1])
        realigned = np.hstack([swapped[::-1, 3:], swapped[::-1, :3]])
        assert states.tobytes() == realigned.tobytes()
        vec, _ = encode(lstm, x)
        vec_sw, _ = encode(mirrored, x[::-1])
        assert vec.tobytes() == np.concatenate([vec_sw[3:], vec_sw[:3]]).tobytes()


class TestBackward:
    def test_parameter_gradients_match_finite_differences(self, rng):
        lstm = make_lstm(3, 2, seed=5)
        x = rng.normal(size=(4, 3))
        probe = rng.normal(size=4)

        def func():
            vec, cache = encode(lstm, x)
            _, grads = encode_backward(lstm, cache, probe)
            return float(vec @ probe), grads

        report = gradient_check(func, lstm.p, epsilon=1e-5, seed=3)
        assert report.max_rel_err <= 1e-4
        assert set(report.per_block) == set(lstm.p)
        assert report.n_checked == sum(p.size for p in lstm.p.values())

    def test_input_gradients_match_finite_differences(self, rng):
        lstm = make_lstm(2, 2, seed=6)
        x = rng.normal(size=(3, 2))
        probe = rng.normal(size=4)

        def loss(xv):
            vec, _ = encode(lstm, xv)
            return float(vec @ probe)

        vec, cache = encode(lstm, x)
        dx, _ = encode_backward(lstm, cache, probe)
        eps = 1e-6
        for t in range(3):
            for k in range(2):
                bumped = x.copy()
                bumped[t, k] += eps
                up = loss(bumped)
                bumped[t, k] -= 2 * eps
                down = loss(bumped)
                numeric = (up - down) / (2 * eps)
                assert abs(dx[t, k] - numeric) <= 1e-4 * max(1.0, abs(numeric))

    def test_pooling_routes_gradient_to_argmax_step(self, rng):
        lstm = make_lstm(2, 1, seed=7)
        x = rng.normal(size=(4, 2))
        states, _ = forward(lstm, x)
        vec, cache = encode(lstm, x)
        picked = np.argmax(states, axis=0)
        d_vec = np.array([1.0, 0.0])
        # zero gradient on the second component: nothing flows through the
        # backward direction's pooled position for it
        _, grads = encode_backward(lstm, cache, d_vec)
        # the same probe through forward() at only the argmax row matches
        d_states = np.zeros_like(states)
        d_states[picked[0], 0] = 1.0
        _, cache2 = forward(lstm, x)
        _, grads2 = backward(lstm, cache2, d_states)
        for key in grads:
            assert np.allclose(grads[key], grads2[key], atol=1e-15)


def random_sequences(rng, count, in_dim, max_len=9):
    return [rng.normal(size=(int(rng.integers(1, max_len + 1)), in_dim)) for _ in range(count)]


class TestBlocks:
    def test_pad_layout(self, rng):
        seqs = random_sequences(rng, 2 * BLOCK_ROWS + 3, 2)
        x, lengths = pad(seqs)
        assert x.shape == (max(len(s) for s in seqs), 3, BLOCK_ROWS, 2)
        assert lengths.shape == (3, BLOCK_ROWS)
        for k, s in enumerate(seqs):
            b, r = divmod(k, BLOCK_ROWS)
            assert lengths[b, r] == len(s)
            assert np.array_equal(x[: len(s), b, r], s)
            assert not np.any(x[len(s) :, b, r])
        assert not np.any(lengths.reshape(-1)[len(seqs) :])
        assert not np.any(x[:, 2, 3:])

    def test_pad_validation(self):
        with pytest.raises(ValidationError, match="at least one sequence"):
            pad([])
        with pytest.raises(ValidationError, match="at least one step"):
            pad([np.ones((2, 3)), np.empty((0, 3))])
        with pytest.raises(ValidationError, match="shared width"):
            pad([np.ones((2, 3)), np.ones((2, 4))])

    def test_block_states_match_single_runs_bitwise(self, rng):
        # both directions, every sequence, whatever its block-mates and row
        lstm = make_lstm(3, 4, seed=12)
        seqs = random_sequences(rng, 2 * BLOCK_ROWS + 3, 3, max_len=12)
        states, _ = lstm.forward_blocks(*pad(seqs))
        vecs, _ = lstm.encode_blocks(*pad(seqs))
        for k, s in enumerate(seqs):
            b, r = divmod(k, BLOCK_ROWS)
            alone, _ = forward(lstm, s)
            assert states[: len(s), b, r].tobytes() == alone.tobytes()
            assert vecs[b, r].tobytes() == encode(lstm, s)[0].tobytes()

    def test_negative_sequence_never_pools_a_padded_step(self, rng):
        # strong negative candidates on real (positive) inputs drive every
        # state of the short sequence below zero; on the zero inputs of its
        # padded steps the cell decays towards zero, so those states are
        # larger and an unmasked max would pick them
        lstm = make_lstm(1, 2, seed=1)
        for d in ("fw", "bw"):
            lstm.p[f"w_{d}"][:] = 0.0
            lstm.p[f"w_{d}"][4:6, 0] = -3.0
            lstm.p[f"u_{d}"][:] = 0.0
            lstm.p[f"b_{d}"][:] = 0.0
        short = np.ones((2, 1))
        long = rng.normal(size=(9, 1))
        x, lengths = pad([short, long])
        states, _ = lstm.forward_blocks(x, lengths)
        vecs, _ = lstm.encode_blocks(x, lengths)
        assert np.all(states[:2, 0, 0] < 0.0)
        assert np.all(states[2:, 0, 0].max(axis=0) > vecs[0, 0])
        assert np.array_equal(vecs[0, 0], states[:2, 0, 0].max(axis=0))
        assert vecs[0, 0].tobytes() == encode(lstm, short)[0].tobytes()

    def test_padded_steps_contribute_exact_zeros(self, rng):
        # garbage in the padded steps changes no state, vector or gradient,
        # and the input gradient there is exactly zero
        lstm = make_lstm(3, 2, seed=8)
        seqs = random_sequences(rng, BLOCK_ROWS + 5, 3, max_len=7)
        x, lengths = pad(seqs)
        noisy = x.copy()
        padded = np.arange(x.shape[0])[:, None, None] >= lengths
        noisy[padded] = 1e3 * rng.normal(size=(int(padded.sum()), 3))
        d_vecs = rng.normal(size=(2, BLOCK_ROWS, 4))
        results = []
        for blocks in (x, noisy):
            vecs, cache = lstm.encode_blocks(blocks, lengths)
            dx, grads = lstm.encode_backward_blocks(cache, d_vecs)
            results.append((vecs, dx, grads))
        (v0, dx0, g0), (v1, dx1, g1) = results
        assert np.array_equal(v0, v1)
        assert np.array_equal(dx0, dx1)
        assert not np.any(dx1[padded])
        for key in g0:
            assert np.array_equal(g0[key], g1[key]), key

    def test_block_gradients_sum_single_gradients(self, rng):
        lstm = make_lstm(3, 2, seed=10)
        seqs = random_sequences(rng, BLOCK_ROWS + 5, 3, max_len=6)
        d_vecs = rng.normal(size=(2, BLOCK_ROWS, 4))
        _, cache = lstm.encode_blocks(*pad(seqs))
        dx, grads = lstm.encode_backward_blocks(cache, d_vecs)
        total = {key: np.zeros_like(p) for key, p in lstm.p.items()}
        for k, s in enumerate(seqs):
            b, r = divmod(k, BLOCK_ROWS)
            _, one = encode(lstm, s)
            dx_one, g_one = encode_backward(lstm, one, d_vecs[b, r])
            assert np.allclose(dx[: len(s), b, r], dx_one, rtol=0, atol=1e-14)
            for key in total:
                total[key] += g_one[key]
        for key in total:
            scale = np.max(np.abs(total[key]))
            assert np.max(np.abs(grads[key] - total[key])) <= 1e-13 * scale, key
