import numpy as np
import pytest

from metaembed.errors import ValidationError
from metaembed.optim import Adam, gradient_check, seed_sequence, seeded_rngs, xavier_uniform


class TestSeededRngs:
    def test_streams_are_independent_and_reproducible(self):
        a = seeded_rngs(3, ("x", "y"))
        b = seeded_rngs(3, ("x", "y"))
        assert a["x"].normal(size=4).tobytes() == b["x"].normal(size=4).tobytes()
        assert a["y"].normal(size=4).tobytes() == b["y"].normal(size=4).tobytes()
        c = seeded_rngs(3, ("x", "y"))
        assert c["x"].normal(size=4).tobytes() != c["y"].normal(size=4).tobytes()

    def test_label_order_defines_streams(self):
        # the stream belongs to the position, so a fixed label table keeps
        # every component on its own stream across code paths
        a = seeded_rngs(0, ("p", "q"))
        b = seeded_rngs(0, ("q", "p"))
        assert a["p"].normal(size=3).tobytes() == b["q"].normal(size=3).tobytes()

    def test_streams_come_from_the_seed_sequence(self):
        children = np.random.SeedSequence(7).spawn(2)
        rngs = seeded_rngs(7, ("x", "y"))
        for child, label in zip(children, ("x", "y")):
            expected = np.random.default_rng(child).normal(size=3)
            assert rngs[label].normal(size=3).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", [seed_sequence, lambda seed: seeded_rngs(seed, ("x",))])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            make(-1)


class TestXavier:
    def test_bounds_and_shape(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform(rng, 30, 20)
        bound = np.sqrt(6.0 / 50.0)
        assert w.shape == (30, 20)
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) > 0.5 * bound


class TestAdam:
    def test_first_step_oracle(self):
        # with bias correction the first step is lr * g / (|g| + eps)
        params = {"w": np.array([[1.0, -2.0]])}
        adam = Adam(params, lr=0.1)
        adam.step({"w": np.array([[0.5, -3.0]])})
        expected = np.array([[1.0 - 0.1 * 0.5 / (0.5 + 1e-8),
                              -2.0 + 0.1 * 3.0 / (3.0 + 1e-8)]])
        assert np.allclose(params["w"], expected, atol=1e-12)

    def test_updates_in_place(self):
        w = np.zeros((2, 2))
        adam = Adam({"w": w})
        adam.step({"w": np.ones((2, 2))})
        assert np.all(w != 0.0)

    def test_fused_step_is_bitwise_the_reference_formula(self, rng):
        shapes = {"w": (5, 7), "b": (7,), "s": (1,), "big": (40, 3)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 3e-2, 0.8, 0.99, 1e-6
        adam = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 8):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-5, 5) for k, s in shapes.items()}
            adam.step(grads)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                ref[k] = ref[k] - lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            for k in shapes:
                assert params[k].tobytes() == ref[k].tobytes(), (t, k)

    def test_validation(self):
        with pytest.raises(ValidationError, match="learning rate"):
            Adam({"w": np.zeros(2)}, lr=0.0)
        adam = Adam({"w": np.zeros(2)})
        with pytest.raises(ValidationError, match="labels"):
            adam.step({"v": np.zeros(2)})
        with pytest.raises(ValidationError, match="shape"):
            adam.step({"w": np.zeros(3)})


class TestGradientCheck:
    def quadratic(self, params):
        def func():
            loss = float(np.sum(params["w"] ** 2) + 3.0 * np.sum(params["b"]))
            return loss, {"w": 2.0 * params["w"], "b": np.full_like(params["b"], 3.0)}

        return func

    def test_correct_gradients_pass(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        report = gradient_check(self.quadratic(params), params, epsilon=1e-5)
        assert report.max_rel_err <= 1e-7
        assert report.n_checked == 10
        assert set(report.per_block) == {"w", "b"}

    def test_wrong_gradient_caught(self):
        params = {"w": np.ones((2, 2))}

        def func():
            return float(np.sum(params["w"] ** 2)), {"w": 3.0 * params["w"]}

        report = gradient_check(func, params, epsilon=1e-5)
        assert report.max_rel_err > 0.1
        assert report.worst_param == "w"

    def test_cap_limits_coordinates_per_block(self):
        params = {"w": np.ones((20, 30)), "b": np.ones(3)}
        report = gradient_check(self.quadratic(params), params, epsilon=1e-5, per_block_cap=50)
        assert report.n_checked == 53
        assert report.per_block["b"] >= 0.0

    def test_epsilon_range_enforced(self):
        params = {"w": np.ones(2)}
        for eps in (1e-8, 1e-3):
            with pytest.raises(ValidationError, match="epsilon"):
                gradient_check(self.quadratic({"w": params["w"], "b": params["w"]}),
                               params, epsilon=eps)

    def test_dead_coordinate_counts_as_match(self):
        # a parameter the loss ignores: analytic gradient is zero and finite
        # differences see only rounding noise, which must not be scored
        params = {"w": np.ones(3), "dead": np.ones(2)}

        def func():
            # the nonlinearity makes the plus/minus losses differ in their
            # last bits even though `dead` cancels out of the loss
            loss = float(np.sum(np.tanh(params["w"] ** 2)) + np.sum(params["dead"])
                         - np.sum(params["dead"]))
            return loss, {"w": 2.0 * params["w"] * (1.0 - np.tanh(params["w"] ** 2) ** 2),
                          "dead": np.zeros(2)}

        report = gradient_check(func, params, epsilon=1e-5)
        assert report.max_rel_err <= 1e-4
        assert report.per_block["dead"] == 0.0
