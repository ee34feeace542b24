import numpy as np
import pytest

from mnmt.numerics import (
    GradientError,
    MaskedSoftmaxError,
    NonFiniteError,
    ParamSet,
    Tensor,
    adam_step,
    backward,
    clip_gradients,
    constant,
    cross_entropy_rows,
    grad_check,
    gru_step,
    matmul,
    maxout,
    mul,
    no_grad,
    softmax,
    stack,
    sum_all,
    tanh,
)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(constant(np.zeros(3))).data
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_analytic_two_logits(self):
        out = softmax(constant(np.array([np.log(2.0), 0.0]))).data
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        a = softmax(constant(np.array([1.0, 2.0, 3.0]))).data
        b = softmax(constant(np.array([6.0, 7.0, 8.0]))).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(scale=30.0, size=7)
            assert abs(softmax(constant(x)).data.sum() - 1.0) < 1e-12

    def test_masked_entries_exactly_zero(self):
        mask = np.array([[1.0, 0.0, 1.0]])
        out = softmax(constant(np.array([[5.0, 100.0, 5.0]])), mask).data
        assert out[0, 1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(MaskedSoftmaxError):
            softmax(constant(np.array([[1.0, 2.0]])), np.array([[0.0, 0.0]]))


def _gru_params(values):
    pset = ParamSet()
    for name, v in values.items():
        pset.add(name, v)
    return pset


class TestGruStep:
    def test_zero_params_halve_state(self):
        dim = 2
        zeros = {
            f"{k}{g}": np.zeros((dim, dim)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        zeros.update({f"b{g}": np.zeros(dim) for g in ("z", "r", "h")})
        pset = _gru_params(zeros)
        h = gru_step(constant(np.array([0.3, 0.7])), constant(np.array([0.4, -0.2])), pset)
        np.testing.assert_allclose(h.data, [0.2, -0.1], atol=1e-15)

    def test_zero_state_is_fixed_point_of_zero_params(self):
        dim = 3
        zeros = {
            f"{k}{g}": np.zeros((dim, dim)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        zeros.update({f"b{g}": np.zeros(dim) for g in ("z", "r", "h")})
        h = gru_step(constant(np.zeros(dim)), constant(np.zeros(dim)), _gru_params(zeros))
        np.testing.assert_array_equal(h.data, np.zeros(dim))

    def test_matches_scalar_reevaluation(self):
        # straight-line recomputation of the gate formulas, seeded 2-dim case
        rng = np.random.default_rng(7)
        vals = {
            f"{k}{g}": rng.normal(size=(2, 2)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        vals.update({f"b{g}": rng.normal(size=2) for g in ("z", "r", "h")})
        pset = _gru_params(vals)
        x = rng.normal(size=2)
        h = rng.normal(size=2)
        got = gru_step(constant(x), constant(h), pset).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expected = np.empty(2)
        for i in range(2):
            z = sig(sum(x[j] * vals["Wz"][j, i] for j in range(2))
                    + sum(h[j] * vals["Uz"][j, i] for j in range(2)) + vals["bz"][i])
            r_full = [
                sig(sum(x[j] * vals["Wr"][j, m] for j in range(2))
                    + sum(h[j] * vals["Ur"][j, m] for j in range(2)) + vals["br"][m])
                for m in range(2)
            ]
            n = np.tanh(sum(x[j] * vals["Wh"][j, i] for j in range(2))
                        + sum(r_full[j] * h[j] * vals["Uh"][j, i] for j in range(2))
                        + vals["bh"][i])
            expected[i] = (1.0 - z) * h[i] + z * n
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestMaxout:
    def test_pairwise_max(self):
        out = maxout(constant(np.array([1.0, 3.0, 2.0, 0.0])))
        np.testing.assert_array_equal(out.data, [3.0, 2.0])

    def test_ties(self):
        out = maxout(constant(np.array([-1.0, -1.0, -5.0, -5.0])))
        np.testing.assert_array_equal(out.data, [-1.0, -5.0])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            maxout(constant(np.array([1.0, 2.0, 3.0])))

    def test_gradient_flows_to_argmax_only(self):
        pset = ParamSet()
        theta = pset.add("theta", np.array([1.0, 3.0, 2.0, 0.0]))

        def loss(p):
            return sum_all(maxout(p["theta"]))

        assert grad_check(loss, pset) < 1e-9
        backward(loss(pset))
        np.testing.assert_array_equal(theta.grad, [0.0, 1.0, 1.0, 0.0])


def _product_loss(fn, shapes, seed):
    """A parameter set of the given shapes and sum(fn(params) * fixed weights)."""
    rng = np.random.default_rng(seed)
    pset = ParamSet()
    for name, shape in shapes.items():
        pset.add(name, rng.normal(size=shape))
    with no_grad():
        out_shape = fn(pset).shape
    weights = constant(rng.normal(size=out_shape))

    def loss(p):
        return sum_all(mul(fn(p), weights))

    return loss, pset


class TestMatmul:
    def test_one_row_operand_equals_repeated_rows(self):
        rng = np.random.default_rng(3)
        alpha = rng.dirichlet(np.ones(3), size=(4, 1))  # [4, 1, 3]
        states = rng.normal(size=(1, 3, 5))
        out = matmul(constant(alpha), constant(states))
        repeated = matmul(constant(alpha), constant(np.repeat(states, 4, axis=0)))
        assert out.shape == (4, 1, 5)
        np.testing.assert_array_equal(out.data, repeated.data)

    def test_gradient_with_one_row_operand(self):
        loss, pset = _product_loss(lambda p: matmul(p["alpha"], p["states"]),
                                   {"alpha": (4, 1, 3), "states": (1, 3, 5)}, seed=4)
        assert grad_check(loss, pset) < 1e-7

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (4, 5)),   # stacked @ matrix
        ((2, 3, 4), (4,)),     # stacked @ vector
        ((4,), (4, 5)),        # vector @ matrix
        ((4,), (4,)),          # vector @ vector
    ])
    def test_gradient_with_matrix_or_vector_b(self, a_shape, b_shape):
        loss, pset = _product_loss(lambda p: matmul(p["a"], p["b"]),
                                   {"a": a_shape, "b": b_shape}, seed=5)
        assert grad_check(loss, pset) < 1e-7


class TestStack:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gradient_along_axis(self, axis):
        def fn(p):
            return stack([p[f"x{j}"] for j in range(3)], axis)

        loss, pset = _product_loss(fn, {f"x{j}": (2, 4) for j in range(3)}, seed=7 + axis)
        with no_grad():
            out = fn(pset)
        np.testing.assert_array_equal(out.data, np.stack([pset[f"x{j}"].data for j in range(3)],
                                                         axis))
        assert grad_check(loss, pset) < 1e-7


class TestBackward:
    def test_interior_gradients_freed_and_leaf_gradients_kept(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        w_init = rng.normal(size=(4, 2))

        pset = ParamSet()
        w = pset.add("w", w_init)
        inp = constant(x)
        hidden = tanh(matmul(inp, w))
        backward(sum_all(mul(hidden, hidden)))
        assert hidden.grad is None
        assert inp.grad is not None  # constants are leaves too
        t = np.tanh(x @ w_init)
        np.testing.assert_allclose(w.grad, x.T @ (2 * t * (1 - t * t)), rtol=1e-13)


class TestAdam:
    def test_first_step_moves_by_signed_lr(self):
        pset = ParamSet()
        pset.add("theta", np.array([1.0]))
        adam_step(pset, {"theta": np.array([0.3])}, lr=0.0005)
        expected = 1.0 - 0.0005 * 0.3 / (0.3 + 1e-8)
        np.testing.assert_allclose(pset["theta"].data, [expected], atol=1e-15)
        assert pset["theta"].data[0] == pytest.approx(0.9995, abs=1e-8)

    def test_zero_gradient_keeps_value_but_counts(self):
        pset = ParamSet()
        pset.add("theta", np.array([2.0]))
        adam_step(pset, {"theta": np.array([0.0])}, lr=0.1)
        assert pset["theta"].data[0] == 2.0
        assert pset.step == 1

    def test_two_steps_match_unrolled_recurrence(self):
        lr, b1, b2, eps = 0.0005, 0.9, 0.999, 1e-8
        g = 0.3
        pset = ParamSet()
        pset.add("theta", np.array([1.0]))
        adam_step(pset, {"theta": np.array([g])}, lr=lr)
        adam_step(pset, {"theta": np.array([g])}, lr=lr)

        m = v = 0.0
        theta = 1.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(pset["theta"].data, [theta], atol=1e-15)
        assert pset.step == 2

    def test_zero_lr_is_identity_on_values(self):
        rng = np.random.default_rng(0)
        pset = ParamSet()
        pset.add("w", rng.normal(size=(3, 2)))
        before = pset["w"].data.copy()
        adam_step(pset, {"w": rng.normal(size=(3, 2))}, lr=0.0)
        np.testing.assert_array_equal(pset["w"].data, before)

    def test_nan_gradient_names_parameter(self):
        pset = ParamSet()
        pset.add("w", np.array([1.0]))
        with pytest.raises(GradientError, match="'w'"):
            adam_step(pset, {"w": np.array([np.nan])}, lr=0.1)

    def test_unknown_gradient_name_rejected(self):
        pset = ParamSet()
        pset.add("w", np.array([1.0]))
        with pytest.raises(KeyError):
            adam_step(pset, {"nope": np.array([1.0])}, lr=0.1)


class TestGradCheck:
    def test_quadratic(self):
        pset = ParamSet()
        pset.add("theta", np.array([0.5, -1.5, 2.0]))

        def loss(p):
            t = p["theta"]
            return sum_all(mul(mul(t, t), constant(np.full(3, 0.5))))

        assert grad_check(loss, pset) < 1e-9

    def test_softmax_cross_entropy(self):
        pset = ParamSet()
        logits = pset.add("logits", np.array([[0.2, -0.4, 1.1]]))

        def loss(p):
            return sum_all(cross_entropy_rows(p["logits"], np.array([2])))

        assert grad_check(loss, pset) < 1e-7
        backward(loss(pset))
        p = np.exp(logits.data[0]) / np.exp(logits.data[0]).sum()
        expected = p.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(logits.grad[0], expected, atol=1e-12)

    def test_non_deterministic_loss_rejected(self):
        pset = ParamSet()
        pset.add("theta", np.array([1.0]))
        state = {"n": 0.0}

        def loss(p):
            state["n"] += 1.0
            return sum_all(mul(p["theta"], constant(np.array([state["n"]]))))

        with pytest.raises(GradientError, match="deterministic"):
            grad_check(loss, pset)


class TestTensorHygiene:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))

    def test_clip_rescales_global_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0, 12.0])}
        norm = clip_gradients(grads, max_norm=5.0)
        assert norm == pytest.approx(13.0)
        total = sum(float((g * g).sum()) for g in grads.values())
        assert np.sqrt(total) == pytest.approx(5.0)

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, max_norm=5.0)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_kernels_bit_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 2))
        a = softmax(matmul(constant(x), constant(w))).data
        b = softmax(matmul(constant(x), constant(w))).data
        assert a.tobytes() == b.tobytes()

    def test_no_grad_builds_leaf_tensors(self):
        with no_grad():
            out = mul(constant(np.ones(2)), constant(np.ones(2)))
        assert out._parents == ()
        backward(sum_all(out))  # nothing to propagate, must not raise
