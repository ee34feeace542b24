import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Tensor,
    add,
    backward,
    concat,
    constant,
    fused,
    leaf,
    matmul,
    mul,
    on_tape,
    rows,
    softmax,
    sum_all,
    tanh,
)
from mnmt import numerics
from mnmt.corpus import Batch
from mnmt.memory import TrainingRecord, chunk_loss, init_memory_params, training_chunk
from mnmt.model import NmtConfig, init_nmt_params, teacher_forced_loss
from mnmt.numerics import (
    GradientError,
    Loss,
    NonFiniteError,
    ParamSet,
    adam_step,
    clip_gradients,
    cross_entropy,
    cross_entropy_backward,
    grad_check,
    gru_cell,
    gru_sequence,
    gru_sequence_backward,
    maxout,
    maxout_backward,
    no_grad,
    row_sums,
    scatter_plan,
    sigmoid,
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

    def test_entry_at_minus_inf_gets_exactly_zero(self):
        out = numerics.masked_softmax(np.array([[5.0, -np.inf, 5.0], [-np.inf, 0.0, -np.inf]]))
        np.testing.assert_array_equal(out, [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])


def _packed(pset):
    """[Wz|Wr|Wh], [bz|br|bh], [Uz|Ur] and Uh of a prefix-free GRU parameter set."""
    w = np.concatenate([pset[f"W{g}"].data for g in "zrh"], axis=1)
    b = np.concatenate([pset[f"b{g}"].data for g in "zrh"])
    u = np.concatenate([pset["Uz"].data, pset["Ur"].data], axis=1)
    return w, b, u, pset["Uh"].data


def _cell(x, h, pset):
    w, b, u, u_h = _packed(pset)
    return gru_cell(x @ w + b, h @ u, h, u_h)[0]


class TestGruStep:
    def test_zero_params_halve_state(self):
        dim = 2
        zeros = {
            f"{k}{g}": np.zeros((dim, dim)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        zeros.update({f"b{g}": np.zeros(dim) for g in ("z", "r", "h")})
        pset = ParamSet(zeros)
        h = _cell(np.array([[0.3, 0.7]]), np.array([[0.4, -0.2]]), pset)
        np.testing.assert_allclose(h, [[0.2, -0.1]], atol=1e-15)

    def test_zero_state_is_fixed_point_of_zero_params(self):
        dim = 3
        zeros = {
            f"{k}{g}": np.zeros((dim, dim)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        zeros.update({f"b{g}": np.zeros(dim) for g in ("z", "r", "h")})
        h, _ = gru_sequence(np.zeros((2, 4, dim)), np.ones((2, 4)), ParamSet(zeros), "", False)
        np.testing.assert_array_equal(h, np.zeros((2, 4, dim)))

    def test_matches_scalar_reevaluation(self):
        # straight-line recomputation of the gate formulas, seeded 2-dim case
        rng = np.random.default_rng(7)
        vals = {
            f"{k}{g}": rng.normal(size=(2, 2)) for k in ("W", "U") for g in ("z", "r", "h")
        }
        vals.update({f"b{g}": rng.normal(size=2) for g in ("z", "r", "h")})
        pset = ParamSet(vals)
        x = rng.normal(size=2)
        h = rng.normal(size=2)
        got = _cell(x[None], h[None], pset)[0]

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


def _random_gru(rng, e, hid, prefix=""):
    arrays = {}
    for g in "zrh":
        arrays[f"{prefix}W{g}"] = rng.uniform(-0.7, 0.7, size=(e, hid))
        arrays[f"{prefix}U{g}"] = rng.uniform(-0.7, 0.7, size=(hid, hid))
        arrays[f"{prefix}b{g}"] = rng.uniform(-0.7, 0.7, size=hid)
    return arrays


class TestGruSequence:
    def test_steps_equal_cells_and_padding_keeps_state(self):
        rng = np.random.default_rng(11)
        pset = ParamSet(_random_gru(rng, 3, 4))
        x = rng.normal(size=(2, 5, 3))
        mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
        for reverse in (False, True):
            out, _ = gru_sequence(x, mask, pset, "", reverse)
            h = np.zeros((2, 4))
            for t in (reversed(range(5)) if reverse else range(5)):
                h = np.where(mask[:, t, None] > 0, _cell(x[:, t], h, pset), h)
                np.testing.assert_allclose(out[:, t], h, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_check(self, reverse):
        rng = np.random.default_rng(12)
        pset = ParamSet({**_random_gru(rng, 3, 4, "g_"), "x": rng.normal(size=(3, 4, 3))})
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
        weights = constant(rng.normal(size=(3, 4, 4)))
        names = [f"g_{kind}{gate}" for kind in "WUb" for gate in "zrh"]

        def loss(p):
            out, cache = gru_sequence(p["x"].data, mask, p, "g_", reverse)

            def grads_of(g):
                d_x, grads = gru_sequence_backward(g, cache)
                return [d_x, *(grads[name] for name in names)]

            return sum_all(mul(fused(out, [p["x"], *(p[name] for name in names)], grads_of),
                               weights))

        assert grad_check(on_tape(loss), pset) < 1e-4

    def test_overflow_raises(self):
        rng = np.random.default_rng(13)
        pset = ParamSet(_random_gru(rng, 3, 4))
        pset["Wh"].data[...] = 1e308  # tanh would map the overflow to 1
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            gru_sequence(np.ones((2, 3, 3)), np.ones((2, 3)), pset, "", False)


class TestMaxout:
    def test_pairwise_max(self):
        out, _ = maxout(np.array([1.0, 3.0, 2.0, 0.0]))
        np.testing.assert_array_equal(out, [3.0, 2.0])

    def test_ties(self):
        out, _ = maxout(np.array([-1.0, -1.0, -5.0, -5.0]))
        np.testing.assert_array_equal(out, [-1.0, -5.0])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            maxout(np.array([1.0, 2.0, 3.0]))

    def test_gradient_flows_to_argmax_only(self):
        _, which = maxout(np.array([[1.0, 3.0, 2.0, 0.0], [5.0, 5.0, -1.0, 4.0]]))
        np.testing.assert_array_equal(maxout_backward(np.array([[1.0, 2.0], [3.0, 4.0]]), which),
                                      [[0.0, 1.0, 2.0, 0.0], [3.0, 0.0, 0.0, 4.0]])


class TestSigmoid:
    def test_no_overflow_at_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        with np.errstate(over="raise"):
            out = sigmoid(x)
        e = np.exp(-30.0)
        np.testing.assert_allclose(out, [0.0, e / (1.0 + e), 0.5, 1.0 / (1.0 + e), 1.0],
                                   rtol=1e-15, atol=0.0)


def _product_loss(fn, shapes, seed):
    """A parameter set of the given shapes and sum(fn(leaves) * fixed weights) on the tape."""
    rng = np.random.default_rng(seed)
    pset = ParamSet({name: rng.normal(size=shape) for name, shape in shapes.items()})
    with no_grad():
        out_shape = fn({name: constant(pset[name].data) for name in shapes}).shape
    weights = constant(rng.normal(size=out_shape))

    def loss(p):
        return sum_all(mul(fn(p), weights))

    return on_tape(loss), pset


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


class TestBackward:
    def test_interior_gradients_freed_and_leaf_gradients_kept(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        w_init = rng.normal(size=(4, 2))

        w = leaf(w_init)
        inp = constant(x)
        hidden = tanh(matmul(inp, w))
        backward(sum_all(mul(hidden, hidden)))
        assert hidden.grad is None
        assert inp.grad is None  # a constant gets no gradient
        t = np.tanh(x @ w_init)
        np.testing.assert_allclose(w.grad, x.T @ (2 * t * (1 - t * t)), rtol=1e-13)


class TestConstants:
    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(9)
        w, emb = leaf(rng.normal(size=(3, 2))), leaf(rng.normal(size=(5, 3)))
        x, bias, mask = (constant(rng.normal(size=shape)) for shape in ((4, 3), (2,), (8, 2)))
        h = concat([matmul(x, w), matmul(rows(emb, [0, 2, 2, 4]), w)], axis=0)  # [8, 2]
        backward(sum_all(mul(tanh(add(h, bias)), mask)))
        assert x.grad is None and bias.grad is None and mask.grad is None
        assert w.grad is not None and emb.grad is not None

    def test_operation_on_constants_records_nothing(self):
        out = matmul(constant(np.ones((2, 3))), constant(np.ones(3)))
        assert not out.requires_grad and out._parents == ()


def _logits_loss(targets, weights):
    """`cross_entropy` over the parameter ``logits`` as a package loss."""

    def loss(p):
        value, cache = cross_entropy(p["logits"].data, targets, weights)
        return Loss(value, lambda: p.write_grads({"logits": cross_entropy_backward(cache)}))

    return loss


class TestCrossEntropy:
    def test_weighted_mean_of_row_losses(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 3, 4, 1])
        weights = np.array([1.0, 0.0, 1.0, 1.0])
        nll = np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(4), targets]
        got, _ = cross_entropy(logits, targets, weights)
        assert got == pytest.approx((nll * weights).sum() / 3, rel=1e-14)

    def test_zero_weight_row_gets_no_gradient(self):
        rng = np.random.default_rng(11)
        pset = ParamSet({"logits": rng.normal(size=(3, 4))})
        loss = _logits_loss(np.array([1, 2, 3]), np.array([1.0, 0.0, 2.0]))
        assert grad_check(loss, pset) < 1e-7
        numerics.backward(loss(pset))
        np.testing.assert_array_equal(pset["logits"].grad[1], np.zeros(4))

    def test_backward_divides_the_cached_exponentials(self):
        # the bytes of the exponentials recomputed from the logits, and a
        # cache that a backward leaves as it found it
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(6, 9)) * 4.0
        targets = np.array([0, 8, 3, 3, 1, 5])
        weights = np.array([1.0, 0.0, 2.0, 1.0, 0.5, 1.0])
        _, cache = cross_entropy(logits, targets, weights)
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        want[np.arange(6), targets] -= 1.0
        want = want * (weights * (1.0 / weights.sum()))[:, None]
        first = cross_entropy_backward(cache)
        assert np.array_equal(first, want)
        assert np.array_equal(cross_entropy_backward(cache), first)


def _reference_row_sums(ids, values, n_rows):
    """The scatter-add as one function, sort and segmented sum in one call."""
    row_shape = values.shape[ids.ndim :]
    ids = ids.reshape(-1)
    values = values.reshape(len(ids), *row_shape)
    out = np.zeros((n_rows, *row_shape))
    if len(ids):
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        out[sorted_ids[starts]] = np.add.reduceat(values[order], starts)
    return out


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 9), max_size=24), cols=st.integers(1, 3),
       unreached=st.integers(0, 4), width=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_planned_scatter_matches_one_call_scatter(ids, cols, unreached, width, seed):
    # repeated ids, gaps between them and rows past the largest id that no id
    # reaches; one plan serves several value arrays, bit for bit
    ids = np.array(ids[: len(ids) - len(ids) % cols], dtype=np.int64).reshape(-1, cols)
    n_rows = 10 + unreached
    sums = scatter_plan(ids, n_rows)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        values = rng.normal(size=(*ids.shape, width))
        want = _reference_row_sums(ids, values, n_rows)
        assert np.array_equal(sums(values), want)
        assert np.array_equal(row_sums(ids, values, n_rows), want)


def _written(pset, grads):
    pset.write_grads({name: np.asarray(g, dtype=float) for name, g in grads.items()})
    return pset


class TestAdam:
    def test_first_step_moves_by_signed_lr(self):
        pset = ParamSet({"theta": np.array([1.0])})
        adam_step(_written(pset, {"theta": [0.3]}), lr=0.0005)
        expected = 1.0 - 0.0005 * 0.3 / (0.3 + 1e-8)
        np.testing.assert_allclose(pset["theta"].data, [expected], atol=1e-15)
        assert pset["theta"].data[0] == pytest.approx(0.9995, abs=1e-8)

    def test_zero_gradient_keeps_value_but_counts(self):
        pset = ParamSet({"theta": np.array([2.0])})
        adam_step(_written(pset, {"theta": [0.0]}), lr=0.1)
        assert pset["theta"].data[0] == 2.0
        assert pset.step == 1

    def test_two_steps_match_unrolled_recurrence(self):
        lr, b1, b2, eps = 0.0005, 0.9, 0.999, 1e-8
        g = 0.3
        pset = ParamSet({"theta": np.array([1.0])})
        adam_step(_written(pset, {"theta": [g]}), lr=lr)
        adam_step(_written(pset, {"theta": [g]}), lr=lr)

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
        pset = ParamSet({"w": rng.normal(size=(3, 2))})
        before = pset["w"].data.copy()
        adam_step(_written(pset, {"w": rng.normal(size=(3, 2))}), lr=0.0)
        np.testing.assert_array_equal(pset["w"].data, before)

    def test_nan_gradient_names_parameter(self):
        pset = ParamSet({"v": np.array([1.0]), "w": np.array([1.0])})
        with pytest.raises(GradientError, match="'w'"):
            adam_step(_written(pset, {"v": [0.5], "w": [np.nan]}), lr=0.1)

    def test_unknown_gradient_name_rejected(self):
        pset = ParamSet({"w": np.array([1.0])})
        with pytest.raises(KeyError):
            _written(pset, {"nope": [1.0]})

    def test_parameters_without_a_gradient_keep_values_and_moments(self):
        # the set's written parameters a and c step as a set of a and c alone
        rng = np.random.default_rng(1)
        arrays = {name: rng.normal(size=shape) for name, shape in
                  (("a", (2, 3)), ("b", (4,)), ("c", (3, 1)), ("d", ()))}
        full, part = ParamSet(arrays), ParamSet({n: arrays[n] for n in "ac"})
        first = {name: rng.normal(size=a.shape) for name, a in arrays.items()}
        adam_step(_written(full, first), lr=0.01)
        adam_step(_written(part, {n: first[n] for n in "ac"}), lr=0.01)
        full.zero_grads()
        kept = {n: [full[n].data.copy()] + [buf[full.spans[n]].copy()
                                            for buf in (full.adam_m, full.adam_v)] for n in "bd"}
        second = {n: rng.normal(size=arrays[n].shape) for n in "ac"}
        adam_step(_written(full, second), lr=0.01)
        adam_step(_written(part, second), lr=0.01)
        for name in "ac":
            np.testing.assert_array_equal(full[name].data, part[name].data)
        for name, (value, m, v) in kept.items():
            np.testing.assert_array_equal(full[name].data, value)
            np.testing.assert_array_equal(full.adam_m[full.spans[name]], m)
            np.testing.assert_array_equal(full.adam_v[full.spans[name]], v)


class TestParamSet:
    def test_parameters_are_views_of_the_packed_buffers(self):
        pset = ParamSet({"a": np.ones((2, 3)), "b": np.full(4, 2.0), "c": np.zeros(())})
        assert [pset.spans[n] for n in pset.names()] == [slice(0, 6), slice(6, 10),
                                                         slice(10, 11)]
        for name in pset.names():
            assert np.shares_memory(pset[name].data, pset.values)
            assert np.shares_memory(pset[name].grad, pset.grad)
            assert pset[name].data.flags.c_contiguous
        pset["b"].data[1] = 7.0
        assert pset.values[7] == 7.0

    def test_written_spans_merge_adjacent_parameters(self):
        pset = ParamSet({n: np.ones(2) for n in "abcd"})
        _written(pset, {"a": [1, 1], "b": [1, 1], "d": [1, 1]})
        assert pset.written_spans() == [slice(0, 4), slice(6, 8)]
        assert list(pset.grads()) == ["a", "b", "d"]
        pset.zero_grads()
        assert pset.written_spans() == [] and pset.grads() == {}


class TestGradCheck:
    def test_quadratic(self):
        pset = ParamSet({"theta": np.array([0.5, -1.5, 2.0])})

        def loss(p):
            t = p["theta"]
            return sum_all(mul(mul(t, t), constant(np.full(3, 0.5))))

        assert grad_check(on_tape(loss), pset) < 1e-9

    def test_softmax_cross_entropy(self):
        pset = ParamSet({"logits": np.array([[0.2, -0.4, 1.1]])})
        loss = _logits_loss(np.array([2]), np.ones(1))
        assert grad_check(loss, pset) < 1e-7
        numerics.backward(loss(pset))
        logits = pset["logits"].data
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        expected = p.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(pset["logits"].grad[0], expected, atol=1e-12)

    def test_non_deterministic_loss_rejected(self):
        pset = ParamSet({"theta": np.array([1.0])})
        state = {"n": 0.0}

        def loss(p):
            state["n"] += 1.0
            return sum_all(mul(p["theta"], constant(np.array([state["n"]]))))

        with pytest.raises(GradientError, match="deterministic"):
            grad_check(on_tape(loss), pset)


def _scaled(loss_fn, name, factor):
    """``loss_fn`` whose written gradient of ``name`` is off by ``factor``."""

    def loss(p):
        inner = loss_fn(p)

        def write_grads():
            numerics.backward(inner)
            p[name].grad[...] *= factor

        return Loss(inner.data, write_grads)

    return loss


def _nmt_case():
    cfg = NmtConfig(src_vocab_size=12, tgt_vocab_size=12, embed_dim=4, hidden_dim=6)
    rng = np.random.default_rng(4)
    params = init_nmt_params(cfg, 4)
    params.values[:] = rng.uniform(-0.5, 0.5, size=params.values.shape)
    batch = Batch(rng.integers(4, 12, size=(2, 4)), np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]]),
                  rng.integers(4, 12, size=(2, 3)), np.array([[1.0, 1, 1], [1, 1, 0]]))
    return (lambda p: teacher_forced_loss(batch, p)), params, "out_b"


def _memory_case():
    cfg = NmtConfig(src_vocab_size=12, tgt_vocab_size=12, embed_dim=4, hidden_dim=6)
    rng = np.random.default_rng(5)
    pset = init_memory_params(cfg, 5).pset
    pset.values[:] = rng.uniform(-0.5, 0.5, size=pset.values.shape)
    chunk = training_chunk([TrainingRecord(rng.normal(size=(k, 16)), rng.normal(size=(n, 6)),
                                           rng.normal(size=(n, 4)), rng.integers(0, k, size=n))
                            for k, n in ((3, 2), (2, 3))])
    return (lambda p: chunk_loss(chunk, p)), pset, "mem_v"


@pytest.mark.parametrize("case", [_nmt_case, _memory_case])
def test_grad_check_perturbs_the_stored_parameters(case):
    # a numeric gradient is read through the value buffer; were the perturbed
    # entry a copy, every numeric gradient would be 0 and the error 1
    loss_fn, pset, name = case()
    assert grad_check(loss_fn, pset, max_samples_per_tensor=6) < 1e-4
    err = grad_check(_scaled(loss_fn, name, 1.01), pset, max_samples_per_tensor=6)
    assert 1e-4 < err < 1e-2


class TestTensorHygiene:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))
        with pytest.raises(NonFiniteError):
            Loss(np.nan, lambda: None)

    def test_clip_rescales_global_norm(self):
        pset = _written(ParamSet({"a": np.zeros(2), "b": np.zeros(2), "c": np.ones(2)}),
                        {"a": [3.0, 4.0], "b": [0.0, 12.0]})
        norm = clip_gradients(pset)
        assert norm == pytest.approx(13.0)
        total = sum(float((g * g).sum()) for g in pset.grads().values())
        assert np.sqrt(total) == pytest.approx(5.0)

    def test_clip_leaves_small_gradients_alone(self):
        pset = _written(ParamSet({"a": np.zeros(2)}), {"a": [0.3, 0.4]})
        clip_gradients(pset)
        np.testing.assert_array_equal(pset["a"].grad, [0.3, 0.4])

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
            loss = Loss(1.0, lambda: None)
        assert out._parents == ()
        backward(sum_all(out))  # nothing to propagate, must not raise
        with pytest.raises(GradientError, match="no_grad"):
            numerics.backward(loss)
