import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    add,
    constant,
    desk_config,
    fused,
    greedy_reference,
    make_copy_task,
    mul,
    on_tape,
    reference_beam,
    reference_encode,
    reference_step,
    sum_all,
    table_hook,
    tape_encode_batch,
    tape_loss,
    tape_nodes,
    value_bytes,
)
from mnmt import model, numerics
from mnmt.corpus import BOS_ID, EOS_ID, PAD_ID, Batch, make_batches, pad_batch
from mnmt.memory import (
    MemoryHook,
    MergedMemory,
    TrainingRecord,
    chunk_loss,
    init_memory_params,
    training_chunk,
)
from mnmt.model import (
    DecoderWeights,
    EncodedSource,
    NmtConfig,
    beam_search,
    decode_sequence,
    decode_sequence_backward,
    encode,
    encode_backward,
    encode_batch,
    encode_forward,
    init_nmt_params,
    step_forward,
    teacher_forced_loss,
    train_model,
    train_step,
)
from mnmt.numerics import (
    GradientError,
    MaskedSoftmaxError,
    NonFiniteError,
    ParamSet,
    backward,
    grad_check,
    masked_softmax,
    no_grad,
)


def tiny_params(seed=0, src_v=10, tgt_v=10, embed=6, hidden=8):
    cfg = NmtConfig(src_vocab_size=src_v, tgt_vocab_size=tgt_v, embed_dim=embed,
                    hidden_dim=hidden, beam_size=2, batch_size=2, lr=0.01)
    return cfg, init_nmt_params(cfg, seed)


def zeroed(params: ParamSet) -> ParamSet:
    for t in params.params.values():
        t.data[...] = 0.0
    return params


class TestConfig:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            NmtConfig(hidden_dim=0)


class TestEncode:
    def test_single_token_shape(self):
        cfg, params = tiny_params()
        enc = encode([EOS_ID], params)
        assert enc.h.shape == (1, 2 * cfg.hidden_dim)

    def test_zero_params_give_zero_states(self):
        _, params = tiny_params()
        enc = encode([4, 5, EOS_ID], zeroed(params))
        np.testing.assert_array_equal(enc.h, np.zeros_like(enc.h))

    def test_out_of_range_id_rejected(self):
        _, params = tiny_params(src_v=10)
        with pytest.raises(ValueError):
            encode([10], params)
        with pytest.raises(ValueError):
            encode([], params)

    def test_all_padding_row_rejected_at_construction(self):
        # attention over a row with no real position has nothing to weigh; the
        # encoding refuses it before any decoder step runs
        _, params = tiny_params()
        src, mask = np.array([[4, EOS_ID], [PAD_ID, PAD_ID]]), np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(MaskedSoftmaxError):
            encode_batch(src, mask, params)
        enc = encode_batch(src[:1], mask[:1], params)
        with pytest.raises(MaskedSoftmaxError):
            EncodedSource(enc.states, enc.uh, np.zeros((1, 2)), enc.s0)

    def test_bias_masks_attention_scores_bit_for_bit(self):
        # adding the bias gives the bytes masking the scores to -inf gives, -0.0 included
        _, params = tiny_params()
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        enc = encode_batch(np.array([[4, 5, EOS_ID], [6, EOS_ID, PAD_ID]]), mask, params)
        np.testing.assert_array_equal(enc.bias, [[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf]])
        scores = np.random.default_rng(0).normal(size=(2, 3))
        scores[0, 1] = scores[1, 0] = -0.0
        assert (masked_softmax(scores + enc.bias).tobytes()
                == masked_softmax(np.where(mask > 0, scores, -np.inf)).tobytes())

    def test_reversal_swaps_direction_roles(self):
        # swapping the two direction parameter blocks and reversing the input
        # yields the original states with halves swapped, in reverse order
        cfg, params = tiny_params(seed=3)
        swapped = init_nmt_params(cfg, 3)
        for gate in ("z", "r", "h"):
            for kind in ("W", "U", "b"):
                f, b = f"enc_f_{kind}{gate}", f"enc_b_{kind}{gate}"
                swapped[f].data[...] = params[b].data
                swapped[b].data[...] = params[f].data
        src = [4, 7, 5]
        h = encode(src, params).h
        h_rev = encode(list(reversed(src)), swapped).h
        n = cfg.hidden_dim
        t_len = len(src)
        for j in range(t_len):
            np.testing.assert_allclose(h_rev[j, :n], h[t_len - 1 - j, n:], atol=1e-12)
            np.testing.assert_allclose(h_rev[j, n:], h[t_len - 1 - j, :n], atol=1e-12)


def _step(s_prev, y_prev, enc, params):
    """step_forward on one row, as numpy vectors."""
    w = DecoderWeights(params)
    s_new, z, _ = step_forward(s_prev[None, :], w.project(np.array([y_prev])), enc, w, True)
    return s_new[0], z[0]


class TestDecoderStep:
    def test_matches_direct_evaluation(self):
        # attention, context, GRU and maxout readout against plain numpy,
        # with a non-zero score vector so attention is not uniform
        rng = np.random.default_rng(9)
        for seed, src in ((9, [4, 5, 6, EOS_ID]), (10, [EOS_ID])):
            cfg, params = tiny_params(seed=seed)
            params["att_v"].data[...] = rng.normal(size=cfg.hidden_dim)
            enc = encode(src, params)
            s_prev = rng.normal(size=cfg.hidden_dim)
            s, z = _step(s_prev, 6, enc, params)
            s_ref, z_ref = reference_step(s_prev, 6, enc.h, params)
            np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)

    def test_zero_params_halve_state_and_zero_readout(self):
        cfg, params = tiny_params()
        zeroed(params)
        enc = encode([4, 5, EOS_ID], params)
        s_prev = np.linspace(-1, 1, cfg.hidden_dim)
        s, z = _step(s_prev, 4, enc, params)
        np.testing.assert_allclose(s, 0.5 * s_prev, atol=1e-15)
        np.testing.assert_array_equal(z, np.zeros(cfg.embed_dim))

    def test_readout_width_is_output_dim(self):
        cfg, params = tiny_params(seed=2)
        _, z = _step(np.zeros(cfg.hidden_dim), 5, encode([4, EOS_ID], params), params)
        assert z.shape == (cfg.embed_dim,)


def _padded_batch(rng, b, s_len, t_len, vocab=15):
    """[b, s_len] and [b, t_len] ids, EOS-terminated, row 0 full length, the others shorter."""
    src_lens = np.r_[s_len, rng.integers(1, s_len + 1, size=b - 1)]
    tgt_lens = np.r_[t_len, rng.integers(1, t_len + 1, size=b - 1)]
    src = np.zeros((b, s_len), dtype=np.int64)
    tgt = np.zeros((b, t_len), dtype=np.int64)
    for row, (ls, lt) in enumerate(zip(src_lens, tgt_lens)):
        src[row, :ls] = np.r_[rng.integers(4, vocab, size=ls - 1), EOS_ID]
        tgt[row, :lt] = np.r_[rng.integers(4, vocab, size=lt - 1), EOS_ID]
    src_mask = (np.arange(s_len) < src_lens[:, None]).astype(float)
    tgt_mask = (np.arange(t_len) < tgt_lens[:, None]).astype(float)
    return Batch(src, src_mask, tgt, tgt_mask)


def test_teacher_forced_tape_does_not_grow_with_lengths():
    rng = np.random.default_rng(6)
    _, params = tiny_params(seed=6, src_v=15, tgt_v=15)
    counts = [tape_nodes(teacher_forced_loss(_padded_batch(rng, 3, s_len, t_len), params))
              for s_len, t_len in ((3, 4), (12, 15))]
    assert counts[0] == counts[1]
    # the desk batch shape: B = 20, S = 8, T = 9 at E = 24, H = 32
    _, params = tiny_params(seed=6, src_v=40, tgt_v=40, embed=24, hidden=32)
    assert tape_nodes(teacher_forced_loss(_padded_batch(rng, 20, 8, 9, 40), params)) < 50


def test_losses_record_one_node_past_their_parameters():
    # at the desk batch shape a loss is one node: it links to no parameter or
    # operation, and its closure writes the 37 parameters' gradients
    rng = np.random.default_rng(6)
    cfg, params = tiny_params(seed=6, src_v=40, tgt_v=40, embed=24, hidden=32)
    assert len(params.names()) == 37
    loss = teacher_forced_loss(_padded_batch(rng, 20, 8, 9, 40), params)
    assert tape_nodes(loss) == 1
    backward(loss)
    assert list(params.grads()) == params.names()
    e, h = cfg.embed_dim, cfg.hidden_dim
    chunk = training_chunk([
        TrainingRecord(rng.normal(size=(k, e + 2 * h)), rng.normal(size=(n, h)),
                       rng.normal(size=(n, e)), rng.integers(0, k, size=n))
        for k, n in ((3, 5), (1, 2))])
    assert tape_nodes(chunk_loss(chunk, init_memory_params(cfg, 6).pset)) == 1


def test_beam_search_builds_no_tensor(monkeypatch):
    # nor any loss: decoding keeps nothing for a backward
    cfg, params = tiny_params(seed=7, src_v=15, tgt_v=15)
    src = [4, 9, 6, EOS_ID]
    enc = encode(src, params)
    mparams = init_memory_params(cfg, 7)
    mparams.pset["mem_v"].data[...] = 0.5
    mem = MergedMemory.from_groups({4 + i: [(i, 0.5)] for i in range(3)}, enc.h)
    built = []
    real_init = numerics.Loss.__init__

    def counting_init(self, *args):
        built.append(1)
        real_init(self, *args)

    monkeypatch.setattr(numerics.Loss, "__init__", counting_init)
    hyp = beam_search(src, params, beam=3, max_len=8, enc=enc)
    hooked = beam_search(src, params, beam=3, max_len=8,
                         memory_hook=MemoryHook(mem, mparams, params), enc=enc)
    assert built == []
    assert len(hyp.tokens) >= 1
    assert len(hooked.tokens) >= 1


def _positive_params(src_v=10, tgt_v=10):
    """Every parameter 0.5, so every state and activation is positive."""
    _, params = tiny_params(src_v=src_v, tgt_v=tgt_v)
    for t in params.params.values():
        t.data[...] = 0.5
    return params


class TestNonFinite:
    """A weight scaled to 1e308 overflows its GEMM (it meets a positive input);
    the fused kernels raise although tanh or sigmoid would map inf to a finite value."""

    @pytest.mark.parametrize("name", ["enc_f_Wh", "enc_b_Uz", "enc_f_Uh"])
    def test_encode_batch(self, name):
        params = _positive_params()
        params[name].data[...] = 1e308
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            encode_batch(np.array([[4, 5, EOS_ID]]), np.ones((1, 3)), params)

    @pytest.mark.parametrize("name", ["att_W", "dec_Wz", "dec_Wh", "dec_Uz", "dec_Uh"])
    def test_teacher_forced_loss(self, name):
        params = _positive_params(20, 20)
        params[name].data[...] = 1e308
        batch = _toy_batch(np.random.default_rng(8))
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            teacher_forced_loss(batch, params)

    @pytest.mark.parametrize("name", ["att_W", "dec_Wh", "dec_Ur", "out_V"])
    def test_beam_search(self, name):
        params = _positive_params()
        enc = encode([4, 5, EOS_ID], params)
        params[name].data[...] = 1e308
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            beam_search([4, 5, EOS_ID], params, beam=2, enc=enc)

    def test_memory_hook(self):
        params = _positive_params()
        cfg = NmtConfig(src_vocab_size=10, tgt_vocab_size=10, embed_dim=6, hidden_dim=8)
        mparams = init_memory_params(cfg, 0)
        mparams.pset["mem_Ws"].data[...] = 1e308
        mem = MergedMemory.from_groups({4: [(0, 0.5)]}, np.ones((1, 16)))
        hook = MemoryHook(mem, mparams, params)
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            hook(np.ones((2, 8)), np.array([4, 5]), np.full((2, 10), 0.1))

    def test_chunk_loss(self):
        cfg = NmtConfig(src_vocab_size=10, tgt_vocab_size=10, embed_dim=6, hidden_dim=8)
        pset = init_memory_params(cfg, 0).pset
        pset["mem_Ws"].data[...] = 1e308
        chunk = training_chunk([TrainingRecord(np.ones((2, 22)), np.ones((3, 8)),
                                               np.ones((3, 6)), np.array([0, 1, 1]))])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            chunk_loss(chunk, pset)

    @pytest.mark.parametrize("name", ["mem_Wu", "mem_Ws", "mem_Wy", "s_prev"])
    def test_memory_scorer_checks_every_input(self, name):
        # the one check, on the pre-activation, holds every element of
        # u @ mem_Wu and of s @ mem_Ws + y @ mem_Wy
        rng = np.random.default_rng(9)
        params = _positive_params()
        cfg = NmtConfig(src_vocab_size=10, tgt_vocab_size=10, embed_dim=6, hidden_dim=8)
        mparams = init_memory_params(cfg, 0)
        for t in mparams.pset.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        s_prev = rng.normal(size=(3, 8))
        (s_prev if name == "s_prev" else mparams.pset[name].data)[1, 2] = np.inf
        chunk = training_chunk([TrainingRecord(rng.normal(size=(2, 22)), s_prev,
                                               rng.normal(size=(3, 6)), np.array([0, 1, 1]))])
        mem = MergedMemory.from_groups({4: [(0, 0.5)], 6: [(1, 0.5)]}, rng.normal(size=(2, 16)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                chunk_loss(chunk, mparams.pset)
            hook = MemoryHook(mem, mparams, params)
            with pytest.raises(NonFiniteError):
                hook(s_prev, np.array([4, 5, 6]), np.full((3, 10), 0.1))

    def test_train_model_names_the_step(self):
        # lr = 1e300 moves every weight to about 1e300 in step 1, and step 2 overflows
        _, params = tiny_params(seed=0, src_v=20, tgt_v=20, embed=4, hidden=4)
        batch = _toy_batch(np.random.default_rng(0))
        with pytest.raises(NonFiniteError, match=r"^train step 2 of 5: non-finite values"), \
                np.errstate(over="ignore", invalid="ignore"):
            train_model([batch], params, 1e300, 5)

    def test_train_model_names_the_step_of_a_gradient_error(self, monkeypatch):
        # train_model steps through the module attribute, which the bench wraps
        seen = []

        def step(batch, params, lr):
            seen.append(batch)
            if len(seen) == 3:
                raise GradientError("non-finite gradient for parameter 'out_V'")
            return 1.0

        monkeypatch.setattr(model, "train_step", step)
        with pytest.raises(GradientError, match=r"^train step 3 of 4: non-finite gradient "
                                                r"for parameter 'out_V'$"):
            train_model(["a", "b"], None, 0.1, 4)
        assert seen == ["a", "b", "a"]


def _toy_batch(rng, b=2, s=5, t=5, vocab=20):
    src = rng.integers(4, vocab, size=(b, s))
    src[:, -1] = EOS_ID
    tgt = rng.integers(4, vocab, size=(b, t))
    tgt[:, -1] = EOS_ID
    src_mask = np.ones((b, s))
    tgt_mask = np.ones((b, t))
    tgt_mask[1, -1] = 0.0
    tgt[1, -2] = EOS_ID
    return Batch(src, src_mask, tgt, tgt_mask)


class TestBatchingConsistency:
    """Padding and masks must not change what each sentence computes."""

    def test_encode_matches_batched_rows(self):
        cfg, params = tiny_params(seed=12, src_v=15, tgt_v=15)
        short = [4, 7, EOS_ID]
        long = [5, 6, 8, 9, EOS_ID]
        src = np.zeros((2, 5), dtype=np.int64)
        src[0, :3] = short
        src[1, :] = long
        mask = np.array([[1.0, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        enc = encode_batch(src, mask, params)
        batched = enc.states  # [B, S, 2H]
        np.testing.assert_allclose(batched[0, :3], encode(short, params).h, atol=1e-12)
        np.testing.assert_allclose(batched[1], encode(long, params).h, atol=1e-12)
        # the decoder starts from the backward state at position 0
        b0 = encode(short, params).h[0, cfg.hidden_dim :]
        np.testing.assert_allclose(
            enc.s0[0], np.tanh(b0 @ params["dec_init_W"].data), atol=1e-12
        )

    def test_batch_loss_is_token_weighted_mean_of_singles(self):
        _, params = tiny_params(seed=13, src_v=15, tgt_v=15)
        a_src, a_tgt = [4, 7, EOS_ID], [5, 9, EOS_ID]
        b_src, b_tgt = [5, 6, 8, 9, EOS_ID], [10, 11, 12, 13, EOS_ID]

        def single_loss(src, tgt):
            batch = Batch(np.array([src]), np.ones((1, len(src))),
                          np.array([tgt]), np.ones((1, len(tgt))))
            return float(teacher_forced_loss(batch, params).data)

        src = np.zeros((2, 5), dtype=np.int64)
        tgt = np.zeros((2, 5), dtype=np.int64)
        src[0, :3], src[1, :] = a_src, b_src
        tgt[0, :3], tgt[1, :] = a_tgt, b_tgt
        src_mask = np.array([[1.0, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        tgt_mask = np.array([[1.0, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        batch_loss = float(teacher_forced_loss(Batch(src, src_mask, tgt, tgt_mask), params).data)
        expected = (3 * single_loss(a_src, a_tgt) + 5 * single_loss(b_src, b_tgt)) / 8
        assert batch_loss == pytest.approx(expected, abs=1e-12)


class TestTrainStep:
    def test_uniform_model_loss_is_log_vocab(self):
        cfg, params = tiny_params(src_v=20, tgt_v=20, embed=8, hidden=10)
        params["tgt_embed"].data[...] = 0.0
        batch = _toy_batch(np.random.default_rng(0))
        loss = float(teacher_forced_loss(batch, params).data)
        assert loss == pytest.approx(np.log(20), abs=1e-12)

    def test_single_pair_overfits(self):
        task = make_copy_task(n_pairs=1, n_words=6, len_range=(4, 4), seed=1)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab), embed=10, hidden=12,
                          batch=1, lr=0.02)
        (batch,) = make_batches(task.encoded_train(), 1, 50, seed=0)
        params = init_nmt_params(cfg, 1)
        losses = [train_step(batch, params, cfg.lr) for _ in range(500)]
        assert min(losses) < 0.1

    def test_full_model_gradient_check(self):
        cfg = NmtConfig(src_vocab_size=20, tgt_vocab_size=20, embed_dim=8,
                        hidden_dim=12, beam_size=2, batch_size=2, lr=0.01)
        rng = np.random.default_rng(7)
        params = init_nmt_params(cfg, 7)
        for t in params.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        batch = _toy_batch(rng)
        err = grad_check(lambda p: teacher_forced_loss(batch, p), params,
                         max_samples_per_tensor=8, seed=0)
        assert err < 1e-4

    def test_decoding_after_a_step_reads_the_stepped_parameters(self):
        # train_step moves the ParamSet in place, and the next beam search must
        # score with the moved values; the rescoring encodes through
        # encode_forward, so an encoding kept from before the step would show
        _, params = tiny_params(seed=3, src_v=15, tgt_v=15)
        src = [4, 9, 6, EOS_ID]
        beam_search(src, params, beam=3)
        train_step(pad_batch([(src, [7, 5, EOS_ID])]), params, 0.05)
        hyp = beam_search(src, params, beam=3)
        loss = teacher_forced_loss(pad_batch([(src, hyp.tokens)]), params)
        assert hyp.log_prob == pytest.approx(-float(loss.data) * len(hyp.tokens), rel=0, abs=1e-9)

    def test_deterministic_given_seed(self):
        batch = _toy_batch(np.random.default_rng(2))
        runs = []
        for _ in range(2):
            _, params = tiny_params(seed=5, src_v=20, tgt_v=20)
            losses = [train_step(batch, params, 0.01) for _ in range(5)]
            runs.append((losses, value_bytes(params)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


_greedy_reference = greedy_reference


class TestBeamSearch:
    def test_beam_one_equals_greedy_reference(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            cfg, params = tiny_params(seed=seed, src_v=15, tgt_v=15)
            for t in params.params.values():
                t.data[...] = rng.uniform(-0.4, 0.4, size=t.data.shape)
            src = list(rng.integers(4, 15, size=4)) + [EOS_ID]
            hyp = beam_search(src, params, beam=1, max_len=12)
            assert hyp.tokens == _greedy_reference(src, params, 12)

    def test_termination_contract(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            _, params = tiny_params(seed=seed, src_v=15, tgt_v=15)
            src = list(rng.integers(4, 15, size=3)) + [EOS_ID]
            hyp = beam_search(src, params, beam=3, max_len=6)
            assert hyp.tokens[-1] == EOS_ID or len(hyp.tokens) == 6
            assert hyp.log_prob <= 0.0

    def test_identity_hook_reproduces_vanilla_output(self):
        _, params = tiny_params(seed=8, src_v=15, tgt_v=15)
        src = [4, 9, 11, EOS_ID]
        plain = beam_search(src, params, beam=3)
        hooked = beam_search(src, params, beam=3, memory_hook=lambda s, y, p: p)
        assert plain.tokens == hooked.tokens
        assert plain.log_prob == hooked.log_prob

    def test_beam_two_beats_greedy_found_by_brute_force(self):
        # hand-set next-token table keyed on the previous token; the hook
        # discards the model posterior entirely
        _, params = tiny_params(src_v=6, tgt_v=6)
        a, b = 4, 5
        table = {
            BOS_ID: {EOS_ID: 0.01, a: 0.55, b: 0.44},
            a: {EOS_ID: 0.9, a: 0.05, b: 0.05},
            b: {EOS_ID: 0.009, a: 0.98, b: 0.011},
        }
        hook = table_hook(table, 6)
        max_len = 3
        greedy = beam_search([4, EOS_ID], params, beam=1, max_len=max_len, memory_hook=hook)
        wide = beam_search([4, EOS_ID], params, beam=2, max_len=max_len, memory_hook=hook)
        assert greedy.tokens == [a, EOS_ID]
        assert wide.tokens == [b, a, EOS_ID]

        # brute force: every sequence that ends in EOS or reaches max_len
        best = None
        stack = [([], 0.0)]
        while stack:
            toks, lp = stack.pop()
            if toks and (toks[-1] == EOS_ID or len(toks) == max_len):
                score = lp / len(toks)
                if best is None or score > best[1]:
                    best = (toks, score)
                continue
            prev = toks[-1] if toks else BOS_ID
            for tid, prob in table[prev].items():
                stack.append((toks + [tid], lp + np.log(prob)))
        assert wide.tokens == best[0]
        assert wide.normalized_score() == pytest.approx(best[1], abs=1e-12)

    def test_ties_between_longer_prefixes_rank_by_the_whole_prefix(self):
        _, params = tiny_params(src_v=11, tgt_v=11)
        a, b, d, e, f, g, z = 4, 5, 6, 7, 8, 9, 10
        table = {
            BOS_ID: {a: 0.5, b: 0.5},
            a: {e: 0.6, z: 0.4},
            b: {d: 0.6, z: 0.4},
            # (a, e) and (b, d) tie, and so do their four children, for two slots:
            # (a, e) is the lower prefix although its last token is the higher
            d: {f: 0.5, g: 0.5},
            e: {f: 0.5, g: 0.5},
            f: {EOS_ID: 0.5, z: 0.5},
            g: {EOS_ID: 1.0},
        }
        hook = table_hook(table, 11)
        wide = beam_search([4, EOS_ID], params, beam=2, max_len=6, memory_hook=hook)
        assert wide.tokens == [a, e, g, EOS_ID]
        assert (wide.tokens, wide.log_prob) == reference_beam([4, EOS_ID], params, 2, 6, hook)

    def test_all_zero_hook_raises(self):
        _, params = tiny_params()
        with pytest.raises(ValueError, match="no hypothesis with positive probability"):
            beam_search([4, EOS_ID], params, beam=2, memory_hook=lambda s, y, p: np.zeros_like(p))

    def test_beam_must_be_positive(self):
        _, params = tiny_params()
        with pytest.raises(ValueError):
            beam_search([EOS_ID], params, beam=0)

    def test_exact_ties_break_toward_lower_tokens(self):
        _, params = tiny_params(src_v=10, tgt_v=10)
        a, b, d, e = 4, 5, 6, 7
        table = {
            BOS_ID: {b: 0.5, a: 0.3, EOS_ID: 0.2},
            # every continuation scores log 0.3 + log 0.5: four exact ties for two slots
            a: {d: 0.5, e: 0.5},
            b: {d: 0.3, e: 0.3, EOS_ID: 0.1},
            d: {EOS_ID: 1.0},
            e: {EOS_ID: 1.0},
        }
        hook = table_hook(table, 10)
        # the pool keeps (a, d) and (a, e) although b's row was expanded first
        wide = beam_search([4, EOS_ID], params, beam=2, max_len=4, memory_hook=hook)
        assert wide.tokens == [a, d, EOS_ID]
        assert (wide.tokens, wide.log_prob) == reference_beam([4, EOS_ID], params, 2, 4, hook)
        # within a row, the boundary tie goes to the lower id
        table[BOS_ID] = {b: 0.4, a: 0.4, EOS_ID: 0.2}
        greedy = beam_search([4, EOS_ID], params, beam=1, max_len=4, memory_hook=hook)
        assert greedy.tokens == [a, d, EOS_ID]

    def test_invalid_source_ids_rejected(self):
        _, params = tiny_params(src_v=10)
        # a negative id would wrap to the last embedding row, 12 is past V=10
        for src in ([-1, 2], [12, 2], []):
            with pytest.raises(ValueError, match="vocabulary range|empty sentence"):
                beam_search(src, params, beam=2)

    def test_encoding_must_match_source_ids(self):
        _, params = tiny_params()
        with pytest.raises(ValueError, match="mask"):
            beam_search([4, EOS_ID], params, beam=2, enc=encode([4, 5, EOS_ID], params))
        with no_grad():
            two_rows = encode_batch(np.array([[4, EOS_ID], [5, EOS_ID]]), np.ones((2, 2)), params)
        with pytest.raises(ValueError, match="mask"):
            beam_search([4, EOS_ID], params, beam=2, enc=two_rows)

    def test_passed_encoding_is_used_without_encoding_again(self, monkeypatch):
        _, params = tiny_params(seed=3)
        src = [4, 7, 9, EOS_ID]
        enc = encode(src, params)
        want = beam_search(src, params, beam=3)
        calls = []
        real = model.encode_batch
        monkeypatch.setattr(model, "encode_batch", lambda *a: calls.append(1) or real(*a))
        got = beam_search(src, params, beam=3, enc=enc)
        assert calls == []
        assert got.tokens == want.tokens and got.log_prob == want.log_prob

    def test_one_decode_step_and_one_hook_call_per_step(self, monkeypatch):
        _, params = tiny_params(seed=4, src_v=15, tgt_v=15)
        rows = []
        real = model.step_forward
        monkeypatch.setattr(model, "step_forward",
                            lambda s, *a: rows.append(len(s)) or real(s, *a))
        hook_rows = []
        hyp = beam_search([4, 9, EOS_ID], params, beam=4, max_len=7,
                          memory_hook=lambda s, y, p: hook_rows.append(len(y)) or p)
        assert rows == hook_rows
        assert len(rows) <= 7 and max(rows) <= 4 and rows[0] == 1
        assert len(hyp.tokens) >= 1


class _ExtendedLabelHook:
    """Row hook: moves a share of each row's mass, set by that row's state and
    previous token, onto one label past the vocabulary; that label's
    embedding is borrowed from ``proxy_id``."""

    def __init__(self, vocab: int, proxy_id: int):
        self.vocab = vocab
        self.proxy_ids = np.r_[np.arange(vocab), proxy_id]

    def __call__(self, s_prev, y_prev, p):
        share = 0.5 / (1.0 + np.exp(-s_prev.sum(axis=1) - 0.1 * y_prev))
        out = np.empty((len(p), self.vocab + 1))
        out[:, : self.vocab] = (1.0 - share)[:, None] * p
        out[:, self.vocab] = share
        return out


def test_reference_encoder_matches_encode():
    _, params = tiny_params(seed=2)
    src = [4, 8, 5, EOS_ID]
    np.testing.assert_allclose(reference_encode(src, params), encode(src, params).h,
                               rtol=1e-12, atol=1e-14)


def _rounded(s_prev, y_prev, p):
    """Row hook with exact ties and zeros: probabilities rounded to 0.01."""
    return np.round(p, 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), vocab=st.integers(6, 12), src_len=st.integers(0, 5),
       beam=st.integers(1, 5), max_len=st.integers(1, 16),
       hook_kind=st.sampled_from(["none", "extended", "rounded"]))
def test_batched_beam_matches_one_row_reference(seed, vocab, src_len, beam, max_len, hook_kind):
    _, params = tiny_params(seed=seed, src_v=vocab, tgt_v=vocab)
    rng = np.random.default_rng(seed)
    for t in params.params.values():
        t.data[...] = rng.uniform(-0.6, 0.6, size=t.data.shape)
    src = [int(i) for i in rng.integers(4, vocab, size=src_len)] + [EOS_ID]
    hook = {"none": None, "rounded": _rounded,
            "extended": _ExtendedLabelHook(vocab, int(rng.integers(4, vocab)))}[hook_kind]
    hyp = beam_search(src, params, beam, max_len, hook)
    tokens, log_prob = reference_beam(src, params, beam, max_len, hook)
    assert hyp.tokens == tokens
    assert hyp.log_prob == pytest.approx(log_prob, rel=1e-9, abs=0.0)


def _grads(loss_fn, params):
    """Loss value and every parameter's gradient."""
    params.zero_grads()
    loss = loss_fn(params)
    backward(loss)
    grads = {n: g.copy() for n, g in params.grads().items()}
    params.zero_grads()
    return float(loss.data), grads


def _assert_same_gradients(got, want):
    """Every entry within 1e-10 relative; an entry that cancels to near zero
    within 1e-13 of its tensor's largest entry."""
    assert got.keys() == want.keys()
    for name, ref in want.items():
        np.testing.assert_allclose(got[name], ref, rtol=1e-10, atol=1e-13 * np.abs(ref).max(),
                                   err_msg=name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), b=st.integers(1, 4), s_len=st.integers(1, 6),
       t_len=st.integers(1, 6))
def test_fused_gradients_match_per_op_tape(seed, b, s_len, t_len):
    # the per-op tape of conftest is the reference, on every gradient entry;
    # rows after the first are padded on the source and the target side
    _, params = tiny_params(seed=seed % 7, src_v=15, tgt_v=15, embed=4, hidden=5)
    rng = np.random.default_rng(seed)
    for t in params.params.values():
        t.data[...] = rng.uniform(-0.6, 0.6, size=t.data.shape)
    batch = _padded_batch(rng, b, s_len, t_len)

    # the encoder pair alone, on random cotangents of its outputs
    out_w = [rng.normal(size=shape) for shape in ((b, s_len, 10), (b, s_len, 5), (b, 5))]
    enc, cache = encode_forward(batch.src, batch.src_mask, params)
    loss = sum(float((t * w).sum()) for t, w in zip((enc.states, enc.uh, enc.s0), out_w))
    got = encode_backward(cache, *out_w)

    def tape_enc_loss(p):
        enc = tape_encode_batch(batch.src, batch.src_mask, p)
        parts = [sum_all(mul(t, constant(w))) for t, w in zip((enc.states, enc.uh, enc.s0), out_w)]
        return add(add(parts[0], parts[1]), parts[2])

    want_loss, want = _grads(on_tape(tape_enc_loss), params)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    _assert_same_gradients(got, want)

    # the whole loss, through the decoder node
    loss, got = _grads(lambda p: teacher_forced_loss(batch, p), params)
    want_loss, want = _grads(on_tape(lambda p: tape_loss(batch, p)), params)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    _assert_same_gradients(got, want)


def test_decoder_node_gradient_check():
    # decode_sequence on its own: its encoder inputs are parameters here
    rng = np.random.default_rng(21)
    _, params = tiny_params(seed=21, src_v=12, tgt_v=12, embed=4, hidden=5)
    for t in params.params.values():
        t.data[...] = rng.uniform(-0.6, 0.6, size=t.data.shape)
    mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0]])
    params = ParamSet({**{name: params[name].data for name in params.names()},
                       **{name: rng.uniform(-0.9, 0.9, size=shape) for name, shape in
                          (("states", (2, 4, 10)), ("uh", (2, 4, 5)), ("s0", (2, 5)))}})
    y_in = np.array([[BOS_ID, 5, 7], [BOS_ID, 9, EOS_ID]])
    out_w = constant(rng.normal(size=(6, 4)))
    inputs = ("states", "uh", "s0")
    names = [name for name in params.names() if name not in inputs]

    def loss(p):
        enc = EncodedSource(p["states"].data, p["uh"].data, mask, p["s0"].data)
        z, _, cache = decode_sequence(enc, y_in, p)

        def grads_of(g):
            *d_inputs, grads = decode_sequence_backward(cache, g)
            return [*d_inputs, *(grads.get(name) for name in names)]

        node = fused(z, [p[name] for name in (*inputs, *names)], grads_of)
        return sum_all(mul(node, out_w))

    assert grad_check(on_tape(loss), params, max_samples_per_tensor=20) < 1e-4


def test_decode_sequence_without_gradients_keeps_no_backward_records():
    # the same z and s_prev, bit for bit, and no [T, B, S, H] attention records
    rng = np.random.default_rng(5)
    _, params = tiny_params(seed=5)
    batch = _padded_batch(rng, 3, 5, 4, vocab=10)
    enc = encode_batch(batch.src, batch.src_mask, params)
    y_in = np.concatenate([np.full((3, 1), BOS_ID), batch.tgt[:, :-1]], axis=1)
    z, s_prev, cache = decode_sequence(enc, y_in, params)
    with numerics.no_grad():
        assert not numerics.grad_enabled()
        z_fwd, s_prev_fwd, cache_fwd = decode_sequence(enc, y_in, params)
    assert numerics.grad_enabled()
    assert cache is not None and cache_fwd is None
    assert z_fwd.tobytes() == z.tobytes()
    assert s_prev_fwd.tobytes() == s_prev.tobytes()
