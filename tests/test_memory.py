import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    constant,
    cross_entropy,
    desk_config,
    make_mapped_task,
    matmul,
    memory_scores,
    on_tape,
    quick_train,
    reference_memory_loss,
    reference_sentence_memory,
    tape_chunk_loss,
    tape_memory_scores,
    tape_nodes,
    value_bytes,
)
from mnmt import memory as memory_module
from mnmt import model as model_module
from mnmt.corpus import EOS_ID, build_vocabulary
from mnmt.lexicon import Lexicon, train_ibm1
from mnmt.corpus import ParallelCorpus
from mnmt.memory import (
    EmptyLexiconError,
    MemoryHook,
    MemoryParams,
    MergedMemory,
    SimilarWordMap,
    TrainingRecord,
    chunk_loss,
    entry_matrix,
    apply_oov_substitution,
    init_memory_params,
    make_memory_hook,
    sentence_memory,
    train_memory_attention,
    training_chunk,
)
from mnmt.model import NmtConfig, beam_search, encode, init_nmt_params
from mnmt.numerics import ParamSet, backward, grad_check


def small_lexicon():
    return Lexicon({
        ("a", "x"): (0.6, 0.5),
        ("a", "y"): (0.3, 0.4),
        ("a", "z"): (0.1, 0.1),
        ("b", "y"): (0.8, 0.6),
    })


def vocab_of(words):
    return build_vocabulary([list(words)], max_size=4 + len(words))


@pytest.fixture
def setup():
    tgt_vocab = vocab_of(["x", "y", "z"])
    src_vocab = vocab_of(["a", "b"])
    cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=6, hidden=5)
    params = init_nmt_params(cfg, 0)
    return cfg, params, src_vocab, tgt_vocab


class TestBuildLocalMemory:
    """Which lexicon candidates `sentence_memory` enters, at which positions."""

    def test_top_k_per_position(self, setup):
        cfg, params, src_vocab, tgt_vocab = setup
        enc = encode([src_vocab.id_of("a"), EOS_ID], params)
        mem = sentence_memory(["a"], enc.h, small_lexicon(), tgt_vocab, 2)
        assert mem.labels.tolist() == [tgt_vocab.id_of("x"), tgt_vocab.id_of("y")]
        assert mem.pos.tolist() == [[0], [0]]
        assert mem.weight.tolist() == [[0.5], [0.4]]
        np.testing.assert_array_equal(mem.h, enc.h[[0, 0]])

    def test_unknown_tokens_contribute_nothing(self, setup):
        cfg, params, src_vocab, tgt_vocab = setup
        enc = encode([3, EOS_ID], params)
        mem = sentence_memory(["qqq"], enc.h, small_lexicon(), tgt_vocab, 3)
        assert mem.size == 0
        assert mem.h.shape == (0, enc.h.shape[1])

    def test_repeated_word_keeps_both_positions(self, setup):
        cfg, params, src_vocab, tgt_vocab = setup
        a = src_vocab.id_of("a")
        enc = encode([a, a, EOS_ID], params)
        mem = sentence_memory(["a", "a"], enc.h, small_lexicon(), tgt_vocab, 1)
        assert mem.labels.tolist() == [tgt_vocab.id_of("x")]
        assert mem.pos.tolist() == [[0, 1]]
        assert mem.weight.tolist() == [[0.5, 0.5]]
        assert not np.array_equal(enc.h[0], enc.h[1])
        np.testing.assert_allclose(mem.h[0], 0.5 * enc.h[0] + 0.5 * enc.h[1], rtol=1e-15)

    def test_out_of_vocabulary_candidate_skipped(self, setup):
        cfg, params, src_vocab, _ = setup
        tgt_vocab = vocab_of(["y"])  # "x" is not representable
        enc = encode([src_vocab.id_of("a"), EOS_ID], params)
        mem = sentence_memory(["a"], enc.h, small_lexicon(), tgt_vocab, 2)
        assert mem.labels.tolist() == [tgt_vocab.id_of("y")]


def _merged(groups, rows):
    return MergedMemory.from_groups(groups, np.asarray(rows, dtype=float))


class TestMergeMemory:
    """How `MergedMemory.from_groups` lays out and blends each label's group."""

    def test_weights_already_normalized(self):
        mem = _merged({7: [(0, 0.7), (1, 0.3)]}, [[1.0, 0.0], [0.0, 1.0]])
        assert mem.size == 1
        np.testing.assert_allclose(mem.h[0], [0.7, 0.3])

    def test_single_entry_ignores_probability_scale(self):
        mem = _merged({7: [(2, 0.05)]}, [[0.0, 0.0], [0.0, 0.0], [0.2, -0.4]])
        np.testing.assert_allclose(mem.h[0], [0.2, -0.4])

    def test_renormalizes_small_weights(self):
        mem = _merged({7: [(0, 0.2), (1, 0.2)]}, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mem.h[0], [0.5, 0.5])

    def test_zero_total_blends_uniformly(self):
        mem = _merged({7: [(0, 0.0), (1, 0.0)]}, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mem.h[0], [0.5, 0.5])
        assert mem.weight.tolist() == [[0.0, 0.0]]

    def test_unique_labels_and_hull(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 3))
        groups = {}
        for pos in range(6):
            groups.setdefault(int(rng.integers(4, 8)), []).append((pos, float(rng.random())))
        mem = MergedMemory.from_groups(groups, rows)
        assert mem.labels.dtype == np.int64 and mem.labels.tolist() == list(groups)
        width = max(len(g) for g in groups.values())
        assert mem.pos.shape == mem.weight.shape == (len(groups), width)
        for i, group in enumerate(groups.values()):
            positions, raw = zip(*group)
            assert mem.pos[i].tolist() == [*positions, *[-1] * (width - len(group))]
            assert mem.weight[i].tolist() == [*raw, *[0.0] * (width - len(group))]
            hull = rows[list(positions)]
            assert (mem.h[i] >= hull.min(axis=0) - 1e-12).all()
            assert (mem.h[i] <= hull.max(axis=0) + 1e-12).all()

    def test_empty_input(self):
        mem = _merged({}, np.zeros((2, 3)))
        assert mem.size == 0
        assert mem.h.shape == (0, 3) and mem.pos.shape == mem.weight.shape == (0, 0)


def _uw(mem, mparams, params):
    return entry_matrix(mem, params["tgt_embed"].data) @ mparams.pset["mem_Wu"].data


def _attention(mem, mparams, params, s_prev, y_prev):
    """The memory attention a MemoryHook interpolates: its rows at beta = 1, which
    put all their mass on the entries' labels, read at those labels."""
    hook = MemoryHook(mem, MemoryParams(mparams.pset, beta=1.0), params)
    vocab = params["tgt_embed"].data.shape[0]
    out = hook(s_prev, np.asarray(y_prev), np.full((len(s_prev), vocab), 1.0 / vocab))
    np.testing.assert_array_equal(np.delete(out, hook.labels, axis=1), 0.0)
    return out[:, hook.labels]


class TestMemoryAttention:
    def _mem(self, rng, hidden, n=3):
        return MergedMemory.from_groups({4 + i: [(i, 0.5)] for i in range(n)},
                                        rng.normal(size=(n, 2 * hidden)))

    def test_single_entry_gets_all_attention(self, setup):
        cfg, params, _, _ = setup
        mparams = init_memory_params(cfg, 1)
        mem = self._mem(np.random.default_rng(0), cfg.hidden_dim, n=1)
        alpha = _attention(mem, mparams, params, np.zeros((2, cfg.hidden_dim)), [4, 5])
        np.testing.assert_allclose(alpha, [[1.0], [1.0]])

    def test_zero_score_vector_gives_uniform(self, setup):
        cfg, params, _, _ = setup
        mparams = init_memory_params(cfg, 1)  # mem_v starts at zero
        mem = self._mem(np.random.default_rng(0), cfg.hidden_dim)
        alpha = _attention(mem, mparams, params, np.ones((1, cfg.hidden_dim)), [4])
        np.testing.assert_allclose(alpha, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_matches_direct_evaluation(self, setup):
        cfg, params, _, _ = setup
        rng = np.random.default_rng(13)
        mparams = init_memory_params(cfg, 13)
        mparams.pset["mem_v"].data[...] = rng.normal(size=cfg.hidden_dim)
        mem = self._mem(rng, cfg.hidden_dim)
        s = rng.normal(size=(4, cfg.hidden_dim))
        y_prev = [5, 4, 6, 5]
        emb = params["tgt_embed"].data
        alpha = _attention(mem, mparams, params, s, y_prev)
        assert alpha.shape == (4, 3)
        proxy = mem.proxy_ids(len(emb))

        for row in range(4):
            scores = []
            for label, h_blend in zip(mem.labels, mem.h):
                u = np.concatenate([emb[proxy[label]], h_blend])
                pre = (s[row] @ mparams.pset["mem_Ws"].data + u @ mparams.pset["mem_Wu"].data
                       + emb[y_prev[row]] @ mparams.pset["mem_Wy"].data)
                scores.append(mparams.pset["mem_v"].data @ np.tanh(pre))
            ex = np.exp(np.array(scores) - max(scores))
            np.testing.assert_allclose(alpha[row], ex / ex.sum(), atol=1e-12)
            assert alpha[row].sum() == pytest.approx(1.0, abs=1e-12)

    def test_score_shift_invariance(self, setup):
        cfg, params, _, _ = setup
        rng = np.random.default_rng(3)
        mparams = init_memory_params(cfg, 3)
        mparams.pset["mem_v"].data[...] = rng.normal(size=cfg.hidden_dim)
        mem = self._mem(rng, cfg.hidden_dim)
        s = rng.normal(size=(1, cfg.hidden_dim))
        y = params["tgt_embed"].data[[4]]
        e = memory_module.score_entries(s, y, _uw(mem, mparams, params), mparams.pset)[0][0]
        soft = np.exp(e - e.max()) / np.exp(e - e.max()).sum()
        shifted = e + 17.3
        soft2 = np.exp(shifted - shifted.max()) / np.exp(shifted - shifted.max()).sum()
        np.testing.assert_allclose(soft, soft2, atol=1e-12)

    def test_empty_memory_rejected(self, setup):
        cfg, params, _, _ = setup
        empty = _merged({}, np.zeros((1, 2 * cfg.hidden_dim)))
        with pytest.raises(ValueError):
            MemoryHook(empty, init_memory_params(cfg, 0), params)
        assert make_memory_hook(empty, init_memory_params(cfg, 0), params) is None

    def test_gradient_check_on_attention_loss(self, setup):
        cfg, params, _, _ = setup
        rng = np.random.default_rng(21)
        mparams = init_memory_params(cfg, 21)
        for t in mparams.pset.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        mem = self._mem(rng, cfg.hidden_dim)
        u = entry_matrix(mem, params["tgt_embed"].data)
        s = rng.normal(size=(2, cfg.hidden_dim))
        y_emb = params["tgt_embed"].data[[5, 4]]

        def loss(pset):
            uw = matmul(constant(u), pset["mem_Wu"])
            e = memory_scores(constant(s), constant(y_emb), uw, pset)
            return cross_entropy(e, np.array([2, 0]), np.ones(2))

        assert grad_check(on_tape(loss), mparams.pset, seed=0) < 1e-4


class TestMemoryHook:
    def _hook(self, setup, beta=1 / 3):
        cfg, params, _, tgt_vocab = setup
        rng = np.random.default_rng(5)
        mparams = init_memory_params(cfg, 5, beta=beta)
        for t in mparams.pset.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        # one extended label past the vocabulary, borrowing the embedding of id 5
        ext = len(tgt_vocab)
        groups = {4: [(0, 0.5)], 5: [(1, 0.5)], 6: [(2, 0.5)], ext: [(3, 1.0)]}
        mem = MergedMemory.from_groups(groups, rng.normal(size=(4, 2 * cfg.hidden_dim)),
                                       {ext: ("oov_word", 5)})
        return MemoryHook(mem, mparams, params), params, rng

    def test_rows_match_one_row_calls(self, setup):
        hook, params, rng = self._hook(setup)
        n, vocab = 5, params["tgt_embed"].data.shape[0]
        s = rng.normal(size=(n, params["dec_init_W"].data.shape[0]))
        y_prev = np.array([4, vocab, 2, 6, vocab])  # extended labels read their proxy embedding
        p = rng.dirichlet(np.ones(vocab), size=n)
        out = hook(s, y_prev, p)
        assert out.shape == (n, vocab + 1)
        for row in range(n):
            one = hook(s[row : row + 1], y_prev[row : row + 1], p[row : row + 1])
            np.testing.assert_allclose(out[row], one[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out[:, vocab] > 0).all()

    def test_extended_label_uses_its_proxy_embedding(self, setup):
        hook, params, rng = self._hook(setup)
        vocab = params["tgt_embed"].data.shape[0]
        s = rng.normal(size=(1, params["dec_init_W"].data.shape[0]))
        p = np.full((1, vocab), 1.0 / vocab)
        np.testing.assert_array_equal(hook(s, np.array([vocab]), p), hook(s, np.array([5]), p))

    def test_entries_and_labels_prepared_once(self, setup, monkeypatch):
        cfg, params, _, _ = setup
        calls = []
        real_entries, real_labels = memory_module.entry_matrix, MergedMemory.label_ids
        monkeypatch.setattr(memory_module, "entry_matrix",
                            lambda *a: calls.append("entries") or real_entries(*a))
        monkeypatch.setattr(MergedMemory, "label_ids",
                            lambda mem, vocab: calls.append("labels") or real_labels(mem, vocab))
        hook, params, rng = self._hook(setup)
        vocab = params["tgt_embed"].data.shape[0]
        for _ in range(3):
            hook(rng.normal(size=(2, cfg.hidden_dim)), np.array([4, 5]),
                 np.full((2, vocab), 1.0 / vocab))
        assert sorted(calls) == ["entries", "labels"]


def _blend(p_nmt, labels, beta, oov_labels=None, seed=0):
    """A MemoryHook's rows over ``p_nmt`` [n, V], for a memory of one entry per label
    under random scorer weights, and the attention it interpolates, from
    `score_entries` and a softmax written out here."""
    rng = np.random.default_rng(seed)
    (n, vocab), embed, hid = p_nmt.shape, 3, 2
    mparams = init_memory_params(NmtConfig(embed_dim=embed, hidden_dim=hid), seed, beta=beta)
    for t in mparams.pset.params.values():
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
    nmt_params = ParamSet({"tgt_embed": rng.normal(size=(vocab, embed))})
    mem = MergedMemory.from_groups({int(l): [(i, 0.5)] for i, l in enumerate(labels)},
                                   rng.normal(size=(len(labels), 2 * hid)), oov_labels)
    s_prev, y_prev = rng.normal(size=(n, hid)), rng.integers(0, vocab, size=n)
    y_emb = nmt_params["tgt_embed"].data[y_prev]
    scores = memory_module.score_entries(s_prev, y_emb, _uw(mem, mparams, nmt_params),
                                         mparams.pset)[0]
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    hook = MemoryHook(mem, mparams, nmt_params)
    return hook(s_prev, y_prev, p_nmt), alpha / alpha.sum(axis=1, keepdims=True)


class TestInterpolatePosterior:
    """The arithmetic of `MemoryHook.__call__`: (1 - beta) * p_nmt + beta * attention."""

    def test_blend_arithmetic(self):
        p, alpha = _blend(np.array([[0.3, 0.7]]), [0, 1], beta=1 / 3)
        assert 0.0 < alpha[0, 0] < 1.0
        assert p[0, 0] == pytest.approx(1 / 3 * alpha[0, 0] + 2 / 3 * 0.3)
        assert p[0, 1] == pytest.approx(1 / 3 * alpha[0, 1] + 2 / 3 * 0.7)

    def test_beta_zero_is_identity_on_vocab(self):
        p_nmt = np.array([[0.25, 0.75], [0.5, 0.5]])
        p, _ = _blend(p_nmt, [1], beta=0.0)
        np.testing.assert_array_equal(p[:, :2], p_nmt)

    def test_four_word_example(self):
        # memory holds one word with full attention; the rest keep (1-beta) mass
        p, alpha = _blend(np.full((1, 4), 0.25), [0], beta=1 / 3)
        assert alpha[0, 0] == 1.0
        assert p[0, 0] == pytest.approx(0.5)
        np.testing.assert_allclose(p[0, 1:], [1 / 6, 1 / 6, 1 / 6])
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_for_all_betas(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            k = int(rng.integers(1, 5))
            labels = [int(l) for l in rng.choice(10, size=k, replace=False)]
            oov = {10: ("oov", int(labels[0]))} if trial % 2 else None
            p_nmt = rng.dirichlet(np.ones(10), size=3)
            for beta in (0.0, 1 / 3, 1.0):
                p, _ = _blend(p_nmt, labels + ([10] if oov else []), beta, oov, seed=trial)
                assert p.shape == (3, 11 if oov else 10)
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_rows_are_independent(self):
        p_nmt = np.array([[0.1, 0.2, 0.7], [0.5, 0.25, 0.25]])
        p, alpha = _blend(p_nmt, [2, 0], beta=0.5)
        np.testing.assert_allclose(p, [[0.05 + 0.5 * alpha[0, 1], 0.1, 0.35 + 0.5 * alpha[0, 0]],
                                       [0.25 + 0.5 * alpha[1, 1], 0.125,
                                        0.125 + 0.5 * alpha[1, 0]]], rtol=1e-12)

    def test_oov_labels_widen_rows_with_memory_mass_only(self):
        rng = np.random.default_rng(4)
        p_nmt, beta = rng.dirichlet(np.ones(4), size=3), 1 / 3
        p, alpha = _blend(p_nmt, [1, 4, 5], beta, {4: ("oov_a", 2), 5: ("oov_b", 3)})
        want = np.zeros((3, 6))
        want[:, :4] = (1 - beta) * p_nmt
        want[:, [1, 4, 5]] += beta * alpha
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(p[:, 4:], beta * alpha[:, 1:], rtol=1e-12)

    def test_duplicate_labels_rejected(self):
        # from_groups cannot build one; a raised error, unlike an assert, survives python -O
        mem = MergedMemory(np.array([1, 1]), np.zeros((2, 1)), np.array([[0], [1]]),
                           np.ones((2, 1)))
        with pytest.raises(ValueError, match="unique"):
            mem.label_ids(3)

    def test_label_beyond_extension_rejected(self):
        mem = _merged({3: [(0, 0.5)]}, [[0.0, 0.0]])
        with pytest.raises(ValueError, match="beyond"):
            mem.label_ids(3)
        mem.oov_labels[3] = ("oov", 0)
        np.testing.assert_array_equal(mem.label_ids(3), [3])

    def test_empty_memory_identity(self, setup):
        # an empty memory gets no hook, so decoding keeps the model's posterior
        cfg, params, _, _ = setup
        empty = _merged({}, np.zeros((1, 2 * cfg.hidden_dim)))
        plain = beam_search([4, 5, EOS_ID], params, beam=2)
        for beta in (0.0, 1 / 3, 1.0):
            hook = make_memory_hook(empty, init_memory_params(cfg, 0, beta=beta), params)
            assert hook is None
            hyp = beam_search([4, 5, EOS_ID], params, 2, None, hook)
            assert (hyp.tokens, hyp.log_prob) == (plain.tokens, plain.log_prob)

    def test_beta_out_of_range(self, setup):
        # MemoryParams checks beta once; the hook reads it as given
        cfg = setup[0]
        for beta in (1.5, -0.1):
            with pytest.raises(ValueError, match="beta"):
                init_memory_params(cfg, 0, beta=beta)


class TestOovSubstitution:
    def test_cjk_substitution(self):
        vocab = vocab_of(["撒拉族", "的", "婚礼", "别具一格"])
        sim = SimilarWordMap(source={"黎族": ["撒拉族"]})
        tokens, record = apply_oov_substitution(["黎族", "的", "婚礼", "别具一格"], vocab, sim)
        assert tokens == ["撒拉族", "的", "婚礼", "别具一格"]
        assert record.substitutions == [(0, "黎族", "撒拉族")]
        assert record.unresolved == []

    def test_candidate_already_in_sentence_skipped(self):
        vocab = vocab_of(["u", "v"])
        sim = SimilarWordMap(source={"q": ["u", "v"]})
        tokens, record = apply_oov_substitution(["q", "u"], vocab, sim)
        assert tokens == ["v", "u"]
        assert record.substitutions == [(0, "q", "v")]

    def test_no_usable_candidate_becomes_unresolved(self):
        vocab = vocab_of(["u"])
        sim = SimilarWordMap(source={"q": ["u"]})
        tokens, record = apply_oov_substitution(["q", "u"], vocab, sim)
        assert tokens == ["q", "u"]  # stays OOV, will encode to UNK
        assert record.unresolved == [(0, "q")]

    def test_no_oov_is_identity(self):
        vocab = vocab_of(["u", "v"])
        tokens, record = apply_oov_substitution(["u", "v"], vocab, SimilarWordMap())
        assert tokens == ["u", "v"]
        assert record.substitutions == [] and record.unresolved == []


class TestInjectOovTargets:
    def _setup(self):
        src_vocab = vocab_of(["sim_s", "c1"])
        tgt_vocab = vocab_of(["sim_t", "d1"])
        cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=6, hidden=5)
        params = init_nmt_params(cfg, 2)
        lex = Lexicon({
            ("sim_s", "sim_t"): (0.9, 0.9),
            ("c1", "d1"): (0.9, 0.9),
            ("oov_s", "oov_t"): (0.8, 0.8),
        })
        sim = SimilarWordMap(source={"oov_s": ["sim_s"]}, target={"oov_t": ["sim_t"]})
        return src_vocab, tgt_vocab, cfg, params, lex, sim

    def test_oov_target_borrows_embedding(self):
        src_vocab, tgt_vocab, cfg, params, lex, sim = self._setup()
        tokens, record = apply_oov_substitution(["oov_s", "c1"], src_vocab, sim)
        assert tokens == ["sim_s", "c1"]
        enc = encode([src_vocab.id_of(t) for t in tokens] + [EOS_ID], params)
        mem = sentence_memory(tokens, enc.h, lex, tgt_vocab, k=2, record=record, sim=sim)

        labels = mem.labels.tolist()
        ext_id = len(tgt_vocab)
        assert ext_id in labels                        # the true translation is decodable
        assert tgt_vocab.id_of("sim_t") not in labels  # the stand-in's own translation is gone
        assert mem.oov_labels[ext_id] == ("oov_t", tgt_vocab.id_of("sim_t"))
        entry = labels.index(ext_id)
        assert mem.pos[entry].tolist() == [0]
        np.testing.assert_array_equal(mem.h[entry], enc.h[0])
        assert mem.proxy_ids(len(tgt_vocab))[ext_id] == tgt_vocab.id_of("sim_t")

    def test_in_vocab_translation_becomes_plain_entry(self):
        src_vocab, tgt_vocab, cfg, params, lex, sim = self._setup()
        lex.entries[("oov_s", "d1")] = (0.9, 0.9)
        lex.__post_init__()
        tokens, record = apply_oov_substitution(["oov_s"], src_vocab, sim)
        enc = encode([src_vocab.id_of(t) for t in tokens] + [EOS_ID], params)
        mem = sentence_memory(tokens, enc.h, lex, tgt_vocab, k=1, record=record, sim=sim)
        assert mem.labels.tolist() == [tgt_vocab.id_of("d1")]
        assert mem.oov_labels == {}

    def test_no_similar_target_is_skipped_and_reported(self):
        src_vocab, tgt_vocab, cfg, params, lex, _ = self._setup()
        sim = SimilarWordMap(source={"oov_s": ["sim_s"]}, target={})
        tokens, record = apply_oov_substitution(["oov_s"], src_vocab, sim)
        enc = encode([src_vocab.id_of(t) for t in tokens] + [EOS_ID], params)
        mem = sentence_memory(tokens, enc.h, lex, tgt_vocab, k=1, record=record, sim=sim)
        assert mem.injection_skipped == [(0, "oov_s", "oov_t")]
        assert (mem.labels < len(tgt_vocab)).all()

    def test_no_lexicon_entry_is_skipped_and_reported(self):
        src_vocab, tgt_vocab, cfg, params, lex, sim = self._setup()
        del lex.entries[("oov_s", "oov_t")]
        lex.__post_init__()
        tokens, record = apply_oov_substitution(["oov_s"], src_vocab, sim)
        enc = encode([src_vocab.id_of(t) for t in tokens] + [EOS_ID], params)
        mem = sentence_memory(tokens, enc.h, lex, tgt_vocab, k=1, record=record, sim=sim)
        assert mem.injection_skipped == [(0, "oov_s", "")]


SRC_IN, SRC_OOV = ["s0", "s1", "s2", "s3"], ["o0", "o1", "o2"]
TGT_IN, TGT_OOV = ["t0", "t1", "t2", "t3"], ["u0", "u1", "u2"]


@st.composite
def oov_sentences(draw):
    """A random lexicon over in-vocabulary and OOV words on both sides, a
    similar-word map whose candidates may be unusable, and a sentence."""
    src_words, tgt_words = SRC_IN + SRC_OOV, TGT_IN + TGT_OOV
    p_ts = st.sampled_from([0.1, 0.3, 0.5, 0.9])  # ties exercise the lookup order
    p_st = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    entries = {}
    for s in src_words:
        for t in draw(st.lists(st.sampled_from(tgt_words), max_size=4, unique=True)):
            entries[(s, t)] = (draw(p_ts), draw(p_st))
    sim = SimilarWordMap(
        source={o: draw(st.lists(st.sampled_from(SRC_IN + ["o0"]), max_size=3, unique=True))
                for o in SRC_OOV},
        target={u: draw(st.lists(st.sampled_from(TGT_IN + ["u0"]), max_size=2, unique=True))
                for u in TGT_OOV},
    )
    tokens = draw(st.lists(st.sampled_from(src_words + SRC_OOV), min_size=1, max_size=8))
    return Lexicon(entries), sim, tokens, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=oov_sentences())
def test_one_pass_memory_matches_two_pass_reference(case):
    lex, sim, tokens, k, seed = case
    src_vocab, tgt_vocab = vocab_of(SRC_IN), vocab_of(TGT_IN)
    tokens, record = apply_oov_substitution(tokens, src_vocab, sim)
    h = np.random.default_rng(seed).normal(size=(len(tokens) + 1, 6))
    mem = sentence_memory(tokens, h, lex, tgt_vocab, k, record, sim)
    want, oov_labels, skipped = reference_sentence_memory(tokens, h, lex, tgt_vocab, k,
                                                          record, sim)
    assert mem.oov_labels == oov_labels
    assert mem.injection_skipped == skipped
    labels = mem.labels.tolist()
    assert len(set(labels)) == len(labels)
    assert set(labels) == {e.label_id for e in want}
    width = max((len(e.contributors) for e in want), default=0)
    assert mem.pos.shape == mem.weight.shape == (len(labels), width)
    proxy = mem.proxy_ids(len(tgt_vocab))
    for ref in want:
        i = labels.index(ref.label_id)
        assert proxy[ref.label_id] == ref.embed_id
        n = len(ref.contributors)
        assert (mem.pos[i, n:] == -1).all() and (mem.weight[i, n:] == 0.0).all()
        got = zip(mem.pos[i, :n].tolist(), mem.weight[i, :n].tolist())
        assert sorted(got) == sorted(ref.contributors)
        assert mem.h[i].tobytes() == ref.h_blend.tobytes()


def oracle_task():
    """Five pairs, encoded as one padded batch, covering every record shape."""
    src_vocab = vocab_of(["a", "b", "c", "d", "q"])
    tgt_vocab = vocab_of(["x", "y", "z", "w", "v"])
    lex = Lexicon({
        ("a", "x"): (0.6, 0.5),
        ("a", "y"): (0.3, 0.4),
        ("a", "z"): (0.1, 0.1),
        ("b", "y"): (0.8, 0.6),
        ("c", "z"): (0.9, 0.7),
        ("d", "w"): (0.9, 0.9),
    })
    pairs = [
        (["a", "b", "c", "a"], ["y", "z", "x", "y", "v"]),  # K=3, longest source
        (["c"], ["z", "v"]),                                 # K=1: pad slots carry the bias
        (["q", "q"], ["v"]),                                 # empty memory
        (["d"], ["x", "x", "y", "v", "v", "v"]),             # an entry, no hit; longest target
        (["b", "c"], ["z", "y"]),                            # K=2
    ]
    cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=6, hidden=5)
    rng = np.random.default_rng(8)
    params = init_nmt_params(cfg, 8)
    mparams = init_memory_params(cfg, 8)
    for t in [*params.params.values(), *mparams.pset.params.values()]:
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
    return pairs, src_vocab, tgt_vocab, params, mparams, lex


class TestTrainMemoryAttention:
    def test_first_epoch_matches_per_position_reference(self, monkeypatch):
        pairs, src_vocab, tgt_vocab, params, mparams, lex = oracle_task()
        want, n_positions = reference_memory_loss(pairs, src_vocab, tgt_vocab, params, lex, 3,
                                                  mparams.pset)
        assert n_positions == 7
        advances = []
        step_forward = model_module.step_forward
        monkeypatch.setattr(model_module, "step_forward",
                            lambda *a: advances.append(a[4]) or step_forward(*a))
        (got,) = train_memory_attention(pairs, src_vocab, tgt_vocab, params, mparams, lex,
                                        epochs=1, lr=0.01, k=3, batch_pairs=16)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # the last memory position is column 3 of the first pair: three GRU
        # updates give its state s_3, and nothing decodes past that column
        assert advances == [True, True, True, False]

    def test_records_keep_no_decoder_backward(self, monkeypatch):
        pairs, src_vocab, tgt_vocab, params, mparams, lex = oracle_task()
        caches = []
        real = memory_module.decode_sequence

        def spy(*args):
            out = real(*args)
            caches.append(out[2])
            return out

        monkeypatch.setattr(memory_module, "decode_sequence", spy)
        train_memory_attention(pairs, src_vocab, tgt_vocab, params, mparams, lex, epochs=1)
        assert caches == [None]

    def test_logs_positions_coverage_and_epochs(self, caplog):
        pairs, src_vocab, tgt_vocab, params, mparams, lex = oracle_task()
        with caplog.at_level(logging.INFO, logger="mnmt.memory"):
            losses = train_memory_attention(pairs, src_vocab, tgt_vocab, params, mparams, lex,
                                            epochs=2, batch_pairs=2)
        records = [r for r in caplog.records if r.name == "mnmt.memory"]
        assert [r.args for r in records if r.msg.startswith("memory training:")] == [(3, 7)]
        coverage = next(r for r in records if r.msg.startswith("memory coverage:"))
        assert coverage.args[:2] == (7, 21)
        epochs = [r.args for r in records if r.msg.startswith("memory epoch")]
        assert epochs == [(1, 2, losses[0]), (2, 2, losses[1])]

    def test_chunk_tape_does_not_grow_with_positions(self, setup):
        cfg, params, _, _ = setup
        rng = np.random.default_rng(4)
        e, h = cfg.embed_dim, cfg.hidden_dim
        pset = init_memory_params(cfg, 4).pset

        def record(k, n):
            return TrainingRecord(rng.normal(size=(k, e + 2 * h)), rng.normal(size=(n, h)),
                                  rng.normal(size=(n, e)), rng.integers(0, k, size=n))

        one = training_chunk([record(1, 1)])
        many = training_chunk([record(3, 9), record(1, 4), record(5, 7)])
        assert many.pad_bias.shape == (20, 5)
        assert tape_nodes(chunk_loss(one, pset)) == tape_nodes(chunk_loss(many, pset))

    def test_training_and_decoding_score_with_one_function(self, setup, monkeypatch):
        cfg, params, _, _ = setup
        rng = np.random.default_rng(6)
        e, h = cfg.embed_dim, cfg.hidden_dim
        mparams = init_memory_params(cfg, 6)
        calls = []
        real = memory_module.score_entries
        monkeypatch.setattr(memory_module, "score_entries",
                            lambda *a: calls.append(1) or real(*a))
        chunk = training_chunk([
            TrainingRecord(rng.normal(size=(k, e + 2 * h)), rng.normal(size=(n, h)),
                           rng.normal(size=(n, e)), rng.integers(0, k, size=n))
            for k, n in ((3, 2), (1, 4))])
        chunk_loss(chunk, mparams.pset)
        assert len(calls) == 1
        mem = MergedMemory.from_groups({4 + i: [(i, 0.5)] for i in range(3)},
                                       rng.normal(size=(3, 2 * h)))
        hook = MemoryHook(mem, mparams, params)
        vocab = params["tgt_embed"].data.shape[0]
        hook(rng.normal(size=(2, h)), np.array([4, 5]), np.full((2, vocab), 1.0 / vocab))
        assert len(calls) == 2

    def test_degenerate_single_entry_memory_has_zero_loss(self):
        src_vocab = vocab_of(["a"])
        tgt_vocab = vocab_of(["x"])
        cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=6, hidden=5)
        params = init_nmt_params(cfg, 0)
        lex = Lexicon({("a", "x"): (1.0, 1.0)})
        mparams = init_memory_params(cfg, 0)
        losses = train_memory_attention([(["a"], ["x"])], src_vocab, tgt_vocab,
                                        params, mparams, lex, epochs=3, lr=0.01)
        assert losses == [pytest.approx(0.0, abs=1e-12)] * 3

    def test_loss_non_increasing_on_toy_corpus(self):
        task = make_mapped_task(n_common=6, n_train=10, seed=5)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab), embed=8, hidden=10)
        params, _ = quick_train(task, cfg, seed=5, steps=30)
        lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=10)
        mparams = init_memory_params(cfg, 5)
        losses = train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                                        params, mparams, lex, epochs=50, lr=0.05,
                                        batch_pairs=100)
        assert len(losses) == 50
        assert all(b <= a + 1e-3 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_nmt_parameters_frozen_bitwise(self):
        task = make_mapped_task(n_common=5, n_train=6, seed=1)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab), embed=6, hidden=6)
        params, _ = quick_train(task, cfg, seed=1, steps=5)
        before = value_bytes(params)
        lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=5)
        mparams = init_memory_params(cfg, 1)
        train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                               params, mparams, lex, epochs=3, lr=0.05)
        assert value_bytes(params) == before

    def test_empty_lexicon_rejected(self):
        task = make_mapped_task(n_common=4, n_train=3, seed=0)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab), embed=6, hidden=6)
        params = init_nmt_params(cfg, 0)
        with pytest.raises(EmptyLexiconError):
            train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                                   params, init_memory_params(cfg, 0), Lexicon({}),
                                   epochs=1)

    def test_untrainable_corpus_warns_and_noops(self):
        src_vocab = vocab_of(["a"])
        tgt_vocab = vocab_of(["x"])
        cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=6, hidden=5)
        params = init_nmt_params(cfg, 0)
        lex = Lexicon({("nope", "nada"): (1.0, 1.0)})
        mparams = init_memory_params(cfg, 0)
        with pytest.warns(UserWarning):
            losses = train_memory_attention([(["a"], ["x"])], src_vocab, tgt_vocab,
                                            params, mparams, lex, epochs=2)
        assert losses == []


def _loss_and_grads(loss_fn, pset):
    """Loss value and every parameter's gradient."""
    pset.zero_grads()
    loss = loss_fn(pset)
    backward(loss)
    grads = {n: g.copy() for n, g in pset.grads().items()}
    pset.zero_grads()
    return float(loss.data), grads


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16),
       records=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=4))
def test_fused_scorer_matches_per_op_tape(seed, records):
    # the per-op tape of conftest is the reference: a chunk's padded
    # [N, K_max, A] slot table, and one [K, A] uw shared by every row as c01 scores it
    rng = np.random.default_rng(seed)
    cfg = desk_config(8, 8, embed=4, hidden=3)
    e, h = cfg.embed_dim, cfg.hidden_dim
    pset = init_memory_params(cfg, seed).pset
    for t in pset.params.values():
        t.data[...] = rng.uniform(-0.6, 0.6, size=t.data.shape)
    chunk = training_chunk([
        TrainingRecord(rng.normal(size=(k, e + 2 * h)), rng.normal(size=(n, h)),
                       rng.normal(size=(n, e)), rng.integers(0, k, size=n))
        for k, n in records])
    u = chunk.u[: records[0][0]]

    def shared_loss(scorer):
        def loss(p):
            uw = matmul(constant(u), p["mem_Wu"])
            e = scorer(constant(chunk.s_prev), constant(chunk.y_emb), uw, p)
            return cross_entropy(e, chunk.target % len(u), np.ones(chunk.n_positions))
        return loss

    pairs = ((lambda p: chunk_loss(chunk, p), on_tape(lambda p: tape_chunk_loss(chunk, p))),
             (on_tape(shared_loss(memory_scores)), on_tape(shared_loss(tape_memory_scores))))
    for fused, tape in pairs:
        loss, got = _loss_and_grads(fused, pset)
        want_loss, want = _loss_and_grads(tape, pset)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        assert got.keys() == want.keys() == set(pset.names())
        for name, ref in want.items():
            np.testing.assert_allclose(got[name], ref, rtol=1e-10,
                                       atol=1e-13 * np.abs(ref).max(), err_msg=name)


class TestMemoryParams:
    def test_beta_validated(self):
        with pytest.raises(ValueError):
            MemoryParams(ParamSet(), beta=1.2)

    def test_default_interpolation_factor(self):
        cfg = desk_config(8, 8, embed=4, hidden=4)
        assert init_memory_params(cfg, 0).beta == pytest.approx(1 / 3)


class TestSimilarWordMapFiles:
    def test_load_and_dedupe(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("q\tu\tv\tu\nr\tw\n", encoding="utf-8")
        sim = SimilarWordMap.load(src_path=str(path))
        assert sim.source == {"q": ["u", "v"], "r": ["w"]}
        assert sim.target == {}

    def test_dropped_lines_logged_with_the_file(self, tmp_path, caplog):
        path = tmp_path / "sim.tsv"
        path.write_text("q\tu\n\tv\nr\nw\t\t\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="mnmt.memory"):
            sim = SimilarWordMap.load(tgt_path=str(path))
        assert sim.target == {"q": ["u"]}
        assert f"{path}: dropped 3 lines" in caplog.text

    def test_map_without_entries_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("q\nr\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: no 'word<TAB>stand-in' line"):
            SimilarWordMap.load(src_path=str(path))
