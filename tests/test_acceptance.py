"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything here is desk scale: tiny vocabularies, synthetic
word-for-word corpora, seeded end to end.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    checkpoint_checksum,
    desk_config,
    greedy_reference,
    make_copy_task,
    make_mapped_task,
    plant_word_pair,
    quick_train,
    table_hook,
)
from mnmt.bleu import bleu, brevity_penalty, recalled_words
from mnmt.checkpoint import save_checkpoint
from mnmt.cli import main as cli_main
from mnmt.cli import translate_lines
from mnmt.corpus import BOS_ID, EOS_ID, Batch, ParallelCorpus, encode_sentence
from mnmt.lexicon import train_ibm1
from mnmt.memory import (
    MemoryHook,
    MergedMemory,
    SimilarWordMap,
    TrainingRecord,
    chunk_loss,
    entry_matrix,
    init_memory_params,
    sentence_memory,
    train_memory_attention,
    training_chunk,
)
from mnmt.model import NmtConfig, beam_search, encode, init_nmt_params, teacher_forced_loss
from mnmt.numerics import grad_check


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: PASS")


def test_c01_gradient_fidelity():
    """NMT and memory-attention losses agree with finite differences (< 1e-4)."""
    with criterion(1, "gradient fidelity"):
        start = time.time()
        cfg = NmtConfig(src_vocab_size=20, tgt_vocab_size=20, embed_dim=8,
                        hidden_dim=12, beam_size=2, batch_size=2, lr=0.001)
        rng = np.random.default_rng(7)
        params = init_nmt_params(cfg, 7)
        # a generic parameter point: at near-zero init this tiny instance has
        # coordinates whose true gradient sits below finite-difference noise
        for t in params.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        src = rng.integers(4, 20, size=(2, 5))
        src[:, -1] = EOS_ID
        tgt = rng.integers(4, 20, size=(2, 5))
        tgt[:, -1] = EOS_ID
        tgt[1, 2] = EOS_ID
        batch = Batch(src, np.ones((2, 5)), tgt,
                      np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]]))
        err_nmt = grad_check(lambda p: teacher_forced_loss(batch, p), params,
                             max_samples_per_tensor=8, seed=0)
        assert err_nmt < 1e-4, f"nmt loss gradient error {err_nmt:.2e}"

        mparams = init_memory_params(cfg, 7)
        for t in mparams.pset.params.values():
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
        mem = MergedMemory.from_groups(  # K = 5
            {4 + i: [(i, 0.5)] for i in range(5)}, rng.standard_normal((5, 2 * cfg.hidden_dim)))
        u = entry_matrix(mem, params["tgt_embed"].data)
        s_vec = rng.standard_normal(cfg.hidden_dim)
        y_emb = params["tgt_embed"].data[6]
        # the loss memory training minimizes, at one position whose reference is entry 3
        chunk = training_chunk([TrainingRecord(u, s_vec[None], y_emb[None], np.array([3]))])
        err_mem = grad_check(lambda p: chunk_loss(chunk, p), mparams.pset, seed=0)
        assert err_mem < 1e-4, f"memory loss gradient error {err_mem:.2e}"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.0f}s"


def test_c02_tiny_corpus_overfit():
    """Vanilla model reaches corpus BLEU >= 99 on a 100-pair copy task."""
    with criterion(2, "tiny-corpus overfit"):
        start = time.time()
        task = make_copy_task(n_pairs=100, n_words=12, len_range=(4, 8), seed=0)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                          embed=24, hidden=32, batch=20, lr=0.005)
        from mnmt.corpus import make_batches
        from mnmt.model import train_step

        batches = make_batches(task.encoded_train(), cfg.batch_size, 50, seed=0)
        params = init_nmt_params(cfg, 0)
        src_lines = [" ".join(s) for s, _ in task.train_pairs]
        refs = [t for _, t in task.train_pairs]
        best = 0.0
        step = 0
        while step < 2000:
            for _ in range(250):
                train_step(batches[step % len(batches)], params, cfg.lr)
                step += 1
            hyps = [h.split() for h in translate_lines(
                src_lines, task.src_vocab, task.tgt_vocab, params, beam=4)]
            best = max(best, bleu(hyps, refs).bleu)
            if best >= 99.0:
                break
        elapsed = time.time() - start
        assert best >= 99.0, f"train BLEU plateaued at {best:.2f} by step {step}"
        assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"


def _rare_word_run(seed: int):
    task = make_mapped_task(n_common=16, n_rare=20, n_train=150, n_heldout=30, seed=seed)
    # verify the construction: every rare pair occurs exactly once in training
    for rs, _ in task.rare_words:
        occurrences = sum(s.count(rs) for s, _ in task.train_pairs)
        assert occurrences == 1, f"{rs} occurs {occurrences} times"
    cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                      embed=24, hidden=32, batch=20, lr=0.005)
    params, _ = quick_train(task, cfg, seed=seed, steps=300)
    lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=10, prob_floor=0.1)
    for rs, rt in task.rare_words:
        assert (rs, rt) in lex.entries
    mparams = init_memory_params(cfg, seed, beta=1.0 / 3.0)
    train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                           params, mparams, lex, epochs=40, lr=0.02, batch_pairs=16)
    src_lines = [" ".join(s) for s, _ in task.heldout_pairs]
    refs = [t for _, t in task.heldout_pairs]
    plain = [h.split() for h in translate_lines(
        src_lines, task.src_vocab, task.tgt_vocab, params, beam=4)]
    memd = [h.split() for h in translate_lines(
        src_lines, task.src_vocab, task.tgt_vocab, params, beam=4,
        lexicon=lex, mparams=mparams, k=3)]
    return recalled_words(plain, refs), recalled_words(memd, refs)


def test_c03_memory_benefit_on_rare_words():
    """Memory interpolation (beta=1/3) recalls strictly more held-out words."""
    with criterion(3, "memory benefit on rare words"):
        for seed in (0, 1, 2):
            r_plain, r_mem = _rare_word_run(seed)
            assert r_mem > r_plain, (
                f"seed {seed}: memory recalled {r_mem} <= vanilla {r_plain}"
            )


class _MassSpy:
    """Wraps a memory hook and records the posterior mass of every row:
    one entry per hypothesis and step."""

    def __init__(self, inner):
        self.inner = inner
        self.sums = []

    def __call__(self, s_prev, y_prev, p):
        out = self.inner(s_prev, y_prev, p)
        assert out.shape[0] == len(y_prev) == len(s_prev) == len(p)
        self.sums.extend(out.sum(axis=1).tolist())
        return out

    @property
    def proxy_ids(self):
        return self.inner.proxy_ids


def test_c04_interpolation_identities():
    """beta=0 decoding bit-matches vanilla; posterior mass stays 1."""
    with criterion(4, "interpolation identities"):
        task = make_mapped_task(n_common=12, n_rare=0, n_train=60, n_heldout=20, seed=4)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                          embed=16, hidden=20, batch=16, lr=0.01)
        params, _ = quick_train(task, cfg, seed=4, steps=120)
        lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=10, prob_floor=0.1)

        for beta in (0.0, 1.0 / 3.0, 1.0):
            mparams = init_memory_params(cfg, 4, beta=beta)
            calls = 0
            for s_toks, _ in task.heldout_pairs:
                ids = encode_sentence(s_toks, task.src_vocab, True)
                enc = encode(ids, params)
                mem = sentence_memory(s_toks, enc.h, lex, task.tgt_vocab, 3)
                if not mem.size:
                    continue
                spy = _MassSpy(MemoryHook(mem, mparams, params))
                hooked = beam_search(ids, params, beam=2, memory_hook=spy)
                calls += len(spy.sums)
                assert all(abs(s - 1.0) <= 1e-9 for s in spy.sums)
                if beta == 0.0:
                    plain = beam_search(ids, params, beam=2)
                    assert hooked.tokens == plain.tokens
                    assert hooked.log_prob == plain.log_prob
                if calls >= 100:
                    break
            assert calls >= 100, f"only {calls} decode steps exercised at beta={beta}"


def test_c05_oov_redirection():
    """A source OOV decodes to its true out-of-vocabulary translation."""
    with criterion(5, "OOV redirection"):
        seed = 0
        task = make_mapped_task(n_common=16, n_rare=0, n_train=150, n_heldout=0, seed=seed)
        # the stand-in pair is a well-trained vocabulary word, as the borrowing
        # scheme assumes
        plant_word_pair(task, "sim_s", "sim_t", n=40, seed=seed + 100)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                          embed=24, hidden=32, batch=20, lr=0.005)
        params, _ = quick_train(task, cfg, seed=seed, steps=300)
        lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=10, prob_floor=0.1)
        # the word-mapping table knows the OOV word even though the model cannot
        # represent it on either side
        lex.entries[("oov_s", "oov_t")] = (0.9, 0.9)
        lex.__post_init__()
        assert "oov_s" not in task.src_vocab and "oov_t" not in task.tgt_vocab
        # a desk-scale model is near-deterministic on its training words, so the
        # memory needs a larger share than the full-scale default of 1/3
        mparams = init_memory_params(cfg, seed, beta=0.5)
        train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                               params, mparams, lex, epochs=40, lr=0.02, batch_pairs=16)
        sim = SimilarWordMap(source={"oov_s": ["sim_s"]}, target={"oov_t": ["sim_t"]})
        (out,) = translate_lines(["s01 s02 oov_s s03"], task.src_vocab, task.tgt_vocab,
                                 params, beam=4, lexicon=lex, mparams=mparams, k=3, sim=sim)
        tokens = out.split()
        assert "oov_t" in tokens, f"true translation missing from {tokens}"
        assert "sim_t" not in tokens, f"stand-in translation leaked into {tokens}"


def test_c06_freezing_contract(tmp_path):
    """Memory training leaves the translation checkpoint byte-identical."""
    with criterion(6, "freezing contract"):
        task = make_mapped_task(n_common=8, n_rare=0, n_train=30, n_heldout=0, seed=6)
        cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                          embed=12, hidden=12, batch=10, lr=0.01)
        params, _ = quick_train(task, cfg, seed=6, steps=40)
        ckpt = tmp_path / "nmt.ckpt"
        save_checkpoint(str(ckpt), params, {"kind": "nmt"})
        before = checkpoint_checksum(str(ckpt))
        lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=5)
        mparams = init_memory_params(cfg, 6)
        train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                               params, mparams, lex, epochs=5, lr=0.05)
        save_checkpoint(str(ckpt), params, {"kind": "nmt"})
        assert checkpoint_checksum(str(ckpt)) == before


def test_c07_bleu_oracle():
    """Scorer reproduces the hand-derived reference values."""
    with criterion(7, "BLEU oracle"):
        corpus = [["a", "b", "c", "d"], ["e", "f", "g", "h", "a"]]
        assert bleu(corpus, corpus).bleu == 100.0
        report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert report.bleu == pytest.approx(77.88, abs=0.01)
        assert brevity_penalty(9, 10) == pytest.approx(0.89483, abs=1e-5)
        with pytest.warns(UserWarning, match="too short"):
            p1 = bleu([["the", "the", "the"]], [["the", "cat"]]).precisions[0]
        assert p1 == 1.0 / 3.0


def test_c08_em_monotonicity_and_oracle():
    """IBM1 log-likelihood never decreases; p(x|a) matches the EM oracle."""
    with criterion(8, "EM monotonicity"):
        pairs = [(["a", "b"], ["x", "y"]), (["a"], ["x"])]
        lex = train_ibm1(ParallelCorpus(pairs), iterations=10, prob_floor=0.0)
        for direction in ("t_given_s", "s_given_t"):
            lls = lex.log_likelihood[direction]
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        # frozen output of the straight-line EM oracle in test_lexicon.py
        assert lex.entries[("a", "x")][0] == pytest.approx(0.9970352732178555, abs=1e-6)


def test_c09_beam_contract():
    """beam=1 is greedy on 50 seeded models; beam=2 beats greedy where it should."""
    with criterion(9, "beam contract"):
        rng = np.random.default_rng(9)
        for seed in range(50):
            cfg = NmtConfig(src_vocab_size=12, tgt_vocab_size=12, embed_dim=6,
                            hidden_dim=8, beam_size=1, batch_size=1, lr=0.01)
            params = init_nmt_params(cfg, seed)
            for t in params.params.values():
                t.data[...] = rng.uniform(-0.4, 0.4, size=t.data.shape)
            src = list(rng.integers(4, 12, size=int(rng.integers(2, 6)))) + [EOS_ID]
            hyp = beam_search(src, params, beam=1, max_len=10)
            assert hyp.tokens == greedy_reference(src, params, 10)

        # hand-set table where the greedy path is length-normalized suboptimal
        cfg = NmtConfig(src_vocab_size=6, tgt_vocab_size=6, embed_dim=4,
                        hidden_dim=4, beam_size=2, batch_size=1, lr=0.01)
        params = init_nmt_params(cfg, 0)
        a, b = 4, 5
        table = {
            BOS_ID: {EOS_ID: 0.01, a: 0.55, b: 0.44},
            a: {EOS_ID: 0.9, a: 0.05, b: 0.05},
            b: {EOS_ID: 0.009, a: 0.98, b: 0.011},
        }
        hook = table_hook(table, 6)

        greedy = beam_search([4, EOS_ID], params, beam=1, max_len=3, memory_hook=hook)
        wide = beam_search([4, EOS_ID], params, beam=2, max_len=3, memory_hook=hook)
        assert greedy.tokens == [a, EOS_ID]
        assert wide.tokens == [b, a, EOS_ID]
        assert wide.normalized_score() > greedy.normalized_score()

        # brute force over every sequence up to length 3
        best = None
        stack = [([], 0.0)]
        while stack:
            toks, lp = stack.pop()
            if toks and (toks[-1] == EOS_ID or len(toks) == 3):
                score = lp / len(toks)
                if best is None or score > best[1]:
                    best = (toks, score)
                continue
            prev = toks[-1] if toks else BOS_ID
            for tid, prob in table[prev].items():
                stack.append((toks + [tid], lp + math.log(prob)))
        assert wide.tokens == best[0]
        assert wide.normalized_score() == pytest.approx(best[1], abs=1e-12)


def test_c10_determinism(tmp_path):
    """Two trainings from the same seed and config produce identical bytes."""
    with criterion(10, "determinism"):
        task = make_mapped_task(n_common=8, n_rare=0, n_train=24, n_heldout=0, seed=10)
        src = tmp_path / "c.src"
        tgt = tmp_path / "c.tgt"
        src.write_text("\n".join(" ".join(s) for s, _ in task.train_pairs) + "\n",
                       encoding="utf-8")
        tgt.write_text("\n".join(" ".join(t) for _, t in task.train_pairs) + "\n",
                       encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "src_vocab_size = 20\ntgt_vocab_size = 20\nembed_dim = 10\n"
            "hidden_dim = 12\nbatch_size = 8\nlr = 0.01\ntrain_steps = 30\n",
            encoding="utf-8",
        )
        files = ["--config", str(cfg), "--src", str(src), "--tgt", str(tgt),
                 "--vocab-src", str(tmp_path / "c.vsrc"), "--vocab-tgt", str(tmp_path / "c.vtgt")]
        assert cli_main(["build-vocab", *files]) == 0
        args = ["train", *files, "--seed", "11"]
        assert cli_main([*args, "--ckpt", str(tmp_path / "one.ckpt")]) == 0
        assert cli_main([*args, "--ckpt", str(tmp_path / "two.ckpt")]) == 0
        assert (checkpoint_checksum(str(tmp_path / "one.ckpt"))
                == checkpoint_checksum(str(tmp_path / "two.ckpt")))
