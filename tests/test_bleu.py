import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnmt.bleu import bleu, brevity_penalty, recalled_words

SENT = st.lists(st.sampled_from("abcdefg"), min_size=4, max_size=10)


class TestNgramPrecisions:
    def test_identity_is_perfect(self):
        hyp = [["a", "b", "c", "d"]]
        assert bleu(hyp, hyp).precisions == (1.0, 1.0, 1.0, 1.0)

    def test_clipping(self):
        # reference contains a single "the": 3 hypothesis unigrams, 1 clipped match
        with pytest.warns(UserWarning, match="too short"):
            ps = bleu([["the", "the", "the"]], [["the", "cat"]]).precisions
        assert ps[0] == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        with pytest.warns(UserWarning, match="too short"):
            assert bleu([["a", "b"]], [["c", "d"]]).precisions[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [])


class TestBrevityPenalty:
    def test_equal_lengths(self):
        assert brevity_penalty(10, 10) == 1.0

    def test_short_hypothesis(self):
        assert brevity_penalty(9, 10) == pytest.approx(math.exp(-1.0 / 9.0), abs=1e-12)

    def test_long_hypothesis_unpenalized(self):
        assert brevity_penalty(20, 10) == 1.0

    def test_empty_hypothesis(self):
        assert brevity_penalty(0, 10) == 0.0


class TestBleu:
    def test_identity_scores_100(self):
        corpus = [["a", "b", "c", "d"], ["b", "c", "d", "e", "f"]]
        assert bleu(corpus, corpus).bleu == 100.0

    def test_prefix_hypothesis(self):
        # all precisions 1, BP = exp(1 - 5/4)
        report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert report.bleu == pytest.approx(77.88, abs=0.01)

    def test_short_hypothesis_is_degenerate_zero(self):
        with pytest.warns(UserWarning, match="too short"):
            report = bleu([["a", "b"]], [["a", "b"]])
        assert report.bleu == 0.0
        assert report.degenerate

    def test_zero_precision_zeroes_score(self):
        report = bleu([["a", "b", "c", "d"]], [["e", "f", "g", "h"]])
        assert report.bleu == 0.0
        assert not report.degenerate

    @given(st.lists(SENT, min_size=1, max_size=5), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_sentence_order_invariance(self, refs, rnd):
        hyps = [list(reversed(r)) for r in refs]
        paired = list(zip(hyps, refs))
        rnd.shuffle(paired)
        shuffled_h = [h for h, _ in paired]
        shuffled_r = [r for _, r in paired]
        assert bleu(shuffled_h, shuffled_r).bleu == pytest.approx(
            bleu(hyps, refs).bleu, abs=1e-9
        )

    @given(st.lists(SENT, min_size=1, max_size=5), st.lists(SENT, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_score_bounds(self, hyps, refs):
        n = min(len(hyps), len(refs))
        report = bleu(hyps[:n], refs[:n])
        assert 0.0 <= report.bleu <= 100.0
        assert 0.0 <= report.brevity_penalty <= 1.0

    def test_truncation_never_raises_bp(self):
        refs = [["a", "b", "c", "d", "e"], ["a", "b", "c", "d"]]
        hyps = [["a", "b", "c", "d", "e"], ["a", "b", "c", "d"]]
        full = bleu(hyps, refs).brevity_penalty
        cut = bleu([h[:-1] for h in hyps], refs).brevity_penalty
        assert cut <= full


class TestRecalledWords:
    def test_intersection(self):
        assert recalled_words([["a", "b", "c"]], [["b", "c", "d"]]) == 2

    def test_identity(self):
        ref = [["a", "b"], ["b", "c"]]
        assert recalled_words(ref, ref) == 3

    def test_empty_hypotheses(self):
        assert recalled_words([[]], [["a", "b"]]) == 0

    @given(st.lists(SENT, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_bounded_by_type_counts(self, refs):
        hyps = [r[:2] for r in refs]
        count = recalled_words(hyps, refs)
        assert count <= len({t for h in hyps for t in h})
        assert count <= len({t for r in refs for t in r})
