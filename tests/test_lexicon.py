import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnmt.corpus import ParallelCorpus
from mnmt.lexicon import (
    EmptyCorpusError,
    Lexicon,
    LexiconFormatError,
    lexicon_lookup,
    load_lexicon,
    save_lexicon,
    train_ibm1,
)

TOY_PAIRS = [(["a", "b"], ["x", "y"]), (["a"], ["x"])]


def oracle_em_t_given_s(pairs, iterations):
    """Straight-line reference EM for p(target|source), uniform co-occurrence init."""
    table = {}
    for src, tgt in pairs:
        for s in src:
            table.setdefault(s, {}).update({t: 0.0 for t in tgt})
    for s, bucket in table.items():
        for t in bucket:
            bucket[t] = 1.0 / len(bucket)
    for _ in range(iterations):
        counts = {s: {t: 0.0 for t in bucket} for s, bucket in table.items()}
        totals = {s: 0.0 for s in table}
        for src, tgt in pairs:
            for t in tgt:
                denom = sum(table[s][t] for s in src)
                for s in src:
                    frac = table[s][t] / denom
                    counts[s][t] += frac
                    totals[s] += frac
        for s in table:
            for t in table[s]:
                table[s][t] = counts[s][t] / totals[s]
    return table


class TestTrainIbm1:
    def test_single_cooccurrence_forces_certainty(self):
        lex = train_ibm1(ParallelCorpus([(["a"], ["x"])]), iterations=1)
        assert lex.entries[("a", "x")] == (1.0, 1.0)

    def test_matches_hand_rolled_em_oracle(self):
        # frozen from the oracle below on the 2-pair toy corpus, 10 iterations
        lex = train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=10, prob_floor=0.0)
        p_x_a = lex.entries[("a", "x")][0]
        p_y_a = lex.entries[("a", "y")][0]
        assert p_x_a > p_y_a
        assert p_x_a == pytest.approx(0.9970352732178555, abs=1e-6)
        oracle = oracle_em_t_given_s(TOY_PAIRS, 10)
        for (s, t), (p_ts, _) in lex.entries.items():
            assert p_ts == pytest.approx(oracle[s][t], abs=1e-9)

    def test_log_likelihood_non_decreasing(self):
        lex = train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=10)
        for direction in ("t_given_s", "s_given_t"):
            lls = lex.log_likelihood[direction]
            assert len(lls) == 10
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_probability_floor_drops_weak_pairs(self):
        lex = train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=10, prob_floor=0.5)
        assert ("a", "x") in lex.entries
        assert ("a", "y") not in lex.entries

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            train_ibm1(ParallelCorpus([]), iterations=1)

    @pytest.mark.parametrize("bad", [(["a"], []), ([], ["x"])])
    def test_pair_with_an_empty_side_is_named(self, bad):
        # EM would divide by the empty side's length deep inside the E-step
        with pytest.raises(EmptyCorpusError, match="pair 2 "):
            train_ibm1(ParallelCorpus([*TOY_PAIRS[:2], bad]), iterations=1)

    def test_bad_iteration_count(self):
        with pytest.raises(ValueError):
            train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=0)

    @pytest.mark.parametrize("floor", [1.5, -0.1, float("nan")])
    def test_floor_outside_the_unit_interval_is_rejected(self, floor):
        # a floor above 1 keeps no entry; a NaN floor compares false and keeps every pair
        with pytest.raises(ValueError, match=r"^prob_floor must be in \[0, 1\]"):
            train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=1, prob_floor=floor)

    def test_floor_of_one_is_accepted(self):
        lex = train_ibm1(ParallelCorpus([(["a"], ["x"])]), iterations=1, prob_floor=1.0)
        assert lex.entries == {("a", "x"): (1.0, 1.0)}

    def test_conditional_sums_bounded(self):
        lex = train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=5, prob_floor=0.0)
        by_s, by_t = {}, {}
        for (s, t), (p_ts, p_st) in lex.entries.items():
            by_s[s] = by_s.get(s, 0.0) + p_ts
            by_t[t] = by_t.get(t, 0.0) + p_st
        assert all(v <= 1.0 + 1e-6 for v in by_s.values())
        assert all(v <= 1.0 + 1e-6 for v in by_t.values())


class TestLookup:
    LEX = Lexicon({("a", "x"): (0.6, 0.5), ("a", "y"): (0.3, 0.5), ("a", "z"): (0.1, 0.5)})

    def test_top_k(self):
        assert lexicon_lookup(self.LEX, "a", 2) == [("x", 0.6), ("y", 0.3)]

    def test_unknown_source(self):
        assert lexicon_lookup(self.LEX, "qqq", 3) == []

    def test_lexicographic_tie_break(self):
        lex = Lexicon({("a", "y"): (0.5, 1.0), ("a", "x"): (0.5, 1.0)})
        assert lexicon_lookup(lex, "a", 1) == [("x", 0.5)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            lexicon_lookup(self.LEX, "a", 0)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10)
    def test_prefix_property(self, k):
        assert lexicon_lookup(self.LEX, "a", k) == lexicon_lookup(self.LEX, "a", k + 1)[:k]


class TestLexiconFiles:
    def test_parse_row(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t0.7\t0.9\n", encoding="utf-8")
        lex = load_lexicon(str(path))
        assert lex.entries[("a", "x")] == (0.7, 0.9)

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t0.7\t0.9\na\tx\t0.6\t0.8\n", encoding="utf-8")
        lex = load_lexicon(str(path))
        assert lex.entries[("a", "x")] == (0.6, 0.8)
        assert lex.duplicates == 1

    def test_out_of_range_probability(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t1.2\t0.5\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="line 1"):
            load_lexicon(str(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t0.7\t0.9\na\tx\t0.7\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_lexicon(str(path))

    def test_non_numeric_probability(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\thigh\t0.9\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="line 1"):
            load_lexicon(str(path))

    def test_nan_probability_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\tnan\t0.9\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            load_lexicon(str(path))

    def test_save_load_roundtrip(self, tmp_path):
        lex = train_ibm1(ParallelCorpus(TOY_PAIRS), iterations=10, prob_floor=0.0)
        path = tmp_path / "lex.tsv"
        save_lexicon(lex, str(path))
        loaded = load_lexicon(str(path))
        assert set(loaded.entries) == set(lex.entries)
        for key, (p_ts, p_st) in lex.entries.items():
            assert loaded.entries[key][0] == pytest.approx(p_ts, abs=1e-6)
            assert loaded.entries[key][1] == pytest.approx(p_st, abs=1e-6)

    def test_utf8_tokens(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("苹果\tئالما\t0.9\t0.8\n", encoding="utf-8")
        lex = load_lexicon(str(path))
        assert lexicon_lookup(lex, "苹果", 1) == [("ئالما", 0.9)]
