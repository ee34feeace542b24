import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnmt.corpus import (
    BOS_TOKEN,
    CONTROL_TOKENS,
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    CorpusAlignmentError,
    CorpusEncodingError,
    EmptyTrainingSetError,
    Vocabulary,
    build_vocabulary,
    decode_ids,
    encode_sentence,
    load_parallel_corpus,
    make_batches,
)

WORD = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadParallelCorpus:
    def test_plain_pair(self, tmp_path):
        src = _write(tmp_path / "s", ["a b"])
        tgt = _write(tmp_path / "t", ["x y z"])
        corpus = load_parallel_corpus(src, tgt)
        assert corpus.pairs == [(["a", "b"], ["x", "y", "z"])]
        assert corpus.dropped_empty == 0

    def test_empty_line_dropped_and_counted(self, tmp_path):
        src = _write(tmp_path / "s", ["a", ""])
        tgt = _write(tmp_path / "t", ["x", "y"])
        corpus = load_parallel_corpus(src, tgt)
        assert corpus.pairs == [(["a"], ["x"])]
        assert corpus.dropped_empty == 1

    def test_line_count_mismatch(self, tmp_path):
        src = _write(tmp_path / "s", ["a", "b", "c"])
        tgt = _write(tmp_path / "t", ["x", "y"])
        with pytest.raises(CorpusAlignmentError, match="3 vs 2"):
            load_parallel_corpus(src, tgt)

    def test_bad_utf8_names_line(self, tmp_path):
        src = tmp_path / "s"
        src.write_bytes(b"ok line\n\xff\xfe broken\n")
        tgt = _write(tmp_path / "t", ["x", "y"])
        with pytest.raises(CorpusEncodingError, match="line 2"):
            load_parallel_corpus(str(src), str(tgt))


class TestBuildVocabulary:
    def test_frequency_order(self):
        vocab = build_vocabulary([["a", "a", "b"]], max_size=10)
        assert vocab.tokens == [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, "a", "b"]

    def test_truncation_drops_later_token(self):
        vocab = build_vocabulary([["a", "b"]], max_size=5)
        assert vocab.tokens == list(CONTROL_TOKENS) + ["a"]

    def test_tie_broken_by_first_occurrence(self):
        # freq(a) = freq(b) = 2, but b is seen first; c trails with freq 1
        vocab = build_vocabulary([["b", "a", "a", "b", "c"]], max_size=7)
        assert vocab.tokens[4:] == ["b", "a", "c"]

    def test_empty_corpus_gives_control_tokens(self):
        assert build_vocabulary([], max_size=5).tokens == list(CONTROL_TOKENS)

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], max_size=4)

    @given(st.lists(st.lists(WORD, max_size=6), max_size=6))
    def test_deterministic(self, sentences):
        a = build_vocabulary(sentences, max_size=12)
        b = build_vocabulary(sentences, max_size=12)
        assert a.tokens == b.tokens


class TestEncodeDecode:
    def test_encode_with_eos(self):
        vocab = build_vocabulary([["a", "b"]], max_size=10)
        assert encode_sentence(["a", "b"], vocab, append_eos=True) == [
            vocab.id_of("a"),
            vocab.id_of("b"),
            EOS_ID,
        ]

    def test_unknown_maps_to_unk(self):
        vocab = build_vocabulary([["a"]], max_size=10)
        assert encode_sentence(["zzz"], vocab, append_eos=True) == [UNK_ID, EOS_ID]

    def test_empty_sentence(self):
        vocab = build_vocabulary([], max_size=5)
        assert encode_sentence([], vocab, append_eos=True) == [EOS_ID]

    @given(st.lists(WORD, min_size=1, max_size=8))
    def test_roundtrip_identity_on_known_tokens(self, tokens):
        vocab = build_vocabulary([tokens], max_size=100)
        ids = encode_sentence(tokens, vocab, append_eos=False)
        assert decode_ids(ids, vocab) == tokens

    def test_vocab_file_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["a", "b", "c"]], max_size=10)
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        assert Vocabulary.load(str(path)).tokens == vocab.tokens

    def test_vocab_file_without_control_prefix_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*must start with"):
            Vocabulary.load(str(path))

    def test_vocab_file_with_duplicate_token_names_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        build_vocabulary([["a", "b"]], max_size=10).save(str(path))
        with open(path, "a", encoding="utf-8") as f:
            f.write("a\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate token 'a'"):
            Vocabulary.load(str(path))

    def test_decode_stops_at_eos_and_skips_controls(self):
        vocab = build_vocabulary([["a", "b"]], max_size=10)
        ids = [PAD_ID, vocab.id_of("a"), EOS_ID, vocab.id_of("b")]
        assert decode_ids(ids, vocab) == ["a"]


class TestMakeBatches:
    def _pairs(self, lens):
        return [([4] * n + [EOS_ID], [5] * n + [EOS_ID]) for n in lens]

    def test_padding_and_mask(self):
        pairs = [([4, EOS_ID], [4, EOS_ID]), ([4, 5, EOS_ID], [4, 5, EOS_ID])]
        (batch,) = make_batches(pairs, batch_size=2, max_len=10, seed=0)
        short = int(np.argmin(batch.src_mask.sum(axis=1)))
        assert batch.src[short, 2] == PAD_ID
        np.testing.assert_array_equal(batch.src_mask[short], [1, 1, 0])
        np.testing.assert_array_equal(batch.src_mask[1 - short], [1, 1, 1])

    def test_uneven_split(self):
        batches = make_batches(self._pairs([2, 2, 2]), batch_size=2, max_len=10, seed=0)
        assert [len(b.src) for b in batches] == [2, 1]

    def test_same_seed_same_order(self):
        pairs = self._pairs([1, 2, 3, 4, 5])
        a = make_batches(pairs, batch_size=2, max_len=10, seed=3)
        b = make_batches(pairs, batch_size=2, max_len=10, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src, y.src)
            np.testing.assert_array_equal(x.tgt, y.tgt)

    def test_different_seed_preserves_multiset(self):
        pairs = self._pairs([1, 2, 3, 4, 5])
        a = make_batches(pairs, batch_size=2, max_len=10, seed=0)
        b = make_batches(pairs, batch_size=2, max_len=10, seed=1)

        def rows(batches):
            out = []
            for bt in batches:
                for i in range(len(bt.src)):
                    out.append(tuple(bt.src[i][bt.src_mask[i] > 0]))
            return sorted(out)

        assert rows(a) == rows(b)

    def test_drops_overlength_pairs(self):
        pairs = self._pairs([2, 30])
        batches = make_batches(pairs, batch_size=4, max_len=10, seed=0)
        assert sum(len(b.src) for b in batches) == 1

    def test_all_dropped_raises(self):
        with pytest.raises(EmptyTrainingSetError, match="max_len = 5$"):
            make_batches(self._pairs([30]), batch_size=1, max_len=5, seed=0)

    def test_target_must_end_with_eos(self):
        with pytest.raises(ValueError, match="EOS"):
            make_batches([([4, EOS_ID], [4, 5])], batch_size=1, max_len=10, seed=0)

    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_mask_count_equals_token_count(self, lens):
        pairs = self._pairs(lens)
        batches = make_batches(pairs, batch_size=3, max_len=20, seed=0)
        total = sum(b.src_mask.sum() + b.tgt_mask.sum() for b in batches)
        assert total == sum(2 * (n + 1) for n in lens)
