"""Parallel-corpus ingestion, vocabularies, integer encoding, and batching."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

CONTROL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
MIN_VOCAB_SIZE = len(CONTROL_TOKENS) + 1  # the control tokens and one word


class CorpusAlignmentError(ValueError):
    """Source and target files have different line counts."""


class CorpusEncodingError(ValueError):
    """A text input contains bytes that are not valid UTF-8."""


class EmptyTrainingSetError(ValueError):
    """No usable sentence pairs remain after filtering."""


class Vocabulary:
    """Bidirectional token<->id map with fixed control tokens at ids 0-3.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != CONTROL_TOKENS:
            raise ValueError(f"vocabulary must start with {CONTROL_TOKENS}")
        self.tokens: list[str] = list(tokens)
        self.index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.index:
                raise ValueError(f"duplicate token {tok!r} in vocabulary")
            self.index[tok] = i

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        tokens = read_lines(path)
        try:
            vocab = cls(tokens)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if len(vocab) < MIN_VOCAB_SIZE:  # a model over control tokens reads every word as <unk>
            raise ValueError(f"{path}: vocabulary has {len(vocab)} tokens, needs at least "
                             f"{MIN_VOCAB_SIZE}: the control tokens and one word")
        return vocab


@dataclass
class ParallelCorpus:
    """Sentence-aligned token-list pairs, already cleaned of empty lines."""

    pairs: list[tuple[list[str], list[str]]]
    dropped_empty: int = 0


@dataclass
class Batch:
    """Padded id matrices with 0/1 masks marking real-token positions."""

    src: np.ndarray        # [B, S] int64
    src_mask: np.ndarray   # [B, S] float64
    tgt: np.ndarray        # [B, T] int64
    tgt_mask: np.ndarray   # [B, T] float64


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, split at each \\n, \\r\\n or \\r as text mode splits
    them; invalid UTF-8 raises CorpusEncodingError naming the file and the line."""
    with open(path, "rb") as f:
        raw = f.read()
    lines = []
    for i, chunk in enumerate(raw.splitlines()):
        try:
            lines.append(chunk.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorpusEncodingError(f"{path}: invalid UTF-8 on line {i + 1}") from exc
    return lines


def load_parallel_corpus(src_path: str, tgt_path: str) -> ParallelCorpus:
    """Read two line-aligned text files into token-list pairs.

    Pairs where either side is empty after stripping are dropped and counted
    in ``dropped_empty``; a corpus of no other pair is rejected.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusAlignmentError(f"{src_path} has {len(src_lines)} lines, {tgt_path} has "
                                   f"{len(tgt_lines)} ({len(src_lines)} vs {len(tgt_lines)})")
    pairs = []
    dropped = 0
    for s, t in zip(src_lines, tgt_lines):
        s_toks = s.split()
        t_toks = t.split()
        if not s_toks or not t_toks:
            dropped += 1
            continue
        pairs.append((s_toks, t_toks))
    if dropped:
        logger.info("dropped %d empty pairs", dropped)
    if not pairs:
        raise EmptyTrainingSetError(f"{src_path}, {tgt_path}: no pair has words on both sides")
    return ParallelCorpus(pairs, dropped_empty=dropped)


def build_vocabulary(corpus_side: list[list[str]], max_size: int) -> Vocabulary:
    """Control tokens, then corpus tokens by descending frequency.

    Ties are broken by first occurrence order so builds are deterministic.
    """
    if max_size < MIN_VOCAB_SIZE:
        raise ValueError(f"max_size must be >= {MIN_VOCAB_SIZE}, got {max_size}")
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    pos = 0
    for sent in corpus_side:
        for tok in sent:
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = pos
            pos += 1
    # a corpus token colliding with a control literal cannot get its own id
    for ctl in CONTROL_TOKENS:
        counts.pop(ctl, None)
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocabulary(list(CONTROL_TOKENS) + ranked[: max_size - 4])


def encode_sentence(tokens: list[str], vocab: Vocabulary, append_eos: bool) -> list[int]:
    ids = [vocab.id_of(t) for t in tokens]
    if append_eos:
        ids.append(EOS_ID)
    return ids


def decode_ids(ids: list[int], words: list[str]) -> list[str]:
    """Map ids to ``words[id]``, stopping at EOS and skipping PAD/BOS."""
    out = []
    for i in ids:
        if i == EOS_ID:
            break
        if i in (PAD_ID, BOS_ID):
            continue
        out.append(words[i])
    return out


def make_batches(
    encoded_pairs: list[tuple[list[int], list[int]]],
    batch_size: int,
    max_len: int = 50,
    seed: int = 0,
) -> list[Batch]:
    """Shuffle deterministically, group, and pad encoded pairs into batches.

    Pairs where either encoded side exceeds ``max_len`` are dropped.  Every
    target sequence must already end with EOS.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    kept = [(s, t) for s, t in encoded_pairs if len(s) <= max_len and len(t) <= max_len]
    n_dropped = len(encoded_pairs) - len(kept)
    if n_dropped:
        logger.info("dropped %d over-length pairs (max_len=%d)", n_dropped, max_len)
    if not kept:
        raise EmptyTrainingSetError("all pairs dropped by the length filter: no pair has both "
                                    f"sides, EOS included, within max_len = {max_len}")
    for s, t in kept:
        if not t or t[-1] != EOS_ID:
            raise ValueError("every target sequence must end with EOS")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    batches = []
    for start in range(0, len(kept), batch_size):
        group = [kept[i] for i in order[start : start + batch_size]]
        batches.append(pad_batch(group))
    return batches


def pad_batch(group: list[tuple[list[int], list[int]]]) -> Batch:
    """Pad encoded (source, target) pairs, in order, into one batch."""
    b = len(group)
    s_len = max(len(s) for s, _ in group)
    t_len = max(len(t) for _, t in group)
    src = np.full((b, s_len), PAD_ID, dtype=np.int64)
    tgt = np.full((b, t_len), PAD_ID, dtype=np.int64)
    src_mask = np.zeros((b, s_len))
    tgt_mask = np.zeros((b, t_len))
    for i, (s, t) in enumerate(group):
        src[i, : len(s)] = s
        src_mask[i, : len(s)] = 1.0
        tgt[i, : len(t)] = t
        tgt_mask[i, : len(t)] = 1.0
    return Batch(src, src_mask, tgt, tgt_mask)
