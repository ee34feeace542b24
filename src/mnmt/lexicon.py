"""Word-mapping table with bidirectional translation probabilities.

This is the global memory: for every retained word pair it stores both
p(target|source) and p(source|target).  The table is either estimated from a
parallel corpus with IBM Model 1 EM (run once in each direction, no NULL
word) or loaded from a 4-column TSV file.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field

from .corpus import ParallelCorpus, read_lines

logger = logging.getLogger(__name__)


class LexiconFormatError(ValueError):
    """A lexicon TSV row could not be parsed."""


class EmptyCorpusError(ValueError):
    """EM training was asked to run on an empty corpus, or on a pair with an empty side."""


@dataclass
class Lexicon:
    """Immutable after construction; concurrent lookups are safe."""

    # (source, target) -> (p_t_given_s, p_s_given_t)
    entries: dict[tuple[str, str], tuple[float, float]]
    # source -> [(target, p_t_given_s)] sorted by descending probability,
    # ties broken lexicographically by target token
    by_source: dict[str, list[tuple[str, float]]] = field(init=False)
    # per-direction EM log-likelihood trajectory (empty for loaded lexica)
    log_likelihood: dict[str, list[float]] = field(default_factory=dict)
    duplicates: int = 0

    def __post_init__(self):
        self.by_source = _index_by_source(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _index_by_source(entries) -> dict[str, list[tuple[str, float]]]:
    by_source: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for (s, t), (p_ts, _) in entries.items():
        by_source[s].append((t, p_ts))
    for s in by_source:
        by_source[s].sort(key=lambda item: (-item[1], item[0]))
    return dict(by_source)


def _em_direction(pairs: list[tuple[list[str], list[str]]], iterations: int):
    """Estimate p(tgt_word | src_word) by EM; returns (table, per-iter LL).

    The translation table is initialized uniformly over co-occurring words.
    Log-likelihood uses the sentence model prod_j (1/l_src) sum_i t(t_j|s_i)
    and is evaluated with the parameters in force at the start of each
    iteration.
    """
    table: dict[str, dict[str, float]] = {}
    for src, tgt in pairs:
        for s in src:
            bucket = table.setdefault(s, {})
            for t in tgt:
                bucket[t] = 0.0
    for s, bucket in table.items():
        p0 = 1.0 / len(bucket)
        for t in bucket:
            bucket[t] = p0

    lls = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: defaultdict(float) for s in table}
        totals: dict[str, float] = defaultdict(float)
        ll = 0.0
        for src, tgt in pairs:
            for t in tgt:
                denom = sum(table[s][t] for s in src)
                ll += math.log(denom / len(src))
                for s in src:
                    frac = table[s][t] / denom
                    counts[s][t] += frac
                    totals[s] += frac
        lls.append(ll)
        for s, bucket in counts.items():
            norm = totals[s]
            for t, c in bucket.items():
                table[s][t] = c / norm
    return table, lls


def check_ibm1_settings(iterations: int, prob_floor: float) -> None:
    """Reject what `train_ibm1` cannot use; a floor above 1 keeps no pair, a NaN one all."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= prob_floor <= 1.0:
        raise ValueError(f"prob_floor must be in [0, 1], got {prob_floor}")


def train_ibm1(corpus: ParallelCorpus, iterations: int = 10, prob_floor: float = 0.01) -> Lexicon:
    """Run EM in both directions and keep pairs clearing the probability floor.

    An entry survives when at least one of its two conditional probabilities
    reaches ``prob_floor``.
    """
    check_ibm1_settings(iterations, prob_floor)
    pairs = corpus.pairs
    if not pairs:
        raise EmptyCorpusError("cannot train an aligner on an empty corpus")
    empty = next((i for i, (src, tgt) in enumerate(pairs) if not src or not tgt), None)
    if empty is not None:
        raise EmptyCorpusError(f"pair {empty} has an empty side; IBM-1 needs words on both")
    t_given_s, ll_ts = _em_direction(pairs, iterations)
    swapped = [(t, s) for s, t in pairs]
    s_given_t, ll_st = _em_direction(swapped, iterations)

    entries = {}
    for s, bucket in t_given_s.items():
        for t, p_ts in bucket.items():
            p_st = s_given_t[t][s]
            if p_ts < prob_floor and p_st < prob_floor:
                continue
            entries[(s, t)] = (p_ts, p_st)
    logger.info("IBM1: %d entries retained (floor %.3g)", len(entries), prob_floor)
    return Lexicon(entries, log_likelihood={"t_given_s": ll_ts, "s_given_t": ll_st})


def lexicon_lookup(lex: Lexicon, source: str, k: int) -> list[tuple[str, float]]:
    """Top-k translations of ``source`` by p(target|source); [] when unknown."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return lex.by_source.get(source, [])[:k]


def save_lexicon(lex: Lexicon, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for (s, t), (p_ts, p_st) in sorted(lex.entries.items()):
            f.write(f"{s}\t{t}\t{p_ts:.6f}\t{p_st:.6f}\n")


def load_lexicon(path: str) -> Lexicon:
    """Parse a 4-column TSV lexicon; duplicate (source, target) rows last-win."""
    entries: dict[tuple[str, str], tuple[float, float]] = {}
    duplicates = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise LexiconFormatError(
                f"{path}: line {lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        s, t, raw_ts, raw_st = fields
        try:
            p_ts = float(raw_ts)
            p_st = float(raw_st)
        except ValueError as exc:
            raise LexiconFormatError(
                f"{path}: line {lineno}: non-numeric probability"
            ) from exc
        if not (0.0 <= p_ts <= 1.0 and 0.0 <= p_st <= 1.0):
            raise LexiconFormatError(
                f"{path}: line {lineno}: probability outside [0, 1]"
            )
        if (s, t) in entries:
            duplicates += 1
        entries[(s, t)] = (p_ts, p_st)
    if duplicates:
        logger.warning("%s: %d duplicate rows (last occurrence wins)", path, duplicates)
    return Lexicon(entries, duplicates=duplicates)
