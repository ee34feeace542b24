"""Corpus BLEU (clipped 1-4 gram precision, brevity penalty) and word recall."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

TokenList = list[str]


@dataclass(frozen=True)
class BleuReport:
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    bleu: float
    hyp_length: int
    ref_length: int
    degenerate: bool = False  # some n-gram order had zero hypothesis n-grams


def _check_aligned(hyps: list[TokenList], refs: list[TokenList]) -> None:
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")


def _ngram_counts(tokens: TokenList, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _precision_counts(hyps, refs, n_max):
    """Corpus-level (clipped matches, hypothesis n-grams) per order."""
    matched = [0] * n_max
    total = [0] * n_max
    for hyp, ref in zip(hyps, refs):
        for n in range(1, n_max + 1):
            h_counts = _ngram_counts(hyp, n)
            if not h_counts:
                continue
            r_counts = _ngram_counts(ref, n)
            total[n - 1] += sum(h_counts.values())
            matched[n - 1] += sum(min(c, r_counts[g]) for g, c in h_counts.items())
    return matched, total


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu(hyps: list[TokenList], refs: list[TokenList]) -> BleuReport:
    """Geometric-mean BLEU on a 0-100 scale; 0 if any order has no matches."""
    _check_aligned(hyps, refs)
    matched, total = _precision_counts(hyps, refs, 4)
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matched, total))
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    bp = brevity_penalty(hyp_len, ref_len)
    degenerate = any(t == 0 for t in total)
    if degenerate:
        warnings.warn(
            "hypotheses too short for 4-gram BLEU; score forced to 0", stacklevel=2
        )
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return BleuReport(precisions, bp, score, hyp_len, ref_len, degenerate)


def recalled_words(hyps: list[TokenList], refs: list[TokenList]) -> int:
    """Number of unique reference word types that appear in the hypotheses."""
    _check_aligned(hyps, refs)
    hyp_types = {t for h in hyps for t in h}
    ref_types = {t for r in refs for t in r}
    return len(hyp_types & ref_types)
