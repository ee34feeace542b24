"""Lexicon-derived translation memory and its attention network.

Per sentence, one grouping pass, `sentence_memory`, anchors each source
word's lexicon candidates at its encoder state and fills a `MergedMemory`
of arrays: one entry per target word, whose hidden vector blends the
contributing source states, weighted by the reverse translation
probabilities.  A small tanh scoring net, `score_entries`, attends over the
entries on plain arrays; decoding calls it directly, and training through
`chunk_loss`, whose closure writes the net's gradients.  It is trained
against a frozen translation model, and its attention is interpolated into
the decoder posterior.  Training builds its memories with `sentence_memory`
and takes its decoder states from a forward-only `decode_sequence`.

Out-of-vocabulary words are handled by borrowing: source-side OOVs are
replaced by an in-vocabulary similar word before encoding, and at such a
position the memory holds the original word's translations, not the
substitute's.  A translation outside the target vocabulary gets an output
label of its own, backed by a similar in-vocabulary target embedding, so
decoding can emit words the softmax has never seen.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import BOS_ID, Vocabulary, encode_sentence, pad_batch, read_lines
from .lexicon import Lexicon, lexicon_lookup
from .model import NmtConfig, decode_sequence, encode_batch, uniform_params
# not called here: bench/layers.py wraps memory.encode by name and needs it to exist
from .model import encode  # noqa: F401
from .numerics import (
    Loss,
    ParamSet,
    adam_step,
    backward,
    check_finite,
    clip_gradients,
    cross_entropy,
    cross_entropy_backward,
    masked_softmax,
    no_grad,
    scatter_plan,
)

logger = logging.getLogger(__name__)

DEFAULT_BETA = 1.0 / 3.0  # the paper's weight of the memory in the interpolated posterior
DEFAULT_MEMORY_K = 3      # lexicon candidates entered per source word
DEFAULT_MEMORY_LR = 0.01  # Adam step size of memory training


class EmptyLexiconError(ValueError):
    """Memory training needs a non-empty lexicon."""


@dataclass
class MergedMemory:
    """A sentence's merged memory as arrays: K entries, R the size of the largest group."""

    labels: np.ndarray      # [K] int64 output label id: a vocab id, or an extended OOV label id
    h: np.ndarray           # [K, 2H] blended source states
    pos: np.ndarray         # [K, R] int64 contributing source positions, padded with -1
    weight: np.ndarray      # [K, R] their raw p(s|t), padded with 0
    # extended label id -> (verbatim label string, in-vocab embedding id)
    oov_labels: dict[int, tuple[str, int]] = field(default_factory=dict)
    injection_skipped: list[tuple[int, str, str]] = field(default_factory=list)

    @classmethod
    def from_groups(cls, groups: dict[int, list[tuple[int, float]]], h: np.ndarray,
                    oov_labels: dict[int, tuple[str, int]] | None = None,
                    injection_skipped: list[tuple[int, str, str]] | None = None
                    ) -> "MergedMemory":
        """One entry per label of ``groups`` (label -> [(source position, p(s|t))]),
        in its order, blending the rows of the [S, 2H] ``h`` at its positions.

        Each group's weights are renormalised by their total, summed in group
        order, or made uniform when that total is 0; the blend accumulates
        from zeros rank by rank, and a padded slot adds w * h = ±0.
        """
        k, r = len(groups), max(map(len, groups.values()), default=0)
        pos, weight, norm = [], [], []  # row-major [k, r], filled group by group
        for group in groups.values():
            n, total = len(group), sum(w for _, w in group)
            pos += [p for p, _ in group] + [-1] * (r - n)
            weight += [w for _, w in group] + [0.0] * (r - n)
            norm += [w / total if total > 0.0 else 1.0 / n for _, w in group] + [0.0] * (r - n)
        pos = np.array(pos, dtype=np.int64).reshape(k, r)
        weight, norm = (np.array(x, dtype=np.float64).reshape(k, r) for x in (weight, norm))
        blend = np.zeros((k, h.shape[1]))
        for rank in range(r):
            blend += norm[:, rank, None] * h[pos[:, rank]]
        return cls(np.fromiter(groups, dtype=np.int64, count=k), blend, pos, weight,
                   oov_labels or {}, injection_skipped or [])

    @property
    def size(self) -> int:
        return len(self.labels)

    def proxy_ids(self, vocab_size: int) -> np.ndarray:
        """The embedding row of every label id: the vocabulary, then the OOV labels' stand-ins."""
        ids = np.arange(vocab_size + len(self.oov_labels))
        for label, (_, stand_in) in self.oov_labels.items():
            ids[label] = stand_in
        return ids

    def words(self, vocab: Vocabulary) -> list[str]:
        """The word of every label id: the vocabulary's tokens, then the OOV labels' strings."""
        words = vocab.tokens + [""] * len(self.oov_labels)
        for label, (word, _) in self.oov_labels.items():
            words[label] = word
        return words

    def label_ids(self, vocab_size: int) -> np.ndarray:
        """Each entry's output label id: unique, and inside the vocabulary or its OOV extension."""
        if len(np.unique(self.labels)) != len(self.labels):
            raise ValueError("merged memory labels must be unique")
        if len(self.labels) and self.labels.max() >= vocab_size + len(self.oov_labels):
            raise ValueError("memory label id beyond the extended distribution")
        return self.labels


@dataclass
class SimilarWordMap:
    """OOV token -> ordered in-vocabulary stand-ins, per language side."""

    source: dict[str, list[str]] = field(default_factory=dict)
    target: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, src_path: str | None = None, tgt_path: str | None = None) -> "SimilarWordMap":
        return cls(
            source=_load_side(src_path) if src_path else {},
            target=_load_side(tgt_path) if tgt_path else {},
        )


def _load_side(path: str) -> dict[str, list[str]]:
    """word<TAB>stand-in<TAB>... lines; a line without a word or a stand-in is dropped."""
    side: dict[str, list[str]] = {}
    dropped = 0
    for line in read_lines(path):
        word, *cands = line.split("\t")
        stand_ins = list(dict.fromkeys(c for c in cands if c))
        if not word or not stand_ins:
            dropped += 1
            continue
        side[word] = stand_ins
    if dropped:
        logger.warning("%s: dropped %d lines without a word and a stand-in", path, dropped)
    if not side:
        raise ValueError(f"{path}: no 'word<TAB>stand-in' line; the similar-word map is empty")
    return side


@dataclass
class OovRecord:
    """What apply_oov_substitution did to one sentence."""

    substitutions: list[tuple[int, str, str]] = field(default_factory=list)  # (pos, original, substitute)
    unresolved: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class MemoryParams:
    """The memory attention net's parameters plus the interpolation factor."""

    pset: ParamSet
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def memory_shapes(e: int, h: int) -> dict[str, tuple[int, ...]]:
    """Each memory-net parameter's shape for a translation model of widths E and H,
    in the order init_memory_params draws them; the attention width is H."""
    return {"mem_Ws": (h, h), "mem_Wu": (e + 2 * h, h), "mem_Wy": (e, h), "mem_v": (h,)}


def init_memory_params(cfg: NmtConfig, seed: int, beta: float = DEFAULT_BETA) -> MemoryParams:
    """Uniform init; the score vector starts at zero."""
    shapes = memory_shapes(cfg.embed_dim, cfg.hidden_dim)
    return MemoryParams(uniform_params(shapes, seed, zero="mem_v"), beta)


# --- attention and interpolation ------------------------------------------


def entry_matrix(mem: MergedMemory, tgt_embed: np.ndarray) -> np.ndarray:
    """Stack u_k = [target embedding; blended source state] as a [K, E+2H] matrix."""
    proxy = mem.proxy_ids(len(tgt_embed))[mem.labels]
    return np.concatenate([tgt_embed[proxy], mem.h], axis=1)


def score_entries(s_prev: np.ndarray, y_emb: np.ndarray, uw: np.ndarray,
                  pset: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """[n, K] relevance of each of K memory elements to each of n rows, on
    plain arrays: tanh(u @ mem_Wu + s @ mem_Ws + y @ mem_Wy) @ mem_v.

    ``uw`` holds the entries' u @ mem_Wu, [K, A] shared by every row or
    [n, K, A] per row; it does not change from step to step, so decoding
    computes it once per memory.  Returns the scores and the tanh
    activations [n, K, A].
    """
    sy = s_prev @ pset["mem_Ws"].data + y_emb @ pset["mem_Wy"].data
    pre = check_finite(uw + sy[:, None, :])  # holds every element of uw and of sy: K >= 1
    act = np.tanh(pre, out=pre)
    return check_finite(np.matmul(act, pset["mem_v"].data)), act


class MemoryHook:
    """Row-wise posterior transformer plugged into beam search.

    Each entry's u @ mem_Wu, the label ids and the proxy ids are computed
    once, here, over a non-empty memory whose ``beta`` `MemoryParams` has
    checked; a call scores every row against them and interpolates.
    """

    def __init__(self, mem: MergedMemory, mparams: MemoryParams, nmt_params: ParamSet):
        if not mem.size:
            raise ValueError("memory hook over an empty memory; skip interpolation instead")
        self.mem = mem
        self.mparams = mparams
        self.tgt_embed = nmt_params["tgt_embed"].data
        self.labels = mem.label_ids(self.tgt_embed.shape[0])
        self.uw = entry_matrix(mem, self.tgt_embed) @ mparams.pset["mem_Wu"].data
        self.proxy_ids = mem.proxy_ids(self.tgt_embed.shape[0])  # read by beam_search too

    def __call__(self, s_prev: np.ndarray, y_prev: np.ndarray, p_nmt: np.ndarray) -> np.ndarray:
        """beta * memory attention + (1 - beta) * ``p_nmt``, row by row; the OOV
        labels widen the rows past the vocabulary and take memory mass only."""
        y_emb = self.tgt_embed[self.proxy_ids[y_prev]]
        alpha = masked_softmax(score_entries(s_prev, y_emb, self.uw, self.mparams.pset)[0])
        n, vocab = p_nmt.shape
        out = np.zeros((n, vocab + len(self.mem.oov_labels)))
        out[:, :vocab] = (1.0 - self.mparams.beta) * p_nmt
        out[:, self.labels] += self.mparams.beta * alpha
        return out


def make_memory_hook(
    mem: MergedMemory, mparams: MemoryParams, nmt_params: ParamSet
) -> MemoryHook | None:
    """None when the memory is empty (interpolation must then be skipped)."""
    if not mem.size:
        return None
    return MemoryHook(mem, mparams, nmt_params)


# --- OOV treatment ---------------------------------------------------------


def apply_oov_substitution(
    tokens: list[str], vocab: Vocabulary, sim: SimilarWordMap
) -> tuple[list[str], OovRecord]:
    """Replace source OOVs with similar in-vocabulary words before encoding.

    A candidate already present in the sentence is skipped to avoid
    confusing the encoder; OOVs with no usable candidate stay (and encode to
    UNK), recorded as unresolved.
    """
    record = OovRecord()
    out = list(tokens)
    present = set(tokens)
    for pos, tok in enumerate(tokens):
        if tok in vocab:
            continue
        chosen = None
        for cand in sim.source.get(tok, []):
            if cand in vocab and cand not in present:
                chosen = cand
                break
        if chosen is None:
            record.unresolved.append((pos, tok))
            continue
        out[pos] = chosen
        present.add(chosen)
        record.substitutions.append((pos, tok, chosen))
    return out, record


def sentence_memory(
    tokens: list[str],
    h: np.ndarray,
    lex: Lexicon,
    tgt_vocab: Vocabulary,
    k: int,
    record: OovRecord | None = None,
    sim: SimilarWordMap | None = None,
) -> MergedMemory:
    """The merged memory over a sentence's [S, 2H] states ``h``, in one grouping pass.

    Each position's top-k in-vocabulary candidates are grouped by label, in
    order of first appearance.  At each position of ``record``'s
    substitutions (given ``sim``) the original OOV word's lexicon candidates
    are entered instead of the substitute's, after every other position's.
    An in-vocabulary candidate is a plain entry; an OOV candidate gets an
    extended output label, allocated in substitution order, whose embedding
    is borrowed from a similar in-vocabulary target word; `MergedMemory.words`
    gives decoding its word.  An original word without candidates is
    recorded as skipped with target "", and an OOV candidate without a
    stand-in with its target.
    """
    subs = record.substitutions if record is not None and sim is not None else []
    substituted = {pos for pos, _, _ in subs}
    lookups = [(pos, tok, False) for pos, tok in enumerate(tokens) if pos not in substituted]
    lookups += [(pos, orig, True) for pos, orig, _ in subs]
    groups: dict[int, list[tuple[int, float]]] = {}  # label -> [(source position, p(s|t))]
    oov_labels: dict[int, tuple[str, int]] = {}
    ext_by_label: dict[str, int] = {}
    skipped: list[tuple[int, str, str]] = []
    for pos, word, borrow in lookups:
        candidates = lexicon_lookup(lex, word, k)
        if borrow and not candidates:
            skipped.append((pos, word, ""))
        for tgt_tok, _ in candidates:
            if tgt_tok in tgt_vocab:
                label_id = tgt_vocab.id_of(tgt_tok)
            elif not borrow:
                continue
            elif tgt_tok in ext_by_label:
                label_id = ext_by_label[tgt_tok]
            else:
                stand_ins = [c for c in sim.target.get(tgt_tok, []) if c in tgt_vocab]
                if not stand_ins:
                    skipped.append((pos, word, tgt_tok))
                    continue
                label_id = ext_by_label[tgt_tok] = len(tgt_vocab) + len(oov_labels)
                oov_labels[label_id] = (tgt_tok, tgt_vocab.id_of(stand_ins[0]))
            groups.setdefault(label_id, []).append((pos, lex.entries[(word, tgt_tok)][1]))
    if skipped:
        logger.warning("OOV injection skipped %d entries", len(skipped))
    return MergedMemory.from_groups(groups, h, oov_labels, skipped)


# --- staged training --------------------------------------------------------


@dataclass
class TrainingRecord:
    """Frozen-model quantities of one sentence pair's trainable positions."""

    u: np.ndarray           # [K, E + 2H] entry matrix of the merged memory
    s_prev: np.ndarray      # [n, H] decoder state s_{i-1} at each position
    y_emb: np.ndarray       # [n, E] embedding of the previous reference word
    target: np.ndarray      # [n] index of the reference word's entry


@dataclass
class TrainingChunk:
    """Records padded to one [N, K_max] score table (N positions), its scatter plan and weights."""

    u: np.ndarray           # [sum of K, E + 2H] every record's entry rows, stacked
    s_prev: np.ndarray      # [N, H]
    y_emb: np.ndarray       # [N, E]
    slot_entry: np.ndarray  # [N, K_max] row of ``u`` scored in each slot
    pad_bias: np.ndarray    # [N, K_max] 0 on a record's own entries, -1e30 past them
    target: np.ndarray      # [N]
    n_positions: int = field(init=False)     # N
    scatter: Callable = field(init=False)   # `scatter_plan` of ``slot_entry`` into ``u``'s rows
    weights: np.ndarray = field(init=False)  # [N] ones, the loss's weight per position

    def __post_init__(self):  # what no parameter changes, built once per chunk
        self.n_positions = len(self.target)
        self.scatter = scatter_plan(self.slot_entry, len(self.u))
        self.weights = np.ones(self.n_positions)


def training_chunk(records: list[TrainingRecord]) -> TrainingChunk:
    """Stack records into one chunk; a pad slot repeats its record's first entry."""
    k_max = max(len(r.u) for r in records)
    offsets = np.cumsum([0] + [len(r.u) for r in records[:-1]])
    slots = np.arange(k_max)
    slot_entry, pad_bias = [], []
    for rec, off in zip(records, offsets):
        real = slots < len(rec.u)
        slot_entry.append(np.tile(np.where(real, off + slots, off), (len(rec.target), 1)))
        pad_bias.append(np.tile(np.where(real, 0.0, -1e30), (len(rec.target), 1)))
    return TrainingChunk(
        u=np.concatenate([r.u for r in records]),
        s_prev=np.concatenate([r.s_prev for r in records]),
        y_emb=np.concatenate([r.y_emb for r in records]),
        slot_entry=np.concatenate(slot_entry),
        pad_bias=np.concatenate(pad_bias),
        target=np.concatenate([r.target for r in records]),
    )


def chunk_loss(chunk: TrainingChunk, pset: ParamSet) -> Loss:
    """Mean over the chunk's positions of -log(attention at the reference entry).

    Each entry's u @ mem_Wu is computed once and gathered into the slots, a
    [N, K_max, A] table that `score_entries` scores as decoding does; pad
    slots carry ``pad_bias``.  The loss's closure writes the gradients of
    the four scorer parameters.
    """
    uw = chunk.u @ pset["mem_Wu"].data  # every row fills a real slot, which the scorer checks
    scores, act = score_entries(chunk.s_prev, chunk.y_emb, uw[chunk.slot_entry], pset)
    scores += chunk.pad_bias
    value, ce_cache = cross_entropy(scores, chunk.target, chunk.weights)

    def write_grads():
        g = cross_entropy_backward(ce_cache)  # d scores, [N, K_max]
        d_v = act.reshape(-1, act.shape[-1]).T @ g.reshape(-1)  # before act's buffer is reused
        d_pre = np.subtract(1.0, np.multiply(act, act, out=act), out=act)  # 1 - act²
        d_pre *= np.multiply.outer(g, pset["mem_v"].data)
        d_sy = d_pre.sum(axis=1)
        pset.write_grads({
            "mem_Ws": chunk.s_prev.T @ d_sy,
            "mem_Wu": chunk.u.T @ chunk.scatter(d_pre),
            "mem_Wy": chunk.y_emb.T @ d_sy,
            "mem_v": d_v,
        })

    return Loss(value, write_grads)


def _training_records(
    pairs: list[tuple[list[str], list[str]]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    nmt_params: ParamSet,
    lex: Lexicon,
    k: int,
    batch_pairs: int,
) -> list[TrainingRecord]:
    """One frozen encoding per batch of pairs, teacher-forced by `decode_sequence`
    up to its last memory position; each memory is the one decoding builds."""
    tgt_embed = nmt_params["tgt_embed"].data
    records: list[TrainingRecord] = []
    for start in range(0, len(pairs), batch_pairs):
        group = pairs[start : start + batch_pairs]
        ids = [(encode_sentence(s, src_vocab, append_eos=True),
                encode_sentence(t, tgt_vocab, append_eos=True)) for s, t in group]
        batch = pad_batch(ids)
        enc = encode_batch(batch.src, batch.src_mask, nmt_params)
        hits = []  # (row, merged memory, target columns, entry per column)
        for row, ((src_tokens, _), (_, tgt_ids)) in enumerate(zip(group, ids)):
            mem = sentence_memory(src_tokens, enc.states[row], lex, tgt_vocab, k)
            entry_of_label = {label: i for i, label in enumerate(mem.labels.tolist())}
            cols = [i for i, tid in enumerate(tgt_ids) if tid in entry_of_label]
            if cols:
                hits.append((row, mem, cols, [entry_of_label[tgt_ids[i]] for i in cols]))
        if not hits:
            continue
        last = max(hit_cols[-1] for _, _, hit_cols, _ in hits)
        y_prev = np.concatenate([np.full((len(group), 1), BOS_ID), batch.tgt[:, :last]], axis=1)
        with no_grad():  # keeps no attention records for a backward
            _, s_prev, _ = decode_sequence(enc, y_prev, nmt_params)  # s_{i-1} of columns 0..last
        for row, mem, cols, entries in hits:
            records.append(TrainingRecord(
                u=entry_matrix(mem, tgt_embed),
                s_prev=s_prev[cols, row],
                y_emb=tgt_embed[y_prev[row, cols]],
                target=np.array(entries),
            ))
    return records


def train_memory_attention(
    pairs: list[tuple[list[str], list[str]]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    nmt_params: ParamSet,
    mparams: MemoryParams,
    lex: Lexicon,
    epochs: int,
    lr: float = DEFAULT_MEMORY_LR,
    k: int = DEFAULT_MEMORY_K,
    batch_pairs: int = 16,
) -> list[float]:
    """Train the memory attention net against the frozen translation model.

    For every target position whose reference word is present in the merged
    memory, the net pays -log(attention at that entry); positions absent
    from the memory are skipped.  Only the memory parameters move; the
    translation model is read, never written.  Pairs are encoded
    ``batch_pairs`` at a time, and each Adam step covers ``batch_pairs``
    pairs that have trainable positions.  Returns the per-epoch mean loss
    over trainable positions.
    """
    if not lex.entries:
        raise EmptyLexiconError("cannot train memory attention with an empty lexicon")
    records = _training_records(pairs, src_vocab, tgt_vocab, nmt_params, lex, k, batch_pairs)
    n_positions = sum(len(r.target) for r in records)
    if n_positions == 0:
        warnings.warn("no target word ever appears in its sentence memory; nothing to train")
        return []
    logger.info("memory training: %d sentences, %d positions", len(records), n_positions)
    n_tokens = sum(len(t) + 1 for _, t in pairs)
    logger.info("memory coverage: %d of %d target tokens (with EOS) are in their memory, %.3f",
                n_positions, n_tokens, n_positions / n_tokens)

    chunks = [training_chunk(records[i : i + batch_pairs])
              for i in range(0, len(records), batch_pairs)]
    epoch_losses = []
    for epoch in range(epochs):
        total_nll = 0.0
        for chunk in chunks:
            loss = chunk_loss(chunk, mparams.pset)
            backward(loss)
            clip_gradients(mparams.pset)
            adam_step(mparams.pset, lr)
            mparams.pset.zero_grads()
            total_nll += float(loss.data) * chunk.n_positions
        epoch_losses.append(total_nll / n_positions)
        logger.info("memory epoch %d/%d: loss %.6f", epoch + 1, epochs, epoch_losses[-1])
    return epoch_losses
