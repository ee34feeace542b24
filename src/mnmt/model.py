"""Attention-based GRU encoder-decoder with beam-search decoding.

The encoder is a bidirectional GRU over source embeddings; the decoder is a
unidirectional GRU whose input is the previous target embedding concatenated
with an attention context, read out through a pool-2 maxout layer.  Output
logits share weights with the target embedding matrix, so the readout width
equals the embedding width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, Batch
from .numerics import (
    ParamSet,
    Tensor,
    adam_step,
    add,
    backward,
    clip_gradients,
    concat,
    constant,
    cross_entropy_rows,
    gru_step,
    matmul,
    maxout,
    mul,
    no_grad,
    reshape,
    rows,
    scale,
    softmax,
    stack,
    sum_all,
    tanh,
    transpose,
)

INIT_SCALE = 0.08
GRAD_CLIP = 5.0


@dataclass
class NmtConfig:
    src_vocab_size: int = 30000
    tgt_vocab_size: int = 30000
    embed_dim: int = 500      # also the output/readout width (tied embedding)
    hidden_dim: int = 1000    # per encoder direction; decoder state width
    beam_size: int = 12
    max_decode_len: int = 0   # 0: use 2 * source length + 5
    lr: float = 0.0005
    batch_size: int = 80

    def __post_init__(self):
        for name in ("src_vocab_size", "tgt_vocab_size", "embed_dim", "hidden_dim",
                     "beam_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.max_decode_len < 0:
            raise ValueError("max_decode_len must be >= 0")

    @property
    def output_dim(self) -> int:
        return self.embed_dim


@dataclass
class EncodedSource:
    """Encoder output for a [B, S] batch plus what every decoder step reads.

    A one-sentence encoding (B = 1) serves any number of decoder rows.
    """

    states: Tensor        # [B, S, 2 * hidden_dim]; states[b, j] is h_j of sentence b
    uh: Tensor            # states @ att_U, [B, S, hidden_dim]
    mask: np.ndarray      # [B, S]
    s0: Tensor            # initial decoder state, [B, hidden_dim]

    @property
    def h(self) -> np.ndarray:
        """[S, 2 * hidden_dim] states of the first sentence; row j is h_j."""
        return self.states.data[0]


@dataclass
class Hypothesis:
    """A partial translation in beam search."""

    tokens: list[int]
    log_prob: float
    state: np.ndarray
    finished: bool = False

    def normalized_score(self) -> float:
        return self.log_prob / max(1, len(self.tokens))


def init_nmt_params(cfg: NmtConfig, seed: int) -> ParamSet:
    """Uniform [-0.08, 0.08] init; the attention score vector starts at zero."""
    rng = np.random.default_rng(seed)
    e, h = cfg.embed_dim, cfg.hidden_dim
    pset = ParamSet()

    def u(name: str, *shape: int) -> None:
        pset.add(name, rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))

    u("src_embed", cfg.src_vocab_size, e)
    for d in ("enc_f_", "enc_b_"):
        for gate in ("z", "r", "h"):
            u(f"{d}W{gate}", e, h)
            u(f"{d}U{gate}", h, h)
            u(f"{d}b{gate}", h)
    u("dec_init_W", h, h)
    u("att_W", h, h)
    u("att_U", 2 * h, h)
    pset.add("att_v", np.zeros(h))
    for gate in ("z", "r", "h"):
        u(f"dec_W{gate}", e + 2 * h, h)
        u(f"dec_U{gate}", h, h)
        u(f"dec_b{gate}", h)
    u("out_U", e, 2 * e)
    u("out_V", h, 2 * e)
    u("out_C", 2 * h, 2 * e)
    u("out_b", 2 * e)
    u("tgt_embed", cfg.tgt_vocab_size, e)
    return pset


def _mask_mix(mask_col: np.ndarray, new: Tensor, old: Tensor) -> Tensor:
    """Keep the previous state on padded positions."""
    m = mask_col[:, None]
    return add(mul(constant(m), new), mul(constant(1.0 - m), old))


def encode_batch(src: np.ndarray, src_mask: np.ndarray, params: ParamSet) -> EncodedSource:
    """Bidirectional encoding of a [B, S] id matrix.

    The decoder starts from tanh(b_0 @ dec_init_W), where b_0 is the
    backward-direction state at position 0.
    """
    b, s_len = src.shape
    hidden = params["enc_f_Uz"].data.shape[0]
    xs = [rows(params["src_embed"], src[:, t]) for t in range(s_len)]

    fwd: list[Tensor] = []
    h = constant(np.zeros((b, hidden)))
    for t in range(s_len):
        h = _mask_mix(src_mask[:, t], gru_step(xs[t], h, params, "enc_f_"), h)
        fwd.append(h)
    bwd: list[Tensor | None] = [None] * s_len
    h = constant(np.zeros((b, hidden)))
    for t in reversed(range(s_len)):
        h = _mask_mix(src_mask[:, t], gru_step(xs[t], h, params, "enc_b_"), h)
        bwd[t] = h
    states = concat([stack(fwd, 1), stack(bwd, 1)], axis=2)
    uh = matmul(states, params["att_U"])
    s0 = tanh(matmul(bwd[0], params["dec_init_W"]))
    return EncodedSource(states, uh, src_mask, s0)


def encode(src_ids: Sequence[int], params: ParamSet) -> EncodedSource:
    """Encode a single sentence (ids, usually ending with EOS), without gradients."""
    if len(src_ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    vocab_size = params["src_embed"].data.shape[0]
    ids = np.asarray(src_ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ValueError(f"source id outside vocabulary range [0, {vocab_size})")
    with no_grad():
        return encode_batch(ids[None, :], np.ones((1, len(ids))), params)


def decode_step(s_prev: Tensor, y_prev_ids: np.ndarray, enc: EncodedSource,
                params: ParamSet) -> tuple[Tensor, Tensor]:
    """One decoder step for every row: returns (next state, maxout readout z).

    A one-sentence ``enc`` serves every row of ``s_prev`` by broadcasting.
    Attention over the source is scored from s_{i-1}; the GRU reads the
    previous target embedding and the attention context.
    """
    n = s_prev.shape[0]
    sa = reshape(matmul(s_prev, params["att_W"]), (n, 1, -1))
    alpha = softmax(matmul(tanh(add(sa, enc.uh)), params["att_v"]), enc.mask)  # [n, S]
    c = reshape(matmul(reshape(alpha, (n, 1, -1)), enc.states), (n, -1))
    y_emb = rows(params["tgt_embed"], y_prev_ids)
    s_new = gru_step(concat([y_emb, c], axis=1), s_prev, params, "dec_")
    pre = add(
        add(add(matmul(y_emb, params["out_U"]), matmul(s_prev, params["out_V"])),
            matmul(c, params["out_C"])),
        params["out_b"],
    )
    return s_new, maxout(pre)


def teacher_forced_steps(enc: EncodedSource, tgt: np.ndarray,
                         params: ParamSet) -> Iterator[tuple[Tensor, Tensor]]:
    """Yield (s_{i-1}, z_i) for each target column i, feeding the reference."""
    s = enc.s0
    y_in = np.full(tgt.shape[0], BOS_ID, dtype=np.int64)
    for i in range(tgt.shape[1]):
        s_new, z = decode_step(s, y_in, enc, params)
        yield s, z
        s = s_new
        y_in = tgt[:, i]


def train_step(batch: Batch, params: ParamSet, lr: float,
               clip_norm: float = GRAD_CLIP) -> float:
    """One teacher-forced step: returns the pre-update mean token NLL."""
    loss = teacher_forced_loss(batch, params)
    backward(loss)
    grads = params.grads()
    params.zero_grads()
    clip_gradients(grads, clip_norm)
    adam_step(params, grads, lr)
    return float(loss.data)


def teacher_forced_loss(batch: Batch, params: ParamSet) -> Tensor:
    """Mask-weighted mean -log p(reference token) over a batch."""
    enc = encode_batch(batch.src, batch.src_mask, params)
    zs = [z for _, z in teacher_forced_steps(enc, batch.tgt, params)]
    z = reshape(stack(zs, 1), (batch.tgt.size, -1))  # [B * T, E], row-major over [B, T]
    logits = matmul(z, transpose(params["tgt_embed"]))
    ce = mul(cross_entropy_rows(logits, batch.tgt.reshape(-1)),
             constant(batch.tgt_mask.reshape(-1)))
    return scale(sum_all(ce), 1.0 / batch.tgt_mask.sum())


def train_model(batches: list[Batch], params: ParamSet, lr: float, steps: int) -> list[float]:
    """Cycle through the batch list for a fixed number of Adam steps."""
    return [train_step(batches[i % len(batches)], params, lr) for i in range(steps)]


PosteriorHook = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
"""hook(S_prev [n, H], y_prev [n], P [n, V]) -> [n, V'] with V' >= V, row by row."""


def beam_search(
    src_ids: Sequence[int],
    params: ParamSet,
    beam: int = 1,
    max_len: int | None = None,
    memory_hook: PosteriorHook | None = None,
    *,
    enc: EncodedSource | None = None,
) -> Hypothesis:
    """Length-normalized beam search; beam=1 is greedy decoding.

    The live hypotheses advance together: each step is one `decode_step`
    over their stacked states and one softmax into a [n_live, V] posterior.
    ``memory_hook(S_prev, y_prev, P)`` may transform those rows, possibly
    extending them beyond the vocabulary; ``memory_hook.embed_proxy`` (when
    present) maps extended token ids to in-vocabulary ids whose embeddings
    feed the next decoder step.  Each row offers its ``beam`` most probable
    tokens, ties toward lower ids; the pool is ranked by (-log_prob, tokens).
    ``enc`` is the sentence's encoding when the caller already has it;
    otherwise ``src_ids`` is encoded here.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if enc is None:
        enc = encode(src_ids, params)
    elif enc.mask.shape != (1, len(src_ids)):
        raise ValueError(f"encoding mask has shape {enc.mask.shape}, "
                         f"expected (1, {len(src_ids)}) for the source ids")
    if max_len is None or max_len <= 0:
        max_len = 2 * len(src_ids) + 5
    proxy = getattr(memory_hook, "embed_proxy", None)

    tokens = np.zeros((1, 0), dtype=np.int64)  # [n_live, step]
    log_probs = np.zeros(1)
    states = enc.s0.data
    finished: list[Hypothesis] = []
    with no_grad():
        e_t_T = transpose(params["tgt_embed"])
        while len(tokens) and len(finished) < beam:
            n, length = tokens.shape
            y_prev = tokens[:, -1] if length else np.full(n, BOS_ID, dtype=np.int64)
            emb_ids = y_prev if proxy is None else np.array([proxy(int(y)) for y in y_prev])
            s_new, z = decode_step(constant(states), emb_ids, enc, params)
            p = softmax(matmul(z, e_t_T)).data
            if memory_hook is not None:
                p = memory_hook(states, y_prev, p)
            with np.errstate(divide="ignore"):
                lp = np.log(p)
            top = np.argsort(-lp, axis=1, kind="stable")[:, :beam]  # ties toward lower ids
            row, tid = np.repeat(np.arange(n), top.shape[1]), top.ravel()
            keep = p[row, tid] > 0.0
            row, tid = row[keep], tid[keep]
            cand_lp = log_probs[row] + lp[row, tid]
            # the pool order (-log_prob, tokens): all prefixes have one length,
            # so tokens compare as (rank of the prefix, new token)
            prefix_rank = np.zeros(n, dtype=np.int64)
            if length:
                prefix_rank[np.lexsort(tokens.T[::-1])] = np.arange(n)
            order = np.lexsort((tid, prefix_rank[row], -cand_lp))
            done = (tid[order] == EOS_ID) | (length + 1 >= max_len)
            for i in order[done]:
                finished.append(Hypothesis(tokens[row[i]].tolist() + [int(tid[i])],
                                           float(cand_lp[i]), s_new.data[row[i]], True))
            live = order[~done][:beam]
            tokens = np.concatenate([tokens[row[live]], tid[live, None]], axis=1)
            log_probs = cand_lp[live]
            states = s_new.data[row[live]]
    if not finished:
        raise ValueError("beam search found no hypothesis with positive probability")
    return max(finished, key=lambda h: (h.normalized_score(), [-t for t in h.tokens]))
