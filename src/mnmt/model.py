"""Attention-based GRU encoder-decoder with beam-search decoding.

The encoder is a bidirectional GRU over source embeddings; the decoder is a
unidirectional GRU whose input is the previous target embedding concatenated
with an attention context, read out through a pool-2 maxout layer.  Output
logits share weights with the target embedding matrix, so the readout width
equals the embedding width.

The encoder, the decoder and the readout are plain-array forward/backward
pairs; `teacher_forced_loss` chains them into one loss, whose closure runs
their backwards and writes every parameter's gradient.

A source mask (1 real, 0 padding) is checked once, when `EncodedSource` is
built, and carried as the attention bias that every decoder step adds to
its scores: 0 at a real position, -inf at padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, MIN_VOCAB_SIZE, Batch
from .numerics import (
    GradientError,
    Loss,
    MaskedSoftmaxError,
    NonFiniteError,
    ParamSet,
    adam_step,
    backward,
    check_finite,
    clip_gradients,
    cross_entropy,
    cross_entropy_backward,
    grad_enabled,
    gru_cell,
    gru_cell_backward,
    gru_sequence,
    gru_sequence_backward,
    masked_softmax,
    maxout,
    maxout_backward,
    row_sums,
)

INIT_SCALE = 0.08


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
        for name, low in (("src_vocab_size", MIN_VOCAB_SIZE), ("tgt_vocab_size", MIN_VOCAB_SIZE),
                          ("embed_dim", 1), ("hidden_dim", 1), ("beam_size", 1), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.max_decode_len < 0:
            raise ValueError("max_decode_len must be >= 0")


@dataclass
class EncodedSource:
    """Encoder output for a [B, S] batch plus what every decoder step reads,
    all plain arrays.

    A one-sentence encoding (B = 1) serves any number of decoder rows.
    """

    states: np.ndarray    # [B, S, 2 * hidden_dim]; states[b, j] is h_j of sentence b
    uh: np.ndarray        # states @ att_U, [B, S, hidden_dim]
    mask: np.ndarray      # [B, S]
    s0: np.ndarray        # initial decoder state, [B, hidden_dim]
    bias: np.ndarray = field(init=False)  # [B, S] 0 at a real position, -inf at padding

    def __post_init__(self):
        if not (self.mask.sum(axis=-1) > 0).all():
            raise MaskedSoftmaxError("source mask with a row of no real position")
        self.bias = np.where(self.mask > 0, 0.0, -np.inf)

    @property
    def h(self) -> np.ndarray:
        """[S, 2 * hidden_dim] states of the first sentence; row j is h_j."""
        return self.states[0]


@dataclass
class Hypothesis:
    """A partial translation in beam search."""

    tokens: list[int]
    log_prob: float

    def normalized_score(self) -> float:
        return self.log_prob / max(1, len(self.tokens))


def init_nmt_params(cfg: NmtConfig, seed: int) -> ParamSet:
    """Uniform [-0.08, 0.08] init; the attention score vector starts at zero."""
    rng = np.random.default_rng(seed)
    e, h = cfg.embed_dim, cfg.hidden_dim
    arrays: dict[str, np.ndarray] = {}

    def u(name: str, *shape: int) -> None:
        arrays[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

    u("src_embed", cfg.src_vocab_size, e)
    for d in ("enc_f_", "enc_b_"):
        for gate in ("z", "r", "h"):
            u(f"{d}W{gate}", e, h)
            u(f"{d}U{gate}", h, h)
            u(f"{d}b{gate}", h)
    u("dec_init_W", h, h)
    u("att_W", h, h)
    u("att_U", 2 * h, h)
    arrays["att_v"] = np.zeros(h)
    for gate in ("z", "r", "h"):
        u(f"dec_W{gate}", e + 2 * h, h)
        u(f"dec_U{gate}", h, h)
        u(f"dec_b{gate}", h)
    u("out_U", e, 2 * e)
    u("out_V", h, 2 * e)
    u("out_C", 2 * h, 2 * e)
    u("out_b", 2 * e)
    u("tgt_embed", cfg.tgt_vocab_size, e)
    return ParamSet(arrays)


def encode_forward(src: np.ndarray, src_mask: np.ndarray, params: ParamSet):
    """Bidirectional encoding of a [B, S] id matrix on plain arrays: (EncodedSource, cache).

    The decoder starts from tanh(b_0 @ dec_init_W), where b_0 is the
    backward-direction state at position 0.
    """
    x = params["src_embed"].data[src]  # [B, S, E]
    fwd, fwd_cache = gru_sequence(x, src_mask, params, "enc_f_", False)
    bwd, bwd_cache = gru_sequence(x, src_mask, params, "enc_b_", True)
    states = np.concatenate([fwd, bwd], axis=2)
    uh = check_finite(np.matmul(states, params["att_U"].data))
    b0 = bwd[:, 0]
    s0 = np.tanh(check_finite(b0 @ params["dec_init_W"].data))
    enc = EncodedSource(states, uh, src_mask, s0)
    return enc, (src, enc, b0, fwd_cache, bwd_cache, params)


def encode_backward(cache, d_states: np.ndarray, d_uh: np.ndarray,
                    d_s0: np.ndarray) -> dict[str, np.ndarray]:
    """Backward of `encode_forward`: the encoder parameters' gradients."""
    src, enc, b0, fwd_cache, bwd_cache, params = cache
    att_u, init_w = params["att_U"].data, params["dec_init_W"].data
    hid = init_w.shape[0]
    d_states = d_states + d_uh @ att_u.T
    d_pre = d_s0 * (1.0 - enc.s0 * enc.s0)
    d_bwd = d_states[:, :, hid:].copy()
    d_bwd[:, 0] += d_pre @ init_w.T
    d_xf, grads = gru_sequence_backward(d_states[:, :, :hid], fwd_cache)
    d_xb, grads_b = gru_sequence_backward(d_bwd, bwd_cache)
    grads.update(grads_b)
    grads["att_U"] = enc.states.reshape(-1, 2 * hid).T @ d_uh.reshape(-1, hid)
    grads["dec_init_W"] = b0.T @ d_pre
    grads["src_embed"] = row_sums(src, d_xf + d_xb, len(params["src_embed"].data))
    return grads


def encode_batch(src: np.ndarray, src_mask: np.ndarray, params: ParamSet) -> EncodedSource:
    """Bidirectional encoding of a [B, S] id matrix (`encode_forward` without its cache)."""
    return encode_forward(src, src_mask, params)[0]


def encode(src_ids: Sequence[int], params: ParamSet) -> EncodedSource:
    """Encode a single sentence (ids, usually ending with EOS)."""
    if len(src_ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    vocab_size = params["src_embed"].data.shape[0]
    ids = np.asarray(src_ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ValueError(f"source id outside vocabulary range [0, {vocab_size})")
    return encode_batch(ids[None, :], np.ones((1, len(ids))), params)


class DecoderWeights:
    """The decoder's parameters packed for its step GEMMs, once per call.

    Every GEMM of a step reads one of three row inputs, so each input meets
    one packed matrix: the previous state s meets [att_W | dec_Uz | dec_Ur |
    out_V], the context c meets the context rows of [dec_Wz | dec_Wr | dec_Wh]
    beside out_C, and the previous word's embedding y meets their embedding
    rows beside out_U (`project`).  Column blocks of the last two: gates
    [0, 3H), readout [3H, 3H + 2E).
    """

    def __init__(self, params: ParamSet):
        e = params["out_U"].data.shape[0]
        gate_w = [params[f"dec_W{g}"].data for g in "zrh"]
        self.embed = params["tgt_embed"].data
        self.s_w = np.concatenate([params[n].data for n in ("att_W", "dec_Uz", "dec_Ur", "out_V")],
                                  axis=1)
        self.c_w = np.concatenate([w[e:] for w in gate_w] + [params["out_C"].data], axis=1)
        self.y_w = np.concatenate([w[:e] for w in gate_w] + [params["out_U"].data], axis=1)
        self.y_b = np.concatenate([params[f"dec_b{g}"].data for g in "zrh"] + [params["out_b"].data])
        self.u_h = params["dec_Uh"].data
        self.att_v = params["att_v"].data

    def project(self, y_ids: np.ndarray) -> np.ndarray:
        """y @ y_w + y_b for the embeddings of ``y_ids``, any leading shape."""
        y = self.embed[y_ids]
        proj = y.reshape(-1, y.shape[-1]) @ self.y_w + self.y_b
        return proj.reshape(*y.shape[:-1], self.y_w.shape[1])


def step_forward(s_prev: np.ndarray, y_proj: np.ndarray, enc: EncodedSource,
                 w: DecoderWeights, advance: bool):
    """One decoder step for every row, on plain arrays: (s_new, z, cache).

    ``y_proj`` is `DecoderWeights.project` of each row's previous word.
    Attention over the source is scored from s_prev; the maxout readout z
    and the GRU read the previous word and the attention context.  A
    one-sentence ``enc`` serves every row by broadcasting.  Without
    ``advance`` (a column whose next state nothing reads) the GRU update is
    skipped and s_new is None.
    """
    hid = s_prev.shape[1]
    sp = s_prev @ w.s_w
    att = np.tanh(check_finite(sp[:, None, :hid] + enc.uh))        # [n, S, H]
    alpha = masked_softmax(att @ w.att_v + enc.bias)                # [n, S]
    c = np.matmul(alpha[:, None, :], enc.states)[:, 0]              # [n, 2H]
    cp = c @ w.c_w
    z, which = maxout(y_proj[:, 3 * hid :] + sp[:, 3 * hid :] + cp[:, 3 * hid :])
    s_new = gru = None
    if advance:
        s_new, gru = gru_cell(y_proj[:, : 3 * hid] + cp[:, : 3 * hid], sp[:, hid : 3 * hid],
                              s_prev, w.u_h)
        check_finite(s_new)
    return s_new, check_finite(z), (s_prev, att, alpha, c, which, gru)


def step_backward(cache, ds_new: np.ndarray | None, dz: np.ndarray, enc: EncodedSource,
                  w: DecoderWeights):
    """Backward of `step_forward` given d s_new (None without advance) and d z.

    Returns (d s_prev, d sp, d y_proj, d c, d scores, d (sp_att + uh)): the
    gradients at the step's GEMM outputs, from which the caller forms the
    weight gradients over all steps at once.  d y_proj is also the
    gradient at c @ c_w.
    """
    s_prev, att, alpha, c, which, gru = cache
    n, hid = s_prev.shape
    d_pre = maxout_backward(dz, which)
    if gru is None:
        d_gx, ds_prev = np.zeros((n, 3 * hid)), 0.0
    else:
        d_gx, ds_prev = gru_cell_backward(ds_new, gru, w.u_h)
    d_yp = np.concatenate([d_gx, d_pre], axis=1)
    dc = d_yp @ w.c_w.T
    d_alpha = np.matmul(enc.states, dc[:, :, None])[..., 0]
    d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
    d_att = d_scores[:, :, None] * w.att_v * (1.0 - att * att)
    d_sp = np.concatenate([d_att.sum(axis=1), d_gx[:, : 2 * hid], d_pre], axis=1)
    return ds_prev + d_sp @ w.s_w.T, d_sp, d_yp, dc, d_scores, d_att


_DECODER_PARAMS = ("att_W", "dec_Uz", "dec_Ur", "out_V",
                   "dec_Wz", "dec_Wr", "dec_Wh", "out_U", "out_C",
                   "dec_bz", "dec_br", "dec_bh", "out_b", "dec_Uh", "att_v", "tgt_embed")
_GRU_PARAMS = {f"dec_{kind}{gate}" for kind in "WUb" for gate in "zrh"}


def decode_sequence(enc: EncodedSource, y_in: np.ndarray, params: ParamSet):
    """Teacher-forced readouts z [B * T, E], row-major over [B, T]: (z, s_prev, cache).

    ``y_in`` [B, T] holds each column's previous target word, BOS first, and
    ``s_prev`` [T, B, H] each column's state s_{i-1}.  The embedding half of the
    decoder's input GEMM runs once over all T columns; `step_forward` runs over
    the columns and skips the last column's GRU update, which no readout reads.
    Inside `no_grad()` the steps' records for the backward are not kept, and
    the cache is None.
    """
    n, t_len = y_in.shape
    if enc.mask.shape[0] != n:
        raise ValueError(f"{n} target rows for an encoding of {enc.mask.shape[0]} sentences")
    w = DecoderWeights(params)
    hid = w.u_h.shape[0]
    y_proj = w.project(y_in)
    s_prev = np.empty((t_len, n, hid))
    s_prev[0] = enc.s0
    keep = grad_enabled()
    if keep:
        # step-major [T, B, .] records of the steps' attention; each step's
        # cache holds views of them, so the backward reads them unstacked
        s_len, width = enc.states.shape[1:]
        att, alpha, c = (np.empty((t_len, n, *shape))
                         for shape in ((s_len, hid), (s_len,), (width,)))
    caches, zs = [], []
    for i in range(t_len):
        s, z, cache = step_forward(s_prev[i], y_proj[:, i], enc, w, i + 1 < t_len)
        if keep:
            att[i], alpha[i], c[i] = cache[1:4]
            caches.append((s_prev[i], att[i], alpha[i], c[i], *cache[4:]))
        if s is not None:
            s_prev[i + 1] = s
        zs.append(z)
    out = np.stack(zs, axis=1).reshape(n * t_len, -1)
    return out, s_prev, (enc, y_in, w, s_prev, att, alpha, c, caches) if keep else None


def decode_sequence_backward(cache, g: np.ndarray):
    """Backward of `decode_sequence` given d z: (d states, d uh, d s0, {parameter: gradient}).

    Runs `step_backward` in reverse time and makes each weight gradient one
    GEMM over all steps.  With one column no GRU update ran, so the GRU
    parameters get no gradient.
    """
    enc, y_in, w, s_prev, att, alpha, c, caches = cache
    n, t_len = y_in.shape
    hid = w.u_h.shape[0]
    g = g.reshape(n, t_len, -1)
    ds = None
    d_uh = np.zeros_like(enc.uh)
    # step-major [T, B, .] arrays: each weight gradient is one GEMM over all T * B rows
    d_sp, d_yp, dc, d_scores = (np.empty((t_len, n, width)) for width in (
        w.s_w.shape[1], w.y_w.shape[1], enc.states.shape[2], enc.mask.shape[1]))
    for i in reversed(range(t_len)):
        ds, d_sp[i], d_yp[i], dc[i], d_scores[i], d_att = step_backward(
            caches[i], ds, g[:, i], enc, w)
        d_uh += d_att
    n_rows = n * t_len
    d_sp, d_yp = d_sp.reshape(n_rows, -1), d_yp.reshape(n_rows, -1)
    blocks = [hid, 2 * hid, 3 * hid]
    d_s = np.split(s_prev.reshape(n_rows, -1).T @ d_sp, blocks, axis=1)
    d_y = np.split(w.embed[y_in.T].reshape(n_rows, -1).T @ d_yp, blocks, axis=1)
    d_c = np.split(c.reshape(n_rows, -1).T @ d_yp, blocks, axis=1)
    d_b = np.split(d_yp.sum(axis=0), blocks)
    d_embed = row_sums(y_in.T.reshape(-1), d_yp @ w.y_w.T, len(w.embed))
    grads = dict(zip(_DECODER_PARAMS, [
        *d_s, *(np.concatenate([dy, dc_]) for dy, dc_ in zip(d_y[:3], d_c[:3])),
        d_y[3], d_c[3], *d_b, None, d_scores.reshape(-1) @ att.reshape(-1, hid), d_embed]))
    if t_len == 1:
        grads = {name: d for name, d in grads.items() if name not in _GRU_PARAMS}
    else:  # the last column has no GRU update
        rh = np.array([gru[3] for *_, gru in caches[:-1]]).reshape(-1, hid)  # r * s_prev
        grads["dec_Uh"] = rh.T @ d_yp[: n_rows - n, 2 * hid : 3 * hid]
    d_states = np.matmul(alpha.transpose(1, 2, 0), dc.transpose(1, 0, 2))
    return d_states, d_uh, ds, grads


def train_step(batch: Batch, params: ParamSet, lr: float) -> float:
    """One teacher-forced step: returns the pre-update mean token NLL."""
    loss = teacher_forced_loss(batch, params)
    backward(loss)
    clip_gradients(params)
    adam_step(params, lr)
    params.zero_grads()
    return float(loss.data)


def teacher_forced_loss(batch: Batch, params: ParamSet) -> Loss:
    """Mask-weighted mean -log p(reference token) over a batch.

    The encoder, decoder and readout pairs run forward and `cross_entropy`
    closes them; the loss's closure runs the backwards in reverse.
    """
    enc, enc_cache = encode_forward(batch.src, batch.src_mask, params)
    y_in = np.concatenate([np.full((len(batch.tgt), 1), BOS_ID), batch.tgt[:, :-1]], axis=1)
    z, _, dec_cache = decode_sequence(enc, y_in, params)  # [B * T, E], row-major over [B, T]
    embed = params["tgt_embed"].data
    value, ce_cache = cross_entropy(check_finite(z @ embed.T), batch.tgt.reshape(-1),
                                    batch.tgt_mask.reshape(-1))

    def write_grads():
        g = cross_entropy_backward(ce_cache)  # [B * T, V], freed before the stage backwards
        d_z, d_readout = g @ embed, (z.T @ g).T
        del g
        d_states, d_uh, d_s0, grads = decode_sequence_backward(dec_cache, d_z)
        grads["tgt_embed"] = grads["tgt_embed"] + d_readout
        grads.update(encode_backward(enc_cache, d_states, d_uh, d_s0))
        params.write_grads(grads)

    return Loss(value, write_grads)


def train_model(batches: list[Batch], params: ParamSet, lr: float, steps: int) -> list[float]:
    """Cycle through the batch list for a fixed number of Adam steps; a non-finite
    value or gradient is re-raised with the step it arose in."""
    losses = []
    for i in range(steps):
        try:
            losses.append(train_step(batches[i % len(batches)], params, lr))
        except (NonFiniteError, GradientError) as exc:
            raise type(exc)(f"train step {i + 1} of {steps}: {exc}") from exc
    return losses


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

    The live hypotheses advance together: each step is one `step_forward`
    over their stacked states and one softmax into a [n_live, V] posterior,
    all on plain arrays.
    ``memory_hook(S_prev, y_prev, P)`` may transform those rows, possibly
    extending them beyond the vocabulary; ``memory_hook.proxy_ids`` (when
    present) is an id array that maps every token id the hook can emit to
    the in-vocabulary id whose embedding feeds the next decoder step.  Each
    row offers its ``beam`` most probable tokens, ties toward lower ids; the
    pool is ranked by (-log_prob, tokens).
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
    proxy = getattr(memory_hook, "proxy_ids", None)

    tokens = np.zeros((1, 0), dtype=np.int64)  # [n_live, step]
    log_probs = np.zeros(1)
    # the live prefixes' lexicographic order: all are distinct and of one length,
    # so a candidate's tokens compare as (its prefix's rank, its new token)
    prefix_rank = np.zeros(1, dtype=np.int64)
    states = enc.s0
    finished: list[Hypothesis] = []
    w = DecoderWeights(params)
    with np.errstate(divide="ignore"):  # log(0) = -inf; such a token is never offered
        while len(tokens) and len(finished) < beam:
            n, length = tokens.shape
            y_prev = tokens[:, -1] if length else np.full(n, BOS_ID, dtype=np.int64)
            emb_ids = y_prev if proxy is None else proxy[y_prev]
            s_new, z, _ = step_forward(states, w.project(emb_ids), enc, w, True)
            p = masked_softmax(z @ w.embed.T)
            if memory_hook is not None:
                p = memory_hook(states, y_prev, p)
            lp = np.log(p)
            top = np.argsort(-lp, axis=1, kind="stable")[:, :beam]  # ties toward lower ids
            row, tid = np.repeat(np.arange(n), top.shape[1]), top.ravel()
            keep = p[row, tid] > 0.0
            row, tid = row[keep], tid[keep]
            cand_lp = log_probs[row] + lp[row, tid]
            order = np.lexsort((tid, prefix_rank[row], -cand_lp))  # the pool: (-log_prob, tokens)
            done = (tid[order] == EOS_ID) | (length + 1 >= max_len)
            for i in order[done]:
                finished.append(Hypothesis(tokens[row[i]].tolist() + [int(tid[i])],
                                           float(cand_lp[i])))
            live = order[~done][:beam]
            tokens = np.concatenate([tokens[row[live]], tid[live, None]], axis=1)
            log_probs = cand_lp[live]
            states = s_new[row[live]]
            rank_keys = (tid[live], prefix_rank[row[live]])
            prefix_rank = np.empty(len(live), dtype=np.int64)
            prefix_rank[np.lexsort(rank_keys)] = np.arange(len(live))
    if not finished:
        raise ValueError("beam search found no hypothesis with positive probability")
    return max(finished, key=lambda h: (h.normalized_score(), [-t for t in h.tokens]))
