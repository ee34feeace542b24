"""Helpers that make desk-scale synthetic translation tasks, and the
test-only references the package is checked against: plain-numpy decoders,
a generic reverse-mode tape and per-op oracles built on it."""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mnmt import numerics
from mnmt.corpus import BOS_ID, EOS_ID, Vocabulary, build_vocabulary, encode_sentence, make_batches
from mnmt.memory import score_entries
from mnmt.model import NmtConfig, encode, init_nmt_params, train_model


def desk_config(src_vocab: int, tgt_vocab: int, embed: int = 12, hidden: int = 16,
                beam: int = 4, batch: int = 16, lr: float = 0.01) -> NmtConfig:
    return NmtConfig(
        src_vocab_size=src_vocab,
        tgt_vocab_size=tgt_vocab,
        embed_dim=embed,
        hidden_dim=hidden,
        beam_size=beam,
        batch_size=batch,
        lr=lr,
    )


@dataclass
class SynthTask:
    """A word-for-word translation task with optional rare word pairs."""

    train_pairs: list[tuple[list[str], list[str]]]
    heldout_pairs: list[tuple[list[str], list[str]]] = field(default_factory=list)
    src_vocab: Vocabulary = None
    tgt_vocab: Vocabulary = None
    word_map: dict = field(default_factory=dict)
    rare_words: list[tuple[str, str]] = field(default_factory=list)

    def encoded_train(self):
        return [
            (encode_sentence(s, self.src_vocab, True), encode_sentence(t, self.tgt_vocab, True))
            for s, t in self.train_pairs
        ]


def make_copy_task(n_pairs: int = 100, n_words: int = 12, len_range=(4, 8), seed: int = 0) -> SynthTask:
    """Sentences copied verbatim: source and target share one vocabulary."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(n_words)]
    pairs = []
    for _ in range(n_pairs):
        n = int(rng.integers(len_range[0], len_range[1] + 1))
        sent = [words[i] for i in rng.integers(0, n_words, size=n)]
        pairs.append((sent, list(sent)))
    vocab = build_vocabulary([p[0] for p in pairs], max_size=n_words + 4)
    return SynthTask(pairs, [], vocab, vocab, {w: w for w in words})


def make_mapped_task(
    n_common: int = 16,
    n_rare: int = 0,
    n_train: int = 120,
    n_heldout: int = 0,
    len_range=(4, 7),
    seed: int = 0,
) -> SynthTask:
    """Word-for-word translation s_i -> t_i; rare pairs occur exactly once in training.

    Held-out sentences embed one rare source word each among common words, so
    a system must produce the rare target to recall it.
    """
    rng = np.random.default_rng(seed)
    commons = [(f"s{i:02d}", f"t{i:02d}") for i in range(n_common)]
    rares = [(f"rs{i:02d}", f"rt{i:02d}") for i in range(n_rare)]
    word_map = dict(commons + rares)

    def common_sentence():
        n = int(rng.integers(len_range[0], len_range[1] + 1))
        src = [commons[i][0] for i in rng.integers(0, n_common, size=n)]
        return src, [word_map[w] for w in src]

    train = [common_sentence() for _ in range(n_train)]
    for rs, _ in rares:
        src, _ = common_sentence()
        pos = int(rng.integers(0, len(src)))
        src = list(src)
        src[pos] = rs
        train.append((src, [word_map[w] for w in src]))
    order = rng.permutation(len(train))
    train = [train[i] for i in order]

    heldout = []
    for j in range(n_heldout):
        src, _ = common_sentence()
        pos = int(rng.integers(0, len(src)))
        src = list(src)
        src[pos] = rares[j % max(1, n_rare)][0] if rares else src[pos]
        heldout.append((src, [word_map[w] for w in src]))

    src_vocab = build_vocabulary([p[0] for p in train], max_size=4 + n_common + n_rare)
    tgt_vocab = build_vocabulary([p[1] for p in train], max_size=4 + n_common + n_rare)
    return SynthTask(train, heldout, src_vocab, tgt_vocab, word_map, rares)


def plant_word_pair(task: SynthTask, src_word: str, tgt_word: str, n: int, seed: int) -> SynthTask:
    """Overwrite one slot in n training sentences with a new word pair."""
    rng = np.random.default_rng(seed)
    for idx in rng.choice(len(task.train_pairs), size=n, replace=False):
        s, t = task.train_pairs[idx]
        pos = int(rng.integers(0, len(s)))
        s2, t2 = list(s), list(t)
        s2[pos] = src_word
        t2[pos] = tgt_word
        task.train_pairs[idx] = (s2, t2)
    task.word_map[src_word] = tgt_word
    task.src_vocab = build_vocabulary([p[0] for p in task.train_pairs], max_size=100)
    task.tgt_vocab = build_vocabulary([p[1] for p in task.train_pairs], max_size=100)
    return task


def quick_train(task: SynthTask, cfg: NmtConfig, seed: int, steps: int):
    """Train a fresh model on the task; returns (params, losses)."""
    batches = make_batches(task.encoded_train(), cfg.batch_size, max_len=50, seed=seed)
    params = init_nmt_params(cfg, seed)
    losses = train_model(batches, params, cfg.lr, steps)
    return params, losses


def checkpoint_checksum(path) -> str:
    """Hex digest of a whole file, for determinism checks."""
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=16).hexdigest()


def value_bytes(pset: numerics.ParamSet) -> bytes:
    """A parameter store's raw values in name order, for freeze/determinism checks."""
    return b"".join(pset[n].data.tobytes() for n in sorted(pset.names()))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def reference_step(s_prev, y_prev, h, params):
    """One decoder step of a single sentence in plain numpy, from the equations.

    ``h`` is the [S, 2H] encoder state matrix.  Returns the next state and
    the maxout readout.
    """
    p = {name: params[name].data for name in params.names()}
    scores = np.tanh(s_prev @ p["att_W"] + h @ p["att_U"]) @ p["att_v"]
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    c = alpha @ h
    emb = p["tgt_embed"][y_prev]
    s_new = _reference_gru(np.concatenate([emb, c]), s_prev, p, "dec_")
    pre = emb @ p["out_U"] + s_prev @ p["out_V"] + c @ p["out_C"] + p["out_b"]
    return s_new, pre.reshape(-1, 2).max(axis=1)


def _reference_gru(x, s, p, prefix):
    def gate(g):
        return x @ p[f"{prefix}W{g}"] + s @ p[f"{prefix}U{g}"] + p[f"{prefix}b{g}"]

    zg = _sigmoid(gate("z"))
    rg = _sigmoid(gate("r"))
    ng = np.tanh(x @ p[f"{prefix}Wh"] + (rg * s) @ p[f"{prefix}Uh"] + p[f"{prefix}bh"])
    return (1 - zg) * s + zg * ng


def reference_encode(src_ids, params):
    """[S, 2H] bidirectional encoder states of one sentence, in plain numpy."""
    p = {name: params[name].data for name in params.names()}
    xs = p["src_embed"][list(src_ids)]
    hidden = p["enc_f_Uz"].shape[0]
    fwd, bwd = [], []
    s = np.zeros(hidden)
    for x in xs:
        s = _reference_gru(x, s, p, "enc_f_")
        fwd.append(s)
    s = np.zeros(hidden)
    for x in xs[::-1]:
        s = _reference_gru(x, s, p, "enc_b_")
        bwd.append(s)
    return np.concatenate([np.stack(fwd), np.stack(bwd[::-1])], axis=1)


def table_hook(table, vocab):
    """Row hook that replaces each row's posterior with ``table[previous token]``,
    a {token: probability} map, over ``vocab`` tokens."""

    def hook(s_prev, y_prev, p_nmt):
        out = np.zeros((len(y_prev), vocab))
        for row, y in enumerate(y_prev):
            for tid, prob in table[int(y)].items():
                out[row, tid] = prob
        return out

    return hook


def reference_beam(src_ids, params, beam, max_len, hook=None):
    """Independent one-row beam search; returns (tokens, log_prob) of the best.

    Expands one hypothesis at a time with `reference_step`; each offers its
    ``beam`` best tokens by a full lexsort (ties toward lower ids), skipping
    zero probabilities; the pool is ranked by (-log_prob, tokens); the
    winner maximises log_prob / length, ties toward lower tokens.  A row
    hook is called on one row at a time.
    """
    p = {name: params[name].data for name in params.names()}
    h = reference_encode(src_ids, params)
    hidden = p["dec_init_W"].shape[0]
    proxy = getattr(hook, "proxy_ids", None)
    live = [([], 0.0, np.tanh(h[0, hidden:] @ p["dec_init_W"]))]
    finished = []
    while live and len(finished) < beam:
        pool = []
        for toks, lp_sum, s in live:
            y_prev = toks[-1] if toks else BOS_ID
            s_new, z = reference_step(s, y_prev if proxy is None else proxy[y_prev], h, params)
            logits = p["tgt_embed"] @ z
            probs = np.exp(logits - logits.max())
            probs = probs / probs.sum()
            if hook is not None:
                probs = hook(s[None, :], np.array([y_prev]), probs[None, :])[0]
            with np.errstate(divide="ignore"):
                lp = np.log(probs)
            for tid in np.lexsort((np.arange(len(lp)), -lp))[:beam]:
                if probs[tid] > 0.0:
                    new = toks + [int(tid)]
                    done = tid == EOS_ID or len(new) >= max_len
                    pool.append((new, lp_sum + lp[tid], s_new, done))
        pool.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for toks, lp_sum, s, done in pool:
            if done:
                finished.append((toks, lp_sum))
            elif len(live) < beam:
                live.append((toks, lp_sum, s))
    best = max(finished, key=lambda f: (f[1] / len(f[0]), [-t for t in f[0]]))
    return best[0], float(best[1])


def greedy_reference(src_ids, params, max_len):
    """Independent greedy decoder built on `reference_step`."""
    h = encode(src_ids, params).h
    hidden = params["dec_init_W"].data.shape[0]
    s = np.tanh(h[0, hidden:] @ params["dec_init_W"].data)
    tokens = []
    y_prev = BOS_ID
    while len(tokens) < max_len:
        s_new, z = reference_step(s, y_prev, h, params)
        logits = params["tgt_embed"].data @ z
        p = np.exp(logits - logits.max())
        tid = int(np.argmax(p / p.sum()))
        tokens.append(tid)
        if tid == EOS_ID:
            break
        s, y_prev = s_new, tid
    return tokens


def reference_memory_loss(pairs, src_vocab, tgt_vocab, params, lex, k, mparams):
    """Mean -log memory attention at the reference word, in plain numpy.

    One sentence and one target position at a time, from the equations:
    the top-k lexicon candidates of each source word (by p(t|s), ties by
    target token) that are in the target vocabulary, merged per target word
    into [target embedding; p(s|t)-weighted mean of source states]; decoder
    states from `reference_step` on the reference prefix.  Returns
    (mean loss, number of scored positions).
    """
    p = {name: params[name].data for name in params.names()}
    m = {name: mparams[name].data for name in mparams.names()}
    hidden = p["dec_init_W"].shape[0]
    ranked = {}
    for (s, t), (p_ts, p_st) in lex.entries.items():
        ranked.setdefault(s, []).append((-p_ts, t, p_st))
    nll = []
    for src, tgt in pairs:
        h = encode(encode_sentence(src, src_vocab, True), params).h
        groups = {}  # target id -> [(source position, p(s|t))]
        for pos, word in enumerate(src):
            for _, t, p_st in sorted(ranked.get(word, []))[:k]:
                if t in tgt_vocab:
                    groups.setdefault(tgt_vocab.id_of(t), []).append((pos, p_st))
        labels = list(groups)
        u = []
        for tid in labels:
            w = np.array([p_st for _, p_st in groups[tid]])
            w = w / w.sum() if w.sum() > 0 else np.full(len(w), 1.0 / len(w))
            blend = sum(wi * h[pos] for wi, (pos, _) in zip(w, groups[tid]))
            u.append(np.concatenate([p["tgt_embed"][tid], blend]))
        s = np.tanh(h[0, hidden:] @ p["dec_init_W"])
        y_prev = BOS_ID
        for tid in encode_sentence(tgt, tgt_vocab, True):
            if tid in groups:
                pre = np.stack(u) @ m["mem_Wu"] + s @ m["mem_Ws"] + p["tgt_embed"][y_prev] @ m["mem_Wy"]
                e = np.tanh(pre) @ m["mem_v"]
                nll.append(e.max() + np.log(np.exp(e - e.max()).sum()) - e[labels.index(tid)])
            s, _ = reference_step(s, y_prev, h, params)
            y_prev = tid
    return float(np.mean(nll)), len(nll)


# --- the two-pass sentence memory the one-pass build replaced -----------------
# Merge the substitute words' candidates, then withdraw them and merge the
# original OOV words' candidates in a second pass, as `memory.sentence_memory`
# did with `inject_oov_targets`; kept as a test-only construction reference.


@dataclass
class RefMemoryEntry:
    label_id: int
    embed_id: int
    h_blend: np.ndarray
    contributors: list  # (source position, raw blend weight)


def _ref_blend(contributors, h_rows):
    total = sum(w for _, w in contributors)
    if total > 0.0:
        weights = [w / total for _, w in contributors]
    else:
        weights = [1.0 / len(contributors)] * len(contributors)
    out = np.zeros_like(np.asarray(h_rows(contributors[0][0])))
    for (pos, _), w in zip(contributors, weights):
        out = out + w * np.asarray(h_rows(pos))
    return out


def reference_sentence_memory(tokens, h, lex, tgt_vocab, k, record=None, sim=None):
    """(entries, oov_labels, injection_skipped) of a sentence's merged memory.

    ``h`` is the sentence's [S, 2H] encoder states.  Every position enters
    its token's top-k in-vocabulary candidates, entries sharing a target are
    merged, and then each substitution of ``record`` withdraws its
    position's entries and enters the original word's candidates, OOV
    targets under extended labels backed by a similar in-vocabulary word.
    """
    from mnmt.lexicon import lexicon_lookup

    groups = {}  # target id -> [(source position, p(s|t))]
    for pos, tok in enumerate(tokens):
        for tgt_tok, _ in lexicon_lookup(lex, tok, k):
            if tgt_tok in tgt_vocab:
                p_st = lex.entries[(tok, tgt_tok)][1]
                groups.setdefault(tgt_vocab.id_of(tgt_tok), []).append((pos, p_st))
    entries = [RefMemoryEntry(tid, tid, _ref_blend(c, lambda p: h[p]), c)
               for tid, c in groups.items()]
    oov_labels, skipped = {}, []
    if record is None or not record.substitutions or sim is None:
        return entries, oov_labels, skipped
    ext_by_label = {}
    for pos, orig, sub in record.substitutions:
        sub_targets = {tgt_vocab.id_of(t) for t, _ in lexicon_lookup(lex, sub, k) if t in tgt_vocab}
        survivors = []
        for e in entries:
            if e.label_id in sub_targets and pos in [p for p, _ in e.contributors]:
                e.contributors = [(p, w) for p, w in e.contributors if p != pos]
                if not e.contributors:
                    continue
                e.h_blend = _ref_blend(e.contributors, lambda p: h[p])
            survivors.append(e)
        entries = survivors
        candidates = lexicon_lookup(lex, orig, k)
        if not candidates:
            skipped.append((pos, orig, ""))
            continue
        for tgt_tok, _ in candidates:
            p_st = lex.entries[(orig, tgt_tok)][1]
            if tgt_tok in tgt_vocab:
                label_id = embed_id = tgt_vocab.id_of(tgt_tok)
            else:
                stand_ins = [c for c in sim.target.get(tgt_tok, []) if c in tgt_vocab]
                if not stand_ins:
                    skipped.append((pos, orig, tgt_tok))
                    continue
                embed_id = tgt_vocab.id_of(stand_ins[0])
                if tgt_tok not in ext_by_label:
                    ext_by_label[tgt_tok] = len(tgt_vocab) + len(oov_labels)
                    oov_labels[ext_by_label[tgt_tok]] = (tgt_tok, embed_id)
                label_id = ext_by_label[tgt_tok]
            existing = next((e for e in entries if e.label_id == label_id), None)
            if existing is None:
                entries.append(RefMemoryEntry(label_id, embed_id, h[pos].copy(), [(pos, p_st)]))
            else:
                existing.contributors.append((pos, p_st))
                existing.h_blend = _ref_blend(existing.contributors, lambda p: h[p])
    return entries, oov_labels, skipped


def tape_nodes(*roots) -> int:
    """Nodes reachable from ``roots`` through the tape's parent links; a
    package loss has none, so it counts as one."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "_parents", ()))
    return len(seen)


# --- a generic reverse-mode tape ------------------------------------------------
# Every loss of the package is a hand-written forward/backward pair; this tape
# is the independent reference the per-op oracles below are built on, and
# test_numerics.py tests it.  `numerics.no_grad` switches its recording off.


class Tensor:
    """A float64 array plus reverse-mode bookkeeping.

    ``requires_grad`` is set on leaves made by `leaf` and on results computed
    from one with gradients enabled; only such a result records its parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward=None):
        self.data = numerics.check_finite(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = numerics._grad_enabled and any(p.requires_grad for p in _parents)
        if self.requires_grad:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape


def constant(data) -> Tensor:
    """A leaf that never receives a gradient."""
    return Tensor(data)


def leaf(data) -> Tensor:
    """A leaf that receives a gradient; it shares ``data``'s memory."""
    t = Tensor(data)
    t.requires_grad = True
    return t


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's `.grad`.

    Walks the tape once in reverse topological order; an interior node's
    gradient is freed once it has been passed on.
    """
    if root.data.size != 1:
        raise ValueError("backward() needs a scalar root")
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None  # passed on; only leaves keep theirs


def on_tape(tape_loss):
    """A loss function for `numerics.grad_check` from a tape loss.

    ``tape_loss(leaves)`` gets one `leaf` per parameter, viewing the stored
    values, and returns a scalar tape root; the package loss it becomes runs
    the tape's backward and writes the leaves' gradients into the store.
    """

    def loss_fn(pset):
        leaves = {name: leaf(pset[name].data) for name in pset.names()}
        root = tape_loss(leaves)

        def write_grads():
            backward(root)
            pset.write_grads({n: t.grad for n, t in leaves.items() if t.grad is not None})

        return numerics.Loss(root.data, write_grads)

    return loss_fn


def add(a, b):
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out, (a, b), bw)


def matmul(a, b):
    """``np.matmul``; a one-row stack in either operand serves every row of the other."""
    out = np.matmul(a.data, b.data)

    def bw(g):
        x, w = a.data, b.data
        if w.ndim <= 2:
            # b is a matrix or a vector: a's leading axes fold into one GEMM
            if a.requires_grad:
                _accum(a, g @ w.T if w.ndim == 2 else np.multiply.outer(g, w))
            if b.requires_grad:
                _accum(b, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, *w.shape[1:]))
        else:
            # both stacked: batched GEMMs, summed over the axes an operand broadcast on
            if a.requires_grad:
                _accum(a, _unbroadcast(g @ w.swapaxes(-1, -2), x.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape))

    return Tensor(out, (a, b), bw)


def rows(embedding, ids):
    """Gather rows of an embedding matrix; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)

    def bw(g):
        _accum(embedding, numerics.row_sums(ids, g, len(embedding.data)))

    return Tensor(embedding.data[ids], (embedding,), bw)


def fused(out, parents, grads_of):
    """One tape node for a kernel computed on plain arrays.

    ``grads_of(g)`` maps the output's gradient to one gradient per parent, in
    order, None where it computed none; only parents that need a gradient
    receive theirs.
    """

    def bw(g):
        for p, gp in zip(parents, grads_of(g)):
            if gp is not None and p.requires_grad:
                _accum(p, gp)

    return Tensor(out, tuple(parents), bw)


def cross_entropy(logits, targets, weights):
    """`numerics.cross_entropy` as a tape node."""
    value, cache = numerics.cross_entropy(logits.data, targets, weights)
    return fused(value, [logits], lambda g: [g * numerics.cross_entropy_backward(cache)])


def memory_scores(s_prev, y_emb, uw, pset):
    """`memory.score_entries` as one tape node with a hand-written backward.

    ``s_prev`` and ``y_emb`` are constants: the gradient reaches ``uw`` and
    the scorer's parameters, leaves of ``pset``.
    """
    s, y = s_prev.data, y_emb.data
    scores, act = score_entries(s, y, uw.data, pset)

    def grads_of(g):
        d_pre = np.multiply.outer(g, pset["mem_v"].data) * (1.0 - act * act)
        d_sy = d_pre.sum(axis=1)
        return [d_pre.sum(axis=0) if uw.data.ndim == 2 else d_pre, s.T @ d_sy, y.T @ d_sy,
                act.reshape(-1, act.shape[-1]).T @ g.reshape(-1)]

    return fused(scores, [uw, *(pset[name] for name in ("mem_Ws", "mem_Wy", "mem_v"))],
                 grads_of)


# --- per-op tape kernels that no module of the package calls ----------------
# One tape node per elementwise op.  The model's and the memory scorer's
# gradients are hand-written stage backwards, so these serve only the tape
# oracles below and their own tests in test_numerics.py.


def mul(a, b):
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out, (a, b), bw)


def transpose(a):
    out = a.data.T

    def bw(g):
        _accum(a, g.T)

    return Tensor(out, (a,), bw)


def reshape(a, shape):
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(out, (a,), bw)


def tanh(a):
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return Tensor(out, (a,), bw)


def concat(parts, axis=-1):
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                _accum(p, piece)

    return Tensor(out, tuple(parts), bw)


def take(a, index):
    """``a.data[index]`` for a basic index; backward scatters into zeros."""

    def bw(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accum(a, full)

    return Tensor(a.data[index], (a,), bw)


def softmax(logits, mask=None):
    """Numerically stable softmax over the last axis; entries where ``mask`` is 0 are 0."""
    x = logits.data if mask is None else np.where(mask > 0, logits.data, -np.inf)
    out = numerics.masked_softmax(x)

    def bw(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accum(logits, out * (g - inner))

    return Tensor(out, (logits,), bw)


def sum_all(a):
    out = a.data.sum()

    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return Tensor(out, (a,), bw)


# --- the per-op tape path the fused kernels replaced --------------------------
# One tape op per elementwise step, as the model computed it before its
# recurrences were fused; kept as a test-only gradient reference.


def _tape_sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return fused(out, [a], lambda g: [g * out * (1.0 - out)])


def _tape_rsub(s, a):
    return fused(s - a.data, [a], lambda g: [-g])


def _tape_maxout(a):
    grouped = a.data.reshape(*a.data.shape[:-1], -1, 2)
    arg = grouped.argmax(axis=-1)
    out = np.take_along_axis(grouped, arg[..., None], axis=-1)[..., 0]

    def grads(g):
        dg = np.zeros_like(grouped)
        np.put_along_axis(dg, arg[..., None], g[..., None], axis=-1)
        return [dg.reshape(a.data.shape)]

    return fused(out, [a], grads)


def _tape_stack(parts, axis):
    out = np.stack([p.data for p in parts], axis=axis)
    return fused(out, parts, lambda g: list(np.moveaxis(g, axis, 0)))


def tape_gru_step(x, h_prev, params, prefix):
    def p(name):
        return params[prefix + name]

    z = _tape_sigmoid(add(add(matmul(x, p("Wz")), matmul(h_prev, p("Uz"))), p("bz")))
    r = _tape_sigmoid(add(add(matmul(x, p("Wr")), matmul(h_prev, p("Ur"))), p("br")))
    n = tanh(add(add(matmul(x, p("Wh")), matmul(mul(r, h_prev), p("Uh"))), p("bh")))
    return add(mul(_tape_rsub(1.0, z), h_prev), mul(z, n))


def tape_gru_direction(xs, mask, params, prefix, reverse):
    """Per-position GRU states of one direction, padded positions keeping the previous."""
    h = constant(np.zeros((xs[0].shape[0], params[prefix + "Uz"].shape[0])))
    out = [None] * len(xs)
    for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
        m = mask[:, t][:, None]
        h = add(mul(constant(m), tape_gru_step(xs[t], h, params, prefix)), mul(constant(1.0 - m), h))
        out[t] = h
    return out


@dataclass
class TapeEncoding:
    """`EncodedSource`'s fields as tape tensors."""

    states: Tensor
    uh: Tensor
    mask: np.ndarray
    s0: Tensor


def tape_encode_batch(src, src_mask, params):
    xs = [rows(params["src_embed"], src[:, t]) for t in range(src.shape[1])]
    fwd = tape_gru_direction(xs, src_mask, params, "enc_f_", False)
    bwd = tape_gru_direction(xs, src_mask, params, "enc_b_", True)
    states = concat([_tape_stack(fwd, 1), _tape_stack(bwd, 1)], axis=2)
    uh = matmul(states, params["att_U"])
    s0 = tanh(matmul(bwd[0], params["dec_init_W"]))
    return TapeEncoding(states, uh, src_mask, s0)


def tape_decode_step(s_prev, y_prev_ids, enc, params):
    n = s_prev.shape[0]
    sa = reshape(matmul(s_prev, params["att_W"]), (n, 1, -1))
    alpha = softmax(matmul(tanh(add(sa, enc.uh)), params["att_v"]), enc.mask)
    c = reshape(matmul(reshape(alpha, (n, 1, -1)), enc.states), (n, -1))
    y_emb = rows(params["tgt_embed"], y_prev_ids)
    s_new = tape_gru_step(concat([y_emb, c], axis=1), s_prev, params, "dec_")
    pre = add(add(add(matmul(y_emb, params["out_U"]), matmul(s_prev, params["out_V"])),
                  matmul(c, params["out_C"])), params["out_b"])
    return s_new, _tape_maxout(pre)


def tape_loss(batch, params):
    """The teacher-forced loss on the per-op tape."""
    enc = tape_encode_batch(batch.src, batch.src_mask, params)
    s = enc.s0
    y_in = np.full(batch.tgt.shape[0], BOS_ID, dtype=np.int64)
    zs = []
    for i in range(batch.tgt.shape[1]):
        s, z = tape_decode_step(s, y_in, enc, params)
        zs.append(z)
        y_in = batch.tgt[:, i]
    z = reshape(_tape_stack(zs, 1), (batch.tgt.size, -1))
    logits = matmul(z, transpose(params["tgt_embed"]))
    return cross_entropy(logits, batch.tgt.reshape(-1), batch.tgt_mask.reshape(-1))


# --- the per-op memory scorer the fused node replaced -------------------------
# `memory_scores` and `memory.chunk_loss` as they ran on the per-op tape; kept
# as a test-only gradient reference.


def tape_memory_scores(s_prev, y_emb, uw, pset):
    sy = add(matmul(s_prev, pset["mem_Ws"]), matmul(y_emb, pset["mem_Wy"]))
    return matmul(tanh(add(uw, reshape(sy, (sy.shape[0], 1, -1)))), pset["mem_v"])


def tape_chunk_loss(chunk, pset):
    uw = matmul(constant(chunk.u), pset["mem_Wu"])
    scores = tape_memory_scores(constant(chunk.s_prev), constant(chunk.y_emb),
                                rows(uw, chunk.slot_entry), pset)
    return cross_entropy(add(scores, constant(chunk.pad_bias)), chunk.target,
                         np.ones(chunk.n_positions))
