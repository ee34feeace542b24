"""Float64 kernels, a small reverse-mode tape, and the optimiser.

The tape holds few nodes: the parameters, one `fused` node per loss whose
hand-written backward maps the gradient at its output to every parameter,
and the few ops that close a loss (`cross_entropy`, plus `matmul`, `rows`
and `add` around the memory scorer).  `backward()` walks the tape once in
reverse topological order.  Inside `no_grad()` nothing is recorded, and an
operation on constants alone records nothing either.

The model's stages are plain-array forward/backward pairs that never touch
the tape.  `gru_sequence` / `gru_sequence_backward` runs a whole GRU
direction with its input GEMM hoisted out of the loop and a backward in
reverse time; it and the decoder are built from `gru_cell`, `maxout`,
`masked_softmax` and `sigmoid`.

Every tape node's output is checked for NaN/Inf so numerical blowups
surface at the operation that caused them.  A plain-array stage checks each
pre-activation it feeds to a saturating function (`check_finite`), since
tanh and sigmoid would turn an overflow into a finite value.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


class GradientError(RuntimeError):
    """A gradient was non-finite, or a checked loss was non-deterministic."""


class MaskedSoftmaxError(ValueError):
    """Softmax received an input with every entry masked."""


_grad_enabled = True

GRAD_CLIP = 5.0  # global L2 norm every optimiser step clips its gradients to
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@contextlib.contextmanager
def no_grad():
    """Run kernels without building the backward graph."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A float64 array plus reverse-mode bookkeeping.

    ``requires_grad`` is set on parameters and on results computed from one
    with gradients enabled; only such a result records its parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        arr = check_finite(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = _grad_enabled and any(p.requires_grad for p in _parents)
        if self.requires_grad:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    """A leaf that never receives a gradient."""
    return Tensor(data)


def check_finite(x: np.ndarray) -> np.ndarray:
    """``x`` itself; raises NonFiniteError if it holds NaN or Inf."""
    if not np.isfinite(x).all():
        raise NonFiniteError(f"non-finite values in array of shape {x.shape}")
    return x


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's `.grad`.

    An interior node's gradient is freed once it has been passed on.
    """
    if root.data.size != 1:
        raise ValueError("backward() needs a scalar root")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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


# --- elementwise and linear kernels -------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
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


def row_sums(ids: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """[n_rows, ...]: row i sums the rows of ``values`` whose id is i.

    The scatter-add of a gather's backward: one sort and one segmented sum
    instead of ``np.add.at``'s per-element loop.
    """
    row_shape = values.shape[ids.ndim :]
    ids = ids.reshape(-1)
    values = values.reshape(len(ids), *row_shape)
    out = np.zeros((n_rows, *row_shape))
    if len(ids):
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        out[sorted_ids[starts]] = np.add.reduceat(values[order], starts)
    return out


def rows(embedding: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    out = embedding.data[ids]

    def bw(g):
        _accum(embedding, row_sums(ids, g, len(embedding.data)))

    return Tensor(out, (embedding,), bw)


def fused(out: np.ndarray, parents: Sequence[Tensor],
          grads_of: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
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


# --- softmax family ------------------------------------------------------


def masked_softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Plain-array softmax over the last axis; entries where ``mask`` is 0 are 0."""
    if mask is not None:
        if not (mask.sum(axis=-1) > 0).all():
            raise MaskedSoftmaxError("softmax input with all entries masked")
        x = np.where(mask > 0, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean over rows of -log softmax(logits)[target]; fused for stability.

    sum_i weights_i * nll_i / sum_i weights_i, with weights 0 on padding.
    """
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    picked = x[np.arange(x.shape[0]), targets]
    inv = 1.0 / weights.sum()
    out = ((lse - picked) * weights).sum() * inv

    def bw(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(x.shape[0]), targets] -= 1.0
        _accum(logits, p * (weights * (g * inv))[:, None])

    return Tensor(out, (logits,), bw)


# --- plain-array pieces of the fused kernels -------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), evaluated as exp(x) / (1 + exp(x)) below zero."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def maxout(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over adjacent pairs of units (last axis); returns (max, which).

    ``which`` is True where the second unit of a pair won; ties go to the first.
    """
    if x.shape[-1] % 2 != 0:
        raise ValueError(f"maxout needs an even number of units, got {x.shape[-1]}")
    first, second = x[..., 0::2], x[..., 1::2]
    which = second > first
    return np.where(which, second, first), which


def maxout_backward(g: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Route each pair's gradient to the unit that won it."""
    out = np.empty((*g.shape[:-1], 2 * g.shape[-1]))
    out[..., 0::2] = np.where(which, 0.0, g)
    out[..., 1::2] = np.where(which, g, 0.0)
    return out


def gru_cell(gx: np.ndarray, hzr: np.ndarray, h: np.ndarray, u_h: np.ndarray):
    """One GRU update on plain [n, .] arrays; returns (h', cache).

    ``gx`` = x @ [Wz|Wr|Wh] + [bz|br|bh] and ``hzr`` = h @ [Uz|Ur] come from
    GEMMs the caller hoists or shares:

    z = sigmoid(x Wz + h Uz + bz)
    r = sigmoid(x Wr + h Ur + br)
    n = tanh(x Wh + (r * h) Uh + bh)
    h' = (1 - z) * h + z * n
    """
    hid = h.shape[1]
    zr = sigmoid(check_finite(gx[:, : 2 * hid] + hzr))
    z, r = zr[:, :hid], zr[:, hid:]
    rh = r * h
    n = np.tanh(check_finite(gx[:, 2 * hid :] + rh @ u_h))
    return (1.0 - z) * h + z * n, (h, z, r, rh, n)


def gru_cell_backward(dh_new: np.ndarray, cache, u_h: np.ndarray):
    """Backward of `gru_cell`: returns (d gx [n, 3H], the direct part of d h).

    The gradient through ``hzr`` is d gx[:, :2H]; the caller multiplies it
    by [Uz|Ur]^T and adds it to d h.
    """
    h, z, r, rh, n = cache
    dn = dh_new * z * (1.0 - n * n)
    dz = dh_new * (n - h) * z * (1.0 - z)
    drh = dn @ u_h.T
    dr = drh * h * r * (1.0 - r)
    return np.concatenate([dz, dr, dn], axis=1), dh_new * (1.0 - z) + drh * r


def gru_sequence(x: np.ndarray, mask: np.ndarray, params, prefix: str, reverse: bool):
    """GRU states [B, S, H] over inputs x [B, S, E] from a zero state: (states, cache).

    Runs right to left when ``reverse``.  A padded position (mask 0) keeps
    the previous state.  x @ [Wz|Wr|Wh] + b is one GEMM over all positions.
    """
    names = [f"{prefix}{kind}{gate}" for kind in "WUb" for gate in "zrh"]
    weights = [params[name].data for name in names]
    w_x = np.concatenate(weights[0:3], axis=1)   # [E, 3H]
    u_zr = np.concatenate(weights[3:5], axis=1)  # [H, 2H]
    u_h = weights[5]
    b_x = np.concatenate(weights[6:9])
    n_rows, s_len, e = x.shape
    hid = u_h.shape[0]
    x2 = x.reshape(-1, e)
    gx = check_finite(x2 @ w_x + b_x).reshape(n_rows, s_len, 3 * hid)
    keep = (mask > 0)[:, :, None]
    order = range(s_len - 1, -1, -1) if reverse else range(s_len)
    out = np.empty((n_rows, s_len, hid))
    caches = []
    h = np.zeros((n_rows, hid))
    for t in order:
        h_new, cache = gru_cell(gx[:, t], h @ u_zr, h, u_h)
        h = np.where(keep[:, t], h_new, h)
        out[:, t] = h
        caches.append(cache)
    return out, (names, x2, w_x, u_zr, u_h, keep, order, caches)


def gru_sequence_backward(g: np.ndarray, cache):
    """Backward of `gru_sequence` given d states: (d x, {parameter name: gradient}).

    Runs in reverse time and makes each weight gradient one GEMM over all
    positions.
    """
    names, x2, w_x, u_zr, u_h, keep, order, caches = cache
    n_rows, s_len, hid = g.shape
    dgx = np.empty((n_rows, s_len, 3 * hid))
    h_prev = np.empty((n_rows, s_len, hid))
    rh = np.empty((n_rows, s_len, hid))
    dh = np.zeros((n_rows, hid))
    for t, step in zip(reversed(order), reversed(caches)):
        dh = dh + g[:, t]
        dgx_t, dh_prev = gru_cell_backward(np.where(keep[:, t], dh, 0.0), step, u_h)
        dh = dh_prev + dgx_t[:, : 2 * hid] @ u_zr.T + np.where(keep[:, t], 0.0, dh)
        dgx[:, t], h_prev[:, t], rh[:, t] = dgx_t, step[0], step[3]
    dgx2 = dgx.reshape(-1, 3 * hid)
    d_w = np.split(x2.T @ dgx2, 3, axis=1)
    d_u = np.split(h_prev.reshape(-1, hid).T @ dgx2[:, : 2 * hid], 2, axis=1)
    d_uh = rh.reshape(-1, hid).T @ dgx2[:, 2 * hid :]
    d_b = np.split(dgx2.sum(axis=0), 3)
    d_x = (dgx2 @ w_x.T).reshape(n_rows, s_len, -1)
    return d_x, dict(zip(names, [*d_w, *d_u, d_uh, *d_b]))


# --- parameters, Adam, gradient checking ---------------------------------


class ParamSet:
    """Named parameter tensors plus per-parameter Adam moments.

    The step counter is shared by the whole set and advances once per
    `adam_step` call.  Mutation (adding parameters, optimizer steps) needs
    exclusive access; read-only sharing is safe.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, values) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(values, dtype=np.float64))
        t.requires_grad = True
        self.params[name] = t
        self.adam_m[name] = np.zeros_like(t.data)
        self.adam_v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        return {n: t.grad for n, t in self.params.items() if t.grad is not None}

    def value_bytes(self) -> bytes:
        """Concatenated raw parameter bytes, for freeze/determinism checks."""
        return b"".join(self.params[n].data.tobytes() for n in sorted(self.params))


def clip_gradients(grads: dict[str, np.ndarray]) -> float:
    """Scale all gradients in place so their global L2 norm is <= GRAD_CLIP."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > GRAD_CLIP:
        factor = GRAD_CLIP / norm
        for g in grads.values():
            g *= factor
    return float(norm)


def adam_step(pset: ParamSet, grads: dict[str, np.ndarray], lr: float) -> None:
    """Bias-corrected Adam update applied in place to the named parameters."""
    unknown = set(grads) - set(pset.params)
    if unknown:
        raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise GradientError(f"non-finite gradient for parameter {name!r}")
    pset.step += 1
    t = pset.step
    for name, g in grads.items():
        m = pset.adam_m[name]
        v = pset.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        pset.params[name].data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def grad_check(
    loss_fn: Callable[[ParamSet], Tensor],
    pset: ParamSet,
    eps: float = 1e-5,
    max_samples_per_tensor: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients with central finite differences.

    Returns max over sampled entries of |ga - gn| / max(1e-8, |ga| + |gn|).
    ``loss_fn`` must be deterministic; it is evaluated twice to verify.
    """
    pset.zero_grads()
    with no_grad():
        first = float(loss_fn(pset).data)
        second = float(loss_fn(pset).data)
    if first != second:
        raise GradientError("loss function is not deterministic")

    loss = loss_fn(pset)
    backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in pset.params.items()
    }
    pset.zero_grads()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, t in pset.params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_samples_per_tensor:
            idxs = np.arange(n)
        else:
            idxs = np.sort(rng.choice(n, size=max_samples_per_tensor, replace=False))
        ga_flat = analytic[name].reshape(-1)
        for i in idxs:
            saved = flat[i]
            with no_grad():
                flat[i] = saved + eps
                up = float(loss_fn(pset).data)
                flat[i] = saved - eps
                down = float(loss_fn(pset).data)
            flat[i] = saved
            gn = (up - down) / (2.0 * eps)
            ga = ga_flat[i]
            rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
            worst = max(worst, rel)
    return worst
