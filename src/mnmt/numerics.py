"""Differentiable float64 kernels with reverse-mode gradients.

Graphs are built eagerly: every operation returns a `Tensor` holding the
result plus a closure that routes incoming gradients to its parents.
`backward()` walks the graph once in reverse topological order.  Inside
`no_grad()` the same operations run without recording anything, which is how
decoding and frozen-model passes stay cheap.

Every kernel output is checked for NaN/Inf so numerical blowups surface at
the operation that caused them.
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
    """A float64 array plus reverse-mode bookkeeping."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in tensor of shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        if _grad_enabled:
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
    return Tensor(data)


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
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def bw(g):
        _accum(a, g * s)

    return Tensor(out, (a,), bw)


def rsub_scalar(s: float, a: Tensor) -> Tensor:
    """s - a, for gate complements like (1 - z)."""
    out = s - a.data

    def bw(g):
        _accum(a, -g)

    return Tensor(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``np.matmul``; a one-row stack in either operand serves every row of the other."""
    out = np.matmul(a.data, b.data)

    def bw(g):
        x, w = a.data, b.data
        if w.ndim <= 2:
            # b is a matrix or a vector: a's leading axes fold into one GEMM
            _accum(a, g @ w.T if w.ndim == 2 else np.multiply.outer(g, w))
            _accum(b, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, *w.shape[1:]))
        else:
            # both stacked: batched GEMMs, summed over the axes an operand broadcast on
            _accum(a, _unbroadcast(g @ w.swapaxes(-1, -2), x.shape))
            _accum(b, _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape))

    return Tensor(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    out = a.data.T

    def bw(g):
        _accum(a, g.T)

    return Tensor(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return Tensor(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accum(a, g * out * (1.0 - out))

    return Tensor(out, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, piece)

    return Tensor(out, tuple(parts), bw)


def rows(embedding: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    out = embedding.data[ids]

    def bw(g):
        if embedding.grad is None:
            embedding.grad = np.zeros_like(embedding.data)
        np.add.at(embedding.grad, ids, g)

    return Tensor(out, (embedding,), bw)


def stack(parts: Sequence[Tensor], axis: int) -> Tensor:
    """``np.stack``: equal-shaped tensors along a new axis."""
    out = np.stack([p.data for p in parts], axis=axis)

    def bw(g):
        for p, piece in zip(parts, np.moveaxis(g, axis, 0)):
            _accum(p, piece)

    return Tensor(out, tuple(parts), bw)


def maxout(a: Tensor, pool: int = 2) -> Tensor:
    """Elementwise max over adjacent groups of ``pool`` units (last axis)."""
    x = a.data
    if x.shape[-1] % pool != 0:
        raise ValueError(f"maxout needs a multiple of {pool} units, got {x.shape[-1]}")
    grouped = x.reshape(*x.shape[:-1], x.shape[-1] // pool, pool)
    arg = grouped.argmax(axis=-1)
    out = np.take_along_axis(grouped, arg[..., None], axis=-1)[..., 0]

    def bw(g):
        dg = np.zeros_like(grouped)
        np.put_along_axis(dg, arg[..., None], g[..., None], axis=-1)
        _accum(a, dg.reshape(x.shape))

    return Tensor(out, (a,), bw)


# --- softmax family ------------------------------------------------------


def _softmax_forward(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is not None:
        if not (mask.sum(axis=-1) > 0).all():
            raise MaskedSoftmaxError("softmax input with all entries masked")
        shifted = np.where(mask > 0, x, -np.inf)
        shifted = shifted - shifted.max(axis=-1, keepdims=True)
        e = np.where(mask > 0, np.exp(np.where(mask > 0, shifted, 0.0)), 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax over the last axis; masked entries are 0."""
    out = _softmax_forward(logits.data, mask)

    def bw(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accum(logits, out * (g - inner))

    return Tensor(out, (logits,), bw)


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row -log softmax(logits)[target]; fused for stability."""
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    picked = x[np.arange(x.shape[0]), targets]
    out = lse - picked

    def bw(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(x.shape[0]), targets] -= 1.0
        _accum(logits, p * g[:, None])

    return Tensor(out, (logits,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return Tensor(out, (a,), bw)


# --- recurrent cell ------------------------------------------------------


def gru_step(x: Tensor, h_prev: Tensor, params, prefix: str = "") -> Tensor:
    """One GRU update.

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    n = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * h + z * n
    """
    def p(name: str) -> Tensor:
        return params[prefix + name]

    z = sigmoid(add(add(matmul(x, p("Wz")), matmul(h_prev, p("Uz"))), p("bz")))
    r = sigmoid(add(add(matmul(x, p("Wr")), matmul(h_prev, p("Ur"))), p("br")))
    n = tanh(add(add(matmul(x, p("Wh")), matmul(mul(r, h_prev), p("Uh"))), p("bh")))
    return add(mul(rsub_scalar(1.0, z), h_prev), mul(z, n))


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


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return float(norm)


def adam_step(
    pset: ParamSet,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        pset.params[name].data -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
