"""Float64 kernels, the packed parameter store, and the optimiser.

Every gradient is hand-written.  The model's stages are plain-array
forward/backward pairs: `gru_sequence` / `gru_sequence_backward` runs a
whole GRU direction with its input GEMM hoisted out of the loop and a
backward in reverse time; it and the decoder are built from `gru_cell`,
`maxout`, `masked_softmax` and `sigmoid`.  `cross_entropy` /
`cross_entropy_backward` closes both losses.

Masks are additive: `masked_softmax` gives probability 0 to an entry the
caller set to -inf, and checks nothing; whoever builds a mask checks once
that each row keeps a real position (`model.EncodedSource`).

A loss is a `Loss`: its value, plus one closure that runs the stage
backwards in reverse and writes every parameter's gradient into the
parameter set's store.  `backward(loss)` calls that closure.  Inside
`no_grad()` a loss keeps no closure.

`ParamSet` keeps the parameters, their gradients and both Adam moments in
four flat float64 buffers; each named parameter is a contiguous view of
them.  `clip_gradients` and `adam_step` are a few vector ops over the
buffers, and they skip the parameters that received no gradient.

A plain-array stage checks each pre-activation it feeds to a saturating
function (`check_finite`), since tanh and sigmoid would turn an overflow
into a finite value; a loss checks its value.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


class GradientError(RuntimeError):
    """A gradient was non-finite, or a checked loss was non-deterministic."""


class MaskedSoftmaxError(ValueError):
    """A mask row has no real position, so a softmax over it has nothing to weigh."""


_grad_enabled = True

GRAD_CLIP = 5.0  # global L2 norm every optimiser step clips its gradients to
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@contextlib.contextmanager
def no_grad():
    """Compute losses without keeping what their gradients need."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def grad_enabled() -> bool:
    """False inside `no_grad()`: a forward may then skip what only its backward reads."""
    return _grad_enabled


def check_finite(x: np.ndarray) -> np.ndarray:
    """``x`` itself; raises NonFiniteError if it holds NaN or Inf."""
    if not np.isfinite(x).all():
        raise NonFiniteError(f"non-finite values in array of shape {x.shape}")
    return x


class Loss:
    """A scalar loss: its value ``data`` and, unless built under `no_grad`,
    the closure that writes its parameters' gradients."""

    __slots__ = ("data", "_write_grads")

    def __init__(self, value, write_grads: Callable[[], None]):
        self.data = check_finite(np.asarray(value, dtype=np.float64))
        self._write_grads = write_grads if _grad_enabled else None


def backward(loss: Loss) -> None:
    """Write d(loss)/d(parameter) into the gradient views; once per loss."""
    write, loss._write_grads = loss._write_grads, None
    if write is None:
        raise GradientError("the loss keeps no gradients: built under no_grad(), "
                            "or backward() already ran")
    write()


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


# --- softmax family ------------------------------------------------------


def masked_softmax(x: np.ndarray) -> np.ndarray:
    """Plain-array softmax over the last axis; an entry at -inf gets probability 0."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray):
    """Weighted mean over rows of -log softmax(logits)[target]: (value, cache).

    sum_i weights_i * nll_i / sum_i weights_i, with weights 0 on padding;
    log-sum-exp keeps it stable.
    """
    targets = np.asarray(targets, dtype=np.int64)
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    picked = logits[np.arange(logits.shape[0]), targets]
    inv = 1.0 / weights.sum()
    return ((lse - picked) * weights).sum() * inv, (logits, m, targets, weights, inv)


def cross_entropy_backward(cache) -> np.ndarray:
    """d value / d logits of `cross_entropy`."""
    logits, m, targets, weights, inv = cache
    p = np.exp(logits - m)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(logits.shape[0]), targets] -= 1.0
    return p * (weights * inv)[:, None]


# --- plain-array pieces of the stages ------------------------------------


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


class Param:
    """One named parameter: ``data`` and ``grad`` are views of its set's buffers."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray, grad: np.ndarray):
        self.data, self.grad = data, grad


class ParamSet:
    """Named parameters packed into four flat float64 buffers: ``values``,
    ``grad`` and Adam's moments ``adam_m`` and ``adam_v``.

    Parameter ``name`` occupies ``spans[name]`` of each buffer, in the
    order of ``arrays``; ``self[name]`` holds its value and gradient views,
    so an in-place write to ``.data`` or ``.grad`` lands in the store.  A
    loss writes its gradients with `write_grads`, which marks them;
    `zero_grads` clears the marks, and only marked gradients are clipped and
    stepped.  The step counter is shared by the whole set and advances once
    per `adam_step` call.  Optimizer steps need exclusive access; read-only
    sharing is safe.
    """

    def __init__(self, arrays: dict[str, np.ndarray] | None = None):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in (arrays or {}).items()}
        total = sum(a.size for a in arrays.values())
        self.values, self.grad = np.empty(total), np.zeros(total)
        self.adam_m, self.adam_v = np.zeros(total), np.zeros(total)
        self.params: dict[str, Param] = {}
        self.spans: dict[str, slice] = {}
        start = 0
        for name, a in arrays.items():
            self.spans[name] = span = slice(start, start + a.size)
            start = span.stop
            self.values[span] = a.reshape(-1)
            self.params[name] = Param(self.values[span].reshape(a.shape),
                                      self.grad[span].reshape(a.shape))
        self.written: set[str] = set()
        self.step = 0

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def names(self) -> list[str]:
        return list(self.params)

    def write_grads(self, grads: dict[str, np.ndarray]) -> None:
        """Copy each gradient into its parameter's view and mark it written."""
        unknown = set(grads) - set(self.params)
        if unknown:
            raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
        for name, g in grads.items():
            self.params[name].grad[...] = g
        self.written.update(grads)

    def zero_grads(self) -> None:
        self.written.clear()

    def grads(self) -> dict[str, np.ndarray]:
        """The written gradient views, in parameter order."""
        return {n: p.grad for n, p in self.params.items() if n in self.written}

    def written_spans(self) -> list[slice]:
        """The written parameters' spans, adjacent ones merged."""
        out: list[slice] = []
        for name, span in self.spans.items():
            if name not in self.written:
                continue
            if out and out[-1].stop == span.start:
                out[-1] = slice(out[-1].start, span.stop)
            else:
                out.append(span)
        return out


def clip_gradients(pset: ParamSet) -> float:
    """Scale the written gradients in place so their global L2 norm is <= GRAD_CLIP.

    Returns the norm before clipping, summed parameter by parameter.
    """
    total = 0.0
    for g in pset.grads().values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > GRAD_CLIP:
        factor = GRAD_CLIP / norm
        for span in pset.written_spans():
            pset.grad[span] *= factor
    return float(norm)


def adam_step(pset: ParamSet, lr: float) -> None:
    """Bias-corrected Adam update of the parameters whose gradient was written.

    Each run of adjacent written parameters is one slice of the buffers,
    updated with a few vector ops in the order of lr * m_hat / (sqrt(v_hat)
    + eps), through two temporaries; a parameter without a gradient keeps
    its value and its moments.
    """
    spans = pset.written_spans()
    if not all(np.isfinite(pset.grad[span]).all() for span in spans):
        bad = next(n for n, g in pset.grads().items() if not np.isfinite(g).all())
        raise GradientError(f"non-finite gradient for parameter {bad!r}")
    pset.step += 1
    t = pset.step
    for span in spans:
        g, m, v = pset.grad[span], pset.adam_m[span], pset.adam_v[span]
        tmp = (1.0 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += tmp
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        update = m / (1.0 - ADAM_BETA1**t)            # m_hat
        np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp)    # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update *= lr
        update /= tmp
        pset.values[span] -= update


def grad_check(
    loss_fn: Callable[[ParamSet], Loss],
    pset: ParamSet,
    eps: float = 1e-5,
    max_samples_per_tensor: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients with central finite differences.

    Returns max over sampled entries of |ga - gn| / max(1e-8, |ga| + |gn|).
    ``loss_fn`` must be deterministic; it is evaluated twice to verify.
    Each sampled entry is perturbed in the value buffer itself.
    """
    pset.zero_grads()
    with no_grad():
        first = float(loss_fn(pset).data)
        second = float(loss_fn(pset).data)
    if first != second:
        raise GradientError("loss function is not deterministic")

    backward(loss_fn(pset))
    analytic = {name: g.reshape(-1).copy() for name, g in pset.grads().items()}
    pset.zero_grads()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, span in pset.spans.items():
        flat = pset.values[span]
        n = flat.size
        if n <= max_samples_per_tensor:
            idxs = np.arange(n)
        else:
            idxs = np.sort(rng.choice(n, size=max_samples_per_tensor, replace=False))
        ga_flat = analytic.get(name, np.zeros(n))
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
