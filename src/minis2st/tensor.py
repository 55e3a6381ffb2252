"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value is a numpy float64 buffer wrapped in a Tensor.  Operations executed
while a Tape is active append (output, pullback) nodes to that tape, and their
outputs keep no reference to it.  backward(loss, tape) pops the nodes in reverse
insertion order, running each pullback once, so gradients reach every tensor
with requires_grad set and the tape ends empty, its graph freed on the way.
Gradients add across uses and across repeated backward calls; callers reset
with zero_grad().

The open Tape is the one recording rule: there is no switch that suspends it.
Inside it an op records when any input requires grad, so frozen weights on
constant inputs record nothing; outside it nothing is recorded and outputs
never require grad, which is what full inference passes use.  The fused ops
compute their forwards with array kernels (`affine`, `normalize`, `attend`);
cached decoding runs on arrays through those same kernels, so it makes no
Tensor and gives the ops' bits.

Every training loss term is one call of a loss op, recorded as one node:
`softmax_cross_entropy` over batch-shaped logits and a keep mask, or
`squared_error` against a constant target.  Each is the mean over utterances
of each utterance's own mean: `utterance_rows` is the one place that writes
the per-position weight 1 / (B * kept positions of its utterance).
"""
from __future__ import annotations

import math

import numpy as np

_tape = None  # the open Tape, if any


def _active_tape():
    return _tape


class Tape:
    """Append-only record of executed ops, single-threaded by construction:
    the open tape is one module-level value, set on entry and restored on
    exit."""

    def __init__(self):
        self.nodes = []  # list of (out Tensor, pullback fn)

    def __enter__(self):
        global _tape
        self._outer, _tape = _tape, self
        return self

    def __exit__(self, *exc):
        global _tape
        _tape = self._outer
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            # 0.0 + g in one pass, -0.0 becoming +0.0 as it does in a zeroed buffer
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out_data, inputs, pullback):
    """Wrap an op result; record it if a tape is active and any input needs grad."""
    out = Tensor(out_data)
    if _tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape.nodes.append((out, pullback))
    return out


def backward(loss: Tensor, tape: Tape):
    """Reverse pass from a scalar loss over `tape`, which must have recorded
    it; each node is popped once its pullback has run, so the tape ends
    empty."""
    if loss.data.ndim != 0:
        raise ValueError(f"backward requires a scalar, got shape {loss.data.shape}")
    if not any(out is loss for out, _ in reversed(tape.nodes)):
        raise ValueError("backward: the tape did not record this tensor")
    loss._accumulate(np.ones((), dtype=np.float64))
    while tape.nodes:
        out, pull = tape.nodes.pop()
        if out.grad is not None:
            pull(out.grad)


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def pull(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), pull)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def pull(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), pull)


# ------------------------------------------------------------- fused layers


def _affine_pull(g, x, w, b, want_x):
    """Pullback of x @ w + b (x an array of rows, any leading axes folded into
    them, so each weight gradient is one 2-D matmul): accumulate into b, then
    w, in the order the separate matmul and add nodes did; return x's
    gradient, shaped like x."""
    g2 = g.reshape(-1, g.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    if b.requires_grad:
        b._accumulate(_unbroadcast(g2, b.data.shape))
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if want_x:
        return (g2 @ w.data.T).reshape(x.shape)
    return None


def affine(x, w, b):
    """x @ w + b on arrays, leading axes of x folded into rows: the forward
    of `linear`."""
    if x.ndim == 2:
        return x @ w + b
    rows = x.reshape(-1, x.shape[-1])
    return (rows @ w + b).reshape(x.shape[:-1] + w.shape[-1:])


def linear(x, w, b):
    """x @ w + b as one node; leading axes of x fold into rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out_data = affine(x.data, w.data, b.data)

    def pull(g):
        gx = _affine_pull(g, x.data, w, b, want_x=x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return _make(out_data, (x, w, b), pull)


def attend(x, src, proj, heads, mask, cache=None):
    """The forward of `attention` on arrays: x (B, T, d) attends over src
    (B, S, d), proj holding the (weight, bias) arrays of the query, key,
    value and output projections.  Returns the output, shaped like x, and
    the (B, heads, T, dh) queries, (B, heads, dh, S) keys, (B, heads, S, dh)
    values, (B, heads, T, S) probabilities and (B * T, d) context rows that
    the pullback reads.

    With a cache, which serves one sequence (B = 1) and is the triple
    (keys, values, held) of two (rows, d) arrays and the count of rows they
    hold, src's S keys and values are written at rows [held, held + S) and
    x attends over all held + S rows.
    """
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = proj
    t, d = x.shape[-2:]
    b = x.size // (t * d)
    dh = d // heads
    q = (x.reshape(-1, d) @ wq + bq).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    k_rows = src.reshape(-1, d) @ wk + bk
    v_rows = src.reshape(-1, d) @ wv + bv
    if cache is not None:
        keys, values, held = cache
        end = held + k_rows.shape[0]
        keys[held:end], values[held:end] = k_rows, v_rows
        k_rows, v_rows = keys[:end], values[:end]
    s = k_rows.shape[0] // b
    k = k_rows.reshape(b, s, heads, dh).transpose(0, 2, 3, 1)
    v = v_rows.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
    # the scores become the probabilities in place: the same values as
    # out-of-place steps, without four more (B, heads, T, S) temporaries whose
    # churn makes the allocator return and re-fault pages on every call
    p = q @ k
    p *= 1.0 / math.sqrt(dh)
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = (p @ v).transpose(0, 2, 1, 3).reshape(b * t, d)
    return (ctx @ wo + bo).reshape(x.shape), q, k, v, p, ctx


def attention(x, src, proj, heads, mask):
    """Multi-head scaled dot-product attention of x (B, T, d) over src (B, S, d).

    A 2-D x and src are the B = 1 case of the same code.  proj holds the
    (weight, bias) pairs of the query, key, value and output projections;
    mask is an array added to the (B, heads, T, S) scores by broadcasting, or
    None: a (T, S) mask is shared by the whole batch, and a (B, 1, 1, S) key
    mask is per utterance.  Recorded as one node.  The forward (`attend`)
    makes the same NumPy calls as a graph composed of matmul, reshape,
    transpose and softmax nodes would, and the pullback accumulates in that
    graph's tape order, so results are bit-identical to it.
    """
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = proj
    out_data, q, k, v, p, ctx = attend(
        x.data, src.data,
        ((wq.data, bq.data), (wk.data, bk.data), (wv.data, bv.data), (wo.data, bo.data)),
        heads, mask)
    b, _, t, dh = q.shape
    d = heads * dh
    scale = 1.0 / math.sqrt(dh)

    # gradients are made C-ordered wherever the composed graph's were, so
    # every matmul and reduction sees the same memory layout
    def pull(g):
        gctx = _affine_pull(g, ctx, wo, bo, want_x=True)
        gctx = np.ascontiguousarray(np.transpose(gctx.reshape(b, t, heads, dh), (0, 2, 1, 3)))
        gp = gctx @ np.swapaxes(v, -1, -2)
        gv = np.swapaxes(p, -1, -2) @ gctx
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
        gq = gs @ np.swapaxes(k, -1, -2)
        gk = np.swapaxes(q, -1, -2) @ gs
        # value, key, query: the reverse of the order they were recorded in,
        # which is the order src and x took their shares
        for gh, inv, inp, w, bias in ((gv, (0, 2, 1, 3), src, wv, bv),
                                      (gk, (0, 3, 1, 2), src, wk, bk),
                                      (gq, (0, 2, 1, 3), x, wq, bq)):
            rows = np.ascontiguousarray(np.transpose(gh, inv)).reshape(-1, d)
            gin = _affine_pull(rows, inp.data, w, bias, want_x=inp.requires_grad)
            if gin is not None:
                inp._accumulate(gin)

    return _make(out_data, (x, src, wq, bq, wk, bk, wv, bv, wo, bo), pull)


def relu(x):
    x = _as_tensor(x)
    keep = x.data > 0
    out_data = np.where(keep, x.data, 0.0)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g * keep)

    return _make(out_data, (x,), pull)


# ------------------------------------------------------------ shape plumbing


def reshape(x, shape):
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def pull(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return _make(out_data, (x,), pull)


def concat(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of an empty list")
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def pull(g):
        offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return _make(out_data, tuple(parts), pull)


def embedding_lookup(table, indices):
    """Gather rows of a 2-d table; gradient scatter-adds into the table."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup expects a 2-d table, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding_lookup: index out of range for table with {table.data.shape[0]} rows"
        )
    out_data = table.data[idx]

    def pull(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return _make(out_data, (table,), pull)


# --------------------------------------------------------------- reductions


def weighted_sum(x, weights):
    """Sum of every entry of x times its weight; weights broadcast against x.
    An entry of weight 0 gets a zero gradient."""
    x = _as_tensor(x)
    w = np.asarray(weights, dtype=np.float64)
    out_data = (x.data * w).sum()

    def pull(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(w * g, x.data.shape))

    return _make(out_data, (x,), pull)


# ------------------------------------------------------- normalizing layers


# added to the variance in layernorm, keeping the inverse root finite
LAYERNORM_EPS = 1e-5


def normalize(x, gain, bias):
    """The forward of `layernorm` on arrays: returns the output and the
    normalized rows and inverse deviations that the pullback reads."""
    d = x.shape[-1]
    # each mean is what ndarray.mean computes, a sum then a division by d,
    # without its Python wrapper; the variance is np.var's own sequence of
    # operations, without its second pass for the mean
    dev = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(dev * dev, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = dev * inv
    return xhat * gain + bias, xhat, inv


def layernorm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then scale + shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(
            f"layernorm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match feature dim {d}"
        )
    out_data, xhat, inv = normalize(x.data, gain.data, bias.data)

    def pull(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
            x._accumulate((gx - m1 - xhat * m2) * inv)

    return _make(out_data, (x, gain, bias), pull)


# ------------------------------------------------------------------- losses


def utterance_rows(keep):
    """Flat indices of the kept entries of a (B, n) boolean array, one row of
    it per utterance, and each kept entry's weight 1 / (B * kept entries of
    its utterance): the weighted sum of per-entry losses over them is the mean
    over utterances of each utterance's mean loss.  ValueError for an empty
    batch or an utterance that keeps nothing."""
    keep = np.asarray(keep, dtype=bool)
    counts = keep.sum(axis=1)
    if counts.size == 0 or not counts.all():
        raise ValueError("a loss needs at least one kept position in every utterance")
    weights = np.broadcast_to((1.0 / (len(counts) * counts))[:, None], keep.shape)
    return np.flatnonzero(keep), weights[keep]


def softmax_cross_entropy(logits, targets, keep):
    """Cross-entropy of integer targets under softmax(logits), the mean over
    utterances of each utterance's mean over its kept positions.

    logits: (B, ..., V); targets: (B, ...) ints, in [0, V) wherever keep is
    set (the others are never read); keep: (B, ...) booleans, at least one
    per utterance.  The kept rows are gathered in row-major order and each
    weighs 1 / (B * kept positions of its utterance), from `utterance_rows`;
    every other position gets a zero gradient.  Stable via max subtraction.
    """
    logits = _as_tensor(logits)
    shape = logits.data.shape
    t = np.asarray(targets, dtype=np.int64)
    keep = np.asarray(keep, dtype=bool)
    if len(shape) < 2 or t.shape != shape[:-1] or keep.shape != t.shape:
        raise ValueError(f"softmax_cross_entropy: {t.shape} targets and {keep.shape} keep "
                         f"mask for {shape} logits")
    v = shape[-1]
    rows, weights = utterance_rows(keep.reshape(len(keep), math.prod(shape[1:-1])))
    t = t.reshape(-1)[rows]
    if t.min() < 0 or t.max() >= v:
        raise IndexError(f"softmax_cross_entropy: kept target outside [0, {v})")
    n = len(rows)
    x = logits.data.reshape(-1, v)[rows]
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out_data = -((z[np.arange(n), t] - lse[:, 0]) @ weights)

    def pull(g):
        if logits.requires_grad:
            p = np.exp(z - lse)
            p[np.arange(n), t] -= 1.0
            grad = np.zeros((logits.data.size // v, v))
            grad[rows] = p * (g * weights)[:, None]
            logits._accumulate(grad.reshape(shape))

    return _make(out_data, (logits,), pull)


def squared_error(x, target, weights):
    """Sum of every entry's squared error (x - target)**2 times its weight:
    target is a constant array of x's shape, and weights broadcast against
    x.  An entry of weight 0 gets a zero gradient."""
    x = _as_tensor(x)
    if np.shape(target) != x.shape:
        raise ValueError(f"squared_error: target shape {np.shape(target)} != {x.shape}")
    d = x.data - target
    w = np.asarray(weights, dtype=np.float64)
    out_data = (d * d * w).sum()

    def pull(g):
        if x.requires_grad:
            gd = (w * g) * d
            x._accumulate(gd + gd)

    return _make(out_data, (x,), pull)


# ----------------------------------------------------------------- seeding


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive stable child seeds from labels."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def seed_for(seed: int, label: str) -> int:
    """Deterministic 64-bit child seed for (seed, label)."""
    h = splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    for b in label.encode("utf-8"):
        h = splitmix64(h ^ b)
    return h


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Named random stream, reproducible from a single run seed."""
    return np.random.default_rng(seed_for(seed, label))
