"""Small neural-net layer kit on top of the tensor core.

Modules hold Tensors in attributes; named_tensors() walks the attribute tree and
yields stable dotted names, which is what the optimizer and checkpoints key on.
`positions` and `causal_mask` own the cached, read-only position and mask
tables, `right_pad` the layout of a right-padded batch and `decode_cached` the
key and value arrays of incremental decoding; every caller goes through them.
Cached decoding runs on plain arrays: `block_step` is a self-attention block's
forward composed of the tensor ops' own kernels, so it gives the block's bits
without a Tensor; cross-attention blocks run full passes only.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Tensor,
    add,
    affine,
    attend,
    attention,
    layernorm,
    linear,
    no_grad,
    normalize,
    relu,
)


class Module:
    def named_tensors(self, prefix: str = ""):
        """Yield (dotted_name, Tensor) for every tensor hanging off this module."""
        for name in sorted(vars(self)):
            value = vars(self)[name]
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_tensors(key + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(f"{key}.{i}.")
                    elif isinstance(item, Tensor):
                        yield f"{key}.{i}", item

    def trainable(self) -> dict:
        return {k: t for k, t in self.named_tensors() if t.requires_grad}

    def freeze(self):
        for _, t in self.named_tensors():
            t.requires_grad = False
        return self

def param(rng: np.random.Generator, shape, scale=None) -> Tensor:
    if scale is None:
        fan_in = shape[0] if len(shape) > 1 else shape[-1]
        scale = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w = param(rng, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.g = Tensor(np.ones(d), requires_grad=True)
        self.b = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layernorm(x, self.g, self.b)


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Classic fixed sin/cos position table, shape (n, d)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (dim // 2)) / d)
    table = np.zeros((n, d))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


# (n, d) -> read-only position table; n is bounded by the longest input
_POSITIONS: dict = {}


def positions(n: int, d: int) -> np.ndarray:
    """The read-only (n, d) position table, built on first use and then shared."""
    table = _POSITIONS.get((n, d))
    if table is None:
        table = sinusoidal_positions(n, d)
        table.flags.writeable = False
        _POSITIONS[n, d] = table
    return table


def add_positions(x: Tensor) -> Tensor:
    """x plus the position table of its last two axes, shared by any leading ones."""
    return add(x, Tensor(positions(*x.shape[-2:])))


def expand(x: Tensor, lead: tuple) -> Tensor:
    """x repeated over the leading axes `lead`, e.g. one learned prefix per
    utterance of a batch; the gradient sums over them.  x itself when `lead`
    is empty."""
    return add(Tensor(np.zeros(lead + x.shape)), x) if lead else x


# the read-only (m, m) causal mask table of the longest sequence so far,
# built on first use
_CAUSAL = np.zeros((0, 0))


def causal_mask(n: int, past: int) -> np.ndarray:
    """(n, past + n) additive mask for n rows that follow `past` earlier ones:
    row i sees columns up to past + i.  A read-only view of one shared table,
    rebuilt larger when a longer sequence comes."""
    global _CAUSAL
    m = past + n
    if _CAUSAL.shape[0] < m:
        # large negative instead of -inf keeps the arithmetic finite everywhere
        table = np.triu(np.full((m, m), -1e9), k=1)
        table.flags.writeable = False
        _CAUSAL = table
    return _CAUSAL[past:m, :m]


def padding_mask(lengths) -> np.ndarray | None:
    """(B, 1, 1, S) additive key mask of a right-padded batch, S the longest
    of the per-utterance lengths: utterance b sees only its first lengths[b]
    keys.  None when no utterance is padded, so an unpadded batch (and every
    lone utterance) attends exactly as it would without one."""
    lengths = np.asarray(lengths)
    s = int(lengths.max())
    if (lengths == s).all():
        return None
    pad = np.arange(s) >= lengths[:, None]
    return np.where(pad, -1e9, 0.0)[:, None, None, :]


def right_pad(seqs, fill):
    """Sequences of rows (each (n, ...) with the same trailing shape) as one
    (B, N, ...) array, N the longest n, filled on the right with `fill`, whose
    type the array takes; and the per-utterance n as an array."""
    arrays = [np.asarray(s) for s in seqs]
    lengths = np.array([len(a) for a in arrays])
    fill = np.asarray(fill)
    out = np.full((len(arrays), int(lengths.max())) + arrays[0].shape[1:], fill,
                  dtype=fill.dtype)
    for i, a in enumerate(arrays):
        out[i, : len(a)] = a
    return out, lengths


def run_blocks(blocks, x: Tensor, *, causal: bool = False, mask: np.ndarray | None = None,
               memory: Tensor | None = None, memory_mask: np.ndarray | None = None):
    """Run x, (T, d) or a batch (B, T, d), through a stack of
    TransformerBlocks, each cross-attending to memory (with x's leading axes)
    if it has cross-attention.  causal masks every later position; mask, a
    `padding_mask` of x's rows, hides pad keys from self-attention, and
    memory_mask those of memory from cross-attention."""
    if causal:
        own = causal_mask(x.shape[-2], 0)
        mask = own if mask is None else mask + own
    for blk in blocks:
        x = blk(x, memory=memory, mask=mask, memory_mask=memory_mask)
    return x


def block_step(w, x, mask, cache):
    """`TransformerBlock.__call__` on arrays, for the self-attention block
    whose `arrays()` is w, its attention writing x's keys and values into
    `cache`, `attend`'s (keys, values, held): the same kernels in the same
    order, so the same bits, with no Tensor made."""
    ln1, (proj, heads), ln2, (ff1, ff2) = w
    h = normalize(x, *ln1)[0]
    x = x + attend(h, h, proj, heads, mask, cache)[0]
    r = affine(normalize(x, *ln2)[0], *ff1)
    return x + affine(np.where(r > 0, r, 0.0), *ff2)


def decode_cached(blocks, ln_f, rows, prefix, step):
    """Causal decoding through self-attention blocks on arrays: the (n, d)
    rows prefix() gives, then each chunk step returns, go through
    `block_step` and attend to every row before them; step gets ln_f of the
    chunk's last output row, a (1, d) array, and returns None to stop.  The
    keys and values live in one (len(blocks), rows, d) array each, made once
    prefix() gives d, so feeding more than `rows` rows in all raises
    ValueError.  Each block's weights are gathered once per call.  Nothing
    is recorded on a tape, the prefix included.  Returns the rows fed."""
    weights = [blk.arrays() for blk in blocks]
    gain, bias = ln_f.g.data, ln_f.b.data
    held = 0
    with no_grad():
        x = prefix()
        keys = np.empty((len(blocks), rows, x.shape[1]))
        values = np.empty_like(keys)
        while x is not None:
            mask = causal_mask(x.shape[0], held)
            for w, k, v in zip(weights, keys, values):
                x = block_step(w, x, mask, (k, v, held))
            held += x.shape[0]
            x = step(normalize(x[-1:], gain, bias)[0])
    return held


class MultiHeadAttention(Module):
    """Scaled dot-product attention, (T, d) or (B, T, d) in, the same shape out."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        if d % heads != 0:
            raise ValueError(f"model dim {d} not divisible by heads {heads}")
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        # softmax is shift-invariant per query row, so a key bias has a true
        # gradient of 0: training it would only accumulate rounding noise
        self.wk.b.requires_grad = False
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        self._heads = heads

    def __call__(self, x: Tensor, memory: Tensor | None = None, mask: np.ndarray | None = None):
        proj = [(lin.w, lin.b) for lin in (self.wq, self.wk, self.wv, self.wo)]
        return attention(x, x if memory is None else memory, proj, self._heads, mask)


class FeedForward(Module):
    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.w1 = Linear(d, hidden, rng)
        self.w2 = Linear(hidden, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(relu(self.w1(x)))


class TransformerBlock(Module):
    """Pre-norm block: self-attention under `mask`, optional cross-attention
    under `memory_mask`, feed-forward.  `block_step` runs the same forward on
    arrays for a block with no cross-attention, its self-attention over
    cached keys and values."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator, cross: bool = False):
        self.ln1 = LayerNorm(d)
        self.attn = MultiHeadAttention(d, heads, rng)
        if cross:
            self.ln_x = LayerNorm(d)
            self.cross = MultiHeadAttention(d, heads, rng)
        else:
            self.cross = None
        self.ln2 = LayerNorm(d)
        self.ff = FeedForward(d, 2 * d, rng)

    def __call__(self, x: Tensor, memory: Tensor | None = None, mask: np.ndarray | None = None,
                 memory_mask: np.ndarray | None = None):
        x = add(x, self.attn(self.ln1(x), mask=mask))
        if self.cross is not None:
            if memory is None:
                raise ValueError("cross-attention block called without memory")
            x = add(x, self.cross(self.ln_x(x), memory=memory, mask=memory_mask))
        x = add(x, self.ff(self.ln2(x)))
        return x

    def arrays(self) -> tuple:
        """This block's weights as the arrays `block_step` reads, in its
        order: ln1, the attention's four projections and head count, ln2, and
        the feed-forward's two layers.  Raises for a cross-attention block."""
        if self.cross is not None:
            raise ValueError("the array step runs self-attention blocks only")
        a, f = self.attn, self.ff
        wb = [(m.w.data, m.b.data) for m in (a.wq, a.wk, a.wv, a.wo, f.w1, f.w2)]
        return ((self.ln1.g.data, self.ln1.b.data), (wb[:4], a._heads),
                (self.ln2.g.data, self.ln2.b.data), wb[4:])
