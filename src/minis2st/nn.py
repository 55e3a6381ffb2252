"""Small neural-net layer kit on top of the tensor core.

Modules hold Tensors in attributes; named_tensors() walks the attribute tree and
yields stable dotted names, which is what the optimizer and checkpoints key on.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Tensor,
    add,
    layernorm,
    matmul,
    relu,
    reshape,
    softmax,
    transpose,
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
        return add(matmul(x, self.w), self.b)


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


def add_positions(x: Tensor) -> Tensor:
    t, d = x.shape
    return add(x, Tensor(sinusoidal_positions(t, d)))


def causal_mask(n: int) -> Tensor:
    # large negative instead of -inf keeps the arithmetic finite everywhere
    return Tensor(np.triu(np.full((n, n), -1e9), k=1))


class MultiHeadAttention(Module):
    """Scaled dot-product attention, (T, d) in, (T, d) out."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        if d % heads != 0:
            raise ValueError(f"model dim {d} not divisible by heads {heads}")
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        self._heads = heads
        self._dh = d // heads

    def __call__(self, x: Tensor, memory: Tensor | None = None, mask: Tensor | None = None):
        src = x if memory is None else memory
        t, d = x.shape
        s = src.shape[0]
        h, dh = self._heads, self._dh
        q = transpose(reshape(self.wq(x), (t, h, dh)), (1, 0, 2))
        k = transpose(reshape(self.wk(src), (s, h, dh)), (1, 2, 0))
        v = transpose(reshape(self.wv(src), (s, h, dh)), (1, 0, 2))
        scores = matmul(q, k) * (1.0 / math.sqrt(dh))
        if mask is not None:
            scores = add(scores, mask)
        ctx = matmul(softmax(scores), v)  # (h, t, dh)
        return self.wo(reshape(transpose(ctx, (1, 0, 2)), (t, d)))


class FeedForward(Module):
    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.w1 = Linear(d, hidden, rng)
        self.w2 = Linear(hidden, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(relu(self.w1(x)))


class TransformerBlock(Module):
    """Pre-norm block: self-attention, optional cross-attention, feed-forward."""

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

    def __call__(self, x: Tensor, memory: Tensor | None = None, mask: Tensor | None = None):
        x = add(x, self.attn(self.ln1(x), mask=mask))
        if self.cross is not None:
            if memory is None:
                raise ValueError("cross-attention block called without memory")
            x = add(x, self.cross(self.ln_x(x), memory=memory))
        x = add(x, self.ff(self.ln2(x)))
        return x

