"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers the closure that propagates its
gradient to its parents. Calling backward() on a scalar walks the graph in
reverse topological order. Only the ops needed by the sequence model are
implemented; its attention node, which knows about heads and lengths, is
built on ``_child`` in transformer.py.

``ndarray + Tensor`` and ``ndarray @ Tensor`` build nodes too (a Tensor
turns numpy's operators down), and ``Tensor * float`` scales.
``normalize``, ``relu``, ``log_softmax``, ``embedding``, ``reshape``,
``concat`` and ``columns`` on plain arrays return a plain array and build no
node, so one transformer layer, and the one function that folds its
parameters into projection weights, serve inference and training.

Gradients move by reference: an op may hand one array to several parents or
pass a view of its incoming gradient on, and accumulation always builds a new
array, so no gradient array is ever written in place. Once a node has
propagated its gradient the node drops it; after backward() only leaf
tensors (those without a backward closure) hold ``.grad``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")
    __array_ufunc__ = None  # ndarray + / @ Tensor reach __radd__ / __rmatmul__

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _bw: Callable | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._bw = _bw

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _accum(self, g: np.ndarray) -> None:
        # never in place: g may be shared with another parent or be a view
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None and node.grad is not None:
                node._bw(node.grad)
                node.grad = None

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _child(data, parents: Sequence[Tensor], bw: Callable) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=req,
        _parents=tuple(parents) if req else (),
        _bw=bw if req else None,
    )


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _child(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _child(out_data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if a.data.ndim == 1:  # a vector times matrices
                gb = a.data[:, None] * g[..., None, :]
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
            b._accum(_unbroadcast(gb, b.data.shape))

    return _child(out_data, (a, b), bw)


def _data(x):
    return x.data if isinstance(x, Tensor) else x


def relu(a):
    """max(a, 0); a plain array for a plain a."""
    out = np.maximum(_data(a), 0.0)
    if not isinstance(a, Tensor):
        return out
    mask = a.data > 0

    def bw(g):
        if a.requires_grad:
            a._accum(g * mask)

    return _child(out, (a,), bw)


def log_softmax(a, axis: int = -1):
    """Log-softmax over one axis; a plain array for a plain a."""
    x = _data(a)
    y = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    y -= np.log(np.add.reduce(np.exp(y), axis=axis, keepdims=True))
    if not isinstance(a, Tensor):
        return y
    sm = np.exp(y)

    def bw(g):
        if a.requires_grad:
            a._accum(g - sm * np.add.reduce(g, axis=axis, keepdims=True))

    return _child(y, (a,), bw)


@lru_cache(maxsize=256)
def column(n: int, value: float) -> np.ndarray:
    """A read-only (n, 1) column of value. The product of (..., n) rows with
    it is their sum (value 1) or mean (value 1 / n), a BLAS call that is
    faster than a reduction along the last axis. The cache is bounded: a
    stream's attention asks for one column per key count."""
    col = np.full((n, 1), value)
    col.flags.writeable = False
    return col


def normalize(x, eps: float = 1e-5):
    """(x - mean) / sqrt(var + eps) over the last axis: layer norm without
    its gain and bias, which the next projection's weights hold. The row
    mean and the centered rows' mean square are each one (rows, n) @ (n, 1)
    product. A plain array for a plain x."""
    xd = x.data if isinstance(x, Tensor) else x
    col = column(xd.shape[-1], 1.0 / xd.shape[-1])
    # the fresh-array formula's steps in order in reused buffers, bit for bit
    xhat = xd - xd.dot(col)
    sq = xhat * xhat
    std = sq.dot(col)
    std += eps
    np.sqrt(std, out=std)
    xhat /= std
    if not isinstance(x, Tensor):
        return xhat

    def bw(g):
        if x.requires_grad:
            # (g - mean(g) - xhat * mean(g * xhat)) / std
            dx = g - g.dot(col)
            np.multiply(g, xhat, out=sq)
            dx -= np.multiply(xhat, sq.dot(col), out=sq)
            dx /= std
            x._accum(dx)

    return _child(xhat, (x,), bw)


def embedding(table, ids: np.ndarray):
    """Row gather: out[..., :] = table[ids[...], :]; a plain array for a
    plain table."""
    ids = np.asarray(ids, dtype=np.int64)
    out = _data(table)[ids]
    if not isinstance(table, Tensor):
        return out

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
            table._accum(gt)

    return _child(out, (table,), bw)


def reshape(a, shape: tuple):
    """a with a new shape; a plain array for a plain a."""
    if not isinstance(a, Tensor):
        return np.reshape(a, shape)

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return _child(a.data.reshape(shape), (a,), bw)


def concat(parts: Sequence, axis: int = -1):
    """np.concatenate of parts along one axis; a plain array when no part is
    a Tensor."""
    out = np.concatenate([_data(p) for p in parts], axis=axis)
    if not any(isinstance(p, Tensor) for p in parts):
        return out
    parts = [_wrap(p) for p in parts]
    cuts = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for p, gp in zip(parts, np.split(g, cuts, axis=axis)):
            if p.requires_grad:
                p._accum(gp)

    return _child(out, parts, bw)


def columns(a, start: int, stop: int):
    """a[..., start:stop]; a plain array for a plain a."""
    out = _data(a)[..., start:stop]
    if not isinstance(a, Tensor):
        return out

    def bw(g):
        if a.requires_grad:
            ga = np.zeros(a.data.shape)
            ga[..., start:stop] = g
            a._accum(ga)

    return _child(out, (a,), bw)


def sum_all(a) -> Tensor:
    a = _wrap(a)

    def bw(g):
        if a.requires_grad:
            a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _child(a.data.sum(), (a,), bw)
