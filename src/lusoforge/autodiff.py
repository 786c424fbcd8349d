"""Reverse-mode automatic differentiation over dense numpy tensors.

The operator set is deliberately closed: matmul, add, mul, scale, transpose,
reshape, narrow, take, shift_seq, gather_last, softmax, layer_norm, gelu,
embedding, dropout, sum/mean, and cross_entropy. Everything the encoder
needs is composed from these, which keeps the gradient-check surface finite.

Graphs are define-by-run: each op returns a new Tensor holding a backward
closure and its parents. `backward(loss)` walks the graph once in reverse
topological order and releases it as it goes: once a node's closure has
run, the node drops its gradient, closure and parents, so each activation
and intermediate gradient is freed as soon as backward has used it. Only
the leaves keep their gradients. A walked graph is consumed: a second
backward on it raises. Gradients accumulate in
place into a tensor's own `.grad` array; a fresh, C-contiguous gradient
becomes that array as it is, and anything else is copied to C order.
Inside `with no_grad():` ops record no parents and no closure, so
inference builds no graph at all.

The hot kernels are shaped for numpy rather than written as the textbook
loop: a weight product runs as one 2-D GEMM over every leading position,
`gather_last` reads one cached flat index and scatters back with a constant
0/1 sparse product, the embedding backward sums the rows of each id once and
adds only those rows, and GELU evaluates erf by a rational approximation in
float32 (scipy's erf in float64, so float64 gradient checks see the exact
function).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.special import erf

from lusoforge.errors import ContractError, EmptyLossError, ShapeError

IGNORE_INDEX = -100  # a label that `cross_entropy` leaves out of the loss
_ALLOWED_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_grad_enabled = True  # False inside `no_grad()`


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    data is always float32 or float64, row-major. Gradients, when present,
    match the tensor's shape exactly.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@contextmanager
def no_grad():
    """Build no graph inside this scope: ops return parentless tensors that
    keep no backward closure, as for inference. The previous state comes
    back on exit, so scopes nest."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_ran = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    """Add g into t.grad, which is always t's own C-contiguous array, so
    later contributions are added to it in place.

    The first contribution becomes t.grad as it is when it is a writeable,
    C-contiguous ndarray: backward closures hand each parent either a fresh
    array or a view of the walked node's gradient, which that node releases
    right after. Anything else is copied to C order. A closure that passes
    one array to two parents copies it for the second (see `add`).
    """
    if t.grad is None:
        if isinstance(g, np.ndarray) and g.flags.c_contiguous and g.flags.writeable:
            t.grad = g
        else:
            t.grad = np.array(g, order="C")
    else:
        np.add(t.grad, g, out=t.grad)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            if gb is a.grad and a is not b:  # a has just taken g as its own grad
                gb = gb.copy()
            _accumulate(b, gb)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _make(data, (a,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading dims.

    A product with a 2-D weight, [..., h] @ [h, n], runs as one 2-D GEMM over
    the [prod(...), h] view, and its weight gradient is one GEMM too.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim == 2:
        a2d = a.data.reshape(-1, a.shape[-1])
        data = (a2d @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

        def weight_backward(g):
            g2d = g.reshape(-1, b.shape[1])
            if a.requires_grad:
                _accumulate(a, (g2d @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accumulate(b, a2d.T @ g2d)

        return _make(data, (a, b), weight_backward)
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.transpose(g, inv))

    return _make(data, (a,), backward)


def swap_last2(a: Tensor) -> Tensor:
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(old))

    return _make(data, (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = a.data[index]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[index] = g
            _accumulate(a, full)

    return _make(data, (a,), backward)


def take(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along `axis`, dropping that axis (e.g. CLS pooling)."""
    data = np.take(a.data, index, axis=axis)
    sl = [slice(None)] * a.ndim
    sl[axis] = index
    sl = tuple(sl)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[sl] = g
            _accumulate(a, full)

    return _make(data, (a,), backward)


def _move_columns(x: np.ndarray, dst: slice, src: slice) -> np.ndarray:
    """A new array with x[:, src] at [:, dst] and zeros elsewhere along axis 1."""
    out = np.empty_like(x)
    out[:, dst] = x[:, src]
    out[:, :dst.start] = 0
    out[:, dst.stop:] = 0
    return out


def shift_seq(a: Tensor, offset: int) -> Tensor:
    """Shift along axis 1 by `offset`, filling vacated positions with zeros.

    out[:, i] = a[:, i - offset]; used to express 1-D convolutions as a sum
    of shifted matmuls.
    """
    n = a.shape[1]
    offset = max(-n, min(offset, n))
    dst = slice(max(offset, 0), n + min(offset, 0))  # out[:, dst] = a[:, src]
    src = slice(max(-offset, 0), n - max(offset, 0))
    data = _move_columns(a.data, dst, src)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _move_columns(g, src, dst))

    return _make(data, (a,), backward)


@lru_cache(maxsize=16)
def _gather_plan(shape: tuple[int, int], width: int, index_bytes: bytes):
    """Flat gather index and the CSR structure of the scatter matrix.

    For an index of `shape` [q, m] over rows of `width` entries, flat[r] is
    the position `i*width + index[i, j]` (r = i*m + j) in the [q*width]
    view of one [q, width] slab. The scatter matrix is the constant 0/1
    [q*width, q*m] matrix with a 1 at (flat[r], r); its row c lists, in
    ascending order, every gathered position read from c. Only integer
    arrays are kept, so one plan serves every float dtype.
    """
    q, m = shape
    index = np.frombuffer(index_bytes, dtype=np.int64).reshape(shape)
    if index.size and (index.min() < 0 or index.max() >= width):
        raise ShapeError(f"gather_last index entries outside [0, {width}): "
                         f"min={index.min()} max={index.max()}")
    flat = (np.arange(q)[:, None] * width + index).reshape(-1)
    cols = np.argsort(flat, kind="stable")
    indptr = np.zeros(q * width + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=q * width), out=indptr[1:])
    for arr in (flat, cols, indptr):
        arr.flags.writeable = False  # shared by every call with this index
    return flat, cols, indptr


def gather_last(a: Tensor, index: np.ndarray) -> Tensor:
    """Gather along the last axis with a shared 2-D index matrix.

    a has shape [..., q, B]; index has shape [q, m] with entries in [0, B).
    out[..., i, j] = a[..., i, index[i, j]]. Forward is one take over the
    [N, q*B] view; backward scatter-adds as one product with the constant
    0/1 scatter matrix, so a repeated (clipped) bucket sums its entries in
    ascending position order.
    """
    index = np.ascontiguousarray(index, dtype=np.int64)
    if index.ndim != 2 or a.ndim < 2 or index.shape[0] != a.shape[-2]:
        raise ShapeError(f"gather_last index {index.shape} incompatible with {a.shape}")
    (q, m), width = index.shape, a.shape[-1]
    flat, cols, indptr = _gather_plan(index.shape, width, index.tobytes())
    data = np.take(a.data.reshape(-1, q * width), flat, axis=1).reshape(a.shape[:-1] + (m,))

    def backward(g):
        if a.requires_grad:
            # imported on first use: commands that run no autodiff never load scipy.sparse
            from scipy.sparse import csr_array

            scatter = csr_array((np.ones(cols.size, dtype=g.dtype), cols, indptr),
                                shape=(q * width, q * m))
            ga = (scatter @ g.reshape(-1, q * m).T).T
            _accumulate(a, ga.reshape(a.shape))

    return _make(data, (a,), backward)


def _sum_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique ids, the sum of the rows of each id)."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    rows = rows[order]
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ids[starts], np.add.reduceat(rows, starts, axis=0)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; ids is an integer ndarray."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()} max={ids.max()}"
        )
    data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            rows, sums = _sum_rows(ids.reshape(-1), g.reshape(-1, table.shape[-1]))
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            table.grad[rows] += sums

    return _make(data, (table,), backward)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; rows sum to 1 along `axis`. NaN input propagates."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            _accumulate(a, data * (g - dot))

    return _make(data, (a,), backward)


# Odd rational erf(x) = x * P(x^2) / Q(x^2) on x clamped to [-4, 4], the
# float32 form of Eigen and XLA. Evaluated in float32 it is within 4.7e-7 of
# erf over every float32 (checked exhaustively on [2^-6, 4]; erf is odd and
# the clamp is exact to float32 beyond 4).
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
# Entries per pass, so the Horner passes stay in cache. Whole-array passes
# give the same bits but raised pretrain-v8k peak RSS by 1.5 MB (190.8 ->
# 192.3 MB, worse in 6 of 6 benchmark pairs), so the blocking stays.
_ERF32_BLOCK = 1 << 15


def _erf32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array by the clamped odd rational; NaN stays NaN and
    +-inf give +-1, as scipy's erf does."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    n = min(flat.size, _ERF32_BLOCK)
    z, z2, den = np.empty(n, np.float32), np.empty(n, np.float32), np.empty(n, np.float32)
    for start in range(0, flat.size, _ERF32_BLOCK):
        stop = min(start + _ERF32_BLOCK, flat.size)
        k = stop - start
        zk, z2k, dk, num = z[:k], z2[:k], den[:k], out[start:stop]
        np.clip(flat[start:stop], -4.0, 4.0, out=zk)
        np.multiply(zk, zk, out=z2k)
        np.multiply(z2k, _ERF32_P[0], out=num)
        num += _ERF32_P[1]
        for c in _ERF32_P[2:]:
            num *= z2k
            num += c
        num *= zk
        np.multiply(z2k, _ERF32_Q[0], out=dk)
        dk += _ERF32_Q[1]
        for c in _ERF32_Q[2:]:
            dk *= z2k
            dk += c
        num /= dk
    return out.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    erf is the rational `_erf32` for float32 input (max abs error 4.7e-7)
    and scipy's erf for float64, so float64 gradient checks see the exact
    function. The backward uses the exact normal density in both.
    """
    x = a.data
    if x.dtype == np.float32:
        phi = _erf32(x * np.float32(_INV_SQRT2))
        phi += 1.0
        phi *= 0.5
    else:
        phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi

    def backward(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            _accumulate(a, g * (phi + x * pdf))

    return _make(data.astype(x.dtype, copy=False), (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-7) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, (gx - m1 - xhat * m2) * inv)

    return _make(data.astype(x.dtype, copy=False), (x, gain, bias), backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout. rng=None means evaluation: identity, no RNG draw."""
    if rng is None or rate <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    data = a.data * keep

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * keep)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and losses


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, g))

    return _make(data, (a,), backward)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, g / n))

    return _make(data, (a,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood over rows whose label != IGNORE_INDEX.

    logits: [N, V]; labels: int array [N]. reduction "mean" divides by the
    number of contributing rows; "sum" leaves the raw total (useful when an
    outer loop does its own weighting, e.g. gradient accumulation).
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(f"cross_entropy got logits {logits.shape} vs labels {labels.shape}")
    active = labels != IGNORE_INDEX
    count = int(active.sum())
    if count == 0:
        raise EmptyLossError("cross_entropy: every label is ignored; empty loss")

    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    rows = np.nonzero(active)[0]
    nll = lse[rows] - x[rows, labels[rows]]
    total = nll.sum()
    denom = count if reduction == "mean" else 1
    data = np.asarray(total / denom, dtype=x.dtype)

    def backward(g):
        if logits.requires_grad:
            gl = np.zeros_like(x)
            sub = x[rows]
            sub = np.exp(sub - sub.max(axis=1, keepdims=True))
            probs = sub / sub.sum(axis=1, keepdims=True)
            probs[np.arange(rows.size), labels[rows]] -= 1.0
            gl[rows] = probs * (g / denom)
            _accumulate(logits, gl)

    return _make(data, (logits,), backward)


# ---------------------------------------------------------------------------
# graph traversal


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate .grad for every requires_grad leaf reachable from `loss`.

    loss must be a scalar. The walk releases the graph behind it: each
    non-leaf node, the loss included, ends with no grad, closure or parents,
    and is marked as walked. The graph is therefore single-use: backward
    raises ContractError on any graph that holds a walked node, since its
    gradients would be partial.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    if any(node._backward_ran for node in order):
        raise ContractError("backward already walked (and released) this graph; "
                            "build it again")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None
            node._backward = None
            node._parents = ()
            node._backward_ran = True
    return loss
