"""Reverse-mode automatic differentiation over float64 numpy buffers.

One context-local switch decides whether an op records: the active tape,
a list of nodes, or None while recording is off (``no_grad``). An op on
tensors that require gradients appends a node to it. ``backward`` replays
the tape in reverse creation order, which is a valid topological order by
construction. Parameters (leaf tensors) survive tape clearing;
intermediate activations do not.

All math is float64. Structurally unreachable lattice cells and masked
attention scores use the ``NEG_INF`` sentinel. Attention, biased
Linear, LayerNorm, the MoE expert mix and the mean of loss terms are one
node each, with a hand-written backward; so are the cross-entropy
(``nn.cross_entropy``) and CTC (``ctc.ctc_losses``, one node for a
batch of sequences) losses, registered through ``record_custom``. An
embedding lookup is a row gather (``gather_rows``). Attention also takes
packed sequences: segment ``lengths`` over its rows keep each row to its
own sequence, so every other op runs row-wise over a whole packed batch
at once. It runs the segments of each length as one grid, or all of them
as one padded grid where padding is cheaper (``GRID_CELLS``). A packed
cross-attention also takes ``key_lengths`` over its context, one key
segment per query segment, so a batch of contexts fuses with its texts
in one node, on one padded grid. For inference it takes a ``KVCache``:
the keys and values of earlier rows, so a decoding step projects only its
new row.

``relu``, ``log_softmax_last_dim`` and ``softplus`` build their
derivatives (a mask, a softmax, a sigmoid) only in their backward, so an
unrecorded call makes no such array.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, DomainError, OracleError, ShapeError

# glibc returns a freed step's arrays to the OS (arrays above its mmap
# threshold, and the heap top above its trim threshold), so the next step
# page-faults the same memory in again. Fixing both thresholds keeps those
# pages in the process; fixing one lets glibc keep moving the other.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no glibc: leave malloc as is
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, glibc's largest
    _mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD: 1 GiB

NEG_INF = -1.0e30


class _Node:
    __slots__ = ("kind", "out", "backward_fn")

    def __init__(self, kind, out, backward_fn):
        self.kind = kind
        self.out = out
        self.backward_fn = backward_fn


# The active tape: the nodes recorded so far, or None while recording is
# off. It is context-local, so ``no_grad`` or ``fresh_tape`` in one thread
# (or asyncio task) leaves the others' recording as it was. Every context
# starts on this one shared module tape, so trainers that run at once each
# enter ``fresh_tape()``.
_ACTIVE_TAPE = ContextVar("unitforge_tape", default=[])


def reset_tape():
    """Empty the active tape, if recording is on."""
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape.clear()


@contextmanager
def _swap(tape):
    """Make ``tape`` the active tape until exit, then restore the previous
    one. Recording that is off stays off."""
    saved = _ACTIVE_TAPE.get()
    _ACTIVE_TAPE.set(None if saved is None else tape)
    try:
        yield tape
    finally:
        _ACTIVE_TAPE.set(saved)


def fresh_tape():
    """Record on a new empty tape (a list of nodes, which it yields) until
    exit. Under ``no_grad`` the tape stays empty: recording stays off."""
    return _swap([])


def no_grad():
    """Record nothing until exit: ops give untracked outputs even from
    tensors that require gradients."""
    return _swap(None)


class Tensor:
    """Dense float64 value with optional gradient buffer and tape position."""

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node_id = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(arr) -> Tensor:
    """Tensor around an op's freshly computed result, without a copy.

    The result must own its memory or at least share none with the op's
    inputs: leaf ``.data`` is written in place by AdamW and by callers.
    """
    arr = np.asarray(arr, dtype=np.float64)
    t = Tensor.__new__(Tensor)
    t.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    t.requires_grad = False
    t.grad = None
    t.node_id = None
    return t


def tracked(*tensors) -> bool:
    """Whether an op on ``tensors`` is recorded: recording is on (there is
    an active tape) and some input requires grad, as every op output on
    the active tape does."""
    if _ACTIVE_TAPE.get() is not None:
        for t in tensors:
            if isinstance(t, Tensor) and t.requires_grad:
                return True
    return False


def _check_nonempty(kind, *tensors):
    for t in tensors:
        if isinstance(t, Tensor) and t.data.size == 0:
            raise DomainError(f"{kind}: empty tensor operand")


def _record(kind, out, backward_fn, *inputs):
    if tracked(*inputs):
        tape = _ACTIVE_TAPE.get()
        out.requires_grad = True
        out.node_id = len(tape)
        tape.append(_Node(kind, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_nonempty("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = _wrap(a.data @ b.data)

    def bwd(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return _record("matmul", out, bwd, a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_nonempty("add", a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    out = _wrap(a.data + b.data)

    def bwd(g):
        return [(a, g), (b, g)]

    return _record("add", out, bwd, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_nonempty("mul", a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")
    out = _wrap(a.data * b.data)

    def bwd(g):
        return [(a, g * b.data), (b, g * a.data)]

    return _record("mul", out, bwd, a, b)


def scale(a: Tensor, s: float) -> Tensor:
    _check_nonempty("scale", a)
    s = float(s)
    out = _wrap(a.data * s)

    def bwd(g):
        return [(a, g * s)]

    return _record("scale", out, bwd, a)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def concat_rows(*xs: Tensor) -> Tensor:
    _check_nonempty("concat_rows", *xs)
    tail = xs[0].data.shape[1:]
    for x in xs:
        if x.data.shape[1:] != tail:
            raise ShapeError(
                f"concat_rows: trailing shapes differ "
                f"({[x.data.shape for x in xs]})"
            )
    out = _wrap(np.concatenate([x.data for x in xs], axis=0))
    heights = [x.data.shape[0] for x in xs]
    offsets = np.cumsum([0] + heights)

    def bwd(g):
        return [
            (x, g[offsets[i]:offsets[i + 1]].copy()) for i, x in enumerate(xs)
        ]

    return _record("concat_rows", out, bwd, *xs)


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """Each row repeated k times in place: [T, d] -> [k*T, d]."""
    _check_nonempty("repeat_rows", x)
    if x.data.ndim != 2 or k < 1:
        raise ShapeError(f"repeat_rows: shape {x.data.shape}, k={k}")
    out = _wrap(np.repeat(x.data, k, axis=0))
    T, d = x.data.shape

    def bwd(g):
        return [(x, g.reshape(T, k, d).sum(axis=1))]

    return _record("repeat_rows", out, bwd, x)


def gather_rows(x: Tensor, idx) -> Tensor:
    _check_nonempty("gather_rows", x)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise DomainError("gather_rows: empty index list")
    if (np.minimum.reduce(idx, axis=None) < 0
            or np.maximum.reduce(idx, axis=None) >= x.data.shape[0]):
        raise ShapeError(f"gather_rows: index out of range [0, {x.data.shape[0]})")
    out = _wrap(x.data[idx])

    def bwd(g):
        # one flat bincount adds each cell's rows in index order, as
        # np.add.at does, in one pass
        v, d = x.data.shape[0], x.data[0].size
        cells = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gx = np.bincount(cells, weights=g.reshape(-1), minlength=v * d)
        return [(x, gx.reshape(x.data.shape))]

    return _record("gather_rows", out, bwd, x)


def softmax_last_dim(x: Tensor) -> Tensor:
    _check_nonempty("softmax_last_dim", x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _wrap(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(x, y * (g - dot))]

    return _record("softmax_last_dim", out, bwd, x)


def log_softmax_last_dim(x: Tensor) -> Tensor:
    _check_nonempty("log_softmax_last_dim", x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = _wrap(logp)

    def bwd(g):
        return [(x, g - np.exp(logp) * g.sum(axis=-1, keepdims=True))]

    return _record("log_softmax_last_dim", out, bwd, x)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; -softplus(-m) is log sigmoid(m)."""
    _check_nonempty("softplus", x)
    d = x.data
    e = np.exp(-np.abs(d))
    out = _wrap(np.maximum(d, 0.0) + np.log1p(e))

    def bwd(g):  # g * sigmoid(d)
        return [(x, g * np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))]

    return _record("softplus", out, bwd, x)


def relu(x: Tensor) -> Tensor:
    _check_nonempty("relu", x)
    out = _wrap(np.maximum(x.data, 0.0))

    def bwd(g):
        return [(x, g * (x.data > 0).astype(np.float64))]

    return _record("relu", out, bwd, x)


def tsum(x: Tensor) -> Tensor:
    _check_nonempty("sum", x)
    out = _wrap(x.data.sum())

    def bwd(g):
        return [(x, np.full_like(x.data, float(g)))]

    return _record("sum", out, bwd, x)


# ---------------------------------------------------------------------------
# fused layers: one node each, with a hand-written backward


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[T, i] @ w[i, o] + b[o]."""
    _check_nonempty("linear", x, w, b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"linear: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        return [(x, g @ w.data.T), (w, x.data.T @ g), (b, g.sum(axis=0))]

    return _record("linear", _wrap(out), bwd, x, w, b)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Last dim normalised to zero mean and unit variance, ``* gain + bias``."""
    _check_nonempty("layer_norm", x, gain, bias)
    if eps <= 0:
        raise ContractError("layer_norm: eps must be > 0")
    d = x.data.shape[-1:]
    if gain.data.shape != d or bias.data.shape != d:
        raise ShapeError(f"layer_norm: {x.data.shape} with gain {gain.data.shape}, "
                         f"bias {bias.data.shape}")
    # np.mean and np.var make exactly these float operations: a pairwise
    # add.reduce over the last axis divided by its width, var from the
    # squared deviations of the mean
    n = d[0]
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + eps)
    xhat = xc * inv
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        gh = g * gain.data
        gm = np.add.reduce(gh, axis=-1, keepdims=True) / n
        gxm = np.add.reduce(gh * xhat, axis=-1, keepdims=True) / n
        return [(x, inv * (gh - gm - xhat * gxm)),
                (gain, np.add.reduce(g * xhat, axis=axes)),
                (bias, np.add.reduce(g, axis=axes))]

    return _record("layer_norm", _wrap(xhat * gain.data + bias.data), bwd,
                   x, gain, bias)


def segment_positions(lengths) -> np.ndarray:
    """Each row's position in its segment, for consecutive segments of
    ``lengths`` rows: the concatenated ``arange``s."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class KVCache:
    """Keys and values of the rows one attention has seen, for inference:
    ``[heads, capacity, dh]`` buffers whose first ``rows`` rows are filled."""

    __slots__ = ("keys", "values", "rows")

    def __init__(self, heads: int, capacity: int, dh: int):
        self.keys = np.zeros((heads, capacity, dh))
        self.values = np.zeros((heads, capacity, dh))
        self.rows = 0


# A grid per distinct segment length skips the padding of one [B, Lmax]
# grid, but each grid is one more pass of the score, softmax and backward
# code, which costs about as much as 1000 padded score cells. So packed
# segments run as per-length grids when the cells that saves,
# B*Lmax^2 - sum(L^2), are at least GRID_CELLS per added grid, else as one
# padded grid. Timed forward and backward (d=32 and 64, 2 heads, BLAS on
# one thread) over 32 layouts, 24 of them from decoder and alignment
# training batches: the rule picked the faster layout in 31, and the miss
# was a 5% difference. Packed cross-attention (text fusion) always runs one
# padded [B, Lq, Lk] grid: on the fusion batches of speech_train (batch 8,
# 7-21 context rows, 2-9 text tokens, seeds 1 and 7) that grid holds 520 to
# 1,512 cells over 3-6 distinct (Lq, Lk) pairs, so a grid per pair would
# save at most 329 cells per added grid; on the decoder tests' batch of 8,
# 1,216 cells and 160 per added grid. Both are far under GRID_CELLS.
GRID_CELLS = 1000


def _layout(lengths, n):
    """How attention lays out its ``n`` rows: ``(order, grids)``. ``order``
    (None: as they come) puts the rows in grid order, and a grid
    ``(first, segments, width, pad)`` holds rows ``first`` on of that order
    as [segments, width]: a reshape, or with ``pad`` (each row's segment and
    position, and the segment lengths) a zero-padded grid."""
    if lengths is None or len(lengths) == 1:
        return None, [(0, 1, n, None)]
    sizes = lengths.tolist()
    widths = sorted(set(sizes))
    b, w = len(sizes), widths[-1]
    if b * w * w - sum(size * size for size in sizes) < GRID_CELLS * (len(widths) - 1):
        pad = np.repeat(np.arange(b), lengths), segment_positions(lengths), lengths
        return None, [(0, b, w, pad)]
    if len(widths) == 1:
        return None, [(0, b, w, None)]
    starts = np.cumsum(lengths) - lengths
    segments = [np.flatnonzero(lengths == width) for width in widths]
    order = np.concatenate([(starts[seg][:, None] + np.arange(width)).reshape(-1)
                            for seg, width in zip(segments, widths)])
    firsts = np.cumsum([0] + [len(seg) * width for seg, width in zip(segments, widths)])
    return order, [(int(first), len(seg), width, None)
                   for first, seg, width in zip(firsts, segments, widths)]


def _cross_grids(lengths, keys, t, s):
    """The grids of a cross-attention over ``t`` query and ``s`` key rows:
    ``(x_grid, context_grid)``, whose grid row i holds query segment i and
    key segment i. Without lengths, or with one segment, each is a reshape;
    else each is zero-padded to [segments, longest] and carries the key
    lengths that mask the padded keys."""
    if lengths is None or len(lengths) == 1:
        return (0, 1, t, None), (0, 1, s, None)
    return [(0, len(a), int(a.max()),
             (np.repeat(np.arange(len(a)), a), segment_positions(a), keys))
            for a in (lengths, keys)]


def _take(grid, a):
    """Rows of ``a`` (in grid order) on ``grid``: [segments, width, ...]."""
    first, b, w, pad = grid
    if pad is None:
        return a[first:first + b * w].reshape(b, w, *a.shape[1:])
    out = np.zeros((b, w, *a.shape[1:]))
    out[pad[0], pad[1]] = a
    return out


def _ungrid(grids, order, parts):
    """The rows of grid-shaped ``parts``, one per grid, in their own order:
    the inverse of ``_take``."""
    rows = [a.reshape(-1, *a.shape[2:]) if pad is None else a[pad[0], pad[1]]
            for (*_, pad), a in zip(grids, parts)]
    rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
    if order is None:
        return rows
    out = np.empty_like(rows)
    out[order] = rows
    return out


def attention(x: Tensor, w_qkv: Tensor, w_o: Tensor, heads: int,
              causal: bool, context: Tensor | None = None,
              lengths=None, cache: KVCache | None = None,
              key_lengths=None) -> Tensor:
    """Multi-head attention of x[T, d] over context[S, d] (default: x).

    ``w_qkv[d, 3d]`` holds the query, key and value projections side by
    side, each as ``heads`` column blocks of width d/heads; ``w_o[d, d]``
    maps the concatenated heads back. Without a context one matmul
    projects x's rows to all three; with one, x's rows are projected to
    queries only and the context's to keys and values only. With
    ``causal``, row t sees rows <= t; a causal mask over a context, which
    does not place x's rows among its keys, is a ``ContractError``.

    ``cache`` (inference only: no input may be tracked) holds the keys and
    values of the rows that came before x. x's keys and values are written
    after them, and x's queries attend over all of them, the causal mask
    offset by the rows the cache held. So a prompt and then one row at a
    time give the rows of one causal call over the whole sequence. Writing
    past the cache's capacity, or a cache with a context or ``lengths``,
    is a ``ContractError``.

    ``lengths`` packs sequences into x: consecutive segments of those
    lengths, summing to T, each seeing only its own rows (packing as in
    Krell et al., 2021; per-sequence bounds as in variable-length
    attention, Dao, 2023). Without a context the segments of each length
    run as one [segments, length] grid, a reshape of their rows with no
    mask; or, where the padding costs less than the added grids
    (``GRID_CELLS``), all run on one [segments, longest] grid whose padded
    keys are masked. With a context, ``key_lengths`` packs it the same way,
    one segment per query segment, summing to S: query segment i attends
    only to key segment i, all on one zero-padded [segments, longest
    query, longest key] grid with the padded keys masked. Lengths that do
    not tile x or the context, or key lengths without a context, are a
    ``ShapeError``. Without ``lengths`` the rows are one segment. Segments
    and heads run as leading axes of batched matmuls (sums in another
    order than per head or per segment; about 1e-15).
    """
    ctx = () if context is None else (context,)
    _check_nonempty("attention", x, w_qkv, w_o, *ctx)
    t, d = x.data.shape if x.data.ndim == 2 else (0, 0)
    kv = (context if ctx else x).data.shape
    if (not d or heads < 1 or d % heads or w_qkv.data.shape != (d, 3 * d)
            or w_o.data.shape != (d, d) or kv[1:] != (d,)):
        raise ShapeError(f"attention: x {x.data.shape}, w_qkv {w_qkv.data.shape}, "
                         f"w_o {w_o.data.shape}, {heads} heads, context {kv}")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    if lengths is not None or key_lengths is not None:
        # the query segments tile x's rows and, with a context, the key
        # segments tile its rows, one key segment per query segment
        sides = [np.asarray([] if a is None else a, dtype=np.int64)
                 for a in ((lengths, key_lengths) if ctx else (lengths,))]
        if ((not ctx and key_lengths is not None) or sides[0].shape != sides[-1].shape
                or any(a.ndim != 1 or not a.size or a.min() < 1 or a.sum() != m
                       for a, m in zip(sides, (t, kv[0])))):
            raise ShapeError(f"attention: segment lengths {lengths} and key lengths "
                             f"{key_lengths} for x {x.data.shape}, context {kv}")
        lengths, key_lengths = sides[0], sides[-1]
    if causal and ctx:
        raise ContractError("attention: a causal mask over a context")
    past = 0  # rows before x's among the keys
    if cache is not None:
        past = cache.rows
        if ctx or lengths is not None or tracked(x, w_qkv, w_o):
            raise ContractError("attention: a key/value cache is for untracked "
                                "self-attention only")
        if cache.keys.shape[::2] != (heads, dh):
            raise ShapeError(f"attention: cache of shape {cache.keys.shape} for "
                             f"{heads} heads of width {dh}")
        if past + t > cache.keys.shape[1]:
            raise ContractError(f"attention: {past} cached rows and {t} new ones "
                                f"exceed the cache's {cache.keys.shape[1]}")
    w = w_qkv.data
    if ctx:  # one grid; queries from x's rows, keys and values from the context's
        x_grid, kv_grid = _cross_grids(lengths, key_lengths, t, kv[0])
        order, grids = None, [x_grid]
        q = _take(x_grid, (x.data @ w[:, :d]).reshape(t, heads, dh)).transpose(0, 2, 1, 3)
        k, v = _take(kv_grid, (context.data @ w[:, d:]).reshape(-1, 2, heads, dh)
                     ).transpose(2, 0, 3, 1, 4)
    else:
        order, grids = _layout(lengths, t)
        proj = (x.data @ w).reshape(t, 3, heads, dh)
        if order is not None:
            proj = proj[order]
    parts, saved = [], []
    for grid in grids:
        if not ctx:  # [rows, 3, H, dh] -> q, k, v, each [B, H, L, dh]
            q, k, v = _take(grid, proj).transpose(2, 0, 3, 1, 4)
        if cache is not None:  # one grid: no lengths
            cache.keys[:, past:past + t] = k[0]
            cache.values[:, past:past + t] = v[0]
            cache.rows = past + t
            k, v = cache.keys[None, :, :past + t], cache.values[None, :, :past + t]
        s = (q @ k.swapaxes(-1, -2)) * c
        pad = grid[3]
        if (causal and q.shape[2] > 1) or pad is not None:  # one row masks no key
            kj = np.arange(k.shape[2])
            masked = kj > np.arange(past, past + q.shape[2])[:, None] if causal else False
            if pad is not None:  # and the padding after each key segment
                masked = masked | (kj >= pad[2][:, None, None, None])
            np.copyto(s, NEG_INF, where=masked)
        e = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
        p = e / np.add.reduce(e, axis=-1, keepdims=True)
        parts.append((p @ v).transpose(0, 2, 1, 3))
        saved.append((q, k, v, p))
    heads_out = _ungrid(grids, order, parts).reshape(t, d)

    def bwd(g):
        g_out = (g @ w_o.data.T).reshape(t, heads, dh)
        if order is not None:
            g_out = g_out[order]
        g_parts = []
        for grid, (q, k, v, p) in zip(grids, saved):
            g_o = _take(grid, g_out).transpose(0, 2, 1, 3)
            g_p = g_o @ v.swapaxes(-1, -2)
            g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
            # q's gradient in slot 0 of the grid; k's and v's in its slots
            # 1-2, or with a context in a grid of the key rows
            g_grid = np.zeros((q.shape[0], q.shape[2], 1 if ctx else 3, heads, dh))
            g_kv = (np.zeros((k.shape[0], k.shape[2], 2, heads, dh)) if ctx
                    else g_grid[:, :, 1:])
            g_grid[:, :, 0] = (g_s @ k).transpose(0, 2, 1, 3)
            g_kv[:, :, 0] = (g_s.swapaxes(-1, -2) @ q).transpose(0, 2, 1, 3)
            g_kv[:, :, 1] = (p.swapaxes(-1, -2) @ g_o).transpose(0, 2, 1, 3)
            g_parts.append(g_grid)
        g_w = (w_o, heads_out.T @ g)
        if ctx:
            g_q = _ungrid(grids, None, g_parts).reshape(t, d)
            g_kv = _ungrid([kv_grid], None, [g_kv]).reshape(-1, 2 * d)
            return [(x, g_q @ w[:, :d].T), (context, g_kv @ w[:, d:].T),
                    (w_qkv, np.concatenate([x.data.T @ g_q, context.data.T @ g_kv], axis=1)),
                    g_w]
        g_rows = _ungrid(grids, order, g_parts).reshape(t, 3 * d)
        return [(x, g_rows @ w.T), (w_qkv, x.data.T @ g_rows), g_w]

    return _record("attention", _wrap(heads_out @ w_o.data), bwd, x, w_qkv, w_o, *ctx)


def expert_mix(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               weights: Tensor) -> Tensor:
    """sum_e weights[:, e] * (relu(x @ w1[e] + b1[e]) @ w2[e] + b2[e]).

    Stacked experts: w1[E, d, h], b1[E, h], w2[E, h, d], b2[E, d]; x[T, d]
    and routing weights[T, E]. The experts are the leading axis of batched
    matmuls; the output adds them in index order and the x gradient last
    to first, bit for bit as a loop over experts would.
    """
    _check_nonempty("expert_mix", x, w1, b1, w2, b2, weights)
    shapes = [t.data.shape for t in (x, w1, b1, w2, b2, weights)]
    n_exp, d, hid = shapes[1] if len(shapes[1]) == 3 else (0, 0, 0)
    rows = x.data.shape[:1]
    if shapes != [(*rows, d), (n_exp, d, hid), (n_exp, hid), (n_exp, hid, d),
                  (n_exp, d), (*rows, n_exp)]:
        raise ShapeError(f"expert_mix: x, w1, b1, w2, b2, weights shapes {shapes}")
    # Memory order decides the bits: a contiguous copy of the routing weights
    # and a C-ordered [T, E] gradient of them keep every sum in loop order.
    wt = np.ascontiguousarray(weights.data.T)[:, :, None]
    # The [E, T, 4d] arrays are built in place. With malloc's thresholds
    # fixed (top of module) fresh ones no longer page-fault (43 minor
    # faults a recorded forward at E=2, T=160, d=64 under glibc's default
    # thresholds, 0 now), but they still cost 630 against 557 us a forward.
    r = x.data @ w1.data
    r += b1.data[:, None]
    np.maximum(r, 0.0, out=r)
    h = r @ w2.data + b2.data[:, None]
    out = np.add.reduce(h * wt, axis=0)

    def bwd(g):
        gh = g * wt
        ga = gh @ w2.data.transpose(0, 2, 1)
        ga *= r > 0  # relu's mask: r > 0 exactly where its input is
        # gx adds the experts last to first
        gx = np.add.reduce(ga[::-1] @ w1.data[::-1].transpose(0, 2, 1), axis=0)
        grads = (x.data.T @ ga, ga.sum(axis=1), r.transpose(0, 2, 1) @ gh,
                 gh.sum(axis=1), np.ascontiguousarray((g * h).sum(axis=2).T))
        return [(x, gx), *zip((w1, b1, w2, b2, weights), grads)]

    return _record("expert_mix", _wrap(out), bwd, x, w1, b1, w2, b2, weights)


def record_custom(kind, out: Tensor, backward_fn, *inputs) -> Tensor:
    """Register a hand-differentiated op (e.g. the CTC lattice) on the tape.

    ``backward_fn(g)`` must return [(input_tensor, grad_array), ...]. It
    must not write into ``g``: ``backward`` hands a gradient on without
    copying it, so ``g`` may be the very array another op returned.
    """
    return _record(kind, out, backward_fn, *inputs)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor):
    """Add d(loss)/d(t) into ``.grad`` of every reachable leaf ``t``.

    ``.grad`` is populated on leaves only: tensors that require grad and
    are not op outputs on the active tape (parameters, and tensors left
    over from before ``reset_tape()`` or from another tape, whose
    ``node_id`` names no earlier node that holds them). Intermediates get
    no ``.grad``. Gradients add across calls; callers zero grads between
    steps. The loss must be on the active tape: none under ``no_grad``.
    """
    if loss.data.size != 1:
        raise ContractError("backward: loss must be scalar")
    nodes = _ACTIVE_TAPE.get()
    top = loss.node_id
    if nodes is None or top is None or top >= len(nodes) or nodes[top].out is not loss:
        raise ContractError("backward: loss is not on the active tape")

    # One slot per node output, freed once that node has run; gradients
    # for leaves (anything not an output on this tape) collect in `leaf`.
    # A gradient is stored as returned and summed out of place, so no
    # array is copied and no op's returned array is ever written into.
    slots = [None] * (top + 1)
    slots[top] = np.ones_like(loss.data)
    leaf: dict[int, list] = {}
    for i in range(top, -1, -1):
        g = slots[i]
        if g is None:
            continue
        slots[i] = None
        for inp, gi in nodes[i].backward_fn(g):
            if not isinstance(inp, Tensor):
                continue
            j = inp.node_id
            if j is not None and j < i and nodes[j].out is inp:
                cur = slots[j]
                slots[j] = gi if cur is None else cur + gi
            elif inp.requires_grad:
                entry = leaf.get(id(inp))
                if entry is None:
                    leaf[id(inp)] = [inp, gi]
                else:
                    entry[1] = entry[1] + gi

    for t, g in leaf.values():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


# ---------------------------------------------------------------------------
# verification oracle


def finite_difference_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between backward() and central differences of
    ``f``, which maps a copy of ``x`` to a scalar Tensor."""
    xg = Tensor(x.data.copy(), requires_grad=True)
    return check_parameter_gradients(lambda: f(xg), {"x": xg}, h)


def check_parameter_gradients(loss_fn, params: dict, h: float = 1e-5) -> float:
    """Central-difference check of d(loss)/d(param) for every named
    parameter: the max over all elements of |analytic - numeric| /
    max(1, |numeric|), NaN if any is NaN. ``loss_fn`` must be deterministic."""
    if not (1e-6 <= h <= 1e-3):
        raise ContractError(f"gradient check: h={h} outside [1e-6, 1e-3]")

    def value():
        with no_grad():
            return float(loss_fn().item())

    if value() != value():
        raise OracleError("gradient check: the loss is not deterministic")
    for p in params.values():
        p.grad = None
    with fresh_tape():
        backward(loss_fn())
    errors = []
    for p in params.values():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = value()
            flat[i] = orig - h
            fm = value()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
        errors.append(np.abs(analytic.reshape(-1) - numeric)
                      / np.maximum(1.0, np.abs(numeric)))
    return float(np.max(np.concatenate(errors)))


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ContractError("AdamW: lr must be > 0")
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.state = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self.params.items()
        }

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else float(lr)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"AdamW.step: parameter {name!r} has no grad")
            m, v = self.state[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            mhat = m / bc1
            vhat = v / bc2
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


def warmup_lr(base_lr: float, step: int, total_steps: int, warmup_ratio: float = 0.3) -> float:
    """Linear warmup from 0 to base_lr, then constant."""
    warmup_steps = max(1, int(round(total_steps * warmup_ratio)))
    if step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


def mean(terms: Tensor) -> Tensor:
    """Mean of a 1-D tensor of loss terms as one node: summed left to
    right, then scaled by 1/n, the float operations of an ``add`` chain
    and a ``scale``."""
    if terms.data.ndim != 1:
        raise ShapeError(f"mean: terms of shape {terms.data.shape}")
    if not terms.data.size:
        raise ContractError("mean: no terms")
    s = 1.0 / terms.data.size
    # accumulate adds strictly left to right; add.reduce would pair terms
    total = np.add.accumulate(terms.data)[-1]

    def bwd(g):
        return [(terms, np.full(terms.data.shape, g * s))]

    return _record("mean_terms", _wrap(total * s), bwd, terms)


def fit(params: dict, loss_fn, steps: int, lr: float, warmup_ratio: float = 0.3,
        weight_decay: float = 0.0):
    """The training loop: AdamW on ``params`` under ``warmup_lr``.

    Each step clears the tape, builds ``loss_fn(step)``, backpropagates
    and updates, then yields ``(step, loss, lr)`` with the loss as a
    float, so the caller can log after the update. A non-finite loss
    raises ``DomainError`` before it reaches the parameters.
    """
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    try:
        for step in range(steps):
            reset_tape()
            loss = loss_fn(step)
            value = loss.item()
            if not math.isfinite(value):
                raise DomainError(f"fit: non-finite loss {value} at step {step}")
            opt.zero_grad()
            backward(loss)
            step_lr = warmup_lr(lr, step + 1, steps, warmup_ratio)
            opt.step(lr=step_lr)
            yield step, value, step_lr
    finally:
        reset_tape()
