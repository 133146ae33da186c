"""Reverse-mode automatic differentiation over float64 numpy buffers.

A single module-global tape records every op applied to tensors that
require gradients. ``backward`` replays the tape in reverse creation
order, which is a valid topological order by construction. Parameters
(leaf tensors) survive tape clearing; intermediate activations do not.

All math is float64. Structurally unreachable lattice cells and masked
attention scores use the ``NEG_INF`` sentinel. Attention, biased
Linear, LayerNorm, the MoE expert mix and the mean of loss terms are one
node each, with a hand-written backward; so are the cross-entropy
(``nn.cross_entropy``) and CTC (``ctc.ctc_loss``) losses, registered
through ``record_custom``. An embedding lookup is a row gather
(``gather_rows``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DomainError, OracleError, ShapeError

NEG_INF = -1.0e30


class _Node:
    __slots__ = ("kind", "out", "backward_fn")

    def __init__(self, kind, out, backward_fn):
        self.kind = kind
        self.out = out
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record; reverse traversal is topological."""

    def __init__(self):
        self.nodes = []

    def push(self, kind, out, backward_fn):
        out.node_id = len(self.nodes)
        out._tape = self
        self.nodes.append(_Node(kind, out, backward_fn))

    def clear(self):
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


_ACTIVE_TAPE = Tape()
_GRAD_ENABLED = True


def reset_tape():
    _ACTIVE_TAPE.clear()


@contextmanager
def fresh_tape():
    """Temporarily swap in an empty tape (restores the previous one)."""
    global _ACTIVE_TAPE
    saved = _ACTIVE_TAPE
    _ACTIVE_TAPE = Tape()
    try:
        yield _ACTIVE_TAPE
    finally:
        _ACTIVE_TAPE = saved


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """Dense float64 value with optional gradient buffer and tape link."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_tape")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node_id = None
        self._tape = None

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
    t._tape = None
    return t


def _tracked(*tensors):
    if _GRAD_ENABLED:
        tape = _ACTIVE_TAPE
        for t in tensors:
            if isinstance(t, Tensor) and (t.requires_grad or t._tape is tape):
                return True
    return False


def _check_nonempty(kind, *tensors):
    for t in tensors:
        if isinstance(t, Tensor) and t.data.size == 0:
            raise DomainError(f"{kind}: empty tensor operand")


def _record(kind, out, backward_fn, *inputs):
    if _tracked(*inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.push(kind, out, backward_fn)
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
    if idx.min() < 0 or idx.max() >= x.data.shape[0]:
        raise ShapeError(f"gather_rows: index out of range [0, {x.data.shape[0]})")
    out = _wrap(x.data[idx])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return [(x, gx)]

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
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = _wrap(z - lse)
    sm = np.exp(z - lse)

    def bwd(g):
        return [(x, g - sm * g.sum(axis=-1, keepdims=True))]

    return _record("log_softmax_last_dim", out, bwd, x)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; -softplus(-m) is log sigmoid(m)."""
    _check_nonempty("softplus", x)
    d = x.data
    out = _wrap(np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d))))
    sig = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                   np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def bwd(g):
        return [(x, g * sig)]

    return _record("softplus", out, bwd, x)


def relu(x: Tensor) -> Tensor:
    _check_nonempty("relu", x)
    out = _wrap(np.maximum(x.data, 0.0))
    mask = (x.data > 0).astype(np.float64)

    def bwd(g):
        return [(x, g * mask)]

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
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        gh = g * gain.data
        gm = gh.mean(axis=-1, keepdims=True)
        gxm = (gh * xhat).mean(axis=-1, keepdims=True)
        return [(x, inv * (gh - gm - xhat * gxm)),
                (gain, (g * xhat).sum(axis=axes)), (bias, g.sum(axis=axes))]

    return _record("layer_norm", _wrap(xhat * gain.data + bias.data), bwd,
                   x, gain, bias)


def attention(x: Tensor, w_qkv: Tensor, w_o: Tensor, heads: int,
              causal: bool, context: Tensor | None = None) -> Tensor:
    """Multi-head attention of x[T, d] over context[S, d] (default: x).

    ``w_qkv[d, 3d]`` holds the query, key and value projections side by
    side, each as ``heads`` column blocks of width d/heads; ``w_o[d, d]``
    maps the concatenated heads back. One matmul projects the rows
    ``[x; context]``, queries from x's, keys and values from the context's.
    Heads run as a leading axis of batched matmuls (sums in another order
    than per head; about 1e-15). With ``causal``, row t sees rows <= t.
    """
    ctx = () if context is None else (context,)
    _check_nonempty("attention", x, w_qkv, w_o, *ctx)
    t, d = x.data.shape if x.data.ndim == 2 else (0, 0)
    kv = (context if ctx else x).data.shape
    if (not d or heads < 1 or d % heads or w_qkv.data.shape != (d, 3 * d)
            or w_o.data.shape != (d, d) or kv[1:] != (d,)):
        raise ShapeError(f"attention: x {x.data.shape}, w_qkv {w_qkv.data.shape}, "
                         f"w_o {w_o.data.shape}, {heads} heads, context {kv}")
    rows = np.concatenate([x.data, context.data]) if ctx else x.data
    n, s0, dh = len(rows), len(rows) - kv[0], d // heads  # s0: first k/v row
    c = 1.0 / math.sqrt(dh)
    # [rows, 3d] -> [3, H, rows, dh]: q, k, v, each with a head axis
    proj = (rows @ w_qkv.data).reshape(n, 3, heads, dh).transpose(1, 2, 0, 3)
    q, k, v = proj[0, :, :t], proj[1, :, s0:], proj[2, :, s0:]
    s = (q @ k.transpose(0, 2, 1)) * c
    if causal:
        upper = np.triu_indices(t, k=1, m=kv[0])
        s[:, upper[0], upper[1]] = NEG_INF
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    heads_out = (p @ v).transpose(1, 0, 2).reshape(t, d)

    def bwd(g):
        g_o = (g @ w_o.data.T).reshape(t, heads, dh).transpose(1, 0, 2)
        g_p = g_o @ v.transpose(0, 2, 1)
        g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
        g_rows = np.zeros((n, 3, heads, dh))
        g_rows[:t, 0] = (g_s @ k).transpose(1, 0, 2)
        g_rows[s0:, 1] = (g_s.transpose(0, 2, 1) @ q).transpose(1, 0, 2)
        g_rows[s0:, 2] = (p.transpose(0, 2, 1) @ g_o).transpose(1, 0, 2)
        g_rows = g_rows.reshape(n, 3 * d)
        g_in = g_rows @ w_qkv.data.T
        return [(x, g_in[:t]), *[(cx, g_in[t:]) for cx in ctx],
                (w_qkv, rows.T @ g_rows), (w_o, heads_out.T @ g)]

    return _record("attention", _wrap(heads_out @ w_o.data), bwd, x, w_qkv, w_o, *ctx)


def expert_mix(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               weights: Tensor) -> Tensor:
    """sum_e weights[:, e] * (relu(x @ w1[e] + b1[e]) @ w2[e] + b2[e]).

    Stacked experts: w1[E, d, h], b1[E, h], w2[E, h, d], b2[E, d]; x[T, d]
    and routing weights[T, E]. Experts are added in index order.
    """
    _check_nonempty("expert_mix", x, w1, b1, w2, b2, weights)
    shapes = [t.data.shape for t in (x, w1, b1, w2, b2, weights)]
    n_exp, d, hid = shapes[1] if len(shapes[1]) == 3 else (0, 0, 0)
    rows = x.data.shape[:1]
    if shapes != [(*rows, d), (n_exp, d, hid), (n_exp, hid), (n_exp, hid, d),
                  (n_exp, d), (*rows, n_exp)]:
        raise ShapeError(f"expert_mix: x, w1, b1, w2, b2, weights shapes {shapes}")
    cache, out = [], None
    for e in range(n_exp):
        a = x.data @ w1.data[e] + b1.data[e]
        r = np.maximum(a, 0.0)
        h = r @ w2.data[e] + b2.data[e]
        term = h * weights.data[:, e][:, None]
        out = term if out is None else out + term
        cache.append((a, r, h))

    def bwd(g):
        grads = [np.empty_like(t.data) for t in (w1, b1, w2, b2, weights)]
        gw1, gb1, gw2, gb2, gwt = grads
        gx = None
        for e in reversed(range(n_exp)):
            a, r, h = cache[e]
            gwt[:, e] = (g * h).sum(axis=1)
            gh = g * weights.data[:, e][:, None]
            gb2[e] = gh.sum(axis=0)
            gw2[e] = r.T @ gh
            ga = (gh @ w2.data[e].T) * (a > 0).astype(np.float64)
            gb1[e] = ga.sum(axis=0)
            gw1[e] = x.data.T @ ga
            gxe = ga @ w1.data[e].T
            gx = gxe if gx is None else gx + gxe
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
    over from before ``reset_tape()`` or from another tape).
    Intermediates get no ``.grad``. Gradients add across calls; callers
    zero grads between steps.
    """
    if loss.data.size != 1:
        raise ContractError("backward: loss must be scalar")
    tape = _ACTIVE_TAPE
    nodes = tape.nodes
    top = loss.node_id
    if (loss._tape is not tape or top is None or top >= len(nodes)
            or nodes[top].out is not loss):
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
            if inp._tape is tape and j < i and nodes[j].out is inp:
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

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ContractError("AdamW: lr must be > 0")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
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


def mean(terms) -> Tensor:
    """Mean of scalar loss terms as one node: summed left to right, then
    scaled by 1/n, the float operations of an ``add`` chain and a
    ``scale``. ``terms`` may be a generator."""
    terms = list(terms)
    if not terms:
        raise ContractError("mean: no terms")
    _check_nonempty("mean_terms", *terms)
    total = terms[0].data
    for term in terms[1:]:
        if term.data.shape != total.shape:
            raise ShapeError(f"mean: {term.data.shape} vs {total.shape}")
        total = total + term.data
    s = 1.0 / len(terms)

    def bwd(g):
        gs = g * s
        return [(term, gs) for term in terms]

    return _record("mean_terms", _wrap(total * s), bwd, *terms)


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
