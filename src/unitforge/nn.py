"""Neural building blocks assembled by the decoder and alignment models.

Everything is desk scale: pre-norm transformer blocks whose attention
holds one [d, 3d] query/key/value weight and runs its heads as a tensor
axis, dense soft MoE routing over experts stacked into [E, ...] weights,
and a text-guided module: single-head cross-attention through the same
``tensor.attention``, keys and values taken from the response text, whose
output projection starts at zero so the fused path is exactly the
identity until trained. Attention (self and cross), biased Linear,
LayerNorm, the expert mix and the cross-entropy are one tape node each
(see ``tensor``); an embedding is a row gather of its table.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ShapeError
from .tensor import Tensor


def _normal(rng, d_in, d_out):
    return rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_in, d_out))


def check_dims(d, heads):
    if heads < 1 or d < 1 or d % heads:
        raise ConfigurationError(f"model dim {d} must be >= 1 and a multiple "
                                 f"of the number of heads {heads} >= 1")


class Linear:
    def __init__(self, rng, d_in, d_out, bias=True, zero_init=False):
        w = np.zeros((d_in, d_out)) if zero_init else _normal(rng, d_in, d_out)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x):
        if self.b is None:
            return T.matmul(x, self.w)
        return T.linear(x, self.w, self.b)

    def parameters(self, prefix):
        out = {f"{prefix}.w": self.w}
        if self.b is not None:
            out[f"{prefix}.b"] = self.b
        return out


class Embedding:
    def __init__(self, rng, vocab, d, scale=0.02):
        self.table = Tensor(rng.normal(0.0, scale, (vocab, d)), requires_grad=True)

    def __call__(self, ids):
        return T.gather_rows(self.table, ids)

    def parameters(self, prefix):
        return {f"{prefix}.table": self.table}


class LayerNorm:
    def __init__(self, d, eps=1e-5):
        self.g = Tensor(np.ones(d), requires_grad=True)
        self.b = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return T.layer_norm(x, self.g, self.b, self.eps)

    def parameters(self, prefix):
        return {f"{prefix}.g": self.g, f"{prefix}.b": self.b}


class SelfAttention:
    """Multi-head attention with optional causal mask; fused QKV weight."""

    def __init__(self, rng, d, heads):
        check_dims(d, heads)
        self.heads = heads
        # drawn per head, q heads then k then v, as separate projections were
        self.qkv = Tensor(np.concatenate(
            [_normal(rng, d, d // heads) for _ in range(3 * heads)], axis=1),
            requires_grad=True)
        self.out = Tensor(_normal(rng, d, d), requires_grad=True)

    def __call__(self, x, causal: bool):
        return T.attention(x, self.qkv, self.out, self.heads, causal)

    def parameters(self, prefix):
        return {f"{prefix}.qkv.w": self.qkv, f"{prefix}.out.w": self.out}


class Mlp:
    def __init__(self, rng, d, widen=4):
        self.fc1 = Linear(rng, d, widen * d)
        self.fc2 = Linear(rng, widen * d, d)

    def __call__(self, x):
        return self.fc2(T.relu(self.fc1(x)))

    def parameters(self, prefix):
        out = self.fc1.parameters(f"{prefix}.fc1")
        out.update(self.fc2.parameters(f"{prefix}.fc2"))
        return out


class DecoderBlock:
    """Pre-norm residual block; `causal` picks the attention mask."""

    def __init__(self, rng, d, heads):
        self.ln1 = LayerNorm(d)
        self.attn = SelfAttention(rng, d, heads)
        self.ln2 = LayerNorm(d)
        self.mlp = Mlp(rng, d)

    def __call__(self, x, causal: bool):
        x = T.add(x, self.attn(self.ln1(x), causal))
        x = T.add(x, self.mlp(self.ln2(x)))
        return x

    def parameters(self, prefix):
        out = self.ln1.parameters(f"{prefix}.ln1")
        out.update(self.attn.parameters(f"{prefix}.attn"))
        out.update(self.ln2.parameters(f"{prefix}.ln2"))
        out.update(self.mlp.parameters(f"{prefix}.mlp"))
        return out


class MoELayer:
    """Dense soft routing over E feed-forward experts (x4 hidden widening),
    stacked into [E, ...] weights."""

    def __init__(self, rng, d, experts):
        if experts < 1:
            raise ConfigurationError("MoELayer needs at least one expert")
        w1, w2 = [], []
        for _ in range(experts):  # drawn per expert, as separate Mlps were
            w1.append(_normal(rng, d, 4 * d))
            w2.append(_normal(rng, 4 * d, d))
        self.w1 = Tensor(np.stack(w1), requires_grad=True)
        self.b1 = Tensor(np.zeros((experts, 4 * d)), requires_grad=True)
        self.w2 = Tensor(np.stack(w2), requires_grad=True)
        self.b2 = Tensor(np.zeros((experts, d)), requires_grad=True)
        self.router = Linear(rng, d, experts, bias=False)

    def routing_weights(self, x):
        return T.softmax_last_dim(self.router(x))

    def __call__(self, x):
        return T.expert_mix(x, self.w1, self.b1, self.w2, self.b2,
                            self.routing_weights(x))

    def parameters(self, prefix="moe"):
        out = self.router.parameters(f"{prefix}.router")
        out.update({f"{prefix}.experts.fc1.w": self.w1,
                    f"{prefix}.experts.fc1.b": self.b1,
                    f"{prefix}.experts.fc2.w": self.w2,
                    f"{prefix}.experts.fc2.b": self.b2})
        return out


class TextGuidedModule:
    """Cross-attention fusion of decoder conditioning with response text.

    Queries come from the conditioning hidden states, keys/values from
    ground-truth response text embeddings, through one [d, 3d] weight and
    one ``tensor.attention`` node. The output projection is
    zero-initialized, so before any training the module is exactly the
    identity on its hidden-state input. With no text (inference), the
    module is bypassed.
    """

    def __init__(self, rng, d):
        # drawn q, k, v in turn, as separate projections were
        self.qkv = Tensor(np.concatenate([_normal(rng, d, d) for _ in range(3)],
                                         axis=1), requires_grad=True)
        self.proj = Linear(rng, d, d, bias=False, zero_init=True)

    def __call__(self, hidden, text_embed=None):
        if text_embed is None:
            return hidden
        return T.add(hidden, T.attention(hidden, self.qkv, self.proj.w, 1, False,
                                         context=text_embed))

    def parameters(self, prefix="tgm"):
        out = {f"{prefix}.xattn.qkv.w": self.qkv}
        out.update(self.proj.parameters(f"{prefix}.proj"))
        return out


class PositionalEmbedding:
    def __init__(self, rng, max_len, d, scale=0.02):
        self.table = Tensor(rng.normal(0.0, scale, (max_len, d)), requires_grad=True)

    def __call__(self, x):
        t = x.shape[0]
        return T.add(x, T.gather_rows(self.table, np.arange(t)))

    def parameters(self, prefix):
        return {f"{prefix}.table": self.table}


def cross_entropy(logits, rows, targets) -> Tensor:
    """Mean NLL of ``targets[i]`` under log-softmaxed ``logits[rows[i]]``.

    One tape node that log-softmaxes only the scored rows; every other
    row of ``logits`` gets an exact zero gradient. ``rows`` must be
    distinct and in range and ``targets`` in [0, V), one per row, else
    ``ShapeError``. The float operations are those of a log-softmax over
    all rows, a per-row pick, a mean and a scale by -1.
    """
    x = logits.data
    rows = np.asarray(rows, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    t, v = x.shape if x.ndim == 2 else (0, 0)
    n = len(rows) if rows.ndim == 1 else 0
    if (not n or targets.shape != (n,) or rows.min() < 0 or rows.max() >= t
            or len(np.unique(rows)) != n or targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross_entropy: logits {x.shape}, rows {rows.shape}, "
                         f"targets {targets.shape}: need distinct rows in "
                         f"[0, {t}) and one target in [0, {v}) each")
    z = x[rows]
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picks = np.arange(n), targets

    def bwd(g):
        gp = np.zeros((n, v))
        gp[picks] = float(g * -1.0) / n
        gx = np.zeros_like(x)
        gx[rows] = gp - np.exp(logp) * gp.sum(axis=-1, keepdims=True)
        return [(logits, gx)]

    return T.record_custom("cross_entropy", Tensor(logp[picks].mean() * -1.0),
                           bwd, logits)
