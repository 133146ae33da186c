"""Fused layer primitives against the per-op compositions they replace.

``tensor.attention``, ``linear``, ``layer_norm``, ``expert_mix`` and
``mean`` are one tape node each. The compositions below are the ops the
layers used before, kept here as the reference: Linear, LayerNorm, the
expert mix and the mean must match them bit for bit, outputs and every
gradient; attention, self and in the text-guided module, sums its
matmuls in another order and must match to 1e-12.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.nn as nn
import unitforge.tensor as T
from unitforge.alignment import OmniModel, _set_freeze, speech_text_loss
from unitforge.checkpoint import save_checkpoint
from unitforge.data import (AlignmentSpec, CorpusSpec, decode_f32,
                            gen_speech_text_corpus, gen_supervised_corpus)
from unitforge.decoder import SpeechDecoder, SpeechDecoderConfig, sample_loss
from unitforge.tensor import Tensor

ATTENTION_TOL = 1e-12


# ---------------------------------------------------------------------------
# the per-op reference


def _op(kind, value, bwd, *inputs):
    return T.record_custom(kind, Tensor(value), bwd, *inputs)


def add_rowvec(x, b):
    def bwd(g):
        return [(x, g), (b, g.sum(axis=tuple(range(g.ndim - 1))))]
    return _op("add_rowvec", x.data + b.data, bwd, x, b)


def mul_rowvec(x, w):
    def bwd(g):
        return [(x, g * w.data), (w, (g * x.data).sum(axis=tuple(range(g.ndim - 1))))]
    return _op("mul_rowvec", x.data * w.data, bwd, x, w)


def scale_rows(x, s):
    def bwd(g):
        return [(x, g * s.data[:, None]), (s, (g * x.data).sum(axis=1))]
    return _op("scale_rows", x.data * s.data[:, None], bwd, x, s)


def take_column(x, j):
    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, j] = g
        return [(x, gx)]
    return _op("take_column", x.data[:, j].copy(), bwd, x)


def transpose(x):
    return _op("transpose", x.data.T.copy(), lambda g: [(x, g.T)], x)


def concat_last_dim(*xs):
    edges = np.cumsum([0] + [x.shape[-1] for x in xs])

    def bwd(g):
        return [(x, g[..., edges[i]:edges[i + 1]].copy()) for i, x in enumerate(xs)]
    return _op("concat_last_dim", np.concatenate([x.data for x in xs], axis=-1),
               bwd, *xs)


def layer_norm_last_dim(x, eps):
    mu = x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    xhat = (x.data - mu) * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gxm = (g * xhat).mean(axis=-1, keepdims=True)
        return [(x, inv * (g - gm - xhat * gxm))]
    return _op("layer_norm_last_dim", xhat, bwd, x)


def ref_linear(x, w, b):
    return add_rowvec(T.matmul(x, w), b)


def ref_layer_norm(x, g, b, eps=1e-5):
    return add_rowvec(mul_rowvec(layer_norm_last_dim(x, eps), g), b)


def ref_attention(x, wq, wk, wv, wo, causal):
    """Per-head composition over lists of [d, dh] weights."""
    t, dh = x.shape[0], wq[0].shape[1]
    mask = np.zeros((t, t))
    mask[np.triu_indices(t, k=1)] = T.NEG_INF
    outs = []
    for q_w, k_w, v_w in zip(wq, wk, wv):
        q, k, v = T.matmul(x, q_w), T.matmul(x, k_w), T.matmul(x, v_w)
        scores = T.scale(T.matmul(q, transpose(k)), 1.0 / math.sqrt(dh))
        if causal:
            scores = T.add(scores, Tensor(mask))
        outs.append(T.matmul(T.softmax_last_dim(scores), v))
    return T.matmul(concat_last_dim(*outs), wo)


def ref_tgm(hidden, text, wq, wk, wv, proj):
    """The text-guided module as three bias-free Linears and per-op attention."""
    q, k, v = T.matmul(hidden, wq), T.matmul(text, wk), T.matmul(text, wv)
    scores = T.scale(T.matmul(q, transpose(k)), 1.0 / math.sqrt(hidden.shape[1]))
    return T.add(hidden, T.matmul(T.matmul(T.softmax_last_dim(scores), v), proj))


def ref_expert_mix(x, router, experts):
    """Soft routing, then experts [(w1, b1, w2, b2), ...] added in order."""
    weights = T.softmax_last_dim(T.matmul(x, router))
    out = None
    for e, (w1, b1, w2, b2) in enumerate(experts):
        w_e = take_column(weights, e)
        h = ref_linear(T.relu(ref_linear(x, w1, b1)), w2, b2)
        term = scale_rows(h, w_e)
        out = term if out is None else T.add(out, term)
    return out


def ref_mean(terms):
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return T.scale(total, 1.0 / len(terms))


def split_qkv(w_qkv, heads):
    """[d, 3d] -> per-head q, k and v lists of [d, d/heads] column blocks."""
    d = w_qkv.shape[0]
    dh = d // heads
    return [[w_qkv[:, p * d + h * dh:p * d + (h + 1) * dh] for h in range(heads)]
            for p in range(3)]


# ---------------------------------------------------------------------------
# equivalence: outputs and every gradient


def leaf(arr):
    return Tensor(arr, requires_grad=True)


def run(build, upstream):
    """Value of ``build()`` and backprop of sum(out * upstream)."""
    with T.fresh_tape():
        out = build()
        T.backward(T.tsum(T.mul(out, Tensor(upstream))))
    return out.data


def assert_close(a, b, tol):
    assert a.shape == b.shape
    if tol == 0:
        assert np.array_equal(a, b)
    else:
        assert np.abs(a - b).max() <= tol


@given(t=st.integers(1, 12), d_in=st.integers(1, 6), d_out=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_matches_matmul_plus_bias_bit_for_bit(t, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in ((t, d_in), (d_in, d_out), (d_out,))]
    up = rng.normal(size=(t, d_out))
    fused, ref = [leaf(a) for a in arrays], [leaf(a) for a in arrays]
    assert_close(run(lambda: T.linear(*fused), up), run(lambda: ref_linear(*ref), up), 0)
    for f, r in zip(fused, ref):
        assert_close(f.grad, r.grad, 0)


@given(t=st.integers(1, 12), d=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_layer_norm_matches_composition_bit_for_bit(t, d, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in ((t, d), (d,), (d,))]
    up = rng.normal(size=(t, d))
    fused, ref = [leaf(a) for a in arrays], [leaf(a) for a in arrays]
    assert_close(run(lambda: T.layer_norm(*fused), up),
                 run(lambda: ref_layer_norm(*ref), up), 0)
    for f, r in zip(fused, ref):
        assert_close(f.grad, r.grad, 0)


@given(heads=st.sampled_from([1, 2, 4]), dh=st.integers(1, 3),
       t=st.integers(1, 12), causal=st.booleans(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_attention_matches_per_head_composition(heads, dh, t, causal, seed):
    rng = np.random.default_rng(seed)
    d = heads * dh
    x0 = rng.normal(size=(t, d))
    qkv0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, 3 * d))
    o0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
    up = rng.normal(size=(t, d))
    x, qkv, o = leaf(x0), leaf(qkv0), leaf(o0)
    got = run(lambda: T.attention(x, qkv, o, heads, causal), up)
    xr, orr = leaf(x0), leaf(o0)
    per_head = [[leaf(w) for w in part] for part in split_qkv(qkv0, heads)]
    want = run(lambda: ref_attention(xr, *per_head, orr, causal), up)
    assert_close(got, want, ATTENTION_TOL)
    assert_close(x.grad, xr.grad, ATTENTION_TOL)
    assert_close(o.grad, orr.grad, ATTENTION_TOL)
    ref_qkv = np.concatenate([w.grad for part in per_head for w in part], axis=1)
    assert_close(qkv.grad, ref_qkv, ATTENTION_TOL)


@given(d=st.sampled_from([4, 8, 16]), t=st.integers(1, 12), s=st.integers(1, 9),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_text_guided_module_matches_per_op_copy(d, t, s, seed):
    rng = np.random.default_rng(seed)
    tgm = nn.TextGuidedModule(rng, d)
    tgm.proj.w.data[:] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
    h0, text0, up = rng.normal(size=(t, d)), rng.normal(size=(s, d)), rng.normal(size=(t, d))
    h, text = leaf(h0), leaf(text0)
    got = run(lambda: tgm(h, text), up)
    hr, textr, proj = leaf(h0), leaf(text0), leaf(tgm.proj.w.data)
    (wq,), (wk,), (wv,) = [[leaf(w) for w in part] for part in split_qkv(tgm.qkv.data, 1)]
    want = run(lambda: ref_tgm(hr, textr, wq, wk, wv, proj), up)
    assert_close(got, want, ATTENTION_TOL)
    assert_close(h.grad, hr.grad, ATTENTION_TOL)
    assert_close(text.grad, textr.grad, ATTENTION_TOL)
    assert_close(tgm.proj.w.grad, proj.grad, ATTENTION_TOL)
    assert_close(tgm.qkv.grad, np.concatenate([wq.grad, wk.grad, wv.grad], axis=1),
                 ATTENTION_TOL)


@given(experts=st.sampled_from([1, 2, 3]), t=st.integers(1, 12),
       d=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_expert_mix_matches_per_expert_loop_bit_for_bit(experts, t, d, seed):
    rng = np.random.default_rng(seed)
    shapes = [(experts, d, 4 * d), (experts, 4 * d), (experts, 4 * d, d), (experts, d)]
    stacked0 = [rng.normal(size=s) for s in shapes]
    x0, router0 = rng.normal(size=(t, d)), rng.normal(size=(d, experts))
    up = rng.normal(size=(t, d))
    x, router, stacked = leaf(x0), leaf(router0), [leaf(a) for a in stacked0]
    got = run(lambda: T.expert_mix(
        x, *stacked, T.softmax_last_dim(T.matmul(x, router))), up)
    xr, rr = leaf(x0), leaf(router0)
    per_expert = [[leaf(a[e]) for a in stacked0] for e in range(experts)]
    want = run(lambda: ref_expert_mix(xr, rr, per_expert), up)
    assert_close(got, want, 0)
    assert_close(x.grad, xr.grad, 0)
    assert_close(router.grad, rr.grad, 0)
    for i, s in enumerate(stacked):
        assert_close(s.grad, np.stack([p[i].grad for p in per_expert]), 0)


@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mean_matches_add_chain_and_scale_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    x0, ws = rng.normal(size=(3, 4)), [Tensor(rng.normal(size=(3, 4))) for _ in range(n)]
    values = []
    for mean in (T.mean, ref_mean):
        x = leaf(x0)
        with T.fresh_tape():
            loss = mean([T.tsum(T.mul(T.mul(x, w), x)) for w in ws])
            T.backward(loss)
        values.append((loss.data, x.grad))
    assert_close(values[0][0], values[1][0], 0)
    assert_close(values[0][1], values[1][1], 0)


# ---------------------------------------------------------------------------
# tape budget


def decoder_step_loss(mode):
    # the DPO acceptance shapes: d=64, 2 layers, 2 experts, 2 heads, TGM
    spec = CorpusSpec(seed=7777, size=48)
    records = gen_supervised_corpus(spec)[:8]
    decoder = SpeechDecoder(SpeechDecoderConfig(
        mode=mode, layers=2, experts=2, model_dim=spec.feature_dim, heads=2,
        vocab_nar=spec.vocab_nar, upsample=spec.upsample, max_context=32, seed=0))
    return lambda: T.mean(sample_loss(decoder, r, decode_f32(r["features"]))
                          for r in records)


def align_one_step_loss():
    # stage I at the perfbench shapes: batch 32, seq_len 8-12, frozen backbone
    spec = AlignmentSpec(seed=3, n_speech_text=32, seq_len=(8, 12))
    model = OmniModel(spec, layers=1, seed=1)
    _set_freeze(model, True)
    records = gen_speech_text_corpus(spec)
    return lambda: speech_text_loss(model, records)


@pytest.mark.parametrize("case, budget", [("nar", 240), ("ar", 224), ("alignI", 456)],
                         ids=["nar", "ar", "alignI"])
def test_training_step_stays_within_its_node_budget(case, budget):
    step_loss = align_one_step_loss() if case == "alignI" else decoder_step_loss(case)
    with T.fresh_tape() as tape:
        step_loss()
        assert len(tape) <= budget


# ---------------------------------------------------------------------------
# files written with per-head and per-expert names


TINY = dict(layers=2, experts=2, model_dim=8, heads=2, vocab_nar=12,
            vocab_ar=16, upsample=2, max_units=10, max_context=6, text_vocab=5)


def per_head_layout(params, heads):
    """The parameter names and shapes a file had before the fusion."""
    out = {}
    for name, arr in params.items():
        stem = name.rsplit(".", 2)[0]
        if name == "tgm.xattn.qkv.w":  # one head, named without an index
            out.update({f"{stem}.{part}.w": w
                        for part, (w,) in zip("qkv", split_qkv(arr, 1))})
        elif name.endswith(".qkv.w"):
            for part, blocks in zip("qkv", split_qkv(arr, heads)):
                out.update({f"{stem}.{part}{h}.w": w for h, w in enumerate(blocks)})
        elif ".experts." in name:
            stem, layer = name.split(".experts.")
            out.update({f"{stem}.expert{e}.{layer}": a for e, a in enumerate(arr)})
        else:
            out[name] = arr
    return out


def per_op_layers(monkeypatch):
    """Route the layers through the reference compositions."""
    def attention(self, x, causal):
        wq, wk, wv = [[Tensor(w) for w in part]
                      for part in split_qkv(self.qkv.data, self.heads)]
        return ref_attention(x, wq, wk, wv, self.out, causal)

    def moe(self, x):
        return ref_expert_mix(x, self.router.w, [
            [Tensor(a.data[e]) for a in (self.w1, self.b1, self.w2, self.b2)]
            for e in range(self.w1.shape[0])])

    def tgm(self, hidden, text_embed=None):
        if text_embed is None:
            return hidden
        (wq,), (wk,), (wv,) = [[Tensor(w) for w in part]
                               for part in split_qkv(self.qkv.data, 1)]
        return ref_tgm(hidden, text_embed, wq, wk, wv, self.proj.w)

    monkeypatch.setattr(nn.SelfAttention, "__call__", attention)
    monkeypatch.setattr(nn.TextGuidedModule, "__call__", tgm)
    monkeypatch.setattr(nn.MoELayer, "__call__", moe)
    monkeypatch.setattr(nn.LayerNorm, "__call__",
                        lambda self, x: ref_layer_norm(x, self.g, self.b, self.eps))
    monkeypatch.setattr(nn.Linear, "__call__", lambda self, x: (
        T.matmul(x, self.w) if self.b is None else ref_linear(x, self.w, self.b)))


@pytest.mark.parametrize("mode", ["nar", "ar"])
def test_decoder_file_with_per_head_names_loads_and_generates_the_same(
        tmp_path, monkeypatch, mode):
    config = SpeechDecoderConfig(mode=mode, seed=5, **TINY)
    decoder = SpeechDecoder(config)
    rng = np.random.default_rng(6)
    for p in decoder.parameters().values():
        p.data += rng.normal(0.0, 0.1, p.shape)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, per_head_layout(
        {k: p.data for k, p in decoder.parameters().items()}, config.heads),
        asdict(config))
    loaded = SpeechDecoder.load(path)
    for name, p in decoder.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data)

    def generate(model, cond):
        with T.no_grad():
            if mode == "nar":
                return model.nar_generate(cond).units, model.nar_forward(cond).data
            out = model.ar_generate(cond, max_len=6)
            return out.units, model.ar_forward(cond, list(out.units.units)).data

    conds = [rng.normal(size=(t, TINY["model_dim"])) for t in (1, 3, 6)]
    got = [generate(loaded, c) for c in conds]
    with monkeypatch.context() as m:
        per_op_layers(m)
        want = [generate(decoder, c) for c in conds]
    for (units, lp), (ref_units, ref_lp) in zip(got, want):
        assert units == ref_units
        assert np.abs(lp - ref_lp).max() <= ATTENTION_TOL


def test_decoder_file_with_separate_tgm_projections_gives_the_same_text_loss(
        tmp_path, monkeypatch):
    # generation runs without text and so bypasses the text-guided module;
    # the text-conditioned training loss goes through it
    config = SpeechDecoderConfig(mode="nar", seed=5, **TINY)
    decoder = SpeechDecoder(config)
    rng = np.random.default_rng(8)
    for p in decoder.parameters().values():
        p.data += rng.normal(0.0, 0.1, p.shape)
    layout = per_head_layout({k: p.data for k, p in decoder.parameters().items()},
                             config.heads)
    assert {"tgm.xattn.q.w", "tgm.xattn.k.w", "tgm.xattn.v.w"} <= set(layout)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, layout, asdict(config))
    loaded = SpeechDecoder.load(path)
    cases = [(rng.normal(size=(t, TINY["model_dim"])), units, text)
             for t, units, text in ((3, [1, 2], [0, 4]), (6, [3, 3, 1, 5], [2, 1, 3, 0]))]
    with T.no_grad():
        got = [loaded.nar_loss(c, u, text).item() for c, u, text in cases]
        bypassed = [loaded.nar_loss(c, u).item() for c, u, _ in cases]
        with monkeypatch.context() as m:
            per_op_layers(m)
            want = [decoder.nar_loss(c, u, text).item() for c, u, text in cases]
    assert np.abs(np.subtract(got, want)).max() <= ATTENTION_TOL
    assert min(abs(a - b) for a, b in zip(got, bypassed)) > 1e-6
