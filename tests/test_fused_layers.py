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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unitforge.nn as nn
import unitforge.tensor as T
from unitforge.alignment import STAGE_LOSSES, OmniModel, _set_freeze
from unitforge.checkpoint import save_checkpoint
from unitforge.cli import EXIT_INVALID_SPEC, main
from unitforge.ctc import UnitSequence
from unitforge.data import (AlignmentSpec, CorpusSpec, decode_f32,
                            gen_preference_corpus, gen_speech_text_corpus,
                            gen_supervised_corpus, write_jsonl)
from unitforge.decoder import (AR_BOS, SpeechDecoder, SpeechDecoderConfig,
                               batch_loss)
from unitforge.errors import DataError, ShapeError
from unitforge.preference import _dpo_loss, pairs_from_records
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


@given(d=st.sampled_from([32, 48, 64, 160]), t=st.integers(1, 130),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_layer_norm_matches_mean_var_composition_at_model_widths(d, t, seed):
    # widths past numpy's 8-wide unrolled blocks, so each row mean, variance
    # and gradient mean is a pairwise sum; rows up to past 128, the block of
    # the column sums that give the gain and bias gradients; a row offset
    # keeps the mean away from 0
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(rng.normal(0.0, 10.0), 1.0, (t, d)),
              rng.normal(1.0, 0.2, d), rng.normal(size=d)]
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


# one [B, Lmax] padded grid (4 lengths save 944 cells, under 3 * GRID_CELLS)
# and a grid per length (2 lengths save 16464 cells)
PADDED_GRID = [16, 18, 20, 22, 16, 18, 20, 22]
PER_LENGTH_GRIDS = [28, 84, 56, 28]


@given(heads=st.sampled_from([1, 2, 4]),
       lengths=st.integers(1, 90).flatmap(
           lambda top: st.lists(st.integers(1, top), min_size=1, max_size=8)),
       causal=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example(heads=2, lengths=PADDED_GRID, causal=True, seed=1)
@example(heads=2, lengths=PER_LENGTH_GRIDS, causal=False, seed=2)
@settings(max_examples=80, deadline=None)
def test_packed_attention_matches_per_segment_calls(heads, lengths, causal, seed):
    rng = np.random.default_rng(seed)
    d = 2 * heads
    x0 = rng.normal(size=(sum(lengths), d))
    qkv0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, 3 * d))
    o0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
    up = rng.normal(size=x0.shape)
    x, qkv, o = leaf(x0), leaf(qkv0), leaf(o0)
    got = run(lambda: T.attention(x, qkv, o, heads, causal, lengths=lengths), up)
    bounds = np.cumsum([0, *lengths])
    segs = [leaf(x0[a:b]) for a, b in zip(bounds, bounds[1:])]
    qkvr, orr = leaf(qkv0), leaf(o0)
    want = run(lambda: T.concat_rows(*[T.attention(seg, qkvr, orr, heads, causal)
                                       for seg in segs]), up)
    assert_close(got, want, ATTENTION_TOL)
    assert_close(x.grad, np.concatenate([seg.grad for seg in segs]), ATTENTION_TOL)
    assert_close(qkv.grad, qkvr.grad, ATTENTION_TOL)
    assert_close(o.grad, orr.grad, ATTENTION_TOL)


@pytest.mark.parametrize("lengths, grids", [
    (PADDED_GRID, [(0, 8, 22, "padded")]),
    (PER_LENGTH_GRIDS, [(0, 2, 28, None), (56, 1, 56, None), (112, 1, 84, None)]),
    ([5, 5, 5], [(0, 3, 5, None)]),
], ids=["padded", "per-length", "one-length"])
def test_attention_lays_segments_out_by_the_packing_rule(lengths, grids):
    order, got = T._layout(np.array(lengths), sum(lengths))
    assert [(*g[:3], g[3] and "padded") for g in got] == grids
    # per-length grids read the rows in length order; the others as they are
    if len(got) == 1:
        assert order is None
    else:
        starts = np.cumsum(lengths) - lengths
        assert order.tolist() == [starts[i] + r for i in np.argsort(lengths, kind="stable")
                                  for r in range(lengths[i])]


@given(heads=st.integers(1, 4), dh=st.integers(1, 3), prompt=st.integers(1, 8),
       chunks=st.lists(st.integers(1, 3), max_size=8), spare=st.integers(0, 2),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_cached_attention_matches_one_causal_call(heads, dh, prompt, chunks, spare,
                                                  seed):
    # a prompt, then rows one or a few at a time, each call writing its keys
    # and values into the cache, against one causal call over all the rows
    rng = np.random.default_rng(seed)
    d = heads * dh
    x0 = rng.normal(size=(prompt + sum(chunks), d))
    qkv = Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, 3 * d)))
    o = Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d)))
    want = T.attention(Tensor(x0), qkv, o, heads, True).data
    cache = T.KVCache(heads, len(x0) + spare, dh)
    bounds = np.cumsum([0, prompt, *chunks])
    got = [T.attention(Tensor(x0[a:b]), qkv, o, heads, True, cache=cache).data
           for a, b in zip(bounds, bounds[1:])]
    assert cache.rows == len(x0)
    assert_close(np.concatenate(got), want, ATTENTION_TOL)


@pytest.mark.parametrize("lengths, context, keys", [
    ([2, 2], None, None), ([3, 0, 2], None, None), ([], None, None), ([5], 2, None),
    # key lengths must tile the context, one segment per query segment
    ([2, 3], 5, [2, 2]), ([2, 3], 5, [5, 0]), ([2, 3], 5, [5]), ([2, 3], 5, [1, 1, 3]),
    ([5], None, [5])],
    ids=["short", "empty-segment", "no-segments", "context", "key-sum",
         "empty-key-segment", "fewer-key-segments", "more-key-segments",
         "keys-without-context"])
def test_packed_attention_rejects_bounds_that_do_not_tile_x(lengths, context, keys):
    x, w_qkv, w_o = (Tensor(np.ones(shape)) for shape in ((5, 4), (4, 12), (4, 4)))
    ctx = None if context is None else Tensor(np.ones((context, 4)))
    with pytest.raises(ShapeError):
        T.attention(x, w_qkv, w_o, 2, True, context=ctx, lengths=lengths,
                    key_lengths=keys)


@given(heads=st.sampled_from([1, 2]),
       segments=st.lists(st.tuples(st.integers(1, 24), st.integers(1, 9)),
                         min_size=1, max_size=8),
       seed=st.integers(0, 2**31 - 1))
@example(heads=1, segments=[(7, 4), (21, 4), (12, 4)], seed=1)  # equal key lengths
@example(heads=2, segments=[(9, 5), (14, 1), (3, 9)], seed=2)  # a one-token text
@settings(max_examples=80, deadline=None)
def test_packed_cross_attention_matches_per_segment_calls(heads, segments, seed):
    # (query rows, key rows) per segment: one packed call against one call
    # per pair of segments
    rng = np.random.default_rng(seed)
    d = 2 * heads
    lengths, keys = [list(side) for side in zip(*segments)]
    x0, ctx0 = rng.normal(size=(sum(lengths), d)), rng.normal(size=(sum(keys), d))
    qkv0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, 3 * d))
    o0 = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
    up = rng.normal(size=x0.shape)
    x, ctx, qkv, o = leaf(x0), leaf(ctx0), leaf(qkv0), leaf(o0)
    got = run(lambda: T.attention(x, qkv, o, heads, False, context=ctx,
                                  lengths=lengths, key_lengths=keys), up)
    rows, cols = np.cumsum([0, *lengths]), np.cumsum([0, *keys])
    segs = [leaf(x0[a:b]) for a, b in zip(rows, rows[1:])]
    texts = [leaf(ctx0[a:b]) for a, b in zip(cols, cols[1:])]
    qkvr, orr = leaf(qkv0), leaf(o0)
    want = run(lambda: T.concat_rows(*[
        T.attention(seg, qkvr, orr, heads, False, context=text)
        for seg, text in zip(segs, texts)]), up)
    assert_close(got, want, ATTENTION_TOL)
    assert_close(x.grad, np.concatenate([seg.grad for seg in segs]), ATTENTION_TOL)
    assert_close(ctx.grad, np.concatenate([text.grad for text in texts]), ATTENTION_TOL)
    assert_close(qkv.grad, qkvr.grad, ATTENTION_TOL)
    assert_close(o.grad, orr.grad, ATTENTION_TOL)


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


def loop_expert_mix(x, w1, b1, w2, b2, weights, g):
    """The expert mix as a loop over experts, in NumPy: its output and the
    gradients of x, w1, b1, w2, b2 and weights under the upstream ``g``."""
    cache, out = [], None
    for e in range(len(w1)):
        a = x @ w1[e] + b1[e]
        r = np.maximum(a, 0.0)
        h = r @ w2[e] + b2[e]
        term = h * weights[:, e][:, None]
        out = term if out is None else out + term
        cache.append((a, r, h))
    grads = [np.empty_like(arr) for arr in (w1, b1, w2, b2, weights)]
    gw1, gb1, gw2, gb2, gwt = grads
    gx = None
    for e in reversed(range(len(w1))):
        a, r, h = cache[e]
        gwt[:, e] = (g * h).sum(axis=1)
        gh = g * weights[:, e][:, None]
        gb2[e] = gh.sum(axis=0)
        gw2[e] = r.T @ gh
        ga = (gh @ w2[e].T) * (a > 0).astype(np.float64)
        gb1[e] = ga.sum(axis=0)
        gw1[e] = x.T @ ga
        gxe = ga @ w1[e].T
        gx = gxe if gx is None else gx + gxe
    return out, [gx, *grads]


@given(experts=st.integers(1, 4), t=st.integers(1, 130),
       d=st.sampled_from([32, 64]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
@example(experts=4, t=130, d=64, seed=0)
def test_expert_mix_matches_the_loop_over_experts_at_model_shapes(experts, t,
                                                                  d, seed):
    # the decoders' widths and context lengths, with softmax routing
    rng = np.random.default_rng(seed)
    shapes = [(t, d), (experts, d, 4 * d), (experts, 4 * d), (experts, 4 * d, d),
              (experts, d)]
    arrays = [rng.normal(size=s) for s in shapes]
    logits = rng.normal(size=(t, experts))
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    up = rng.normal(size=(t, d))
    leaves = [leaf(a) for a in (*arrays, weights)]
    got = run(lambda: T.expert_mix(*leaves), up)
    want, grads = loop_expert_mix(*arrays, weights, up)
    assert_close(got, want, 0)
    for tensor, grad in zip(leaves, grads):
        assert_close(tensor.grad, grad, 0)


@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mean_matches_add_chain_and_scale_bit_for_bit(n, seed):
    # terms computed from x: the add chain runs over the elements of one
    # term vector, each taken out as a scalar
    rng = np.random.default_rng(seed)
    x0, w = rng.normal(size=n), Tensor(rng.normal(size=n))
    values = []
    for split in (False, True):
        x = leaf(x0)
        with T.fresh_tape():
            terms = T.mul(T.mul(x, w), x)
            loss = (ref_mean([T.gather_rows(terms, i) for i in range(n)]) if split
                    else T.mean(terms))
            T.backward(loss)
        values.append((loss.data, x.grad))
    assert_close(values[0][0], values[1][0], 0)
    assert_close(values[0][1], values[1][1], 0)


@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mean_of_a_vector_matches_mean_of_its_elements_bit_for_bit(n, seed):
    # a batched loss node returns its terms as one 1-D tensor
    v0 = np.random.default_rng(seed).normal(size=n)
    values = []
    for split in (False, True):
        v = leaf(v0)
        with T.fresh_tape():
            loss = (ref_mean([T.gather_rows(v, i) for i in range(n)]) if split
                    else T.mean(v))
            T.backward(loss)
        values.append((loss.data, v.grad))
    assert_close(values[0][0], values[1][0], 0)
    assert_close(values[0][1], values[1][1], 0)


# ---------------------------------------------------------------------------
# tape budget


def decoder_step_loss(mode, batch=8):
    # the DPO acceptance shapes: d=64, 2 layers, 2 experts, 2 heads, TGM
    spec = CorpusSpec(seed=7777, size=48)
    records = gen_supervised_corpus(spec)[:batch]
    decoder = SpeechDecoder(SpeechDecoderConfig(
        mode=mode, layers=2, experts=2, model_dim=spec.feature_dim, heads=2,
        vocab_nar=spec.vocab_nar, upsample=spec.upsample, max_context=32, seed=0))
    return lambda: batch_loss(decoder, records,
                              [decode_f32(r["features"]) for r in records])


def dpo_step_loss(batch=8):
    # a DPO step at the DPO acceptance shapes: the policy's packed NAR
    # forward over the pairs' contexts, with constant reference scores
    spec = CorpusSpec(seed=7778, size=batch)
    pairs = pairs_from_records(gen_preference_corpus(spec))
    policy = SpeechDecoder(SpeechDecoderConfig(
        mode="nar", layers=2, experts=2, model_dim=spec.feature_dim, heads=2,
        vocab_nar=spec.vocab_nar, upsample=spec.upsample, max_context=32, seed=0))
    return lambda: _dpo_loss(policy, pairs, [(0.0, 0.0)] * len(pairs), 0.1)


def align_one_step_loss(batch=32):
    # stage I at the perfbench shapes: batch 32, seq_len 8-12, frozen backbone
    spec = AlignmentSpec(seed=3, n_speech_text=32, seq_len=(8, 12))
    model = OmniModel(spec, layers=1, seed=1)
    _set_freeze(model, True)
    records = gen_speech_text_corpus(spec)[:batch]
    return lambda: STAGE_LOSSES["I"](model, records)


@pytest.mark.parametrize("build, budget",
                         [(lambda: decoder_step_loss("nar"), 30),
                          (lambda: decoder_step_loss("ar"), 29),
                          (dpo_step_loss, 37), (align_one_step_loss, 15)],
                         ids=["nar", "ar", "dpo", "alignI"])
def test_training_step_stays_within_its_node_budget(build, budget):
    step_loss = build()
    with T.fresh_tape() as tape:
        step_loss()
        assert len(tape) <= budget


def test_packed_alignment_step_records_as_many_nodes_at_batch_1_as_at_32():
    counts = []
    for batch in (1, 32):
        with T.fresh_tape() as tape:
            align_one_step_loss(batch)()
            counts.append(len(tape))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ["nar", "ar"])
def test_packed_decoder_step_records_as_many_nodes_at_batch_1_8_and_32(mode):
    # text fusion included: one packed cross-attention per batch
    counts = []
    for batch in (1, 8, 32):
        with T.fresh_tape() as tape:
            decoder_step_loss(mode, batch)()
            counts.append(len(tape))
    assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# the fused decoder against the per-op layers, and a file in the older layout


TINY = dict(layers=2, experts=2, model_dim=8, heads=2, vocab_nar=12,
            vocab_ar=16, upsample=2, max_units=10, max_context=6, text_vocab=5)


def perturbed_decoder(mode, seed):
    """A TINY decoder whose weights are moved off their initial values, and
    the generator that moved them."""
    decoder = SpeechDecoder(SpeechDecoderConfig(mode=mode, seed=5, **TINY))
    rng = np.random.default_rng(seed)
    for p in decoder.parameters().values():
        p.data += rng.normal(0.0, 0.1, p.shape)
    return decoder, rng


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
    def attention(self, x, causal, lengths=None, cache=None):
        # no cache: the reference runs full forwards; packed segments one
        # at a time
        assert cache is None
        wq, wk, wv = [[Tensor(w) for w in part]
                      for part in split_qkv(self.qkv.data, self.heads)]
        bounds = np.cumsum([0, *([len(x.data)] if lengths is None else lengths)])
        return T.concat_rows(*[
            ref_attention(T.gather_rows(x, np.arange(a, b)), wq, wk, wv,
                          self.out, causal) for a, b in zip(bounds, bounds[1:])])

    def moe(self, x):
        return ref_expert_mix(x, self.router.w, [
            [Tensor(a.data[e]) for a in (self.w1, self.b1, self.w2, self.b2)]
            for e in range(self.w1.shape[0])])

    def tgm(self, hidden, text_embed=None, lengths=None, text_lengths=None):
        # packed (context, text) segments one pair at a time
        if text_embed is None:
            return hidden
        (wq,), (wk,), (wv,) = [[Tensor(w) for w in part]
                               for part in split_qkv(self.qkv.data, 1)]
        rows = np.cumsum([0, *([len(hidden.data)] if lengths is None else lengths)])
        keys = np.cumsum([0, *([len(text_embed.data)] if text_lengths is None
                               else text_lengths)])
        return T.concat_rows(*[
            ref_tgm(T.gather_rows(hidden, np.arange(a, b)),
                    T.gather_rows(text_embed, np.arange(ka, kb)), wq, wk, wv, self.proj.w)
            for a, b, ka, kb in zip(rows, rows[1:], keys, keys[1:])])

    monkeypatch.setattr(nn.SelfAttention, "__call__", attention)
    monkeypatch.setattr(nn.TextGuidedModule, "__call__", tgm)
    monkeypatch.setattr(nn.MoELayer, "__call__", moe)
    monkeypatch.setattr(nn.LayerNorm, "__call__",
                        lambda self, x: ref_layer_norm(x, self.g, self.b, self.eps))
    monkeypatch.setattr(nn.Linear, "__call__", lambda self, x: (
        T.matmul(x, self.w) if self.b is None else ref_linear(x, self.w, self.b)))


@pytest.mark.parametrize("mode", ["nar", "ar"])
def test_fused_decoder_generates_as_the_per_op_layers(monkeypatch, mode):
    decoder, rng = perturbed_decoder(mode, 6)

    def greedy_full_forwards(cond, max_len):
        # what the uncached ar_generate ran: one full causal forward per
        # step, which the per-op attention (it takes no cache) can run too
        units = []
        while len(units) < max_len:
            nxt = int(decoder.ar_forward(cond, units).data[0].argmax())
            if nxt == decoder.eos_id:
                break
            units.append(nxt)
        return UnitSequence([u for u in units if u != AR_BOS])

    def generate(cond, cached):
        with T.no_grad():
            if mode == "nar":
                return decoder.nar_generate(cond).units, decoder.nar_forward([cond])[0].data
            units = (decoder.ar_generate(cond, max_len=6).units if cached
                     else greedy_full_forwards(cond, max_len=6))
            return units, decoder.ar_forward(cond, list(units.units)).data

    conds = [rng.normal(size=(t, TINY["model_dim"])) for t in (1, 3, 6)]
    got = [generate(c, cached=True) for c in conds]
    with monkeypatch.context() as m:
        per_op_layers(m)
        want = [generate(c, cached=False) for c in conds]
    for (units, lp), (ref_units, ref_lp) in zip(got, want):
        assert units == ref_units
        assert np.abs(lp - ref_lp).max() <= ATTENTION_TOL


def test_fused_text_guided_module_gives_the_per_op_text_loss(monkeypatch):
    # generation runs without text and so bypasses the text-guided module;
    # the text-conditioned training loss goes through it
    decoder, rng = perturbed_decoder("nar", 8)
    cases = [(rng.normal(size=(t, TINY["model_dim"])), units, text)
             for t, units, text in ((3, [1, 2], [0, 4]), (6, [3, 3, 1, 5], [2, 1, 3, 0]))]
    conds, units, texts = zip(*cases)
    with T.no_grad():
        got = [decoder.loss([c], [u], [text]).item() for c, u, text in cases]
        got.append(decoder.loss(conds, units, texts).item())  # one packed batch
        bypassed = [decoder.loss([c], [u]).item() for c, u, _ in cases]
        with monkeypatch.context() as m:
            per_op_layers(m)
            want = [decoder.loss([c], [u], [text]).item() for c, u, text in cases]
            want.append(decoder.loss(conds, units, texts).item())
    assert np.abs(np.subtract(got, want)).max() <= ATTENTION_TOL
    assert min(abs(a - b) for a, b in zip(got, bypassed)) > 1e-6


def test_decoder_file_in_the_per_head_layout_is_rejected(tmp_path):
    decoder, _ = perturbed_decoder("nar", 6)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, per_head_layout(
        {k: p.data for k, p in decoder.parameters().items()}, TINY["heads"]),
        asdict(decoder.config))
    with pytest.raises(DataError) as exc:
        SpeechDecoder.load(path)
    for name in ("block0.attn.q0.w", "block1.attn.v1.w", "moe.expert0.fc1.w",
                 "tgm.xattn.q.w", "block0.attn.qkv.w", "moe.experts.fc1.w"):
        assert repr(name) in str(exc.value)
    corpus = tmp_path / "supervised.jsonl"
    write_jsonl(corpus, gen_supervised_corpus(CorpusSpec(size=2)))
    out = tmp_path / "out"
    assert main(["eval", "uer", "--checkpoint", str(path), "--corpus", str(corpus),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())
