"""Neural blocks: routing simplex, fusion identity, causality, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.nn as nn
import unitforge.tensor as T
from unitforge.errors import ConfigurationError, ContractError, ShapeError
from unitforge.tensor import Tensor, check_parameter_gradients


def rand_x(rng, t, d):
    return Tensor(rng.normal(0.0, 1.0, (t, d)))


def expert(moe, e, x):
    """Expert e of a MoE layer on its own: relu(x W1 + b1) W2 + b2."""
    h = np.maximum(x.data @ moe.w1.data[e] + moe.b1.data[e], 0.0)
    return h @ moe.w2.data[e] + moe.b2.data[e]


# ---------------------------------------------------------------------------
# MoE


def test_router_weights_form_simplex():
    rng = np.random.default_rng(0)
    moe = nn.MoELayer(rng, 8, 4)
    w = moe.routing_weights(rand_x(rng, 6, 8))
    assert w.data.shape == (6, 4)
    assert (w.data >= 0).all()
    assert np.abs(w.data.sum(axis=1) - 1.0).max() < 1e-12


def test_single_expert_routing_is_identity_weighting():
    rng = np.random.default_rng(1)
    moe = nn.MoELayer(rng, 8, 1)
    x = rand_x(rng, 5, 8)
    expected = expert(moe, 0, x)
    assert np.allclose(moe(x).data, expected, atol=1e-12)


def test_moe_matches_manual_weighted_sum():
    rng = np.random.default_rng(2)
    moe = nn.MoELayer(rng, 8, 3)
    x = rand_x(rng, 4, 8)
    weights = moe.routing_weights(x).data
    manual = sum(weights[:, e:e + 1] * expert(moe, e, x)
                 for e in range(3))
    assert np.allclose(moe(x).data, manual, atol=1e-12)


def test_identical_experts_make_expert_count_irrelevant():
    rng = np.random.default_rng(3)
    moe = nn.MoELayer(rng, 8, 3)
    for p in (moe.w1, moe.b1, moe.w2, moe.b2):
        p.data[:] = p.data[0]
    x = rand_x(rng, 4, 8)
    assert np.allclose(moe(x).data, expert(moe, 0, x), atol=1e-12)


def test_moe_rejects_zero_experts():
    with pytest.raises(ConfigurationError):
        nn.MoELayer(np.random.default_rng(0), 8, 0)


# ---------------------------------------------------------------------------
# text-guided fusion


def test_tgm_zero_init_is_bitwise_identity():
    rng = np.random.default_rng(4)
    tgm = nn.TextGuidedModule(rng, 8)
    x = rand_x(rng, 5, 8)
    text = rand_x(rng, 3, 8)
    out = tgm(x, text)
    assert np.array_equal(out.data, x.data)


def test_tgm_bypassed_without_text():
    rng = np.random.default_rng(5)
    tgm = nn.TextGuidedModule(rng, 8)
    tgm.proj.w.data[:] = rng.normal(0.0, 1.0, (8, 8))
    x = rand_x(rng, 5, 8)
    assert tgm(x) is x
    assert not np.array_equal(tgm(x, rand_x(rng, 3, 8)).data, x.data)


def test_tgm_draws_its_projections_as_separate_linears_did():
    tgm = nn.TextGuidedModule(np.random.default_rng(9), 8)
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(0.0, 1.0 / np.sqrt(8), (8, 8)) for _ in range(3))
    assert np.array_equal(tgm.qkv.data, np.concatenate([q, k, v], axis=1))
    assert not tgm.proj.w.data.any()


def test_tgm_gradient_reaches_attention_weights():
    rng = np.random.default_rng(6)
    tgm = nn.TextGuidedModule(rng, 4)
    tgm.proj.w.data[:] = rng.normal(0.0, 0.3, (4, 4))
    x = rand_x(rng, 3, 4)
    text = rand_x(rng, 2, 4)
    err = check_parameter_gradients(
        lambda: T.tsum(tgm(x, text)), tgm.parameters("tgm"))
    assert err < 1e-3


# ---------------------------------------------------------------------------
# attention / causality


def test_causal_mask_layout():
    # zero queries make every allowed score equal, and identity value and
    # output weights make row t the mean of the rows it may attend to
    attn = nn.SelfAttention(np.random.default_rng(0), 3, 1)
    attn.qkv.data[:] = np.hstack([np.zeros((3, 3)), np.eye(3), np.eye(3)])
    attn.out.data[:] = np.eye(3)
    x = np.arange(9.0).reshape(3, 3)
    out = attn(Tensor(x), causal=True).data
    expected = np.cumsum(x, axis=0) / np.arange(1, 4)[:, None]
    assert np.abs(out - expected).max() < 1e-12
    full = attn(Tensor(x), causal=False).data
    assert np.abs(full - x.mean(axis=0)).max() < 1e-12


def test_causal_attention_ignores_future_bitwise():
    rng = np.random.default_rng(7)
    block = nn.DecoderBlock(rng, 8, 2)
    x = rng.normal(0.0, 1.0, (6, 8))
    full = block(Tensor(x), causal=True).data
    perturbed = x.copy()
    perturbed[4:] = rng.normal(0.0, 5.0, (2, 8))
    out = block(Tensor(perturbed), causal=True).data
    assert np.array_equal(full[:4], out[:4])


def test_noncausal_attention_sees_everything():
    rng = np.random.default_rng(8)
    block = nn.DecoderBlock(rng, 8, 2)
    x = rng.normal(0.0, 1.0, (6, 8))
    full = block(Tensor(x), causal=False).data
    perturbed = x.copy()
    perturbed[5] = rng.normal(0.0, 5.0, 8)
    out = block(Tensor(perturbed), causal=False).data
    assert not np.allclose(full[0], out[0])


def test_attention_rejects_indivisible_heads():
    with pytest.raises(ConfigurationError):
        nn.SelfAttention(np.random.default_rng(0), 8, 3)


# ---------------------------------------------------------------------------
# layer norm


@pytest.mark.parametrize("d, heads", [(8, 0), (0, 2), (-4, 2), (8, -1)])
def test_attention_rejects_empty_dims_and_head_counts(d, heads):
    with pytest.raises(ConfigurationError):
        nn.SelfAttention(np.random.default_rng(0), d, heads)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(9)
    ln = nn.LayerNorm(16)
    y = ln(rand_x(rng, 4, 16)).data
    assert np.abs(y.mean(axis=1)).max() < 1e-9
    assert np.abs(y.std(axis=1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 5)))
    loss = nn.cross_entropy(logits, [0, 1, 2], [0, 2, 4])
    assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)


def test_cross_entropy_position_masking():
    rng = np.random.default_rng(10)
    logits = Tensor(rng.normal(0.0, 1.0, (4, 5)))
    masked = nn.cross_entropy(logits, [1, 3], [2, 4])
    lp = T.log_softmax_last_dim(logits).data
    expected = -(lp[1, 2] + lp[3, 4]) / 2
    assert masked.item() == pytest.approx(expected, abs=1e-12)


def _op(kind, value, bwd, *inputs):
    return T.record_custom(kind, Tensor(value), bwd, *inputs)


def take_per_row(x, idx):
    """out[t] = x[t, idx[t]]"""
    rows = np.arange(x.shape[0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return [(x, gx)]
    return _op("take_per_row", x.data[rows, idx], bwd, x)


def tmean(x):
    n = x.data.size

    def bwd(g):
        return [(x, np.full_like(x.data, float(g) / n))]
    return _op("mean", x.data.mean(), bwd, x)


def five_op_cross_entropy(logits, rows, targets):
    """The chain ``nn.cross_entropy`` replaced: log-softmax over every row,
    a per-row pick from a target array padded to all rows, a gather of
    the scored rows, a mean and a scale by -1."""
    padded = np.zeros(logits.shape[0], dtype=np.int64)
    padded[rows] = targets
    picked = take_per_row(T.log_softmax_last_dim(logits), padded)
    return T.scale(tmean(T.gather_rows(picked, rows)), -1.0)


@given(t=st.integers(1, 12), v=st.integers(2, 40), seed=st.integers(0, 2**31 - 1),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_cross_entropy_matches_the_five_op_chain_bit_for_bit(t, v, seed, data):
    rows = data.draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=t,
                              unique=True))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 3.0, (t, v))
    targets = rng.integers(0, v, len(rows))
    got = []
    for loss_fn in (nn.cross_entropy, five_op_cross_entropy):
        x = Tensor(x0.copy(), requires_grad=True)
        with T.fresh_tape():
            loss = loss_fn(x, rows, targets)
            T.backward(loss)
        got.append((loss.data, x.grad))
    (loss, grad), (want_loss, want_grad) = got
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)
    unscored = np.setdiff1d(np.arange(t), rows)
    assert not grad[unscored].any()


def test_cross_entropy_is_one_tape_node():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    with T.fresh_tape() as tape:
        nn.cross_entropy(x, [0, 3], [1, 2])
        assert [n.kind for n in tape] == ["cross_entropy"]


@pytest.mark.parametrize("rows, targets", [
    ([], []), ([0, 0], [1, 1]), ([4], [0]), ([-1], [0]), ([[0, 1]], [0, 1]),
    ([0, 1], [0]), ([0, 1], [0, 3]), ([0, 1], [-1, 0]), (0, 0)],
    ids=["no-rows", "repeated-row", "row-past-end", "negative-row", "2d-rows",
         "too-few-targets", "target-past-V", "negative-target", "scalar-row"])
def test_cross_entropy_rejects_bad_rows_or_targets(rows, targets):
    with pytest.raises(ShapeError):
        nn.cross_entropy(Tensor(np.zeros((4, 3))), rows, targets)


def test_cross_entropy_weighs_each_scored_row():
    x0 = np.random.default_rng(0).normal(size=(4, 3))
    x = Tensor(x0, requires_grad=True)
    with T.fresh_tape():
        loss = nn.cross_entropy(x, [0, 3], [1, 2], [0.25, 0.75])
        T.backward(loss)
    p = np.exp(x0) / np.exp(x0).sum(axis=1, keepdims=True)
    assert loss.item() == pytest.approx(
        -(0.25 * np.log(p[0, 1]) + 0.75 * np.log(p[3, 2])), abs=1e-14)
    want = np.zeros((4, 3))
    want[0], want[3] = 0.25 * (p[0] - np.eye(3)[1]), 0.75 * (p[3] - np.eye(3)[2])
    assert np.abs(x.grad - want).max() <= 1e-15
    with pytest.raises(ShapeError):
        nn.cross_entropy(x, [0, 3], [1, 2], [1.0])


# ---------------------------------------------------------------------------
# causal-LM batch layout


def test_lm_layout_with_a_separator_and_prompts():
    # the alignment backbone's shape: prefix rows, SEP (9), an unscored
    # prompt, then the target; the last prompt token predicts the first
    # target token
    lay = nn.lm_layout([2, 1], 9, [[4, 5], [6]], prompts=[[7], [8, 3]])
    assert lay.ids.tolist() == [9, 7, 4, 9, 8, 3]
    # rows [prefixes; ids]: prefix rows 0-1 and 2, id rows 3-5 and 6-8
    assert lay.order.tolist() == [0, 1, 3, 4, 5, 2, 6, 7, 8]
    assert lay.lengths.tolist() == [5, 4]
    assert lay.scored.tolist() == [3, 4, 8]
    assert lay.targets.tolist() == [4, 5, 6]
    assert lay.weights.tolist() == [0.25, 0.25, 0.5]


def test_lm_layout_with_a_start_token_and_end_of_sequence():
    # the AR decoder's shape: context rows, BOS (0), units and then
    # end-of-speech (15) as targets; BOS predicts the first unit
    lay = nn.lm_layout([3, 1], 0, [[2, 5, 15], [15]])
    assert lay.ids.tolist() == [0, 2, 5, 0]
    assert lay.order.tolist() == [0, 1, 2, 4, 5, 6, 3, 7]
    assert lay.lengths.tolist() == [6, 2]
    assert lay.scored.tolist() == [3, 4, 5, 7]
    assert lay.targets.tolist() == [2, 5, 15, 15]
    assert np.array_equal(lay.weights, [1 / 6, 1 / 6, 1 / 6, 1 / 2])


@pytest.mark.parametrize("prefix_lengths, targets, prompts", [
    ([], [], None), ([2], [[1], [2]], None), ([2, 1], [[1]], None),
    ([0, 1], [[1], [2]], None), ([1, 1], [[1], []], None),
    ([1], [[1]], [[2], [3]])],
    ids=["no-sequences", "too-few-prefixes", "too-many-prefixes",
         "empty-prefix", "empty-target", "prompt-count"])
def test_lm_layout_rejects_an_empty_or_mismatched_batch(prefix_lengths, targets,
                                                        prompts):
    with pytest.raises(ContractError):
        nn.lm_layout(prefix_lengths, 0, targets, prompts)


# ---------------------------------------------------------------------------
# end-to-end gradient through a 2-block stack


def test_two_block_stack_parameter_gradients():
    rng = np.random.default_rng(11)
    d = 4
    blocks = [nn.DecoderBlock(rng, d, 2) for _ in range(2)]
    head = nn.Linear(rng, d, 3)
    x = rand_x(rng, 3, d)
    params = {}
    for i, b in enumerate(blocks):
        params.update(b.parameters(f"block{i}"))
    params.update(head.parameters("head"))
    for p in params.values():
        p.requires_grad = True

    def loss_fn():
        h = x
        for b in blocks:
            h = b(h, causal=True)
        return nn.cross_entropy(head(h), [0, 1, 2], [0, 1, 2])

    assert check_parameter_gradients(loss_fn, params) < 1e-4


def test_parameter_names_are_stable():
    rng = np.random.default_rng(12)
    moe = nn.MoELayer(rng, 8, 2)
    assert {k: p.shape for k, p in moe.parameters("moe").items()} == {
        "moe.router.w": (8, 2),
        "moe.experts.fc1.w": (2, 8, 32), "moe.experts.fc1.b": (2, 32),
        "moe.experts.fc2.w": (2, 32, 8), "moe.experts.fc2.b": (2, 8)}
    attn = nn.SelfAttention(rng, 8, 2)
    assert {k: p.shape for k, p in attn.parameters("attn").items()} == {
        "attn.qkv.w": (8, 24), "attn.out.w": (8, 8)}
    tgm = nn.TextGuidedModule(rng, 8)
    assert {k: p.shape for k, p in tgm.parameters("tgm").items()} == {
        "tgm.xattn.qkv.w": (8, 24), "tgm.proj.w": (8, 8)}
