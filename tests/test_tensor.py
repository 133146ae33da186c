"""Autodiff core: primitive gradients, tape semantics, optimizer math."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.tensor as T
from unitforge import nn
from unitforge.ctc import ctc_loss
from unitforge.errors import ContractError, DomainError, OracleError, ShapeError
from unitforge.tensor import AdamW, Tensor, finite_difference_check, warmup_lr

FD_TOL = 1e-4
GAIN = Tensor(np.linspace(0.5, 1.5, 4))
BIAS = Tensor(np.linspace(-0.2, 0.3, 4))


def rand(rng, *shape):
    return Tensor(rng.normal(0.0, 1.0, shape))


def ref_mean(terms):
    """The add chain and scale whose float operations ``T.mean`` makes."""
    terms = list(terms)
    return T.scale(functools.reduce(T.add, terms), 1.0 / len(terms))


def embed(table, ids):
    """``nn.Embedding`` over ``table``."""
    emb = nn.Embedding(np.random.default_rng(0), *table.shape)
    emb.table = table
    return emb(ids)


# ---------------------------------------------------------------------------
# finite-difference checks per primitive, 10 seeds each


UNARY_CASES = [
    ("scale", lambda x: T.tsum(T.scale(x, 2.5)), (3, 4)),
    ("repeat_rows", lambda x: T.tsum(T.repeat_rows(x, 3)), (3, 4)),
    ("softmax", lambda x: T.tsum(T.mul(T.softmax_last_dim(x), x)), (3, 4)),
    ("log_softmax", lambda x: T.tsum(T.log_softmax_last_dim(x)), (3, 4)),
    ("layer_norm", lambda x: T.tsum(T.mul(T.layer_norm(x, GAIN, BIAS), x)), (3, 4)),
    ("softplus", lambda x: T.tsum(T.softplus(x)), (3, 4)),
    ("sum", T.tsum, (3, 4)),
    ("mean", lambda x: T.mean(T.mul(x, x)), (5,)),
    ("gather_rows", lambda x: T.tsum(T.gather_rows(x, [0, 2, 2])), (3, 4)),
    ("cross_entropy", lambda x: nn.cross_entropy(x, [2, 0], [1, 3]), (3, 4)),
    ("embedding", lambda x: T.tsum(embed(x, [0, 1, 1, 2])), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape",
                         UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
@pytest.mark.parametrize("seed", range(10))
def test_unary_primitive_gradients(name, fn, shape, seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, *shape)
    assert finite_difference_check(fn, x) < FD_TOL


@pytest.mark.parametrize("seed", range(10))
def test_binary_primitive_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 3, 4)
    b = rand(rng, 4, 2)
    other = Tensor(rng.normal(0.0, 1.0, (3, 4)))
    vec = Tensor(rng.normal(0.0, 1.0, 4))
    bias = Tensor(rng.normal(0.0, 1.0, 2))

    cases = [
        (lambda x: T.tsum(T.matmul(x, b)), a),
        (lambda x: T.tsum(T.matmul(a, x)), b),
        (lambda x: T.tsum(T.add(x, other)), a),
        (lambda x: T.tsum(T.mul(x, other)), a),
        (lambda x: T.tsum(T.mul(T.linear(x, b, bias), T.matmul(other, b))), a),
        (lambda x: T.tsum(T.mul(T.linear(a, x, bias), T.matmul(other, b))), b),
        (lambda x: T.tsum(T.mul(T.linear(a, b, x), T.matmul(other, b))), bias),
        (lambda x: T.tsum(T.mul(T.layer_norm(a, x, vec), other)), vec),
        (lambda x: T.tsum(T.mul(T.layer_norm(a, vec, x), other)), vec),
        (lambda x: T.tsum(T.concat_rows(x, other)), a),
        (lambda x: ref_mean([T.tsum(T.mul(x, x)), T.tsum(T.mul(x, other))]), a),
    ]
    qkv, out_w = rand(rng, 4, 12), rand(rng, 4, 4)
    experts = [rand(rng, 2, 4, 16), rand(rng, 2, 16), rand(rng, 2, 16, 4), rand(rng, 2, 4)]
    fused = [(lambda *t: T.attention(*t, 2, False), [a, qkv, out_w]),
             (lambda *t: T.attention(*t, 2, True), [a, qkv, out_w]),
             (lambda x, w, o, c: T.attention(x, w, o, 2, False, context=c),
              [a, qkv, out_w, rand(rng, 5, 4)]),
             (lambda x, w, o, c: T.attention(x, w, o, 1, False, context=c),
              [a, qkv, out_w, rand(rng, 2, 4)]),
             (T.expert_mix, [a, *experts, T.softmax_last_dim(rand(rng, 3, 2))])]
    for op, args in fused:  # every input of each fused layer
        for i in range(len(args)):
            cases.append((lambda x, op=op, args=args, i=i: T.tsum(
                T.mul(op(*args[:i], x, *args[i + 1:]), other)), args[i]))
    for fn, x in cases:
        assert finite_difference_check(fn, x) < FD_TOL


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0.0, 1.0, (3, 4)))
    x.data[np.abs(x.data) < 0.05] = 0.1  # keep h away from the kink
    assert finite_difference_check(
        lambda t: T.tsum(T.relu(t)), x) < FD_TOL


# ---------------------------------------------------------------------------
# softmax invariants


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = rand(rng, 5, 7)
    y = T.softmax_last_dim(x)
    assert np.abs(y.data.sum(axis=-1) - 1.0).max() < 1e-9


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(2)
    y = T.log_softmax_last_dim(rand(rng, 5, 7))
    assert np.abs(np.exp(y.data).sum(axis=-1) - 1.0).max() < 1e-9


# ---------------------------------------------------------------------------
# tape semantics


def test_shared_subexpression_accumulates():
    # y = x*x used twice: loss = sum(x*x) + sum(x*x) -> grad = 4x
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    with T.fresh_tape():
        sq = T.mul(x, x)
        loss = T.add(T.tsum(sq), T.tsum(sq))
        T.backward(loss)
    assert np.allclose(x.grad, 4.0 * x.data)


def test_gradients_accumulate_across_backward_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with T.fresh_tape():
        loss = T.tsum(T.mul(x, x))
        T.backward(loss)
        first = x.grad.copy()
        T.backward(loss)
    assert np.allclose(x.grad, 2.0 * first)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.fresh_tape():
        y = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(y)


def test_backward_off_tape_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        loss = T.tsum(x)
    with T.fresh_tape():
        with pytest.raises(ContractError):
            T.backward(loss)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.fresh_tape() as tape:
        with T.no_grad():
            y = T.mul(x, x)
        assert len(tape) == 0
        assert not y.requires_grad


def test_fresh_tape_under_no_grad_yields_an_empty_tape_and_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        with T.fresh_tape() as tape:
            y = T.mul(x, x)
            assert not T.tracked(x)
            T.reset_tape()
        assert len(tape) == 0
        assert not y.requires_grad and y.node_id is None


def test_recording_resumes_after_no_grad_inside_fresh_tape():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.fresh_tape() as tape:
        with T.no_grad():
            T.mul(x, x)
        y = T.mul(x, x)
        assert [node.out for node in tape] == [y]
        T.backward(T.tsum(y))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_tensor_left_from_a_cleared_tape_is_a_leaf():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with T.fresh_tape() as tape:
        stale = T.mul(x, x)  # node 0, then cleared
        T.reset_tape()
        other = T.scale(x, 3.0)  # node 0 now holds another tensor
        loss = T.tsum(T.add(stale, other))
        T.backward(loss)
        assert len(tape) == 3 and stale.node_id == 0 and tape[0].out is other
    # stale takes its gradient as a leaf; x gets only other's part
    assert np.array_equal(stale.grad, np.ones(2))
    assert np.array_equal(x.grad, np.full(2, 3.0))


def test_forward_determinism():
    rng = np.random.default_rng(3)
    x = rand(rng, 4, 4)
    w = rand(rng, 4, 4)
    a = T.softmax_last_dim(T.matmul(x, w)).data
    b = T.softmax_last_dim(T.matmul(x, w)).data
    assert np.array_equal(a, b)


def test_tape_replay_gradient_determinism():
    rng = np.random.default_rng(4)
    grads = []
    for _ in range(2):
        x = Tensor(rng.normal(0.0, 1.0, (3, 3)), requires_grad=True)
        x.data[:] = np.arange(9).reshape(3, 3)
        with T.fresh_tape():
            loss = T.tsum(T.softmax_last_dim(T.mul(x, x)))
            T.backward(loss)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# shape and domain errors


def test_shape_errors():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    with pytest.raises(ShapeError):
        T.add(a, Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.linear(a, Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        embed(a, [5])
    with pytest.raises(DomainError):
        embed(a, [])


@given(rows=st.integers(1, 20), d=st.integers(1, 8), n=st.integers(1, 64),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_gather_rows_gradient_matches_add_at_byte_for_byte(rows, d, n, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, rows, n)  # repeated indices
    g = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-10, 11, (n, d))
    g[rng.random((n, d)) < 0.1] = -0.0
    x = Tensor(np.zeros((rows, d)), requires_grad=True)
    with T.fresh_tape():
        T.backward(T.tsum(T.mul(T.gather_rows(x, idx), Tensor(g))))
    want = np.zeros((rows, d))
    np.add.at(want, idx, g)
    assert x.grad.tobytes() == want.tobytes()


def test_attention_cache_takes_untracked_rows_within_its_capacity():
    rng = np.random.default_rng(0)
    x, w, o = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 12), (4, 4)))
    cache = T.KVCache(2, 4, 2)
    with T.fresh_tape() as tape:
        T.attention(x, w, o, 2, True, cache=cache)
        with T.no_grad():  # a trainable weight is fine when nothing records
            T.attention(Tensor(np.ones((1, 4))), Tensor(w.data, requires_grad=True),
                        o, 2, True, cache=cache)
        assert cache.rows == 4
        refused = [
            (ContractError, lambda: T.attention(Tensor(np.ones((1, 4))), w, o, 2, True,
                                                cache=cache)),  # past capacity
            (ContractError, lambda: T.attention(Tensor(x.data, requires_grad=True), w,
                                                o, 2, True, cache=T.KVCache(2, 4, 2))),
            (ContractError, lambda: T.attention(x, w, Tensor(o.data, requires_grad=True),
                                                2, True, cache=T.KVCache(2, 4, 2))),
            (ContractError, lambda: T.attention(x, w, o, 2, False, context=x,
                                                cache=T.KVCache(2, 4, 2))),
            (ContractError, lambda: T.attention(x, w, o, 2, True, lengths=[3],
                                                cache=T.KVCache(2, 4, 2))),
            (ShapeError, lambda: T.attention(x, w, o, 2, True, cache=T.KVCache(1, 4, 4))),
        ]
        for error, call in refused:
            with pytest.raises(error):
                call()
        assert len(tape) == 0 and cache.rows == 4


def test_causal_attention_over_a_context_is_refused():
    rng = np.random.default_rng(0)
    x, w, o, c = (Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((3, 4), (4, 12), (4, 4), (2, 4)))
    with T.fresh_tape() as tape:
        with pytest.raises(ContractError):
            T.attention(x, w, o, 2, True, context=c)
        assert len(tape) == 0


def test_attention_context_must_match_the_model_dim():
    x, w, o = Tensor(np.ones((2, 4))), Tensor(np.ones((4, 12))), Tensor(np.ones((4, 4)))
    for context in (np.ones((3, 5)), np.ones(4), np.ones((1, 3, 4))):
        with pytest.raises(ShapeError):
            T.attention(x, w, o, 2, False, context=Tensor(context))
    with pytest.raises(DomainError):
        T.attention(x, w, o, 2, False, context=Tensor(np.ones((0, 4))))


def test_empty_operand_rejected():
    with pytest.raises(DomainError):
        T.tsum(Tensor(np.zeros((0, 3))))


def test_item_on_nonscalar_rejected():
    with pytest.raises(ContractError):
        Tensor(np.ones(3)).item()


# ---------------------------------------------------------------------------
# finite-difference harness self-checks


def test_fd_check_rejects_bad_step():
    x = Tensor(np.ones(2))
    with pytest.raises(ContractError):
        finite_difference_check(T.tsum, x, h=1e-2)


def test_fd_check_rejects_nondeterministic_fn():
    x = Tensor(np.ones(2))

    def noisy(t):
        return T.scale(T.tsum(t), np.random.random())

    with pytest.raises(OracleError):
        finite_difference_check(noisy, x)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_matches_hand_recurrence():
    rng = np.random.default_rng(5)
    w0 = rng.normal(0.0, 1.0, 4)
    p = Tensor(w0.copy(), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.01)

    ref_w = w0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        g = rng.normal(0.0, 1.0, 4)
        p.grad = g.copy()
        opt.step()

        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        ref_w -= 0.1 * 0.01 * ref_w
        ref_w -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.data, ref_w, atol=1e-12)


def test_adamw_first_step_near_lr():
    # bias correction makes the first update magnitude ~ lr regardless of
    # gradient scale
    for g0 in (1e-3, 1.0, 1e3):
        p = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.array([g0])
        AdamW({"w": p}, lr=0.01).step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-4)


def test_adamw_missing_grad_rejected():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1)
    with pytest.raises(ContractError):
        opt.step()


def test_adamw_rejects_nonpositive_lr():
    p = Tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(ContractError):
        AdamW({"w": p}, lr=0.0)


def test_warmup_schedule():
    total = 100
    warm = 30
    assert warmup_lr(1e-3, 0, total) == 0.0
    assert warmup_lr(1e-3, warm, total) == 1e-3
    assert warmup_lr(1e-3, total, total) == 1e-3
    assert warmup_lr(1e-3, 15, total) == pytest.approx(5e-4)
    # monotone during warmup
    vals = [warmup_lr(1e-3, s, total) for s in range(warm + 1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# mean and the training loop


def test_mean_of_no_terms_rejected():
    with pytest.raises(ContractError):
        T.mean(Tensor(np.zeros(0)))
    with pytest.raises(ShapeError):
        T.mean(Tensor(np.ones((2, 1))))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_loss_before_the_update(bad):
    w = Tensor(np.array([1.0]), requires_grad=True)

    def loss_fn(step):
        loss = T.tsum(T.mul(w, w))
        return T.scale(loss, bad) if step == 2 else loss

    seen = []
    with pytest.raises(DomainError, match="step 2"):
        for step, _, _ in T.fit({"w": w}, loss_fn, 5, 0.1):
            seen.append(step)
            before = w.data.copy()
    assert seen == [0, 1]
    assert np.array_equal(w.data, before)
    assert len(T._ACTIVE_TAPE.get()) == 0


def test_fit_leaves_no_gradient_however_it_ends():
    w = Tensor(np.array([1.0]), requires_grad=True)

    def loss_fn(step):
        loss = T.tsum(T.mul(w, w))
        return T.scale(loss, math.nan) if step == 2 else loss

    for _ in T.fit({"w": w}, loss_fn, 2, 0.1):
        assert w.grad is not None  # the caller may read the step's gradient
    assert w.grad is None
    for _ in T.fit({"w": w}, loss_fn, 2, 0.1):
        break
    assert w.grad is None
    with pytest.raises(DomainError):
        for _ in T.fit({"w": w}, loss_fn, 5, 0.1):
            pass
    assert w.grad is None


# ---------------------------------------------------------------------------
# backward bookkeeping and output ownership


def _dict_backward(loss):
    """Reference: the id()-keyed dict walk the slot walk must match bit for bit."""
    tape = T._ACTIVE_TAPE.get()
    work, keep = {}, {}

    def seed(t, g):
        key = id(t)
        if key in work:
            work[key] = work[key] + g
        else:
            work[key] = np.array(g, dtype=np.float64, copy=True)
            keep[key] = t

    seed(loss, np.ones_like(loss.data))
    for node in reversed(tape[: loss.node_id + 1]):
        g = work.get(id(node.out))
        if g is None:
            continue
        for inp, gi in node.backward_fn(g):
            if isinstance(inp, Tensor) and inp.requires_grad:
                seed(inp, gi)
    for key, t in keep.items():
        if not t.requires_grad:
            continue
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += work[key]


_GRAPH_OPS = {
    "add": lambda p, q, k: T.add(p, q),
    "sub": lambda p, q, k: T.sub(p, q),
    "mul": lambda p, q, k: T.mul(p, q),
    "square": lambda p, q, k: T.mul(p, p),
    "matmul": lambda p, q, k: T.matmul(p, q),
    "scale": lambda p, q, k: T.scale(p, 0.75),
    "linear": lambda p, q, k: T.linear(p, q, k["vec"]),
    "layer_norm": lambda p, q, k: T.layer_norm(p, k["vec"], T.gather_rows(q, 1)),
    "attention": lambda p, q, k: T.attention(p, k["qkv"], q, 1, False),
    "attention_causal": lambda p, q, k: T.attention(p, k["qkv"], q, 3, True),
    "attention_context": lambda p, q, k: T.attention(p, k["qkv"], k["out"], 1, False,
                                                     context=q),
    "expert_mix": lambda p, q, k: T.expert_mix(p, *k["experts"], T.softmax_last_dim(q)),
    "concat_rows": lambda p, q, k: T.gather_rows(T.concat_rows(p, q), [5, 0, 3]),
    "repeat_rows": lambda p, q, k: T.gather_rows(T.repeat_rows(p, 2), [1, 4, 4]),
    "embedding": lambda p, q, k: T.add(p, embed(k["table"], [4, 0, 4])),
    "softmax": lambda p, q, k: T.softmax_last_dim(p),
    "log_softmax": lambda p, q, k: T.log_softmax_last_dim(p),
    "softplus": lambda p, q, k: T.softplus(p),
    "relu": lambda p, q, k: T.relu(p),
}
_SCALAR_OPS = {
    "sum": lambda p: T.tsum(p),
    "cross_entropy": lambda p: nn.cross_entropy(p, [2, 0], [1, 1]),
    "ctc": lambda p: ctc_loss(T.log_softmax_last_dim(p), [1]),
}


def _run_graph(seed, ops, backward_fn):
    """Build one random graph over [3, 3] tensors, backprop twice; return
    every leaf and the intermediates of the active tape."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(0.0, 1.0, (3, 3)), requires_grad=True)
              for _ in range(3)]
    extra = {"vec": Tensor(rng.normal(0.0, 1.0, 3), requires_grad=True),
             "qkv": Tensor(rng.normal(0.0, 0.5, (3, 9)), requires_grad=True),
             "out": Tensor(rng.normal(0.0, 0.5, (3, 3)), requires_grad=True),
             "table": Tensor(rng.normal(0.0, 1.0, (5, 3)), requires_grad=True),
             "experts": [Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)
                         for shape in ((3, 3, 4), (3, 4), (3, 4, 3), (3, 3))]}
    with T.fresh_tape() as tape:
        # built before reset_tape(): its node_id now names an unrelated node
        stale = T.add(T.mul(leaves[0], leaves[1]), leaves[2])
        T.reset_tape()
        with T.fresh_tape():
            foreign = T.softmax_last_dim(T.mul(leaves[1], leaves[2]))
        pool = [*leaves, stale, foreign]
        scalars = []
        for name, i, j in ops:
            p, q = pool[i % len(pool)], pool[j % len(pool)]
            if name in _SCALAR_OPS:
                scalars.append(_SCALAR_OPS[name](p))
            else:
                pool.append(_GRAPH_OPS[name](p, q, extra))
        # an add chain hands every pool entry the same gradient array,
        # so an in-place accumulation anywhere would show in the others
        total = pool[0]
        for p in pool[1:]:
            total = T.add(total, p)
        loss = ref_mean([T.tsum(total), *scalars])
        backward_fn(loss)
        backward_fn(loss)
        inner = [node.out for node in tape]
    return [*leaves, extra["vec"], extra["qkv"], extra["out"], extra["table"],
            *extra["experts"], stale, foreign], inner


@given(seed=st.integers(0, 2**31 - 1),
       ops=st.lists(st.tuples(st.sampled_from(sorted(_GRAPH_OPS) + sorted(_SCALAR_OPS)),
                              st.integers(0, 63), st.integers(0, 63)),
                    max_size=12))
@settings(max_examples=150, deadline=None)
def test_backward_matches_dict_traversal_bit_for_bit(seed, ops):
    got, inner = _run_graph(seed, ops, T.backward)
    want, _ = _run_graph(seed, ops, _dict_backward)
    for g, w in zip(got, want):
        assert (g.grad is None) == (w.grad is None)
        if g.grad is not None:
            assert np.array_equal(g.grad, w.grad, equal_nan=True)
    # .grad is populated on leaves only
    assert all(t.grad is None for t in inner)


def test_backward_rejects_loss_left_over_from_before_reset():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        loss = T.tsum(T.mul(x, x))
        T.reset_tape()
        T.tsum(T.scale(x, 2.0))
        with pytest.raises(ContractError):
            T.backward(loss)
    assert x.grad is None


def _alias_cases():
    rng = np.random.default_rng(7)

    def r(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)

    sq = r(3, 3)
    return [
        ("matmul", T.matmul, (r(2, 3), r(3, 2))),
        ("add", T.add, (sq, r(3, 3))),
        ("sub", T.sub, (sq, r(3, 3))),
        ("mul", T.mul, (sq, sq)),
        ("scale", lambda x: T.scale(x, 1.0), (sq,)),
        ("linear", T.linear, (sq, r(3, 2), r(2))),
        ("expert_mix", T.expert_mix, (sq, r(2, 3, 4), r(2, 4), r(2, 4, 3), r(2, 3), r(3, 2))),
        ("attention", lambda x, w, o: T.attention(x, w, o, 3, False), (sq, r(3, 9), r(3, 3))),
        ("attention_causal", lambda x, w, o: T.attention(x, w, o, 1, True),
         (sq, r(3, 9), r(3, 3))),
        ("attention_context", lambda x, w, o, c: T.attention(x, w, o, 3, False, context=c),
         (sq, r(3, 9), r(3, 3), r(5, 3))),
        ("attention_context_one_row", lambda x, w, o, c: T.attention(x, w, o, 1, False,
                                                                     context=c),
         (r(1, 3), r(3, 9), r(3, 3), r(1, 3))),
        ("mean_terms", T.mean, (r(4),)),
        ("concat_rows", T.concat_rows, (sq, r(1, 3))),
        ("concat_rows_one", T.concat_rows, (sq,)),
        ("repeat_rows", lambda x: T.repeat_rows(x, 1), (sq,)),
        ("embedding_lookup", lambda t: embed(t, [2, 0]), (sq,)),
        ("embedding_lookup_scalar", lambda t: embed(t, 1), (sq,)),
        ("gather_rows", lambda x: T.gather_rows(x, [0, 1, 2]), (sq,)),
        ("gather_rows_scalar", lambda x: T.gather_rows(x, 2), (sq,)),
        ("cross_entropy", lambda x: nn.cross_entropy(x, [0, 2], [1, 1]), (sq,)),
        ("softmax", T.softmax_last_dim, (sq,)),
        ("log_softmax", T.log_softmax_last_dim, (sq,)),
        ("layer_norm", T.layer_norm, (sq, r(3), r(3))),
        ("softplus", T.softplus, (sq,)),
        ("relu", T.relu, (Tensor(np.abs(sq.data) + 1.0),)),
        ("sum", T.tsum, (sq,)),
        ("mean", T.mean, (r(1),)),
        ("sum_scalar", T.tsum, (Tensor(2.0),)),
        ("ctc_loss", lambda x: ctc_loss(T.log_softmax_last_dim(x), [1]), (sq,)),
    ]


@pytest.mark.parametrize("case", _alias_cases(), ids=lambda c: c[0])
def test_op_output_shares_no_memory_with_inputs(case):
    # ops wrap their result without copying it; AdamW and callers write
    # leaf .data in place, so an output must never view an input
    _, fn, inputs = case
    with T.fresh_tape():
        out = fn(*inputs)
    assert out.data.flags.c_contiguous
    for inp in inputs:
        assert not np.shares_memory(out.data, inp.data)
