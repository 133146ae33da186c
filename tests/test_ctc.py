"""Exact CTC against brute-force path enumeration."""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.tensor as T
from unitforge.ctc import (BLANK, TINY, RescaledLattice, UnitSequence,
                           _can_skip, _posterior, brute_force_marginals,
                           collapse, compute_lattice, ctc_brute_force,
                           ctc_loss, ctc_losses, extended_target,
                           greedy_decode, min_frames)
from unitforge.errors import (ConfigurationError, DomainError,
                              InfeasibleAlignmentError, OracleError)
from unitforge.tensor import NEG_INF, Tensor, finite_difference_check


def uniform_lp(t, v):
    return np.full((t, v), -math.log(v))


def random_lp(rng, t, v):
    return np.log(rng.dirichlet(np.ones(v), size=t))


def feasible_target(rng, t, v, max_len):
    while True:
        n = int(rng.integers(0, max_len + 1))
        y = [int(u) for u in rng.integers(1, v, n)] if n else []
        if min_frames(tuple(y)) <= t:
            return y


# ---------------------------------------------------------------------------
# collapse / targets


def test_collapse_examples():
    assert collapse([1, 1, 0, 1]).units == (1, 1)
    assert collapse([0, 0, 0]).units == ()
    assert collapse([1, 0, 0, 2, 2]).units == (1, 2)
    assert collapse([0, 1, 1, 0, 1]).units == (1, 1)


def test_unit_sequence_rejects_blank_and_negative():
    with pytest.raises(ConfigurationError):
        UnitSequence([1, 0, 2])
    with pytest.raises(ConfigurationError):
        UnitSequence([-1])


def test_min_frames():
    assert min_frames(()) == 0
    assert min_frames((1, 2)) == 2
    assert min_frames((1, 1)) == 3
    assert min_frames((2, 2, 2)) == 5


@given(st.lists(st.integers(1, 4), max_size=12))
@settings(max_examples=200, deadline=None)
def test_shortest_path_collapses_to_its_units(units):
    # a blank only between repeated units: min_frames(units) frames
    path = [f for i, u in enumerate(units)
            for f in ([BLANK] if i and units[i - 1] == u else []) + [u]]
    assert len(path) == min_frames(tuple(units))
    assert collapse(path).units == tuple(units)


@given(st.lists(st.integers(0, 3), max_size=16))
@settings(max_examples=200, deadline=None)
def test_a_path_has_at_least_min_frames_of_what_it_collapses_to(path):
    assert min_frames(collapse(path).units) <= len(path)


def test_extended_target():
    assert extended_target((1, 2)).tolist() == [0, 1, 0, 2, 0]
    assert extended_target(()).tolist() == [0]


# ---------------------------------------------------------------------------
# closed-form anchors


def test_uniform_t2_single_label():
    # paths collapsing to (1) out of {00,01,10,11}: 01, 10, 11 -> 3/4
    loss = ctc_loss(Tensor(uniform_lp(2, 2)), [1])
    assert loss.item() == pytest.approx(0.2876820724517809, abs=1e-12)


def test_empty_target_closed_form():
    rng = np.random.default_rng(0)
    lp = random_lp(rng, 4, 3)
    loss = ctc_loss(Tensor(lp), [])
    assert loss.item() == pytest.approx(-lp[:, BLANK].sum(), abs=1e-10)


def test_repeat_needs_separating_blank():
    with pytest.raises(InfeasibleAlignmentError) as exc:
        ctc_loss(Tensor(uniform_lp(2, 2)), [1, 1])
    assert exc.value.needed == 3
    assert exc.value.got == 2
    # exactly one path at T=3: [1, 0, 1]
    loss = ctc_loss(Tensor(uniform_lp(3, 2)), [1, 1])
    assert loss.item() == pytest.approx(3 * math.log(2.0), abs=1e-12)


def test_zero_frame_lattice_rejected():
    with pytest.raises(DomainError):
        compute_lattice(np.zeros((0, 3)), ())
    with pytest.raises(InfeasibleAlignmentError):
        compute_lattice(np.zeros((0, 3)), (1,))


# ---------------------------------------------------------------------------
# brute-force equivalence


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        t = int(rng.integers(1, 7))
        v = int(rng.integers(2, 5))
        lp = random_lp(rng, t, v)
        y = feasible_target(rng, t, v, 3)
        assert ctc_loss(Tensor(lp), y).item() == pytest.approx(
            ctc_brute_force(lp, y), abs=1e-8)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_matches_brute_force_property(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 6))
    v = int(rng.integers(2, 4))
    # unnormalized rows: the identity is algebraic, not probabilistic
    lp = rng.normal(0.0, 1.0, (t, v))
    y = feasible_target(rng, t, v, 2)
    assert ctc_loss(Tensor(lp), y).item() == pytest.approx(
        ctc_brute_force(lp, y), abs=1e-8)


def test_partition_sums_to_one():
    rng = np.random.default_rng(1)
    for t in range(1, 5):
        for v in range(2, 4):
            lp = random_lp(rng, t, v)
            total = sum(math.exp(s) for s in brute_force_marginals(lp).values())
            assert total == pytest.approx(1.0, abs=1e-6)


def test_brute_force_size_guard():
    with pytest.raises(OracleError):
        ctc_brute_force(uniform_lp(30, 10), [1])


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("seed", range(10))
def test_ctc_gradient_finite_difference(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 6))
    v = int(rng.integers(2, 5))
    lp = Tensor(random_lp(rng, t, v))
    y = feasible_target(rng, t, v, 2)
    assert finite_difference_check(lambda x: ctc_loss(x, y), lp) < 1e-4


def test_ctc_gradient_uniform_case():
    x = Tensor(uniform_lp(2, 2), requires_grad=True)
    with T.fresh_tape():
        T.backward(ctc_loss(x, [1]))
    # posterior mass: blank 1/3 per frame, label 2/3 per frame
    assert np.allclose(x.grad, [[-1 / 3, -2 / 3], [-1 / 3, -2 / 3]])


def test_ctc_gradient_scales_with_upstream():
    rng = np.random.default_rng(2)
    lp = random_lp(rng, 3, 3)
    grads = []
    for factor in (1.0, 2.5):
        x = Tensor(lp.copy(), requires_grad=True)
        with T.fresh_tape():
            T.backward(T.scale(ctc_loss(x, [1, 2]), factor))
        grads.append(x.grad.copy())
    assert np.allclose(grads[1], 2.5 * grads[0])


# ---------------------------------------------------------------------------
# lattice internals


def test_lattice_terminal_identities():
    rng = np.random.default_rng(3)
    lp = random_lp(rng, 5, 4)
    y = (1, 3, 2)
    lat = compute_lattice(lp, y)
    s = lat.alpha.shape[1]
    assert np.logaddexp(lat.alpha[-1, s - 1], lat.alpha[-1, s - 2]) == \
        pytest.approx(lat.log_z, abs=1e-10)
    assert np.logaddexp(lat.beta[0, 0], lat.beta[0, 1]) == \
        pytest.approx(lat.log_z, abs=1e-10)


def test_lattice_time_slice_invariant():
    # sum over states of alpha*beta/emission equals the full marginal at
    # every frame
    rng = np.random.default_rng(4)
    lp = random_lp(rng, 6, 3)
    y = (1, 2, 1)
    lat = compute_lattice(lp, y)
    emit = lp[:, lat.extended_target]
    for t in range(lp.shape[0]):
        vals = lat.alpha[t] + lat.beta[t] - emit[t]
        vals = vals[(lat.alpha[t] > NEG_INF) & (lat.beta[t] > NEG_INF)]
        total = vals.max() + math.log(np.exp(vals - vals.max()).sum())
        assert total == pytest.approx(lat.log_z, abs=1e-9)


def two_loop_lattice(log_probs, target):
    """The separate alpha and beta recursions that the fused [2, S]
    recursion of ``compute_lattice`` replaced, kept as its reference."""
    units = tuple(target)
    t_len, _ = log_probs.shape
    ext = extended_target(units)
    s_len = ext.shape[0]
    emit = log_probs[:, ext]
    can_skip = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        can_skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])

    ninf = -np.inf
    alpha = np.full((t_len, s_len), ninf)
    alpha[0, 0] = emit[0, 0]
    if s_len > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([ninf], prev[:-1]))
        acc = np.logaddexp(stay, step)
        skip = np.full(s_len, ninf)
        if s_len > 2:
            skip[2:] = prev[:-2]
        skip = np.where(can_skip, skip, ninf)
        alpha[t] = emit[t] + np.logaddexp(acc, skip)

    beta = np.full((t_len, s_len), ninf)
    beta[t_len - 1, s_len - 1] = emit[t_len - 1, s_len - 1]
    if s_len > 1:
        beta[t_len - 1, s_len - 2] = emit[t_len - 1, s_len - 2]
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1]
        stay = nxt
        step = np.concatenate((nxt[1:], [ninf]))
        acc = np.logaddexp(stay, step)
        skip = np.full(s_len, ninf)
        if s_len > 2:
            skip[:-2] = np.where(can_skip[2:], nxt[2:], ninf)
        beta[t] = emit[t] + np.logaddexp(acc, skip)

    if s_len > 1:
        log_z = np.logaddexp(alpha[t_len - 1, s_len - 1], alpha[t_len - 1, s_len - 2])
    else:
        log_z = alpha[t_len - 1, s_len - 1]

    def sanitize(table):
        out = table.copy()
        out[~np.isfinite(out)] = NEG_INF
        out[out < NEG_INF] = NEG_INF
        return out

    return sanitize(alpha), sanitize(beta), float(log_z)


@st.composite
def lattice_case(draw):
    """Log-probs with optional -inf cells, and a target of 0..T labels
    (repeats likely at small V); the target may not fit in T frames."""
    t = draw(st.integers(1, 12))
    v = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    lp = random_lp(rng, t, v)
    lp[rng.random((t, v)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = -np.inf
    y = draw(st.lists(st.integers(1, v - 1), max_size=t))
    return lp, y


@given(lattice_case())
@settings(max_examples=300, deadline=None)
def test_fused_lattice_equals_two_loop_recursion(case):
    lp, y = case
    if min_frames(tuple(y)) > lp.shape[0]:
        with pytest.raises(InfeasibleAlignmentError):
            compute_lattice(lp, y)
        return
    alpha, beta, log_z = two_loop_lattice(lp, y)
    lat = compute_lattice(lp, y)
    assert np.array_equal(lat.alpha, alpha)
    assert np.array_equal(lat.beta, beta)
    assert lat.log_z == log_z or (math.isnan(log_z) and math.isnan(lat.log_z))


@given(lattice_case())
@settings(max_examples=100, deadline=None)
def test_ctc_gradient_scatter_equals_per_label_loop(case):
    lp, y = case
    if min_frames(tuple(y)) > lp.shape[0]:
        return
    x = Tensor(lp, requires_grad=True)
    if compute_lattice(lp, y).log_z == -np.inf:
        with pytest.raises(DomainError):
            ctc_loss(x, y)
        return
    with T.fresh_tape():
        T.backward(ctc_loss(x, y))
    lattice = RescaledLattice([lp], [tuple(y)], beta=True)
    post = lattice.posterior(0)
    grad = np.zeros_like(lp)
    for s, label in enumerate(lattice.ext[0]):
        grad[:, label] += post[:, s]
    assert np.array_equal(x.grad, -grad, equal_nan=True)


# ---------------------------------------------------------------------------
# the batched node against the log-space lattice


@st.composite
def node_case(draw):
    """Log-probs, normalised or not, with optional -inf cells; in the
    ``underflow`` kind one frame sits near exp(-740), which probability
    space cannot hold. The target fits in T frames but may have no path."""
    t = draw(st.integers(1, 12))
    v = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    kind = draw(st.sampled_from(["normalised", "unnormalised", "underflow"]))
    lp = rng.normal(0.0, 3.0, (t, v)) if kind == "unnormalised" \
        else random_lp(rng, t, v)
    lp[rng.random((t, v)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = -np.inf
    if kind == "underflow":
        lp[rng.integers(t)] -= 740.0
    y = draw(st.lists(st.integers(1, v - 1), max_size=t))
    while min_frames(tuple(y)) > t:
        y.pop()
    return lp, tuple(y), kind


def log_space_gradient(lp, y):
    lat = compute_lattice(lp, y)
    occ = lat.alpha + lat.beta - lp[:, lat.extended_target] - lat.log_z
    occ[lat.alpha <= NEG_INF] = -np.inf
    occ[lat.beta <= NEG_INF] = -np.inf
    grad = np.zeros_like(lp)
    np.add.at(grad, (slice(None), lat.extended_target), np.exp(occ))
    return -grad


def packed(cases):
    """The log-probs of ``cases`` packed into one leaf, and their spans; a
    narrower vocabulary is widened by -inf columns that no target reads."""
    frames = np.array([len(lp) for lp, *_ in cases])
    ends = np.cumsum(frames)
    v = max(lp.shape[1] for lp, *_ in cases)
    x = Tensor(np.concatenate([np.pad(lp, ((0, 0), (0, v - lp.shape[1])),
                                      constant_values=-np.inf)
                               for lp, *_ in cases]), requires_grad=True)
    return x, list(zip(ends - frames, ends))


def score(cases, grad=True):
    """Losses and gradients of ``cases`` scored in one node."""
    x, spans = packed(cases)
    with T.fresh_tape():
        losses = ctc_losses(x, [y for _, y, *_ in cases], spans)
        if not grad:
            return losses.data, None
        T.backward(T.tsum(losses))
    return losses.data, [x.grad[a:b, :lp.shape[1]]
                         for (a, b), (lp, *_) in zip(spans, cases)]


@given(st.lists(node_case(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_node_matches_log_space_lattice(cases):
    cases = [c for c in cases if compute_lattice(c[0], c[1]).log_z > -np.inf]
    if not cases:
        return
    losses, grads = score(cases)
    lattice = RescaledLattice([lp for lp, *_ in cases], [y for _, y, _ in cases],
                              beta=True)
    for (lp, y, kind), loss, grad, sound in zip(cases, losses, grads,
                                                lattice.sound):
        log_z = compute_lattice(lp, y).log_z
        assert abs(-loss - log_z) <= 1e-12 * max(1.0, abs(log_z))
        # a frame's posterior mass is 1
        assert np.abs(grad - log_space_gradient(lp, y)).max() <= 1e-12
        if kind == "underflow":
            assert not sound


@given(st.lists(node_case(), min_size=2, max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_a_sequence_scores_alone_as_in_its_batch(cases, data):
    cases = [c for c in cases if compute_lattice(c[0], c[1]).log_z > -np.inf]
    if not cases:
        return
    i = data.draw(st.integers(0, len(cases) - 1))
    losses, grads = score(cases)
    alone, alone_grad = score([cases[i]])
    assert np.array_equal(losses[i:i + 1], alone)
    assert np.array_equal(grads[i], alone_grad[0])
    no_grad, _ = score(cases, grad=False)
    assert np.array_equal(losses, no_grad)


class LaneMajorLattice(RescaledLattice):
    """The recursion laid out ``[frame, lane, state]``, as before the
    state-major layout: the bit-for-bit reference of ``RescaledLattice``."""

    def __init__(self, log_probs, targets, beta: bool):
        self.log_probs = log_probs
        self.units = targets
        self.ext = [extended_target(u) for u in targets]
        b = len(log_probs)
        lengths = np.array([lp.shape[0] for lp in log_probs])
        states = np.array([e.shape[0] for e in self.ext])
        t_max, s_max = int(lengths.max()), int(states.max())
        lanes = 2 * b if beta else b
        emit = np.ones((t_max, lanes, s_max))
        skip = np.zeros((lanes, s_max))
        for i, (lp, ext) in enumerate(zip(log_probs, self.ext)):
            t_len, s_len = lp.shape[0], ext.shape[0]
            p = np.exp(lp[:, ext])
            emit[:t_len, i::b, s_len:] = 0.0
            emit[:t_len, i, :s_len] = p
            skip[i, :s_len] = _can_skip(ext)
            if beta:
                emit[:t_len, b + i, :s_len] = p[::-1, ::-1]
                skip[b + i, :s_len] = _can_skip(ext[::-1])
        lat = np.zeros((t_max if beta else 2, lanes, s_max + 2))
        acc = np.zeros((t_max if beta else 1, lanes, s_max))
        acc[0, :, :2] = 1.0
        skipped = np.empty((lanes, s_max))
        scale = np.empty((t_max, lanes))
        last = np.tile(lengths - 1, lanes // b)
        col = np.tile(states + 1, lanes // b)
        ends = {int(t): np.flatnonzero(last == t) for t in np.unique(last)}
        z = np.empty(lanes)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(t_max):
                cur = lat[t % lat.shape[0]]
                a = acc[t % acc.shape[0]]
                if t:
                    prev = lat[(t - 1) % lat.shape[0]]
                    np.add(prev[:, 2:], prev[:, 1:-1], out=a)
                    np.multiply(prev[:, :-2], skip, out=skipped)
                    np.add(a, skipped, out=a)
                np.multiply(emit[t], a, out=cur[:, 2:])
                np.max(cur[:, 2:], axis=1, out=scale[t])
                np.divide(cur[:, 2:], scale[t][:, None], out=cur[:, 2:])
                if t in ends:
                    i = ends[t]
                    z[i] = cur[i, col[i]] + cur[i, col[i] - 1]
            log_scale = np.cumsum(np.log(scale), axis=0)
            trusted = (np.isfinite(scale) & (scale >= TINY)) \
                | (np.arange(t_max)[:, None] > last)
            self.sound = trusted.all(axis=0) & (z >= TINY)
            self.log_z = log_scale[last[:b], np.arange(b)] + np.log(z[:b])
        self._fallback = {}
        for i in np.flatnonzero(~self.sound[:b]):
            self.log_z[i] = self._log_space(i).log_z
        self.lat, self.acc = lat, acc

    def posterior(self, i):
        b = len(self.log_probs)
        t_len, s_len = self.log_probs[i].shape[0], self.ext[i].shape[0]
        if self.sound[i] and self.sound[b + i]:
            both = (self.lat[:t_len, i, 2:2 + s_len]
                    * self.acc[t_len - 1::-1, b + i, s_len - 1::-1])
            mass = both.sum(axis=1, keepdims=True)
            if (mass >= TINY).all():
                return both / mass
        return _posterior(self._log_space(i), self.log_probs[i])


def assert_lattices_equal(log_probs, targets, beta):
    new = RescaledLattice(log_probs, targets, beta)
    ref = LaneMajorLattice(log_probs, targets, beta)
    assert np.array_equal(new.log_z, ref.log_z)
    assert np.array_equal(new.sound, ref.sound)
    for i in range(len(targets) if beta else 0):
        assert np.array_equal(new.posterior(i), ref.posterior(i), equal_nan=True)
    return new


@given(st.lists(node_case(), min_size=1, max_size=5), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_state_major_lattice_equals_lane_major_reference(cases, beta, data):
    log_probs = [lp for lp, *_ in cases]
    targets = [y for _, y, _ in cases]
    # a second target over some spans, as a preference pair's loser shares
    # its winner's frames
    for lp, _, _ in cases:
        if data.draw(st.booleans()):
            y = data.draw(st.lists(st.integers(1, lp.shape[1] - 1),
                                   max_size=lp.shape[0]))
            while min_frames(tuple(y)) > lp.shape[0]:
                y.pop()
            log_probs.append(lp)
            targets.append(tuple(y))
    assert_lattices_equal(log_probs, targets, beta)


@pytest.mark.parametrize("beta", [False, True], ids=["alpha", "beta"])
def test_state_major_lattice_equals_lane_major_at_scoring_shapes(beta):
    # 32 sequences of up to 84 frames and 57 states, as a preference
    # scoring pass packs them; one lane underflows
    rng = np.random.default_rng(5)
    log_probs, targets = [], []
    for _ in range(32):
        t = int(rng.integers(40, 85))
        log_probs.append(random_lp(rng, t, 40))
        targets.append(tuple(feasible_target(rng, t, 40, 28)))
    targets[0] = tuple(range(1, 29))
    log_probs[1][3] -= 740.0
    lattice = assert_lattices_equal(log_probs, targets, beta)
    assert np.flatnonzero(~lattice.sound[:32]).tolist() == [1]


def test_log_z_with_and_without_gradients_bit_identical():
    rng = np.random.default_rng(11)
    cases = [(random_lp(rng, t, 5), (1, 2, 2, 3)[:n]) for t, n in
             ((9, 4), (5, 2), (12, 3), (3, 0))]
    x, spans = packed(cases)
    targets = [y for _, y in cases]
    with T.fresh_tape() as tape:
        with_grad = ctc_losses(x, targets, spans).data
        assert len(tape) == 1 and tape[0].kind == "ctc_loss"
    with T.fresh_tape() as tape:
        with T.no_grad():
            without = ctc_losses(x, targets, spans).data
        assert len(tape) == 0
    assert np.array_equal(with_grad, without)


def no_path_case():
    lp = uniform_lp(4, 3)
    lp[:, 2] = -np.inf
    return lp


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
def test_target_with_no_path_is_a_domain_error(grad):
    both, spans = packed([(uniform_lp(4, 3),), (no_path_case(),)])
    bad = Tensor(no_path_case(), requires_grad=True)
    with T.fresh_tape() as tape, nullcontext() if grad else T.no_grad():
        with pytest.raises(DomainError, match="sequence 1"):
            ctc_losses(both, [[2], [1, 2]], spans)
        with pytest.raises(DomainError, match="sequence 0"):
            ctc_loss(bad, [2])
    assert len(tape) == 0
    # the label that has mass still scores
    assert math.isfinite(ctc_loss(bad, [1]).item())


def test_lattice_unreachable_cells_are_sentinel():
    lat = compute_lattice(uniform_lp(2, 3), (1, 2))
    # frame 0 can only occupy states 0..1; the final label is unreachable
    assert lat.alpha[0, 3] == NEG_INF
    assert lat.alpha[0, 4] == NEG_INF


# ---------------------------------------------------------------------------
# decoding


def test_greedy_decode_collapses_best_path():
    lp = np.log(np.array([
        [0.1, 0.8, 0.1],
        [0.1, 0.8, 0.1],
        [0.8, 0.1, 0.1],
        [0.1, 0.1, 0.8],
    ]))
    units, alignment = greedy_decode(lp)
    assert alignment == [1, 1, 0, 2]
    assert units.units == (1, 2)


def test_greedy_decode_tie_prefers_smaller_id():
    units, alignment = greedy_decode(uniform_lp(3, 3))
    assert alignment == [0, 0, 0]
    assert units.units == ()
