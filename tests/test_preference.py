"""Preference optimization over CTC likelihoods: anchors and dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.tensor as T
from unitforge.ctc import ctc_loss
from unitforge.data import CorpusSpec, gen_preference_corpus
from unitforge.decoder import SpeechDecoder, SpeechDecoderConfig
from unitforge.errors import ContractError
from unitforge.preference import (DpoConfig, DpoSchedule, PreferencePair,
                                  _dpo_loss, _log_likelihoods, _scores,
                                  ctc_dpo_loss, pair_margin,
                                  pairs_from_records, preference_accuracy,
                                  train_dpo)
from unitforge.tensor import AdamW, check_parameter_gradients, warmup_lr

TINY = dict(mode="nar", layers=1, experts=2, model_dim=8, heads=2,
            vocab_nar=12, vocab_ar=16, upsample=2, max_context=6,
            text_vocab=5, seed=7)


def tiny_decoder(trainable=True, **kw):
    cfg = dict(TINY)
    cfg.update(kw)
    dec = SpeechDecoder(SpeechDecoderConfig(**cfg))
    dec.set_trainable(trainable)
    return dec


def tiny_pair(seed=0):
    rng = np.random.default_rng(seed)
    return PreferencePair(
        context_features=rng.normal(0.0, 1.0, (3, TINY["model_dim"])),
        y_w=[1, 2],
        y_l=[3],
        emotion="happy",
        lang="a",
    )


# ---------------------------------------------------------------------------
# contracts


def test_pair_rejects_identical_sequences():
    with pytest.raises(ContractError):
        PreferencePair(np.zeros((2, 8)), [1, 2], [1, 2], "sad")


def test_config_rejects_nonpositive_beta():
    with pytest.raises(ContractError):
        DpoConfig(beta=0.0)


def test_unfrozen_reference_rejected():
    policy = tiny_decoder()
    reference = tiny_decoder(trainable=True)
    with pytest.raises(ContractError):
        ctc_dpo_loss(policy, reference, tiny_pair(), beta=0.1)


def test_preference_accuracy_empty_rejected():
    with pytest.raises(ContractError):
        preference_accuracy(tiny_decoder(), [])


def test_train_dpo_empty_pairs_rejected():
    with pytest.raises(ContractError):
        train_dpo(tiny_decoder(), tiny_decoder(trainable=False), [],
                  DpoConfig(), DpoSchedule(steps=2))


# ---------------------------------------------------------------------------
# closed-form anchors


def test_policy_equals_reference_gives_ln2():
    policy = tiny_decoder()
    reference = tiny_decoder(trainable=False)
    for beta in (0.05, 0.1, 1.0):
        with T.fresh_tape():
            loss = ctc_dpo_loss(policy, reference, tiny_pair(), beta)
        assert abs(loss.item() - math.log(2.0)) < 1e-9


def test_loss_is_softplus_of_negative_scaled_margin():
    policy = tiny_decoder(seed=7)
    reference = tiny_decoder(trainable=False, seed=8)  # different weights
    pair = tiny_pair(1)
    m = pair_margin(policy, reference, pair)
    assert m != 0.0
    for beta in (0.1, 0.2):
        with T.fresh_tape():
            loss = ctc_dpo_loss(policy, reference, pair, beta)
        expected = math.log1p(math.exp(-beta * m))
        assert loss.item() == pytest.approx(expected, abs=1e-9)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_packed_log_likelihoods_match_one_pair_at_a_time(data):
    # 1-20 pairs of 1-24-row contexts (4 frames a row): both attention
    # layouts, and scoring passes of more than SCORE_PAIRS pairs
    seed = data.draw(st.integers(0, 2**16), label="seed")
    policy = tiny_decoder(upsample=4, max_context=24, seed=seed)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(data.draw(st.integers(1, 20), label="pairs")):
        t = data.draw(st.integers(1, 24))
        y_w, y_l = (data.draw(st.lists(st.integers(1, 11), max_size=t))
                    for _ in range(2))
        if y_w != y_l:
            pairs.append(PreferencePair(rng.normal(0.0, 1.0, (t, TINY["model_dim"])),
                                        y_w, y_l, "sad"))
    if not pairs:
        return
    with T.no_grad():
        packed = _log_likelihoods(policy, pairs).data
        alone = np.concatenate([_log_likelihoods(policy, [p]).data for p in pairs])
    assert np.abs(packed - alone).max() <= 1e-12
    assert np.abs(np.ravel(_scores(policy, pairs)) - alone).max() <= 1e-12


def test_margin_sign_convention():
    # raising the policy's winner likelihood must move the margin off zero
    policy = tiny_decoder()
    reference = tiny_decoder(trainable=False)
    pair = tiny_pair(2)
    before = pair_margin(policy, reference, pair)
    trainable = {k: v for k, v in policy.parameters().items()
                 if not k.startswith(("tgm.", "txt."))}
    opt = AdamW(trainable, lr=1e-2)
    with T.fresh_tape():
        nll = ctc_loss(policy.nar_forward([pair.context_features])[0], pair.y_w)
        opt.zero_grad()
        T.backward(nll)
        opt.step()
    T.reset_tape()
    assert before == 0.0
    assert pair_margin(policy, reference, pair) != before


def test_one_step_reduces_dpo_loss():
    failures = 0
    for seed in range(20):
        policy = tiny_decoder(seed=seed)
        reference = tiny_decoder(trainable=False, seed=seed)
        pair = tiny_pair(seed)
        opt = AdamW({k: v for k, v in policy.parameters().items()
                     if not k.startswith(("tgm.", "txt."))}, lr=1e-3)
        with T.fresh_tape():
            loss = ctc_dpo_loss(policy, reference, pair, beta=0.1)
            before = loss.item()
            opt.zero_grad()
            T.backward(loss)
            opt.step()
        T.reset_tape()
        with T.fresh_tape():
            after = ctc_dpo_loss(policy, reference, pair, beta=0.1).item()
        if not (after < before and
                pair_margin(policy, reference, pair) > 0.0):
            failures += 1
    assert failures == 0


# ---------------------------------------------------------------------------
# gradient check


def test_dpo_gradient_finite_difference():
    policy = tiny_decoder()
    reference = tiny_decoder(trainable=False, seed=9)
    pair = tiny_pair(4)

    def loss_fn():
        return ctc_dpo_loss(policy, reference, pair, beta=0.2)

    assert check_parameter_gradients(loss_fn, policy.parameters()) < 1e-3


# ---------------------------------------------------------------------------
# training loop


def test_pairs_from_records_round_trip():
    spec = CorpusSpec(seed=2, size=6)
    pairs = pairs_from_records(gen_preference_corpus(spec))
    assert len(pairs) == 6
    for p in pairs:
        assert p.context_features.shape[1] == spec.feature_dim
        assert p.y_w != p.y_l
        assert p.lang in ("a", "b")


def test_train_dpo_keeps_reference_frozen():
    rng = np.random.default_rng(5)
    policy = tiny_decoder(seed=11, max_context=12)
    reference = tiny_decoder(trainable=False, seed=11, max_context=12)
    snapshot = {k: v.data.copy() for k, v in reference.parameters().items()}
    pairs = [
        PreferencePair(rng.normal(0.0, 1.0, (4, TINY["model_dim"])),
                       [1, 2, 3], [4, 5], "happy", "a")
        for _ in range(4)
    ]
    metrics = train_dpo(policy, reference, pairs, DpoConfig(beta=0.1),
                        DpoSchedule(lr=1e-3, steps=6, batch=2, log_every=3))
    assert len(metrics) == 6
    for name, p in reference.parameters().items():
        assert np.array_equal(p.data, snapshot[name])
    # first logged loss is the policy==reference anchor
    assert metrics[0][1] == pytest.approx(math.log(2.0), abs=1e-6)


def test_train_dpo_improves_margin_and_accuracy():
    rng = np.random.default_rng(6)
    policy = tiny_decoder(seed=12, max_context=12)
    reference = tiny_decoder(trainable=False, seed=12, max_context=12)
    pairs = [
        PreferencePair(rng.normal(0.0, 1.0, (4, TINY["model_dim"])),
                       [1 + i % 3, 7], [4, 5 + i % 2], "sad", "b")
        for i in range(6)
    ]
    train_dpo(policy, reference, pairs, DpoConfig(beta=0.1),
              DpoSchedule(lr=3e-3, steps=40, batch=3, log_every=40))
    margins = [pair_margin(policy, reference, p) for p in pairs]
    assert np.mean(margins) > 0.0
    assert preference_accuracy(policy, pairs) >= 0.5


def uncached_train_dpo(policy, reference, pairs, config, schedule):
    """The DPO loop that re-scored the reference at every step and logged
    through ``pair_margin`` and ``preference_accuracy``; the reference
    for ``train_dpo``'s cached scoring. Each step's loss is the trainer's
    batch call."""
    params = {k: v for k, v in policy.parameters().items()
              if not k.startswith(("tgm.", "txt."))}
    opt = AdamW(params, lr=schedule.lr)
    rng = np.random.default_rng(schedule.seed)
    metrics = []
    for step in range(schedule.steps):
        T.reset_tape()
        idx = rng.choice(len(pairs), size=min(schedule.batch, len(pairs)),
                         replace=False)
        batch = [pairs[i] for i in idx]
        loss = _dpo_loss(policy, batch, _scores(reference, batch), config.beta)
        opt.zero_grad()
        T.backward(loss)
        lr = warmup_lr(schedule.lr, step + 1, schedule.steps,
                       schedule.warmup_ratio)
        opt.step(lr=lr)
        if step % schedule.log_every == 0 or step == schedule.steps - 1:
            margins = [pair_margin(policy, reference, p) for p in pairs]
            acc = preference_accuracy(policy, pairs)
            metrics.append((step, float(loss.item()),
                            float(np.mean(margins)), acc))
        else:
            metrics.append((step, float(loss.item()), math.nan, math.nan))
    T.reset_tape()
    return metrics


def test_train_dpo_matches_uncached_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    pairs = [
        PreferencePair(rng.normal(0.0, 1.0, (4, TINY["model_dim"])),
                       [1 + i % 4, 6, 2 + i % 3], [5, 5 + i % 2], "angry",
                       "ab"[i % 2])
        for i in range(5)
    ]
    schedule = DpoSchedule(lr=3e-3, steps=11, batch=3, seed=4, log_every=3)
    rows = []
    for train in (train_dpo, uncached_train_dpo):
        policy = tiny_decoder(seed=13, max_context=12)
        reference = tiny_decoder(trainable=False, seed=14, max_context=12)
        rows.append(train(policy, reference, pairs, DpoConfig(beta=0.2),
                          schedule))
    cached, uncached = rows
    assert sum(not math.isnan(r[2]) for r in cached) == 5  # steps 0, 3, 6, 9, 10
    assert np.array_equal(np.array(cached), np.array(uncached),
                          equal_nan=True)
