"""Speech decoder: modes, shapes, generation laws, persistence, training."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.tensor as T
from unitforge.ctc import UnitSequence, ctc_loss, min_frames
from unitforge.data import CorpusSpec, decode_f32, gen_supervised_corpus
from unitforge.decoder import (AR_BOS, SpeechDecoder, SpeechDecoderConfig,
                               TrainSchedule, evaluate_uer, feasible,
                               train_decoder)
from unitforge.errors import (ConfigurationError, ContractError, DataError,
                              GenerationCapError)
from unitforge.tensor import Tensor, check_parameter_gradients

TINY_NAR = dict(mode="nar", layers=1, experts=2, model_dim=8, heads=2,
                vocab_nar=12, vocab_ar=16, upsample=2, max_units=10,
                max_context=6, text_vocab=5, seed=0)
TINY_AR = dict(TINY_NAR, mode="ar")


def tiny(mode="nar", **kw):
    base = dict(TINY_NAR if mode == "nar" else TINY_AR)
    base.update(kw)
    return SpeechDecoder(SpeechDecoderConfig(**base))


def cond_for(decoder, t=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (t, decoder.config.model_dim))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SpeechDecoderConfig(mode="both").validate()
    with pytest.raises(ConfigurationError):
        SpeechDecoderConfig(experts=0).validate()
    with pytest.raises(ConfigurationError):
        SpeechDecoderConfig(vocab_ar=32, vocab_nar=64).validate()
    with pytest.raises(ConfigurationError):
        SpeechDecoderConfig(upsample=1).validate()


# ---------------------------------------------------------------------------
# NAR forward


def test_nar_output_shape_and_normalization():
    dec = tiny("nar")
    cond = cond_for(dec, t=4)
    lp, frames = dec.nar_forward([cond])
    assert lp.data.shape == (4 * dec.config.upsample, dec.config.vocab_nar)
    assert list(frames) == [4 * dec.config.upsample]
    assert np.abs(np.exp(lp.data).sum(axis=1) - 1.0).max() < 1e-9


def test_nar_rejects_wrong_condition_shape():
    dec = tiny("nar")
    with pytest.raises(ContractError):
        dec.nar_forward([np.zeros((4, 3))])
    with pytest.raises(ContractError):
        dec.nar_forward([np.zeros((dec.config.max_context + 1,
                                   dec.config.model_dim))])


def test_mode_isolation():
    nar, ar = tiny("nar"), tiny("ar")
    cond = cond_for(nar)
    with pytest.raises(ContractError):
        ar.nar_forward([cond])
    with pytest.raises(ContractError):
        nar.ar_forward(cond, [])
    with pytest.raises(ContractError):
        nar.ar_generate(cond)


@pytest.mark.parametrize("mode", ["nar", "ar"])
@pytest.mark.parametrize("n_units, n_texts", [(1, 3), (2, 3), (4, 3), (3, 2)])
def test_loss_rejects_a_mismatched_batch_before_any_forward(mode, n_units, n_texts):
    dec = tiny(mode)
    conds = [cond_for(dec, seed=i) for i in range(3)]
    with T.fresh_tape() as tape:
        with pytest.raises(ContractError):
            dec.loss(conds, [[1, 2]] * n_units, [[0, 1]] * n_texts)
        assert len(tape) == 0  # no forward ran


def test_tgm_changes_training_forward_only():
    dec = tiny("nar")
    # give the zero-init fusion projection real weights
    rng = np.random.default_rng(1)
    dec.tgm.proj.w.data[:] = rng.normal(0.0, 0.5, dec.tgm.proj.w.data.shape)
    cond = cond_for(dec)
    with_text = dec.nar_forward([cond], [[0, 1, 2]])[0].data
    without = dec.nar_forward([cond])[0].data
    assert not np.allclose(with_text, without)
    # generation never sees text, so the fusion weights are irrelevant
    gen1 = dec.nar_generate(cond).units.units
    dec.tgm.proj.w.data[:] = 0.0
    gen2 = dec.nar_generate(cond).units.units
    assert gen1 == gen2


def test_tgm_disabled_config_has_no_fusion_parameters():
    dec = tiny("nar", tgm=False)
    assert dec.tgm is None
    assert not any(name.startswith("tgm") for name in dec.parameters())
    cond = cond_for(dec)
    dec.nar_forward([cond])  # no text path at all


# ---------------------------------------------------------------------------
# generation step-count laws


def test_nar_generation_single_step():
    dec = tiny("nar")
    res = dec.nar_generate(cond_for(dec))
    assert res.sequential_steps == 1
    assert not res.truncated


def test_ar_step_count_is_length_plus_one():
    dec = tiny("ar")
    dec.head.b.data[dec.eos_id] = 1e3  # end-of-speech always wins
    res = dec.ar_generate(cond_for(dec))
    assert not res.truncated
    assert res.units.units == ()
    assert res.sequential_steps == len(res.units.units) + 1 == 1


def test_ar_truncation_cap():
    dec = tiny("ar")
    # neither end-of-speech nor the unfiltered AR_BOS can win
    dec.head.b.data[[dec.eos_id, AR_BOS]] = -1e3
    res = dec.ar_generate(cond_for(dec), max_len=2)
    assert res.truncated
    assert len(res.units.units) == 2
    assert res.sequential_steps == 2
    res = dec.ar_generate(cond_for(dec))
    assert res.truncated
    assert len(res.units.units) == res.sequential_steps == dec.config.max_units


@pytest.mark.parametrize("max_len", [0, -1])
def test_ar_generate_needs_a_positive_max_len(max_len):
    dec = tiny("ar")
    with pytest.raises(ContractError):
        dec.ar_generate(cond_for(dec), max_len=max_len)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cached_steps_match_the_full_forward(data):
    # every next-unit distribution of the cached loop, along a drawn prefix
    # that may hold AR_BOS, against a full causal forward over that prefix
    seed = data.draw(st.integers(0, 2**16), label="seed")
    dec = tiny("ar", layers=data.draw(st.integers(1, 2), label="layers"),
               seed=seed)
    rng = np.random.default_rng(seed)
    for p in dec.parameters().values():
        p.data += rng.normal(0.0, 0.5, p.shape)
    config = dec.config
    cond = cond_for(dec, t=data.draw(st.integers(1, config.max_context),
                                     label="context rows"), seed=seed)
    prefix = data.draw(st.lists(st.integers(AR_BOS, dec.eos_id - 1),
                                max_size=config.max_units - 1), label="prefix")
    with T.no_grad():
        decoding = dec._ar_steps(cond)
        logits = next(decoding)
        for n in range(len(prefix) + 1):
            if n:
                logits = decoding.send(prefix[n - 1])
            cached = T.log_softmax_last_dim(Tensor(logits[None])).data
            full = dec.ar_forward(cond, prefix[:n]).data
            assert np.abs(cached - full).max() <= 1e-12
    # inference leaves no tape nodes, even with gradients on and every
    # parameter trainable
    dec.set_trainable(True)
    with T.fresh_tape() as tape:
        T.add(dec.head.b, dec.head.b)
        before = len(tape)
        dec.ar_generate(cond)
        assert len(tape) == before == 1


def test_ar_forward_cap_errors():
    dec = tiny("ar")
    cond = cond_for(dec)
    with pytest.raises(GenerationCapError):
        dec.ar_forward(cond, list(range(1, dec.config.max_units + 1)))


def test_ar_prefix_extension_is_causal():
    # each scored row of one forward over the whole sequence predicts as a
    # forward over only its own prefix does: later units do not leak back
    dec = tiny("ar")
    cond, units = cond_for(dec), [3, 5, 7]
    hidden, lay = dec._ar_hidden([cond], [units])
    assert lay.scored[0] == cond.shape[0]
    full = T.log_softmax_last_dim(
        dec.head(dec.ln_f(T.gather_rows(hidden, lay.scored)))).data
    for k in range(len(units) + 1):
        assert np.allclose(full[k], dec.ar_forward(cond, units[:k]).data[0],
                           atol=1e-12)


def test_ntp_loss_teacher_forcing_targets():
    dec = tiny("ar")
    cond = cond_for(dec)
    loss = dec.loss([cond], [[2, 3]])
    assert loss.data.shape == ()
    assert loss.item() > 0


# ---------------------------------------------------------------------------
# gradients (composite tolerance)


def test_nar_loss_parameter_gradients():
    dec = tiny("nar")
    cond = cond_for(dec, t=3)
    params = dec.parameters()

    def loss_fn():
        return dec.loss([cond], [[1, 2]], [[0, 1]])

    assert check_parameter_gradients(loss_fn, params) < 1e-3


def test_ar_loss_parameter_gradients():
    dec = tiny("ar")
    cond = cond_for(dec, t=3)
    params = dec.parameters()

    def loss_fn():
        return dec.loss([cond], [[2, 3]], [[0, 1]])

    assert check_parameter_gradients(loss_fn, params) < 1e-3


# ---------------------------------------------------------------------------
# packed batches against one record at a time


def ref_mean(terms):
    """The add chain and scale whose float operations ``T.mean`` makes."""
    terms = list(terms)
    return T.scale(functools.reduce(T.add, terms), 1.0 / len(terms))


def one_record_loss(dec, cond, units, text):
    """One record through an unpacked forward: the CTC loss of its own
    log-probs (NAR), or the mean over its units and end-of-speech of each
    one's negative log-prob under ``ar_forward`` of only its own prefix
    (AR)."""
    texts = None if text is None else [text]
    if dec.config.mode == "nar":
        return ctc_loss(dec.nar_forward([cond], texts)[0], units)
    nlls = []
    for k, target in enumerate([*units, dec.eos_id]):
        logp = dec.ar_forward(cond, units[:k], text)
        pick = np.zeros(logp.shape)
        pick[0, target] = -1.0
        nlls.append(T.tsum(T.mul(logp, Tensor(pick))))
    return ref_mean(nlls)


def loss_and_grads(dec, build):
    params = dec.parameters()
    for p in params.values():
        p.grad = None
    with T.fresh_tape():
        loss = build()
        T.backward(loss)
    return loss.item(), {k: p.grad for k, p in params.items()}


@given(mode=st.sampled_from(["nar", "ar"]), tgm=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_batch_loss_matches_the_mean_of_one_record_losses(mode, tgm, data):
    # up to 8 contexts of 1-24 rows, 4 frames a row: 4-96 frames, so both
    # attention layouts (one padded grid, a grid per length) are drawn
    seed = data.draw(st.integers(0, 2**16), label="seed")
    dec = tiny(mode, tgm=tgm, upsample=4, max_context=24, seed=seed)
    rng = np.random.default_rng(seed)
    for p in dec.parameters().values():  # off the zero-init TGM projection
        p.data += rng.normal(0.0, 0.3, p.shape)
    batch = []
    for _ in range(data.draw(st.integers(1, 8), label="batch")):
        cond = cond_for(dec, t=data.draw(st.integers(1, 24)), seed=seed + len(batch))
        top = dec.config.vocab_nar if mode == "nar" else dec.eos_id
        units = data.draw(st.lists(st.integers(1, top - 1),
                                   max_size=dec.config.max_units - 1))
        while mode == "nar" and min_frames(tuple(units)) > 4 * len(cond):
            units.pop()
        text = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)) \
            if tgm else None
        batch.append((cond, units, text))
    conds, units, texts = zip(*batch)
    got, got_grads = loss_and_grads(
        dec, lambda: dec.loss(conds, units, texts if tgm else None))
    want, want_grads = loss_and_grads(
        dec, lambda: ref_mean(one_record_loss(dec, *rec) for rec in batch))
    assert abs(got - want) <= 1e-10
    for k, g in got_grads.items():
        assert np.abs(g - want_grads[k]).max() <= 1e-10, k


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip_generation_bit_identical(tmp_path):
    dec = tiny("nar")
    path = tmp_path / "dec.ckpt"
    dec.save(path)
    clone = SpeechDecoder.load(path)
    assert clone.config == dec.config
    for seed in range(10):
        cond = cond_for(dec, t=3, seed=seed)
        a = dec.nar_forward([cond])[0].data
        b = clone.nar_forward([cond])[0].data
        assert np.array_equal(a, b)
        assert dec.nar_generate(cond).units.units == \
            clone.nar_generate(cond).units.units


def test_checkpoint_round_trip_ar(tmp_path):
    dec = tiny("ar")
    path = tmp_path / "dec.ckpt"
    dec.save(path)
    clone = SpeechDecoder.load(path)
    cond = cond_for(dec)
    assert dec.ar_generate(cond).units.units == \
        clone.ar_generate(cond).units.units


def test_set_trainable_flags():
    dec = tiny("nar")
    dec.set_trainable(False)
    assert not any(p.requires_grad for p in dec.parameters().values())
    dec.set_trainable(True)
    assert all(p.requires_grad for p in dec.parameters().values())


# ---------------------------------------------------------------------------
# training plumbing


def small_corpus(size=12, seed=0):
    return gen_supervised_corpus(CorpusSpec(seed=seed, size=size))


def corpus_config(**kw):
    spec = CorpusSpec()
    base = dict(mode="nar", layers=1, experts=2, model_dim=spec.feature_dim,
                heads=2, vocab_nar=spec.vocab_nar, upsample=spec.upsample,
                max_context=32, seed=0)
    base.update(kw)
    return SpeechDecoderConfig(**base)


def test_feasibility_filter():
    dec = SpeechDecoder(corpus_config())
    rec = {"units": list(range(1, 9))}
    assert feasible(dec, rec, t_c=8)
    assert not feasible(dec, rec, t_c=1)


def test_train_decoder_rejects_infeasible_corpus():
    records = small_corpus(8)
    for rec in records:
        rec["units"] = list(range(1, 60))  # cannot fit any context
    with pytest.raises(DataError):
        train_decoder(records, corpus_config(),
                      TrainSchedule(steps=1, batch=2))


def test_train_decoder_loss_decreases():
    records = small_corpus(8)
    _, curve = train_decoder(records, corpus_config(),
                             TrainSchedule(lr=3e-3, steps=60, batch=4))
    first = np.mean([v for _, v in curve[:5]])
    last = np.mean([v for _, v in curve[-5:]])
    assert last < first


def test_overfit_single_sample_to_zero_uer():
    records = small_corpus(24, seed=3)[:2]
    dec, curve = train_decoder(records, corpus_config(layers=1, experts=1),
                               TrainSchedule(lr=3e-3, steps=250, batch=2))
    scores = evaluate_uer(dec, records)
    assert scores["overall"] == 0.0


def test_evaluate_uer_groups_by_language():
    records = small_corpus(16, seed=4)
    dec = SpeechDecoder(corpus_config())
    scores = evaluate_uer(dec, records)
    assert "overall" in scores
    assert set(scores) <= {"overall", "a", "b"}


def test_ar_bos_is_blank_id():
    assert AR_BOS == 0
    # blank can never appear in a unit sequence, so the reuse is safe
    with pytest.raises(ConfigurationError):
        UnitSequence([AR_BOS])
