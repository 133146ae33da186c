"""The trainers over ``tensor.fit``: bit-identical to their hand-written
loops, and stopped by a non-finite loss."""

import numpy as np
import pytest

import unitforge.tensor as T
from unitforge import nn
from unitforge.alignment import (OmniModel, _set_freeze, _trainable,
                                 default_schedule, pretrain_backbone,
                                 run_stage)
from unitforge.data import (AlignmentSpec, CorpusSpec, decode_f32, encode_f32,
                            gen_image_text_corpus, gen_instruct_corpus,
                            gen_speech_text_corpus, gen_supervised_corpus)
from unitforge.decoder import (SpeechDecoder, SpeechDecoderConfig,
                               TrainSchedule, feasible, sample_loss,
                               train_decoder)
from unitforge.errors import DomainError
from unitforge.tensor import AdamW, warmup_lr

SPEC = AlignmentSpec(seed=3, n_speech_text=12, n_image_text=12,
                     n_instruct=12, n_probe=4)


def decoder_config(mode):
    spec = CorpusSpec()
    return SpeechDecoderConfig(mode=mode, layers=1, experts=2,
                               model_dim=spec.feature_dim, heads=2,
                               vocab_nar=spec.vocab_nar,
                               upsample=spec.upsample, max_context=32, seed=0)


# ---------------------------------------------------------------------------
# the hand-written loops that ``fit`` replaced


def loop_train_decoder(records, config, schedule):
    decoder = SpeechDecoder(config)
    opt = AdamW(decoder.parameters(), lr=schedule.lr,
                weight_decay=schedule.weight_decay)
    rng = np.random.default_rng(schedule.seed)
    conds = [decode_f32(rec["features"]) for rec in records]
    usable = [i for i, rec in enumerate(records)
              if feasible(decoder, rec, conds[i].shape[0])]
    curve = []
    for step in range(schedule.steps):
        T.reset_tape()
        idx = rng.choice(usable, size=min(schedule.batch, len(usable)),
                         replace=False)
        loss = None
        for i in idx:
            term = sample_loss(decoder, records[i], conds[i])
            loss = term if loss is None else T.add(loss, term)
        loss = T.scale(loss, 1.0 / len(idx))
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr=warmup_lr(schedule.lr, step + 1, schedule.steps,
                              schedule.warmup_ratio))
        curve.append((step, float(loss.item())))
    T.reset_tape()
    return decoder, curve


def loop_pretrain_backbone(model, steps, lr, batch, seed, seq_len=(4, 10)):
    rng = np.random.default_rng(seed)
    opt = AdamW(model.backbone_parameters(), lr=lr)
    curve = []
    lo, hi = seq_len
    for step in range(steps):
        T.reset_tape()
        loss = None
        for _ in range(batch):
            n = int(rng.integers(lo, hi + 1))
            tokens = rng.integers(0, model.vocab.sep, n)
            term = model.lm_loss(model._text_rows(tokens), tokens)
            loss = term if loss is None else T.add(loss, term)
        loss = T.scale(loss, 1.0 / batch)
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr=warmup_lr(lr, step + 1, steps))
        curve.append((step, float(loss.item())))
    T.reset_tape()
    return curve


def loop_mean(terms):
    loss = None
    n = 0
    for term in terms:
        loss = term if loss is None else T.add(loss, term)
        n += 1
    return T.scale(loss, 1.0 / n)


def loop_instruct_term(model, rec):
    """Answer-token cross-entropy with the first scored row worked out
    by hand."""
    img = model.image(decode_f32(rec["image"]))
    q = list(rec["q_tokens"])
    a = list(rec["a_tokens"])
    full = q + a
    rows = T.concat_rows(img, model._sep_row(), model._text_rows(full[:-1]))
    logits = model.backbone.logits(rows)
    start = img.shape[0] + 1 + len(q) - 1
    return nn.cross_entropy(logits, np.arange(start, start + len(a)), a)


LOOP_STAGE_LOSSES = {
    "I": lambda model, batch: loop_mean(
        model.lm_loss(model.speech(decode_f32(rec["features"])), rec["tokens"])
        for rec in batch),
    "II": lambda model, batch: loop_mean(
        model.lm_loss(model.image(decode_f32(rec["features"])), rec["caption"])
        for rec in batch),
    "III": lambda model, batch: loop_mean(
        loop_instruct_term(model, rec) for rec in batch),
}


def loop_run_stage(model, schedule, records):
    _set_freeze(model, schedule.freeze_llm)
    opt = AdamW(_trainable(model, schedule.stage, schedule.freeze_llm),
                lr=schedule.lr, weight_decay=schedule.weight_decay)
    loss_fn = LOOP_STAGE_LOSSES[schedule.stage]
    rng = np.random.default_rng(schedule.seed)
    metrics = []
    for step in range(schedule.steps):
        T.reset_tape()
        idx = rng.choice(len(records), size=min(schedule.batch, len(records)),
                         replace=False)
        loss = loss_fn(model, [records[i] for i in idx])
        opt.zero_grad()
        T.backward(loss)
        lr = warmup_lr(schedule.lr, step + 1, schedule.steps,
                       schedule.warmup_ratio)
        opt.step(lr=lr)
        metrics.append((step, schedule.stage, float(loss.item()), lr))
    T.reset_tape()
    _set_freeze(model, False)
    return metrics


# ---------------------------------------------------------------------------
# bit identity


def run_decoder(train, mode):
    records = gen_supervised_corpus(CorpusSpec(seed=1, size=10))
    schedule = TrainSchedule(lr=3e-3, steps=5, batch=3, weight_decay=0.01,
                             seed=2)
    decoder, curve = train(records, decoder_config(mode), schedule)
    return curve, decoder.parameters()


def run_pretrain(train):
    model = OmniModel(SPEC, layers=1, seed=1)
    curve = train(model, steps=5, lr=3e-3, batch=3, seed=2)
    return curve, model.parameters()


def run_align(train, stage):
    corpus = {"I": gen_speech_text_corpus, "II": gen_image_text_corpus,
              "III": gen_instruct_corpus}[stage](SPEC)
    model = OmniModel(SPEC, layers=1, seed=1)
    schedule = default_schedule(stage, steps=5, batch=3, lr=3e-3,
                                weight_decay=0.01, seed=2)
    return train(model, schedule, corpus), model.parameters()


def run(case, new):
    """Train ``case`` through its trainer (``new``) or its old loop."""
    if case in ("nar", "ar"):
        return run_decoder(train_decoder if new else loop_train_decoder, case)
    if case == "pretrain":
        return run_pretrain(pretrain_backbone if new
                            else loop_pretrain_backbone)
    train = ((lambda m, s, r: run_stage(m, s, r, enforce_order=False))
             if new else loop_run_stage)
    return run_align(train, case[len("align"):])


@pytest.mark.parametrize("case", ["nar", "ar", "pretrain", "alignI",
                                  "alignII", "alignIII"])
def test_trainer_matches_hand_written_loop_bit_for_bit(case):
    (curve, params), (ref_curve, ref_params) = run(case, True), run(case, False)
    assert len(curve) == 5
    assert curve == ref_curve
    assert params.keys() == ref_params.keys()
    for name, p in params.items():
        assert np.array_equal(p.data, ref_params[name].data), name
    assert len(T._ACTIVE_TAPE) == 0


# ---------------------------------------------------------------------------
# non-finite guard


def test_ar_training_on_nan_features_stops_at_step_zero():
    records = gen_supervised_corpus(CorpusSpec(seed=1, size=6))
    for rec in records:
        rec["features"] = encode_f32(
            np.full(decode_f32(rec["features"]).shape, np.nan))
    with pytest.raises(DomainError, match="step 0"):
        train_decoder(records, decoder_config("ar"),
                      TrainSchedule(steps=2, batch=2))
    assert len(T._ACTIVE_TAPE) == 0
