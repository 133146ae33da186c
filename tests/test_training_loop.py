"""The trainers over ``tensor.fit``: bit-identical to their hand-written
loops and beside generation in another thread, stopped by a non-finite
loss, and free of page faults once warm."""

import copy
import platform
import sys
import threading

import numpy as np
import pytest

import unitforge.tensor as T
from unitforge import preference
from unitforge.alignment import (STAGE_TABLE, OmniModel, _set_freeze,
                                 _trainable, default_schedule,
                                 pretrain_backbone, run_stage)
from unitforge.data import (AlignmentSpec, CorpusSpec, decode_f32, encode_f32,
                            gen_image_text_corpus, gen_instruct_corpus,
                            gen_preference_corpus, gen_speech_text_corpus,
                            gen_supervised_corpus)
from unitforge.decoder import (SpeechDecoder, SpeechDecoderConfig,
                               TrainSchedule, batch_loss, feasible,
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
# the hand-written loops that ``fit`` replaced; each builds a step's loss
# through the trainer's own batch call, so they test the loop mechanics


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
        loss = batch_loss(decoder, [records[i] for i in idx],
                          [conds[i] for i in idx])
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
        seqs = []
        for _ in range(batch):
            n = int(rng.integers(lo, hi + 1))
            seqs.append(rng.integers(0, model.vocab.sep, n))
        loss = model.lm_loss(model._text_rows(np.concatenate(seqs)),
                             [len(s) for s in seqs], seqs)
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr=warmup_lr(lr, step + 1, steps))
        curve.append((step, float(loss.item())))
    T.reset_tape()
    return curve


def loop_stage_loss(model, batch, projector, features, target, prompt=None):
    """The batch's features through one projector call, then one packed
    ``lm_loss``."""
    feats = [decode_f32(rec[features]) for rec in batch]
    return model.lm_loss(projector(np.concatenate(feats)),
                         [len(f) for f in feats], [rec[target] for rec in batch],
                         None if prompt is None else [rec[prompt] for rec in batch])


LOOP_STAGE_LOSSES = {
    "I": lambda model, batch: loop_stage_loss(model, batch, model.speech,
                                              "features", "tokens"),
    "II": lambda model, batch: loop_stage_loss(model, batch, model.image,
                                               "features", "caption"),
    "III": lambda model, batch: loop_stage_loss(model, batch, model.image,
                                                "image", "a_tokens", "q_tokens"),
}


def loop_run_stage(model, schedule, records):
    _set_freeze(model, STAGE_TABLE[schedule.stage].frozen)
    opt = AdamW(_trainable(model, schedule.stage),
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
    assert len(T._ACTIVE_TAPE.get()) == 0


def test_training_beside_no_grad_generation_in_other_threads_matches_sequential_runs():
    # recording is context-local: two generating threads hold no_grad for
    # the whole training run, and the trainer still records on its tape;
    # three threads on a short switch interval interleave their ops
    records = gen_supervised_corpus(CorpusSpec(seed=1, size=10))
    generator = SpeechDecoder(decoder_config("ar"))
    conds = [decode_f32(rec["features"]) for rec in records[:4]]

    def train():
        with T.fresh_tape():  # each concurrent trainer records on its own tape
            decoder, curve = train_decoder(records, decoder_config("nar"),
                                           TrainSchedule(steps=3, batch=3, seed=2))
        return curve, {k: p.data.copy() for k, p in decoder.parameters().items()}

    def generate():
        return [generator.ar_generate(cond) for cond in conds]

    want_curve, want_params = train()
    want_units = generate()
    got, started, trained = {}, threading.Barrier(3, timeout=60), threading.Event()

    def training_thread():
        started.wait()
        try:
            got["train"] = train()
        finally:
            trained.set()

    def generating_thread(k):
        with T.no_grad():
            started.wait()
            got[k] = generate()
            trained.wait(timeout=60)

    threads = [threading.Thread(target=training_thread),
               *(threading.Thread(target=generating_thread, args=(k,)) for k in (0, 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got.keys() == {"train", 0, 1}
    assert got[0] == got[1] == want_units
    curve, params = got["train"]
    assert curve == want_curve
    for name, p in params.items():
        assert np.array_equal(p, want_params[name]), name


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
    assert len(T._ACTIVE_TAPE.get()) == 0


# ---------------------------------------------------------------------------
# memory reuse across steps


def minor_faults_per_step(params, loss_fn, warm=2, steps=10):
    """Mean minor page faults of ``steps`` training steps after ``warm``."""
    resource = pytest.importorskip("resource")
    counts = []
    for _ in T.fit(params, loss_fn, warm + steps, 1e-4):
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return (counts[-1] - counts[warm - 1]) / steps


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's")
@pytest.mark.parametrize("phase", ["nar", "dpo"])
def test_warm_training_steps_reuse_their_memory(phase):
    # the speech_train shapes: d=64, 2 layers, 2 experts, TGM, batch 8; a
    # step that hands its pages back to the OS faults them in again, about
    # 760 (NAR) and 610 (DPO) times a step
    spec = CorpusSpec(seed=7777, size=48)
    decoder = SpeechDecoder(SpeechDecoderConfig(
        mode="nar", layers=2, experts=2, model_dim=spec.feature_dim, heads=2,
        vocab_nar=spec.vocab_nar, upsample=spec.upsample, max_context=32,
        tgm=True, seed=0))
    params = decoder.parameters()
    records = gen_supervised_corpus(spec)[:8]
    conds = [decode_f32(r["features"]) for r in records]
    pairs = preference.pairs_from_records(gen_preference_corpus(spec)[:8])
    reference = copy.deepcopy(decoder)
    reference.set_trainable(False)
    ref = preference._scores(reference, pairs)

    def loss_fn(step):
        if phase == "nar":
            return batch_loss(decoder, records, conds)
        return preference._dpo_loss(decoder, pairs, ref, 0.1)

    if phase == "dpo":
        params = {k: v for k, v in params.items()
                  if not k.startswith(("tgm.", "txt."))}
    assert minor_faults_per_step(params, loss_fn) < 50
