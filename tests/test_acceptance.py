"""End-to-end acceptance suite.

Each test pins one headline behavior of the stack at its stated tolerance:
exact CTC against enumeration, normalization, gradient fidelity, the
preference-optimization pipeline, expert-count and text-fusion ablations,
the AR/NAR step-count gap, staged alignment, and bit-level reproducibility.
Slow model training is shared through module-scoped fixtures.
"""

import copy
import json
import math
import os

import numpy as np
import pytest

import unitforge.tensor as T
from unitforge import cli
from unitforge.alignment import (OmniModel, default_schedule, eval_stage_loss,
                                 pretrain_backbone, qa_accuracy,
                                 quasi_zero_shot_probe, run_stage,
                                 speech_text_similarity)
from unitforge.ctc import brute_force_marginals, ctc_brute_force, ctc_loss
from unitforge.errors import InfeasibleAlignmentError
from unitforge.data import (AlignmentSpec, CorpusSpec, decode_f32,
                            emotion_oracle_classify, gen_emotion_eval_corpus,
                            gen_image_text_corpus, gen_instruct_corpus,
                            gen_preference_corpus, gen_speech_text_corpus,
                            gen_supervised_corpus)
from unitforge.decoder import (SpeechDecoder, SpeechDecoderConfig,
                               TrainSchedule, evaluate_uer, feasible,
                               train_decoder)
from unitforge.preference import (DpoConfig, DpoSchedule, PreferencePair,
                                  ctc_dpo_loss, pair_margin,
                                  pairs_from_records, preference_accuracy,
                                  train_dpo)
from unitforge.tensor import AdamW, Tensor, check_parameter_gradients


def log_softmax_rows(rng, t, v):
    x = rng.normal(0.0, 1.5, (t, v))
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# exact CTC vs exhaustive enumeration


def test_ctc_matches_enumeration_oracle():
    rng = np.random.default_rng(20240501)
    feasible_checked = 0
    for _ in range(260):
        t = int(rng.integers(1, 7))        # frames <= 6
        v = int(rng.integers(2, 5))        # vocab <= 4
        max_y = min(3, t)
        n_y = int(rng.integers(0, max_y + 1))
        y = list(rng.integers(1, v, n_y)) if n_y else []
        lp = log_softmax_rows(rng, t, v)
        reference = ctc_brute_force(lp, y)  # negative log marginal
        if reference == np.inf:
            # target cannot fit in t frames; the DP refuses it up front
            with T.fresh_tape(), pytest.raises(InfeasibleAlignmentError):
                ctc_loss(Tensor(lp), y)
            continue
        with T.fresh_tape():
            fast = ctc_loss(Tensor(lp), y).item()
        assert abs(fast - reference) < 1e-8
        feasible_checked += 1
    assert feasible_checked >= 200


def test_total_probability_partitions_to_one():
    rng = np.random.default_rng(99)
    for t in range(1, 5):                  # frames <= 4
        for v in (2, 3):                   # vocab <= 3
            lp = log_softmax_rows(rng, t, v)
            total = sum(math.exp(s)
                        for s in brute_force_marginals(lp).values())
            assert abs(total - 1.0) < 1e-6, (t, v)


# ---------------------------------------------------------------------------
# gradient fidelity


def test_primitive_and_ctc_gradients_to_1e4():
    rng = np.random.default_rng(7)
    # representative primitive chain
    w = Tensor(rng.normal(0.0, 0.5, (4, 3)), requires_grad=True)
    x = Tensor(rng.normal(0.0, 1.0, (5, 4)))

    def primitive_loss():
        h = T.relu(T.matmul(x, w))
        return T.tsum(T.softplus(T.log_softmax_last_dim(h)))

    assert check_parameter_gradients(primitive_loss, {"w": w}) < 1e-4

    # exact CTC marginal gradient
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lp = Tensor(rng.normal(0.0, 1.0, (5, 4)), requires_grad=True)

        def ctc_obj():
            return ctc_loss(T.log_softmax_last_dim(lp), [1, 2])

        assert check_parameter_gradients(ctc_obj, {"lp": lp}) < 1e-4


def test_composite_model_gradients_to_1e3():
    nar = SpeechDecoder(SpeechDecoderConfig(
        mode="nar", layers=1, experts=2, model_dim=8, heads=2, vocab_nar=12,
        vocab_ar=16, upsample=2, max_context=6, text_vocab=5, seed=0))
    ar = SpeechDecoder(SpeechDecoderConfig(
        mode="ar", layers=1, experts=2, model_dim=8, heads=2, vocab_nar=12,
        vocab_ar=16, upsample=2, max_context=6, text_vocab=5, seed=1))
    rng = np.random.default_rng(2)
    cond = rng.normal(0.0, 1.0, (3, 8))

    assert check_parameter_gradients(
        lambda: nar.nar_loss(cond, [1, 2], text_tokens=[0, 1]),
        nar.parameters()) < 1e-3
    assert check_parameter_gradients(
        lambda: ar.ntp_loss(cond, [2, 3], text_tokens=[0, 1]),
        ar.parameters()) < 1e-3

    reference = SpeechDecoder(SpeechDecoderConfig(
        mode="nar", layers=1, experts=2, model_dim=8, heads=2, vocab_nar=12,
        vocab_ar=16, upsample=2, max_context=6, text_vocab=5, seed=3))
    reference.set_trainable(False)
    pair = PreferencePair(cond, [1, 2], [3], "happy")
    assert check_parameter_gradients(
        lambda: ctc_dpo_loss(nar, reference, pair, beta=0.2),
        nar.parameters()) < 1e-3


# ---------------------------------------------------------------------------
# preference optimization: closed-form anchors and emotion gain


TINY = dict(layers=1, experts=2, model_dim=8, heads=2, vocab_nar=12,
            vocab_ar=16, upsample=2, max_context=6, text_vocab=5)


def test_policy_equals_reference_gives_ln2_loss():
    policy = SpeechDecoder(SpeechDecoderConfig(mode="nar", seed=0, **TINY))
    frozen = copy.deepcopy(policy)
    frozen.set_trainable(False)
    rng = np.random.default_rng(0)
    pair = PreferencePair(rng.normal(0.0, 1.0, (3, 8)), [1, 2], [3], "happy")
    for beta in (0.05, 0.1, 1.0):
        with T.fresh_tape():
            loss = ctc_dpo_loss(policy, frozen, pair, beta=beta)
        assert abs(loss.item() - math.log(2.0)) < 1e-9


def test_one_step_increases_margin_on_20_random_pairs():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        policy = SpeechDecoder(SpeechDecoderConfig(mode="nar", seed=seed,
                                                   **TINY))
        frozen = copy.deepcopy(policy)
        frozen.set_trainable(False)
        n_w = int(rng.integers(1, 3))
        y_w = list(rng.integers(1, 12, n_w))
        y_l = list(rng.integers(1, 12, n_w + 1))
        if y_l[:n_w] == y_w:
            y_l[0] = (y_l[0] % 11) + 1 if (y_l[0] % 11) + 1 != y_w[0] else 2
        pair = PreferencePair(rng.normal(0.0, 1.0, (3, 8)), y_w, y_l, "sad")
        params = {k: v for k, v in policy.parameters().items()
                  if not k.startswith(("tgm.", "txt."))}
        opt = AdamW(params, lr=1e-3)
        T.reset_tape()
        loss = ctc_dpo_loss(policy, frozen, pair, beta=0.1)
        opt.zero_grad()
        T.backward(loss)
        opt.step()
        with T.fresh_tape(), T.no_grad():
            assert pair_margin(policy, frozen, pair) > 0.0
        T.reset_tape()


def _emotion_accuracy(decoder, records):
    hits = {"a": [], "b": []}
    for rec in records:
        cond = decode_f32(rec["features"])
        if not feasible(decoder, rec, cond.shape[0]):
            continue
        pred = emotion_oracle_classify(decoder.nar_generate(cond).units)
        hits[rec["lang"]].append(int(pred == rec["emotion"]))
    return {lang: float(np.mean(v)) for lang, v in hits.items()}


def test_dpo_on_64_pairs_lifts_emotion_accuracy_in_both_languages(record_property):
    spec = CorpusSpec(seed=7777, size=48)
    sup = gen_supervised_corpus(spec)
    pairs = pairs_from_records(gen_preference_corpus(
        CorpusSpec(seed=7778, size=64)))
    holdout = gen_emotion_eval_corpus(CorpusSpec(seed=7779, size=48))

    cfg = SpeechDecoderConfig(mode="nar", layers=2, experts=2,
                              model_dim=spec.feature_dim, heads=2,
                              vocab_nar=spec.vocab_nar,
                              upsample=spec.upsample, max_context=32, seed=0)
    base, _ = train_decoder(sup, cfg,
                            TrainSchedule(lr=3e-3, steps=400, batch=8, seed=0))
    pre = _emotion_accuracy(base, holdout)

    policy = copy.deepcopy(base)
    reference = copy.deepcopy(base)
    reference.set_trainable(False)
    rows = train_dpo(policy, reference, pairs, DpoConfig(beta=0.1),
                     DpoSchedule(lr=1e-4, steps=300, batch=8, seed=2,
                                 log_every=50))
    # untouched policy == reference, so the first logged loss is ln 2
    assert abs(rows[0][1] - math.log(2.0)) < 1e-6
    accuracy = preference_accuracy(policy, pairs)
    record_property("preference_accuracy", accuracy)
    assert accuracy >= 0.95
    post = _emotion_accuracy(policy, holdout)
    record_property("emotion_accuracy_pre_post", (pre, post))
    for lang in ("a", "b"):
        assert post[lang] > pre[lang], (lang, pre, post)


# ---------------------------------------------------------------------------
# AR/NAR step-count gap


def test_parallel_decoder_needs_one_step_ar_needs_length_plus_one(record_property):
    spec = CorpusSpec(seed=31, size=24)
    records = gen_supervised_corpus(spec)
    base = dict(layers=1, experts=1, model_dim=spec.feature_dim, heads=2,
                vocab_nar=spec.vocab_nar, upsample=spec.upsample,
                max_context=32, seed=0)
    sched = TrainSchedule(lr=3e-3, steps=120, batch=8, seed=0)
    ar, _ = train_decoder(records, SpeechDecoderConfig(mode="ar", **base),
                          sched)
    nar, _ = train_decoder(records, SpeechDecoderConfig(mode="nar", **base),
                           sched)
    ratios = []
    for rec in records:
        cond = decode_f32(rec["features"])
        if not (feasible(ar, rec, cond.shape[0])
                and feasible(nar, rec, cond.shape[0])):
            continue
        ar_res = ar.ar_generate(cond)
        nar_res = nar.nar_generate(cond)
        assert nar_res.sequential_steps == 1
        if not ar_res.truncated:
            assert ar_res.sequential_steps == len(ar_res.units.units) + 1
        if len(ar_res.units.units) >= 5:
            ratios.append(ar_res.sequential_steps / nar_res.sequential_steps)
    record_property("ratio_count", len(ratios))
    record_property("median_ar_nar_step_ratio", float(np.median(ratios)))
    assert len(ratios) >= 5
    assert np.median(ratios) >= 5.0


# ---------------------------------------------------------------------------
# expert-count ablation: multilingual capacity under a fixed step budget


def test_four_experts_serve_both_languages_while_one_expert_starves(record_property):
    # strong length mismatch plus a 20% minority share: the unnormalized
    # CTC objective lets the long majority language dominate the shared
    # gradient, so a single expert spends the whole step budget on it
    spec = CorpusSpec(seed=7777, size=160, feature_dim=32, len_a=(2, 4),
                      len_b=(10, 14), lang_mix=0.2)
    records = gen_supervised_corpus(spec)
    sched = TrainSchedule(lr=3e-3, steps=820, batch=8, seed=0)

    def uer_by_lang(experts):
        cfg = SpeechDecoderConfig(mode="nar", layers=1, experts=experts,
                                  model_dim=32, heads=2,
                                  vocab_nar=spec.vocab_nar,
                                  upsample=spec.upsample, max_context=48,
                                  seed=0)
        decoder, _ = train_decoder(records, cfg, sched)
        return evaluate_uer(decoder, records)

    routed = uer_by_lang(4)
    record_property("uer_4_experts_a_b", (routed["a"], routed["b"]))
    assert routed["a"] < 0.2, routed
    assert routed["b"] < 0.2, routed

    shared = uer_by_lang(1)
    record_property("uer_1_expert_a", shared["a"])
    # the starved minority language stays near-unintelligible
    assert shared["a"] > 0.8, shared


# ---------------------------------------------------------------------------
# text-guided fusion ablation: training-loss advantage in both modes


def test_text_fusion_lowers_final_training_loss_in_both_modes(record_property):
    # noisy features and a corpus too large to memorize make the clean
    # text pathway genuinely informative
    spec = CorpusSpec(seed=7777, size=96, feature_dim=32, noise=1.0)
    records = gen_supervised_corpus(spec)

    def final_loss(mode, tgm, seed):
        cfg = SpeechDecoderConfig(mode=mode, layers=1, experts=2,
                                  model_dim=32, heads=2,
                                  vocab_nar=spec.vocab_nar,
                                  upsample=spec.upsample, max_context=32,
                                  tgm=tgm, seed=seed)
        _, curve = train_decoder(records, cfg,
                                 TrainSchedule(lr=3e-3, steps=200, batch=8,
                                               seed=seed))
        return float(np.mean([v for _, v in curve[-10:]]))

    for mode in ("nar", "ar"):
        wins = sum(
            int(final_loss(mode, True, seed) < final_loss(mode, False, seed))
            for seed in range(5))
        record_property(f"tgm_wins_of_5_{mode}", wins)
        assert wins >= 4, mode


# ---------------------------------------------------------------------------
# quasi-zero-shot transfer: spoken QA after image-text-only instruction tuning


def test_spoken_questions_transfer_after_image_only_instruction_tuning(record_property):
    spec = AlignmentSpec(seed=1, n_speech_text=1536, n_image_text=256,
                         n_instruct=256, n_probe=64, seq_len=(8, 12))
    speech_text = gen_speech_text_corpus(spec)
    image_text = gen_image_text_corpus(spec)
    instruct = gen_instruct_corpus(spec)
    probe = gen_instruct_corpus(spec, with_speech=True, rng_seed=spec.seed + 1)

    # untrained projector/backbone pairs sit near zero similarity
    nulls = {null_seed: speech_text_similarity(
        OmniModel(spec, layers=1, seed=null_seed), probe)
        for null_seed in range(100, 105)}
    record_property("max_abs_null_similarity", max(map(abs, nulls.values())))
    for null_seed, null in nulls.items():
        assert abs(null) <= 0.1, null_seed

    model = OmniModel(spec, layers=1, seed=0)
    pretrain_backbone(model, steps=8000, seed=0)
    # stage I in two chunks with fresh batch orders; the similarity
    # statistic plateaus around 600 steps and drifts back down if the
    # projector is trained much further
    for chunk in range(2):
        run_stage(model, default_schedule("I", steps=300, lr=1e-2, batch=32,
                                          weight_decay=1e-2, seed=chunk),
                  speech_text)
    run_stage(model, default_schedule("II", steps=300, seed=0), image_text)
    run_stage(model, default_schedule("III", steps=1200, seed=0), instruct)

    res = quasi_zero_shot_probe(model, probe)
    record_property("similarity", res.similarity)
    record_property("speech_accuracy_vs_0.75_text_accuracy",
                    (res.speech_accuracy, 0.75 * res.text_accuracy))
    assert res.similarity >= 0.8
    assert res.text_accuracy > 0.3
    # instruction tuning never saw speech, yet spoken questions land close
    # to written ones through the shared input space
    assert res.speech_accuracy >= 0.75 * res.text_accuracy


# ---------------------------------------------------------------------------
# alignment stage contracts: freezing and order-swap robustness


def test_stage_two_freezes_backbone_and_order_swap_is_benign(record_property):
    spec = AlignmentSpec(seed=2, n_speech_text=96, n_image_text=96,
                         n_instruct=96, n_probe=16)
    data = {
        "I": gen_speech_text_corpus(spec),
        "II": gen_image_text_corpus(spec),
        "III": gen_instruct_corpus(spec),
    }
    probe = gen_instruct_corpus(spec, with_speech=True, rng_seed=spec.seed + 1)
    steps = {"I": 150, "II": 120, "III": 300}

    def pipeline(order, enforce):
        model = OmniModel(spec, seed=0)
        pretrain_backbone(model, steps=800, seed=0)
        for stage in order:
            frozen_stage = stage in ("I", "II")
            before = ({k: v.data.copy()
                       for k, v in model.backbone_parameters().items()}
                      if frozen_stage else None)
            run_stage(model, default_schedule(stage, steps=steps[stage],
                                              seed=0),
                      data[stage], enforce_order=enforce)
            if frozen_stage:
                after = model.backbone_parameters()
                for key, old in before.items():
                    assert np.array_equal(old, after[key].data), (stage, key)
        return (eval_stage_loss(model, "III", data["III"]),
                qa_accuracy(model, probe, spoken=False))

    loss_speech_first, qa_speech_first = pipeline(["I", "II", "III"], True)
    loss_image_first, qa_image_first = pipeline(["II", "I", "III"], False)
    rel = (abs(loss_speech_first - loss_image_first)
           / max(loss_speech_first, loss_image_first))
    record_property("relative_loss_gap", rel)
    record_property("qa_gap", abs(qa_speech_first - qa_image_first))
    assert rel < 0.10
    assert abs(qa_speech_first - qa_image_first) \
        <= 0.10 * max(qa_speech_first, qa_image_first)


# ---------------------------------------------------------------------------
# bit-level reproducibility through the CLI


def _digest_dir(root):
    out = {}
    for name in sorted(os.listdir(root)):
        if name == "run_manifest.json":  # carries a wall-clock timestamp
            continue
        out[name] = cli.file_digest(os.path.join(root, name))
    return out


def test_identical_manifests_reproduce_artifacts_byte_for_byte(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("kind=supervised\nsize=10\nseed=404\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("layers=1\nexperts=2\nsteps=12\nbatch=4\n"
                         "lr=1e-3\nmax_context=32\n")
    digests = []
    for run in ("first", "second"):
        data_dir = tmp_path / run / "data"
        model_dir = tmp_path / run / "model"
        assert cli.main(["gen-data", "--config", str(gen_cfg),
                         "--out", str(data_dir)]) == 0
        assert cli.main(["train", "decoder-nar",
                         "--corpus", str(data_dir / "supervised.jsonl"),
                         "--config", str(train_cfg),
                         "--out", str(model_dir)]) == 0
        digests.append((_digest_dir(data_dir), _digest_dir(model_dir)))
    assert digests[0] == digests[1]
