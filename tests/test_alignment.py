"""Progressive alignment: freeze contracts, stage order, losses, probes."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitforge.tensor as T
from unitforge import nn
from unitforge.alignment import (STAGE_DEFAULTS, STAGE_LOSSES, STAGE_TABLE,
                                 STAGES, OmniModel, StageSchedule, _set_freeze,
                                 default_schedule, eval_stage_loss,
                                 pretrain_backbone, qa_accuracy,
                                 quasi_zero_shot_probe, run_stage)
from unitforge.data import (AlignmentSpec, decode_f32, encode_f32,
                            gen_image_text_corpus, gen_instruct_corpus,
                            gen_speech_text_corpus)
from unitforge.errors import ContractError, DataError, SequencingError

SMALL = AlignmentSpec(seed=3, n_speech_text=16, n_image_text=16,
                      n_instruct=16, n_probe=8)


@pytest.fixture(scope="module")
def corpora():
    return {
        "I": gen_speech_text_corpus(SMALL),
        "II": gen_image_text_corpus(SMALL),
        "III": gen_instruct_corpus(SMALL),
        "probe": gen_instruct_corpus(SMALL, with_speech=True),
    }


def small_model(seed=0):
    return OmniModel(SMALL, seed=seed)


def short(stage, **kw):
    base = dict(steps=3, batch=4)
    base.update(kw)
    return default_schedule(stage, **base)


# ---------------------------------------------------------------------------
# schedules


def test_default_schedule_rejects_unknown_stage():
    with pytest.raises(ContractError):
        default_schedule("IV")


def test_default_schedule_applies_overrides():
    sched = default_schedule("I", steps=7, lr=0.5)
    assert sched.stage == "I"
    assert sched.steps == 7
    assert sched.lr == 0.5
    assert sched.batch == STAGE_DEFAULTS["I"]["batch"]


def test_stage_defaults_freeze_pattern():
    assert STAGE_TABLE["I"].frozen
    assert STAGE_TABLE["II"].frozen
    assert not STAGE_TABLE["III"].frozen


# ---------------------------------------------------------------------------
# backbone pretraining


def test_pretrain_reduces_copy_loss():
    model = small_model()
    curve = pretrain_backbone(model, steps=60, seed=0)
    assert np.mean([v for _, v in curve[-10:]]) < \
        np.mean([v for _, v in curve[:10]])
    assert "pretrain" in model.completed_stages


def test_pretrain_leaves_projectors_untouched():
    model = small_model()
    before = {k: v.data.copy() for k, v in
              model.speech.parameters("speech").items()}
    pretrain_backbone(model, steps=5, seed=0)
    for k, v in model.speech.parameters("speech").items():
        assert np.array_equal(v.data, before[k])


# ---------------------------------------------------------------------------
# stage losses


def test_empty_batches_rejected(corpora):
    model = small_model()
    for stage in STAGES:
        with pytest.raises(ContractError):
            STAGE_LOSSES[stage](model, [])


def test_image_pretrain_requires_frozen_backbone(corpora):
    model = small_model()
    for p in model.backbone_parameters().values():
        p.requires_grad = True
    with pytest.raises(ContractError):
        STAGE_LOSSES["II"](model, corpora["II"][:2])


def test_speech_text_loss_requires_frozen_backbone(corpora):
    model = small_model()
    for p in model.backbone_parameters().values():
        p.requires_grad = True
    with pytest.raises(ContractError):
        STAGE_LOSSES["I"](model, corpora["I"][:2])


def test_instruct_loss_missing_answer(corpora):
    model = small_model()
    rec = dict(corpora["III"][0])
    rec["a_tokens"] = []
    with pytest.raises(DataError):
        eval_stage_loss(model, "III", [rec])


def test_lm_loss_matches_manual_cross_entropy(corpora):
    # loss counts only transcript positions after the prefix + separator
    model = small_model()
    tokens = [1, 4, 2]
    rng = np.random.default_rng(0)
    prefix = T.Tensor(rng.normal(0.0, 1.0, (2, model.backbone.d)))
    with T.fresh_tape(), T.no_grad():
        loss = model.lm_loss(prefix, [2], [tokens])
        rows = T.concat_rows(prefix, model._sep_row(),
                             model._text_rows(tokens[:-1]))
        lp = T.log_softmax_last_dim(model.backbone.logits(rows)).data
    expected = -np.mean([lp[2 + i, tok] for i, tok in enumerate(tokens)])
    assert loss.item() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("lengths, targets", [([2], [[1, 4]]), ([1, 2], [[1], []]),
                                              ([0, 3], [[1], [2]]), ([], [])],
                         ids=["rows-left-over", "empty-target", "empty-prefix",
                              "no-sequences"])
def test_lm_loss_rejects_a_batch_its_prefix_rows_do_not_fit(lengths, targets):
    model = small_model()
    prefixes = T.Tensor(np.zeros((3, model.backbone.d)))
    with pytest.raises(ContractError):
        model.lm_loss(prefixes, lengths, targets)


def per_sample_loss(model, prefix_rows, target, prompt=()):
    """One sequence's loss through an unpacked forward, as before packing."""
    text = [*prompt, *target]
    rows = T.concat_rows(prefix_rows, model._text_rows([model.vocab.sep, *text[:-1]]))
    start = prefix_rows.shape[0] + len(prompt)
    return nn.cross_entropy(model.backbone.logits(rows),
                            np.arange(start, start + len(target)), target)


def ref_mean(terms):
    """The add chain and scale whose float operations ``T.mean`` makes."""
    terms = list(terms)
    return T.scale(functools.reduce(T.add, terms), 1.0 / len(terms))


def loss_and_grads(model, build):
    params = {k: p for k, p in model.parameters().items() if p.requires_grad}
    for p in params.values():
        p.grad = None
    with T.fresh_tape():
        loss = build()
        T.backward(loss)
    return loss.item(), {k: p.grad for k, p in params.items()}


@given(task=st.sampled_from(["copy", *STAGES]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_loss_matches_the_mean_of_per_sample_losses(corpora, task, data):
    # 1-32 sequences, targets down to one token, records drawn with repeats
    model = small_model(seed=data.draw(st.integers(0, 3)))
    n = data.draw(st.integers(1, 32))
    if task == "copy":
        seqs = data.draw(st.lists(st.lists(st.integers(0, model.vocab.sep - 1),
                                           min_size=1, max_size=12),
                                  min_size=n, max_size=n))
        packed = lambda: model.lm_loss(model._text_rows(np.concatenate(seqs)),
                                       [len(s) for s in seqs], seqs)
        terms = lambda: (per_sample_loss(model, model._text_rows(s), s) for s in seqs)
    else:
        spec = STAGE_TABLE[task]
        batch = []
        for rec in data.draw(st.lists(st.sampled_from(corpora[task]),
                                      min_size=n, max_size=n)):
            cut = data.draw(st.integers(1, len(rec[spec.target])))
            batch.append(dict(rec, **{spec.target: rec[spec.target][:cut]}))
        project = getattr(model, spec.projector)
        _set_freeze(model, spec.frozen)
        packed = lambda: STAGE_LOSSES[task](model, batch)
        terms = lambda: (per_sample_loss(model, project(decode_f32(rec[spec.features])),
                                         rec[spec.target],
                                         rec[spec.prompt] if spec.prompt else ())
                         for rec in batch)
    got, got_grads = loss_and_grads(model, packed)
    want, want_grads = loss_and_grads(model, lambda: ref_mean(terms()))
    _set_freeze(model, False)
    assert abs(got - want) <= 1e-12
    for k, g in got_grads.items():  # None for a projector the task skips
        want_g = want_grads[k]
        assert (g is None) == (want_g is None), k
        assert g is None or np.abs(g - want_g).max() <= 1e-12, k


# ---------------------------------------------------------------------------
# stage ordering and freezing


def test_stage_order_enforced(corpora):
    model = small_model()
    with pytest.raises(SequencingError):
        run_stage(model, short("II"), corpora["II"])
    with pytest.raises(SequencingError):
        run_stage(model, short("III"), corpora["III"])
    run_stage(model, short("I"), corpora["I"])
    run_stage(model, short("II"), corpora["II"])
    run_stage(model, short("III"), corpora["III"])
    assert model.completed_stages >= set(STAGES)


def test_stage_order_can_be_bypassed(corpora):
    model = small_model()
    run_stage(model, short("II"), corpora["II"], enforce_order=False)
    assert "II" in model.completed_stages


def test_unknown_stage_rejected(corpora):
    model = small_model()
    bad = StageSchedule(stage="X", lr=1e-3, batch=2, steps=1)
    with pytest.raises(ContractError):
        run_stage(model, bad, corpora["I"])


@pytest.mark.parametrize("stage", STAGES)
def test_run_stage_checks_every_record_before_the_first_step(corpora, stage):
    model = small_model()
    snap = {k: v.data.copy() for k, v in model.parameters().items()}
    spec = STAGE_TABLE[stage]
    records = [dict(rec) for rec in corpora[stage]]
    for field in (spec.features, spec.target, spec.prompt):
        if field:
            del records[-1][field]
            with pytest.raises(DataError, match=repr(field)):
                run_stage(model, short(stage), records, enforce_order=False)
            records[-1] = dict(corpora[stage][-1])
    assert stage not in model.completed_stages
    for k, v in model.parameters().items():
        assert np.array_equal(v.data, snap[k]), k
        assert v.requires_grad, k


@pytest.mark.parametrize("stage, field", [("I", "features"), ("II", "features"),
                                          ("III", "image"), ("probe", "image"),
                                          ("probe", "q_speech")])
def test_features_of_another_width_are_rejected_before_the_first_step(
        corpora, stage, field):
    model = small_model()
    snap = {k: v.data.copy() for k, v in model.parameters().items()}
    records = [dict(rec) for rec in corpora[stage]]
    records[-1][field] = encode_f32(np.ones((3, 5)))  # the projectors take 24
    name = repr(records[-1]["id"])
    with pytest.raises(DataError, match=f"record {name}: {field} of shape"):
        if stage == "probe":
            quasi_zero_shot_probe(model, records)
        else:
            run_stage(model, short(stage), records, enforce_order=False)
    assert stage not in model.completed_stages
    for k, v in model.parameters().items():
        assert np.array_equal(v.data, snap[k]), k


def test_frozen_stages_leave_backbone_bit_identical(corpora):
    model = small_model()
    run_stage(model, short("I"), corpora["I"])
    before = {k: v.data.copy()
              for k, v in model.backbone_parameters().items()}
    run_stage(model, short("II", steps=5), corpora["II"])
    for k, v in model.backbone_parameters().items():
        assert np.array_equal(v.data, before[k]), k


def test_stage_three_moves_backbone(corpora):
    model = small_model()
    for s in ("I", "II"):
        run_stage(model, short(s), corpora[s])
    before = {k: v.data.copy()
              for k, v in model.backbone_parameters().items()}
    run_stage(model, short("III", steps=5), corpora["III"])
    moved = any(not np.array_equal(v.data, before[k])
                for k, v in model.backbone_parameters().items())
    assert moved


def test_stage_one_trains_only_speech_projector(corpora):
    model = small_model()
    before_img = {k: v.data.copy()
                  for k, v in model.image.parameters("image").items()}
    before_sp = {k: v.data.copy()
                 for k, v in model.speech.parameters("speech").items()}
    run_stage(model, short("I"), corpora["I"])
    assert all(np.array_equal(v.data, before_img[k])
               for k, v in model.image.parameters("image").items())
    assert any(not np.array_equal(v.data, before_sp[k])
               for k, v in model.speech.parameters("speech").items())


def test_run_stage_metrics_rows(corpora):
    model = small_model()
    metrics = run_stage(model, short("I", steps=4), corpora["I"])
    assert len(metrics) == 4
    for step, stage, loss, lr in metrics:
        assert stage == "I"
        assert loss > 0
        assert lr > 0


def test_training_reduces_stage_loss(corpora):
    model = small_model()
    pretrain_backbone(model, steps=100, seed=0)
    before = eval_stage_loss(model, "I", corpora["I"])
    run_stage(model, short("I", steps=60, batch=8), corpora["I"])
    assert eval_stage_loss(model, "I", corpora["I"]) < before


def test_eval_stage_loss_does_not_train(corpora):
    model = small_model()
    snap = {k: v.data.copy() for k, v in model.parameters().items()}
    eval_stage_loss(model, "II", corpora["II"])
    for k, v in model.parameters().items():
        assert np.array_equal(v.data, snap[k])


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip_with_stage_record(tmp_path, corpora):
    model = small_model()
    run_stage(model, short("I"), corpora["I"])
    path = tmp_path / "omni.ckpt"
    model.save(path)
    clone = OmniModel.load(path)
    assert clone.completed_stages == {"I"}
    clone_params = clone.parameters()
    for k, v in model.parameters().items():
        assert np.array_equal(v.data, clone_params[k].data)
    # the clone can resume at stage II without re-running stage I
    run_stage(clone, short("II"), corpora["II"])


# ---------------------------------------------------------------------------
# probes


def test_probe_rejects_empty():
    with pytest.raises(ContractError):
        quasi_zero_shot_probe(small_model(), [])


def test_probe_result_ranges(corpora):
    res = quasi_zero_shot_probe(small_model(), corpora["probe"])
    assert -1.0 <= res.similarity <= 1.0
    assert 0.0 <= res.text_accuracy <= 1.0
    assert 0.0 <= res.speech_accuracy <= 1.0


def test_untrained_probe_similarity_is_near_zero(corpora):
    sims = [quasi_zero_shot_probe(small_model(seed=s),
                                  corpora["probe"]).similarity
            for s in range(3)]
    assert max(abs(s) for s in sims) <= 0.1


def test_stage_III_leaves_the_shared_embedding_without_a_gradient(corpora):
    # the unfrozen stage trains the backbone but not its input embedding
    # (left out of the optimizer), so no step may compute that gradient:
    # fit never zeroes it, and it would add up over the stage
    model = small_model()
    emb = model.backbone.emb.table
    run_stage(model, short("III"), corpora["III"], enforce_order=False)
    assert emb.grad is None
    assert emb.requires_grad  # unfrozen on exit, for pretraining


def test_probe_leaves_the_tape_empty(corpora):
    with T.fresh_tape() as tape:
        quasi_zero_shot_probe(small_model(), corpora["probe"])
    assert len(tape) == 0


def test_qa_accuracy_counts_first_answer_token(corpora):
    model = small_model()
    acc = qa_accuracy(model, corpora["probe"], spoken=False)
    assert 0.0 <= acc <= 1.0
