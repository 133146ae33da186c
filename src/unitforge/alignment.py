"""Progressive alignment pipeline on synthetic modalities.

A tiny decoder-only backbone is first pretrained on a copy task (the
stand-in for starting from a pretrained LLM), then aligned in stages:
speech-text (projector only, backbone frozen), image-text pretraining
(projector only), and image-text instruction tuning (full model except
the shared input embedding, which the projectors are aligned to). The
quasi-zero-shot probe then answers spoken questions that were never seen
as speech during instruction tuning.

Every training batch runs as one packed forward (``OmniModel.lm_loss``):
the sequences of a batch are stacked row-wise, and only attention sees
where each one ends, so a step records the same tape nodes at any batch
size. The probe answers one question at a time.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import (assign_parameters, expect_keys, load_checkpoint,
                         save_checkpoint)
from .data import (BACKBONE_POSITIONS, AlignmentSpec, AlignmentVocab,
                   check_records, decode_f32)
from .errors import ContractError, DataError, SequencingError
from .tensor import Tensor

# Stages I-III of the published five-stage recipe (IV/V live in decoder
# and preference): the projector each trains, the corpus kind it reads,
# the record fields of its projected prefix, scored target and unscored
# prompt ("" if none), and whether the backbone stays frozen.
Stage = namedtuple("Stage", "projector kind features target prompt frozen")
STAGE_TABLE = {
    "I": Stage("speech", "speech_text", "features", "tokens", "", True),
    "II": Stage("image", "image_text", "features", "caption", "", True),
    "III": Stage("image", "instruct", "image", "a_tokens", "q_tokens", False),
}
STAGES = tuple(STAGE_TABLE)
ARCH_TYPES = {"d": int, "layers": int, "heads": int}  # OmniModel's shape keys
EVAL_BATCH = 16  # records per forward of ``eval_stage_loss``


@dataclass
class StageSchedule:
    stage: str
    lr: float
    batch: int
    steps: int
    warmup_ratio: float = 0.3
    weight_decay: float = 0.0
    seed: int = 0


# Scaled-down per-stage settings; lr follows the published recipe.
STAGE_DEFAULTS = {
    "I": dict(lr=1e-3, batch=8, steps=400),
    "II": dict(lr=1e-3, batch=8, steps=300),
    "III": dict(lr=5e-5, batch=8, steps=1500),
}


def default_schedule(stage: str, **overrides) -> StageSchedule:
    if stage not in STAGE_DEFAULTS:
        raise ContractError(f"unknown alignment stage {stage!r}")
    kw = dict(STAGE_DEFAULTS[stage])
    kw.update(overrides)
    return StageSchedule(stage=stage, **kw)


class Backbone:
    """Tiny causal LM over the shared text vocabulary."""

    def __init__(self, rng, vocab_size, d=32, layers=2, heads=2):
        self.d = d
        self.emb = nn.Embedding(rng, vocab_size, d)
        self.pos = nn.PositionalEmbedding(rng, BACKBONE_POSITIONS, d)
        self.blocks = [nn.DecoderBlock(rng, d, heads) for _ in range(layers)]
        self.ln_f = nn.LayerNorm(d)
        self.lm_head = nn.Linear(rng, d, vocab_size)

    def hidden(self, rows: Tensor, lengths=None) -> Tensor:
        """Final hidden states of ``rows``: one sequence, or consecutive
        packed sequences of ``lengths`` rows."""
        x = self.pos(rows, lengths)
        for block in self.blocks:
            x = block(x, causal=True, lengths=lengths)
        return self.ln_f(x)

    def logits(self, rows: Tensor, lengths=None) -> Tensor:
        return self.lm_head(self.hidden(rows, lengths))

    def parameters(self, prefix="llm"):
        out = self.emb.parameters(f"{prefix}.emb")
        out.update(self.pos.parameters(f"{prefix}.pos"))
        for i, block in enumerate(self.blocks):
            out.update(block.parameters(f"{prefix}.block{i}"))
        out.update(self.ln_f.parameters(f"{prefix}.ln_f"))
        out.update(self.lm_head.parameters(f"{prefix}.head"))
        return out


class ToyEncoder:
    """Trainable projector from a modality feature space into backbone dim."""

    def __init__(self, rng, feat_dim, d):
        self.proj = nn.Linear(rng, feat_dim, d)

    def __call__(self, feats) -> Tensor:
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats))
        return self.proj(x)

    def parameters(self, prefix):
        return self.proj.parameters(f"{prefix}.proj")


class OmniModel:
    """Backbone plus speech/image projectors and stage bookkeeping."""

    def __init__(self, spec: AlignmentSpec, d=32, layers=2, heads=2, seed=0):
        nn.check_dims(d, heads)
        spec.validate()  # its sequences fit the backbone's positions
        self.spec = spec
        self.arch = {"d": d, "layers": layers, "heads": heads}
        self.vocab = AlignmentVocab(spec)
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(rng, self.vocab.size, d=d, layers=layers,
                                 heads=heads)
        self.speech = ToyEncoder(rng, spec.speech_dim, d)
        self.image = ToyEncoder(rng, spec.image_dim, d)
        self.completed_stages: set = set()

    def parameters(self):
        out = self.backbone.parameters("llm")
        out.update(self.speech.parameters("speech"))
        out.update(self.image.parameters("image"))
        return out

    def backbone_parameters(self):
        return self.backbone.parameters("llm")

    def save(self, path):
        """Completed stages go in the binary, as a ``meta.stages`` record."""
        params = dict(self.parameters())
        params["meta.stages"] = Tensor(np.array(sorted(
            STAGES.index(s) for s in self.completed_stages if s in STAGES)))
        save_checkpoint(path, params, {"alignment_spec": asdict(self.spec),
                                       "arch": self.arch})

    @classmethod
    def load(cls, path) -> "OmniModel":
        params, meta = load_checkpoint(path, "alignment_spec")
        expect_keys(path, meta, {"alignment_spec": dict, "arch": dict})
        spec = expect_keys(path, meta["alignment_spec"], AlignmentSpec)
        model = cls(AlignmentSpec(**dict(spec, seq_len=tuple(spec["seq_len"]))),
                    **expect_keys(path, meta["arch"], ARCH_TYPES))
        stages = params.pop("meta.stages", np.zeros(0)).reshape(-1)
        if not np.isin(stages, np.arange(len(STAGES))).all():
            raise DataError(f"{path}: meta.stages {stages.tolist()} are not "
                            f"stage indices 0..{len(STAGES) - 1}")
        assign_parameters(model.parameters(), params)
        model.completed_stages = {STAGES[int(i)] for i in stages}
        return model

    # -- sequence assembly --------------------------------------------------

    def _sep_row(self) -> Tensor:
        return self.backbone.emb([self.vocab.sep])

    def _text_rows(self, tokens) -> Tensor:
        return self.backbone.emb(np.asarray(tokens, dtype=np.int64))

    def lm_loss(self, prefixes: Tensor, lengths, targets, prompts=None) -> Tensor:
        """Mean over a batch of sequences of each one's mean cross-entropy
        of ``targets[i]`` after its embedded prefix, the separator and
        ``prompts[i]`` (not scored; default none).

        ``prefixes`` holds the prefixes one after another, ``lengths[i]``
        rows each. The batch runs as one packed forward, laid out by
        ``nn.lm_layout`` as the AR speech decoder's is: every row-wise op
        sees all rows at once and attention keeps each sequence to its own
        rows. Each scored token weighs 1/(B * len(targets[i])).
        """
        lay = nn.lm_layout(lengths, self.vocab.sep, targets, prompts)
        if np.sum(lengths) != prefixes.shape[0]:
            raise ContractError(f"lm_loss: prefix lengths {list(lengths)} for "
                                f"{prefixes.shape[0]} rows")
        rows = T.gather_rows(T.concat_rows(prefixes, self._text_rows(lay.ids)),
                             lay.order)
        logits = self.backbone.logits(rows, lay.lengths)
        return nn.cross_entropy(logits, lay.scored, lay.targets, lay.weights)


# ---------------------------------------------------------------------------
# backbone pretraining (copy task)


def pretrain_backbone(model: OmniModel, steps=500, lr=1e-3, batch=8, seed=0,
                      seq_len=(4, 10)):
    """Teach the backbone to repeat a token sequence after the separator.

    This is the desk-scale stand-in for starting from a pretrained LLM;
    without it the frozen-backbone stages have nothing to align to.
    """
    rng = np.random.default_rng(seed)
    lo, hi = seq_len

    def loss_fn(step):
        seqs = [rng.integers(0, model.vocab.sep, int(rng.integers(lo, hi + 1)))
                for _ in range(batch)]
        return model.lm_loss(model._text_rows(np.concatenate(seqs)),
                             [len(s) for s in seqs], seqs)

    curve = [(step, loss) for step, loss, _ in
             T.fit(model.backbone_parameters(), loss_fn, steps, lr)]
    model.completed_stages.add("pretrain")
    return curve


# ---------------------------------------------------------------------------
# stage loss and runner


def stage_loss(model: OmniModel, batch, stage: str) -> Tensor:
    """Mean LM loss of each record's target after its projected features
    and its unscored prompt, as one packed forward (``lm_loss``); a frozen
    stage needs a frozen backbone, and ``_in_stage`` checks the fields."""
    spec = STAGE_TABLE[stage]
    if not batch:
        raise ContractError(f"stage {stage} loss: empty batch")
    if spec.frozen and any(p.requires_grad
                           for p in model.backbone_parameters().values()):
        raise ContractError(f"backbone must be frozen during stage {stage}")
    feats = [decode_f32(rec[spec.features]) for rec in batch]
    return model.lm_loss(getattr(model, spec.projector)(np.concatenate(feats)),
                         [len(f) for f in feats],
                         [rec[spec.target] for rec in batch],
                         [rec[spec.prompt] for rec in batch] if spec.prompt else None)


STAGE_LOSSES = {s: functools.partial(stage_loss, stage=s) for s in STAGES}


def check_fields(model: OmniModel, stage: str, records, extra=None):
    """``DataError`` naming the first record that does not hold what
    ``stage`` reads (``data.check_records``): target and prompt tokens as
    lists of ids in [0, vocabulary size), features as rows of its
    projector's input width, together no more rows than the backbone's
    positions. ``extra`` maps more feature fields to their projectors."""
    spec, where = STAGE_TABLE[stage], f"stage {stage}"
    check_records(records, where, rows={
        f: getattr(model, proj).proj.w.shape[0] for f, proj in
        {spec.features: spec.projector, **(extra or {})}.items()},
        ids=dict.fromkeys(filter(None, (spec.target, spec.prompt)),
                          (0, model.vocab.size)))
    for rec in records:
        n = (rec[spec.features]["shape"][0] + len(rec[spec.target])
             + (len(rec[spec.prompt]) if spec.prompt else 0))
        if n > BACKBONE_POSITIONS:
            raise DataError(f"{where} record {rec.get('id')!r}: {n} rows "
                            f"exceed the backbone's {BACKBONE_POSITIONS} "
                            f"positions")


def _set_freeze(model: OmniModel, frozen: bool):
    for p in model.backbone_parameters().values():
        p.requires_grad = not frozen


@contextmanager
def _in_stage(model: OmniModel, stage: str, records):
    """``STAGE_LOSSES[stage]`` once every record holds the stage's fields,
    with the backbone frozen in a frozen stage and unfrozen on exit. The
    shared input embedding is frozen in every stage, as ``_trainable``
    leaves it out: no step computes a gradient that nothing applies."""
    check_fields(model, stage, records)
    _set_freeze(model, STAGE_TABLE[stage].frozen)
    model.backbone.emb.table.requires_grad = False
    try:
        yield STAGE_LOSSES[stage]
    finally:
        _set_freeze(model, False)


def _trainable(model: OmniModel, stage: str) -> dict:
    spec = STAGE_TABLE[stage]
    params = {}
    if not spec.frozen:
        # The shared input embedding stays fixed even when the backbone is
        # unfrozen: the modality projectors were aligned to it in earlier
        # stages, and moving it would silently invalidate that interface
        # for any modality not present in the current stage's data.
        params.update({k: p for k, p in model.backbone_parameters().items()
                       if not k.startswith("llm.emb.")})
    params.update(getattr(model, spec.projector).parameters(spec.projector))
    return params


def run_stage(model: OmniModel, schedule: StageSchedule, records,
              enforce_order: bool = True):
    """Execute one alignment stage; returns metrics rows
    (step, stage, loss, lr)."""
    stage = schedule.stage
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    done = model.completed_stages
    missing = [s for s in STAGES[:STAGES.index(stage)] if s not in done]
    if enforce_order and missing:
        raise SequencingError(f"stage {stage} requires completed stages {missing}")
    rng = np.random.default_rng(schedule.seed)
    with _in_stage(model, stage, records) as loss_fn:
        def batch_loss(step):
            idx = rng.choice(len(records),
                             size=min(schedule.batch, len(records)),
                             replace=False)
            return loss_fn(model, [records[i] for i in idx])

        metrics = [(step, stage, loss, lr) for step, loss, lr in T.fit(
            _trainable(model, stage), batch_loss, schedule.steps, schedule.lr,
            schedule.warmup_ratio, schedule.weight_decay)]
    model.completed_stages.add(stage)
    return metrics


def eval_stage_loss(model: OmniModel, stage: str, records) -> float:
    """Mean stage loss over a fixed record set (no training), in batches
    of ``EVAL_BATCH``."""
    with _in_stage(model, stage, records) as loss_fn, T.no_grad():
        return float(np.mean([loss_fn(model, records[i:i + EVAL_BATCH]).item()
                              for i in range(0, len(records), EVAL_BATCH)]))


# ---------------------------------------------------------------------------
# probes


def answer_question(model: OmniModel, image_feats, q_rows: Tensor) -> int:
    """Greedy single-token answer given image prefix and question rows."""
    with T.no_grad():
        rows = T.concat_rows(model.image(image_feats), model._sep_row(), q_rows)
        logits = model.backbone.logits(rows)
    return int(logits.data[-1].argmax())


def qa_accuracy(model: OmniModel, records, spoken: bool) -> float:
    hits = 0
    for rec in records:
        with T.no_grad():
            if spoken:
                q_rows = model.speech(decode_f32(rec["q_speech"]))
            else:
                q_rows = model._text_rows(rec["q_tokens"])
        pred = answer_question(model, decode_f32(rec["image"]), q_rows)
        hits += int(pred == rec["a_tokens"][0])
    return hits / len(records)


@dataclass
class ProbeResult:
    similarity: float
    text_accuracy: float
    speech_accuracy: float


def speech_text_similarity(model: OmniModel, probe_records) -> float:
    """Centered cosine between speech and text representations of each
    vocabulary item in the backbone's shared input space.

    Speech feature rows are aligned one-to-one with transcript tokens, so
    the projector output rows can be grouped by token id and averaged
    (averaging also integrates out the per-row feature noise). Each
    per-token speech vector is compared against the backbone's embedding
    of that token; both sides are centered across tokens first so an
    untrained projector scores near zero instead of picking up the mean
    embedding direction.
    """
    if not probe_records:
        raise ContractError("speech_text_similarity: empty probe set")
    by_token: dict = {}
    with T.no_grad():
        for rec in probe_records:
            rows = model.speech(decode_f32(rec["q_speech"])).data
            for tok, row in zip(rec["q_tokens"], rows):
                by_token.setdefault(int(tok), []).append(row)
        emb = model.backbone.emb.table.data
    tokens = sorted(by_token)
    speech_side = np.stack([np.mean(by_token[t], axis=0) for t in tokens])
    text_side = emb[tokens].copy()
    speech_side -= speech_side.mean(axis=0)
    text_side -= text_side.mean(axis=0)
    denom = (np.linalg.norm(speech_side, axis=1)
             * np.linalg.norm(text_side, axis=1))
    sims = (speech_side * text_side).sum(axis=1) / np.where(denom > 0, denom, 1)
    return float(np.mean(sims))


def quasi_zero_shot_probe(model: OmniModel, probe_records) -> ProbeResult:
    """Speech/text representation similarity plus QA accuracy for spoken
    and written questions."""
    check_fields(model, "III", probe_records, extra={"q_speech": "speech"})
    return ProbeResult(
        similarity=speech_text_similarity(model, probe_records),
        text_accuracy=qa_accuracy(model, probe_records, spoken=False),
        speech_accuracy=qa_accuracy(model, probe_records, spoken=True),
    )
