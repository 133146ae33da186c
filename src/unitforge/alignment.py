"""Progressive alignment pipeline on synthetic modalities.

A tiny decoder-only backbone is first pretrained on a copy task (the
stand-in for starting from a pretrained LLM), then aligned in stages:
speech-text (projector only, backbone frozen), image-text pretraining
(projector only), and image-text instruction tuning (full model except
the shared input embedding, which the projectors are aligned to). The
quasi-zero-shot probe then answers spoken questions that were never seen
as speech during instruction tuning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import (assign_parameters, expect_keys, load_checkpoint,
                         save_checkpoint)
from .data import AlignmentSpec, AlignmentVocab, decode_f32
from .errors import ContractError, DataError, SequencingError
from .tensor import Tensor

STAGES = ("I", "II", "III")
ARCH_TYPES = {"d": int, "layers": int, "heads": int}  # OmniModel's shape keys


@dataclass
class StageSchedule:
    stage: str
    freeze_llm: bool
    lr: float
    batch: int
    steps: int
    warmup_ratio: float = 0.3
    weight_decay: float = 0.0
    seed: int = 0


# Scaled-down per-stage settings; lr and freeze flags follow the
# published five-stage recipe (stages IV/V live in decoder/preference).
STAGE_DEFAULTS = {
    "I": dict(freeze_llm=True, lr=1e-3, batch=8, steps=400),
    "II": dict(freeze_llm=True, lr=1e-3, batch=8, steps=300),
    "III": dict(freeze_llm=False, lr=5e-5, batch=8, steps=1500),
}


def default_schedule(stage: str, **overrides) -> StageSchedule:
    if stage not in STAGE_DEFAULTS:
        raise ContractError(f"unknown alignment stage {stage!r}")
    kw = dict(STAGE_DEFAULTS[stage])
    kw.update(overrides)
    return StageSchedule(stage=stage, **kw)


class Backbone:
    """Tiny causal LM over the shared text vocabulary."""

    def __init__(self, rng, vocab_size, d=32, layers=2, heads=2, max_len=48):
        self.vocab_size = vocab_size
        self.d = d
        self.emb = nn.Embedding(rng, vocab_size, d)
        self.pos = nn.PositionalEmbedding(rng, max_len, d)
        self.blocks = [nn.DecoderBlock(rng, d, heads) for _ in range(layers)]
        self.ln_f = nn.LayerNorm(d)
        self.lm_head = nn.Linear(rng, d, vocab_size)

    def hidden(self, rows: Tensor) -> Tensor:
        x = self.pos(rows)
        for block in self.blocks:
            x = block(x, causal=True)
        return self.ln_f(x)

    def logits(self, rows: Tensor) -> Tensor:
        return self.lm_head(self.hidden(rows))

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

    def __init__(self, rng, modality, feat_dim, d):
        self.modality = modality
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
        self.spec = spec
        self.arch = {"d": d, "layers": layers, "heads": heads}
        self.vocab = AlignmentVocab(spec)
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(rng, self.vocab.size, d=d, layers=layers,
                                 heads=heads)
        self.speech = ToyEncoder(rng, "speech", spec.speech_dim, d)
        self.image = ToyEncoder(rng, "image", spec.image_dim, d)
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

    def lm_loss(self, prefix_rows: Tensor, tokens, prompt=()) -> Tensor:
        """Cross-entropy of ``tokens`` after an embedded prefix, separator
        and ``prompt`` tokens; the prompt itself is not scored."""
        prompt, tokens = list(prompt), list(tokens)
        text = prompt + tokens
        parts = [prefix_rows, self._sep_row()]
        if len(text) > 1:
            parts.append(self._text_rows(text[:-1]))
        rows = T.concat_rows(*parts)
        logits = self.backbone.logits(rows)
        # the separator row emits the first text token
        start = prefix_rows.shape[0] + len(prompt)
        return nn.cross_entropy(logits, np.arange(start, start + len(tokens)), tokens)


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
        def term():
            n = int(rng.integers(lo, hi + 1))
            tokens = rng.integers(0, model.vocab.sep, n)
            return model.lm_loss(model._text_rows(tokens), tokens)

        return T.mean(term() for _ in range(batch))

    curve = [(step, loss) for step, loss, _ in
             T.fit(model.backbone_parameters(), loss_fn, steps, lr)]
    model.completed_stages.add("pretrain")
    return curve


# ---------------------------------------------------------------------------
# stage losses


def speech_text_loss(model: OmniModel, batch) -> Tensor:
    """LM loss of transcripts conditioned on projected speech prefixes."""
    if not batch:
        raise ContractError("speech_text_loss: empty batch")
    return T.mean(model.lm_loss(model.speech(decode_f32(rec["features"])),
                                rec["tokens"])
                  for rec in batch)


def image_text_pretrain_loss(model: OmniModel, batch) -> Tensor:
    """Caption LM loss; the backbone must be frozen in this stage."""
    if not batch:
        raise ContractError("image_text_pretrain_loss: empty batch")
    if any(p.requires_grad for p in model.backbone_parameters().values()):
        raise ContractError("backbone must be frozen during image-text pretraining")
    return T.mean(model.lm_loss(model.image(decode_f32(rec["features"])),
                                rec["caption"])
                  for rec in batch)


def image_text_instruct_loss(model: OmniModel, batch) -> Tensor:
    """Answer-token cross-entropy; question tokens are masked from loss."""
    if not batch:
        raise ContractError("image_text_instruct_loss: empty batch")

    def term(rec):
        if not rec.get("a_tokens"):
            raise DataError("instruct record missing answer span")
        return model.lm_loss(model.image(decode_f32(rec["image"])),
                             rec["a_tokens"], prompt=rec["q_tokens"])

    return T.mean(term(rec) for rec in batch)


STAGE_LOSSES = {
    "I": speech_text_loss,
    "II": image_text_pretrain_loss,
    "III": image_text_instruct_loss,
}


# ---------------------------------------------------------------------------
# stage runner


def _set_freeze(model: OmniModel, freeze_llm: bool):
    for p in model.backbone_parameters().values():
        p.requires_grad = not freeze_llm


def _trainable(model: OmniModel, stage: str, freeze_llm: bool) -> dict:
    params = {}
    if not freeze_llm:
        # The shared input embedding stays fixed even when the backbone is
        # unfrozen: the modality projectors were aligned to it in earlier
        # stages, and moving it would silently invalidate that interface
        # for any modality not present in the current stage's data.
        params.update({k: p for k, p in model.backbone_parameters().items()
                       if not k.startswith("llm.emb.")})
    if stage == "I":
        params.update(model.speech.parameters("speech"))
    else:
        params.update(model.image.parameters("image"))
    return params


def run_stage(model: OmniModel, schedule: StageSchedule, records,
              enforce_order: bool = True):
    """Execute one alignment stage; returns metrics rows
    (step, stage, loss, lr)."""
    stage = schedule.stage
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    if enforce_order:
        required = STAGES[: STAGES.index(stage)]
        missing = [s for s in required if s not in model.completed_stages]
        if missing:
            raise SequencingError(
                f"stage {stage} requires completed stages {missing}"
            )
    _set_freeze(model, schedule.freeze_llm)
    loss_fn = STAGE_LOSSES[stage]
    rng = np.random.default_rng(schedule.seed)

    def stage_loss(step):
        idx = rng.choice(len(records), size=min(schedule.batch, len(records)),
                         replace=False)
        return loss_fn(model, [records[i] for i in idx])

    metrics = [(step, stage, loss, lr) for step, loss, lr in T.fit(
        _trainable(model, stage, schedule.freeze_llm), stage_loss,
        schedule.steps, schedule.lr, schedule.warmup_ratio,
        schedule.weight_decay)]
    _set_freeze(model, False)
    model.completed_stages.add(stage)
    return metrics


def eval_stage_loss(model: OmniModel, stage: str, records, batch=16) -> float:
    """Mean stage loss over a fixed record set (no training)."""
    loss_fn = STAGE_LOSSES[stage]
    frozen = stage == "II"
    if frozen:
        _set_freeze(model, True)
    try:
        vals = []
        with T.no_grad():
            for i in range(0, len(records), batch):
                vals.append(loss_fn(model, records[i:i + batch]).item())
        return float(np.mean(vals))
    finally:
        if frozen:
            _set_freeze(model, False)


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
    if not probe_records:
        raise ContractError("quasi_zero_shot_probe: empty probe set")
    return ProbeResult(
        similarity=speech_text_similarity(model, probe_records),
        text_accuracy=qa_accuracy(model, probe_records, spoken=False),
        speech_accuracy=qa_accuracy(model, probe_records, spoken=True),
    )
