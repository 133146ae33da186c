"""The speech decoder: MoE front layer, frame upsampling, transformer
stack, and the two generation modes (AR next-unit prediction, NAR with
CTC). Condition features are frozen-backbone hidden states supplied by
the corpus; the text-guided module fuses them with ground-truth response
text embeddings during training only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import (assign_parameters, expect_keys, load_checkpoint,
                         save_checkpoint)
from .ctc import UnitSequence, ctc_loss, greedy_decode, min_frames
from .data import UnitTextVocab
from .errors import (ConfigurationError, ContractError, DataError,
                     GenerationCapError)
from .tensor import Tensor

AR_BOS = 0  # blank id never appears in unit sequences, reuse as AR start


@dataclass
class SpeechDecoderConfig:
    mode: str = "nar"
    layers: int = 2
    experts: int = 4
    model_dim: int = 64
    heads: int = 2
    vocab_nar: int = 64
    vocab_ar: int = 256
    upsample: int = 4
    max_units: int = 96
    max_context: int = 48
    tgm: bool = True
    text_vocab: int = field(default_factory=lambda: UnitTextVocab().size)
    seed: int = 0

    def validate(self):
        if self.mode not in ("nar", "ar"):
            raise ConfigurationError(f"unknown decoder mode {self.mode!r}")
        nn.check_dims(self.model_dim, self.heads)
        if self.experts < 1:
            raise ConfigurationError("experts must be >= 1")
        if self.vocab_ar <= self.vocab_nar:
            raise ConfigurationError("AR vocab must exceed NAR vocab")
        if self.upsample < 2:
            raise ConfigurationError("upsample factor must be >= 2")


@dataclass
class GenerationResult:
    units: UnitSequence
    sequential_steps: int
    truncated: bool = False


class SpeechDecoder:
    def __init__(self, config: SpeechDecoderConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.model_dim
        self.tgm = nn.TextGuidedModule(rng, d) if config.tgm else None
        self.txt_emb = nn.Embedding(rng, config.text_vocab, d) \
            if config.tgm else None
        self.blocks = [nn.DecoderBlock(rng, d, config.heads)
                       for _ in range(config.layers)]
        self.ln_f = nn.LayerNorm(d)
        if config.mode == "nar":
            self.moe = nn.MoELayer(rng, d, config.experts)
            self.head = nn.Linear(rng, d, config.vocab_nar)
            max_pos = config.max_context * config.upsample
        else:
            self.in_proj = nn.Linear(rng, d, d)
            self.unit_emb = nn.Embedding(rng, config.vocab_ar, d)
            self.head = nn.Linear(rng, d, config.vocab_ar)
            max_pos = config.max_context + config.max_units + 2
        self.pos = nn.PositionalEmbedding(rng, max_pos, d)

    @property
    def eos_id(self) -> int:
        return self.config.vocab_ar - 1

    def parameters(self) -> dict:
        out = {}
        if self.tgm is not None:
            out.update(self.tgm.parameters("tgm"))
            out.update(self.txt_emb.parameters("txt"))
        for i, block in enumerate(self.blocks):
            out.update(block.parameters(f"block{i}"))
        out.update(self.ln_f.parameters("ln_f"))
        out.update(self.pos.parameters("pos"))
        if self.config.mode == "nar":
            out.update(self.moe.parameters("moe"))
        else:
            out.update(self.in_proj.parameters("arproj"))
            out.update(self.unit_emb.parameters("unit_emb"))
        out.update(self.head.parameters("head"))
        return out

    def set_trainable(self, flag: bool):
        for p in self.parameters().values():
            p.requires_grad = flag

    # -- conditioning -------------------------------------------------------

    def _condition(self, cond, text_tokens=None) -> Tensor:
        x = cond if isinstance(cond, Tensor) else Tensor(np.asarray(cond))
        if x.data.ndim != 2 or x.data.shape[1] != self.config.model_dim:
            raise ContractError(
                f"condition features must be [T_c, {self.config.model_dim}], "
                f"got {x.data.shape}"
            )
        if x.data.shape[0] > self.config.max_context:
            raise ContractError(
                f"context length {x.data.shape[0]} exceeds cap "
                f"{self.config.max_context}"
            )
        if self.tgm is not None and text_tokens is not None:
            return self.tgm(x, self.txt_emb(np.asarray(text_tokens, dtype=np.int64)))
        return x

    # -- NAR ----------------------------------------------------------------

    def nar_forward(self, cond, text_tokens=None) -> Tensor:
        """[T_c, d] conditions -> [upsample*T_c, V_n] row-normalized log-probs."""
        if self.config.mode != "nar":
            raise ContractError("nar_forward on an AR-mode decoder")
        x = self._condition(cond, text_tokens)
        x = self.moe(x)
        x = T.repeat_rows(x, self.config.upsample)
        x = self.pos(x)
        for block in self.blocks:
            x = block(x, causal=False)
        return T.log_softmax_last_dim(self.head(self.ln_f(x)))

    def nar_loss(self, cond, units, text_tokens=None) -> Tensor:
        return ctc_loss(self.nar_forward(cond, text_tokens), units)

    def nar_generate(self, cond) -> GenerationResult:
        """Greedy best-path decode; exactly one forward pass."""
        with T.no_grad():
            log_probs = self.nar_forward(cond)  # TGM bypassed: no text
        units, _ = greedy_decode(log_probs)
        return GenerationResult(units=units, sequential_steps=1)

    # -- AR -----------------------------------------------------------------

    def _ar_logits(self, cond, prev_units, text_tokens=None):
        """Full causal forward; returns (logits, first unit-position row)."""
        x = self._condition(cond, text_tokens)
        x = self.in_proj(x)
        ids = np.concatenate(([AR_BOS], np.asarray(prev_units, dtype=np.int64)))
        seq = T.concat_rows(x, self.unit_emb(ids))
        seq = self.pos(seq)
        for block in self.blocks:
            seq = block(seq, causal=True)
        logits = self.head(self.ln_f(seq))
        return logits, x.data.shape[0]

    def ar_forward(self, cond, prev_units, text_tokens=None) -> Tensor:
        """Next-unit log-probs [V_a] given the emitted prefix."""
        if self.config.mode != "ar":
            raise ContractError("ar_forward on a NAR-mode decoder")
        if len(prev_units) >= self.config.max_units:
            raise GenerationCapError(
                f"prefix length {len(prev_units)} >= cap {self.config.max_units}"
            )
        logits, _ = self._ar_logits(cond, prev_units, text_tokens)
        row = T.gather_rows(logits, [logits.data.shape[0] - 1])
        return T.log_softmax_last_dim(row)

    def ntp_loss(self, cond, units, text_tokens=None) -> Tensor:
        """Teacher-forced next-token loss over units plus end-of-speech."""
        if self.config.mode != "ar":
            raise ContractError("ntp_loss on a NAR-mode decoder")
        units = list(units)
        logits, offset = self._ar_logits(cond, units, text_tokens)
        return nn.cross_entropy(logits, np.arange(offset, offset + len(units) + 1),
                                units + [self.eos_id])

    def ar_generate(self, cond, max_len=None) -> GenerationResult:
        if self.config.mode != "ar":
            raise ContractError("ar_generate on a NAR-mode decoder")
        cap = self.config.max_units if max_len is None else min(
            max_len, self.config.max_units)
        units: list[int] = []
        steps = 0
        truncated = False
        with T.no_grad():
            while True:
                logits, _ = self._ar_logits(cond, units)
                nxt = int(logits.data[-1].argmax())
                steps += 1
                if nxt == self.eos_id:
                    break
                units.append(nxt)
                if len(units) >= cap:
                    truncated = True
                    break
        return GenerationResult(
            units=UnitSequence([u for u in units if u != AR_BOS]),
            sequential_steps=steps,
            truncated=truncated,
        )

    def generate(self, cond) -> GenerationResult:
        """Greedy generation in the decoder's own mode."""
        run = self.nar_generate if self.config.mode == "nar" else self.ar_generate
        return run(cond)

    # -- persistence --------------------------------------------------------

    def save(self, path):
        save_checkpoint(path, self.parameters(), asdict(self.config))

    @classmethod
    def load(cls, path) -> "SpeechDecoder":
        params, meta = load_checkpoint(path, "mode")
        decoder = cls(SpeechDecoderConfig(
            **expect_keys(path, meta, SpeechDecoderConfig)))
        assign_parameters(decoder.parameters(), params)
        return decoder


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSchedule:
    lr: float = 5e-4
    steps: int = 400
    batch: int = 8
    warmup_ratio: float = 0.3
    weight_decay: float = 0.0
    seed: int = 0


def sample_loss(decoder: SpeechDecoder, record: dict, cond: np.ndarray) -> Tensor:
    text = record["text_a"] if decoder.config.tgm else None
    if decoder.config.mode == "nar":
        return decoder.nar_loss(cond, record["units"], text)
    return decoder.ntp_loss(cond, record["units"], text)


def feasible(decoder: SpeechDecoder, record: dict, t_c: int) -> bool:
    """Whether a ``t_c``-row context fits the decoder and its units can be
    emitted from it: at most ``max_context`` rows, then enough CTC frames
    (NAR) or fewer units than ``max_units`` (AR)."""
    config = decoder.config
    if t_c > config.max_context:
        return False
    if config.mode != "nar":
        return len(record["units"]) < config.max_units
    return config.upsample * t_c >= min_frames(tuple(record["units"]))


def train_decoder(records, config: SpeechDecoderConfig,
                  schedule: TrainSchedule):
    """Minimize mean CTC (NAR) or next-token (AR) loss; returns
    (decoder, loss curve rows [(step, loss)])."""
    from .data import decode_f32

    decoder = SpeechDecoder(config)
    rng = np.random.default_rng(schedule.seed)

    conds = [decode_f32(rec["features"]) for rec in records]
    for cond in conds:
        if cond.ndim != 2 or cond.shape[1] != config.model_dim:
            raise DataError(f"condition features must be [T_c, "
                            f"{config.model_dim}], got {cond.shape}")
    if config.tgm:
        bad = [t for rec in records for t in rec["text_a"]
               if not 0 <= t < config.text_vocab]
        if bad:
            raise DataError(f"text token {bad[0]} outside the decoder's text "
                            f"vocabulary [0, {config.text_vocab})")
    usable = [i for i, rec in enumerate(records)
              if feasible(decoder, rec, conds[i].shape[0])]
    skipped = len(records) - len(usable)
    if skipped > 0.01 * len(records):
        raise DataError(
            f"{skipped}/{len(records)} samples infeasible for this decoder config"
        )
    if not usable:
        raise DataError("no feasible training samples")

    def loss_fn(step):
        idx = rng.choice(usable, size=min(schedule.batch, len(usable)),
                         replace=False)
        return T.mean(sample_loss(decoder, records[i], conds[i]) for i in idx)

    curve = [(step, loss) for step, loss, _ in T.fit(
        decoder.parameters(), loss_fn, schedule.steps, schedule.lr,
        schedule.warmup_ratio, schedule.weight_decay)]
    return decoder, curve


def evaluate_uer(decoder: SpeechDecoder, records) -> dict:
    """Mean unit error rate of greedy generation, overall and per language."""
    from .data import decode_f32, unit_error_rate

    totals: dict[str, list] = {}
    for rec in records:
        cond = decode_f32(rec["features"])
        if not feasible(decoder, rec, cond.shape[0]):
            continue
        uer = unit_error_rate(rec["units"], decoder.generate(cond).units.units)
        totals.setdefault("overall", []).append(uer)
        totals.setdefault(rec.get("lang", "?"), []).append(uer)
    return {k: float(np.mean(v)) for k, v in totals.items()}
