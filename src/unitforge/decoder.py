"""The speech decoder: MoE front layer, frame upsampling, transformer
stack, and the two generation modes (AR next-unit prediction, NAR with
CTC). Condition features are frozen-backbone hidden states supplied by
the corpus; the text-guided module fuses them with ground-truth response
text embeddings during training only. A training batch runs as one
packed forward (``SpeechDecoder.loss``): every layer, text fusion
included, runs once over all rows, attention keeping each record's rows
(and in fusion its text) to themselves; a one-record loss is a batch of
one. The AR decoder is a causal LM over each ``[context; BOS; units]``,
laid out by ``nn.lm_layout`` as the alignment backbone's LM is;
``_ar_hidden`` runs it for the loss, ``ar_forward`` and the generation
prefill, after which each step runs one row, each block's attention
keeping the keys and values of earlier rows in its ``tensor.KVCache``
(``_ar_steps``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import (assign_parameters, expect_keys, load_checkpoint,
                         save_checkpoint)
from .ctc import UnitSequence, ctc_losses, greedy_decode, min_frames
from .data import (UnitTextVocab, at_least, check_records, decode_f32,
                   unit_error_rate)
from .errors import (ConfigurationError, ContractError, DataError,
                     GenerationCapError)
from .tensor import Tensor

AR_BOS = 0  # blank id never appears in unit sequences, reuse as AR start
UNIT_FIELDS = ("units", "units_w", "units_l")  # record fields of emitted ids


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
        at_least(self, 0, "seed")
        at_least(self, 1, "layers", "experts", "max_units", "max_context",
                 "text_vocab")
        at_least(self, 2, "vocab_nar", "upsample")  # blank and one unit
        if self.vocab_ar <= self.vocab_nar:
            raise ConfigurationError("AR vocab must exceed NAR vocab")


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

    def _contexts(self, conds, texts=None):
        """The contexts ``[T_c, d]`` one after another, and their row counts.
        With ``texts`` (one non-empty token list per context) and a
        text-guided module, each is fused with its text: one embedding
        gather and one packed fusion for the whole batch."""
        if not len(conds) or (texts is not None and len(texts) != len(conds)):
            raise ContractError(f"decoder: {len(conds)} contexts with "
                                f"{len(texts)} texts (need one each, at least one)")
        d, cap, xs = self.config.model_dim, self.config.max_context, []
        for cond in conds:
            x = cond if isinstance(cond, Tensor) else Tensor(np.asarray(cond))
            if x.data.ndim != 2 or x.data.shape[1] != d or x.data.shape[0] > cap:
                raise ContractError(f"condition features must be [T_c <= {cap}, "
                                    f"{d}], got {x.data.shape}")
            xs.append(x)
        rows = np.array([x.data.shape[0] for x in xs])
        x = T.concat_rows(*xs) if len(xs) > 1 else xs[0]
        if self.tgm is not None and texts is not None:
            ids = [np.asarray(text, dtype=np.int64) for text in texts]
            x = self.tgm(x, self.txt_emb(np.concatenate(ids)), rows,
                         [len(i) for i in ids])
        return x, rows

    def loss(self, conds, units, texts=None) -> Tensor:
        """Mean over a batch of each context's CTC loss (NAR) or
        teacher-forced next-unit loss (AR) of its ``units``; with ``texts``,
        each context is fused with its response text. One packed forward."""
        if len(units) != len(conds):
            raise ContractError(f"decoder loss: {len(conds)} contexts with "
                                f"{len(units)} unit sequences (need one each)")
        if self.config.mode == "nar":
            log_probs, frames = self.nar_forward(conds, texts)
            ends = np.cumsum(frames)
            return T.mean(ctc_losses(log_probs, units, zip(ends - frames, ends)))
        # ln_f and the head run on the scored rows only
        hidden, lay = self._ar_hidden(conds, units, texts)
        logits = self.head(self.ln_f(T.gather_rows(hidden, lay.scored)))
        return nn.cross_entropy(logits, np.arange(len(lay.scored)), lay.targets,
                                lay.weights)

    # -- NAR ----------------------------------------------------------------

    def nar_forward(self, conds, texts=None):
        """Contexts ``[T_c, d]`` (with ``texts``, each fused with its token
        list) -> their row-normalized log-probs ``[upsample*T_c, V_n]``, one
        after another in one packed tensor, and each one's frame count.
        Every layer, text fusion included, runs once over the whole batch,
        attention keeping each context's frames to themselves."""
        if self.config.mode != "nar":
            raise ContractError("nar_forward on an AR-mode decoder")
        x, rows = self._contexts(conds, texts)
        frames = self.config.upsample * rows
        packed = frames if len(frames) > 1 else None  # else one sequence
        x = T.repeat_rows(self.moe(x), self.config.upsample)
        x = self.pos(x, packed)
        for block in self.blocks:
            x = block(x, False, packed)
        return T.log_softmax_last_dim(self.head(self.ln_f(x))), frames

    def nar_generate(self, cond) -> GenerationResult:
        """Greedy best-path decode; exactly one forward pass."""
        with T.no_grad():
            log_probs, _ = self.nar_forward([cond])  # TGM bypassed: no text
        units, _ = greedy_decode(log_probs)
        return GenerationResult(units=units, sequential_steps=1)

    # -- AR -----------------------------------------------------------------

    def _ar_hidden(self, conds, units, texts=None, caches=None):
        """Each ``[in_proj(context); BOS; units]`` through the blocks as one
        causal packed forward: the hidden rows before ``ln_f``, and the
        ``nn.lm_layout``, whose scored rows predict the units, then
        end-of-speech. With ``caches`` (one context, untracked) the blocks
        run without lengths and keep its keys and values for later rows."""
        x, n_ctx = self._contexts(conds, texts)
        lay = nn.lm_layout(n_ctx, AR_BOS, [[*u, self.eos_id] for u in units])
        seq = T.concat_rows(self.in_proj(x), self.unit_emb(lay.ids))
        lengths = None if caches else lay.lengths
        if lengths is not None:  # one cached sequence is in pack order
            seq = T.gather_rows(seq, lay.order)
        seq = self.pos(seq, lengths)
        for block, cache in zip(self.blocks, caches or [None] * len(self.blocks)):
            seq = block(seq, True, lengths, cache)
        return seq, lay

    def ar_forward(self, cond, prev_units, text_tokens=None) -> Tensor:
        """Next-unit log-probs ``[1, V_a]`` given the emitted prefix: a batch
        of one through the uncached full forward, the reference for
        ``_ar_steps``."""
        if self.config.mode != "ar":
            raise ContractError("ar_forward on a NAR-mode decoder")
        if len(prev_units) >= self.config.max_units:
            raise GenerationCapError(
                f"prefix length {len(prev_units)} >= cap {self.config.max_units}"
            )
        hidden, _ = self._ar_hidden([cond], [prev_units],
                                    None if text_tokens is None else [text_tokens])
        last = T.gather_rows(hidden, [hidden.shape[0] - 1])
        return T.log_softmax_last_dim(self.head(self.ln_f(last)))

    def _ar_steps(self, cond):
        """Next-unit logits ``[V_a]`` after ``[context; BOS]``, then after
        each unit sent in: one causal forward over the prompt writes each
        block's key/value cache, then each unit runs only its own row
        through the blocks. Untracked inputs only (``tensor.attention``)."""
        caches = [block.attn.new_cache(self.pos.table.shape[0])
                  for block in self.blocks]
        x, _ = self._ar_hidden([cond], [[]], caches=caches)
        x = T.gather_rows(x, [x.shape[0] - 1])  # later steps are one row
        while True:
            nxt = yield self.head(self.ln_f(x)).data[0]
            x = T.add(self.unit_emb([nxt]),
                      T.gather_rows(self.pos.table, [caches[0].rows]))
            for block, cache in zip(self.blocks, caches):
                x = block(x, True, cache=cache)

    def ar_generate(self, cond, max_len=None) -> GenerationResult:
        """Greedy decode of at most ``max_len`` (>= 1) units."""
        if self.config.mode != "ar":
            raise ContractError("ar_generate on a NAR-mode decoder")
        if max_len is not None and max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        cap = self.config.max_units if max_len is None else min(
            max_len, self.config.max_units)
        units: list[int] = []
        with T.no_grad():
            decoding, nxt = self._ar_steps(cond), None
            while len(units) < cap:
                nxt = int(decoding.send(nxt).argmax())
                if nxt == self.eos_id:
                    break
                units.append(nxt)  # an emitted AR_BOS is fed back, not output
        truncated = len(units) == cap
        return GenerationResult(
            units=UnitSequence([u for u in units if u != AR_BOS]),
            sequential_steps=len(units) + (not truncated),
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


def batch_loss(decoder: SpeechDecoder, records, conds) -> Tensor:
    """The decoder's mean training loss (``SpeechDecoder.loss``) over
    ``records`` and their contexts, each fused with its ``text_a`` if the
    decoder has a text-guided module."""
    texts = [rec["text_a"] for rec in records] if decoder.config.tgm else None
    return decoder.loss(conds, [rec["units"] for rec in records], texts)


def read_contexts(records, config: SpeechDecoderConfig, capped=False,
                  fields=()) -> list:
    """Each record's ``features`` as a ``[T_c, model_dim]`` context, or a
    ``DataError`` naming the first record that does not fit
    (``data.check_records``). ``fields``, the others the command reads,
    must be present, ``UNIT_FIELDS`` as lists of ids in [1, ``vocab_nar``)
    (NAR) or [1, ``eos_id``) (AR), ``text_a`` as one in [0, ``text_vocab``).
    If ``capped``, each context must fit ``max_context`` and emit its unit
    fields (``can_emit``); else ``feasible`` decides."""
    top = config.vocab_nar if config.mode == "nar" else config.vocab_ar - 1
    spans = {"text_a": (0, config.text_vocab),
             **dict.fromkeys(UNIT_FIELDS, (1, top))}
    check_records(records, "decoder", rows={"features": config.model_dim},
                  ids={f: spans[f] for f in fields if f in spans},
                  present=[f for f in fields if f not in spans])
    units, contexts = [f for f in fields if f in UNIT_FIELDS], []
    for rec in records:
        t_c = rec["features"]["shape"][0]
        if capped and (t_c > config.max_context or not all(
                can_emit(config, rec[f], t_c) for f in units)):
            raise DataError(f"decoder record {rec.get('id')!r}: a {t_c}-row "
                            f"context does not fit max_context "
                            f"{config.max_context} or cannot emit its units")
        try:
            contexts.append(decode_f32(rec["features"]))
        except DataError as exc:
            raise DataError(f"decoder record {rec.get('id')!r}: unreadable "
                            f"features ({exc})") from exc
    return contexts


def can_emit(config: SpeechDecoderConfig, units, t_c: int) -> bool:
    """Whether ``units`` can be emitted from a ``t_c``-row context: at most
    ``max_context`` rows, then enough CTC frames (NAR) or fewer units than
    ``max_units`` (AR)."""
    if t_c > config.max_context:
        return False
    if config.mode != "nar":
        return len(units) < config.max_units
    return config.upsample * t_c >= min_frames(tuple(units))


def feasible(decoder: SpeechDecoder, record: dict, t_c: int) -> bool:
    """``can_emit`` of the decoder's config and ``record["units"]``."""
    return can_emit(decoder.config, record["units"], t_c)


def train_decoder(records, config: SpeechDecoderConfig,
                  schedule: TrainSchedule):
    """Minimize mean CTC (NAR) or next-token (AR) loss; returns
    (decoder, loss curve rows [(step, loss)])."""
    decoder = SpeechDecoder(config)
    rng = np.random.default_rng(schedule.seed)

    fields = ("units", "text_a") if config.tgm else ("units",)
    conds = read_contexts(records, config, fields=fields)
    usable = [i for i, rec in enumerate(records)
              if feasible(decoder, rec, conds[i].shape[0])]
    skipped = len(records) - len(usable)
    if not usable or skipped > 0.01 * len(records):
        raise DataError(f"{skipped}/{len(records)} samples infeasible for "
                        f"this decoder config")

    def loss_fn(step):
        idx = rng.choice(usable, size=min(schedule.batch, len(usable)),
                         replace=False)
        return batch_loss(decoder, [records[i] for i in idx],
                          [conds[i] for i in idx])

    curve = [(step, loss) for step, loss, _ in T.fit(
        decoder.parameters(), loss_fn, schedule.steps, schedule.lr,
        schedule.warmup_ratio, schedule.weight_decay)]
    return decoder, curve


def feasible_contexts(records, *decoders, fields=("units",)) -> list:
    """``(record, context)`` for each record, in order, that every decoder
    can generate from (``read_contexts`` with the ``fields`` the caller
    reads, then ``feasible``); ``DataError`` if there is none, so that no
    report is computed over an empty set."""
    conds = [read_contexts(records, d.config, fields=fields) for d in decoders]
    out = [(rec, cs[0]) for rec, *cs in zip(records, *conds)
           if all(feasible(d, rec, c.shape[0]) for d, c in zip(decoders, cs))]
    if not out:
        raise DataError(f"none of the {len(records)} records fits: each "
                        f"context is longer than max_context or cannot emit "
                        f"its units")
    return out


def evaluate_uer(decoder: SpeechDecoder, records) -> dict:
    """Mean unit error rate of greedy generation, overall and per language."""
    totals: dict[str, list] = {}
    for rec, cond in feasible_contexts(records, decoder):
        uer = unit_error_rate(rec["units"], decoder.generate(cond).units.units)
        totals.setdefault("overall", []).append(uer)
        totals.setdefault(str(rec.get("lang", "?")), []).append(uer)
    return {k: float(np.mean(v)) for k, v in totals.items()}
