"""CTC-DPO: direct preference optimization over CTC marginal likelihoods
with a frozen reference decoder.

The policy likelihood of a unit sequence is the CTC marginal of the NAR
decoder's output distribution; the text-guided module is bypassed (no
ground-truth text exists for preference rollouts). A training step is one
packed ``nar_forward`` over its pairs' contexts and one CTC node; a
scoring pass without gradients (the reference scores, each logging pass)
is one such forward per ``SCORE_PAIRS`` pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ctc import UnitSequence, ctc_losses, min_frames
from .data import decode_f32
from .decoder import SpeechDecoder, read_context
from .errors import ContractError, DataError, KindMismatchError
from .tensor import Tensor


@dataclass
class PreferencePair:
    context_features: np.ndarray
    y_w: UnitSequence
    y_l: UnitSequence
    emotion: str
    lang: str = "a"

    def __post_init__(self):
        if not isinstance(self.y_w, UnitSequence):
            self.y_w = UnitSequence(self.y_w)
        if not isinstance(self.y_l, UnitSequence):
            self.y_l = UnitSequence(self.y_l)
        if self.y_w.units == self.y_l.units:
            raise ContractError("preference pair needs distinct winner/loser")


@dataclass
class DpoConfig:
    beta: float = 0.1

    def __post_init__(self):
        if self.beta <= 0:
            raise ContractError("DPO beta must be > 0")


def pairs_from_records(records, config=None) -> list:
    """One pair per record. With a decoder ``config``, the decoder must be
    NAR (else ``KindMismatchError``), each context must fit it and its
    ``max_context``, and each unit list hold ids it emits
    (``read_context``) and fit the context's CTC frames. A record without
    ``units_w``, ``units_l`` or ``emotion``, or whose winner is its loser,
    is a ``DataError`` that names it."""
    if config is not None and config.mode != "nar":
        raise KindMismatchError("preference pairs are scored by a NAR decoder")
    for rec in records:
        lacking = [f for f in ("units_w", "units_l", "emotion") if f not in rec]
        if lacking:
            raise DataError(f"preference record {rec.get('id')!r} lacks {lacking}")
        if rec["units_w"] == rec["units_l"]:
            raise DataError(f"preference record {rec.get('id')!r}: its winner "
                            f"units are its loser units")
    pairs = [
        PreferencePair(
            context_features=decode_f32(rec["features"]) if config is None
            else read_context(rec, config, capped=True,
                              fields=("units_w", "units_l")),
            y_w=UnitSequence(rec["units_w"]),
            y_l=UnitSequence(rec["units_l"]),
            emotion=rec["emotion"],
            lang=rec.get("lang", "a"),
        )
        for rec in records
    ]
    if config is not None:
        for rec, pair in zip(records, pairs):
            need = max(min_frames(pair.y_w.units), min_frames(pair.y_l.units))
            if config.upsample * len(pair.context_features) < need:
                raise DataError(f"preference record {rec.get('id')!r}: its "
                                f"units need more CTC frames than its context "
                                f"gives")
    return pairs


def _log_likelihoods(model: SpeechDecoder, pairs) -> Tensor:
    """[2N] log-likelihoods, the winner's then the loser's of each pair,
    off one packed forward over the contexts and one CTC node, in which a
    pair's winner and loser share their context's rows."""
    log_probs, frames = model.nar_forward([pair.context_features for pair in pairs])
    ends = np.cumsum(frames)
    spans = [span for span in zip(ends - frames, ends) for _ in (0, 1)]
    targets = [y for pair in pairs for y in (pair.y_w, pair.y_l)]
    return T.scale(ctc_losses(log_probs, targets, spans), -1.0)


def _assert_frozen(reference: SpeechDecoder):
    if any(p.requires_grad for p in reference.parameters().values()):
        raise ContractError("reference decoder must be frozen for DPO")


# A packed forward over many contexts builds arrays that outgrow the CPU
# caches: one no-gradient pass over 64 pairs (d=64, 2 layers, BLAS on one
# thread; best of 15) took 46.4 ms in one forward, 44.1 ms in forwards of
# 16 pairs and 46.8 ms in forwards of 8, against 77.3 ms one context at a
# time.
SCORE_PAIRS = 16


def _scores(model: SpeechDecoder, pairs) -> list:
    """[(log p(y_w), log p(y_l))] per pair, scored without gradients in
    packed forwards of at most ``SCORE_PAIRS`` pairs."""
    pairs = list(pairs)
    with T.no_grad():
        ll = np.concatenate([_log_likelihoods(model, pairs[i:i + SCORE_PAIRS]).data
                             for i in range(0, len(pairs), SCORE_PAIRS)])
    return list(zip(ll[0::2].tolist(), ll[1::2].tolist()))


def _dpo_loss(policy: SpeechDecoder, pairs, ref_scores, beta: float) -> Tensor:
    """Mean over ``pairs`` of -log sigmoid(beta * ((llw* - llw_ref) -
    (lll* - lll_ref))); the reference log-likelihoods enter as constants."""
    ll = _log_likelihoods(policy, pairs)
    ll_w, ll_l = (T.gather_rows(ll, np.arange(k, 2 * len(pairs), 2))
                  for k in (0, 1))
    ref_w, ref_l = (Tensor([r[k] for r in ref_scores]) for k in (0, 1))
    margin = T.scale(T.sub(T.sub(ll_w, ref_w), T.sub(ll_l, ref_l)), beta)
    return T.mean(T.softplus(T.scale(margin, -1.0)))


def ctc_dpo_loss(policy: SpeechDecoder, reference: SpeechDecoder,
                 pair: PreferencePair, beta: float) -> Tensor:
    """-log sigmoid(beta * ((llw* - llw_ref) - (lll* - lll_ref)))."""
    _assert_frozen(reference)
    return _dpo_loss(policy, [pair], _scores(reference, [pair]), beta)


def _margins(scores, ref_scores) -> list:
    return [(w - ref_w) - (l - ref_l)
            for (w, l), (ref_w, ref_l) in zip(scores, ref_scores)]


def _accuracy(scores) -> float:
    return sum(w > l for w, l in scores) / len(scores)


def pair_margin(policy: SpeechDecoder, reference: SpeechDecoder,
                pair: PreferencePair) -> float:
    return _margins(_scores(policy, [pair]), _scores(reference, [pair]))[0]


def preference_hits(policy: SpeechDecoder, pairs) -> list:
    """Per pair, whether the policy prefers the winner."""
    return [w > l for w, l in _scores(policy, pairs)]


def preference_accuracy(policy: SpeechDecoder, pairs) -> float:
    """Fraction of pairs where the policy prefers the winner."""
    pairs = list(pairs)
    if not pairs:
        raise ContractError("preference_accuracy: empty pair set")
    return _accuracy(_scores(policy, pairs))


@dataclass
class DpoSchedule:
    lr: float = 5e-4
    steps: int = 200
    batch: int = 8
    warmup_ratio: float = 0.3
    seed: int = 0
    log_every: int = 20


def train_dpo(policy: SpeechDecoder, reference: SpeechDecoder, pairs,
              config: DpoConfig, schedule: DpoSchedule):
    """Returns metrics rows [(step, loss, mean_margin, pref_accuracy)].

    The reference stays frozen; only policy parameters move. Its
    log-likelihoods are therefore scored once per pair, up front, and
    reused by every step's loss and every logging pass.
    """
    _assert_frozen(reference)
    pairs = list(pairs)
    if not pairs:
        raise ContractError("train_dpo: empty pair set")
    ref = _scores(reference, pairs)
    # the text-conditioning pathway is bypassed here, so the fusion module
    # and text embedding never receive gradients
    params = {k: v for k, v in policy.parameters().items()
              if not k.startswith(("tgm.", "txt."))}
    rng = np.random.default_rng(schedule.seed)

    def loss_fn(step):
        idx = rng.choice(len(pairs), size=min(schedule.batch, len(pairs)),
                         replace=False)
        return _dpo_loss(policy, [pairs[i] for i in idx], [ref[i] for i in idx],
                         config.beta)

    metrics = []
    for step, loss, _ in T.fit(params, loss_fn, schedule.steps, schedule.lr,
                               schedule.warmup_ratio):
        if step % schedule.log_every == 0 or step == schedule.steps - 1:
            scores = _scores(policy, pairs)
            metrics.append((step, loss, float(np.mean(_margins(scores, ref))),
                            _accuracy(scores)))
        else:
            metrics.append((step, loss, math.nan, math.nan))
    return metrics
