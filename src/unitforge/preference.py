"""CTC-DPO: direct preference optimization over CTC marginal likelihoods
with a frozen reference decoder.

The policy likelihood of a unit sequence is the CTC marginal of the NAR
decoder's output distribution; the text-guided module is bypassed (no
ground-truth text exists for preference rollouts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ctc import UnitSequence, ctc_loss
from .data import decode_f32
from .decoder import SpeechDecoder
from .errors import ContractError
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


def pairs_from_records(records) -> list:
    return [
        PreferencePair(
            context_features=decode_f32(rec["features"]),
            y_w=UnitSequence(rec["units_w"]),
            y_l=UnitSequence(rec["units_l"]),
            emotion=rec["emotion"],
            lang=rec.get("lang", "a"),
        )
        for rec in records
    ]


def _pair_log_likelihoods(model: SpeechDecoder, pair: PreferencePair):
    """One forward pass per context; both sequences scored off it."""
    log_probs = model.nar_forward(pair.context_features)
    ll_w = T.scale(ctc_loss(log_probs, pair.y_w), -1.0)
    ll_l = T.scale(ctc_loss(log_probs, pair.y_l), -1.0)
    return ll_w, ll_l


def _assert_frozen(reference: SpeechDecoder):
    if any(p.requires_grad for p in reference.parameters().values()):
        raise ContractError("reference decoder must be frozen for DPO")


def _scores(model: SpeechDecoder, pairs) -> list:
    """[(log p(y_w), log p(y_l))] per pair, off one no-grad forward each."""
    with T.no_grad():
        return [tuple(ll.item() for ll in _pair_log_likelihoods(model, pair))
                for pair in pairs]


def _dpo_term(ll_w: Tensor, ll_l: Tensor, ref_w: float, ref_l: float,
              beta: float) -> Tensor:
    """-log sigmoid(beta * ((llw* - llw_ref) - (lll* - lll_ref))); the
    reference log-likelihoods enter as constants."""
    margin = T.scale(
        T.sub(T.sub(ll_w, Tensor(ref_w)), T.sub(ll_l, Tensor(ref_l))),
        beta,
    )
    return T.softplus(T.scale(margin, -1.0))


def ctc_dpo_loss(policy: SpeechDecoder, reference: SpeechDecoder,
                 pair: PreferencePair, beta: float) -> Tensor:
    """-log sigmoid(beta * ((llw* - llw_ref) - (lll* - lll_ref)))."""
    _assert_frozen(reference)
    ll_w, ll_l = _pair_log_likelihoods(policy, pair)
    return _dpo_term(ll_w, ll_l, *_scores(reference, [pair])[0], beta)


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
        return T.mean(_dpo_term(*_pair_log_likelihoods(policy, pairs[i]),
                                *ref[i], config.beta) for i in idx)

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
