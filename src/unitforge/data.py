"""Synthetic corpora: speech-unit supervision, emotion preference pairs,
alignment (speech/image/text) sets, plus the deterministic emotion oracle
and unit error rate.

Emotion is carried by prosody units so it stays machine-checkable without
audio: a per-emotion prosody id is inserted after every 4 content units
(neutral inserts nothing; "other" alternates between its two dedicated
prosody ids, its catch-all stand-in). The token->unit code is invertible
once prosody units are removed.

Every corpus comes out of one seeded record loop, ``_records``; the three
unit corpora share one dialogue record, ``_unit_records``, and differ
only in how they pick the language and cue emotion and which emotion
each units field is synthesised with. Each generator validates its spec
(``CorpusSpec.validate``, ``AlignmentSpec.validate``) and raises
``ConfigurationError`` before it draws anything. All generators are pure
functions of (spec, seed): identical specs yield byte-identical JSONL.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ctc import UnitSequence
from .errors import ConfigurationError, ContractError, DataError

EMOTIONS = (
    "angry_disgusted",
    "fearful",
    "happy",
    "neutral",
    "other",
    "sad",
    "surprised",
    "trust",
    "anticipation",
)
NEUTRAL = "neutral"
OTHER = "other"
NON_NEUTRAL = tuple(e for e in EMOTIONS if e != NEUTRAL)

# prosody unit ids: one per specific emotion, two for the catch-all "other"
_SPECIFIC = tuple(e for e in EMOTIONS if e not in (NEUTRAL, OTHER))
PROSODY_OF = {e: i + 1 for i, e in enumerate(_SPECIFIC)}          # 1..7
OTHER_PROSODY = (8, 9)
LABEL_OF_PROSODY = {v: k for k, v in PROSODY_OF.items()}
LABEL_OF_PROSODY.update({u: OTHER for u in OTHER_PROSODY})
CONTENT_BASE = 10
LANGS = ("a", "b")


# ---------------------------------------------------------------------------
# text vocabulary for the unit corpora


@dataclass(frozen=True)
class UnitTextVocab:
    """Token id layout shared by the decoder corpora.

    content tokens per language first, then per-language question tokens,
    then a separator.
    """

    n_content: int = 8
    n_question: int = 12

    @property
    def size(self):
        return 2 * self.n_content + 2 * self.n_question + 1

    @property
    def sep(self):
        return self.size - 1

    def content_range(self, lang):
        lo = 0 if lang == "a" else self.n_content
        return lo, lo + self.n_content

    def question_range(self, lang):
        lo = 2 * self.n_content + (0 if lang == "a" else self.n_question)
        return lo, lo + self.n_question

    def unit_base(self, lang):
        return CONTENT_BASE + (0 if lang == "a" else 3 * self.n_content)

    @property
    def max_unit(self):
        return CONTENT_BASE + 6 * self.n_content - 1


def token_units(vocab: UnitTextVocab, token: int) -> list:
    """Content token -> its 2 or 3 dedicated unit codes."""
    token = int(token)
    for lang in LANGS:
        lo, hi = vocab.content_range(lang)
        if lo <= token < hi:
            j = token - lo
            base = vocab.unit_base(lang)
            count = 2 + (j % 2)
            return [base + 3 * j + k for k in range(count)]
    raise DataError(f"token {token} is not a content token")


def synthesize_speech_units(text_tokens, emotion: str, lang: str,
                            vocab: UnitTextVocab | None = None) -> UnitSequence:
    """Deterministic toy synthesizer; invertible up to prosody removal."""
    vocab = vocab or UnitTextVocab()
    if emotion not in EMOTIONS:
        raise DataError(f"unknown emotion {emotion!r}")
    if lang not in LANGS:
        raise DataError(f"unknown language {lang!r}")
    lo, hi = vocab.content_range(lang)
    content = []
    for tok in text_tokens:
        if not (lo <= int(tok) < hi):
            raise DataError(f"token {tok} outside language {lang!r} content range")
        content.extend(token_units(vocab, tok))

    if emotion == NEUTRAL:
        return UnitSequence(content)
    out = []
    n_inserted = 0
    for i, u in enumerate(content):
        out.append(u)
        if (i + 1) % 4 == 0:
            if emotion == OTHER:
                out.append(OTHER_PROSODY[n_inserted % 2])
            else:
                out.append(PROSODY_OF[emotion])
            n_inserted += 1
    return UnitSequence(out)


def inverse_speech_units(units, vocab: UnitTextVocab | None = None):
    """Recover (text_tokens, lang) from a synthesized sequence."""
    vocab = vocab or UnitTextVocab()
    content = [int(u) for u in units if int(u) >= CONTENT_BASE]
    if not content:
        raise DataError("no content units present")
    lang = "a" if content[0] < vocab.unit_base("b") else "b"
    base = vocab.unit_base(lang)
    lo, _ = vocab.content_range(lang)
    tokens = []
    for u in content:
        off = u - base
        if off < 0 or off >= 3 * vocab.n_content:
            raise DataError(f"unit {u} outside language {lang!r} range")
        if off % 3 == 0:
            tokens.append(lo + off // 3)
        elif not tokens or off // 3 != tokens[-1] - lo:
            raise DataError(f"unit {u} continues no open token group")
    return tokens, lang


def emotion_oracle_classify(units) -> str:
    label, _ = emotion_oracle_classify_detailed(units)
    return label


def emotion_oracle_classify_detailed(units):
    """Majority vote over prosody units; returns (label, tie_flag)."""
    counts = {}
    for u in units:
        label = LABEL_OF_PROSODY.get(int(u))
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
    if not counts:
        return NEUTRAL, False
    best = max(counts.values())
    winners = [lab for lab, c in counts.items() if c == best]
    winners.sort(key=EMOTIONS.index)
    return winners[0], len(winners) > 1


def unit_error_rate(ref, hyp) -> float:
    """Levenshtein distance / len(ref)."""
    ref = list(ref)
    hyp = list(hyp)
    if not ref:
        raise ContractError("unit_error_rate: empty reference")
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if r == h else 1),
            )
        prev = cur
    return prev[-1] / len(ref)


# ---------------------------------------------------------------------------
# corpus specs and feature encoders


def at_least(spec, low, *names):
    for name in names:
        if getattr(spec, name) < low:
            raise ConfigurationError(f"{name} must be >= {low}, got "
                                     f"{getattr(spec, name)}")


@dataclass
class CorpusSpec:
    """Generator knobs for the speech-unit corpora."""

    seed: int = 0
    world_seed: int = 7777
    size: int = 256
    lang_mix: float = 0.5              # fraction of lang-a samples
    len_a: tuple = (2, 6)              # answer token count range, inclusive
    len_b: tuple = (3, 9)
    noise: float = 0.25
    feature_dim: int = 64
    n_content: int = 8
    n_question: int = 12
    upsample: int = 4
    vocab_nar: int = 64

    def vocab(self) -> UnitTextVocab:
        return UnitTextVocab(self.n_content, self.n_question)

    def validate(self):
        at_least(self, 0, "seed", "world_seed", "noise")
        at_least(self, 1, "size", "feature_dim", "n_content", "n_question")
        if not 0.0 <= self.lang_mix <= 1.0:
            raise ConfigurationError("lang_mix must be in [0, 1]")
        if self.vocab().max_unit >= self.vocab_nar:
            raise ConfigurationError(
                f"unit vocab {self.vocab_nar} too small for "
                f"{self.n_content} content tokens per language"
            )
        for lo, hi in (self.len_a, self.len_b):
            if not 2 <= lo <= hi:
                raise ConfigurationError(
                    f"answer length range {(lo, hi)} must have 2 <= lo <= hi "
                    "(lo >= 2 gives every non-neutral sample a prosody unit)")
            max_units = 3 * hi + (3 * hi) // 4
            t_c = (hi + 2) + hi + 1  # question + answer + emotion cue
            if self.upsample * t_c < 2 * max_units + 1:
                raise ConfigurationError(
                    f"infeasible lengths: {self.upsample}*{t_c} < "
                    f"{2 * max_units + 1}; raise upsample or shorten answers"
                )


class FeatureEncoder:
    """Fixed random token/emotion encodings shared across corpora.

    Stands in for frozen-backbone hidden states: each context row is the
    encoding of one dialogue token (plus a leading emotion-cue row), with
    Gaussian noise added by the corpus generator.
    """

    def __init__(self, spec: CorpusSpec):
        rng = np.random.default_rng(spec.world_seed)
        vocab = spec.vocab()
        self.token_enc = rng.normal(0.0, 1.0, (vocab.size, spec.feature_dim))
        self.emotion_enc = rng.normal(0.0, 1.0, (len(EMOTIONS), spec.feature_dim))

    def context(self, q_tokens, a_tokens, emotion, rng, noise):
        rows = [self.emotion_enc[EMOTIONS.index(emotion)]]
        for tok in list(q_tokens) + list(a_tokens):
            rows.append(self.token_enc[int(tok)])
        feats = np.stack(rows)
        return feats + rng.normal(0.0, noise, feats.shape)


def encode_f32(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f4")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_f32(obj: dict) -> np.ndarray:
    """``DataError`` if ``data`` does not hold the float32s of ``shape``."""
    raw = base64.b64decode(obj["data"])
    if len(raw) != 4 * math.prod(obj["shape"]):
        raise DataError(f"{len(raw)} bytes of float32s for shape {obj['shape']}")
    return np.frombuffer(raw, dtype="<f4").reshape(obj["shape"]).astype(np.float64)


def _records(kind, n, seed, fields) -> list:
    """The seeded record loop of every corpus: ``n`` records, each with
    ``schema``, ``id`` and ``kind``, then the fields ``fields(i, rng)``
    draws from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [{"schema": 1, "id": i, "kind": kind, **fields(i, rng)}
            for i in range(n)]


def _unit_records(spec: CorpusSpec, kind, pick, **targets) -> list:
    """Dialogue records of the unit corpora. ``pick(i, rng)`` gives the
    language and the cue emotion of record ``i``; each
    ``targets[key](i, emotion)`` names the emotion synthesised into the
    answer's units under ``key``."""
    spec.validate()
    enc, vocab = FeatureEncoder(spec), spec.vocab()

    def fields(i, rng):
        lang, emotion = pick(i, rng)
        lo, hi = spec.len_a if lang == "a" else spec.len_b
        a_len = int(rng.integers(lo, hi + 1))
        a_tokens = [int(t) for t in rng.integers(*vocab.content_range(lang), a_len)]
        q_tokens = [int(t) for t in
                    rng.integers(*vocab.question_range(lang), a_len + 2)]
        feats = enc.context(q_tokens, a_tokens, emotion, rng, spec.noise)
        return {"lang": lang, "emotion": emotion, "text_q": q_tokens,
                "text_a": a_tokens, "features": encode_f32(feats),
                **{key: list(synthesize_speech_units(
                    a_tokens, target(i, emotion), lang, vocab))
                   for key, target in targets.items()}}
    return _records(kind, spec.size, spec.seed, fields)


def _balanced(labels):
    """Languages alternate; each label covers two consecutive records."""
    return lambda i, rng: (LANGS[i % 2], labels[(i // 2) % len(labels)])


def gen_supervised_corpus(spec: CorpusSpec) -> list:
    """Contexts plus target units (the pre-preference stage data).

    The emotion cue cycles through all labels; alternating records render
    the cue's prosody in the target while the rest stay neutral synthesis.
    The supervised decoder therefore picks up a soft cue->prosody
    association that preference training later sharpens, instead of having
    to invent the pathway from scratch.
    """
    return _unit_records(
        spec, "supervised_units",
        lambda i, rng: ("a" if rng.random() < spec.lang_mix else "b",
                        EMOTIONS[i % len(EMOTIONS)]),
        units=lambda i, emotion: emotion if i % 2 == 0 else NEUTRAL)


def gen_preference_corpus(spec: CorpusSpec) -> list:
    """Winner = emotion-conditioned synthesis, loser = neutral synthesis
    of the same answer; languages split 50/50, labels balanced."""
    return _unit_records(spec, "preference", _balanced(NON_NEUTRAL),
                         units_w=lambda i, emotion: emotion,
                         units_l=lambda i, emotion: NEUTRAL)


def gen_emotion_eval_corpus(spec: CorpusSpec) -> list:
    """Held-out contexts with gold emotion labels (incl. neutral) and the
    emotion-consistent reference units, for emotion-accuracy evaluation."""
    return _unit_records(spec, "supervised_units", _balanced(EMOTIONS),
                         units=lambda i, emotion: emotion)


# ---------------------------------------------------------------------------
# alignment world (objects with attributes; two template languages)


# rows in the alignment backbone's positional table; a copy task or a
# speech-text record of n tokens takes 2n of them
BACKBONE_POSITIONS = 48


@dataclass
class AlignmentSpec:
    seed: int = 0
    world_seed: int = 7777
    n_speech_text: int = 256
    n_image_text: int = 256
    n_instruct: int = 256
    n_probe: int = 64
    speech_dim: int = 48
    image_dim: int = 24
    noise: float = 0.03
    seq_len: tuple = (4, 10)

    n_objects: int = field(default=8, repr=False)
    n_colors: int = field(default=4, repr=False)
    n_sizes: int = field(default=3, repr=False)
    n_fillers: int = field(default=10, repr=False)  # 2 attrs x 10 = 20 templates/lang

    def validate(self):
        lo, hi = self.seq_len
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"seq_len must have 1 <= lo <= hi, got {(lo, hi)}")
        if 2 * hi > BACKBONE_POSITIONS:
            raise ConfigurationError(
                f"seq_len {(lo, hi)}: {hi} tokens and their features take "
                f"{2 * hi} rows, more than the backbone's {BACKBONE_POSITIONS}")
        at_least(self, 0, "seed", "world_seed", "noise")
        at_least(self, 1, "n_speech_text", "n_image_text", "n_instruct", "n_probe",
                 "speech_dim", "image_dim", "n_objects", "n_colors", "n_sizes",
                 "n_fillers")


class AlignmentVocab:
    """Token layout for the alignment world."""

    def __init__(self, spec: AlignmentSpec):
        self.objects = range(0, spec.n_objects)
        self.colors = range(spec.n_objects, spec.n_objects + spec.n_colors)
        base = spec.n_objects + spec.n_colors
        self.sizes = range(base, base + spec.n_sizes)
        base += spec.n_sizes
        # question heads: [lang][attr] with attr 0=color, 1=size
        self.qhead = {("a", 0): base, ("a", 1): base + 1,
                      ("b", 0): base + 2, ("b", 1): base + 3}
        base += 4
        self.fillers = {"a": range(base, base + spec.n_fillers),
                        "b": range(base + spec.n_fillers, base + 2 * spec.n_fillers)}
        base += 2 * spec.n_fillers
        self.sep = base
        self.size = base + 1


class AlignmentEncoders:
    """Fixed random per-modality encodings of latent token content."""

    def __init__(self, spec: AlignmentSpec):
        rng = np.random.default_rng(spec.world_seed)
        vocab = AlignmentVocab(spec)
        self.vocab = vocab
        self.speech = rng.normal(0.0, 1.0, (vocab.size, spec.speech_dim))
        self.image = rng.normal(0.0, 1.0, (vocab.size, spec.image_dim))

    def features(self, table, tokens, rng, noise):
        """Rows of ``table`` (``self.speech`` or ``self.image``) for
        ``tokens``, plus Gaussian noise."""
        feats = table[np.asarray(tokens, dtype=np.int64)]
        return feats + rng.normal(0.0, noise, feats.shape)


def gen_speech_text_corpus(spec: AlignmentSpec) -> list:
    spec.validate()
    enc = AlignmentEncoders(spec)
    lo, hi = spec.seq_len

    def fields(i, rng):
        n = int(rng.integers(lo, hi + 1))
        tokens = [int(t) for t in rng.integers(0, enc.vocab.sep, n)]
        feats = enc.features(enc.speech, tokens, rng, spec.noise)
        return {"tokens": tokens, "features": encode_f32(feats)}
    return _records("speech_text", spec.n_speech_text, spec.seed, fields)


def _sample_scene(vocab: AlignmentVocab, rng):
    obj = int(rng.integers(vocab.objects.start, vocab.objects.stop))
    color = int(rng.integers(vocab.colors.start, vocab.colors.stop))
    size = int(rng.integers(vocab.sizes.start, vocab.sizes.stop))
    return [obj, color, size]


def gen_image_text_corpus(spec: AlignmentSpec) -> list:
    spec.validate()
    enc = AlignmentEncoders(spec)

    def fields(i, rng):
        scene = _sample_scene(enc.vocab, rng)
        feats = enc.features(enc.image, scene, rng, spec.noise)
        return {"caption": scene, "features": encode_f32(feats)}
    return _records("image_text", spec.n_image_text, spec.seed, fields)


def gen_instruct_corpus(spec: AlignmentSpec, with_speech: bool = False,
                        rng_seed: int | None = None) -> list:
    """Image QA: question asks for the scene's color or size attribute.

    ``with_speech`` additionally stores the spoken twin of the question
    (probe sets only; instruction tuning itself is image-text)."""
    spec.validate()
    enc = AlignmentEncoders(spec)

    def fields(i, rng):
        lang, attr = LANGS[i % 2], (i // 2) % 2  # attr 0 = color, 1 = size
        scene = _sample_scene(enc.vocab, rng)
        fillers = enc.vocab.fillers[lang]
        q_tokens = [enc.vocab.qhead[(lang, attr)],
                    int(rng.integers(fillers.start, fillers.stop))]
        rec = {"lang": lang, "attr": ("color", "size")[attr], "content": scene,
               "image": encode_f32(enc.features(enc.image, scene, rng,
                                                spec.noise)),
               "q_tokens": q_tokens, "a_tokens": [scene[1 + attr]]}
        if with_speech:
            rec["q_speech"] = encode_f32(
                enc.features(enc.speech, q_tokens, rng, spec.noise))
        return rec
    return _records("instruct", spec.n_probe if with_speech else spec.n_instruct,
                    spec.seed if rng_seed is None else rng_seed, fields)


# ---------------------------------------------------------------------------
# JSONL I/O


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            if rec.get("schema") != 1:
                raise DataError(f"{path}:{line_no}: unsupported schema")
            records.append(rec)
    return records


def corpus_manifest(records) -> dict:
    """Counts per kind / language / emotion."""
    manifest = {"total": len(records), "kind": {}, "lang": {}, "emotion": {}}
    for rec in records:
        for key in ("kind", "lang", "emotion"):
            if key in rec:
                bucket = manifest[key]
                bucket[rec[key]] = bucket.get(rec[key], 0) + 1
    return manifest
