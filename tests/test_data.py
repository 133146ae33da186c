"""Synthetic corpora: codes, oracles, determinism, balance."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitforge.cli import GENERATORS, UNIT_KINDS
from unitforge.data import (CONTENT_BASE, EMOTIONS, LANGS, NEUTRAL, OTHER,
                            AlignmentSpec, CorpusSpec, UnitTextVocab,
                            check_records, corpus_manifest, decode_f32, emotion_oracle_classify,
                            emotion_oracle_classify_detailed, encode_f32,
                            gen_emotion_eval_corpus, gen_image_text_corpus,
                            gen_instruct_corpus, gen_preference_corpus,
                            gen_speech_text_corpus, gen_supervised_corpus,
                            inverse_speech_units, read_jsonl,
                            synthesize_speech_units, token_units,
                            unit_error_rate, write_jsonl)
from unitforge.errors import ConfigurationError, ContractError, DataError


# ---------------------------------------------------------------------------
# unit code


def test_token_unit_ranges_disjoint_across_languages():
    vocab = UnitTextVocab()
    units_a = set()
    units_b = set()
    lo_a, hi_a = vocab.content_range("a")
    lo_b, hi_b = vocab.content_range("b")
    for tok in range(lo_a, hi_a):
        units_a.update(token_units(vocab, tok))
    for tok in range(lo_b, hi_b):
        units_b.update(token_units(vocab, tok))
    assert not units_a & units_b
    assert min(units_a | units_b) >= CONTENT_BASE
    assert max(units_a | units_b) == vocab.max_unit


def test_token_units_length_alternates():
    vocab = UnitTextVocab()
    lo, _ = vocab.content_range("a")
    assert len(token_units(vocab, lo)) == 2
    assert len(token_units(vocab, lo + 1)) == 3


def test_non_content_token_rejected():
    vocab = UnitTextVocab()
    with pytest.raises(DataError):
        token_units(vocab, vocab.sep)


@pytest.mark.parametrize("lang", LANGS)
@pytest.mark.parametrize("emotion", EMOTIONS)
def test_synthesis_round_trip(lang, emotion):
    vocab = UnitTextVocab()
    lo, hi = vocab.content_range(lang)
    tokens = list(range(lo, min(lo + 5, hi)))
    units = synthesize_speech_units(tokens, emotion, lang, vocab)
    back, back_lang = inverse_speech_units(units, vocab)
    assert back == tokens
    assert back_lang == lang


def test_oracle_closure_all_emotions():
    vocab = UnitTextVocab()
    for lang in LANGS:
        lo, _ = vocab.content_range(lang)
        tokens = [lo, lo + 1, lo + 2, lo + 3]
        for emotion in EMOTIONS:
            units = synthesize_speech_units(tokens, emotion, lang, vocab)
            assert emotion_oracle_classify(units) == emotion


def test_prosody_rate():
    vocab = UnitTextVocab()
    lo, _ = vocab.content_range("a")
    tokens = [lo] * 8  # 16 content units
    units = list(synthesize_speech_units(tokens, "happy", "a", vocab))
    neutral = list(synthesize_speech_units(tokens, NEUTRAL, "a", vocab))
    assert len(neutral) == 16
    assert len(units) == 16 + 4  # one prosody unit per 4 content units


def test_emotional_sequences_longer_by_quarter():
    vocab = UnitTextVocab()
    lo, _ = vocab.content_range("b")
    tokens = [lo + i % 4 for i in range(8)]
    n_neutral = len(synthesize_speech_units(tokens, NEUTRAL, "b", vocab))
    n_happy = len(synthesize_speech_units(tokens, "happy", "b", vocab))
    assert n_happy == n_neutral + n_neutral // 4


def test_other_uses_two_prosody_ids():
    vocab = UnitTextVocab()
    lo, _ = vocab.content_range("a")
    units = synthesize_speech_units([lo] * 8, OTHER, "a", vocab)
    prosody = [u for u in units if u < CONTENT_BASE]
    assert sorted(set(prosody)) == [8, 9]
    assert emotion_oracle_classify(units) == OTHER


def test_oracle_majority_and_ties():
    assert emotion_oracle_classify([20, 21, 22]) == NEUTRAL
    label, tie = emotion_oracle_classify_detailed([20, 3, 3, 1])
    assert label == "happy" and not tie
    # equal counts: smallest index in the emotion table wins and is flagged
    label, tie = emotion_oracle_classify_detailed([3, 1])
    assert label == "angry_disgusted" and tie


def test_wrong_language_token_rejected():
    vocab = UnitTextVocab()
    lo_b, _ = vocab.content_range("b")
    with pytest.raises(DataError):
        synthesize_speech_units([lo_b], NEUTRAL, "a", vocab)


def test_inverse_rejects_garbage():
    with pytest.raises(DataError):
        inverse_speech_units([1, 2, 3])  # prosody only
    vocab = UnitTextVocab()
    base = vocab.unit_base("a")
    with pytest.raises(DataError):
        inverse_speech_units([base + 1])  # continuation without a start


# ---------------------------------------------------------------------------
# unit error rate


def _edit_distance_oracle(a, b):
    # quadratic DP written independently of the library implementation
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1,
                              table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[len(a)][len(b)]


def test_uer_known_values():
    assert unit_error_rate([1, 2, 3], [1, 2, 3]) == 0.0
    assert unit_error_rate([1, 2, 3], [1, 3]) == pytest.approx(1 / 3)
    assert unit_error_rate([1, 2], []) == 1.0
    assert unit_error_rate([1], [2, 3, 4]) == 3.0  # can exceed 1


def test_uer_empty_reference_rejected():
    with pytest.raises(ContractError):
        unit_error_rate([], [1])


@given(st.lists(st.integers(1, 5), min_size=1, max_size=8),
       st.lists(st.integers(1, 5), max_size=8))
@settings(max_examples=100, deadline=None)
def test_uer_matches_independent_dp(ref, hyp):
    expected = _edit_distance_oracle(ref, hyp) / len(ref)
    assert unit_error_rate(ref, hyp) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# corpus generation


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CorpusSpec(lang_mix=1.5).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(vocab_nar=32).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(len_a=(1, 4)).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(upsample=2, len_b=(8, 12)).validate()
    for bad in (dict(len_a=(6, 2)), dict(len_b=(9, 3)), dict(size=0),
                dict(size=-3), dict(noise=-0.1), dict(feature_dim=0),
                dict(n_content=0), dict(n_question=0), dict(seed=-1),
                dict(world_seed=-2)):
        with pytest.raises(ConfigurationError):
            CorpusSpec(**bad).validate()
        with pytest.raises(ConfigurationError):
            gen_supervised_corpus(CorpusSpec(**bad))
    CorpusSpec().validate()
    for bad in (dict(seq_len=(9, 3)), dict(seq_len=(0, 3)), dict(n_speech_text=0),
                dict(n_image_text=0), dict(n_instruct=0), dict(n_probe=-1),
                dict(speech_dim=0), dict(image_dim=0), dict(noise=-0.1),
                dict(n_objects=0), dict(n_colors=0), dict(n_sizes=0),
                dict(n_fillers=0), dict(seed=-1), dict(world_seed=-2)):
        with pytest.raises(ConfigurationError):
            AlignmentSpec(**bad).validate()
        for gen in (gen_speech_text_corpus, gen_image_text_corpus,
                    gen_instruct_corpus,
                    lambda spec: gen_instruct_corpus(spec, with_speech=True)):
            with pytest.raises(ConfigurationError):
                gen(AlignmentSpec(**bad))
    AlignmentSpec().validate()
    AlignmentSpec(seq_len=(1, 1), noise=0.0).validate()


def test_alignment_spec_sequences_fit_the_backbone():
    # n tokens and their n feature rows: 2n of the backbone's positions
    AlignmentSpec(seq_len=(24, 24)).validate()
    for gen in (gen_speech_text_corpus, gen_image_text_corpus):
        with pytest.raises(ConfigurationError, match="48"):
            gen(AlignmentSpec(seq_len=(4, 25)))


def test_feature_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.normal(0.0, 1.0, (5, 7))
    back = decode_f32(encode_f32(arr))
    assert back.shape == (5, 7)
    assert np.abs(back - arr).max() < 1e-6  # f32 quantization only


@pytest.mark.parametrize("shape", [[6, 7], [4, 7], [36], [5, 7, 1, 2]])
def test_feature_data_that_do_not_fill_their_shape_rejected(shape):
    field = dict(encode_f32(np.zeros((5, 7))), shape=shape)
    with pytest.raises(DataError):
        decode_f32(field)


@pytest.mark.parametrize("char", ["\u00e9", "!", "="])
def test_feature_data_that_are_not_base64_rejected(char):
    # as long as the shape's base64, but not base64
    field = encode_f32(np.zeros((5, 7)))
    with pytest.raises(DataError):
        decode_f32(dict(field, data=char + field["data"][1:]))


def test_supervised_corpus_shape():
    spec = CorpusSpec(seed=11, size=32)
    records = gen_supervised_corpus(spec)
    assert len(records) == 32
    vocab = spec.vocab()
    for i, rec in enumerate(records):
        assert rec["kind"] == "supervised_units"
        # even records render the cue's prosody, odd ones are neutral
        target = rec["emotion"] if i % 2 == 0 else NEUTRAL
        expected = synthesize_speech_units(rec["text_a"], target,
                                           rec["lang"], vocab)
        assert rec["units"] == list(expected)
        feats = decode_f32(rec["features"])
        assert feats.shape == (len(rec["text_q"]) + len(rec["text_a"]) + 1,
                               spec.feature_dim)
        # feasibility under the configured upsample factor
        assert spec.upsample * feats.shape[0] >= 2 * len(rec["units"]) + 1


def test_supervised_corpus_emotion_cue_cycles():
    records = gen_supervised_corpus(CorpusSpec(seed=1, size=27))
    assert [r["emotion"] for r in records[:9]] == list(EMOTIONS)


def test_preference_corpus_balance():
    records = gen_preference_corpus(CorpusSpec(seed=2, size=64))
    counts = corpus_manifest(records)
    assert counts["lang"]["a"] == counts["lang"]["b"] == 32
    emotions = counts["emotion"]
    assert NEUTRAL not in emotions
    assert max(emotions.values()) - min(emotions.values()) <= 1
    for rec in records:
        assert rec["units_w"] != rec["units_l"]
        assert emotion_oracle_classify(rec["units_w"]) == rec["emotion"]
        assert emotion_oracle_classify(rec["units_l"]) == NEUTRAL


def test_emotion_eval_corpus_references_carry_label():
    records = gen_emotion_eval_corpus(CorpusSpec(seed=3, size=36))
    for rec in records:
        assert emotion_oracle_classify(rec["units"]) == rec["emotion"]


# sha256 of each kind's JSONL at seed 3 with 12 records, under NumPy 2.4.6
PINNED_JSONL = {
    "supervised": "e44d5cecb3e3a8857e7b0f5106ac2fe3f4a5a8298735bb7a377b855ac8163072",
    "preference": "833984202846cf6f472c91a1dd000dd01d1b9a685ba4a4a016387ac1f353fcfd",
    "emotion-eval": "95b1e2de7b541559c13ef46d2117ca349bcdc989757e29bf64acc3087c435611",
    "speech-text": "cf59d5e0b7f364b3f40b2fab6d058dbcf9eaf4f1ccaead4bcdf6acafe181c8b1",
    "image-text": "26bf380c38268becf9dd87f7120c0d72ec98dc48126d5a9c890e1c3df03a53fb",
    "instruct": "c21c04a2abd21e3bc70f23e09655c1d04cd909797f44a3d8bfff940026ad8721",
    "probe": "f6bd36e1cf0eaeeb1fff2a1f9af1b60b380bcff0e17506ee4d1a28591c10ea45",
}


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_regeneration_is_byte_identical(tmp_path, kind):
    """Two runs give the same bytes, and those bytes are pinned: a change
    in draw order, field encoding or record layout changes the digest."""
    def spec():
        if kind in UNIT_KINDS:
            return CorpusSpec(seed=3, size=12)
        return AlignmentSpec(seed=3, n_speech_text=12, n_image_text=12,
                             n_instruct=12, n_probe=12)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(p1, GENERATORS[kind](spec()))
    write_jsonl(p2, GENERATORS[kind](spec()))
    assert p1.read_bytes() == p2.read_bytes()
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == PINNED_JSONL[kind]


def test_different_seed_changes_content():
    a = gen_supervised_corpus(CorpusSpec(seed=5, size=8))
    b = gen_supervised_corpus(CorpusSpec(seed=6, size=8))
    assert a != b


def test_shared_world_across_corpora():
    # same world_seed means identical encoders: the same (q, a, emotion)
    # triple would encode identically across corpus seeds
    s1 = gen_supervised_corpus(CorpusSpec(seed=7, size=4))
    s2 = gen_supervised_corpus(CorpusSpec(seed=7, size=4, world_seed=1234))
    assert decode_f32(s1[0]["features"]).shape == \
        decode_f32(s2[0]["features"]).shape
    assert not np.allclose(decode_f32(s1[0]["features"]),
                           decode_f32(s2[0]["features"]))


def test_jsonl_round_trip(tmp_path):
    records = gen_preference_corpus(CorpusSpec(seed=8, size=6))
    path = tmp_path / "c.jsonl"
    write_jsonl(path, records)
    assert read_jsonl(path) == records


def test_jsonl_schema_guard(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": 2, "id": 0}\n')
    with pytest.raises(DataError):
        read_jsonl(path)
    path.write_text("not json\n")
    with pytest.raises(DataError):
        read_jsonl(path)


@pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null", "true"])
def test_jsonl_line_that_is_not_an_object_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": 1, "id": 0}\n' + line + "\n")
    with pytest.raises(DataError, match=f"{path}:2: not a schema-1 object"):
        read_jsonl(path)


# ---------------------------------------------------------------------------
# the record check


def block(rows, width):
    return encode_f32(np.zeros((rows, width)))


GOOD = {"id": 7, "tokens": [0, 3], "features": block(2, 5), "lang": "a"}
RULES = dict(ids={"tokens": (0, 4)}, rows={"features": 5}, present=("lang",))


def test_check_records_accepts_a_record_that_holds_what_it_is_asked():
    check_records([GOOD], "test", **RULES)
    check_records([dict(GOOD, features=block(1, 5), tokens=[3])], "test",
                  **RULES)
    check_records([{}], "test")  # nothing asked


@pytest.mark.parametrize("field", ["tokens", "features", "lang"])
def test_check_records_names_a_field_the_record_lacks(field):
    rec = {k: v for k, v in GOOD.items() if k != field}
    with pytest.raises(DataError, match=f"test record 7 lacks '{field}'"):
        check_records([rec], "test", **RULES)


def test_check_records_names_the_first_record_that_breaks_a_rule():
    records = [GOOD, dict(GOOD, id=8, tokens=[9]), dict(GOOD, id=9, tokens=[])]
    with pytest.raises(DataError, match="test record 8: tokens"):
        check_records(records, "test", **RULES)


@pytest.mark.parametrize("tokens", [[], [4], [-1], [1.0], [True], ["1"], 3,
                                    "ab", None, {"0": 1}])
def test_check_records_refuses_ids_that_are_not_a_list_of_ints_in_range(tokens):
    with pytest.raises(DataError, match=r"test record 7: tokens must be a "
                                        r"non-empty list of ints in \[0, 4\)"):
        check_records([dict(GOOD, tokens=tokens)], "test", **RULES)


@pytest.mark.parametrize("edit", [
    {"shape": None}, {"shape": "ab"}, {"shape": 2.0}, {"shape": [2]},
    {"shape": [2, 5, 1]}, {"shape": ["2", 5]}, {"shape": [None, 5]},
    {"shape": [2.0, 5]}, {"shape": [True, 5]}, {"shape": [2, "5"]},
    {"shape": [2, None]}, {"shape": [2, 5.0]}, {"shape": [0, 5]},
    {"shape": [-2, -5]}, {"shape": [2, 4]}, {"shape": [3, 5]},
    {"data": None}, {"data": 5}, {"data": 1.5}, {"data": ["x"]},
    {"data": ""}, {"data": "abcd"},
], ids=repr)
def test_check_records_refuses_a_feature_block_that_is_not_its_rows(edit):
    # a shape or shape entry of another type, width or row count, or data
    # of another type or length; no edit reaches a decode or a TypeError
    rec = dict(GOOD, features={**GOOD["features"], **edit})
    with pytest.raises(DataError, match="test record 7: features of shape"):
        check_records([rec], "test", **RULES)


@pytest.mark.parametrize("features", [None, 5, "ab", [2, 5], {}])
def test_check_records_refuses_a_feature_field_that_is_not_a_block(features):
    with pytest.raises(DataError, match="features of shape None"):
        check_records([dict(GOOD, features=features)], "test", **RULES)


@given(rows=st.integers(1, 40), width=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_check_records_accepts_every_encoded_block_and_no_other_length(rows,
                                                                     width):
    # the base64 length rule matches encode_f32 and refuses a block one
    # row short or long, without decoding
    rec = {"features": block(rows, width)}
    check_records([rec], "test", rows={"features": width})
    for n in (rows - 1, rows + 1):
        if n >= 1:
            with pytest.raises(DataError):
                check_records([{"features": dict(block(n, width),
                                                 shape=[rows, width])}],
                              "test", rows={"features": width})


# ---------------------------------------------------------------------------
# alignment corpora


def test_speech_text_corpus():
    spec = AlignmentSpec(seed=9, n_speech_text=24)
    records = gen_speech_text_corpus(spec)
    assert len(records) == 24
    for rec in records:
        feats = decode_f32(rec["features"])
        assert feats.shape == (len(rec["tokens"]), spec.speech_dim)
        assert spec.seq_len[0] <= len(rec["tokens"]) <= spec.seq_len[1]


def test_image_text_corpus_caption_is_scene():
    spec = AlignmentSpec(seed=10, n_image_text=12)
    for rec in gen_image_text_corpus(spec):
        assert len(rec["caption"]) == 3
        assert decode_f32(rec["features"]).shape == (3, spec.image_dim)


def test_instruct_corpus_answers_match_scene():
    spec = AlignmentSpec(seed=11, n_instruct=40)
    records = gen_instruct_corpus(spec)
    for rec in records:
        obj, color, size = rec["content"]
        expected = color if rec["attr"] == "color" else size
        assert rec["a_tokens"] == [expected]
        assert "q_speech" not in rec
    langs = corpus_manifest(records)["lang"]
    assert langs["a"] == langs["b"] == 20


def test_probe_corpus_has_spoken_twins():
    spec = AlignmentSpec(seed=12, n_probe=8)
    records = gen_instruct_corpus(spec, with_speech=True, rng_seed=99)
    for rec in records:
        assert decode_f32(rec["q_speech"]).shape == (len(rec["q_tokens"]),
                                                     spec.speech_dim)
