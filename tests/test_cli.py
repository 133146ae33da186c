"""CLI wiring: exit codes, manifests, reproducible artifacts, reports."""

import csv
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unitforge.alignment import OmniModel
from unitforge.checkpoint import load_checkpoint, save_checkpoint
from unitforge.cli import (DECODER_MODEL, DECODER_SCHEDULE, EXIT_INVALID_SPEC,
                           EXIT_KIND_MISMATCH, EXIT_MISSING_INPUT, EXIT_OK,
                           EXIT_SEQUENCING, build_parser, file_digest, main,
                           parse_config, read_config)
from unitforge.data import (CorpusSpec, decode_f32, encode_f32, read_jsonl,
                            write_jsonl)
from unitforge.errors import ConfigurationError


def write_cfg(path, **kv):
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifact chain: corpora and small checkpoints built once."""
    root = tmp_path_factory.mktemp("cli")
    sup_cfg = write_cfg(root / "sup.cfg", kind="supervised", size=8, seed=5)
    assert main(["gen-data", "--config", sup_cfg,
                 "--out", str(root / "sup")]) == EXIT_OK
    pref_cfg = write_cfg(root / "pref.cfg", kind="preference", size=6, seed=5)
    assert main(["gen-data", "--config", pref_cfg,
                 "--out", str(root / "pref")]) == EXIT_OK
    train_cfg = write_cfg(root / "train.cfg", layers=1, experts=1, steps=4,
                          batch=2, lr="1e-3", max_context=32)
    assert main(["train", "decoder-nar",
                 "--corpus", str(root / "sup" / "supervised.jsonl"),
                 "--config", train_cfg,
                 "--out", str(root / "nar")]) == EXIT_OK
    assert main(["train", "decoder-ar",
                 "--corpus", str(root / "sup" / "supervised.jsonl"),
                 "--config", train_cfg,
                 "--out", str(root / "ar")]) == EXIT_OK
    return root


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_coercion(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("n=3\nlr=1e-4  # trailing comment\nname=adam\n"
                    "flag=true\n\n# full comment line\n")
    cfg = parse_config(path)
    assert cfg == {"n": 3, "lr": 1e-4, "name": "adam", "flag": True}


def test_parse_config_rejects_bare_words(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("justaword\n")
    with pytest.raises(ConfigurationError):
        parse_config(path)


def test_build_spec_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        read_config({"sizzle": 4}, CorpusSpec)
    spec = CorpusSpec(**read_config({"size": 4, "seed": 9, "len_a": "3,5"},
                                    CorpusSpec)[0])
    assert spec.size == 4 and spec.seed == 9 and spec.len_a == (3, 5)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_reproducible(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", kind="supervised", size=6, seed=11)
    for sub in ("one", "two"):
        assert main(["gen-data", "--config", cfg,
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    d1 = file_digest(tmp_path / "one" / "supervised.jsonl")
    d2 = file_digest(tmp_path / "two" / "supervised.jsonl")
    assert d1 == d2


def test_gen_data_writes_sidecar_and_manifest(workdir):
    sidecar = workdir / "sup" / "supervised.jsonl.manifest.json"
    manifest = workdir / "sup" / "run_manifest.json"
    assert sidecar.exists() and manifest.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["kind"] == "supervised"
    assert meta["spec"]["size"] == 8
    run = json.loads(manifest.read_text())
    assert run["command"] == "gen-data"
    assert run["run_id"]


def test_gen_data_bad_kind_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", kind="nonsense")
    assert main(["gen-data", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_INVALID_SPEC


def test_gen_data_unknown_key_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", kind="supervised", wibble=3)
    assert main(["gen-data", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_INVALID_SPEC


def test_missing_config_exit_code(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == EXIT_MISSING_INPUT


# ---------------------------------------------------------------------------
# train / eval chain


def test_train_decoder_outputs(workdir):
    out = workdir / "nar"
    assert (out / "decoder.ckpt").exists()
    assert (out / "decoder.ckpt.meta.json").exists()
    rows = read_csv(out / "loss_curve.csv")
    assert rows[0] == ["step", "loss", "mode", "tgm_flag"]
    assert len(rows) == 5  # header + 4 steps


def test_eval_uer_runs(workdir, tmp_path):
    assert main(["eval", "uer",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "uer.csv")
    groups = {r[0] for r in rows[1:]}
    assert "overall" in groups


# rows of the tiny corpora, pinned before pref-acc scored each pair once
EMOTION_ACC_ROWS = {
    "nar": ["emotion=angry_disgusted,1,0.0000", "emotion=fearful,1,0.0000",
            "emotion=happy,1,0.0000", "emotion=neutral,1,1.0000",
            "emotion=other,1,0.0000", "emotion=sad,1,0.0000",
            "emotion=surprised,1,0.0000", "emotion=trust,1,0.0000",
            "lang=a,6,0.1667", "lang=b,2,0.0000", "overall,8,0.1250"],
    "ar": ["emotion=angry_disgusted,1,1.0000", "emotion=fearful,1,0.0000",
           "emotion=happy,1,0.0000", "emotion=neutral,1,0.0000",
           "emotion=other,1,0.0000", "emotion=sad,1,1.0000",
           "emotion=surprised,1,0.0000", "emotion=trust,1,0.0000",
           "lang=a,6,0.1667", "lang=b,2,0.5000", "overall,8,0.2500"],
}


@pytest.mark.parametrize("mode", ["nar", "ar"])
def test_eval_emotion_acc_report(workdir, tmp_path, mode):
    assert main(["eval", "emotion-acc",
                 "--checkpoint", str(workdir / mode / "decoder.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert read_csv(tmp_path / "emotion_acc.csv") == [
        ["group", "n", "accuracy"], *[r.split(",") for r in EMOTION_ACC_ROWS[mode]]]


@pytest.mark.parametrize("swap_lang, rows", [
    (None, ["overall,6,0.0000", "lang=a,3,0.0000", "lang=b,3,0.0000"]),
    ("a", ["overall,6,0.5000", "lang=a,3,1.0000", "lang=b,3,0.0000"]),
], ids=["as-generated", "lang-a-swapped"])
def test_eval_pref_acc_report(workdir, tmp_path, swap_lang, rows):
    records = read_jsonl(workdir / "pref" / "preference.jsonl")
    for rec in records:  # the base decoder prefers the shorter loser
        if rec["lang"] == swap_lang:
            rec["units_w"], rec["units_l"] = rec["units_l"], rec["units_w"]
    write_jsonl(tmp_path / "pref.jsonl", records)
    assert main(["eval", "pref-acc",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--corpus", str(tmp_path / "pref.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert read_csv(tmp_path / "pref_acc.csv") == [
        ["group", "n", "accuracy"], *[r.split(",") for r in rows]]


@pytest.mark.parametrize("argv", [["eval", "pref-acc", "--checkpoint"],
                                  ["train", "dpo", "--init"]],
                         ids=["eval-pref-acc", "train-dpo"])
def test_preference_commands_refuse_an_ar_decoder(workdir, tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, str(workdir / "ar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "pref" / "preference.jsonl"),
                 "--out", str(out)]) == EXIT_KIND_MISMATCH
    assert not any(out.iterdir())


def test_eval_missing_checkpoint(workdir, tmp_path):
    assert main(["eval", "uer",
                 "--checkpoint", str(tmp_path / "ghost.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_MISSING_INPUT


def test_eval_wrong_corpus_kind(workdir, tmp_path):
    assert main(["eval", "uer",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "pref" / "preference.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_KIND_MISMATCH


def test_decoder_checkpoint_rejected_for_zero_shot(workdir, tmp_path):
    assert main(["eval", "zero-shot",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_KIND_MISMATCH


def test_dpo_first_logged_loss_is_ln2(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "dpo.cfg", steps=3, batch=2, lr="1e-4",
                    log_every=1)
    assert main(["train", "dpo",
                 "--corpus", str(workdir / "pref" / "preference.jsonl"),
                 "--init", str(workdir / "nar" / "decoder.ckpt"),
                 "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "dpo_metrics.csv")
    assert rows[0][:2] == ["step", "loss"]
    first_loss = float(rows[1][1])
    assert abs(first_loss - math.log(2.0)) < 1e-6
    assert (tmp_path / "policy.ckpt").exists()


def test_dpo_requires_init_checkpoint(workdir, tmp_path):
    assert main(["train", "dpo",
                 "--corpus", str(workdir / "pref" / "preference.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_SEQUENCING


def test_align_stage_two_requires_init(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", kind="image-text", n_image_text=4,
                    seed=2)
    assert main(["gen-data", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["train", "align-2",
                 "--corpus", str(tmp_path / "image-text.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_SEQUENCING


def test_align_chain_and_stage_two_freezes_backbone(tmp_path):
    gen = {"speech-text": dict(kind="speech-text", n_speech_text=6, seed=2),
           "image-text": dict(kind="image-text", n_image_text=6, seed=2)}
    for name, kv in gen.items():
        cfg = write_cfg(tmp_path / f"{name}.cfg", **kv)
        assert main(["gen-data", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_OK
    cfg1 = write_cfg(tmp_path / "s1.cfg", steps=2, batch=2, pretrain_steps=3)
    assert main(["train", "align-1",
                 "--corpus", str(tmp_path / "speech-text.jsonl"),
                 "--config", cfg1, "--out", str(tmp_path / "s1")]) == EXIT_OK
    ck1 = tmp_path / "s1" / "align.ckpt"
    assert ck1.exists()
    cfg2 = write_cfg(tmp_path / "s2.cfg", steps=2, batch=2)
    assert main(["train", "align-2",
                 "--corpus", str(tmp_path / "image-text.jsonl"),
                 "--init", str(ck1),
                 "--config", cfg2, "--out", str(tmp_path / "s2")]) == EXIT_OK
    # frozen-backbone stage: backbone weights bit-identical across stage II
    m1 = OmniModel.load(str(ck1))
    m2 = OmniModel.load(str(tmp_path / "s2" / "align.ckpt"))
    for k, v in m1.backbone_parameters().items():
        assert np.array_equal(v.data, m2.backbone_parameters()[k].data), k
    assert m2.completed_stages >= {"I", "II"}


@pytest.fixture(scope="module")
def align_dir(tmp_path_factory):
    """Small corpora for every alignment stage and a stage I checkpoint."""
    root = tmp_path_factory.mktemp("align")
    for kind, size_key in (("speech-text", "n_speech_text"),
                           ("image-text", "n_image_text"),
                           ("instruct", "n_instruct")):
        cfg = write_cfg(root / f"{kind}.cfg", kind=kind, seed=2,
                        **{size_key: 6})
        assert main(["gen-data", "--config", cfg,
                     "--out", str(root)]) == EXIT_OK
    cfg = write_cfg(root / "s1.cfg", steps=1, batch=2, pretrain_steps=1,
                    d=8, layers=1)
    assert main(["train", "align-1",
                 "--corpus", str(root / "speech-text.jsonl"),
                 "--config", cfg, "--out", str(root / "s1")]) == EXIT_OK
    return root


ALIGN_CORPUS = {"align-1": "speech-text", "align-2": "image-text",
                "align-3": "instruct"}


@pytest.mark.parametrize("stage, keys", [
    ("align-1", dict(wibble=3)),
    ("align-1", dict(weight_decay=0.5)),
    ("align-1", dict(dim=64)),
    ("align-2", dict(d=16)),
    ("align-2", dict(pretrain_steps=3)),
    ("align-3", dict(layers=1, heads=2)),
    ("align-3", dict(pretrain_lr=0.1)),
], ids=["1-wibble", "1-weight_decay", "1-dim", "2-d", "2-pretrain_steps",
        "3-layers_heads", "3-pretrain_lr"])
def test_align_stage_rejects_config_keys_it_does_not_read(align_dir, tmp_path,
                                                          stage, keys):
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2, **keys)
    out = tmp_path / "out"
    init = [] if stage == "align-1" else \
        ["--init", str(align_dir / "s1" / "align.ckpt")]
    assert main(["train", stage,
                 "--corpus", str(align_dir / f"{ALIGN_CORPUS[stage]}.jsonl"),
                 *init, "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not (out / "align.ckpt").exists()


@pytest.mark.parametrize("stage", ["decoder-nar", "decoder-ar", "dpo"])
def test_train_stage_rejects_unknown_config_key(workdir, tmp_path, stage):
    corpus = "pref/preference.jsonl" if stage == "dpo" else \
        "sup/supervised.jsonl"
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2, wibble=3)
    out = tmp_path / "out"
    init = ["--init", str(workdir / "nar" / "decoder.ckpt")] if stage == "dpo" \
        else []
    assert main(["train", stage, "--corpus", str(workdir / corpus), *init,
                 "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not out.exists() or not any(out.glob("*.ckpt"))


def test_align_two_accepts_seed_without_effect(align_dir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2)
    ckpts = []
    for sub, seed in (("plain", []), ("seeded", ["--seed", "9"])):
        assert main(["train", "align-2",
                     "--corpus", str(align_dir / "image-text.jsonl"),
                     "--init", str(align_dir / "s1" / "align.ckpt"),
                     "--config", cfg, "--out", str(tmp_path / sub)]
                    + seed) == EXIT_OK
        ckpts.append((tmp_path / sub / "align.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]


@pytest.mark.parametrize("sidecar", [
    '{"kind": "speech-text", "spec": {"wibble": 1}}\n',
    '{"kind": "speech-text", "spec": \n', '[1]\n',
    '{"kind": "speech-text", "spec": [4, 10]}\n',
    '{"kind": "speech-text", "spec": {"seq_len": [4, 6, 10]}}\n',
], ids=["unknown_spec_key", "not_json", "not_an_object", "spec_not_object",
        "three_element_seq_len"])
def test_align_one_bad_corpus_sidecar_exits_3(align_dir, tmp_path, sidecar):
    corpus = tmp_path / "speech-text.jsonl"
    shutil.copy(align_dir / "speech-text.jsonl", corpus)
    (tmp_path / "speech-text.jsonl.manifest.json").write_text(sidecar)
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2, pretrain_steps=1)
    assert main(["train", "align-1", "--corpus", str(corpus),
                 "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_INVALID_SPEC


def _truncate(ckpt):
    ckpt.write_bytes(ckpt.read_bytes()[:-9])


def _edit_sidecar(ckpt, edit):
    sidecar = ckpt.parent / (ckpt.name + ".meta.json")
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))


@pytest.mark.parametrize("corrupt, code", [
    (_truncate, EXIT_INVALID_SPEC),
    (lambda c: (c.parent / (c.name + ".meta.json")).write_text("{mode"),
     EXIT_INVALID_SPEC),
    (lambda c: _edit_sidecar(c, lambda m: m.update(wibble=1)),
     EXIT_INVALID_SPEC),
    (lambda c: _edit_sidecar(c, lambda m: m.pop("heads")),
     EXIT_INVALID_SPEC),
    (lambda c: (c.parent / (c.name + ".meta.json")).unlink(),
     EXIT_KIND_MISMATCH),
    (lambda c: _edit_sidecar(c, lambda m: m.update(layers="1")),
     EXIT_INVALID_SPEC),
    (lambda c: _edit_sidecar(c, lambda m: m.update(tgm=1)),
     EXIT_INVALID_SPEC),
], ids=["truncated_binary", "sidecar_not_json", "unknown_sidecar_key",
        "missing_sidecar_key", "no_sidecar", "string_layers", "int_tgm"])
def test_corrupt_decoder_checkpoint_exit_code(workdir, tmp_path, corrupt,
                                              code):
    ckpt = tmp_path / "decoder.ckpt"
    for name in ("decoder.ckpt", "decoder.ckpt.meta.json"):
        shutil.copy(workdir / "nar" / name, tmp_path / name)
    corrupt(ckpt)
    assert main(["eval", "uer", "--checkpoint", str(ckpt),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path / "out")]) == code


def test_alignment_checkpoint_rejected_for_decoder_eval(workdir, align_dir,
                                                        tmp_path):
    assert main(["eval", "uer",
                 "--checkpoint", str(align_dir / "s1" / "align.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_KIND_MISMATCH


def test_corrupt_alignment_checkpoint_exits_3(align_dir, tmp_path):
    for name in ("align.ckpt", "align.ckpt.meta.json"):
        shutil.copy(align_dir / "s1" / name, tmp_path / name)
    _truncate(tmp_path / "align.ckpt")
    assert main(["train", "align-2",
                 "--corpus", str(align_dir / "image-text.jsonl"),
                 "--init", str(tmp_path / "align.ckpt"),
                 "--out", str(tmp_path / "out")]) == EXIT_INVALID_SPEC


@pytest.mark.parametrize("edit", [
    lambda params, meta: params.update({"meta.stages": np.array([7.0])}),
    lambda params, meta: params.update({"meta.stages": np.array([0.5])}),
    lambda params, meta: meta["arch"].update(heads="2"),
    lambda params, meta: meta["alignment_spec"].update(seq_len=[4, "x"]),
    lambda params, meta: meta["alignment_spec"].update(seq_len=[4, 25]),
], ids=["stage_out_of_range", "stage_not_integer", "string_heads",
        "bad_seq_len", "seq_len_past_the_positions"])
def test_alignment_checkpoint_bad_values_exit_3(align_dir, tmp_path, edit):
    params, meta = load_checkpoint(align_dir / "s1" / "align.ckpt",
                                   "alignment_spec")
    edit(params, meta)
    save_checkpoint(tmp_path / "align.ckpt", params, meta)
    assert main(["train", "align-2",
                 "--corpus", str(align_dir / "image-text.jsonl"),
                 "--init", str(tmp_path / "align.ckpt"),
                 "--out", str(tmp_path / "out")]) == EXIT_INVALID_SPEC


# ---------------------------------------------------------------------------
# decode / bench / ablate


def test_decode_round_trip(workdir, tmp_path):
    assert main(["decode",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--contexts", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    from unitforge.data import read_jsonl
    records = read_jsonl(tmp_path / "decoded.jsonl")
    assert len(records) == 8
    for rec in records:
        assert rec["kind"] == "decoded_units"
        assert rec["sequential_steps"] == 1  # parallel decoder


@pytest.mark.parametrize("features", [
    encode_f32(np.zeros((40, 64))), encode_f32(np.zeros((0, 64))),
    encode_f32(np.zeros((8, 63))), encode_f32(np.zeros(64)),
    {"shape": [3, 64], "data": ""},
], ids=["over_cap", "empty", "wrong_width", "one_dim", "unreadable"])
def test_decode_rejects_bad_context_before_decoding(workdir, tmp_path, caplog,
                                                    features):
    # the decoder was trained with max_context=32 and model_dim=64
    good = read_jsonl(workdir / "sup" / "supervised.jsonl")[0]
    bad = dict(good, id="bad-ctx", features=features)
    contexts = tmp_path / "contexts.jsonl"
    write_jsonl(contexts, [good, bad])
    out = tmp_path / "out"
    assert main(["decode",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--contexts", str(contexts),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert "'bad-ctx'" in caplog.text
    assert not (out / "decoded.jsonl").exists()


def test_decode_rejects_record_without_id(workdir, tmp_path):
    good = read_jsonl(workdir / "sup" / "supervised.jsonl")[0]
    nameless = {k: v for k, v in good.items() if k != "id"}
    contexts = tmp_path / "contexts.jsonl"
    write_jsonl(contexts, [good, nameless])
    out = tmp_path / "out"
    assert main(["decode",
                 "--checkpoint", str(workdir / "nar" / "decoder.ckpt"),
                 "--contexts", str(contexts),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not (out / "decoded.jsonl").exists()


def test_bench_latency_report(workdir, tmp_path):
    assert main(["bench-latency",
                 "--checkpoint-ar", str(workdir / "ar" / "decoder.ckpt"),
                 "--checkpoint-nar", str(workdir / "nar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "latency.csv")
    assert rows[-1][0] == "median"
    for row in rows[1:-1]:
        assert row[3] == "1"  # nar_steps


def test_bench_latency_checkpoint_order(workdir, tmp_path):
    assert main(["bench-latency",
                 "--checkpoint-ar", str(workdir / "nar" / "decoder.ckpt"),
                 "--checkpoint-nar", str(workdir / "ar" / "decoder.ckpt"),
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_KIND_MISMATCH


def test_ablate_tiny_grid(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", grid_experts="1,2", grid_layers="1",
                    steps=3, batch=2, max_context=32)
    assert main(["ablate",
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "ablation.csv")
    assert rows[0][0] == "experts"
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert all(r[7] == "" for r in rows[1:])  # no cell errors


def test_ablate_workers_write_the_same_report(workdir, tmp_path):
    # two cells, so that --workers 2 starts two processes and no more
    cfg = write_cfg(tmp_path / "g.cfg", grid_experts=1, grid_layers=1,
                    grid_tgm="yes,no", steps=3, batch=2, max_context=32)
    for workers in ("1", "2"):
        assert main(["ablate", "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                     "--config", cfg, "--workers", workers,
                     "--out", str(tmp_path / workers)]) == EXIT_OK
    for name in ("ablation.csv", "ablation.txt"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()
    rows = read_csv(tmp_path / "1" / "ablation.csv")
    assert [r[2] for r in rows[1:]] == ["on", "off"]
    assert all(r[7] == "" for r in rows[1:])


def test_ablate_wrong_corpus_kind(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", grid_experts=1, grid_layers=1,
                    steps=1, batch=2, max_context=32)
    out = tmp_path / "out"
    assert main(["ablate", "--corpus", str(workdir / "pref" / "preference.jsonl"),
                 "--config", cfg, "--out", str(out)]) == EXIT_KIND_MISMATCH
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["eval", "uer", "--checkpoint", "nar"],
    ["eval", "emotion-acc", "--checkpoint", "nar"],
    ["bench-latency", "--checkpoint-ar", "ar", "--checkpoint-nar", "nar"],
], ids=["uer", "emotion-acc", "bench-latency"])
def test_report_over_no_feasible_context_exits_3(workdir, tmp_path, argv):
    records = read_jsonl(workdir / "sup" / "supervised.jsonl")
    for rec in records:
        rec["units"] = list(range(1, 60)) * 3  # too long for every context
    write_jsonl(tmp_path / "long.jsonl", records)
    argv = [str(workdir / a / "decoder.ckpt") if a in ("ar", "nar") else a
            for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--corpus", str(tmp_path / "long.jsonl"),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


def test_workers_accepted_only_by_ablate(capsys):
    args = build_parser().parse_args(["ablate", "--corpus", "c.jsonl",
                                      "--workers", "2"])
    assert args.workers == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "decoder-nar", "--corpus", "c.jsonl",
              "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


DECODER_ARGS = ["--checkpoint", "c.ckpt", "--contexts", "x.jsonl"]
BENCH_ARGS = ["--checkpoint-ar", "a.ckpt", "--checkpoint-nar", "n.ckpt",
              "--corpus", "c.jsonl"]
SCORE_ARGS = ["--checkpoint", "c.ckpt", "--corpus", "c.jsonl"]
SCORING_METRICS = ("uer", "emotion-acc", "pref-acc", "zero-shot")


@pytest.mark.parametrize("argv, flag", [
    (["gen-data", "--format", "text"], "--format"),
    (["decode", *DECODER_ARGS, "--format", "text"], "--format"),
    (["eval", "uer", *SCORE_ARGS, "--seed", "1"], "--seed"),
    (["bench-latency", *BENCH_ARGS, "--seed", "1"], "--seed"),
    (["decode", *DECODER_ARGS, "--seed", "1"], "--seed"),
    (["bench-latency", *BENCH_ARGS, "--config", "c.cfg"], "--config"),
    (["decode", *DECODER_ARGS, "--config", "c.cfg"], "--config"),
    *[(["eval", metric, *SCORE_ARGS, "--config", "c.cfg"], "--config")
      for metric in SCORING_METRICS],
    (["eval", "partition-check", "--corpus", "c.jsonl"], "--corpus"),
    *[(["train", stage, "--corpus", "c.jsonl", "--init", "x.ckpt"], "--init")
      for stage in ("decoder-nar", "decoder-ar", "align-1")],
], ids=["gen-data-format", "decode-format", "eval-seed", "bench-latency-seed",
        "decode-seed", "bench-latency-config", "decode-config",
        "eval-uer-config", "eval-emotion-acc-config", "eval-pref-acc-config",
        "eval-zero-shot-config", "eval-partition-check-corpus",
        "train-decoder-nar-init", "train-decoder-ar-init", "train-align-1-init"])
def test_subcommand_rejects_flags_it_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--checkpoint", "--corpus"])
@pytest.mark.parametrize("metric", SCORING_METRICS)
def test_scoring_eval_requires_checkpoint_and_corpus(capsys, tmp_path, metric,
                                                     missing):
    given = SCORE_ARGS[2:] if missing == "--checkpoint" else SCORE_ARGS[:2]
    with pytest.raises(SystemExit) as exc:
        main(["eval", metric, *given, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert missing in capsys.readouterr().err


def test_subcommands_keep_the_flags_they_read():
    parser = build_parser()
    for argv in (["gen-data", "--seed", "1", "--config", "c.cfg"],
                 ["train", "dpo", "--corpus", "c", "--seed", "1", "--config",
                  "c.cfg", "--format", "text"],
                 ["train", "align-2", "--corpus", "c", "--init", "i.ckpt"],
                 ["eval", "uer", *SCORE_ARGS, "--format", "text"],
                 ["eval", "partition-check", "--config", "c.cfg", "--format", "text"],
                 ["bench-latency", *BENCH_ARGS, "--format", "text"],
                 ["ablate", "--corpus", "c", "--seed", "1", "--config", "c.cfg",
                  "--format", "text"],
                 ["decode", *DECODER_ARGS]):
        assert parser.parse_args([*argv, "--out", "o"]).out == "o"


# ---------------------------------------------------------------------------
# bad config and sidecar values


@pytest.mark.parametrize("target, key, value", [
    ("decoder-nar", "heads", 0), ("decoder-nar", "dim", 0),
    ("decoder-nar", "layers", "abc"), ("decoder-nar", "lr", "abc"),
    ("decoder-nar", "warmup", "x"), ("decoder-nar", "batch", 0),
    ("decoder-nar", "lr", -1), ("decoder-nar", "steps", -1),
    ("decoder-nar", "steps", 0), ("decoder-nar", "warmup", 5),
    ("align-1", "heads", 0), ("align-1", "d", 0), ("align-1", "layers", "abc"),
    ("align-1", "steps", "abc"), ("align-1", "pretrain_steps", "x"),
    ("align-1", "batch", 0),
    ("dpo", "beta", 0), ("dpo", "log_every", 0),
    ("gen-data", "len_a", "2,3,4"), ("ablate", "grid_experts", "1,x"),
    ("ablate", "heads", 0),
    ("gen-data", "len_a", "6,2"), ("gen-data", "size", -3),
    ("speech-text", "seq_len", "9,3"), ("speech-text", "n_speech_text", 0),
    ("image-text", "image_dim", 0),
    ("decoder-nar", "max_context", 8), ("decoder-nar", "dim", 32),
    ("partition-check", "t", 0), ("partition-check", "v", 0),
    ("partition-check", "v", -1),
    ("sidecar", "heads", 0), ("sidecar", "model_dim", -1),
    ("gen-data", "feature_dim", 0), ("gen-data", "n_content", 0),
    ("gen-data", "n_question", 0), ("gen-data", "seed", -1),
    ("gen-data", "world_seed", -2), ("speech-text", "seed", -1),
    ("speech-text", "world_seed", -2), ("image-text", "n_objects", 0),
    ("image-text", "n_colors", 0), ("image-text", "n_sizes", 0),
    ("image-text", "n_fillers", 0), ("wide-text", "text_vocab", 41),
    ("gen-data", "noise", "nan"), ("decoder-nar", "lr", "inf"),
    ("decoder-nar", "weight_decay", "nan"), ("ablate", "grid_tgm", "maybe"),
    ("ablate", "grid_experts", 0), ("ablate", "experts", 1),
    ("decoder-nar", "seed", -1), ("decoder-nar", "weight_decay", -1),
    ("align-1", "seed", -1), ("dpo", "seed", -1), ("ablate", "seed", -1),
    ("sidecar", "seed", -1), ("decoder-nar", "text_vocab", -3),
    ("decoder-nar", "vocab", 1), ("decoder-nar", "max_context", -3),
    ("sidecar", "vocab_nar", -3),
], ids=lambda v: str(v))
def test_bad_config_or_sidecar_value_exits_3(workdir, align_dir, tmp_path,
                                             target, key, value):
    out = tmp_path / "out"
    if target == "sidecar":
        ckpt = tmp_path / "decoder.ckpt"
        for name in ("decoder.ckpt", "decoder.ckpt.meta.json"):
            shutil.copy(workdir / "nar" / name, tmp_path / name)
        _edit_sidecar(ckpt, lambda m: m.update({key: value}))
        argv = ["eval", "uer", "--checkpoint", str(ckpt),
                "--corpus", str(workdir / "sup" / "supervised.jsonl")]
    elif target == "decoder-nar":
        cfg = dict(layers=1, experts=1, steps=1, batch=2, lr="1e-3",
                   max_context=32)
        argv = ["train", target, "--corpus",
                str(workdir / "sup" / "supervised.jsonl")]
    elif target == "dpo":
        cfg = dict(steps=1, batch=2, lr="1e-4", log_every=1)
        argv = ["train", target, "--corpus",
                str(workdir / "pref" / "preference.jsonl"),
                "--init", str(workdir / "nar" / "decoder.ckpt")]
    elif target == "gen-data":
        cfg = dict(kind="supervised", size=4)
        argv = [target]
    elif target in ("speech-text", "image-text"):
        cfg = dict(kind=target, n_speech_text=4, n_image_text=4)
        argv = ["gen-data"]
    elif target == "partition-check":
        cfg = dict(t=2, v=2)
        argv = ["eval", target]
    elif target == "wide-text":
        cfg = dict(vocab=160, steps=2, batch=2, layers=1, experts=1)
        argv = ["train", "decoder-nar", "--corpus", wide_text_corpus(tmp_path)]
    elif target == "ablate":
        cfg = dict(steps=1, batch=2, max_context=32)
        argv = [target, "--corpus", str(workdir / "sup" / "supervised.jsonl")]
    else:
        cfg = dict(steps=1, batch=2, pretrain_steps=1, d=8, layers=1)
        argv = ["train", target, "--corpus", str(align_dir / "speech-text.jsonl")]
    if target != "sidecar":
        argv += ["--config", write_cfg(tmp_path / "a.cfg", **{**cfg, key: value})]
    assert main([*argv, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("keys", [dict(dim=64, model_dim=64),
                                  dict(vocab=64, vocab_nar=64),
                                  {"lambda": 4, "upsample": 4}],
                         ids=["dim-model_dim", "vocab-vocab_nar",
                              "lambda-upsample"])
@pytest.mark.parametrize("command", ["train-decoder-nar", "ablate"])
def test_field_set_under_two_keys_exits_3(workdir, tmp_path, command, keys):
    # each pair sets one decoder field twice, to its default value
    cfg = dict(steps=1, batch=2, max_context=32, **keys)
    if command == "ablate":
        cfg.update(grid_experts=1, grid_layers=1)
    out = tmp_path / "out"
    assert main([*command.split("-", 1), "--corpus",
                 str(workdir / "sup" / "supervised.jsonl"),
                 "--config", write_cfg(tmp_path / "a.cfg", **cfg),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


def test_gen_data_refuses_sequences_longer_than_the_backbone(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", kind="speech-text", n_speech_text=4,
                    seq_len="25,25", seed=2)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) \
        == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


def test_copy_task_longer_than_the_backbone_exits_3(tmp_path):
    # gen-data refuses seq_len 25,25, so its sidecar is edited to say so
    cfg = write_cfg(tmp_path / "g.cfg", kind="speech-text", n_speech_text=4,
                    seq_len="24,24", seed=2)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    sidecar = tmp_path / "speech-text.jsonl.manifest.json"
    manifest = json.loads(sidecar.read_text())
    manifest["spec"]["seq_len"] = [25, 25]
    sidecar.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["train", "align-1",
                 "--corpus", str(tmp_path / "speech-text.jsonl"),
                 "--config", write_cfg(tmp_path / "s1.cfg", steps=1, batch=2,
                                       pretrain_steps=1, d=8, layers=1),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


# ---------------------------------------------------------------------------
# records that cannot feed their command


@pytest.fixture(scope="module")
def unfit(workdir, align_dir, tmp_path_factory):
    """Paths by name: copies of the fixtures' corpora with records that
    cannot feed a command, the configs, and the models those commands
    load, of which only ``nar12`` (``max_context=12``) is trained here."""
    root = tmp_path_factory.mktemp("unfit")
    sup = workdir / "sup" / "supervised.jsonl"
    pref = workdir / "pref" / "preference.jsonl"
    paths = {"nar": workdir / "nar" / "decoder.ckpt",
             "ar": workdir / "ar" / "decoder.ckpt",
             "s1": align_dir / "s1" / "align.ckpt",
             "supervised": sup, "preference": pref,
             **{kind: align_dir / f"{kind}.jsonl"
                for kind in ("speech-text", "image-text", "instruct")},
             "train.cfg": workdir / "train.cfg",
             "steps.cfg": write_cfg(root / "steps.cfg", steps=1, batch=2),
             "grid.cfg": write_cfg(root / "grid.cfg", grid_experts=1,
                                   grid_layers=1, steps=1, batch=2,
                                   max_context=32),
             "s1.cfg": write_cfg(root / "s1.cfg", steps=1, batch=2,
                                 pretrain_steps=1, d=8, layers=1)}

    def save(name, records):
        paths[name] = root / f"{name}.jsonl"
        write_jsonl(paths[name], records)

    def copy(name, src, edit, every=False):
        records = read_jsonl(src)
        for rec in records if every else records[-1:]:
            edit(rec)
        save(name, records)

    def features(rec, rows, width):
        rec["features"] = encode_f32(np.resize(decode_f32(rec["features"]),
                                               (rows, width)))

    for name, src in (("sup", sup), ("pref", pref)):
        copy(f"{name}-featureless", src, lambda rec: rec.pop("features"))
        copy(f"{name}-narrow", src, lambda rec: features(rec, 8, 32))
    copy("pref-13rows", pref, lambda rec: features(rec, 13, 64), every=True)
    copy("speech-text-no-tokens", align_dir / "speech-text.jsonl",
         lambda rec: rec.pop("tokens"))
    copy("image-text-no-features", align_dir / "image-text.jsonl",
         lambda rec: rec.pop("features"))
    copy("instruct-no-q_tokens", align_dir / "instruct.jsonl",
         lambda rec: rec.pop("q_tokens"))
    copy("image-text-5-wide", align_dir / "image-text.jsonl",
         lambda rec: features(rec, 3, 5))
    copy("image-text-49-rows", align_dir / "image-text.jsonl",
         lambda rec: features(rec, 49, 24))
    copy("image-text-shape-not-data", align_dir / "image-text.jsonl",
         lambda rec: rec["features"].update(shape=[4, 24]))
    copy("pref-no-units_w", pref, lambda rec: rec.pop("units_w"))
    copy("pref-tie", pref, lambda rec: rec.update(units_l=rec["units_w"]))
    # a probe corpus: instruct records with spoken twins of the questions
    probe = read_jsonl(align_dir / "instruct.jsonl")
    for rec, twin in zip(probe, read_jsonl(align_dir / "speech-text.jsonl")):
        rec["q_speech"] = twin["features"]
    del probe[-1]["image"]
    save("probe-no-image", probe)

    model = OmniModel.load(paths["s1"])  # marked done with stage II, untrained
    model.completed_stages.add("II")
    paths["s2"] = root / "s2.ckpt"
    model.save(paths["s2"])
    save("sup-short", [rec for rec in read_jsonl(sup)
                       if len(decode_f32(rec["features"])) <= 12])
    cfg = write_cfg(root / "nar12.cfg", layers=1, experts=1, steps=1, batch=2,
                    max_context=12)
    assert main(["train", "decoder-nar", "--corpus", str(paths["sup-short"]),
                 "--config", cfg, "--out", str(root / "nar12")]) == EXIT_OK
    paths["nar12"] = root / "nar12" / "decoder.ckpt"
    return paths


UNFIT = {  # case -> argv; a <name> is a path of the ``unfit`` fixture
    "featureless-train-decoder-nar": ["train", "decoder-nar", "--corpus",
                                      "<sup-featureless>", "--config",
                                      "<train.cfg>"],
    "featureless-train-dpo": ["train", "dpo", "--corpus", "<pref-featureless>",
                              "--init", "<nar>", "--config", "<steps.cfg>"],
    "featureless-eval-uer": ["eval", "uer", "--checkpoint", "<nar>",
                             "--corpus", "<sup-featureless>"],
    "featureless-eval-emotion-acc": ["eval", "emotion-acc", "--checkpoint",
                                     "<nar>", "--corpus", "<sup-featureless>"],
    "featureless-eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar>",
                                  "--corpus", "<pref-featureless>"],
    "featureless-bench-latency": ["bench-latency", "--checkpoint-ar", "<ar>",
                                  "--checkpoint-nar", "<nar>",
                                  "--corpus", "<sup-featureless>"],
    "featureless-ablate": ["ablate", "--corpus", "<sup-featureless>",
                           "--config", "<grid.cfg>"],
    "narrow-eval-uer": ["eval", "uer", "--checkpoint", "<nar>",
                        "--corpus", "<sup-narrow>"],
    "narrow-eval-emotion-acc": ["eval", "emotion-acc", "--checkpoint", "<nar>",
                                "--corpus", "<sup-narrow>"],
    "narrow-eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar>",
                             "--corpus", "<pref-narrow>"],
    "narrow-bench-latency": ["bench-latency", "--checkpoint-ar", "<ar>",
                             "--checkpoint-nar", "<nar>",
                             "--corpus", "<sup-narrow>"],
    "narrow-train-dpo": ["train", "dpo", "--corpus", "<pref-narrow>",
                         "--init", "<nar>", "--config", "<steps.cfg>"],
    "narrow-train-decoder-nar": ["train", "decoder-nar", "--corpus",
                                 "<sup-narrow>", "--config", "<train.cfg>"],
    "narrow-decode": ["decode", "--checkpoint", "<nar>",
                      "--contexts", "<sup-narrow>"],
    "over-cap-train-dpo": ["train", "dpo", "--corpus", "<pref-13rows>",
                           "--init", "<nar12>", "--config", "<steps.cfg>"],
    "over-cap-eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar12>",
                               "--corpus", "<pref-13rows>"],
    "train-align-1-no-tokens": ["train", "align-1", "--corpus",
                                "<speech-text-no-tokens>", "--config",
                                "<s1.cfg>"],
    "train-align-2-no-features": ["train", "align-2", "--corpus",
                                  "<image-text-no-features>", "--init", "<s1>",
                                  "--config", "<steps.cfg>"],
    "train-align-3-no-q_tokens": ["train", "align-3", "--corpus",
                                  "<instruct-no-q_tokens>", "--init", "<s2>",
                                  "--config", "<steps.cfg>"],
    "eval-zero-shot-no-image": ["eval", "zero-shot", "--checkpoint", "<s1>",
                                "--corpus", "<probe-no-image>"],
    "train-align-2-5-wide-features": ["train", "align-2", "--corpus",
                                      "<image-text-5-wide>", "--init", "<s1>",
                                      "--config", "<steps.cfg>"],
    "train-align-2-49-rows": ["train", "align-2", "--corpus",
                              "<image-text-49-rows>", "--init", "<s1>",
                              "--config", "<steps.cfg>"],
    "train-align-2-shape-not-data": ["train", "align-2", "--corpus",
                                     "<image-text-shape-not-data>", "--init",
                                     "<s1>", "--config", "<steps.cfg>"],
    "no-units_w-train-dpo": ["train", "dpo", "--corpus", "<pref-no-units_w>",
                             "--init", "<nar>", "--config", "<steps.cfg>"],
    "no-units_w-eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar>",
                                 "--corpus", "<pref-no-units_w>"],
    "tie-train-dpo": ["train", "dpo", "--corpus", "<pref-tie>", "--init", "<nar>",
                      "--config", "<steps.cfg>"],
    "tie-eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar>",
                          "--corpus", "<pref-tie>"],
}


@pytest.mark.parametrize("case", UNFIT)
def test_record_that_cannot_feed_its_command_exits_3(unfit, tmp_path, case):
    # the last record (every one for over-cap) lacks a field its command
    # reads, or holds a 32-wide context for a 64-wide decoder, a 13-row
    # context for a decoder capped at 12, 5-wide image features for a
    # 24-wide projector, 49 feature rows for a 48-position backbone, a
    # shape of 4 rows over data of 3, or a preference pair whose winner
    # is its loser
    argv = [str(unfit[a[1:-1]]) if a.startswith("<") else a
            for a in UNFIT[case]]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


DROP = object()  # a MALFORMED value: the field is removed
MALFORMED = [  # (field, its value in every record, the commands that read it)
    ("units", DROP, ("train-decoder-nar", "train-decoder-ar", "eval-uer",
                     "eval-emotion-acc", "bench-latency", "ablate")),
    ("text_a", DROP, ("train-decoder-nar", "train-decoder-ar", "ablate")),
    ("text_a", [], ("train-decoder-nar", "train-decoder-ar", "ablate")),
    ("text_a", "ab", ("train-decoder-nar", "train-decoder-ar", "ablate")),
    ("units", [999], ("train-decoder-nar", "train-decoder-ar", "eval-uer",
                      "bench-latency", "ablate")),
    ("units", [1.5, 2], ("train-decoder-nar", "train-decoder-ar", "eval-uer")),
    ("units", [0, 1], ("train-decoder-nar", "train-decoder-ar", "eval-uer")),
    ("units", [], ("train-decoder-nar", "eval-uer")),
    ("units", "ab", ("train-decoder-ar",)),
    ("units_w", [999], ("train-dpo", "eval-pref-acc")),
    ("units_l", [999], ("train-dpo", "eval-pref-acc")),
    ("units_w", "ab", ("train-dpo", "eval-pref-acc")),
    ("units_w", [1.5, 2], ("train-dpo",)),
    ("units_w", list(range(1, 61)) * 4, ("train-dpo", "eval-pref-acc")),
    ("emotion", DROP, ("eval-emotion-acc",)),
    ("lang", DROP, ("eval-emotion-acc",)),
    ("id", DROP, ("bench-latency",)),
    *((field, value, (command,))
      for field, command in (("tokens", "train-align-1"),
                             ("caption", "train-align-2"),
                             ("q_tokens", "train-align-3"),
                             ("a_tokens", "train-align-3"))
      for value in (5, [999], [-1], "ab", [1.5])),
]
READERS = {  # command -> its argv but --corpus; a <name> is a path of ``unfit``
    "train-decoder-nar": ["train", "decoder-nar", "--config", "<train.cfg>"],
    "train-decoder-ar": ["train", "decoder-ar", "--config", "<train.cfg>"],
    "eval-uer": ["eval", "uer", "--checkpoint", "<nar>"],
    "eval-emotion-acc": ["eval", "emotion-acc", "--checkpoint", "<nar>"],
    "bench-latency": ["bench-latency", "--checkpoint-ar", "<ar>",
                      "--checkpoint-nar", "<nar>"],
    "ablate": ["ablate", "--config", "<grid.cfg>"],
    "decode": ["decode", "--checkpoint", "<nar>"],
    "train-dpo": ["train", "dpo", "--init", "<nar>", "--config", "<steps.cfg>"],
    "eval-pref-acc": ["eval", "pref-acc", "--checkpoint", "<nar>"],
    "train-align-1": ["train", "align-1", "--config", "<s1.cfg>"],
    "train-align-2": ["train", "align-2", "--init", "<s1>",
                      "--config", "<steps.cfg>"],
    "train-align-3": ["train", "align-3", "--init", "<s2>",
                      "--config", "<steps.cfg>"],
}
READER_CORPUS = {"train-dpo": "preference", "eval-pref-acc": "preference",
                 "train-align-1": "speech-text", "train-align-2": "image-text",
                 "train-align-3": "instruct"}  # the others: "supervised"


def run_reader(unfit, command, records, out):
    """Exit code of ``command`` over ``records`` written to ``out``'s
    parent, with its report and model files going to ``out``."""
    corpus = out.parent / "corpus.jsonl"
    write_jsonl(corpus, records)
    argv = [str(unfit[a[1:-1]]) if a.startswith("<") else a
            for a in READERS[command]]
    flag = "--contexts" if command == "decode" else "--corpus"
    return main([*argv, flag, str(corpus), "--out", str(out)])


def reader_corpus(unfit, command):
    """The records of the fixture corpus that ``command`` reads."""
    return read_jsonl(unfit[READER_CORPUS.get(command, "supervised")])


@pytest.mark.parametrize("field, value, command", [
    (field, value, command) for field, value, commands in MALFORMED
    for command in commands], ids=lambda v: "dropped" if v is DROP
    else f"{len(v)}-ids" if isinstance(v, list) and len(v) > 9 else str(v))
def test_malformed_record_exits_3(unfit, tmp_path, field, value, command):
    # each unit field a command reads must be a non-empty list of ints the
    # decoder emits, text_a and an alignment stage's token fields ones of
    # ints their vocabulary covers; 240 preference units need more CTC
    # frames than any context gives
    records = reader_corpus(unfit, command)
    for rec in records:
        if value is DROP:
            del rec[field]
        else:
            rec[field] = value
    out = tmp_path / "out"
    assert run_reader(unfit, command, records, out) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["align-1", "decoder-nar", "dpo", "ablate"])
def test_negative_seed_flag_exits_3(workdir, align_dir, tmp_path, command):
    sup = str(workdir / "sup" / "supervised.jsonl")
    argv, cfg = {
        "align-1": (["train", command, "--corpus",
                     str(align_dir / "speech-text.jsonl")],
                    dict(steps=1, batch=2, pretrain_steps=1, d=8, layers=1)),
        "decoder-nar": (["train", command, "--corpus", sup],
                        dict(experts=1, layers=1, steps=1, batch=2,
                             max_context=32)),
        "dpo": (["train", command, "--corpus",
                 str(workdir / "pref" / "preference.jsonl"),
                 "--init", str(workdir / "nar" / "decoder.ckpt")],
                dict(steps=1, batch=2)),
        "ablate": ([command, "--corpus", sup],
                   dict(grid_experts=1, grid_layers=1, steps=1, batch=2,
                        max_context=32)),
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path / "a.cfg", **cfg),
                 "--seed", "-1", "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not any(out.iterdir())


def wide_text_corpus(root):
    """A supervised corpus whose text ids run past the default 41-id text
    vocabulary of the decoder."""
    cfg = write_cfg(root / "wide.cfg", kind="supervised", n_content=24,
                    vocab_nar=160, size=16)
    assert main(["gen-data", "--config", cfg, "--out", str(root / "wide")]) == EXIT_OK
    return str(root / "wide" / "supervised.jsonl")


@pytest.mark.parametrize("setting", [dict(text_vocab=100), dict(tgm="off")],
                         ids=["text_vocab-100", "tgm-off"])
def test_decoder_trains_on_text_its_vocab_covers(tmp_path, setting):
    cfg = write_cfg(tmp_path / "t.cfg", vocab=160, steps=2, batch=2, layers=1,
                    experts=1, **setting)
    assert main(["train", "decoder-nar", "--corpus", wide_text_corpus(tmp_path),
                 "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("t, v", [(12, 10), (21, 2)])
def test_partition_check_refuses_more_than_a_million_paths(tmp_path, t, v):
    out = tmp_path / "out"
    assert main(["eval", "partition-check",
                 "--config", write_cfg(tmp_path / "p.cfg", t=t, v=v),
                 "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not out.exists() or not any(out.iterdir())


def test_partition_check_rejects_keys_other_than_t_and_v(tmp_path):
    for cfg in (dict(t=2, v=2, bogus=1), dict(seed=1), dict(t="x")):
        assert main(["eval", "partition-check",
                     "--config", write_cfg(tmp_path / "p.cfg", **cfg),
                     "--out", str(tmp_path)]) == EXIT_INVALID_SPEC


# ---------------------------------------------------------------------------
# reports and eval without models


def test_partition_check_sums_to_one(tmp_path):
    cfg = write_cfg(tmp_path / "p.cfg", t=3, v=2)
    assert main(["eval", "partition-check", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "partition_check.csv")
    total = float(dict((r[0], r[1]) for r in rows[1:])["total_probability"])
    assert abs(total - 1.0) < 1e-6


def test_reports_dual_emit(workdir):
    out = workdir / "nar"
    assert (out / "loss_curve.csv").exists()
    assert (out / "loss_curve.txt").exists()
    txt = (out / "loss_curve.txt").read_text().splitlines()
    assert txt[0].split() == ["step", "loss", "mode", "tgm_flag"]


TRAIN_OUT = ["decoder.ckpt", "loss_curve.csv", "loss_curve.txt"]
ALIGN_OUT = ["align.ckpt", "metrics.csv", "metrics.txt"]


def test_manifest_digests_inputs(workdir, align_dir, tmp_path):
    """Every run manifest digests exactly the file-valued flags given and
    lists the files its command wrote; a checkpoint's sidecar goes with
    its checkpoint."""
    sup, pref = (str(workdir / c) for c in ("sup/supervised.jsonl",
                                            "pref/preference.jsonl"))
    nar, ar = (str(workdir / m / "decoder.ckpt") for m in ("nar", "ar"))
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2)
    runs = [  # (out dir, file-valued flags given, files written)
        (workdir / "sup", [str(workdir / "sup.cfg")],
         ["supervised.jsonl", "supervised.jsonl.manifest.json"]),
        (workdir / "pref", [str(workdir / "pref.cfg")],
         ["preference.jsonl", "preference.jsonl.manifest.json"]),
        (workdir / "nar", [str(workdir / "train.cfg"), sup], TRAIN_OUT),
        (workdir / "ar", [str(workdir / "train.cfg"), sup], TRAIN_OUT),
        (align_dir / "s1", [str(align_dir / "s1.cfg"),
                            str(align_dir / "speech-text.jsonl")], ALIGN_OUT),
    ]
    for name, argv, wrote in [
        ("uer", ["eval", "uer", "--checkpoint", nar, "--corpus", sup],
         ["uer.csv", "uer.txt"]),
        ("partition", ["eval", "partition-check", "--config",
                       write_cfg(tmp_path / "p.cfg", t=2, v=2)],
         ["partition_check.csv", "partition_check.txt"]),
        ("decode", ["decode", "--checkpoint", nar, "--contexts", sup],
         ["decoded.jsonl"]),
        ("bench", ["bench-latency", "--checkpoint-ar", ar, "--checkpoint-nar",
                   nar, "--corpus", sup], ["latency.csv", "latency.txt"]),
        ("dpo", ["train", "dpo", "--corpus", pref, "--init", nar, "--config",
                 write_cfg(tmp_path / "d.cfg", steps=1, batch=2, log_every=1)],
         ["policy.ckpt", "dpo_metrics.csv", "dpo_metrics.txt"]),
        ("ablate", ["ablate", "--corpus", sup, "--config",
                    write_cfg(tmp_path / "g.cfg", grid_experts=1, grid_layers=1,
                              steps=1, batch=2, max_context=32)],
         ["ablation.csv", "ablation.txt"]),
        ("s2", ["train", "align-2", "--corpus", str(align_dir / "image-text.jsonl"),
                "--init", str(align_dir / "s1" / "align.ckpt"), "--config", cfg],
         ALIGN_OUT),
        ("s3", ["train", "align-3", "--corpus", str(align_dir / "instruct.jsonl"),
                "--init", str(tmp_path / "s2" / "align.ckpt"), "--config", cfg],
         ALIGN_OUT),
    ]:
        assert main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK
        given = [v for k, v in zip(argv, argv[1:]) if k.startswith("--")]
        runs.append((tmp_path / name, given, wrote))
    for out, given, wrote in runs:
        run = json.loads((out / "run_manifest.json").read_text())
        assert run["inputs"] == {p: file_digest(p) for p in given}, out
        assert run["outputs"] == sorted(str(out / name) for name in wrote), out
        sidecars = [f"{n}.meta.json" for n in wrote if n.endswith(".ckpt")]
        assert sorted(os.listdir(out)) == sorted(
            wrote + sidecars + ["run_manifest.json"]), out


# ---------------------------------------------------------------------------
# property tests of user input: a malformed value exits 0 or 3, never 1


FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
JSON_VALUE = st.one_of(st.just([]), st.text(max_size=3), st.floats(),
                       st.integers(-3, 300))
RECORD_VALUE = st.one_of(st.just(DROP), JSON_VALUE,
                         st.lists(JSON_VALUE, min_size=1, max_size=4))


@FUZZ
@given(command=st.sampled_from(sorted(READERS)), data=st.data())
def test_one_malformed_field_of_one_record_exits_0_or_3(unfit, command,
                                                        data):
    # kind is left alone: a corpus of another kind exits 5 by design
    records = reader_corpus(unfit, command)
    rec = data.draw(st.sampled_from(records))
    field = data.draw(st.sampled_from(sorted(set(rec) - {"kind"})))
    value = data.draw(RECORD_VALUE)
    if value is DROP:
        del rec[field]
    else:
        rec[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        code = run_reader(unfit, command, records, Path(tmp) / "out")
    assert code in (EXIT_OK, EXIT_INVALID_SPEC)


DIMENSION = st.integers(-3, 64)  # no example allocates a large array
CONFIG_VALUE = st.one_of(DIMENSION, st.floats(-3, 64), st.booleans(),
                         st.sampled_from(["abc", "2,3", ""]))
LR = st.one_of(st.floats(0, 0.1, exclude_min=True), st.integers(-3, 0),
               st.sampled_from(["abc", "nan"]))  # no example diverges


@FUZZ
@given(mode=st.sampled_from(["nar", "ar"]),
       key=st.sampled_from(sorted({*DECODER_SCHEDULE[1], *DECODER_MODEL[1]})),
       data=st.data())
def test_one_bad_decoder_config_value_exits_0_or_3(workdir, mode, key, data):
    # upsample (lambda) multiplies the NAR rows, and attention grows with
    # their square, so it stays small
    value = data.draw(LR if key == "lr" else st.integers(-3, 8)
                      if key in ("upsample", "lambda") else CONFIG_VALUE)
    cfg = {**dict(layers=1, experts=1, steps=1, batch=2, max_context=32),
           key: value}
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["train", f"decoder-{mode}",
                     "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                     "--config", write_cfg(Path(tmp) / "a.cfg", **cfg),
                     "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_INVALID_SPEC)


@FUZZ
@given(mode=st.sampled_from(["nar", "ar"]), data=st.data())
def test_one_bad_decoder_sidecar_value_exits_0_or_3(workdir, mode, data):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "decoder.ckpt"
        for name in ("decoder.ckpt", "decoder.ckpt.meta.json"):
            shutil.copy(workdir / mode / name, Path(tmp) / name)
        meta = json.loads((Path(tmp) / "decoder.ckpt.meta.json").read_text())
        key = data.draw(st.sampled_from(sorted(meta)))
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.text(max_size=3), st.floats(),
            DIMENSION, st.sampled_from(["nar", "ar"]),
            st.lists(DIMENSION, max_size=3)))
        _edit_sidecar(ckpt, lambda m: m.update({key: value}))
        code = main(["eval", "uer", "--checkpoint", str(ckpt),
                     "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                     "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_INVALID_SPEC)
