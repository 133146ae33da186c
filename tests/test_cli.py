"""CLI wiring: exit codes, manifests, reproducible artifacts, reports."""

import csv
import json
import math
import os
import shutil

import numpy as np
import pytest

from unitforge.alignment import OmniModel
from unitforge.checkpoint import load_checkpoint, save_checkpoint
from unitforge.cli import (EXIT_INVALID_SPEC, EXIT_KIND_MISMATCH,
                           EXIT_MISSING_INPUT, EXIT_OK, EXIT_SEQUENCING,
                           build_parser, file_digest, main, parse_config,
                           read_config)
from unitforge.data import CorpusSpec, encode_f32, read_jsonl, write_jsonl
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
    assert main(["train", stage,
                 "--corpus", str(align_dir / f"{ALIGN_CORPUS[stage]}.jsonl"),
                 "--init", str(align_dir / "s1" / "align.ckpt"),
                 "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not (out / "align.ckpt").exists()


@pytest.mark.parametrize("stage", ["decoder-nar", "decoder-ar", "dpo"])
def test_train_stage_rejects_unknown_config_key(workdir, tmp_path, stage):
    corpus = "pref/preference.jsonl" if stage == "dpo" else \
        "sup/supervised.jsonl"
    cfg = write_cfg(tmp_path / "a.cfg", steps=1, batch=2, wibble=3)
    out = tmp_path / "out"
    assert main(["train", stage, "--corpus", str(workdir / corpus),
                 "--init", str(workdir / "nar" / "decoder.ckpt"),
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
], ids=["stage_out_of_range", "stage_not_integer", "string_heads",
        "bad_seq_len"])
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
                    steps=3, batch=2, layers=1, experts=1, max_context=32)
    assert main(["ablate",
                 "--corpus", str(workdir / "sup" / "supervised.jsonl"),
                 "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "ablation.csv")
    assert rows[0][0] == "experts"
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert all(r[7] == "" for r in rows[1:])  # no cell errors


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


@pytest.mark.parametrize("argv, flag", [
    (["gen-data", "--format", "text"], "--format"),
    (["decode", *DECODER_ARGS, "--format", "text"], "--format"),
    (["eval", "uer", "--seed", "1"], "--seed"),
    (["bench-latency", *BENCH_ARGS, "--seed", "1"], "--seed"),
    (["decode", *DECODER_ARGS, "--seed", "1"], "--seed"),
    (["bench-latency", *BENCH_ARGS, "--config", "c.cfg"], "--config"),
    (["decode", *DECODER_ARGS, "--config", "c.cfg"], "--config"),
    *[(["eval", metric, "--config", "c.cfg"], "--config")
      for metric in ("uer", "emotion-acc", "pref-acc", "zero-shot")],
    (["eval", "partition-check", "--corpus", "c.jsonl"], "--corpus"),
], ids=["gen-data-format", "decode-format", "eval-seed", "bench-latency-seed",
        "decode-seed", "bench-latency-config", "decode-config",
        "eval-uer-config", "eval-emotion-acc-config", "eval-pref-acc-config",
        "eval-zero-shot-config", "eval-partition-check-corpus"])
def test_subcommand_rejects_flags_it_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_subcommands_keep_the_flags_they_read():
    parser = build_parser()
    for argv in (["gen-data", "--seed", "1", "--config", "c.cfg"],
                 ["train", "dpo", "--corpus", "c", "--seed", "1", "--config",
                  "c.cfg", "--format", "text"],
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
        cfg = dict(steps=1, batch=2, layers=1, experts=1, max_context=32)
        argv = [target, "--corpus", str(workdir / "sup" / "supervised.jsonl")]
    else:
        cfg = dict(steps=1, batch=2, pretrain_steps=1, d=8, layers=1)
        argv = ["train", target, "--corpus", str(align_dir / "speech-text.jsonl")]
    if target != "sidecar":
        argv += ["--config", write_cfg(tmp_path / "a.cfg", **{**cfg, key: value})]
    assert main([*argv, "--out", str(out)]) == EXIT_INVALID_SPEC
    assert not out.exists() or not any(out.iterdir())


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
