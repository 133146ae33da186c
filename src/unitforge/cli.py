"""Command-line orchestration: corpus generation, staged training,
preference optimization, decoding, evaluation, ablation grids, and the
latency benchmark.

``main`` runs every command the same way: it creates ``--out``, calls
the command's handler from ``HANDLERS``, which returns the paths it
wrote, and writes ``run_manifest.json`` next to them with the digests of
the file-valued flags given (``FILE_FLAGS``). Handlers read their config
file through ``read_config``, which rejects a key the command does not
read, a mistyped value, a tuple of the wrong length or a value outside
``RANGES`` before any file is written. Report content is a pure function
of the input files; wall-clock readings go to the log, never into
checksummed report fields.

Exit codes: 0 ok, 2 missing input, 3 invalid spec/config, 4 stage
sequencing violation, 5 checkpoint/corpus kind mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from . import alignment as al
from . import tensor as T
from .checkpoint import check_types
from .data import (AlignmentSpec, CorpusSpec, corpus_manifest,
                   emotion_oracle_classify, gen_emotion_eval_corpus,
                   gen_image_text_corpus, gen_instruct_corpus,
                   gen_preference_corpus, gen_speech_text_corpus,
                   gen_supervised_corpus, decode_f32, read_jsonl,
                   write_jsonl)
from .ctc import brute_force_marginals
from .decoder import (SpeechDecoder, SpeechDecoderConfig, TrainSchedule,
                      evaluate_uer, feasible, train_decoder)
from .errors import (ConfigurationError, DataError, KindMismatchError,
                     SequencingError, UnitforgeError)
from .preference import (DpoConfig, DpoSchedule, pairs_from_records,
                         preference_hits, train_dpo)

log = logging.getLogger("unitforge")

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_INVALID_SPEC = 3
EXIT_SEQUENCING = 4
EXIT_KIND_MISMATCH = 5
EXIT_CODES = ((FileNotFoundError, EXIT_MISSING_INPUT),  # first match wins
              ((ConfigurationError, DataError), EXIT_INVALID_SPEC),
              (SequencingError, EXIT_SEQUENCING),
              (KindMismatchError, EXIT_KIND_MISMATCH), (UnitforgeError, 1))
FILE_FLAGS = ("config", "corpus", "init", "checkpoint", "checkpoint_ar",
              "checkpoint_nar", "contexts")  # digested as a run's inputs

GENERATORS = {
    "supervised": gen_supervised_corpus,
    "preference": gen_preference_corpus,
    "emotion-eval": gen_emotion_eval_corpus,
    "speech-text": gen_speech_text_corpus,
    "image-text": gen_image_text_corpus,
    "instruct": gen_instruct_corpus,
    "probe": lambda spec: gen_instruct_corpus(spec, with_speech=True,
                                              rng_seed=spec.seed + 1),
}
UNIT_KINDS = ("supervised", "preference", "emotion-eval")
ALIGN_STAGES = {"align-1": ("I", "speech_text"), "align-2": ("II", "image_text"),
                "align-3": ("III", "instruct")}  # stage, corpus kind

# read_config targets
SCHEDULE_KEYS = {"lr": "lr", "steps": "steps", "batch": "batch",
                 "warmup": "warmup_ratio"}
DECODER_SCHEDULE = (TrainSchedule, {**SCHEDULE_KEYS, "seed": "seed",
                                    "weight_decay": "weight_decay"})
DECODER_MODEL = (SpeechDecoderConfig, {
    **{f.name: f.name for f in fields(SpeechDecoderConfig) if f.name != "mode"},
    "dim": "model_dim", "vocab": "vocab_nar", "lambda": "upsample"})
DPO_SCHEDULE = (DpoSchedule, {**SCHEDULE_KEYS, "seed": "seed",
                              "log_every": "log_every"})
STAGE_SCHEDULE = (al.StageSchedule, SCHEDULE_KEYS)  # batch order keeps seed 0
PRETRAIN = ({"steps": int, "lr": float, "seed": int},
            {"pretrain_steps": "steps", "pretrain_lr": "lr", "seed": "seed"})
OMNI_MODEL = {**al.ARCH_TYPES, "seed": int}
RANGES = {  # field -> (rule, test), applied to every value a config sets
    "lr": ("> 0", lambda v: v > 0), "beta": ("> 0", lambda v: v > 0),
    "batch": (">= 1", lambda v: v >= 1), "steps": (">= 1", lambda v: v >= 1),
    "log_every": (">= 1", lambda v: v >= 1),
    "t": (">= 1", lambda v: v >= 1), "v": (">= 1", lambda v: v >= 1),
    "warmup_ratio": ("in [0, 1]", lambda v: 0 <= v <= 1),
}


# ---------------------------------------------------------------------------
# config / manifest plumbing


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    low = value.lower()
    if low in ("true", "on", "yes"):
        return True
    if low in ("false", "off", "no"):
        return False
    return value


def parse_config(path) -> dict:
    """key=value lines; '#' starts a comment."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = _coerce(value.strip())
    return cfg


def load_config(args) -> dict:
    cfg = parse_config(args.config) if args.config else {}
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def read_config(cfg: dict, *targets) -> list:
    """One dict of keyword arguments per target, split from ``cfg``.

    A target is a dataclass or a type map, read under its own field
    names, or a ``(types, keys)`` pair whose ``keys`` map config keys to
    its fields; a key may feed several targets. A key no target reads, a
    value of the wrong type (``check_types``) or outside ``RANGES``, or a
    tuple field (``"2,6"`` or a list) that is not as many integers as its
    default has, is a ``ConfigurationError``.
    """
    out, unread = [], set(cfg)
    for target in targets:
        types, keys = target if isinstance(target, tuple) else (target, None)
        sizes = {f.name: len(f.default) for f in fields(types)
                 if isinstance(f.default, tuple)} if is_dataclass(types) else {}
        types = get_type_hints(types) if is_dataclass(types) else types
        kwargs = {}
        for key, name in (keys or {name: name for name in types}).items():
            if key not in cfg:
                continue
            unread.discard(key)
            value = cfg[key]
            if name in sizes and isinstance(value, str):
                value = [_coerce(v) for v in value.split(",")]
            check_types({key: value}, {key: types[name]})
            if name in sizes and len(value) != sizes[name]:
                raise ConfigurationError(f"{key!r} must be {sizes[name]} "
                                         f"integers, got {value!r}")
            if name in RANGES and not RANGES[name][1](value):
                raise ConfigurationError(f"{key!r} must be {RANGES[name][0]}, "
                                         f"got {value!r}")
            kwargs[name] = tuple(value) if name in sizes else value
        out.append(kwargs)
    if unread:
        raise ConfigurationError(f"unknown config keys {sorted(unread)}: "
                                 f"this command does not read them")
    return out


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, args, outputs):
    given = vars(args)
    inputs = [given[f] for f in FILE_FLAGS if given.get(f)]
    body = {
        "command": command,
        "args": {k: v for k, v in sorted(given.items()) if v is not None},
        "inputs": {p: file_digest(p) for p in inputs if os.path.exists(p)},
        "outputs": sorted(outputs),
    }
    run_id = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()[:12]
    body["run_id"] = run_id
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return run_id


# ---------------------------------------------------------------------------
# reports


def write_report(out_dir, name, header, rows, fmt="csv"):
    """Dual-emit: CSV for machines, aligned columns for humans."""
    rows = [[("" if v is None else v) for v in row] for row in rows]
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    txt_path = os.path.join(out_dir, f"{name}.txt")
    table = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    with open(txt_path, "w", encoding="utf-8") as fh:
        for r in table:
            fh.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            fh.write("\n")
    shown = csv_path if fmt == "csv" else txt_path
    with open(shown, encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return [csv_path, txt_path]


# ---------------------------------------------------------------------------
# corpus + checkpoint loading helpers


def load_corpus(path, expect_kinds=None) -> list:
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus file not found: {path}")
    records = read_jsonl(path)
    if not records:
        raise DataError(f"{path}: empty corpus")
    if expect_kinds is not None:
        kinds = {rec.get("kind") for rec in records}
        if not kinds <= set(expect_kinds):
            raise KindMismatchError(
                f"{path}: corpus kind {sorted(kinds)} incompatible, "
                f"expected one of {sorted(expect_kinds)}"
            )
    return records


def _require(path, what):
    if path is None:
        raise SequencingError(f"{what} is required for this stage")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def corpus_spec_from_sidecar(corpus_path, cls):
    sidecar = str(corpus_path) + ".manifest.json"
    if not os.path.exists(sidecar):
        return cls()
    try:
        with open(sidecar, encoding="utf-8") as fh:
            spec = json.load(fh).get("spec", {})
    except (ValueError, AttributeError) as exc:
        raise DataError(f"{sidecar}: unreadable corpus sidecar ({exc})") from exc
    if not isinstance(spec, dict):
        raise DataError(f"{sidecar}: corpus spec is not a JSON object")
    return cls(**read_config(spec, cls)[0])


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args, out) -> list:
    cfg = load_config(args)
    kind = cfg.pop("kind", None)
    if kind not in GENERATORS:
        raise ConfigurationError(
            f"spec must set kind to one of {sorted(GENERATORS)}, got {kind!r}"
        )
    cls = CorpusSpec if kind in UNIT_KINDS else AlignmentSpec
    spec = cls(**read_config(cfg, cls)[0])
    records = GENERATORS[kind](spec)  # validates the spec
    corpus_path = os.path.join(out, f"{kind}.jsonl")
    write_jsonl(corpus_path, records)
    with open(corpus_path + ".manifest.json", "w") as fh:
        json.dump({"kind": kind, "spec": asdict(spec),
                   "counts": corpus_manifest(records)},
                  fh, sort_keys=True)
        fh.write("\n")
    log.info("wrote %d %s records to %s", len(records), kind, corpus_path)
    return [corpus_path, corpus_path + ".manifest.json"]


# ---------------------------------------------------------------------------
# train


def _train_decoder_stage(args, out) -> list:
    sched, model = read_config(load_config(args), DECODER_SCHEDULE, DECODER_MODEL)
    mode = args.stage.split("-", 1)[1]
    config = SpeechDecoderConfig(mode=mode, **model)
    records = load_corpus(args.corpus, ("supervised_units",))
    decoder, curve = train_decoder(records, config, TrainSchedule(**sched))
    ckpt = os.path.join(out, "decoder.ckpt")
    decoder.save(ckpt)
    tgm_flag = "on" if config.tgm else "off"
    return [ckpt] + write_report(out, "loss_curve",
                                 ["step", "loss", "mode", "tgm_flag"],
                                 [[s, f"{v:.6f}", mode, tgm_flag] for s, v in curve],
                                 args.format)


def _train_align_stage(args, out) -> list:
    stage, corpus_kind = ALIGN_STAGES[args.stage]
    # seed shapes stage I's model and pretraining; later stages accept it
    # and ignore it, since their model comes from --init
    sched, *stage_one = read_config(
        load_config(args), STAGE_SCHEDULE,
        *((PRETRAIN, OMNI_MODEL) if stage == "I" else ({"seed": int},)))
    records = load_corpus(args.corpus, (corpus_kind,))
    if stage == "I":
        pretrain, arch = stage_one
        spec = corpus_spec_from_sidecar(args.corpus, AlignmentSpec)
        model = al.OmniModel(spec, **arch)
        al.pretrain_backbone(model, seq_len=spec.seq_len, **pretrain)
    else:
        model = al.OmniModel.load(_require(args.init, "--init checkpoint"))
    metrics = al.run_stage(model, al.default_schedule(stage, **sched), records)
    ckpt = os.path.join(out, "align.ckpt")
    model.save(ckpt)
    return [ckpt] + write_report(out, "metrics", ["step", "stage", "loss", "lr"],
                                 [[s, st, f"{v:.6f}", f"{lr:.2e}"]
                                  for s, st, v, lr in metrics], args.format)


def _train_dpo(args, out) -> list:
    sched, dpo = read_config(load_config(args), DPO_SCHEDULE, DpoConfig)
    reference = SpeechDecoder.load(_require(args.init, "--init checkpoint"))
    if reference.config.mode != "nar":
        raise KindMismatchError("preference training expects a NAR reference")
    reference.set_trainable(False)
    policy = SpeechDecoder.load(args.init)
    pairs = pairs_from_records(load_corpus(args.corpus, ("preference",)))
    metrics = train_dpo(policy, reference, pairs, DpoConfig(**dpo),
                        DpoSchedule(**sched))
    ckpt = os.path.join(out, "policy.ckpt")
    policy.save(ckpt)
    rows = [[s, f"{v:.6f}",
             "" if np.isnan(m) else f"{m:.6f}",
             "" if np.isnan(a) else f"{a:.4f}"]
            for s, v, m, a in metrics]
    return [ckpt] + write_report(out, "dpo_metrics",
                                 ["step", "loss", "mean_margin", "pref_accuracy"],
                                 rows, args.format)


# ---------------------------------------------------------------------------
# eval


def _eval_uer(args, out):
    decoder = SpeechDecoder.load(_require(args.checkpoint, "--checkpoint"))
    records = load_corpus(args.corpus, ("supervised_units",))
    scores = evaluate_uer(decoder, records)
    rows = [[key, f"{val:.4f}"] for key, val in sorted(scores.items())]
    return write_report(out, "uer", ["group", "uer"], rows, args.format)


def _eval_emotion_acc(args, out):
    decoder = SpeechDecoder.load(_require(args.checkpoint, "--checkpoint"))
    records = load_corpus(args.corpus, ("supervised_units",))
    buckets = {}
    for rec in records:
        cond = decode_f32(rec["features"])
        if not feasible(decoder, rec, cond.shape[0]):
            continue
        pred = emotion_oracle_classify(decoder.generate(cond).units)
        hit = int(pred == rec["emotion"])
        for key in ("overall", f"lang={rec['lang']}",
                    f"emotion={rec['emotion']}"):
            buckets.setdefault(key, []).append(hit)
    rows = [[key, len(vals), f"{np.mean(vals):.4f}"]
            for key, vals in sorted(buckets.items())]
    return write_report(out, "emotion_acc", ["group", "n", "accuracy"],
                        rows, args.format)


def _eval_pref_acc(args, out):
    decoder = SpeechDecoder.load(_require(args.checkpoint, "--checkpoint"))
    pairs = pairs_from_records(load_corpus(args.corpus, ("preference",)))
    hits = preference_hits(decoder, pairs)
    by_lang = {}
    for pair, hit in zip(pairs, hits):
        by_lang.setdefault(f"lang={pair.lang}", []).append(hit)
    rows = [[key, len(group), f"{sum(group) / len(group):.4f}"]
            for key, group in [("overall", hits), *sorted(by_lang.items())]]
    return write_report(out, "pref_acc", ["group", "n", "accuracy"],
                        rows, args.format)


def _eval_zero_shot(args, out):
    model = al.OmniModel.load(_require(args.checkpoint, "--checkpoint"))
    records = load_corpus(args.corpus, ("instruct",))
    if not all("q_speech" in rec for rec in records):
        raise KindMismatchError("zero-shot eval needs a probe corpus with "
                                "spoken question twins")
    probe = al.quasi_zero_shot_probe(model, records)
    rows = [["similarity", f"{probe.similarity:.4f}"],
            ["text_accuracy", f"{probe.text_accuracy:.4f}"],
            ["speech_accuracy", f"{probe.speech_accuracy:.4f}"]]
    return write_report(out, "zero_shot", ["metric", "value"], rows,
                        args.format)


def _eval_partition_check(args, out):
    cfg = read_config(load_config(args), {"t": int, "v": int})[0]
    frames, vocab = cfg.get("t", 2), cfg.get("v", 2)
    if frames > 20 or vocab ** frames > 10 ** 6:  # t first: no huge power
        raise ConfigurationError(f"partition-check enumerates v**t paths and "
                                 f"needs t <= 20 and v**t <= 10**6, got "
                                 f"t={frames}, v={vocab}")
    lp = np.full((frames, vocab), -np.log(vocab))
    total = float(sum(np.exp(v) for v in brute_force_marginals(lp).values()))
    rows = [["frames", frames], ["vocab", vocab],
            ["total_probability", f"{total:.8f}"]]
    return write_report(out, "partition_check", ["field", "value"], rows,
                        args.format)


# ---------------------------------------------------------------------------
# bench-latency


def cmd_bench_latency(args, out) -> list:
    ar = SpeechDecoder.load(args.checkpoint_ar)
    nar = SpeechDecoder.load(args.checkpoint_nar)
    if ar.config.mode != "ar" or nar.config.mode != "nar":
        raise KindMismatchError("bench-latency needs one AR and one NAR "
                                "checkpoint, in that order")
    records = load_corpus(args.corpus, ("supervised_units",))
    rows = []
    ratios = []
    for rec in records:
        cond = decode_f32(rec["features"])
        if not (feasible(ar, rec, cond.shape[0])
                and feasible(nar, rec, cond.shape[0])):
            continue
        t0 = time.perf_counter()
        ar_result = ar.ar_generate(cond)
        t1 = time.perf_counter()
        nar_result = nar.nar_generate(cond)
        t2 = time.perf_counter()
        ratio = ar_result.sequential_steps / nar_result.sequential_steps
        ratios.append(ratio)
        log.info("context %s wall-clock: ar %.4fs nar %.4fs",
                 rec["id"], t1 - t0, t2 - t1)
        rows.append([rec["id"], len(rec["units"]), ar_result.sequential_steps,
                     nar_result.sequential_steps, f"{ratio:.2f}"])
    rows.append(["median", "", "", "", f"{np.median(ratios):.2f}"])
    return write_report(out, "latency",
                        ["context", "ref_len", "ar_steps", "nar_steps",
                         "step_ratio"], rows, args.format)


# ---------------------------------------------------------------------------
# ablate


def _ablate_cell(payload):
    """One grid cell: train from a derived seed, report UER by language.

    Top-level so worker processes can pickle it; each cell re-reads the
    corpus and owns its own files.
    """
    corpus_path, cfg_dict, sched_dict, cell, index = payload
    try:
        records = read_jsonl(corpus_path)
        cfg_kw = dict(cfg_dict)
        cfg_kw.update(experts=cell["experts"], layers=cell["layers"],
                      tgm=cell["tgm"], seed=cfg_dict["seed"] ^ index)
        sched_kw = dict(sched_dict)
        sched_kw["seed"] = sched_dict["seed"] ^ index
        decoder, curve = train_decoder(records,
                                       SpeechDecoderConfig(**cfg_kw),
                                       TrainSchedule(**sched_kw))
        scores = evaluate_uer(decoder, records)
        first, final = curve[0][1], curve[-1][1]
        return {
            "cell": cell,
            "final_loss": final,
            "converged": bool(np.isfinite(final) and final < first),
            "uer": scores,
            "error": None,
        }
    except Exception as exc:  # cell failure must not kill the grid
        return {"cell": cell, "final_loss": None, "converged": False,
                "uer": {}, "error": f"{type(exc).__name__}: {exc}"}


def cmd_ablate(args, out) -> list:
    cfg = load_config(args)

    def grid_values(key, default, cast):
        raw = cfg.pop(key, default)
        try:
            return [cast(v) for v in str(raw).split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"{key!r}: {exc}") from exc

    experts_axis = grid_values("grid_experts", "1,2,4", int)
    layers_axis = grid_values("grid_layers", "2", int)
    tgm_axis = [v in ("on", "true", "True") for v in
                grid_values("grid_tgm", "on", str)]
    cells = [{"experts": e, "layers": l, "tgm": t}
             for e in experts_axis for l in layers_axis for t in tgm_axis]
    if not cells:
        raise ConfigurationError("empty ablation grid")

    sched, model = read_config(cfg, DECODER_SCHEDULE, DECODER_MODEL)
    config = SpeechDecoderConfig(mode="nar", **model)
    config.validate()  # the dims every cell shares; the grid sets the rest
    _require(args.corpus, "corpus")
    base = (asdict(config), asdict(TrainSchedule(**sched)))
    payloads = [(args.corpus, *base, cell, i) for i, cell in enumerate(cells)]

    if args.workers and args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_ablate_cell, payloads))
    else:
        results = [_ablate_cell(p) for p in payloads]

    rows = []
    for res in results:
        cell = res["cell"]
        rows.append([
            cell["experts"], cell["layers"], "on" if cell["tgm"] else "off",
            "" if res["final_loss"] is None else f"{res['final_loss']:.4f}",
            "yes" if res["converged"] else "no",
            f"{res['uer'].get('a', float('nan')):.4f}" if res["uer"] else "",
            f"{res['uer'].get('b', float('nan')):.4f}" if res["uer"] else "",
            res["error"] or "",
        ])
    outputs = write_report(out, "ablation",
                           ["experts", "layers", "tgm", "final_loss",
                            "converged", "uer_a", "uer_b", "error"],
                           rows, args.format)
    if all(res["error"] for res in results):
        raise UnitforgeError("all ablation cells failed")
    return outputs


# ---------------------------------------------------------------------------
# decode


def cmd_decode(args, out) -> list:
    decoder = SpeechDecoder.load(args.checkpoint)
    records = load_corpus(args.contexts)
    cfg = decoder.config
    # every context is checked before any is decoded, so a bad record
    # fails the run with a typed error and no partial output
    contexts = []
    for rec in records:
        if rec.get("id") is None:
            raise DataError(f"{args.contexts}: context record without an id")
        try:
            feats = decode_f32(rec["features"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.contexts}: record {rec.get('id')!r}: "
                            f"unreadable features ({exc})") from exc
        if (feats.ndim != 2 or feats.shape[1] != cfg.model_dim
                or not 1 <= feats.shape[0] <= cfg.max_context):
            raise DataError(
                f"{args.contexts}: record {rec.get('id')!r}: context shape "
                f"{feats.shape} does not fit the decoder (1 to "
                f"{cfg.max_context} rows of width {cfg.model_dim})")
        contexts.append(feats)
    results = []
    for rec, feats in zip(records, contexts):
        result = decoder.generate(feats)
        results.append({
            "schema": 1,
            "id": rec["id"],
            "kind": "decoded_units",
            "units": list(result.units),
            "sequential_steps": result.sequential_steps,
            "truncated": result.truncated,
        })
    path = os.path.join(out, "decoded.jsonl")
    write_jsonl(path, results)
    return [path]


# ---------------------------------------------------------------------------
# entry point


def _add_common(parser, *flags):
    """``--out`` and those of ``--seed``, ``--config``, ``--format`` given."""
    for flag in ("--out", *flags):
        parser.add_argument(flag, **{"--seed": dict(type=int), "--format": dict(
            choices=("csv", "text"), default="csv")}.get(flag, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitforge",
        description="Synthetic speech-unit generation stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    _add_common(p, "--seed", "--config")

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("stage", choices=(*ALIGN_STAGES, "decoder-nar",
                                     "decoder-ar", "dpo"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", default=None,
                   help="checkpoint from the prerequisite stage")
    _add_common(p, "--seed", "--config", "--format")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    metrics = p.add_subparsers(dest="metric", required=True)
    for metric in ("uer", "emotion-acc", "pref-acc", "zero-shot"):
        p = metrics.add_parser(metric)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--corpus", default=None)
        _add_common(p, "--format")
    _add_common(metrics.add_parser("partition-check"), "--config", "--format")

    p = sub.add_parser("bench-latency", help="AR vs NAR step-count benchmark")
    p.add_argument("--checkpoint-ar", required=True)
    p.add_argument("--checkpoint-nar", required=True)
    p.add_argument("--corpus", required=True)
    _add_common(p, "--format")

    p = sub.add_parser("ablate", help="experts/layers/tgm grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="grid cells trained in parallel")
    _add_common(p, "--seed", "--config", "--format")

    p = sub.add_parser("decode", help="checkpoint + contexts to unit JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--contexts", required=True)
    _add_common(p)
    return parser


HANDLERS = {  # command (with its stage or metric) -> handler(args, out)
    "gen-data": cmd_gen_data,
    **{f"train-{stage}": _train_align_stage for stage in ALIGN_STAGES},
    "train-decoder-nar": _train_decoder_stage,
    "train-decoder-ar": _train_decoder_stage,
    "train-dpo": _train_dpo,
    "eval-uer": _eval_uer,
    "eval-emotion-acc": _eval_emotion_acc,
    "eval-pref-acc": _eval_pref_acc,
    "eval-zero-shot": _eval_zero_shot,
    "eval-partition-check": _eval_partition_check,
    "bench-latency": cmd_bench_latency,
    "ablate": cmd_ablate,
    "decode": cmd_decode,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("UNITFORGE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    command = "-".join(filter(None, (args.command, getattr(args, "stage", None),
                                     getattr(args, "metric", None))))
    try:
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        write_manifest(out, command, args, HANDLERS[command](args, out))
        return EXIT_OK
    except (FileNotFoundError, UnitforgeError) as exc:
        log.error("%s", exc)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))
    finally:
        T.reset_tape()


if __name__ == "__main__":
    sys.exit(main())
