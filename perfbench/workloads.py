"""The three benchmark workloads.

Each workload is a closed loop: one caller in one process runs the
workload's phases back to back, and the next call starts only when the
previous one has returned. ``setup`` builds every input from the
workload seed; ``episode`` runs the measured phases once and checks
their outputs. Episodes of one run repeat the same work, so their
losses and units must be bit-identical.

The seed picks the content of every corpus, but not its shape: corpora
are filled slot by slot from a fixed template of the properties that set
a record's cost (language, answer length, prosody, token count), and
the trainers draw their batches with fixed schedule seeds. Every seed
therefore asks for the same amount of measured work, and a change between
seeds is a change of speed, not of input size. Only set-up varies a
little: it generates records until the template is filled.

All stack calls go through module attributes (``decoder.train_decoder``,
``data.gen_supervised_corpus``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import hostspeed
from unitforge import alignment, data, decoder, preference
from unitforge.ctc import UnitSequence

LN2 = math.log(2.0)
POOL = 64  # records per generator call while filling a template
# batch draws are the same for every workload seed (see module docstring)
SCHEDULE_SEED = 0


def child_seed(seed: int, k: int) -> int:
    """Independent sub-seed number ``k`` of a workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def shaped(generate, key, template, seed, stats):
    """Records whose ``key(rec)`` follows ``template``, one key per slot,
    taken from ``generate(sub_seed)`` pools of successive sub-seeds until
    every slot is filled. ``stats`` counts the records generated and kept,
    and the seconds spent in ``generate``, so that the report can give
    the share of set-up that goes to records the workload discards."""
    need = Counter(template)
    pools: dict = defaultdict(list)
    made = k = 0
    while any(len(pools[s]) < n for s, n in need.items()):
        if k == 100:
            raise RuntimeError("cannot fill the corpus template")
        t0 = perf_counter()
        recs = generate(child_seed(seed, 1000 + k))
        stats["generate_s"] += perf_counter() - t0
        for rec in recs:
            pools[key(rec)].append(rec)
            made += 1
        k += 1
    stats["generated"] += made
    stats["kept"] += len(template)
    taken: Counter = Counter()
    out = []
    for s in template:
        out.append(pools[s][taken[s]])
        taken[s] += 1
    return out


def unit_key(rec):
    """Cost-setting shape of a unit-corpus record."""
    units = rec["units"] if "units" in rec else rec["units_w"]
    return (rec["lang"], len(rec["text_a"]),
            any(u < data.CONTENT_BASE for u in units))


def unit_template(spec, n, prosody=None):
    """Languages alternate, answer lengths cycle through each language's
    range and prosody alternates per cycle unless fixed by ``prosody``."""
    out = []
    for i in range(n):
        lang = data.LANGS[i % 2]
        lo, hi = spec.len_a if lang == "a" else spec.len_b
        j, width = i // 2, hi - lo + 1
        out.append((lang, lo + j % width,
                    (j // width) % 2 == 0 if prosody is None else prosody))
    return out


def unit_corpus(gen, spec, n, seed, stats, prosody=None):
    return shaped(
        lambda sub: gen(dataclasses.replace(spec, seed=sub, size=POOL)),
        unit_key, unit_template(spec, n, prosody), seed, stats)


def setup_stats() -> Counter:
    """Counters that ``shaped`` fills during one set-up."""
    return Counter(generated=0, kept=0, generate_s=0.0)


class Episode:
    """Timings, outputs and check results of one pass of a workload.

    ``host()``, when given, times the host kernel (``hostspeed.sample``)
    before and after each phase."""

    def __init__(self, host=None):
        self.host = host
        self.phase_s: dict = {}      # phase -> wall seconds
        self.host_ms: dict = {}      # phase -> host kernel ms around it
        self.items: dict = {}        # phase -> items processed
        self.call_ms: dict = {}      # phase -> per-call wall times, in order
        self.call_steps: dict = {}   # phase -> per-call sequential steps
        self.quality: dict = {}
        self.attempted = 0
        self.failures: list = []
        self._digest = hashlib.sha256()

    def check(self, ok: bool, cause: str):
        self.attempted += 1
        if not ok:
            self.failures.append(cause)

    def output(self, tag: str, payload: bytes):
        """Fold an output into the digest compared across episodes."""
        self._digest.update(tag.encode() + b"\0" + payload)

    def digest(self) -> str:
        return self._digest.hexdigest()

    @contextmanager
    def phase(self, name, items):
        before = self.host() if self.host else None
        t0 = perf_counter()
        yield
        self.phase_s[name] = perf_counter() - t0
        self.items[name] = items
        if self.host:
            self.host_ms[name] = (before + self.host()) / 2

    def timed(self, phase, items, fn, *args, **kwargs):
        with self.phase(phase, items):
            return fn(*args, **kwargs)

    def losses(self, phase, values):
        """Check every train loss is finite and record it bit for bit."""
        values = [float(v) for v in values]
        for step, value in enumerate(values):
            self.check(math.isfinite(value),
                       f"{phase}: non-finite loss {value!r} at step {step}")
        self.output(f"{phase}.loss", float_bits(values))
        return values

    def generated(self, phase, model, cond, mode, vocab):
        """Time one generate call and check its output."""
        fn = model.nar_generate if mode == "nar" else model.ar_generate
        t0 = perf_counter()
        try:
            res = fn(cond)
        except Exception as exc:  # a raising call is a counted failure
            self.check(False, f"{phase}: {type(exc).__name__}: {exc}")
            # keep the context's slot, so contexts stay aligned across episodes
            self.call_ms.setdefault(phase, []).append(math.nan)
            self.call_steps.setdefault(phase, []).append(math.nan)
            return None
        self.call_ms.setdefault(phase, []).append(1e3 * (perf_counter() - t0))
        self.call_steps.setdefault(phase, []).append(res.sequential_steps)
        units = res.units.units if isinstance(res.units, UnitSequence) else None
        ok = units is not None and all(1 <= u < vocab for u in units)
        if ok and mode == "nar":
            ok = res.sequential_steps == 1
        elif ok and not res.truncated:
            ok = res.sequential_steps == len(units) + 1
        self.check(ok, f"{phase}: invalid output {res!r}")
        self.output(phase, repr((units, res.sequential_steps)).encode())
        return units


def _decoder_config(mode, spec, seed):
    """The DPO acceptance test's decoder shapes."""
    return decoder.SpeechDecoderConfig(
        mode=mode, layers=2, experts=2, model_dim=spec.feature_dim, heads=2,
        vocab_nar=spec.vocab_nar, upsample=spec.upsample, max_context=32,
        tgm=True, seed=seed)


# ---------------------------------------------------------------------------
# speech_train


class SpeechTrain:
    """NAR CTC training, AR next-unit training, then CTC-DPO on the NAR
    result with a frozen reference, then the preference accuracy of the
    trained policy, as the DPO acceptance test checks it after training.

    ``train_dpo`` always logs at its first and last step. Over 40 steps
    these two logging passes take about the share of the DPO phase that
    the 11 passes of the default schedule (200 steps, a pass every 20)
    take: about 22% of it.

    One accuracy pass over the 64 pairs takes about 0.2 s, too short to
    time steadily on a shared host, so the eval phase runs it
    ``EVAL_REPEATS`` times; every repeat must give the same accuracy."""

    name = "speech_train"
    phases = ("nar", "ar", "dpo", "dpo_eval")
    NAR_STEPS = 20
    AR_STEPS = 20
    DPO_STEPS = 40
    EVAL_REPEATS = 4
    BATCH = 8
    PAIRS = 64

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        s, stats = self.seed, setup_stats()
        spec = data.CorpusSpec()
        sup = unit_corpus(data.gen_supervised_corpus, spec, spec.size,
                          child_seed(s, 0), stats)
        pairs = preference.pairs_from_records(unit_corpus(
            data.gen_preference_corpus, spec, self.PAIRS, child_seed(s, 1),
            stats, prosody=True))
        # train_decoder builds its model from these inside the timed phase
        nar_cfg = _decoder_config("nar", spec, child_seed(s, 2))
        ar_cfg = _decoder_config("ar", spec, child_seed(s, 3))
        return dict(sup=sup, pairs=pairs, nar_cfg=nar_cfg, ar_cfg=ar_cfg,
                    stats=stats)

    def inspect(self, st):
        """Digest of the inputs, and the set-up checks; not timed."""
        digest = hashlib.sha256(repr(st["sup"]).encode())
        for p in st["pairs"]:
            digest.update(float_bits(p.context_features))
            digest.update(repr((p.y_w.units, p.y_l.units)).encode())
        return digest.hexdigest(), []

    def episode(self, st, ep: Episode, small: bool = False):
        nar_steps = 2 if small else self.NAR_STEPS
        ar_steps = 2 if small else self.AR_STEPS
        dpo_steps = 2 if small else self.DPO_STEPS
        pairs = st["pairs"][:8] if small else st["pairs"]

        nar, curve = ep.timed(
            "nar", nar_steps * self.BATCH, decoder.train_decoder,
            st["sup"], st["nar_cfg"], decoder.TrainSchedule(
                lr=3e-3, steps=nar_steps, batch=self.BATCH,
                seed=SCHEDULE_SEED))
        ep.losses("nar", [v for _, v in curve])

        _, curve = ep.timed(
            "ar", ar_steps * self.BATCH, decoder.train_decoder,
            st["sup"], st["ar_cfg"], decoder.TrainSchedule(
                lr=3e-3, steps=ar_steps, batch=self.BATCH,
                seed=SCHEDULE_SEED))
        ep.losses("ar", [v for _, v in curve])

        policy = copy.deepcopy(nar)
        reference = copy.deepcopy(nar)
        reference.set_trainable(False)
        rows = ep.timed(
            "dpo", dpo_steps * self.BATCH, preference.train_dpo,
            policy, reference, pairs, preference.DpoConfig(beta=0.1),
            preference.DpoSchedule(lr=1e-4, steps=dpo_steps, batch=self.BATCH,
                                   seed=SCHEDULE_SEED, log_every=dpo_steps))
        losses = ep.losses("dpo", [r[1] for r in rows])
        logged = [(r[2], r[3]) for r in rows if not math.isnan(r[2])]
        ep.check(len(logged) == 2 and all(map(math.isfinite, sum(logged, ()))),
                 f"dpo: bad margin/accuracy log {logged!r}")
        ep.output("dpo.log", float_bits(logged))
        # policy == reference before the first update, so the loss is ln 2
        ep.check(abs(losses[0] - LN2) < 1e-6,
                 f"dpo: first loss {losses[0]!r} is not ln 2")

        repeats = 1 if small else self.EVAL_REPEATS
        with ep.phase("dpo_eval", repeats * len(pairs)):
            accs = [preference.preference_accuracy(policy, pairs)
                    for _ in range(repeats)]
        acc = accs[0]
        ep.check(0.0 <= acc <= 1.0 and accs.count(acc) == repeats,
                 f"dpo_eval: accuracies {accs!r}")
        ep.output("dpo_eval", float_bits([acc]))
        ep.quality["dpo_final_loss"] = statistics.fmean(losses[-3:])
        ep.quality["dpo_accuracy"] = acc

    def report(self, eps):
        """The named end-to-end metrics of this workload."""
        return {
            "nar_train_samples_per_s": _rate(eps, "nar"),
            "ar_train_samples_per_s": _rate(eps, "ar"),
            "dpo_pairs_per_s": _rate(eps, "dpo"),
            "dpo_final_loss": (eps[0].quality["dpo_final_loss"], 1),
        }


# ---------------------------------------------------------------------------
# align_train


class AlignTrain:
    """Backbone copy-task pretrain, stages I -> II -> III, then the
    quasi-zero-shot probe, at the alignment acceptance shapes."""

    name = "align_train"
    phases = ("pretrain", "align1", "align2", "align3")
    PRETRAIN_STEPS = 50
    PRETRAIN_BATCH = 8
    STEPS = {"I": 8, "II": 24, "III": 24}
    BATCH = {"I": 32, "II": 8, "III": 8}
    SEQ_LEN = (8, 12)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        s, stats = self.seed, setup_stats()
        spec = data.AlignmentSpec(seed=child_seed(s, 0), n_speech_text=1536,
                                  n_image_text=256, n_instruct=256,
                                  n_probe=64, seq_len=self.SEQ_LEN)
        lo, hi = self.SEQ_LEN
        speech_text = shaped(
            lambda sub: data.gen_speech_text_corpus(dataclasses.replace(
                spec, seed=sub, n_speech_text=POOL)),
            lambda rec: len(rec["tokens"]),
            [lo + i % (hi - lo + 1) for i in range(spec.n_speech_text)],
            child_seed(s, 1), stats)
        corpora = {
            "I": speech_text,
            "II": data.gen_image_text_corpus(spec),
            "III": data.gen_instruct_corpus(spec),
        }
        probe = data.gen_instruct_corpus(spec, with_speech=True,
                                         rng_seed=child_seed(s, 2))
        model = alignment.OmniModel(spec, layers=1, seed=child_seed(s, 3))
        return dict(corpora=corpora, probe=probe, model=model, stats=stats)

    def inspect(self, st):
        """Digest of the inputs, and the set-up checks; not timed."""
        digest = hashlib.sha256(repr((st["corpora"], st["probe"])).encode())
        return digest.hexdigest(), []

    def episode(self, st, ep: Episode, small: bool = False):
        model = copy.deepcopy(st["model"])
        pre_steps = 4 if small else self.PRETRAIN_STEPS
        curve = ep.timed("pretrain", pre_steps * self.PRETRAIN_BATCH,
                         alignment.pretrain_backbone, model, steps=pre_steps,
                         batch=self.PRETRAIN_BATCH, seed=SCHEDULE_SEED,
                         seq_len=self.SEQ_LEN)
        ep.losses("pretrain", [v for _, v in curve])

        extra = {"I": dict(lr=1e-2, weight_decay=1e-2)}
        for phase, stage in zip(self.phases[1:], alignment.STAGES):
            steps = 2 if small else self.STEPS[stage]
            sched = alignment.default_schedule(
                stage, steps=steps, batch=self.BATCH[stage],
                seed=SCHEDULE_SEED, **extra.get(stage, {}))
            rows = ep.timed(phase, steps * sched.batch, alignment.run_stage,
                            model, sched, st["corpora"][stage])
            losses = ep.losses(phase, [r[2] for r in rows])
        ep.quality["align3_final_loss"] = statistics.fmean(losses[-5:])

        probe = st["probe"][:8] if small else st["probe"]
        try:
            res = ep.timed("probe", len(probe),
                           alignment.quasi_zero_shot_probe, model, probe)
        except Exception as exc:  # a raising probe is a counted failure
            ep.check(False, f"probe: {type(exc).__name__}: {exc}")
            return
        vals = [res.similarity, res.text_accuracy, res.speech_accuracy]
        ep.check(-1.0 <= vals[0] <= 1.0
                 and all(0.0 <= v <= 1.0 for v in vals[1:]),
                 f"probe: out of range {res!r}")
        ep.output("probe", float_bits(vals))
        ep.quality["probe"] = vals

    def report(self, eps):
        return {
            "pretrain_samples_per_s": _rate(eps, "pretrain"),
            "align1_samples_per_s": _rate(eps, "align1"),
            "align2_samples_per_s": _rate(eps, "align2"),
            "align3_samples_per_s": _rate(eps, "align3"),
            "align3_final_loss": (eps[0].quality["align3_final_loss"], 1),
        }


# ---------------------------------------------------------------------------
# speech_generate


class SpeechGenerate:
    """Greedy NAR and AR generation, one held-out context at a time, from
    briefly trained decoders that went through a checkpoint round trip."""

    name = "speech_generate"
    phases = ("nar_a", "nar_b", "ar_a", "ar_b")
    TRAIN_STEPS = 30
    HELD_OUT = 240

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        # The decoders are part of the workload, trained the same way for
        # every seed: an AR decoder this briefly trained emits outputs
        # whose lengths depend on its init, and AR cost grows with length.
        # The seed picks the held-out contexts.
        spec, stats = data.CorpusSpec(), setup_stats()
        train = unit_corpus(data.gen_supervised_corpus, spec, spec.size,
                            child_seed(0, 0), stats)
        held = unit_corpus(data.gen_supervised_corpus, spec, self.HELD_OUT,
                           child_seed(self.seed, 1), stats)
        models = {}
        for k, mode in enumerate(("nar", "ar")):
            trained, _ = decoder.train_decoder(
                train, _decoder_config(mode, spec, child_seed(0, 2 + k)),
                decoder.TrainSchedule(lr=3e-3, steps=self.TRAIN_STEPS,
                                      batch=8, seed=SCHEDULE_SEED))
            first = os.path.join(self.workdir, f"{mode}.ckpt")
            again = os.path.join(self.workdir, f"{mode}.again.ckpt")
            trained.save(first)
            models[mode] = decoder.SpeechDecoder.load(first)
            models[mode].save(again)
        nar, ar = models["nar"], models["ar"]
        contexts = {"a": [], "b": []}
        for rec in held:
            cond = data.decode_f32(rec["features"])
            if (decoder.feasible(nar, rec, cond.shape[0])
                    and decoder.feasible(ar, rec, cond.shape[0])):
                contexts[rec["lang"]].append((cond, rec["units"]))
        return dict(nar=nar, ar=ar, held=held, contexts=contexts, stats=stats)

    def inspect(self, st):
        """Digest of the inputs and the checkpoints, and the round-trip
        checks; not timed."""
        digest = hashlib.sha256(repr(st["held"]).encode())
        checks = []
        for mode in ("nar", "ar"):
            first = os.path.join(self.workdir, f"{mode}.ckpt")
            again = os.path.join(self.workdir, f"{mode}.again.ckpt")
            with open(first, "rb") as fh:
                digest.update(fh.read())
            checks.append((_same_files(first, again)
                           and _same_files(first + ".meta.json",
                                           again + ".meta.json"),
                           f"{mode}: checkpoint round trip is not "
                           f"byte-identical"))
        return digest.hexdigest(), checks

    def episode(self, st, ep: Episode, small: bool = False):
        uers = []
        for phase in self.phases:
            mode, lang = phase.split("_")
            model = st[mode]
            vocab = (model.config.vocab_nar if mode == "nar"
                     else model.eos_id)
            todo = st["contexts"][lang][:5] if small else st["contexts"][lang]
            with ep.phase(phase, len(todo)):
                outs = [ep.generated(phase, model, cond, mode, vocab)
                        for cond, _ in todo]
            uers += [data.unit_error_rate(ref, units)
                     for (_, ref), units in zip(todo, outs) if units is not None]
        ep.quality["gen_uer"] = statistics.fmean(uers) if uers else math.nan

    def report(self, eps):
        nar = median_calls(eps, "nar_a") + median_calls(eps, "nar_b")
        ar = median_calls(eps, "ar_a") + median_calls(eps, "ar_b")
        return {
            "nar_gen_ms_p50": (_quantile(nar, 0.50), len(nar)),
            "nar_gen_ms_p95": (_quantile(nar, 0.95), len(nar)),
            "ar_gen_ms_p50": (_quantile(ar, 0.50), len(ar)),
            "ar_gen_ms_p95": (_quantile(ar, 0.95), len(ar)),
            "gen_uer": (eps[0].quality["gen_uer"], 1),
        }


def _same_files(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q)) if values else math.nan


# Timing statistics. Each repeated unit of work (a phase of an episode,
# one context's generate call) is timed once per episode and counts at
# its median repeat. The report line gives raw times. The gated metrics
# first scale each time by the host speed measured around it (see
# hostspeed.py).


def _unit_ms(eps, phase, scaled):
    """Per unit of ``phase``: its repeats across episodes, in ms per item
    (per sequential step for generate calls, per sample for training)."""
    def scale(ep):
        return hostspeed.REFERENCE_MS / ep.host_ms[phase] if scaled else 1.0

    if phase in eps[0].call_ms:
        steps = eps[0].call_steps[phase]
        runs = [[ms * scale(ep) / n for ms, n in zip(ep.call_ms[phase], steps)]
                for ep in eps]
        return _complete(zip(*runs))
    return [[1e3 * ep.phase_s[phase] * scale(ep) / ep.items[phase]
             for ep in eps]]


def phase_ms_per_item(eps, phase, scaled=True) -> float:
    """Median over units of each unit's median repeat."""
    units = _unit_ms(eps, phase, scaled)
    return (statistics.median(statistics.median(r) for r in units)
            if units else math.nan)


def median_calls(eps, phase) -> list:
    """Per context, the median of its repeats, in ms per call."""
    return [statistics.median(times) for times in
            _complete(zip(*(ep.call_ms[phase] for ep in eps)))]


def _complete(units) -> list:
    """The units whose every repeat was timed: a generate call that
    raised leaves NaN in its context's slot (a counted failure)."""
    return [u for u in units if not any(map(math.isnan, u))]


def _rate(eps, phase):
    """Items per second of a phase at its median episode."""
    median = statistics.median(ep.phase_s[phase] for ep in eps)
    return eps[0].items[phase] / median, len(eps)


WORKLOADS = {w.name: w for w in (SpeechTrain, AlignTrain, SpeechGenerate)}
