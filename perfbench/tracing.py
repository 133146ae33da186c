"""Span tracer that measures unitforge's layers from outside.

Every span comes from a wrapper that this module installs around a
public function or class method of one layer, at the place where the
stack looks that name up: ``alignment`` and ``preference`` import
``decode_f32`` by name, ``decoder`` imports ``greedy_decode`` and the
checkpoint functions by name, stage losses are dispatched through
``alignment.STAGE_LOSSES``, the ``nn`` blocks run through their class
``__call__`` and the CTC backward is the function ``ctc_loss`` hands to
``tensor.record_custom``. Nothing under ``src/`` is edited;
``Tracer.installed()`` restores every original on exit.

Spans live in memory as ``[name, start, end, parent]`` rows (``parent``
is the index of the enclosing span, -1 at top level) and are written out
once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from unitforge import (alignment, checkpoint, ctc, data, decoder, nn,
                       preference)
from unitforge import tensor as T

# Span names whose self time is a per-layer metric.
SELF_TIME_SPANS = {
    name: name + "_s" for name in (
        "tensor.backward", "tensor.adamw",
        "nn.attention", "nn.moe", "nn.mlp", "nn.tgm", "nn.layernorm",
        "nn.embedding", "nn.cross_entropy",
        "ctc.lattice", "ctc.backward", "ctc.greedy",
        "decoder.nar_forward", "alignment.lm_loss", "alignment.backbone")
}
SELF_TIME_SPANS.update({f"alignment.stage_loss.{s}": f"alignment.stage_loss_s.{s}"
                        for s in ("I", "II", "III")})
# Span names whose inclusive time is a per-layer metric.
INCLUSIVE_SPANS = {
    "preference.reference": "preference.reference_s",
    "preference.eval": "preference.eval_s",
    "alignment.probe": "alignment.probe_s",
    "data.decode_f32": "data.decode_f32_s",
}
SETUP_SPANS = {
    "data.corpus_gen": "data.corpus_gen_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s",
}
# Trainer entry points and the phase their backward calls belong to.
TRAIN_PHASES = ("nar", "ar", "dpo", "pretrain", "align1", "align2", "align3")
_STAGE_PHASE = {"I": "align1", "II": "align2", "III": "align3"}


class Tracer:
    """In-memory spans and counters for one traced region."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.tape_nodes: dict = {p: [] for p in TRAIN_PHASES}
        self.phase = None
        self.reference = None
        self._stack: list = []

    # -- spans --------------------------------------------------------------

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def timed(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)`` and ``after(result)``
        update counters outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(out)
            return out

        return wrapper

    def leak_checked(self, fn):
        """Run an inference-only call on an empty tape and count the
        nodes it leaves there."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with T.fresh_tape() as tape:
                out = fn(*args, **kwargs)
            self.counts["tensor.leaked_nodes"] += len(tape)
            return out

        return wrapper

    def in_phase(self, phase_of, fn):
        """Attribute everything ``fn`` does to the phase ``phase_of(args)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = self.phase
            self.phase = phase_of(args)
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = saved

        return wrapper

    # -- wrappers with counters ----------------------------------------------

    def _backward(self, fn):
        def before(args):
            self.counts["tensor.backward_calls"] += 1
            if self.phase in self.tape_nodes:
                self.tape_nodes[self.phase].append(args[0].node_id + 1)

        return self.timed("tensor.backward", fn, before=before)

    def _record_custom(self, fn):
        @functools.wraps(fn)
        def record_custom(kind, out, backward_fn, *inputs):
            if kind == "ctc_loss":
                backward_fn = self.timed("ctc.backward", backward_fn)
            return fn(kind, out, backward_fn, *inputs)

        return record_custom

    def _lattice(self, fn):
        def before(args):
            log_probs, target = args[0], args[1]
            self.counts["ctc.lattice_calls"] += 1
            self.counts["ctc.lattice_cells"] += (
                log_probs.shape[0] * (2 * len(tuple(target)) + 1))

        return self.timed("ctc.lattice", fn, before=before)

    def _attention(self, fn):
        def before(args):
            self.counts["nn.attention_rows"] += args[1].shape[0]

        return self.timed("nn.attention", fn, before=before)

    def _nar_forward(self, fn):
        inner = self.timed("decoder.nar_forward", fn)

        @functools.wraps(fn)
        def nar_forward(model, *args, **kwargs):
            if model is not self.reference:
                return inner(model, *args, **kwargs)
            self.counts["preference.reference_forwards"] += 1
            idx = self.begin("preference.reference")
            try:
                return inner(model, *args, **kwargs)
            finally:
                self.end(idx)

        return nar_forward

    def _ar_generate(self, fn):
        def after(res):
            self.counts["decoder.ar_steps"] += res.sequential_steps
            self.counts["decoder.ar_truncated"] += int(res.truncated)

        return self.timed("decoder.ar_generate", self.leak_checked(fn),
                          after=after)

    def _pref_eval(self, fn):
        """pair_margin / preference_accuracy; counted as eval only inside
        ``train_dpo``."""
        checked = self.leak_checked(fn)
        inside = self.timed("preference.eval", checked)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase == "dpo":
                return inside(*args, **kwargs)
            return checked(*args, **kwargs)

        return wrapper

    def _train_dpo(self, fn):
        inner = self.in_phase(lambda args: "dpo", fn)

        @functools.wraps(fn)
        def train_dpo(policy, reference, *args, **kwargs):
            saved = self.reference
            self.reference = reference
            try:
                return inner(policy, reference, *args, **kwargs)
            finally:
                self.reference = saved

        return train_dpo

    # -- installation ---------------------------------------------------------

    def _patches(self):
        """(owner, name, make_wrapper) for every wrapped lookup site."""
        def span(name, **hooks):
            return lambda fn: self.timed(name, fn, **hooks)

        def phase(phase_of):
            return lambda fn: self.in_phase(phase_of, fn)

        def inference(name):
            return lambda fn: self.timed(name, self.leak_checked(fn))

        decode = span("data.decode_f32", before=lambda args: self.counts.update(
            ["data.decode_f32_calls"]))
        patches = [
            (T, "backward", self._backward),
            (T.AdamW, "step", span("tensor.adamw")),
            (T, "record_custom", self._record_custom),
            (nn.SelfAttention, "__call__", self._attention),
            (nn.MoELayer, "__call__", span("nn.moe")),
            (nn.Mlp, "__call__", span("nn.mlp")),
            (nn.TextGuidedModule, "__call__", span("nn.tgm")),
            (nn.LayerNorm, "__call__", span("nn.layernorm")),
            (nn.Embedding, "__call__", span("nn.embedding")),
            (nn.PositionalEmbedding, "__call__", span("nn.embedding")),
            (nn, "cross_entropy", span("nn.cross_entropy")),
            (ctc, "compute_lattice", self._lattice),
            (ctc, "greedy_decode", span("ctc.greedy")),
            (decoder, "greedy_decode", span("ctc.greedy")),
            (decoder.SpeechDecoder, "nar_forward", self._nar_forward),
            (decoder.SpeechDecoder, "nar_generate",
             inference("decoder.nar_generate")),
            (decoder.SpeechDecoder, "ar_generate", self._ar_generate),
            (decoder, "train_decoder", phase(lambda args: args[1].mode)),
            (preference, "train_dpo", self._train_dpo),
            (preference, "pair_margin", self._pref_eval),
            (preference, "preference_accuracy", self._pref_eval),
            (alignment.OmniModel, "lm_loss", span("alignment.lm_loss")),
            (alignment.Backbone, "logits", span("alignment.backbone")),
            (alignment, "pretrain_backbone", phase(lambda args: "pretrain")),
            (alignment, "run_stage",
             phase(lambda args: _STAGE_PHASE.get(args[1].stage))),
            (alignment, "quasi_zero_shot_probe", inference("alignment.probe")),
            (data, "decode_f32", decode),
            (alignment, "decode_f32", decode),
            (preference, "decode_f32", decode),
            (checkpoint, "save_checkpoint", span("checkpoint.save")),
            (checkpoint, "load_checkpoint", span("checkpoint.load")),
            (decoder, "save_checkpoint", span("checkpoint.save")),
            (decoder, "load_checkpoint", span("checkpoint.load")),
        ]
        patches += [(alignment.STAGE_LOSSES, stage,
                     span(f"alignment.stage_loss.{stage}"))
                    for stage in alignment.STAGE_LOSSES]
        patches += [(data, name, span("data.corpus_gen")) for name in dir(data)
                    if name.startswith("gen_") and name.endswith("_corpus")]
        return patches

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for owner, name, make in self._patches():
                if isinstance(owner, dict):
                    saved.append((owner, name, owner[name]))
                    owner[name] = make(owner[name])
                else:
                    original = owner.__dict__[name]
                    saved.append((owner, name, original))
                    setattr(owner, name, make(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Span duration minus its children's, summed per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def inclusive_times(self) -> dict:
        totals: Counter = Counter()
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def covered_s(self) -> float:
        """Wall time inside some span (top-level spans do not overlap)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced episode of ``wall_s`` seconds."""
        own = self.self_times()
        incl = self.inclusive_times()
        out = {metric: own.get(name, 0.0)
               for name, metric in SELF_TIME_SPANS.items()}
        out.update({metric: incl.get(name, 0.0)
                    for name, metric in INCLUSIVE_SPANS.items()})
        for phase, nodes in self.tape_nodes.items():
            out[f"tensor.tape_nodes_per_step.{phase}"] = (
                statistics.fmean(nodes) if nodes else 0.0)
        for key in ("tensor.backward_calls", "tensor.leaked_nodes",
                    "nn.attention_rows", "ctc.lattice_calls",
                    "ctc.lattice_cells", "decoder.ar_steps",
                    "decoder.ar_truncated", "preference.reference_forwards",
                    "data.decode_f32_calls"):
            out[key] = self.counts.get(key, 0)
        steps = self.counts.get("decoder.ar_steps", 0)
        out["decoder.ar_step_ms"] = (
            1e3 * incl.get("decoder.ar_generate", 0.0) / steps if steps else 0.0)
        out["trace.unattributed_frac"] = max(0.0, 1.0 - self.covered_s() / wall_s)
        return out

    def setup_metrics(self) -> dict:
        incl = self.inclusive_times()
        return {metric: incl.get(name, 0.0)
                for name, metric in SETUP_SPANS.items()}

    def dump(self, path, **header):
        """Write the spans of this region as JSON."""
        with open(path, "w") as fh:
            json.dump({**header, "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
