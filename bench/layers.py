"""Where the traced run wraps the program, and the per-layer numbers it derives.

Every wrap point is a public entry point of one module, patched from here; if
a later version of the program renames or removes one, the tracer lists it as
missing and the metrics that depend on it read zero instead of failing.
"""
from __future__ import annotations

import functools
import os

import numpy as np

from minis2st import corpus, evaluation, model, nn, pipeline, tokenizer, training, vocoder

from tracing import Tracer

STAGES = ("tokenizer", "model", "vocoder")
STAGE_SPAN = {s: f"pipeline.train_{s}_stage" for s in STAGES}
# root spans the benchmark itself opens
SETUP_SPAN = "bench.setup"
UTTERANCE_SPAN = "bench.utterance"


def _tape_nodes(args, out):
    tape = getattr(args[0], "_tape", None)
    return len(getattr(tape, "nodes", ()))


def _rows(args, out):
    return int(np.prod(args[1].shape[:-1]))


def _traced_train(tr: Tracer, fn):
    """train() with the loss_fn and val_fn that the stage passes in wrapped too."""
    traced = tr.wrap("training.train", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if "loss_fn" in kwargs:
            kwargs["loss_fn"] = tr.wrap("training.loss", kwargs["loss_fn"])
        if "val_fn" in kwargs:
            kwargs["val_fn"] = tr.wrap("training.val", kwargs["val_fn"])
        return traced(*args, **kwargs)

    return wrapper


def install(tr: Tracer):
    tr.install_gc()
    tr.patch(corpus, "generate_toy_corpus", "corpus.generate")
    for s in STAGES:
        tr.patch(pipeline, f"train_{s}_stage", STAGE_SPAN[s])
    tr.patch(pipeline, "train", "training.train", wrapper=lambda fn: _traced_train(tr, fn))
    tr.patch(training, "backward", "tensor.backward", count=_tape_nodes)
    tr.patch(training.Adam, "step", "training.adam")
    tr.patch(training, "save_checkpoint", "training.save_checkpoint",
             count=lambda a, out: os.path.getsize(a[0]))
    tr.patch(tokenizer, "quantize", "tokenizer.quantize", count=lambda a, out: len(out))
    tr.patch(tokenizer.SpeechTokenizer, "tokenize", "tokenizer.tokenize")
    tr.patch(nn.TransformerBlock, "__call__", "nn.block", count=_rows)
    tr.patch(nn, "sinusoidal_positions", "nn.positions")
    tr.patch(model.FrozenSpeechEncoder, "encode", "model.encode")
    for cls in ("LinearProjector", "Conv1dLinearProjector", "QFormerProjector"):
        if hasattr(model, cls):
            tr.patch(getattr(model, cls), "project", "model.project")
    tr.patch(model.DecoderLM, "decode_greedy", "model.decode", count=lambda a, out: out.steps)
    tr.patch(model.TranslationModel, "translate", "model.translate")
    tr.patch(vocoder.TimbreVocoder, "synthesize", "vocoder.synthesize")
    tr.patch(vocoder.SpeakerEmbedder, "embed", "vocoder.embed")
    tr.patch(evaluation, "transcribe_frames", "evaluation.transcribe")


def _div(a, b):
    return a / b if b else 0.0


def _sum(agg, name, field="total_ms", scope=None):
    """Sum of a field over `name` spans outside set-up, or in one scope."""
    return sum(v[field] for (sc, n), v in agg.items()
               if n == name and sc != SETUP_SPAN and (scope is None or sc == scope))


def common_metrics(agg, per: float) -> dict:
    """Layer metrics every workload exercises, per work item (`per` items
    were measured), plus the corpus generation time of one set-up."""
    def tot(name, field="total_ms"):
        return _sum(agg, name, field) / per

    gen = agg.get((SETUP_SPAN, "corpus.generate"), {"calls": 0, "total_ms": 0.0})
    return {
        "corpus.generate_ms": (_div(gen["total_ms"], gen["calls"]), "ms"),
        "tensor.gc_ms": (tot("tensor.gc"), "ms"),
        "tensor.gc_collected": (tot("tensor.gc", "count"), "count"),
        "nn.block_calls": (tot("nn.block", "calls"), "count"),
        "nn.block_rows": (tot("nn.block", "count"), "count"),
        "nn.block_ms": (tot("nn.block"), "ms"),
        "nn.positions_calls": (tot("nn.positions", "calls"), "count"),
        "nn.positions_ms": (tot("nn.positions"), "ms"),
        "tokenizer.quantize_ms": (tot("tokenizer.quantize"), "ms"),
        "tokenizer.quantize_rows": (tot("tokenizer.quantize", "count"), "count"),
        "tokenizer.tokenize_ms": (tot("tokenizer.tokenize"), "ms"),
        "model.encode_ms": (tot("model.encode"), "ms"),
        "model.project_ms": (tot("model.project"), "ms"),
        "vocoder.embed_ms": (tot("vocoder.embed"), "ms"),
    }


def train_metrics(tr: Tracer, rounds: int, steps: dict) -> dict:
    """Common metrics per training round, plus per-stage training metrics
    (per step, per validation run or per stage, as the name says)."""
    agg = tr.breakdown([SETUP_SPAN, *STAGE_SPAN.values()])
    out = common_metrics(agg, rounds)
    writes = size = write_ms = 0.0
    for s in STAGES:
        scope = STAGE_SPAN[s]
        n = steps[s] * rounds

        def get(name, field="total_ms"):
            return _sum(agg, name, field, scope)

        stage_ms = _sum(agg, scope)
        out[f"tensor.backward_ms.{s}"] = (_div(get("tensor.backward"), n), "ms")
        out[f"tensor.tape_nodes.{s}"] = (_div(get("tensor.backward", "count"),
                                              get("tensor.backward", "calls")), "count")
        out[f"tensor.gc_ms.{s}"] = (get("tensor.gc") / rounds, "ms")
        out[f"tensor.gc_collected.{s}"] = (get("tensor.gc", "count") / rounds, "count")
        out[f"training.loss_ms.{s}"] = (_div(get("training.loss"), n), "ms")
        out[f"training.adam_ms.{s}"] = (_div(get("training.adam"), n), "ms")
        out[f"training.val_runs.{s}"] = (get("training.val", "calls") / rounds, "count")
        out[f"training.val_ms.{s}"] = (_div(get("training.val"), get("training.val", "calls")), "ms")
        out[f"pipeline.stage_setup_ms.{s}"] = ((stage_ms - get("training.train")) / rounds, "ms")
        writes += get("training.save_checkpoint", "calls")
        size += get("training.save_checkpoint", "count")
        write_ms += get("training.save_checkpoint")
    out["training.ckpt_writes"] = (writes / rounds, "count")
    out["training.ckpt_bytes"] = (size / rounds, "count")
    out["training.ckpt_write_ms"] = (_div(write_ms, writes), "ms")
    return out


def translate_metrics(tr: Tracer, utts: int) -> dict:
    """Common metrics per utterance, plus the decode and synthesis metrics."""
    agg = tr.breakdown([SETUP_SPAN, "model.decode"])
    out = common_metrics(agg, utts)
    steps = _sum(agg, "model.decode", "count")
    decode_ms = _sum(agg, "model.decode")
    out["model.decode_ms"] = (decode_ms / utts, "ms")
    out["model.decode_steps"] = (steps / utts, "count")
    out["model.decode_ms_per_step"] = (_div(decode_ms, steps), "ms")
    out["model.decode_rows_per_step"] = (
        _div(_sum(agg, "nn.block", "count", "model.decode"), steps), "count")
    out["vocoder.synthesize_ms"] = (_sum(agg, "vocoder.synthesize") / utts, "ms")
    out["evaluation.transcribe_ms"] = (_sum(agg, "evaluation.transcribe") / utts, "ms")
    return out
