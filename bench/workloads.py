"""The benchmark's workloads: `train`, `translate_long` and `translate_short`.

All three use the toy presets of `minis2st.pipeline` and the seeded toy corpus
(500 training and 50 held-out pairs, 4 speakers).  Each is a closed loop with
one caller in one process: the next item starts when the previous one ends.

- train: a training round runs the tokenizer, model and vocoder stages for a
  fixed number of steps each at the presets' batch of 8, writing checkpoints
  and JSONL logs to a scratch directory.  The corpus and every stage seed come
  from the workload seed.
- translate_long / translate_short: the inference chain (translate, then
  synthesize with a same-speaker prompt, then transcribe) over the held-out
  utterances of the corpus at the pipeline's default seed, with seeded
  untrained weights, at 64 and 8 decode steps.  The workload seed orders the
  utterances; every pass covers all of them, so two seeds do the same work.

Outputs are checked against references kept in references.json; a check that
fails counts the operation as failed.
"""
from __future__ import annotations

import gc
import json
import math
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from minis2st import corpus, evaluation, model, pipeline, tokenizer, vocoder

import layers
from tracing import Tracer

REFERENCES = Path(__file__).resolve().parent / "references.json"

N_TRAIN, N_HELD_OUT = 500, 50
# the toy presets validate every 100, 200 and 100 steps; every stage runs past
# its first validation, and the vocoder stage, the cheapest per step, runs
# longer so that its timing spans several seconds
STEPS = {"tokenizer": 110, "model": 210, "vocoder": 410}
DECODE_STEPS = {"translate_long": 64, "translate_short": 8}
POOL_SEED = 0        # corpus and weight seed of the translate workloads
SETUP_REPEATS = 5    # set-ups per process, and at least SETUP_SECONDS of them;
SETUP_SECONDS = 2.0  # setup_s is their median
WARMUP_UTTS = 3      # untimed utterances before a translate measurement
VAL_RTOL = 1e-4      # val_loss against a reference recorded for the same seed
VAL_BAND = (0.5, 1.5)  # val_loss against the recorded range, for other seeds


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def traced_setup(setup, tracer: Tracer):
    idx = tracer.open(layers.SETUP_SPAN)
    try:
        return setup()
    finally:
        tracer.close(idx)


def repeated_setup(setup):
    """Run set-up several times (the last result is used); returns
    (result, seconds of each run)."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, times


def another(t_start: float, done: int, seconds: float) -> bool:
    """Whether to run one more whole item (a training round or a pass over
    the utterances): yes while that ends nearer to `seconds` than stopping
    now would, so a run measures about `seconds` of whole items, at least one."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / done < seconds


@dataclass
class StageRun:
    seconds: float
    examples: int
    result: object  # the stage's TrainResult
    losses: list    # training loss of every step


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)


# ---------------------------------------------------------------- train


def train_setup(seed: int):
    full = corpus.generate_toy_corpus(pipeline.toy_corpus_config(N_TRAIN + N_HELD_OUT), seed)
    return pipeline.split_manifest(full, N_TRAIN)


def train_round(data, seed: int, workdir: Path) -> dict:
    """One training round; returns a StageRun per stage."""
    train_m, val_m = data
    out = {}

    def stage(name, fn, *args):
        losses = []
        t0 = time.perf_counter()
        trained, res = fn(train_m, val_m, *args, seed=seed, max_steps=STEPS[name],
                          checkpoint_path=str(workdir / f"{name}.ckpt"),
                          log_path=str(workdir / f"{name}.log.jsonl"), loss_trace=losses)[:2]
        batch = pipeline.toy_train_config(name, seed).batch_size
        out[name] = StageRun(time.perf_counter() - t0, res.steps * batch, res, losses)
        return trained

    tok = stage("tokenizer", pipeline.train_tokenizer_stage)
    stage("model", pipeline.train_model_stage, tok)
    stage("vocoder", pipeline.train_vocoder_stage, tok)
    return out


def check_train_round(stages: dict, seed: int, refs: dict, checks: Checks) -> dict:
    """Checks one round's outputs; returns its last validation losses."""
    recorded = refs["train"]["val_loss"]
    val = {}
    for name, run in stages.items():
        res, losses = run.result, run.losses
        # every training step is one operation: its loss must be finite
        for step in range(STEPS[name]):
            ok = step < len(losses) and math.isfinite(losses[step])
            checks.add(ok, f"{name} step {step + 1}: loss missing or not finite")
        v = res.val_history[-1][1] if res.val_history else math.nan
        val[name] = v
        if str(seed) in recorded:
            ref = recorded[str(seed)][name]
            close = abs(v - ref) <= VAL_RTOL * abs(ref)
            why = f"reference {ref!r} for seed {seed}"
        else:
            lo = VAL_BAND[0] * min(r[name] for r in recorded.values())
            hi = VAL_BAND[1] * max(r[name] for r in recorded.values())
            close = lo <= v <= hi
            why = f"recorded range widened to [{lo:.4f}, {hi:.4f}]"
        checks.add(res.steps == STEPS[name] and close,
                   f"{name}: {res.steps} steps (want {STEPS[name]}), "
                   f"val_loss {v!r} against {why}")
    return val


def run_train(seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    refs = load_references()
    if refs["train"]["steps"] != STEPS:
        raise RuntimeError("references.json was recorded for other step counts")
    data, setup_times = repeated_setup(lambda: train_setup(seed))
    checks = Checks()
    rounds = []
    gc.collect()
    t_start = time.perf_counter()
    while another(t_start, len(rounds), seconds):
        stages = train_round(data, seed, workdir)
        val = check_train_round(stages, seed, refs, checks)
        rounds.append((stages, val))
    steps = {name: sorted({st[name].result.steps for st, _ in rounds}) for name in STEPS}
    result = {"setup_times": setup_times, "checks": checks, "rounds": rounds,
              "work": f"{len(rounds)} round(s); steps per stage {steps}"}
    if traced:
        result["traced"] = _traced_train(seed, workdir, refs, checks, len(rounds),
                                         time.perf_counter() - t_start)
    return result


def _traced_train(seed, workdir, refs, checks, n_rounds, untraced_s):
    tracer = Tracer()
    try:
        layers.install(tracer)
        data = traced_setup(lambda: train_setup(seed), tracer)
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(n_rounds):
            check_train_round(train_round(data, seed, workdir), seed, refs, checks)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "traced_s": traced_s, "untraced_s": untraced_s,
            "metrics": layers.train_metrics(tracer, n_rounds, STEPS)}


def train_metrics(result: dict) -> dict:
    rounds = result["rounds"]

    def med(values):
        return float(np.median(values))

    out = {}
    for name in STEPS:
        out[f"examples_per_s.{name}"] = (
            med([st[name].examples / st[name].seconds for st, _ in rounds]), "1/s")
        out[f"val_loss.{name}"] = (med([val[name] for _, val in rounds]), "loss")
    out["utts_per_s"] = (med([sum(r.examples for r in st.values())
                              / sum(r.seconds for r in st.values()) for st, _ in rounds]), "1/s")
    out["train_rounds"] = (len(rounds), "count")
    return out


# ------------------------------------------------------------ translate


@dataclass
class Chain:
    held_out: list
    model: model.TranslationModel
    tokenizer: tokenizer.SpeechTokenizer
    vocoder: vocoder.TimbreVocoder
    embedder: vocoder.SpeakerEmbedder
    alignment: np.ndarray
    prompts: dict
    frames_per_symbol: int
    tgt_vocab: int


def translate_setup() -> Chain:
    full = corpus.generate_toy_corpus(pipeline.toy_corpus_config(N_TRAIN + N_HELD_OUT), POOL_SEED)
    train_m, held = pipeline.split_manifest(full, N_TRAIN)
    fps = int(full.metadata["frames_per_symbol"])
    tgt_vocab = int(full.metadata["tgt_vocab"])
    tok = tokenizer.SpeechTokenizer(pipeline.toy_tokenizer_config(), POOL_SEED)
    voc = vocoder.TimbreVocoder(pipeline.toy_vocoder_config(), POOL_SEED)
    return Chain(
        held_out=list(held),
        model=model.TranslationModel(pipeline.toy_model_config(), POOL_SEED),
        tokenizer=tok,
        vocoder=voc,
        embedder=vocoder.SpeakerEmbedder(voc.cfg.feat_dim, spk_dim=voc.cfg.spk_dim,
                                         seed=POOL_SEED),
        alignment=tokenizer.token_symbol_alignment(tok, train_m, fps, tgt_vocab),
        prompts=pipeline.same_speaker_prompts(held),
        frames_per_symbol=fps,
        tgt_vocab=tgt_vocab,
    )


def translate_one(chain: Chain, rec, max_steps: int):
    """The inference chain for one utterance; returns (DecodeResult,
    synthesized frames, transcribed symbols, [t0, t1, t2, t3])."""
    t0 = time.perf_counter()
    res = chain.model.translate(rec.src_frames, model.DecodeConfig(max_steps=max_steps))
    t1 = time.perf_counter()
    spk = chain.embedder.embed(chain.prompts[rec.id].tgt_frames)
    gen = chain.vocoder.synthesize(res.tokens, spk)
    t2 = time.perf_counter()
    hyp = (evaluation.transcribe_frames(gen, chain.tokenizer, chain.alignment,
                                        chain.frames_per_symbol) if gen.length else [])
    t3 = time.perf_counter()
    return res, gen, hyp, (t0, t1, t2, t3)


def _matches(out, ref) -> int:
    return sum(a == b for a, b in zip(out, ref))


def check_utterance(chain: Chain, rec, max_steps: int, out, ref: dict, checks: Checks):
    """Checks one utterance; returns (ids equal to the reference, ids compared)."""
    res, gen, hyp, _ = out
    cfg = chain.model.cfg
    ref_text = ref["text"][:max_steps]
    ref_tokens = ref["tokens"][:max_steps * cfg.group_size]
    problems = []
    if not all(0 <= t < cfg.text_vocab for t in res.text):
        problems.append("text id outside the symbol range")
    if not all(0 <= t < cfg.audio_vocab for t in res.tokens):
        problems.append("audio token outside [0, audio_vocab)")
    if res.steps != max_steps:
        problems.append(f"{res.steps} decode steps, want {max_steps}")
    if list(res.text) != ref_text or list(res.tokens) != ref_tokens:
        problems.append("output differs from the reference")
    if gen.frames.shape != (len(res.tokens), cfg.feat_dim) or not np.isfinite(gen.frames).all():
        problems.append(f"synthesized frames of shape {gen.frames.shape} or not finite")
    if not all(0 <= s < chain.tgt_vocab for s in hyp):
        problems.append("transcribed symbol outside the target vocabulary")
    checks.add(not problems, f"{rec.id}: {'; '.join(problems)}")
    matched = _matches(res.text, ref_text) + _matches(res.tokens, ref_tokens)
    compared = (max(len(res.text), len(ref_text)) + max(len(res.tokens), len(ref_tokens)))
    return matched, compared


def run_translate(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    max_steps = DECODE_STEPS[workload]
    refs = load_references()["translate"]
    if refs["pool_seed"] != POOL_SEED or refs["max_steps"] < max_steps:
        raise RuntimeError("references.json was recorded for another translate pool")
    chain, setup_times = repeated_setup(translate_setup)
    rng = np.random.default_rng(seed)
    n = len(chain.held_out)
    for i in rng.permutation(n)[:WARMUP_UTTS]:
        translate_one(chain, chain.held_out[i], max_steps)
    checks = Checks()
    order, lat, parts, steps = [], [], [], set()
    matched = compared = 0
    gc.collect()
    t_start = time.perf_counter()
    while another(t_start, len(order) // n, seconds):
        for i in rng.permutation(n):  # whole passes: every run covers each utterance equally
            rec = chain.held_out[i]
            out = translate_one(chain, rec, max_steps)
            t0, t1, t2, t3 = out[3]
            order.append(i)
            steps.add(out[0].steps)
            lat.append(t3 - t0)
            parts.append((t1 - t0, t2 - t1, t3 - t2))
            m, c = check_utterance(chain, rec, max_steps, out, refs["utterances"][rec.id], checks)
            matched += m
            compared += c
    wall = time.perf_counter() - t_start
    result = {"setup_times": setup_times, "checks": checks, "latencies": lat,
              "parts": parts, "output_match": matched / compared,
              "work": f"{len(order)} utterances in {len(order) // n} passes; "
                      f"decode steps {sorted(steps)}"}
    if traced:
        result["traced"] = _traced_translate(chain, order, max_steps, refs, checks, wall)
    return result


def _traced_translate(chain, order, max_steps, refs, checks, untraced_s):
    tracer = Tracer()
    try:
        layers.install(tracer)
        traced_setup(translate_setup, tracer)
        gc.collect()
        t0 = time.perf_counter()
        for i in order:
            rec = chain.held_out[i]
            idx = tracer.open(layers.UTTERANCE_SPAN)
            out = translate_one(chain, rec, max_steps)
            tracer.close(idx)
            check_utterance(chain, rec, max_steps, out, refs["utterances"][rec.id], checks)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "traced_s": traced_s, "untraced_s": untraced_s,
            "metrics": layers.translate_metrics(tracer, len(order))}


def translate_metrics(result: dict) -> dict:
    lat = np.asarray(result["latencies"])
    parts = np.asarray(result["parts"])
    n = len(lat)
    return {
        "utts_per_s": (n / lat.sum(), "1/s"),
        "examples_per_s.model": (n / parts[:, 0].sum(), "1/s"),
        "examples_per_s.vocoder": (n / parts[:, 1].sum(), "1/s"),
        "examples_per_s.tokenizer": (n / parts[:, 2].sum(), "1/s"),
        "utt_ms_p50": (1000 * float(np.percentile(lat, 50)), "ms"),
        "utt_ms_p90": (1000 * float(np.percentile(lat, 90)), "ms"),
        "utt_samples": (n, "count"),
        "output_match": (result["output_match"], "share"),
    }


@contextmanager
def scratch_dir(root: Path):
    """A fresh directory under .bench_out for checkpoints and logs, removed on exit."""
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
