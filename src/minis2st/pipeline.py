"""Staged training glue, the ablation suites and the end-to-end toy run.

Each stage hands one runner its batch loss, validation set, and checkpoint
snapshot, and returns (module, TrainResult) with the best validated weights in
the module, whether or not checkpoints are written.  Every stage builds one
padded graph per batch and validates on its whole held-out set as one batch:
utterances are right-padded to the longest, a key-padding mask (or the causal
mask, in the right-padded decoders) keeps pad rows out of every real row's
view, and each loss term is one `softmax_cross_entropy` or `squared_error`
call, the mean over utterances of each utterance's own mean.
Checkpoints store only trainable tensors plus each module's recipe, the
constructor arguments it records as `recipe`; frozen parts (speech encoder,
frozen text rows, the speaker embedder that the vocoder and text-to-token
model carry) are regenerated from the recorded seeds, so `rebuild` returns
one whole module.  The ablation suites train model-stage variants under one
seed and score each with `evaluation.evaluate_translation`.
Every setting lives in a config dataclass, and a stage given no config runs
its defaults; the training settings, which differ stage by stage, are
`toy_train_config`'s.
"""
from __future__ import annotations

import inspect
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation, nn
from .corpus import ConfigError, Manifest, SpeechFrames, ToyCorpusConfig, generate_toy_corpus
from .corpus import same_speaker_prompts  # unused here: bench/ calls it as pipeline's
from .model import DecodeConfig, ModelConfig, TranslationModel
from .tokenizer import (
    SpeechTokenizer,
    TextToTokenModel,
    TokenizerConfig,
    token_symbol_alignment,
)
from .training import (
    CheckpointState,
    TrainConfig,
    TrainResult,
    VersionError,
    expect_kind,
    load_arrays,
    train,
)
from .vocoder import SpeakerEmbedder, TimbreVocoder, VocoderConfig


# ------------------------------------------------------------- checkpoint glue


# checkpoint kind and bundle key -> (module class, its config class, tensor prefix)
_LAYOUT = {
    ("tokenizer", None): (SpeechTokenizer, TokenizerConfig, ""),
    ("tokenizer", "text_to_token"): (TextToTokenModel, None, "tt."),
    ("model", None): (TranslationModel, ModelConfig, ""),
    ("model", "vocoder"): (TimbreVocoder, VocoderConfig, "voc."),
    ("vocoder", None): (TimbreVocoder, VocoderConfig, ""),
}
# keys a checkpoint config may hold beside a module's recipe
_BESIDE = {"token_source", "text_to_token", "vocoder"}


def rebuild(st: CheckpointState, kind: str, key: str | None = None) -> nn.Module:
    """The module, trained tensors loaded, of a checkpoint of `kind` or bundled
    in it under `key`; frozen tensors and speaker embedders come from seeds.

    A recipe this build cannot construct -- an unknown or missing field, a
    value of the wrong type, or one the module rejects -- raises VersionError.
    """
    expect_kind(st, kind)
    cls, cfg_cls, prefix = _LAYOUT[(kind, key)]
    where = key or kind
    nested = {"cfg": cfg_cls, "embedder": SpeakerEmbedder}

    def build(recipe, cls, where: str, beside: set):
        # a recipe holds the constructor's arguments, a config or an embedder as
        # a nested recipe; a value has its default's type, or else is an int
        if not isinstance(recipe, dict):
            raise VersionError(f"checkpoint config {where} is missing or not an object")
        params = inspect.signature(cls).parameters
        unknown = sorted(recipe.keys() - params.keys() - beside)
        missing = sorted(params.keys() - recipe.keys())
        if unknown or missing:
            raise VersionError(f"checkpoint config {where}: unknown fields {unknown}, "
                               f"missing fields {missing}")
        args = {}
        for name, param in params.items():
            value = recipe[name]
            like = 0 if param.default is param.empty else param.default
            if name in nested:
                value = build(value, nested[name], f"{where}.{name}", set())
            elif not (type(value) is type(like) or type(like) is float and type(value) is int):
                raise VersionError(f"checkpoint config {where}.{name}: {value!r} "
                                   f"is not of type {type(like).__name__}")
            args[name] = value
        return cls(**args)

    recipe = st.config if key is None else st.config.get(key)
    try:  # configs and constructors reject values out of range
        module = build(recipe, cls, where, _BESIDE)
    except ValueError as exc:
        raise VersionError(f"checkpoint config {where}: {exc}") from None
    # frozen tensors stay as constructed
    load_arrays(st.tensors, {prefix + name: ("tensor", t.data)
                             for name, t in module.named_tensors() if t.requires_grad})
    return module


def bundle(st: CheckpointState, key: str, module: nn.Module) -> CheckpointState:
    """`st` with `module` folded in under `key` (text_to_token into a tokenizer
    checkpoint, vocoder into a model checkpoint), so one file carries both."""
    prefix = _LAYOUT[(st.kind, key)][2]
    tensors = dict(st.tensors)
    for name, t in module.trainable().items():
        tensors[prefix + name] = t.data.copy()
    return CheckpointState(kind=st.kind, config={**st.config, key: module.recipe},
                           step=st.step, tensors=tensors, rng_state=st.rng_state, meta=st.meta)


def resolve_vocoder(st: CheckpointState) -> TimbreVocoder:
    """The vocoder of a vocoder checkpoint, or the one bundled in a model checkpoint."""
    if st.kind == "model" and "vocoder" not in st.config:
        raise VersionError("the model checkpoint carries no vocoder; "
                           "train-model --with-vocoder true bundles one")
    return rebuild(st, "model", "vocoder") if st.kind == "model" else rebuild(st, "vocoder")


# ------------------------------------------------------------------ settings
# Each module runs its config dataclass's defaults.  bench/ calls these four
# names as pipeline's, and bench/ may not change with the program; nothing
# else calls them.


def toy_corpus_config(pairs: int) -> ToyCorpusConfig:
    return ToyCorpusConfig(pairs=pairs)


toy_tokenizer_config = TokenizerConfig
toy_model_config = ModelConfig
toy_vocoder_config = VocoderConfig


# the stages train with different settings, so no TrainConfig default serves them all
def toy_train_config(stage: str, seed: int = 0) -> TrainConfig:
    if stage == "tokenizer":
        return TrainConfig(lr=2e-3, batch_size=8, warmup_steps=30, decay_gamma=0.97,
                           max_epochs=30, validate_every=100, patience=8, seed=seed)
    if stage == "model":
        return TrainConfig(lr=1e-3, batch_size=8, warmup_steps=50, decay_gamma=0.985,
                           max_epochs=140, validate_every=200, patience=12, seed=seed)
    if stage == "vocoder":
        return TrainConfig(lr=2e-3, batch_size=8, warmup_steps=30, decay_gamma=0.97,
                           max_epochs=12, validate_every=100, patience=4, seed=seed)
    if stage == "text_to_token":
        return TrainConfig(lr=1e-3, batch_size=8, warmup_steps=30, decay_gamma=0.97,
                           max_epochs=15, validate_every=100, patience=4, seed=seed)
    raise ValueError(f"unknown stage {stage!r}")


# ------------------------------------------------------------- manifest utils


def split_manifest(m: Manifest, n_train: int):
    """Leading n_train records for training, the rest held out."""
    records = list(m)
    if not (0 < n_train < len(records)):
        raise ValueError(f"split point {n_train} outside (0, {len(records)})")
    return m.subset(records[:n_train]), m.subset(records[n_train:])


# -------------------------------------------------------------- stage runner


def _run_stage(kind: str, module: nn.Module, train_ex, val_ex, batch_loss,
               tcfg: TrainConfig, *, loss_trace, **train_kw) -> TrainResult:
    """Train `module` on a batch loss; validate on the whole validation set.

    batch_loss(examples, rng) returns (scalar loss Tensor, {name: float}
    parts) of a list of examples; rng is None while validating, so
    training-only work (augmentation, usage counts) keys on it.  The loss of
    the whole validation set, computed outside the tape, is the validation loss.
    train() leaves the best validated weights in `module`.
    """
    if not val_ex:
        raise ConfigError(f"{kind} stage needs a non-empty validation set")

    def loss_fn(batch, rng):
        total, parts = batch_loss(batch, rng)
        if loss_trace is not None:
            loss_trace.append(float(total.data))
        return total, parts

    def val_fn():
        return float(batch_loss(val_ex, None)[0].data)

    return train(params=dict(module.trainable()), examples=train_ex, loss_fn=loss_fn,
                 val_fn=val_fn, cfg=tcfg, kind=kind, **train_kw)


def _prompted_examples(m: Manifest, tokenizer: SpeechTokenizer, module: nn.Module) -> list:
    """(record, semantic tokens, prompt embedding by `module.embedder`) per record."""
    tokens = tokenizer.tokenize_many([r.tgt_frames for r in m])
    return [(r, toks, spk) for r, toks, (_, spk) in zip(m, tokens, module.embedder.prompts(m))]


def _check_codebook(stage: str, audio_vocab: int, tokenizer: SpeechTokenizer):
    """A stage that reads or writes semantic tokens needs the tokenizer's codebook size."""
    if audio_vocab != tokenizer.cfg.codebook_size:
        raise ConfigError(
            f"{stage} audio vocab {audio_vocab} != codebook size {tokenizer.cfg.codebook_size}"
        )


# ------------------------------------------------------------ tokenizer stage


def train_tokenizer_stage(train_m: Manifest, val_m: Manifest,
                          cfg: TokenizerConfig | None = None,
                          tcfg: TrainConfig | None = None, *, seed: int = 0,
                          checkpoint_path=None, log_path=None,
                          max_steps=None, loss_trace=None):
    cfg = cfg if cfg is not None else TokenizerConfig()
    tcfg = tcfg if tcfg is not None else toy_train_config("tokenizer", seed)
    tok = SpeechTokenizer(cfg, seed)
    records = list(train_m)
    usage = np.zeros(cfg.codebook_size)

    def batch_loss(batch, rng):
        total, parts, tokens = tok.training_losses([r.tgt_frames for r in batch],
                                                   [r.tgt_text for r in batch])
        if rng is not None:
            np.add.at(usage, tokens, 1.0)
        return total, parts

    def on_epoch_end(epoch, rng):
        # codes unused for a whole epoch are re-seeded onto fresh encodings
        dead = np.nonzero(usage == 0)[0]
        if dead.size:
            r = records[int(rng.integers(len(records)))]
            h = tok.encoder.encode_stage1(r.tgt_frames.frames, None).data
            rows = rng.integers(0, h.shape[0], size=dead.size)
            tok.codebook.entries.data[dead] = h[rows]
        usage[:] = 0.0

    result = _run_stage(
        "tokenizer", tok, records, list(val_m), batch_loss, tcfg,
        loss_trace=loss_trace, lengths=[r.tgt_frames.length for r in records],
        state_arrays={"codebook_usage": usage}, on_epoch_end=on_epoch_end,
        checkpoint_path=checkpoint_path, log_path=log_path,
        config_snapshot=tok.recipe, max_steps=max_steps,
    )
    return tok, result


# -------------------------------------------------------- text-to-token stage


def train_text_to_token_stage(train_m: Manifest, val_m: Manifest,
                              tokenizer: SpeechTokenizer, *, seed: int = 0,
                              embedder: SpeakerEmbedder | None = None, max_steps=None):
    """Train the text-to-token model on speech-derived tokens, conditioned by `embedder`;
    it is kept in memory or bundled into a tokenizer checkpoint, never saved alone."""
    cfg = tokenizer.cfg
    embedder = embedder if embedder is not None else SpeakerEmbedder(cfg.feat_dim, seed=seed)
    t2t = TextToTokenModel(cfg.text_vocab, cfg.codebook_size, embedder.spk_dim, seed=seed,
                           embedder=embedder)
    train_ex = _prompted_examples(train_m, tokenizer, t2t)

    def batch_loss(batch, rng):
        texts, tokens, spks = zip(*[(r.tgt_text, toks, spk) for r, toks, spk in batch])
        return t2t.loss(texts, tokens, np.stack(spks)), {}

    result = _run_stage(
        "text_to_token", t2t, train_ex, _prompted_examples(val_m, tokenizer, t2t),
        batch_loss, toy_train_config("text_to_token", seed), loss_trace=None,
        lengths=[len(r.tgt_text) + len(tokens) for r, tokens, _ in train_ex],
        config_snapshot=t2t.recipe, max_steps=max_steps,
    )
    return t2t, result


# ---------------------------------------------------------------- model stage


def build_token_targets(m: Manifest, tokenizer: SpeechTokenizer,
                        token_source: str = "speech", *,
                        text_to_token: TextToTokenModel | None = None) -> list:
    """(record, semantic tokens) pairs for decoder training.

    speech: tokens come from re-quantizing the target frames, in one
    `tokenize_many` call.
    text: the trained text-to-token model generates them from the target text
    and a same-speaker prompt, embedded by the model's own embedder.
    """
    if token_source == "speech":
        return list(zip(m, tokenizer.tokenize_many([r.tgt_frames for r in m])))
    if token_source == "text":
        if text_to_token is None:
            raise ValueError("text token source needs text_to_token")
        return [(r, text_to_token.generate(r.tgt_text, spk, max_len=64).tokens)
                for r, (_, spk) in zip(m, text_to_token.embedder.prompts(m))]
    raise ValueError(f"unknown token source {token_source!r}")


def train_model_stage(train_m: Manifest, val_m: Manifest, tokenizer: SpeechTokenizer,
                      cfg: ModelConfig | None = None, tcfg: TrainConfig | None = None,
                      *, seed: int = 0, token_source: str = "speech",
                      text_to_token: TextToTokenModel | None = None,
                      checkpoint_path=None, log_path=None,
                      max_steps=None, loss_trace=None):
    cfg = cfg if cfg is not None else ModelConfig()
    tcfg = tcfg if tcfg is not None else toy_train_config("model", seed)
    _check_codebook("model", cfg.audio_vocab, tokenizer)
    model = TranslationModel(cfg, seed)
    train_ex = build_token_targets(train_m, tokenizer, token_source, text_to_token=text_to_token)
    val_ex = build_token_targets(val_m, tokenizer, token_source, text_to_token=text_to_token)

    def batch_loss(batch, rng):
        sources = [r.src_frames for r, _ in batch]
        if rng is not None:
            # fresh jitter per visit, drawn example by example: cheap
            # augmentation against memorizing the fixed training renderings
            # (validation stays clean)
            sources = [SpeechFrames(src.frames + rng.normal(0.0, 0.1, src.frames.shape))
                       for src in sources]
        total, loss_a, loss_t = model.loss_for(
            sources, [r.tgt_text for r, _ in batch], [tokens for _, tokens in batch],
            lambda_audio=tcfg.lambda_audio, lambda_text=tcfg.lambda_text,
        )
        return total, {"loss_audio": float(loss_a.data), "loss_text": float(loss_t.data)}

    result = _run_stage(
        "model", model, train_ex, val_ex, batch_loss, tcfg,
        loss_trace=loss_trace, lengths=[len(tokens) for _, tokens in train_ex],
        checkpoint_path=checkpoint_path, log_path=log_path,
        config_snapshot={**model.recipe, "token_source": token_source},
        max_steps=max_steps,
    )
    return model, result


# -------------------------------------------------------------- vocoder stage


def train_vocoder_stage(train_m: Manifest, val_m: Manifest, tokenizer: SpeechTokenizer,
                        cfg: VocoderConfig | None = None, tcfg: TrainConfig | None = None,
                        *, seed: int = 0, checkpoint_path=None, log_path=None,
                        max_steps=None, loss_trace=None):
    cfg = cfg if cfg is not None else VocoderConfig()
    tcfg = tcfg if tcfg is not None else toy_train_config("vocoder", seed)
    _check_codebook("vocoder", cfg.audio_vocab, tokenizer)
    voc = TimbreVocoder(cfg, seed)
    train_ex = _prompted_examples(train_m, tokenizer, voc)

    def batch_loss(batch, rng):
        tokens, spks, frames = zip(*[(toks, spk, r.tgt_frames) for r, toks, spk in batch])
        return voc.loss(tokens, np.stack(spks), frames), {}

    result = _run_stage(
        "vocoder", voc, train_ex, _prompted_examples(val_m, tokenizer, voc),
        batch_loss, tcfg, loss_trace=loss_trace,
        lengths=[len(tokens) for _, tokens, _ in train_ex],
        checkpoint_path=checkpoint_path, log_path=log_path,
        config_snapshot=voc.recipe, max_steps=max_steps,
    )
    return voc, result


# ------------------------------------------------------------------ ablations


def run_ablation(suite: str, *, train_m: Manifest, val_m: Manifest, eval_m: Manifest,
                 tokenizer, vocoder, alignment, seed: int = 0,
                 train_cfg=None, max_steps=None):
    """Train and score the configured variants under one seed and data split.

    suite "projectors": linear / conv1d-linear / qformer-2 / qformer-4.
    suite "token_source": decoder targets from speech-derived vs text-derived
    semantic tokens.  A variant that raises is reported as failed while the
    rest proceed.  Returns (EvalReport, {variant: per-step loss trace}).
    """
    fps = train_m.metadata.get("frames_per_symbol", 4)
    base_cfg = ModelConfig()
    rows, curves, notes = [], {}, []

    def variant(name: str, stage_kw):
        """Train and score one variant; stage_kw() gives its model-stage
        arguments.  A variant that raises is reported failed, the rest go on."""
        trace: list = []
        try:
            model, _ = train_model_stage(
                train_m, val_m, tokenizer, tcfg=train_cfg, seed=seed, max_steps=max_steps,
                loss_trace=trace, **stage_kw(),
            )
            row, _ = evaluation.evaluate_translation(
                model=model, tokenizer=tokenizer, vocoder=vocoder, alignment=alignment,
                records=eval_m, frames_per_symbol=fps, system=name,
            )
            row.extras["final_train_loss"] = float(trace[-1]) if trace else None
            half = evaluation.steps_to_half_loss(trace)
            if half is not None:
                row.extras["steps_to_half_loss"] = half
        except Exception as exc:  # isolate the failing variant
            row = evaluation.EvalRow(system=name, count=0, error=str(exc))
        rows.append(row)
        curves[name] = trace

    if suite == "projectors":
        variants = [
            ("linear", {"projector": "linear"}),
            ("conv1d-linear", {"projector": "conv1d"}),
            ("qformer-2", {"projector": "qformer", "qformer_blocks": 2}),
            ("qformer-4", {"projector": "qformer", "qformer_blocks": 4}),
        ]
        for name, over in variants:
            variant(name, lambda: {"cfg": replace(base_cfg, **over)})
        halves = {r.system: r.extras.get("steps_to_half_loss") for r in rows if not r.error}
        lin = halves.get("linear")
        qf = [halves.get(k) for k in ("qformer-2", "qformer-4")]
        if lin is None or any(v is None for v in qf):
            notes.append("faster convergence for higher-capacity projectors: inconclusive")
        else:
            verdict = "observed" if min(qf) < lin else "not observed"
            notes.append(f"faster convergence for higher-capacity projectors: {verdict}")
    elif suite == "token_source":
        variant("speech-tokens", lambda: {"cfg": base_cfg, "token_source": "speech"})
        variant("text-tokens", lambda: {
            "cfg": base_cfg, "token_source": "text",
            "text_to_token": train_text_to_token_stage(
                train_m, val_m, tokenizer, seed=seed, embedder=vocoder.embedder,
                max_steps=max_steps,
            )[0],
        })
        by_name = {r.system: r for r in rows}
        sp, tx = by_name.get("speech-tokens"), by_name.get("text-tokens")
        if sp and tx and not sp.error and not tx.error and sp.bleu and sp.bleu > 0:
            delta = (sp.bleu - tx.bleu) / sp.bleu * 100.0
            notes.append(f"relative BLEU degradation of {delta:.2f}% with text-derived tokens")
        else:
            notes.append("relative BLEU degradation: undefined (missing or zero baseline)")
    else:
        raise ValueError(f"unknown ablation suite {suite!r}")

    report = evaluation.EvalReport(
        rows=rows,
        metadata={
            "suite": suite,
            "seed": seed,
            "train_pairs": len(train_m),
            "eval_pairs": len(eval_m),
            "max_steps": max_steps,
        },
        notes=notes,
    )
    report.validate()
    return report, curves


# ------------------------------------------------------------ end-to-end run


@dataclass
class PipelineRun:
    seed: int
    train_m: Manifest
    val_m: Manifest
    tokenizer: SpeechTokenizer
    model: TranslationModel
    vocoder: TimbreVocoder
    alignment: np.ndarray
    tokenizer_result: TrainResult
    model_result: TrainResult
    vocoder_result: TrainResult
    report: evaluation.EvalReport
    timings: dict = field(default_factory=dict)


def run_toy_pipeline(out_dir=None, *, seed: int = 0, corpus_cfg: ToyCorpusConfig | None = None,
                     n_train: int = 500, tokenizer_steps=None, model_steps=None,
                     vocoder_steps=None, decode_cfg: DecodeConfig | None = None) -> PipelineRun:
    """Corpus -> tokenizer -> model -> vocoder -> evaluation, one seed throughout.

    With out_dir set, writes the stage checkpoints, loss logs, and the report
    files there; otherwise everything stays in memory.  out_dir only decides
    whether files are written, not what is learned: each stage hands on its
    best validated weights either way.
    """
    from pathlib import Path

    paths = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in ("tokenizer", "model", "vocoder"):
            paths[name] = str(out / f"{name}.ckpt")
            paths[name + "_log"] = str(out / f"{name}.log.jsonl")

    timings = {}
    t0 = time.perf_counter()
    corpus_cfg = corpus_cfg if corpus_cfg is not None else ToyCorpusConfig(pairs=n_train + 50)
    full = generate_toy_corpus(corpus_cfg, seed)
    train_m, val_m = split_manifest(full, n_train)
    fps = int(full.metadata["frames_per_symbol"])
    timings["corpus"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tok, tok_res = train_tokenizer_stage(
        train_m, val_m, seed=seed, max_steps=tokenizer_steps,
        checkpoint_path=paths.get("tokenizer"), log_path=paths.get("tokenizer_log"),
    )
    alignment = token_symbol_alignment(tok, train_m, fps, corpus_cfg.tgt_vocab)
    timings["tokenizer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model, model_res = train_model_stage(
        train_m, val_m, tok, seed=seed, max_steps=model_steps,
        checkpoint_path=paths.get("model"), log_path=paths.get("model_log"),
    )
    timings["model"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    voc, voc_res = train_vocoder_stage(
        train_m, val_m, tok, seed=seed, max_steps=vocoder_steps,
        checkpoint_path=paths.get("vocoder"), log_path=paths.get("vocoder_log"),
    )
    timings["vocoder"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    row, _ = evaluation.evaluate_translation(
        model=model, tokenizer=tok, vocoder=voc, alignment=alignment, records=val_m,
        frames_per_symbol=fps, decode_cfg=decode_cfg,
    )
    report = evaluation.EvalReport(
        rows=[row],
        metadata={"seed": seed, "train_pairs": len(train_m), "val_pairs": len(val_m)},
    )
    timings["evaluation"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())
    # ru_maxrss is in KiB on Linux; added after the total, which counts seconds only
    timings["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if out_dir is not None:
        report.write(out)

    return PipelineRun(
        seed=seed, train_m=train_m, val_m=val_m, tokenizer=tok, model=model,
        vocoder=voc, alignment=alignment,
        tokenizer_result=tok_res, model_result=model_res, vocoder_result=voc_res,
        report=report, timings=timings,
    )
