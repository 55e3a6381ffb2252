"""Command-line entry point covering the whole pipeline.

Subcommands: gen-corpus, filter, train-tokenizer, tokenize, train-model,
translate, synthesize, eval, ablate.  Option values layer as defaults (the
config dataclasses' defaults, each stage's training settings from
`toy_train_config`, and, where sensible, manifest metadata) < config file
(key=value lines) < explicit flags.  Every successful run writes a run
manifest recording the effective config, seed, input content hashes, and wall
time; it is metadata, not a comparable artifact.

Exit codes: 0 success, 1 usage or invalid values, 2 I/O or parse failures,
3 numeric divergence, 4 checkpoint version/kind mismatch.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from .corpus import (
    NumericError,
    ParseError,
    ToyCorpusConfig,
    atomic_write,
    check_record_id,
    corpus_stats,
    filter_by_similarity,
    generate_toy_corpus,
    read_frames,
    read_manifest,
    text_lines,
    write_frames,
    write_manifest,
)
from .evaluation import EvalReport, score_corpus, speaker_similarity, translate_records
from .model import DecodeConfig, ModelConfig
from .pipeline import (
    bundle,
    rebuild,
    resolve_vocoder,
    run_ablation,
    split_manifest,
    toy_train_config,
    train_model_stage,
    train_text_to_token_stage,
    train_tokenizer_stage,
    train_vocoder_stage,
)
from .tokenizer import TokenizerConfig, token_symbol_alignment
from .training import (
    TrainConfig,
    VersionError,
    load_checkpoint,
    save_checkpoint,
)
from .vocoder import VocoderConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


# ------------------------------------------------------------ config layering


def _read_config_file(path) -> dict:
    """key=value lines of a UTF-8 file (ParseError naming file and line
    otherwise); blank lines and # comments are skipped."""
    out = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(text: str, like):
    if isinstance(like, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"expected a boolean, got {text!r}")
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    return text


def _layer(defaults: dict, args) -> dict:
    """defaults < config file < explicit flags; unknown file keys are errors."""
    eff = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in eff:
                raise UsageError(f"unknown config key {key!r}")
            eff[key] = _coerce(raw, eff[key])
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    return eff


def _add_layered(sp, command: str):
    for key, value in _DEFAULTS[command]().items():
        if key == "seed":  # every subcommand has its own --seed
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            sp.add_argument(flag, dest=key, default=None,
                            type=lambda s: _coerce(s, True), metavar="BOOL",
                            help=f"default {value}")
        else:
            sp.add_argument(flag, dest=key, default=None, type=type(value),
                            help=f"default {value}")


def _pick(eff: dict, cls):
    return {f.name: eff[f.name] for f in fields(cls) if f.name in eff}


# The layered defaults of each subcommand, read by both its flags and its
# command; commands may then override some from manifest metadata.
_DEFAULTS = {
    "gen-corpus": lambda: {**asdict(ToyCorpusConfig()), "seed": 0, "val_pairs": 0},
    "filter": lambda: {"threshold": 0.9, "inclusive": False},
    "train-tokenizer": lambda: {**asdict(TokenizerConfig()),
                                **{k: v for k, v in asdict(toy_train_config("tokenizer")).items()
                                   if k not in ("lambda_audio", "lambda_text")},  # model-only
                                "max_steps": 0, "with_text_to_token": False},
    "train-model": lambda: {**asdict(ModelConfig()), **asdict(toy_train_config("model")),
                            "max_steps": 0, "token_source": "speech", "with_vocoder": True},
    "translate": lambda: {"decode_max_steps": DecodeConfig().max_steps,
                          "repetition_penalty": DecodeConfig().repetition_penalty},
    "eval": lambda: {"system": "system"},
    "ablate": lambda: {**asdict(toy_train_config("model")), "max_steps": 0},
}


# -------------------------------------------------------------- run manifests


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(args, argv: list, run: dict, wall_time_s: float):
    """<out>.run.json, or run-manifest.json in --out-dir: what the command
    returned (effective config, seed, inputs, outputs) plus its name, argv,
    the content hashes of its inputs and --config, and its wall time."""
    out_dir = getattr(args, "out_dir", None)
    path = Path(out_dir) / "run-manifest.json" if out_dir else Path(f"{args.out}.run.json")
    doc = {
        "command": args.command,
        "argv": argv,
        "effective_config": run["config"],
        "seed": run["seed"],
        "inputs": {str(p): _sha256(p) for p in [args.config, *run["inputs"]] if p},
        "outputs": [str(o) for o in run["outputs"]],
        "wall_time_s": wall_time_s,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


# ---------------------------------------------------------------- token files


def write_token_file(path, rows):
    """One line per utterance: the id followed by space-separated indices."""
    atomic_write(path, (" ".join([rid, *(str(int(t)) for t in toks)]) + "\n"
                        for rid, toks in rows))


def read_token_file(path):
    rows = []
    seen = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        check_record_id(parts[0], path, lineno, seen)
        try:
            rows.append((parts[0], [int(p) for p in parts[1:]]))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer token in {raw!r}")
    return rows


# ----------------------------------------------------------------- subcommands
# Each command returns what its run manifest records: effective config, seed,
# input paths (besides --config) and outputs; main() times it and writes it.


def _print_stage(name: str, result):
    """A training stage's TrainResult as one line, which says when no validation ran."""
    done = (f"best val {result.best_val:.6g} at step {result.best_step}" if result.val_history
            else f"never validated; the checkpoint holds the step-{result.state.step} weights")
    print(f"{name}: {result.steps} steps, {done}")


def cmd_gen_corpus(args) -> dict:
    eff = _layer(_DEFAULTS["gen-corpus"](), args)
    cfg = ToyCorpusConfig(**_pick(eff, ToyCorpusConfig))
    m = generate_toy_corpus(cfg, eff["seed"])
    out = Path(args.out)
    outputs = [out]
    if eff["val_pairs"]:
        if not (0 < eff["val_pairs"] < len(m)):
            raise UsageError(f"--val-pairs must be in (0, {len(m)})")
        m, val_m = split_manifest(m, len(m) - eff["val_pairs"])
        write_manifest(m, out)
        val_path = args.val_out or out.with_name(out.stem + ".val" + out.suffix)
        write_manifest(val_m, val_path)
        outputs.append(Path(val_path))
        print(f"wrote {len(m)} train / {len(val_m)} val pairs")
    else:
        write_manifest(m, out)
        print(f"wrote {len(m)} pairs")
    print(corpus_stats(m).render_text(), end="")
    return dict(config=eff, seed=eff["seed"], inputs=[], outputs=outputs)


def cmd_filter(args) -> dict:
    eff = _layer(_DEFAULTS["filter"](), args)
    m = read_manifest(args.infile)
    kept = filter_by_similarity(m, threshold=eff["threshold"], inclusive=eff["inclusive"])
    write_manifest(kept, args.out)
    print(f"kept {len(kept)} of {len(m)} records")
    return dict(config=eff, seed=None, inputs=[args.infile], outputs=[args.out])


def cmd_train_tokenizer(args) -> dict:
    train_m = read_manifest(args.train)
    val_m = read_manifest(args.val)
    meta = train_m.metadata
    defaults = _DEFAULTS["train-tokenizer"]()
    defaults["feat_dim"] = meta.get("feat_dim", defaults["feat_dim"])
    defaults["text_vocab"] = meta.get("tgt_vocab", defaults["text_vocab"])
    eff = _layer(defaults, args)
    cfg = TokenizerConfig(**_pick(eff, TokenizerConfig))
    tcfg = TrainConfig(**_pick(eff, TrainConfig))
    log_path = args.log or str(args.out) + ".log.jsonl"
    tok, result = train_tokenizer_stage(
        train_m, val_m, cfg, tcfg, seed=eff["seed"],
        checkpoint_path=args.out, log_path=log_path,
        max_steps=eff["max_steps"] or None,
    )
    _print_stage("tokenizer", result)
    if eff["with_text_to_token"]:
        t2t, t2t_result = train_text_to_token_stage(
            train_m, val_m, tok, seed=eff["seed"], max_steps=eff["max_steps"] or None,
        )
        save_checkpoint(args.out, bundle(result.state, "text_to_token", t2t))
        _print_stage("text-to-token", t2t_result)
    return dict(config=eff, seed=eff["seed"], inputs=[args.train, args.val],
                outputs=[args.out, log_path])


def cmd_tokenize(args) -> dict:
    tok = rebuild(load_checkpoint(args.ckpt), "tokenizer")
    m = read_manifest(args.infile)
    rows = list(zip([r.id for r in m], tok.tokenize_many([r.tgt_frames for r in m])))
    write_token_file(args.out, rows)
    print(f"tokenized {len(rows)} utterances")
    return dict(config={}, seed=None, inputs=[args.ckpt, args.infile], outputs=[args.out])


def cmd_train_model(args) -> dict:
    train_m = read_manifest(args.train)
    val_m = read_manifest(args.val)
    tok_st = load_checkpoint(args.tokenizer)
    tok = rebuild(tok_st, "tokenizer")
    meta = train_m.metadata
    defaults = _DEFAULTS["train-model"]()
    defaults["feat_dim"] = meta.get("feat_dim", defaults["feat_dim"])
    defaults["text_vocab"] = tok.cfg.text_vocab
    defaults["audio_vocab"] = tok.cfg.codebook_size
    eff = _layer(defaults, args)
    cfg = ModelConfig(**_pick(eff, ModelConfig))
    tcfg = TrainConfig(**_pick(eff, TrainConfig))
    max_steps = eff["max_steps"] or None

    if eff["token_source"] == "text" and "text_to_token" not in tok_st.config:
        raise UsageError("--token-source text needs train-tokenizer --with-text-to-token true")
    t2t = rebuild(tok_st, "tokenizer", "text_to_token") if eff["token_source"] == "text" else None
    log_path = args.log or str(args.out) + ".log.jsonl"
    model, result = train_model_stage(
        train_m, val_m, tok, cfg, tcfg, seed=eff["seed"],
        token_source=eff["token_source"], text_to_token=t2t,
        checkpoint_path=args.out, log_path=log_path, max_steps=max_steps,
    )
    _print_stage("model", result)

    if eff["with_vocoder"]:
        voc_cfg = VocoderConfig(feat_dim=tok.cfg.feat_dim, audio_vocab=tok.cfg.codebook_size)
        voc, voc_result = train_vocoder_stage(
            train_m, val_m, tok, voc_cfg, seed=eff["seed"], max_steps=max_steps,
        )
        save_checkpoint(args.out, bundle(result.state, "vocoder", voc))
        _print_stage("vocoder", voc_result)
    return dict(config=eff, seed=eff["seed"], inputs=[args.train, args.val, args.tokenizer],
                outputs=[args.out, log_path])


def cmd_translate(args) -> dict:
    eff = _layer(_DEFAULTS["translate"](), args)
    dcfg = DecodeConfig(max_steps=eff["decode_max_steps"],
                        repetition_penalty=eff["repetition_penalty"])
    st = load_checkpoint(args.ckpt)
    model = rebuild(st, "model")
    m = read_manifest(args.infile)
    voc = resolve_vocoder(st) if "vocoder" in st.config else None  # else text and tokens only
    # every utterance is translated before anything is written, so a run that
    # fails (a decode budget beyond the context, say) leaves no output behind
    chain = translate_records(model, voc, m, dcfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / "translations.text", out_dir / "translations.tokens"]
    if voc is not None:
        outputs += [out_dir / "frames", out_dir / "prompts"]
        for sub in outputs[2:]:
            sub.mkdir(exist_ok=True)
        for r, (_, prompt, gen) in zip(m, chain):
            write_frames(out_dir / "frames" / f"{r.id}.ds2f", gen)
            write_frames(out_dir / "prompts" / f"{r.id}.ds2f", prompt)
    write_token_file(outputs[0], [(r.id, res.text) for r, (res, _, _) in zip(m, chain)])
    write_token_file(outputs[1], [(r.id, res.tokens) for r, (res, _, _) in zip(m, chain)])
    truncated = sum(res.truncated_text or res.truncated_audio for res, _, _ in chain)
    note = " (no vocoder in checkpoint: frames skipped)" if voc is None else ""
    print(f"translated {len(m)} utterances, {truncated} truncated{note}")
    return dict(config=eff, seed=None, inputs=[args.ckpt, args.infile], outputs=outputs)


def cmd_synthesize(args) -> dict:
    voc = resolve_vocoder(load_checkpoint(args.ckpt))
    rows = read_token_file(args.tokens)
    for rid, tokens in rows:
        if not all(0 <= t < voc.cfg.audio_vocab for t in tokens):
            raise ParseError(f"{args.tokens}: {rid!r} holds a token outside the vocoder's "
                             f"codebook of size {voc.cfg.audio_vocab}")
    prompt = read_frames(args.prompt)
    spk = voc.embedder.embed(prompt)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for rid, tokens in rows:
        gen = voc.synthesize(tokens, spk)
        path = out_dir / f"{rid}.ds2f"
        write_frames(path, gen)
        outputs.append(path)
    print(f"synthesized {len(rows)} utterances")
    return dict(config={}, seed=None, inputs=[args.ckpt, args.tokens, args.prompt],
                outputs=outputs)


def cmd_eval(args) -> dict:
    eff = _layer(_DEFAULTS["eval"](), args)
    hyp_rows = read_token_file(args.hyp)
    if args.ref_manifest:
        refs_by_id = {r.id: list(r.tgt_text) for r in read_manifest(args.ref_manifest)}
    else:
        refs_by_id = {rid: toks for rid, toks in read_token_file(args.ref)}
    if not hyp_rows:
        raise ParseError(f"{args.hyp}: no utterances to score")
    missing = [rid for rid, _ in hyp_rows if rid not in refs_by_id]
    if missing:
        raise ParseError(f"{args.hyp}: no reference in {args.ref or args.ref_manifest} "
                         f"for ids: {', '.join(missing[:5])}" + ("..." if len(missing) > 5 else ""))
    hyps = [toks for _, toks in hyp_rows]
    refs = [refs_by_id[rid] for rid, _ in hyp_rows]
    inputs = [args.hyp, args.ref, args.ref_manifest]
    if bool(args.gen_frames) != bool(args.prompt_frames):
        raise UsageError("--gen-frames and --prompt-frames go together")
    sims = None
    if args.gen_frames:
        if not args.embedder_from:
            raise UsageError("--gen-frames needs --embedder-from for the speaker embedder")
        embedder = resolve_vocoder(load_checkpoint(args.embedder_from)).embedder
        sims = []
        for rid, _ in hyp_rows:
            gen = read_frames(Path(args.gen_frames) / f"{rid}.ds2f")
            prompt = read_frames(Path(args.prompt_frames) / f"{rid}.ds2f")
            sims.append(speaker_similarity(gen, prompt, embedder))
        inputs.append(args.embedder_from)
    row = score_corpus(eff["system"], hyps, refs, sims)
    report = EvalReport(rows=[row], metadata={"hyp": str(args.hyp)})
    outputs = report.write(args.out_dir)
    print(report.render_text(), end="")
    return dict(config=eff, seed=None, inputs=inputs, outputs=outputs)


def cmd_ablate(args) -> dict:
    train_m = read_manifest(args.train)
    val_m = read_manifest(args.val)
    eval_m = read_manifest(args.eval) if args.eval else val_m
    eff = _layer(_DEFAULTS["ablate"](), args)
    tcfg = TrainConfig(**_pick(eff, TrainConfig))
    tok = rebuild(load_checkpoint(args.tokenizer), "tokenizer")
    voc = resolve_vocoder(load_checkpoint(args.vocoder))
    meta = train_m.metadata
    fps = meta.get("frames_per_symbol", 4)
    alignment = token_symbol_alignment(tok, train_m, fps, meta.get("tgt_vocab", 20))
    report, curves = run_ablation(
        args.suite, train_m=train_m, val_m=val_m, eval_m=eval_m,
        tokenizer=tok, vocoder=voc, alignment=alignment,
        seed=eff["seed"], train_cfg=tcfg, max_steps=eff["max_steps"] or None,
    )
    outputs = report.write(args.out_dir)
    for name, trace in curves.items():
        path = Path(args.out_dir) / f"{name}.curve"
        atomic_write(path, (f"{i + 1} {v}\n" for i, v in enumerate(trace)))
        outputs.append(path)
    print(report.render_text(), end="")
    return dict(config=eff, seed=eff["seed"],
                inputs=[args.train, args.val, args.eval, args.tokenizer, args.vocoder],
                outputs=outputs)


# --------------------------------------------------------------------- parser


def build_parser() -> _Parser:
    p = _Parser(prog="minis2st", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def new(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        return sp

    sp = new("gen-corpus", cmd_gen_corpus, "generate the synthetic parallel corpus")
    sp.add_argument("--out", required=True, help="manifest path to write")
    sp.add_argument("--val-out", default=None, help="held-out manifest path")
    _add_layered(sp, "gen-corpus")

    sp = new("filter", cmd_filter, "drop records below the similarity threshold")
    sp.add_argument("--in", dest="infile", required=True, help="input manifest")
    sp.add_argument("--out", required=True, help="output manifest")
    _add_layered(sp, "filter")

    sp = new("train-tokenizer", cmd_train_tokenizer, "train the semantic tokenizer")
    sp.add_argument("--train", required=True, help="training manifest")
    sp.add_argument("--val", required=True, help="validation manifest")
    sp.add_argument("--out", required=True, help="checkpoint path to write")
    sp.add_argument("--log", default=None, help="loss log path (default <out>.log.jsonl)")
    _add_layered(sp, "train-tokenizer")

    sp = new("tokenize", cmd_tokenize, "emit semantic tokens for a manifest")
    sp.add_argument("--ckpt", required=True, help="tokenizer checkpoint")
    sp.add_argument("--in", dest="infile", required=True, help="input manifest")
    sp.add_argument("--out", required=True, help="token file to write")

    sp = new("train-model", cmd_train_model, "train the translation model")
    sp.add_argument("--train", required=True)
    sp.add_argument("--val", required=True)
    sp.add_argument("--tokenizer", required=True, help="tokenizer checkpoint")
    sp.add_argument("--out", required=True, help="checkpoint path to write")
    sp.add_argument("--log", default=None)
    _add_layered(sp, "train-model")

    sp = new("translate", cmd_translate, "speech in, text / tokens / speech out")
    sp.add_argument("--ckpt", required=True, help="model checkpoint")
    sp.add_argument("--in", dest="infile", required=True, help="input manifest")
    sp.add_argument("--out-dir", required=True)
    _add_layered(sp, "translate")

    sp = new("synthesize", cmd_synthesize, "vocode token sequences with a prompt")
    sp.add_argument("--ckpt", required=True, help="vocoder or model checkpoint")
    sp.add_argument("--tokens", required=True, help="token file")
    sp.add_argument("--prompt", required=True, help="prompt frame file")
    sp.add_argument("--out-dir", required=True)

    sp = new("eval", cmd_eval, "score hypothesis files against references")
    sp.add_argument("--hyp", required=True, help="hypothesis token file")
    ref = sp.add_mutually_exclusive_group(required=True)
    ref.add_argument("--ref", default=None, help="reference token file")
    ref.add_argument("--ref-manifest", default=None, help="manifest with target text")
    sp.add_argument("--gen-frames", default=None, help="dir of generated frame files")
    sp.add_argument("--prompt-frames", default=None, help="dir of prompt frame files")
    sp.add_argument("--embedder-from", default=None, help="checkpoint supplying the embedder")
    sp.add_argument("--out-dir", required=True)
    _add_layered(sp, "eval")

    sp = new("ablate", cmd_ablate, "run a comparison suite under one seed")
    sp.add_argument("suite", choices=["projectors", "token_source"])
    sp.add_argument("--train", required=True)
    sp.add_argument("--val", required=True)
    sp.add_argument("--eval", default=None, help="scoring manifest (default: --val)")
    sp.add_argument("--tokenizer", required=True)
    sp.add_argument("--vocoder", required=True, help="vocoder or model checkpoint")
    sp.add_argument("--out-dir", required=True)
    _add_layered(sp, "ablate")

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        run = args.func(args)
        _write_run_manifest(args, argv, run, time.perf_counter() - t0)
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except VersionError as exc:
        print(f"version mismatch: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, IndexError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
