import base64
import errno
import json
import os
import re
import shlex
import shutil
import struct
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import minis2st.cli
import minis2st.corpus
import minis2st.training

from goldens import cli_chain, run_manifest_path
from minis2st.cli import (
    UsageError,
    _coerce,
    _read_config_file,
    build_parser,
    main,
    read_token_file,
    write_token_file,
)
from minis2st.corpus import (
    ParseError,
    SpeechFrames,
    ToyCorpusConfig,
    cosine_similarity,
    generate_toy_corpus,
    read_frames,
    read_manifest,
    write_frames,
    write_manifest,
)
from minis2st.model import ModelConfig, TranslationModel
from minis2st.pipeline import bundle, resolve_vocoder
from minis2st.tokenizer import SpeechTokenizer, TextToTokenModel, TokenizerConfig
from minis2st.training import CheckpointState, load_checkpoint, save_checkpoint
from minis2st.vocoder import SpeakerEmbedder, TimbreVocoder, VocoderConfig


def _tiny_model() -> TranslationModel:
    return TranslationModel(ModelConfig(audio_vocab=8, d_model=8, blocks=1, heads=2,
                                        context=64, prompt_len=1, proj_hidden=8, enc_dim=8,
                                        enc_blocks=1, enc_heads=2, fixed_input_len=8), 0)


def _tiny_vocoder() -> TimbreVocoder:
    return TimbreVocoder(VocoderConfig(audio_vocab=8, token_dim=4, d_model=8, blocks=1,
                                       heads=2), 0)


def _trainable(module) -> dict:
    return {k: t.data for k, t in module.trainable().items()}


# ------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["gen-corpus", "--help"]) == 0
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["filter", "--bogus", "x"]) == 1
    capsys.readouterr()


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = main(["filter", "--in", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "missing file" in capsys.readouterr().err


def _ckpt_bytes(header) -> bytes:
    blob = json.dumps(header).encode()
    return b"DS2C" + struct.pack("<IQ", 1, len(blob)) + blob


def test_garbage_checkpoint_exits_two(tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    empty = {"kind": "tokenizer", "config": {}, "step": 0, "tensors": []}
    for content in (
        b"not a checkpoint at all",
        b"DS2C\x01\x00",  # ends inside the version/length header
        b"DS2C" + struct.pack("<IQ", 1, 9) + b"{corrupt}",  # header is not JSON
        b"DS2C" + struct.pack("<IQ", 1, 2) + b"\xff\xfe",  # header is not UTF-8
        b"DS2C" + struct.pack("<IQ", 1, 1 << 60) + b"{}",  # header longer than the file
        _ckpt_bytes([]),  # header is not an object
        _ckpt_bytes({"kind": "tokenizer"}),  # no config, step or tensors
        _ckpt_bytes({**empty, "tensors": [{"name": "w", "shape": [-1]}]}),
        _ckpt_bytes({**empty, "tensors": [{"name": "w", "shape": "x"}]}),
        _ckpt_bytes({**empty, "tensors": [{"shape": [1]}]}) + bytes(8),  # no name
        _ckpt_bytes({**empty, "tensors": [{"name": "w", "shape": [1 << 40]}]}),  # short payload
        _ckpt_bytes(empty) + b"\x00",  # bytes trail the last tensor
    ):
        junk.write_bytes(content)
        code = main(["tokenize", "--ckpt", str(junk),
                     "--in", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "t")])
        assert code == 2, content
        assert "parse error" in capsys.readouterr().err


def test_wrong_checkpoint_kind_exits_four(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, CheckpointState(kind="model", config={}, step=0, tensors={}))
    code = main(["tokenize", "--ckpt", str(ckpt),
                 "--in", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "t")])
    assert code == 4
    assert "version mismatch" in capsys.readouterr().err


def test_unbuildable_checkpoint_config_exits_four(tmp_path, capsys):
    tok_cfg = asdict(TokenizerConfig(codebook_size=8, dim=8, heads=2))
    no_dim = {k: v for k, v in tok_cfg.items() if k != "dim"}
    ckpt = tmp_path / "tok.ckpt"
    for config in (
        {"cfg": {"bogus": 1}},
        {"seed": 0},  # no cfg
        {"cfg": {**tok_cfg, "bogus": 1}, "seed": 0},  # unknown field
        {"cfg": no_dim, "seed": 0},  # missing field
        {"cfg": {**tok_cfg, "dim": "8"}, "seed": 0},  # wrong type
        {"cfg": tok_cfg, "seed": 0.5},
        {"cfg": {**tok_cfg, "codebook_size": 0}, "seed": 0},  # validate() rejects it
    ):
        save_checkpoint(ckpt, CheckpointState(kind="tokenizer", config=config, step=0, tensors={}))
        code = main(["tokenize", "--ckpt", str(ckpt),
                     "--in", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "t")])
        assert code == 4, config
        assert "version mismatch" in capsys.readouterr().err

    # a model checkpoint whose bundled vocoder cannot be rebuilt is refused,
    # not translated without speech
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    model = _tiny_model()
    tensors = _trainable(model)
    bad_vocoder = {"cfg": {"bogus": 1}, "seed": 0, "embedder": {}}
    save_checkpoint(ckpt, CheckpointState(kind="model", step=0, tensors=tensors,
                                          config={**model.recipe, "vocoder": bad_vocoder}))
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(m),
                 "--out-dir", str(tmp_path / "out"), "--decode-max-steps", "1"]) == 4
    assert "version mismatch" in capsys.readouterr().err

    # recipes that build alone but not together: the module would not take
    # what its embedder emits
    embedder = SpeakerEmbedder(8).recipe
    voc = _tiny_vocoder()
    for emb, message in (({**embedder, "spk_dim": 8}, "spk_dim 16 != embedder spk_dim 8"),
                         ({**embedder, "feat_dim": 4}, "feat_dim 8 != embedder feat_dim 4")):
        save_checkpoint(ckpt, CheckpointState(
            kind="vocoder", step=0, tensors=_trainable(voc),
            config={**voc.recipe, "embedder": emb}))
        assert main(["synthesize", "--ckpt", str(ckpt), "--tokens", str(tmp_path / "t"),
                     "--prompt", str(tmp_path / "p"), "--out-dir", str(tmp_path / "s")]) == 4
        assert f"version mismatch: checkpoint config vocoder: {message}" in capsys.readouterr().err
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    t2t = TextToTokenModel(tok.cfg.text_vocab, 8, 16, embedder=SpeakerEmbedder(8)).recipe
    save_checkpoint(ckpt, CheckpointState(
        kind="tokenizer", step=0, tensors=_trainable(tok),
        config={**tok.recipe, "text_to_token": {**t2t, "spk_dim": 8, "embedder": embedder}}))
    assert main(["train-model", "--train", str(m), "--val", str(m), "--tokenizer", str(ckpt),
                 "--out", str(tmp_path / "model.ckpt"), "--token-source", "text"]) == 4
    assert ("version mismatch: checkpoint config text_to_token: spk_dim 8 != embedder spk_dim 16"
            in capsys.readouterr().err)


def test_recipes_holding_a_removed_field_exit_four_naming_it(tmp_path, capsys):
    # fields older builds recorded: the vocoder's upsample, the embedder's
    # hidden width and the text-to-token model's sizes, now constants, and the
    # vocoder's frame rate, which nothing read
    ckpt = tmp_path / "x.ckpt"
    voc = _tiny_vocoder()
    for config, where, name in (
        ({**voc.recipe, "cfg": {**voc.recipe["cfg"], "upsample": 1}}, "vocoder.cfg", "upsample"),
        ({**voc.recipe, "cfg": {**voc.recipe["cfg"], "frame_rate": 50}}, "vocoder.cfg",
         "frame_rate"),
        ({**voc.recipe, "embedder": {**voc.recipe["embedder"], "hidden": 32}},
         "vocoder.embedder", "hidden"),
    ):
        save_checkpoint(ckpt, CheckpointState(kind="vocoder", config=config, step=0,
                                              tensors=_trainable(voc)))
        assert main(["synthesize", "--ckpt", str(ckpt), "--tokens", str(tmp_path / "t"),
                     "--prompt", str(tmp_path / "p"), "--out-dir", str(tmp_path / "s")]) == 4
        assert (f"version mismatch: checkpoint config {where}: unknown fields ['{name}']"
                in capsys.readouterr().err)
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    t2t = TextToTokenModel(tok.cfg.text_vocab, 8, 16, embedder=SpeakerEmbedder(8)).recipe
    for name, value in (("dim", 64), ("blocks", 2), ("heads", 4)):
        save_checkpoint(ckpt, CheckpointState(
            kind="tokenizer", step=0, tensors=_trainable(tok),
            config={**tok.recipe, "text_to_token": {**t2t, name: value}}))
        assert main(["train-model", "--train", str(m), "--val", str(m), "--tokenizer", str(ckpt),
                     "--out", str(tmp_path / "model.ckpt"), "--token-source", "text"]) == 4
        assert (f"version mismatch: checkpoint config text_to_token: unknown fields ['{name}']"
                in capsys.readouterr().err)


def test_text_tokens_from_a_tokenizer_without_text_to_token_are_a_usage_error(
        tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the model stage started")

    monkeypatch.setattr(minis2st.cli, "train_model_stage", no_training)
    m, ckpt = tmp_path / "m.jsonl", tmp_path / "tok.ckpt"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    argv = ["train-model", "--train", str(m), "--val", str(m), "--tokenizer", str(ckpt),
            "--out", str(tmp_path / "model.ckpt"), "--token-source", "text"]
    save_checkpoint(ckpt, CheckpointState(kind="tokenizer", config=tok.recipe, step=0,
                                          tensors=_trainable(tok)))
    assert main(argv) == 1
    assert capsys.readouterr().err == ("usage error: --token-source text needs "
                                       "train-tokenizer --with-text-to-token true\n")
    # a tokenizer that does not rebuild is still refused as a version mismatch
    save_checkpoint(ckpt, CheckpointState(kind="tokenizer", config={**tok.recipe, "bogus": 1},
                                          step=0, tensors=_trainable(tok)))
    assert main(argv) == 4
    assert "version mismatch" in capsys.readouterr().err


def test_a_model_checkpoint_without_a_vocoder_says_so(tmp_path, capsys):
    m, model_ckpt, tok_ckpt = tmp_path / "m.jsonl", tmp_path / "model.ckpt", tmp_path / "tok.ckpt"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    model = _tiny_model()
    save_checkpoint(model_ckpt, CheckpointState(kind="model", config=model.recipe, step=0,
                                                tensors=_trainable(model)))
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    save_checkpoint(tok_ckpt, CheckpointState(kind="tokenizer", config=tok.recipe, step=0,
                                              tensors=_trainable(tok)))
    tokens, prompt = tmp_path / "t.tok", tmp_path / "p.ds2f"
    write_token_file(tokens, [("utt00000", [1, 2])])
    write_frames(prompt, SpeechFrames(np.ones((3, 8))))
    for argv in (
        ["synthesize", "--ckpt", model_ckpt, "--tokens", tokens, "--prompt", prompt,
         "--out-dir", tmp_path / "s"],
        ["ablate", "token_source", "--train", m, "--val", m, "--tokenizer", tok_ckpt,
         "--vocoder", model_ckpt, "--out-dir", tmp_path / "a"],
        ["eval", "--hyp", tokens, "--ref-manifest", m, "--gen-frames", tmp_path,
         "--prompt-frames", tmp_path, "--embedder-from", model_ckpt, "--out-dir", tmp_path / "e"],
    ):
        assert main([str(a) for a in argv]) == 4, argv[0]
        assert capsys.readouterr().err == (
            "version mismatch: the model checkpoint carries no vocoder; "
            "train-model --with-vocoder true bundles one\n"), argv[0]


def test_manifest_feat_dim_unlike_its_frames_exits_two(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=4), 0), m)
    lines = m.read_text().splitlines()
    meta = json.loads(lines[0])
    lines[0] = json.dumps({**meta, "manifest": {**meta["manifest"], "feat_dim": 5}})
    m.write_text("\n".join(lines) + "\n")
    assert main(["train-tokenizer", "--train", str(m), "--val", str(m),
                 "--out", str(tmp_path / "tok.ckpt"), "--max-steps", "1"]) == 2
    assert ("m.jsonl:2: field 'src_frames': 8 features, metadata 'feat_dim' is 5"
            in capsys.readouterr().err)


def test_frames_narrower_than_the_checkpoint_exit_one_naming_both_widths(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2, feat_dim=5), 0), m)
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    model = _tiny_model()
    for kind, module, argv in (
        ("tokenizer", tok, ["tokenize", "--out", str(tmp_path / "t")]),
        ("model", model, ["translate", "--out-dir", str(tmp_path / "out")]),
    ):
        ckpt = tmp_path / f"{kind}.ckpt"
        save_checkpoint(ckpt, CheckpointState(
            kind=kind, config=module.recipe, step=0, tensors=_trainable(module)))
        assert main([*argv, "--ckpt", str(ckpt), "--in", str(m)]) == 1, kind
        err = capsys.readouterr().err
        assert "expects 8-wide frames, got 5-wide" in err, err


def test_mistyped_manifest_field_exits_two(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    good = m.read_text().splitlines()
    meta = json.loads(good[0])
    for lineno, line, message in (
        (1, {**meta, "manifest": {**meta["manifest"], "frame_rate": None}},
         "metadata 'frame_rate' is not an int >= 1"),
        (2, {**json.loads(good[1]), "src_frames": 5}, "field 'src_frames' is not a string"),
        # a manifest of an earlier build names a frame file; gen-corpus remakes it
        (2, {**json.loads(good[1]), "src_frames": "m.frames/utt00000.src.ds2f"},
         "field 'src_frames': not base64"),
        (3, {**json.loads(good[2]), "tgt_frames": "RFMyRg=="}, "field 'tgt_frames': "
         "truncated frame header"),
        (2, {**json.loads(good[1]), "src_text": [-1]}, "field 'src_text' is not a list of ints"),
        (3, {**json.loads(good[2]), "tgt_text": [0, 20]}, "field 'tgt_text' holds a symbol >= "
         "metadata 'tgt_vocab' 20"),
    ):
        lines = list(good)
        lines[lineno - 1] = json.dumps(line)
        m.write_text("\n".join(lines) + "\n")
        assert main(["filter", "--in", str(m), "--out", str(tmp_path / "kept.jsonl")]) == 2
        assert f"m.jsonl:{lineno}: {message}" in capsys.readouterr().err


def test_eval_requires_exactly_one_reference_source(tmp_path, capsys):
    hyp = tmp_path / "h.tok"
    write_token_file(hyp, [("u0", [1, 2])])
    assert main(["eval", "--hyp", str(hyp), "--out-dir", str(tmp_path)]) == 1
    assert main(["eval", "--hyp", str(hyp), "--ref", "a", "--ref-manifest", "b",
                 "--out-dir", str(tmp_path)]) == 1
    capsys.readouterr()


def test_eval_refuses_a_duplicate_reference_id(tmp_path, capsys):
    hyp, ref = tmp_path / "h.tok", tmp_path / "r.tok"
    write_token_file(hyp, [("u0", [1, 2]), ("u1", [3])])
    write_token_file(ref, [("u0", [1, 2]), ("u1", [3]), ("u0", [4])])
    assert main(["eval", "--hyp", str(hyp), "--ref", str(ref),
                 "--out-dir", str(tmp_path / "report")]) == 2
    assert "r.tok:3: duplicate record id 'u0' (first on line 1)" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_eval_refuses_half_of_the_frame_pair(tmp_path, capsys):
    hyp = tmp_path / "h.tok"
    write_token_file(hyp, [("u0", [1, 2])])
    for flag in ("--gen-frames", "--prompt-frames"):
        assert main(["eval", "--hyp", str(hyp), "--ref", str(hyp), flag, str(tmp_path),
                     "--out-dir", str(tmp_path / "report")]) == 1, flag
        assert "--gen-frames and --prompt-frames go together" in capsys.readouterr().err


def _model_with_vocoder(path):
    model = _tiny_model()
    st = CheckpointState(kind="model", config=model.recipe, step=0, tensors=_trainable(model))
    save_checkpoint(path, bundle(st, "vocoder", _tiny_vocoder()))


def test_translate_refuses_fewer_than_one_decode_step(tmp_path, capsys):
    ckpt, m, out = tmp_path / "model.ckpt", tmp_path / "m.jsonl", tmp_path / "out"
    _model_with_vocoder(ckpt)
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(m), "--out-dir", str(out),
                 "--decode-max-steps", "0"]) == 1
    assert "max_steps must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rid", ["../../escaped", "has space"])
def test_translate_refuses_a_record_id_that_cannot_name_a_file(tmp_path, capsys, rid):
    ckpt, m = tmp_path / "model.ckpt", tmp_path / "m.jsonl"
    _model_with_vocoder(ckpt)
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    lines = m.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "id": rid})
    m.write_text("\n".join(lines) + "\n")
    before = set(tmp_path.rglob("*"))
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(m),
                 "--out-dir", str(tmp_path / "out" / "hyp"), "--decode-max-steps", "2"]) == 2
    assert f"m.jsonl:2: record id {rid!r} cannot name a file" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


def test_translate_refuses_a_duplicate_record_id(tmp_path, capsys):
    ckpt, m = tmp_path / "model.ckpt", tmp_path / "m.jsonl"
    _model_with_vocoder(ckpt)
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=3), 0), m)
    lines = m.read_text().splitlines()
    first = json.loads(lines[1])["id"]
    lines[2] = json.dumps({**json.loads(lines[2]), "id": first})
    m.write_text("\n".join(lines) + "\n")
    before = set(tmp_path.rglob("*"))
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(m),
                 "--out-dir", str(tmp_path / "out"), "--decode-max-steps", "2"]) == 2
    assert (f"m.jsonl:3: duplicate record id {first!r} (first on line 2)"
            in capsys.readouterr().err)
    assert set(tmp_path.rglob("*")) == before


def test_translate_refuses_a_decode_budget_beyond_the_context(tmp_path, capsys):
    # the tiny model's context of 64 holds prompt 1 + source 2 + BOS + 2 rows
    # for each step after the first: 31 steps fit, 32 do not
    ckpt, m = tmp_path / "model.ckpt", tmp_path / "m.jsonl"
    _model_with_vocoder(ckpt)
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    before = set(tmp_path.rglob("*"))
    argv = ["translate", "--ckpt", str(ckpt), "--in", str(m), "--out-dir", str(tmp_path / "out")]
    assert main([*argv, "--decode-max-steps", "32"]) == 1
    assert ("decoding 32 steps needs 66 positions, more than context 64"
            in capsys.readouterr().err)
    assert set(tmp_path.rglob("*")) == before
    assert main([*argv, "--decode-max-steps", "31"]) == 0
    capsys.readouterr()


def test_translate_without_a_vocoder_writes_text_and_tokens_only(tmp_path, capsys):
    ckpt, m, out = tmp_path / "model.ckpt", tmp_path / "m.jsonl", tmp_path / "out"
    model = _tiny_model()
    save_checkpoint(ckpt, CheckpointState(kind="model", config=model.recipe, step=0,
                                          tensors=_trainable(model)))
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=3), 0), m)
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(m), "--out-dir", str(out),
                 "--decode-max-steps", "2"]) == 0
    assert capsys.readouterr().out.endswith("(no vocoder in checkpoint: frames skipped)\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "run-manifest.json", "translations.text", "translations.tokens"]
    assert json.loads((out / "run-manifest.json").read_text())["outputs"] == [
        str(out / "translations.text"), str(out / "translations.tokens")]
    assert [rid for rid, _ in read_token_file(out / "translations.tokens")] == [
        r.id for r in read_manifest(m)]


def test_synthesize_refuses_a_token_file_id_that_cannot_name_a_file(tmp_path, capsys):
    voc = _tiny_vocoder()
    ckpt, tokens, prompt = tmp_path / "voc.ckpt", tmp_path / "t.tok", tmp_path / "p.ds2f"
    save_checkpoint(ckpt, CheckpointState(kind="vocoder", config=voc.recipe, step=0,
                                          tensors=_trainable(voc)))
    write_token_file(tokens, [("../x", [1, 2])])
    write_frames(prompt, SpeechFrames(np.zeros((5, 8))))
    before = set(tmp_path.rglob("*"))
    assert main(["synthesize", "--ckpt", str(ckpt), "--tokens", str(tokens),
                 "--prompt", str(prompt), "--out-dir", str(tmp_path / "out")]) == 2
    assert "t.tok:1: record id '../x' cannot name a file" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


def test_synthesize_refuses_a_token_outside_the_codebook(tmp_path, capsys):
    voc = _tiny_vocoder()
    ckpt, tokens, prompt = tmp_path / "voc.ckpt", tmp_path / "t.tok", tmp_path / "p.ds2f"
    save_checkpoint(ckpt, CheckpointState(kind="vocoder", config=voc.recipe, step=0,
                                          tensors=_trainable(voc)))
    write_token_file(tokens, [("u0", [1, 2]), ("u1", [3, 8])])
    write_frames(prompt, SpeechFrames(np.zeros((5, 8))))
    before = set(tmp_path.rglob("*"))
    assert main(["synthesize", "--ckpt", str(ckpt), "--tokens", str(tokens),
                 "--prompt", str(prompt), "--out-dir", str(tmp_path / "out")]) == 2
    assert ("t.tok: 'u1' holds a token outside the vocoder's codebook of size 8"
            in capsys.readouterr().err)
    assert set(tmp_path.rglob("*")) == before


def test_eval_refuses_a_hypothesis_file_it_cannot_score(tmp_path, capsys):
    hyp, ref = tmp_path / "h.tok", tmp_path / "r.tok"
    write_token_file(ref, [("u0", [1, 2])])
    for rows, message in (([], "h.tok: no utterances to score"),
                          ([("u0", [1]), ("u9", [2])], "h.tok: no reference in "
                           f"{ref} for ids: u9")):
        write_token_file(hyp, rows)
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref),
                     "--out-dir", str(tmp_path / "report")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_input_that_is_not_utf8_exits_two_naming_file_and_line(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    lines = m.read_bytes().splitlines(keepends=True)
    m.write_bytes(b"".join([*lines[:2], lines[2][:12] + b"\xff" + lines[2][13:]]))
    hyp = tmp_path / "h.tok"
    hyp.write_bytes(b"u0 1 2\nu1 3 4 5 6\xff 7\n")
    for argv, where in ((["filter", "--in", str(m), "--out", str(tmp_path / "kept.jsonl")],
                         f"{m}:3"),
                        (["eval", "--hyp", str(hyp), "--ref", str(hyp),
                          "--out-dir", str(tmp_path / "report")], f"{hyp}:2")):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {where}: not UTF-8 text") and "0xff" in err, err


def test_manifest_similarity_that_is_nan_or_infinite_exits_two(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=4), 0), m)
    good = m.read_text()
    for token in ("NaN", "Infinity", "-Infinity"):
        m.write_text(good.replace('"similarity": 1.0', f'"similarity": {token}', 2))
        assert main(["filter", "--in", str(m), "--out", str(tmp_path / "kept.jsonl")]) == 2
        assert (f"parse error: {m}:2: field 'similarity' is not a finite number\n"
                == capsys.readouterr().err)
    assert not (tmp_path / "kept.jsonl").exists()


def test_frame_file_holding_nan_or_inf_exits_two_naming_it(tmp_path, capsys):
    # a frame file, here a synthesize prompt, and a manifest record's frames
    voc = _tiny_vocoder()
    ckpt, tokens, prompt = tmp_path / "voc.ckpt", tmp_path / "t.tok", tmp_path / "p.ds2f"
    save_checkpoint(ckpt, CheckpointState(kind="vocoder", config=voc.recipe, step=0,
                                          tensors=_trainable(voc)))
    write_token_file(tokens, [("u0", [1, 2])])
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    lines = m.read_text().splitlines()
    record = json.loads(lines[1])
    good = base64.b64decode(record["tgt_frames"])
    for value in (np.nan, np.inf, -np.inf):
        bad = good[:-8] + struct.pack("<d", value)
        prompt.write_bytes(bad)
        lines[1] = json.dumps({**record, "tgt_frames": base64.b64encode(bad).decode("ascii")})
        m.write_text("\n".join(lines) + "\n")
        for argv, where in (
            (["synthesize", "--ckpt", ckpt, "--tokens", tokens, "--prompt", prompt,
              "--out-dir", tmp_path / "out"], prompt),
            (["filter", "--in", m, "--out", tmp_path / "kept.jsonl"], f"{m}:2: field 'tgt_frames'"),
        ):
            assert main([str(a) for a in argv]) == 2
            assert (f"parse error: {where}: frames contain non-finite values\n"
                    == capsys.readouterr().err)


# ------------------------------------------------------------------ coerce


def test_coerce_booleans():
    for text in ("1", "true", "Yes", "ON"):
        assert _coerce(text, True) is True
    for text in ("0", "false", "No", "OFF"):
        assert _coerce(text, True) is False
    with pytest.raises(UsageError):
        _coerce("maybe", True)


def test_coerce_follows_default_type():
    assert _coerce("42", 7) == 42
    assert _coerce("2.5", 1.0) == 2.5
    assert _coerce("2", 1.0) == 2.0
    assert _coerce("hello", "s") == "hello"


# ------------------------------------------------------------- config files


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\npairs = 12\nnoise_std=0.1\n")
    assert _read_config_file(cfg) == {"pairs": "12", "noise_std": "0.1"}


def test_config_file_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs=3\njust some words\n")
    with pytest.raises(UsageError, match=":2:"):
        _read_config_file(cfg)


def test_layering_defaults_then_file_then_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs=12\n")

    out_a = tmp_path / "a.jsonl"
    assert main(["gen-corpus", "--out", str(out_a), "--config", str(cfg)]) == 0
    assert len(read_manifest(out_a)) == 12  # file overrides the default 500

    out_b = tmp_path / "b.jsonl"
    assert main(["gen-corpus", "--out", str(out_b), "--config", str(cfg),
                 "--pairs", "9"]) == 0
    assert len(read_manifest(out_b)) == 9  # flag overrides the file
    capsys.readouterr()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_pairs=12\n")
    code = main(["gen-corpus", "--out", str(tmp_path / "m.jsonl"),
                 "--config", str(cfg)])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_two_naming_file_and_line(tmp_path, capsys):
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# filter\nthreshold=0.5\xff\n")
    assert main(["filter", "--in", str(m), "--out", str(tmp_path / "kept.jsonl"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {cfg}:2: not UTF-8 text") and "0xff" in err, err


def test_non_finite_float_settings_exit_one(tmp_path, capsys):
    chain = cli_chain(tmp_path)
    assert main(chain[0]) == 0
    tok = Path(chain[2][chain[2].index("--out") + 1])
    for flag, value in (("--lr", "nan"), ("--lr", "inf"), ("--min-delta", "nan"),
                        ("--commitment-beta", "inf")):
        capsys.readouterr()
        assert main([*chain[2], flag, value]) == 1, flag
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
        assert not tok.exists()
    for value in ("nan", "inf", "-inf"):
        assert main([*chain[1], f"--threshold={value}"]) == 1
        assert "threshold must be finite" in capsys.readouterr().err
    assert not Path(chain[1][chain[1].index("--out") + 1]).exists()


def test_gen_corpus_rejects_a_negative_noise_std(tmp_path, capsys):
    # a negative standard deviation would render a noise-free corpus
    out = tmp_path / "m.jsonl"
    assert main(["gen-corpus", "--out", str(out), "--pairs", "4", "--noise-std=-1"]) == 1
    assert "noise_std" in capsys.readouterr().err
    assert not out.exists()


def _exit_and_stderr(capsys, argv) -> tuple:
    """main(argv)'s exit code and its stderr lines, each warning counted as
    the line a run outside pytest prints for it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]


def test_settings_the_rule_refuses_exit_with_one_line(tmp_path, capsys):
    # as a flag a refused setting is a usage error (1); recorded in a
    # checkpoint's recipe, one this build cannot construct (4)
    m, tok_ckpt, model_ckpt = tmp_path / "m.jsonl", tmp_path / "tok", tmp_path / "model.ckpt"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2), 0), m)
    tok = SpeechTokenizer(TokenizerConfig(codebook_size=8, dim=8, heads=2), 0)
    save_checkpoint(tok_ckpt, CheckpointState(kind="tokenizer", config=tok.recipe, step=0,
                                              tensors=_trainable(tok)))
    assert _exit_and_stderr(capsys, [
        "train-model", "--train", m, "--val", m, "--tokenizer", tok_ckpt, "--out", model_ckpt,
        "--enc-heads", "0"]) == (1, ["error: enc_heads must be >= 1, got 0"])
    assert not model_ckpt.exists()

    model = _tiny_model()
    save_checkpoint(model_ckpt, CheckpointState(
        kind="model", step=0, tensors=_trainable(model),
        config={**model.recipe, "cfg": {**model.recipe["cfg"], "enc_heads": 0}}))
    translate = ["translate", "--ckpt", model_ckpt, "--in", m, "--out-dir", tmp_path / "out"]
    assert _exit_and_stderr(capsys, translate) == (
        4, ["version mismatch: checkpoint config model: enc_heads must be >= 1, got 0"])
    _model_with_vocoder(model_ckpt)
    assert _exit_and_stderr(capsys, [*translate, "--repetition-penalty", "inf"]) == (
        1, ["error: repetition_penalty must be finite and >= 0, got inf"])
    assert not (tmp_path / "out").exists()


def test_an_embedder_recipe_below_one_feature_exits_four_before_any_draw(tmp_path, capsys):
    # 1 / sqrt(feat_dim) would warn first, were the weights drawn before the check
    voc, ckpt, tokens, prompt = _tiny_vocoder(), tmp_path / "v.ckpt", tmp_path / "t", tmp_path / "p"
    write_token_file(tokens, [("utt00000", [1, 2])])
    write_frames(prompt, SpeechFrames(np.ones((3, 8))))
    for feat_dim in (0, -1):
        save_checkpoint(ckpt, CheckpointState(
            kind="vocoder", step=0, tensors=_trainable(voc),
            config={**voc.recipe, "embedder": {**voc.recipe["embedder"], "feat_dim": feat_dim}}))
        assert _exit_and_stderr(capsys, [
            "synthesize", "--ckpt", ckpt, "--tokens", tokens, "--prompt", prompt,
            "--out-dir", tmp_path / "s"]) == (4, [
                "version mismatch: checkpoint config vocoder: speaker embedder sizes must be "
                f">= 1, got feat_dim {feat_dim}, spk_dim 16"])


# -------------------------------------------------------------- token files


def test_token_file_roundtrip(tmp_path):
    rows = [("utt-0", [3, 1, 4, 1, 5]), ("utt-1", []), ("utt-2", [9])]
    path = tmp_path / "tokens.txt"
    write_token_file(path, rows)
    assert read_token_file(path) == rows


def test_token_file_reports_bad_line_number(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("u0 1 2 3\nu1 4 oops 6\n")
    with pytest.raises(ParseError, match=":2:"):
        read_token_file(path)


# --------------------------------------------------------------- gen-corpus


def test_gen_corpus_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "r1" / "m.jsonl", tmp_path / "r2" / "m.jsonl"
    for out in (a, b):
        out.parent.mkdir()
        assert main(["gen-corpus", "--out", str(out), "--pairs", "8",
                     "--seed", "3"]) == 0
        assert main(["filter", "--in", str(out), "--out", str(out.parent / "kept.jsonl")]) == 0
        # a manifest is one file: its frames are inside it
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "kept.jsonl", "kept.jsonl.run.json", "m.jsonl", "m.jsonl.run.json"]
    assert a.read_bytes() == b.read_bytes()
    assert (a.parent / "kept.jsonl").read_bytes() == (b.parent / "kept.jsonl").read_bytes()
    capsys.readouterr()


def test_gen_corpus_split_writes_val_manifest(tmp_path, capsys):
    out = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(["gen-corpus", "--out", str(out), "--val-out", str(val),
                 "--pairs", "10", "--val-pairs", "3"]) == 0
    assert len(read_manifest(out)) == 7
    assert len(read_manifest(val)) == 3
    capsys.readouterr()


def test_run_manifest_describes_the_run(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    assert main(["gen-corpus", "--out", str(out), "--pairs", "6",
                 "--seed", "2"]) == 0
    doc = json.loads((tmp_path / "m.jsonl.run.json").read_text())
    assert doc["command"] == "gen-corpus"
    assert doc["seed"] == 2
    assert doc["effective_config"]["pairs"] == 6
    assert str(out) in doc["outputs"]
    assert doc["wall_time_s"] >= 0
    assert set(doc) == {"command", "argv", "effective_config", "seed",
                        "inputs", "outputs", "wall_time_s"}
    capsys.readouterr()


# -------------------------------------------------------- training commands


def test_training_commands_say_when_no_validation_ran(tmp_path, capsys):
    chain = cli_chain(tmp_path)  # two steps, fewer than any stage validates after
    assert main(chain[0]) == 0
    for argv, stages in ((chain[2], ("tokenizer", "text-to-token")),
                         (chain[4], ("model", "vocoder"))):
        capsys.readouterr()
        assert main(argv) == 0, argv[0]
        assert capsys.readouterr().out.splitlines() == [
            f"{stage}: 2 steps, never validated; the checkpoint holds the step-2 weights"
            for stage in stages]
        assert load_checkpoint(argv[argv.index("--out") + 1]).step == 2
    tok = tmp_path / "tok4.ckpt"
    assert main([*chain[2][:6], str(tok), "--max-steps", "4", "--validate-every", "2"]) == 0
    assert re.fullmatch(r"tokenizer: 4 steps, best val \d\.\d+ at step [24]\n",
                        capsys.readouterr().out)


def test_text_token_chain_writes_no_temp_checkpoints(tmp_path, monkeypatch, capsys):
    written = []

    def recording(save):
        def wrapper(path, st):
            written.append(str(path))
            return save(path, st)
        return wrapper

    monkeypatch.setattr(minis2st.cli, "save_checkpoint", recording(minis2st.cli.save_checkpoint))
    monkeypatch.setattr(minis2st.training, "save_checkpoint",
                        recording(minis2st.training.save_checkpoint))
    m, val = tmp_path / "m.jsonl", tmp_path / "val.jsonl"
    tok, model = tmp_path / "tok.ckpt", tmp_path / "model.ckpt"
    assert main(["gen-corpus", "--out", str(m), "--val-out", str(val),
                 "--pairs", "12", "--val-pairs", "4", "--seed", "7"]) == 0
    assert main(["train-tokenizer", "--train", str(m), "--val", str(val), "--out", str(tok),
                 "--max-steps", "5", "--with-text-to-token", "true"]) == 0
    assert main(["train-model", "--train", str(m), "--val", str(val), "--tokenizer", str(tok),
                 "--out", str(model), "--max-steps", "5", "--token-source", "text"]) == 0
    capsys.readouterr()
    assert set(written) == {str(tok), str(model)}
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """A directory holding everything the golden CLI chain writes."""
    d = tmp_path_factory.mktemp("chain")
    for argv in cli_chain(d):
        assert main(argv) == 0, argv
    return d


class _FillingDisk:
    """A file that takes `room` bytes and then fails as a full disk does."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: self.room])
        self.room -= min(len(data), self.room)
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# every write site of the package: (command of the chain, a file it writes)
_WRITES = {
    "frames": ("translate", "translate/frames/utt00008.ds2f"),
    "manifest": ("gen-corpus", "m.jsonl"),
    "run-manifest": ("gen-corpus", "m.jsonl.run.json"),
    "checkpoint": ("train-tokenizer", "tok.ckpt"),
    "token-file": ("tokenize", "val.tok"),
    "report-text": ("eval", "eval/report.txt"),
    "report-kv": ("eval", "eval/report.kv"),
    "curve": ("ablate", "ablate/speech-tokens.curve"),
}


@pytest.mark.parametrize("writer", _WRITES)
def test_failed_write_keeps_the_previous_file(chain_dir, writer, monkeypatch, capsys):
    command, name = _WRITES[writer]
    target = chain_dir / name
    before = target.read_bytes()
    real_open = open

    def open_(file, mode="r", *args, **kwargs):  # the disk fills halfway through `target`
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.fspath(file).startswith(str(target)):
            return _FillingDisk(fh, len(before) // 2)
        return fh

    # every writer opens its file through atomic_write, in corpus
    monkeypatch.setattr(minis2st.corpus, "open", open_, raising=False)
    argv = next(argv for argv in cli_chain(chain_dir) if argv[0] == command)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.ENOSPC}] No space left on device\n"
    assert target.read_bytes() == before
    assert not list(chain_dir.rglob("*.tmp"))


def test_a_failed_manifest_rewrite_keeps_the_previous_records_whole(tmp_path, monkeypatch):
    # frames and text live in one file, so they cannot come from two runs
    path = tmp_path / "m.jsonl"
    old, new = (generate_toy_corpus(ToyCorpusConfig(pairs=4), seed) for seed in (0, 1))
    assert [r.id for r in old] == [r.id for r in new]
    write_manifest(old, path)
    real_open = open

    def open_(file, mode="r", *args, **kwargs):  # the disk fills halfway through `path`
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.fspath(file).startswith(str(path)):
            return _FillingDisk(fh, path.stat().st_size // 2)
        return fh

    monkeypatch.setattr(minis2st.corpus, "open", open_, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write_manifest(new, path)
    monkeypatch.undo()
    assert read_manifest(path) == old
    assert not list(tmp_path.rglob("*.tmp"))


def test_write_into_a_missing_directory_names_the_path_given(chain_dir, tmp_path, capsys):
    out = tmp_path / "nodir" / "t"
    assert main(["tokenize", "--ckpt", str(chain_dir / "tok.ckpt"),
                 "--in", str(chain_dir / "m.val.jsonl"), "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"missing file: [Errno {errno.ENOENT}] No such file or directory: '{out}'\n")
    assert not list(tmp_path.rglob("*"))


def test_eval_scores_an_empty_synthesis_at_zero_similarity(chain_dir, tmp_path, capsys):
    # a translation with no audio tokens is written as a zero-row frame file;
    # eval scores it 0.0, as evaluate_translation does, instead of failing
    d = tmp_path / "chain"
    shutil.copytree(chain_dir, d)
    frames, prompts = d / "translate" / "frames", d / "translate" / "prompts"
    ids = [rid for rid, _ in read_token_file(d / "translate" / "translations.text")]
    write_frames(frames / f"{ids[0]}.ds2f", SpeechFrames(np.zeros((0, 8))))
    assert main(next(argv for argv in cli_chain(d) if argv[0] == "eval")) == 0
    capsys.readouterr()
    embed = resolve_vocoder(load_checkpoint(d / "model.ckpt")).embedder.embed
    sims = [0.0] + [cosine_similarity(embed(read_frames(frames / f"{rid}.ds2f")),
                                      embed(read_frames(prompts / f"{rid}.ds2f")))
                    for rid in ids[1:]]
    assert len(sims) == 4
    assert (f"system.speaker_sim={float(np.mean(sims))}\n"
            in (d / "eval" / "report.kv").read_text())


def test_every_command_writes_its_run_manifest(tmp_path, capsys):
    chain = cli_chain(tmp_path)
    assert len({argv[0] for argv in chain}) == 9
    for argv in chain:
        assert main(argv) == 0, argv
        doc = json.loads(run_manifest_path(argv).read_text())
        assert set(doc) == {"command", "argv", "effective_config", "seed",
                            "inputs", "outputs", "wall_time_s"}
        assert doc["command"] == argv[0]
        assert doc["argv"] == argv
        seeded = argv[0] in ("gen-corpus", "train-tokenizer", "train-model", "ablate")
        assert doc["seed"] == (5 if seeded else None), argv[0]
        assert doc["outputs"] and all(Path(o).exists() for o in doc["outputs"])
    capsys.readouterr()


def test_commands_never_read_back_their_outputs(tmp_path, monkeypatch, capsys):
    reads = []

    def recording(read):
        def wrapper(path, *args, **kwargs):
            reads.append(Path(path))
            return read(path, *args, **kwargs)
        return wrapper

    for name in ("load_checkpoint", "read_manifest"):
        monkeypatch.setattr(minis2st.cli, name, recording(getattr(minis2st.cli, name)))
    chain = cli_chain(tmp_path)
    for argv in (chain[0], chain[2], chain[4]):  # gen-corpus, train-tokenizer, train-model
        reads.clear()
        assert main(argv) == 0, argv
        written = json.loads(run_manifest_path(argv).read_text())["outputs"]
        assert not set(reads) & {Path(o) for o in written}, argv[0]
    capsys.readouterr()


# -------------------------------------------------------------------- docs


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("minis2st ")]


def test_readme_cli_quick_start_parses():
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]
