"""Seeded mutation fuzz of the CLI readers.

Small checkpoint, frame, manifest and token files are truncated at every
offset of their header and at a seeded sample of payload offsets, and each
header byte is flipped with a seeded mask, as are seeded bytes of a
manifest's records, where its frames are; every mutant is fed to the
commands that read that kind of file.  A mutant may still be well formed, so
a run may succeed (exit 0), and a checkpoint whose recipe no longer rebuilds
exits 4; anything else must be refused as a corrupt file (exit 2) with one
line on stderr.  No mutant may exit 1 or print a traceback.

A small `--config` file is truncated at every offset and each of its bytes
flipped with a seeded mask, and each mutant is fed to `filter`.  A config
file that is still UTF-8 may hold a key or value the command refuses (exit
1); one that is not UTF-8 must exit 2.
"""
import functools
import struct

import numpy as np
import pytest

import minis2st.cli
from minis2st.cli import main, write_token_file
from minis2st.corpus import (
    SpeechFrames,
    ToyCorpusConfig,
    generate_toy_corpus,
    write_frames,
    write_manifest,
)
from minis2st.tokenizer import SpeechTokenizer, TokenizerConfig
from minis2st.training import CheckpointState, save_checkpoint
from minis2st.vocoder import TimbreVocoder, VocoderConfig

SEED = 20261019
PAYLOAD_CUTS = 6  # sampled truncation offsets past the header, per file
RECORD_FLIPS = 64  # sampled byte flips in a manifest's records


def _save_module(path, kind, module):
    tensors = {k: t.data for k, t in module.trainable().items()}
    save_checkpoint(path, CheckpointState(kind=kind, config=module.recipe, step=0,
                                          tensors=tensors))


@pytest.fixture
def files(tmp_path):
    """The inputs, and for each file the commands that read it."""
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2, len_max=4), 0), m)
    tok, voc = tmp_path / "tok.ckpt", tmp_path / "voc.ckpt"
    _save_module(tok, "tokenizer",
                 SpeechTokenizer(TokenizerConfig(dim=8, codebook_size=8, enc1_blocks=1,
                                                 enc2_blocks=1, asr_blocks=1, heads=2), 0))
    _save_module(voc, "vocoder", TimbreVocoder(VocoderConfig(audio_vocab=8, token_dim=4,
                                                             d_model=8, blocks=1, heads=2), 0))
    tokens = tmp_path / "t.tok"
    write_token_file(tokens, [("utt00000", [1, 7, 3]), ("utt00001", [4, 0])])
    frames = tmp_path / "p.ds2f"
    write_frames(frames, SpeechFrames(np.random.default_rng(SEED).normal(size=(12, 8))))
    out = tmp_path / "out"
    tokenize = ["tokenize", "--ckpt", tok, "--in", m, "--out", out / "t.tok"]
    synthesize = ["synthesize", "--ckpt", voc, "--tokens", tokens, "--prompt", frames,
                  "--out-dir", out / "synth"]
    filter_ = ["filter", "--in", m, "--out", out / "kept.jsonl"]
    eval_ = ["eval", "--hyp", tokens, "--ref-manifest", m, "--out-dir", out / "eval"]
    return {tok: [tokenize], frames: [synthesize], m: [filter_],
            tokens: [synthesize, eval_]}


def _header_len(path, data: bytes) -> int:
    if path.suffix == ".ckpt":  # magic, version, header length, JSON header
        return 16 + struct.unpack("<Q", data[8:16])[0]
    if path.suffix == ".ds2f":  # magic, version, rows, columns
        return 16
    return data.index(b"\n") + 1  # a text file's first line


def _mutants(path, data: bytes, rng):
    """(what, bytes) for every truncation and flip of `data`."""
    head = _header_len(path, data)
    cuts = sorted({*range(head + 1),
                   *rng.integers(head + 1, len(data), size=PAYLOAD_CUTS).tolist()})
    for n in cuts:
        yield f"cut at {n}", data[:n]
    flips = list(range(head))
    if path.suffix == ".jsonl":
        flips += rng.integers(head, len(data), size=RECORD_FLIPS).tolist()
    for i, mask in zip(flips, rng.integers(1, 256, size=len(flips)).tolist()):
        flipped = bytearray(data)
        flipped[i] ^= mask
        yield f"byte {i} ^ {mask:#04x}", bytes(flipped)


def test_mutated_inputs_exit_zero_two_or_four(files, monkeypatch, capsys):
    # building the parser is most of a refused run's time; it reads no file
    monkeypatch.setattr(minis2st.cli, "build_parser", functools.cache(minis2st.cli.build_parser))
    rng = np.random.default_rng(SEED)
    bad, runs = [], 0
    for path, commands in files.items():
        data = path.read_bytes()
        allowed = (0, 2, 4) if path.suffix == ".ckpt" else (0, 2)
        for what, mutant in _mutants(path, data, rng):
            path.write_bytes(mutant)
            for argv in commands:
                code = main([str(a) for a in argv])
                err = capsys.readouterr().err
                runs += 1
                one_line = err.count("\n") == 1 and err.endswith("\n")
                if code not in allowed or (code and not one_line) or "Traceback" in err:
                    bad.append(f"{argv[0]} on {path.name} {what}: exit {code}: {err!r:.300}")
        path.write_bytes(data)
    assert runs > 1000
    assert not bad, f"{len(bad)} of {runs} runs:\n" + "\n".join(bad[:20])


def test_mutated_config_files_exit_zero_one_or_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(minis2st.cli, "build_parser", functools.cache(minis2st.cli.build_parser))
    m = tmp_path / "m.jsonl"
    write_manifest(generate_toy_corpus(ToyCorpusConfig(pairs=2, len_max=4), 0), m)
    cfg = tmp_path / "run.cfg"
    data = b"# keep close pairs\nthreshold = 0.5\ninclusive=true\n"
    argv = ["filter", "--in", str(m), "--out", str(tmp_path / "kept.jsonl"), "--config", str(cfg)]
    masks = np.random.default_rng(SEED).integers(1, 256, size=len(data)).tolist()
    mutants = [(f"cut at {n}", data[:n]) for n in range(len(data))]
    for i, mask in enumerate(masks):
        flipped = bytearray(data)
        flipped[i] ^= mask
        mutants.append((f"byte {i} ^ {mask:#04x}", bytes(flipped)))
    bad, not_utf8 = [], 0
    for what, mutant in mutants:
        cfg.write_bytes(mutant)
        code = main(argv)
        err = capsys.readouterr().err
        try:
            mutant.decode("utf-8")
            allowed = (0, 1, 2)
        except UnicodeDecodeError:
            not_utf8 += 1
            allowed = (2,)
        one_line = err.count("\n") == 1 and err.endswith("\n")
        if code not in allowed or (one_line if code == 0 else not one_line) or "Traceback" in err:
            bad.append(f"{what}: exit {code}: {err!r:.300}")
    assert not_utf8 > 10
    assert not bad, f"{len(bad)} of {len(mutants)} runs:\n" + "\n".join(bad[:20])
