"""Golden outputs: a fixed tiny chain of runs and a digest of what it writes.

The chain is every CLI command on a 12-pair corpus at two training steps,
then `run_toy_pipeline` at eight steps per stage.  Its digest holds the
SHA-256 of every file written, and the shape, sum and L2 norm of every float
array in them (checkpoint tensors, frame files, the frames of manifest
records, numeric columns of training logs), plus the NumPy and BLAS versions
and the BLAS thread count it was made with.  Importing `minis2st` pins NumPy's
bundled OpenBLAS to one thread, so the count reads 1 and the digests hold
under any OPENBLAS_NUM_THREADS.  `test_goldens.py` compares a fresh run
against `goldens.json`, in process and in subprocesses at one and two
threads; a run at other versions checks the arrays only.

Re-record only for a change that means to alter outputs, and say why:

    PYTHONPATH=src python tests/goldens.py

With a path argument, the digest goes to that file instead.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from minis2st.cli import main
from minis2st.corpus import read_frames, read_manifest
from minis2st.model import DecodeConfig
from minis2st.pipeline import run_toy_pipeline, toy_corpus_config
from minis2st.training import load_checkpoint

GOLDEN_PATH = Path(__file__).with_name("goldens.json")
# run-manifest keys left out of the digest: the clock, and argv, which
# test_cli's test_every_command_writes_its_run_manifest checks as given
VOLATILE_MANIFEST_KEYS = ("wall_time_s", "argv")


def cli_chain(d: Path) -> list:
    """argv of every command on a 12-pair corpus, in an order that runs."""
    m, val, tok, model = d / "m.jsonl", d / "m.val.jsonl", d / "tok.ckpt", d / "model.ckpt"
    tr = d / "translate"
    chain = [
        ["gen-corpus", "--out", m, "--pairs", "12", "--val-pairs", "4"],
        ["filter", "--in", m, "--out", d / "kept.jsonl"],
        ["train-tokenizer", "--train", m, "--val", val, "--out", tok, "--max-steps", "2",
         "--with-text-to-token", "true"],
        ["tokenize", "--ckpt", tok, "--in", val, "--out", d / "val.tok"],
        ["train-model", "--train", m, "--val", val, "--tokenizer", tok, "--out", model,
         "--max-steps", "2"],
        ["translate", "--ckpt", model, "--in", val, "--out-dir", tr, "--decode-max-steps", "2"],
        ["synthesize", "--ckpt", model, "--tokens", tr / "translations.tokens",
         "--prompt", tr / "prompts" / "utt00008.ds2f", "--out-dir", d / "synth"],
        ["eval", "--hyp", tr / "translations.text", "--ref-manifest", val,
         "--gen-frames", tr / "frames", "--prompt-frames", tr / "prompts",
         "--embedder-from", model, "--out-dir", d / "eval"],
        ["ablate", "token_source", "--train", m, "--val", val, "--tokenizer", tok,
         "--vocoder", model, "--out-dir", d / "ablate", "--max-steps", "2"],
    ]
    return [[str(a) for a in argv] + ["--seed", "5"] for argv in chain]


def run_manifest_path(argv) -> Path:
    if "--out-dir" in argv:
        return Path(argv[argv.index("--out-dir") + 1]) / "run-manifest.json"
    return Path(argv[argv.index("--out") + 1] + ".run.json")


def run_chain(root: Path) -> None:
    cli = root / "cli"
    cli.mkdir()
    for argv in cli_chain(cli):
        if main(argv) != 0:
            raise RuntimeError(f"chain command failed: {argv}")
    run_toy_pipeline(out_dir=str(root / "toy"), seed=0, n_train=16,
                     corpus_cfg=toy_corpus_config(24), tokenizer_steps=8,
                     model_steps=8, vocoder_steps=8, decode_cfg=DecodeConfig(max_steps=4))


def blas_threads():
    """Threads the OpenBLAS bundled with NumPy runs with, or None where NumPy
    bundles none: how BLAS splits a product decides its rounding, so file
    digests depend on it."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def _stats(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "sum": float(a.sum()), "norm": float(np.linalg.norm(a))}


def _file_arrays(path: Path) -> dict:
    """Float arrays a written file holds, by name ('' for the whole file)."""
    if path.suffix == ".ckpt":
        return {name: a for name, a in load_checkpoint(path).tensors.items()
                if a.dtype.kind == "f"}
    if path.suffix == ".ds2f":
        return {"": read_frames(path).frames}
    if path.name.endswith(".log.jsonl"):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        keys = sorted({k for r in rows for k, v in r.items() if isinstance(v, float)})
        return {k: np.array([r[k] for r in rows if k in r]) for k in keys}
    if path.suffix == ".jsonl":  # a manifest: every record's frames
        return {f"{r.id}.{side}": getattr(r, f"{side}_frames").frames
                for r in read_manifest(path) for side in ("src", "tgt")}
    return {}


def _file_digest(path: Path, root: Path) -> str:
    """SHA-256 of the file with the run's root directory written as <root>."""
    data = path.read_bytes()
    if path.name.endswith("run.json") or path.name == "run-manifest.json":
        doc = json.loads(data)
        for key in VOLATILE_MANIFEST_KEYS:
            doc.pop(key, None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data.replace(str(root).encode(), b"<root>")).hexdigest()


def digest(root: Path) -> dict:
    files, arrays = {}, {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        files[rel] = _file_digest(path, root)
        for name, a in _file_arrays(path).items():
            arrays[f"{rel}:{name}" if name else rel] = _stats(a)
    return {"versions": versions(), "files": files, "arrays": arrays}


def record_fresh() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_chain(root)
        return digest(root)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    doc = record_fresh()
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(doc['files'])} files, {len(doc['arrays'])} arrays",
          file=sys.stderr)
