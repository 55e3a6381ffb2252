"""Release gate: twelve checks covering gradients, quantization, losses,
grouped decoding, shapes, the toy pipeline, ablation harnesses, timbre,
decoding penalties, metric oracles, and determinism.

Each check prints one `ACCEPTANCE n: PASS/FAIL` line; run with -rA to see
them all in the summary.
"""
import hashlib
import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from minis2st.cli import main as cli_main
from minis2st.corpus import same_speaker_prompts
from minis2st.evaluation import (
    corpus_bleu,
    evaluate_translation,
    meteor_lite,
    timbre_separation,
)
from minis2st.model import (
    DecodeConfig,
    DecoderLM,
    ModelConfig,
    TranslationModel,
    apply_repetition_penalty,
    compute_loss,
    make_projector,
)
from minis2st.pipeline import run_ablation, split_manifest
from minis2st.tensor import Tensor, squared_error
from minis2st.tokenizer import Codebook, quantize
from minis2st.training import TrainConfig, load_checkpoint, train


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n:2d}: PASS - {desc}")


def _tiny_cfg(**kw):
    base = dict(feat_dim=4, text_vocab=5, audio_vocab=7, d_model=12, blocks=1,
                heads=2, context=128, group_size=3, prompt_len=2,
                projector="linear", group_frames=2, proj_hidden=10,
                qformer_queries=3, qformer_dim=12, qformer_blocks=1,
                enc_dim=6, enc_blocks=1, enc_heads=2, fixed_input_len=8)
    base.update(kw)
    return ModelConfig(**base)


def test_01_gradient_correctness():
    with criterion(1, "ops and modules pass 100-trial finite-difference checks "
                      "at rel err < 1e-4 in under 2 minutes"):
        t0 = time.perf_counter()
        results = oracles.run_op_gradient_trials(trials=100)
        results += oracles.run_module_gradient_trials(trials=100)
        elapsed = time.perf_counter() - t0
        assert results, "no gradient checks ran"
        for name, err in results:
            assert err < 1e-4, f"{name}: worst relative error {err:.3e}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_02_quantizer_matches_exhaustive_search():
    with criterion(2, "quantize equals exhaustive nearest-neighbor search on "
                      "1000 random instances, ties included"):
        rng = np.random.default_rng(202)
        for i in range(1000):
            size = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 8))
            cb = Codebook(size, dim, np.random.default_rng(0))
            cb.entries.data[:] = rng.normal(size=(size, dim))
            if i % 5 == 0 and size > 1:
                cb.entries.data[size // 2] = cb.entries.data[0]  # exact ties
            h = rng.normal(size=(rows, dim))
            if i % 7 == 0:
                h[0] = cb.entries.data[min(3, size - 1)]
            got = quantize(h, cb)
            want = [oracles.nearest_code_bruteforce(row, cb.entries.data)
                    for row in h]
            assert got == want, f"instance {i}"


def test_03_loss_identities():
    with criterion(3, "uniform logits give ln|V_a| audio loss, zero audio "
                      "weight collapses to the text term, PAD logits are inert"):
        cfg = _tiny_cfg()
        dec = DecoderLM(cfg, seed=0)
        v = dec.vocab
        g = cfg.group_size
        al = Tensor(np.zeros((1, 2, g, v.audio_head_size)))
        tl = Tensor(np.zeros((1, 2, v.text_head_size)))
        at = [[[0, 1, v.audio_eos_local], [v.audio_pad_local] * g]]
        tt = [[3, v.text_eos_local]]
        _, la, lt = compute_loss(al, tl, at, tt, v, 1.0, 1.0)
        assert abs(float(la.data) - math.log(v.audio_head_size)) <= 1e-9
        assert abs(float(lt.data) - math.log(v.text_head_size)) <= 1e-9

        rng = np.random.default_rng(0)
        al_r = Tensor(rng.normal(size=al.shape))
        tl_r = Tensor(rng.normal(size=tl.shape))
        total, _, lt_r = compute_loss(al_r, tl_r, at, tt, v,
                                      lambda_audio=0.0, lambda_text=2.5)
        assert float(total.data) == 2.5 * float(lt_r.data)

        base = [float(x.data) for x in compute_loss(al_r, tl_r, at, tt, v, 1.0, 1.0)]
        al_p = Tensor(al_r.data.copy())
        al_p.data[0, 1, :, :] = 1e6  # every masked PAD position
        pert = [float(x.data) for x in compute_loss(al_p, tl_r, at, tt, v, 1.0, 1.0)]
        assert pert == base


def test_04_group_modeling_contract():
    with criterion(4, "decoder targets round-trip lengths 0-50 for G 1-8 and "
                      "finished G=3 decodes take ceil(T/3) emitting steps"):
        for g in range(1, 9):
            dec = DecoderLM(_tiny_cfg(group_size=g, audio_vocab=50), seed=0)
            eos = dec.vocab.audio_eos_local
            for n in range(0, 51):
                text = [i % 5 for i in range(n % 7)]
                tokens = list(range(n))
                tt, at = dec.make_targets(text, tokens)
                assert at.shape == (len(tt), g)
                assert len(tt) == max(len(text) + 1, math.ceil((n + 1) / g))
                flat = at.reshape(-1).tolist()
                assert flat[: flat.index(eos)] == tokens

        rng = np.random.default_rng(40)
        finished = 0
        for seed in range(15):
            dec = DecoderLM(_tiny_cfg(group_size=3), seed=seed)
            a_p = Tensor(rng.normal(size=(2, 12)))
            res = dec.decode_greedy(a_p, DecodeConfig(max_steps=30))
            if res.truncated_audio:
                assert len(res.tokens) == res.token_steps * 3
                continue
            finished += 1
            assert res.token_steps == math.ceil(len(res.tokens) / 3)
        assert finished >= 5


def test_05_projector_shape_laws():
    with criterion(5, "Linear/Conv1D emit floor(T_e/k) vectors and the "
                      "query projector emits N_q regardless of T_e"):
        for t_e in (8, 16, 32, 64, 128, 256, 512):
            a_f = Tensor(np.random.default_rng(t_e).normal(size=(t_e, 6)))
            for kind in ("linear", "conv1d"):
                cfg = _tiny_cfg(projector=kind, group_frames=3)
                proj = make_projector(cfg, seed=0)
                assert proj.project(a_f).shape == (t_e // 3, cfg.d_model)
            qcfg = _tiny_cfg(projector="qformer")
            qf = make_projector(qcfg, seed=0)
            assert qf.project(a_f).shape == (qcfg.qformer_queries, qcfg.d_model)


def test_06_toy_pipeline_learns(toy_run):
    with criterion(6, "full pipeline trains inside the 15-minute budget and "
                      "recovers target symbols at BLEU >= 90; untrained < 5"):
        assert toy_run.timings["total"] < 900.0, toy_run.timings
        row = toy_run.report.rows[0]
        assert row.bleu >= 90.0, f"trained corpus BLEU {row.bleu:.2f}"

        fps = int(toy_run.train_m.metadata["frames_per_symbol"])
        untrained = TranslationModel(toy_run.model.cfg, seed=1234)
        urow, _ = evaluate_translation(
            model=untrained, tokenizer=toy_run.tokenizer, vocoder=toy_run.vocoder,
            alignment=toy_run.alignment, records=toy_run.val_m, frames_per_symbol=fps)
        assert urow.bleu < 5.0, f"untrained corpus BLEU {urow.bleu:.2f}"


def test_07_projector_ablation_harness(toy_run):
    with criterion(7, "projector suite trains all four variants under one "
                      "seed, keeps loss curves, and records the convergence flag"):
        eval_m, _ = split_manifest(toy_run.val_m, 20)
        report, curves = run_ablation(
            "projectors", train_m=toy_run.train_m, val_m=toy_run.val_m,
            eval_m=eval_m, tokenizer=toy_run.tokenizer, vocoder=toy_run.vocoder,
            alignment=toy_run.alignment, seed=0, max_steps=80)
        assert [r.system for r in report.rows] == [
            "linear", "conv1d-linear", "qformer-2", "qformer-4"]
        for r in report.rows:
            assert not r.error, f"{r.system}: {r.error}"
            assert r.bleu is not None
            assert r.extras["final_train_loss"] is not None
        for name in curves:
            assert len(curves[name]) == 80
        flag = [n for n in report.notes if n.startswith("faster convergence")]
        assert flag and flag[0].split(": ")[-1] in (
            "observed", "not observed", "inconclusive")


def test_08_token_source_ablation_harness(toy_run):
    with criterion(8, "token-source suite compares speech vs text tokens and "
                      "reports the relative BLEU delta in the fixed format"):
        eval_m, _ = split_manifest(toy_run.val_m, 20)
        report, curves = run_ablation(
            "token_source", train_m=toy_run.train_m, val_m=toy_run.val_m,
            eval_m=eval_m, tokenizer=toy_run.tokenizer, vocoder=toy_run.vocoder,
            alignment=toy_run.alignment, seed=0, max_steps=150)
        assert [r.system for r in report.rows] == ["speech-tokens", "text-tokens"]
        assert all(not r.error for r in report.rows)
        assert all(len(curves[r.system]) == 150 for r in report.rows)
        pat = re.compile(
            r"relative BLEU degradation of -?\d+\.\d{2}% with text-derived tokens")
        assert any(pat.fullmatch(n) for n in report.notes), report.notes


def mismatched_prompts(m) -> dict:
    """id -> reference record of a different speaker, spread deterministically."""
    out = {}
    for i, r in enumerate(m):
        others = [p for p in m if p.speaker != r.speaker]
        if not others:
            raise ValueError("mismatched prompts need at least two speakers")
        out[r.id] = others[i % len(others)]
    return out


def test_09_timbre_conditioning(toy_run):
    with criterion(9, "matched-speaker similarity beats mismatched on >= 90% "
                      "of 50 held-out utterances"):
        records = list(toy_run.val_m)
        assert len(records) == 50
        frac = timbre_separation(
            vocoder=toy_run.vocoder, tokenizer=toy_run.tokenizer, records=records,
            matched=same_speaker_prompts(toy_run.val_m),
            mismatched=mismatched_prompts(toy_run.val_m))
        assert frac >= 0.9, f"separation {frac:.2f}"


def test_10_repetition_penalty():
    with criterion(10, "the rho=1.2 argmax-flip case is exact and rho=1.0 "
                       "never changes a logit across 1000 random decodes"):
        logits = np.array([2.0, 1.9, -3.0])
        out = apply_repetition_penalty(logits, emitted=[0], rho=1.2)
        assert int(np.argmax(logits)) == 0
        assert int(np.argmax(out)) == 1
        assert out[0] == pytest.approx(2.0 / 1.2)
        assert out[1] == 1.9 and out[2] == -3.0
        # negative logits are pushed away by multiplying instead
        out2 = apply_repetition_penalty(logits, emitted=[2], rho=1.2)
        assert out2[2] == pytest.approx(-3.0 * 1.2)

        rng = np.random.default_rng(10)
        for _ in range(1000):
            width = int(rng.integers(2, 12))
            raw = rng.normal(size=width)
            emitted = list(rng.integers(0, width, size=int(rng.integers(0, 6))))
            noop = apply_repetition_penalty(raw, emitted=emitted, rho=1.0)
            assert np.array_equal(noop, raw)


def test_11_metric_oracles(rng):
    with criterion(11, "corpus_bleu matches brute force within 1e-9 on 200 "
                       "corpora and meteor_lite matches the hand formula on 50"):
        for _ in range(200):
            hyps, refs = oracles.random_corpus(rng, n_pairs=int(rng.integers(1, 6)))
            assert abs(corpus_bleu(hyps, refs)
                       - oracles.bleu_bruteforce(hyps, refs)) <= 1e-9
        assert meteor_lite(["a", "b", "c", "d"], ["a", "b", "c", "d"]) == 0.9921875
        assert meteor_lite(["a"], ["a"]) == 0.5
        for _ in range(48):
            hyps, refs = oracles.random_corpus(rng, n_pairs=1, vocab=5, max_len=6)
            assert meteor_lite(hyps[0], refs[0]) == pytest.approx(
                oracles.meteor_bruteforce(hyps[0], refs[0]), abs=1e-12)


def _cli_chain(root):
    m, val = root / "corpus.jsonl", root / "val.jsonl"
    steps = ["gen-corpus", "--out", str(m), "--val-out", str(val),
             "--pairs", "12", "--val-pairs", "4", "--seed", "7"]
    assert cli_main(steps) == 0
    assert cli_main(["train-tokenizer", "--train", str(m), "--val", str(val),
                     "--out", str(root / "tok.ckpt"), "--max-steps", "5",
                     "--seed", "7"]) == 0
    assert cli_main(["train-model", "--train", str(m), "--val", str(val),
                     "--tokenizer", str(root / "tok.ckpt"),
                     "--out", str(root / "model.ckpt"), "--max-steps", "5",
                     "--seed", "7"]) == 0
    assert cli_main(["translate", "--ckpt", str(root / "model.ckpt"),
                     "--in", str(val), "--out-dir", str(root / "out"),
                     "--seed", "7"]) == 0


def _tree_hashes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        if p.name.endswith(".run.json") or p.name == "run-manifest.json":
            continue  # run manifests carry wall-clock times
        out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_12_determinism_and_resume(tmp_path, capsys):
    with criterion(12, "same seed gives byte-identical artifacts end to end "
                       "and a mid-training resume is bit-exact"):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            root.mkdir()
            _cli_chain(root)
        capsys.readouterr()
        hashes_a, hashes_b = _tree_hashes(a), _tree_hashes(b)
        assert hashes_a.keys() == hashes_b.keys()
        assert hashes_a == hashes_b

        def make_problem():
            gen = np.random.default_rng(5)
            w = Tensor(gen.standard_normal(4), requires_grad=True)
            target = gen.standard_normal(4)

            def loss_fn(batch, rng):
                t = target + rng.standard_normal(4) * 0.1
                return squared_error(w, t, 1.0 / t.size), {}

            return {"w": w}, list(range(8)), loss_fn, \
                (lambda: float(np.sum(w.data ** 2)))

        cfg = TrainConfig(lr=0.02, batch_size=4, warmup_steps=2, max_epochs=10,
                          validate_every=5, patience=50, seed=11)
        params_a, ex, loss_fn, val_fn = make_problem()
        train(params=params_a, examples=ex, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, max_steps=10)
        params_b, ex, loss_fn, val_fn = make_problem()
        ckpt = tmp_path / "mid.ckpt"
        train(params=params_b, examples=ex, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, checkpoint_path=str(ckpt), max_steps=5)
        params_c, ex, loss_fn, val_fn = make_problem()
        train(params=params_c, examples=ex, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, resume_from=load_checkpoint(ckpt), max_steps=10)
        np.testing.assert_array_equal(params_a["w"].data, params_c["w"].data)
