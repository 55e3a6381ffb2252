import math

import numpy as np
import pytest

import oracles
from minis2st import model as model_module
from minis2st import nn
from minis2st.model import (
    AugmentedVocab,
    DecodeConfig,
    DecoderLM,
    ModelConfig,
    TranslationModel,
    apply_repetition_penalty,
    compute_loss,
    make_projector,
)
from minis2st.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    embedding_lookup,
    mul,
    reshape,
    weighted_sum,
    zero_grad,
)
from minis2st.tokenizer import TextToTokenModel
from minis2st.vocoder import SpeakerEmbedder


def tiny_cfg(**kw):
    base = dict(feat_dim=4, text_vocab=5, audio_vocab=7, d_model=12, blocks=1,
                heads=2, context=128, group_size=3, prompt_len=2,
                projector="linear", group_frames=2, proj_hidden=10,
                qformer_queries=3, qformer_dim=12, qformer_blocks=1,
                enc_dim=6, enc_blocks=1, enc_heads=2, fixed_input_len=8)
    base.update(kw)
    return ModelConfig(**base)


# ------------------------------------------------------------- vocabulary


def test_vocab_layout_and_bijections():
    v = AugmentedVocab(5, 7)
    assert (v.bos, v.eos_text, v.eos_audio, v.pad) == (12, 13, 14, 15)
    assert v.total == 16
    assert v.audio_head_size == 9 and v.text_head_size == 9
    # text head: symbols, then BOS, EOS_text, EOS_audio, PAD
    assert v.text_in.tolist() == [0, 1, 2, 3, 4, 12, 13, 14, 15]
    assert v.text_in[v.text_eos_local] == v.eos_text
    assert v.text_in[v.text_pad_local] == v.pad
    # audio head: codebook ids, then EOS, then PAD
    assert v.audio_in.tolist() == [5, 6, 7, 8, 9, 10, 11, 14, 15]
    assert v.audio_in[v.audio_eos_local] == v.eos_audio
    assert v.audio_in[v.audio_pad_local] == v.pad
    for table in (v.text_in, v.audio_in):
        assert len(set(table.tolist())) == len(table)  # injective
        assert table.min() >= 0 and table.max() < v.total


# ---------------------------------------------------------------- targets


def test_make_targets_roundtrip_all_lengths_and_sizes():
    for g in range(1, 9):
        dec = DecoderLM(tiny_cfg(group_size=g), seed=0)
        v = dec.vocab
        for n in range(0, 51):
            text = [i % v.text_size for i in range(n % 6)]
            tokens = [i % v.audio_size for i in range(n)]
            tt, at = dec.make_targets(text, tokens)
            s = max(len(text) + 1, math.ceil((n + 1) / g))
            assert tt.shape == (s,) and at.shape == (s, g)
            assert tt.tolist() == text + [v.text_eos_local] + [v.text_pad_local] * (s - len(text) - 1)
            flat = at.reshape(-1).tolist()
            assert flat == tokens + [v.audio_eos_local] + [v.audio_pad_local] * (s * g - n - 1)


def test_group_size_below_one_is_rejected():
    with pytest.raises(ValueError):
        DecoderLM(tiny_cfg(group_size=0), seed=0)


# ------------------------------------------------------------- projectors


def test_projector_output_length_laws():
    for t_e in (8, 16, 32, 64, 128, 256, 512):
        cfg = tiny_cfg(projector="linear")
        a_f = Tensor(np.random.default_rng(t_e).normal(size=(t_e, cfg.enc_dim)))
        lin = make_projector(cfg, seed=0)
        assert lin.project(a_f).shape == (t_e // cfg.group_frames, cfg.d_model)
        conv = make_projector(tiny_cfg(projector="conv1d"), seed=0)
        assert conv.project(a_f).shape == (t_e // cfg.group_frames, cfg.d_model)
        qf = make_projector(tiny_cfg(projector="qformer"), seed=0)
        assert qf.project(a_f).shape == (cfg.qformer_queries, cfg.d_model)


def test_projector_frame_grouping_floor():
    # lengths that do not divide evenly drop the remainder
    cfg = tiny_cfg(projector="linear", group_frames=4)
    proj = make_projector(cfg, seed=1)
    for t_e, want in ((4, 1), (5, 1), (7, 1), (8, 2), (11, 2)):
        a_f = Tensor(np.zeros((t_e, cfg.enc_dim)))
        assert proj.project(a_f).shape[0] == want


def test_unknown_projector_rejected():
    with pytest.raises(ValueError):
        make_projector(tiny_cfg(projector="mlp"), seed=0)


# ------------------------------------------------------------------- loss


def _uniform_case(cfg):
    dec = DecoderLM(cfg, seed=0)
    v = dec.vocab
    s, g = 2, cfg.group_size
    audio_logits = Tensor(np.zeros((1, s, g, v.audio_head_size)))
    text_logits = Tensor(np.zeros((1, s, v.text_head_size)))
    at = [[[0, 1, v.audio_eos_local], [v.audio_pad_local] * g]]
    tt = [[3, v.text_eos_local]]
    return v, audio_logits, text_logits, at, tt


def test_uniform_logits_give_log_vocab_loss():
    cfg = tiny_cfg()
    v, al, tl, at, tt = _uniform_case(cfg)
    total, la, lt = compute_loss(al, tl, at, tt, v, 1.0, 1.0)
    assert float(la.data) == pytest.approx(math.log(v.audio_head_size), abs=1e-9)
    assert float(lt.data) == pytest.approx(math.log(v.text_head_size), abs=1e-9)
    assert float(total.data) == pytest.approx(float(la.data) + float(lt.data), abs=1e-12)


def test_lambda_audio_zero_collapses_to_text_loss():
    cfg = tiny_cfg()
    v, al, tl, at, tt = _uniform_case(cfg)
    rng = np.random.default_rng(0)
    al = Tensor(rng.normal(size=al.shape))
    tl = Tensor(rng.normal(size=tl.shape))
    total, la, lt = compute_loss(al, tl, at, tt, v, lambda_audio=0.0, lambda_text=2.5)
    assert float(total.data) == pytest.approx(2.5 * float(lt.data), rel=1e-12)


def test_pad_positions_are_excluded_from_loss():
    cfg = tiny_cfg()
    v, al, tl, at, tt = _uniform_case(cfg)
    rng = np.random.default_rng(1)
    al = Tensor(rng.normal(size=al.shape))
    tl = Tensor(rng.normal(size=tl.shape))
    base = [float(x.data) for x in compute_loss(al, tl, at, tt, v, 1.0, 1.0)]
    # blast the logits at every PAD-masked position; nothing may move
    al2 = Tensor(al.data.copy())
    al2.data[0, 1, :, :] = 1e6  # the all-PAD group
    tl2 = Tensor(tl.data.copy())
    perturbed = [float(x.data) for x in compute_loss(al2, tl2, at, tt, v, 1.0, 1.0)]
    assert perturbed == pytest.approx(base, rel=1e-15)


def test_pad_positions_are_excluded_from_denominator():
    cfg = tiny_cfg()
    dec = DecoderLM(cfg, seed=0)
    v = dec.vocab
    g = cfg.group_size
    rng = np.random.default_rng(2)
    logits_row = rng.normal(size=(1, 1, g, v.audio_head_size))
    # one real token + padding vs the same token alone in a 1-group: if PAD
    # were averaged into the denominator the two losses would differ
    at_padded = [[[4, v.audio_pad_local, v.audio_pad_local]]]
    tlg = Tensor(rng.normal(size=(1, 1, v.text_head_size)))
    tt = [[1]]
    _, la_padded, _ = compute_loss(Tensor(logits_row), tlg, at_padded, tt, v, 1.0, 1.0)
    z = logits_row[:, :, :1]
    ref_cfg_loss = compute_loss(
        Tensor(np.concatenate([z, z, z], axis=2)), tlg, [[[4, 4, 4]]], tt, v, 1.0, 1.0
    )[1]
    assert float(la_padded.data) == pytest.approx(float(ref_cfg_loss.data), rel=1e-12)


def test_fully_masked_stream_raises():
    cfg = tiny_cfg()
    v, al, tl, _, tt = _uniform_case(cfg)
    all_pad = [[[v.audio_pad_local] * cfg.group_size] * 2]
    with pytest.raises(ValueError):
        compute_loss(al, tl, all_pad, tt, v, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_loss(al, tl, [[[0, 1, 2], [3, 4, 5]]], [[v.text_pad_local] * 2], v, 1.0, 1.0)


def test_loss_shape_validation():
    cfg = tiny_cfg()
    v, al, tl, at, tt = _uniform_case(cfg)
    with pytest.raises(ValueError):
        compute_loss(al, tl, [at[0][:1]], tt, v, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_loss(al, tl, at, [tt[0] + [0]], v, 1.0, 1.0)
    with pytest.raises(ValueError, match="takes batches"):  # a lone utterance's arrays
        compute_loss(Tensor(al.data[0]), Tensor(tl.data[0]), at[0], tt[0], v, 1.0, 1.0)


# ------------------------------------------------------ repetition penalty


def test_repetition_penalty_hand_case_flips_argmax():
    logits = np.array([2.0, 1.9, -3.0])
    assert int(np.argmax(logits)) == 0
    out = apply_repetition_penalty(logits, emitted=[0], rho=1.2)
    assert out[0] == pytest.approx(2.0 / 1.2)
    assert int(np.argmax(out)) == 1
    # negative logits are pushed further down by multiplication
    out2 = apply_repetition_penalty(logits, emitted=[2], rho=1.2)
    assert out2[2] == pytest.approx(-3.0 * 1.2)


def test_repetition_penalty_rho_one_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        v = int(rng.integers(2, 12))
        logits = rng.normal(size=v)
        emitted = [int(x) for x in rng.integers(0, v, size=rng.integers(0, 6))]
        out = apply_repetition_penalty(logits, emitted, rho=1.0)
        np.testing.assert_array_equal(out, logits)


def test_repetition_penalty_leaves_unemitted_untouched():
    logits = np.array([0.5, -0.5, 1.5])
    out = apply_repetition_penalty(logits, emitted=[1], rho=1.3)
    assert out[0] == 0.5 and out[2] == 1.5
    assert out[1] == pytest.approx(-0.65)


def test_repetition_penalty_equals_the_loop_form_bit_for_bit():
    # duplicated ids, logits of 0.0 and -0.0 (which stay as they are, signs
    # included), negative logits, nothing emitted, and rho 1.0 and 1.7
    base = np.array([0.0, -0.0, 2.5, -1.75, 1e-300, -4.0, 0.5, 7.0])
    cases = [[], [0], [1], [0, 1, 0, 1], [2, 2, 3, 3, 3], [5, 3, 1, 5], list(range(8)) * 2]
    rng = np.random.default_rng(22)
    trials = [(base, emitted) for emitted in cases]
    trials += [(rng.normal(size=9), rng.integers(0, 9, size=rng.integers(0, 12)).tolist())
               for _ in range(200)]
    for rho in (1.0, 1.7):
        for logits, emitted in trials:
            kept = logits.copy()
            got = apply_repetition_penalty(logits, emitted, rho)
            want = oracles.repetition_penalty_loop(logits, emitted, rho)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            np.testing.assert_array_equal(logits, kept)


# ------------------------------------------------------------ decoder laws


def test_teacher_forced_logit_shapes():
    cfg = tiny_cfg()
    dec = DecoderLM(cfg, seed=0)
    v = dec.vocab
    a_p = Tensor(np.random.default_rng(0).normal(size=(1, 3, cfg.d_model)))
    text_targets, audio_targets = dec.batch_targets([[1, 4]], [[0, 1, 2, 3]])
    al, tl = dec.forward_teacher_forced(a_p, text_targets, audio_targets)
    s = text_targets.shape[1]
    assert al.shape == (1, s, cfg.group_size, v.audio_head_size)
    assert tl.shape == (1, s, v.text_head_size)
    with pytest.raises(ValueError):
        dec.forward_teacher_forced(a_p, text_targets, audio_targets[..., :2])


def test_decode_respects_max_steps_and_penalty_validation():
    cfg = tiny_cfg()
    dec = DecoderLM(cfg, seed=0)
    a_p = Tensor(np.random.default_rng(1).normal(size=(2, cfg.d_model)))
    res = dec.decode_greedy(a_p, DecodeConfig(max_steps=4))
    assert res.steps <= 4
    assert len(res.tokens) <= 4 * cfg.group_size
    with pytest.raises(ValueError):
        dec.decode_greedy(a_p, DecodeConfig(max_steps=4, repetition_penalty=0.0))


@pytest.mark.parametrize("max_steps", [0, -3])
def test_decode_config_rejects_fewer_than_one_step(max_steps):
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        DecodeConfig(max_steps=max_steps)


def _record_heads(dec, monkeypatch):
    """Make dec's heads append (head name, logits) to the returned list,
    whether `linear` or decoding's own `affine` runs them."""
    return oracles.record_head_products(
        monkeypatch, model_module, {n: getattr(dec, n) for n in ("text_head", "audio_head")})


def test_feed_rows_are_one_step_of_step_rows_bit_for_bit():
    # every kind of pick decoding feeds back: a text symbol, the text EOS or
    # PAD after it, and groups ending in EOS at each position 0..G (at G the
    # EOS falls in the next group), or all PAD after the audio's EOS
    rng = np.random.default_rng(23)
    for g in (1, 3, 4):
        dec = DecoderLM(tiny_cfg(group_size=g), seed=g)
        v = dec.vocab
        texts = np.array([0, v.text_size - 1, v.text_eos_local, v.text_pad_local])
        groups = []
        for k in range(g + 1):
            picks = np.full(g, v.audio_pad_local)
            picks[:k] = rng.integers(0, v.audio_size, size=k)
            if k < g:
                picks[k] = v.audio_eos_local
            groups.append(picks)
        groups.append(np.full(g, v.audio_pad_local))
        for t in texts:
            for a in groups:
                got = dec._feed_rows(t, a)
                assert got.shape == (2, dec.cfg.d_model)
                np.testing.assert_array_equal(got, dec._step_rows(t[None], a[None]).data)


def test_cached_decoding_matches_the_recompute_oracle(monkeypatch):
    # the cached rows skip masked key columns, whose softmax weight is exactly
    # 0, so sums group their terms differently: logits agree to 1e-9, not bitwise
    rng = np.random.default_rng(10)
    kinds = ("linear", "conv1d", "qformer")
    ended = truncated = 0
    for trial in range(200):
        cfg = tiny_cfg(projector=kinds[trial % 3], group_size=int(rng.integers(1, 5)),
                       blocks=int(rng.integers(1, 3)))
        model = TranslationModel(cfg, seed=trial)
        frames = rng.normal(size=(int(rng.integers(3, 12)), cfg.feat_dim))
        a_p = Tensor(model.project_source([frames]).data[0])
        dcfg = DecodeConfig(max_steps=int(rng.integers(1, 13)),
                            repetition_penalty=float(rng.uniform(1.0, 2.0)))
        seen = _record_heads(model.decoder, monkeypatch)
        got = model.decoder.decode_greedy(a_p, dcfg)
        cached = list(seen)
        seen.clear()
        want = oracles.decode_greedy_recompute(model.decoder, a_p, dcfg)
        assert got == want, trial
        assert cached and [n for n, _ in cached] == [n for n, _ in seen], trial
        for (_, a), (_, b) in zip(cached, seen):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        ended += int(not (got.truncated_text and got.truncated_audio))
        truncated += int(got.truncated_text or got.truncated_audio)
    assert ended >= 20 and truncated >= 20, (ended, truncated)


def test_decode_steps_build_no_tensor(monkeypatch):
    # decode_cached hands each step arrays, and a step stays on arrays: both
    # decoders' heads run as `affine`, not as Tensor ops
    init, steps = Tensor.__init__, []

    def refuse(*args, **kw):
        raise AssertionError("a decode step built a Tensor")

    def watching(blocks, ln_f, rows, prefix, step, decode=nn.decode_cached):
        def watched(last):
            steps.append(last.shape)
            monkeypatch.setattr(Tensor, "__init__", refuse)
            try:
                return step(last)
            finally:
                monkeypatch.setattr(Tensor, "__init__", init)
        return decode(blocks, ln_f, rows, prefix, watched)

    monkeypatch.setattr(nn, "decode_cached", watching)
    cfg = tiny_cfg()
    model = TranslationModel(cfg, seed=1)
    frames = np.random.default_rng(3).normal(size=(6, cfg.feat_dim))
    assert model.translate(frames, DecodeConfig(max_steps=8)).steps == len(steps)
    steps.clear()
    t2t = TextToTokenModel(5, 12, spk_dim=3, seed=2, embedder=SpeakerEmbedder(4, spk_dim=3))
    spk = np.random.default_rng(4).normal(size=3)
    generated = t2t.generate([1, 2, 3], spk / np.linalg.norm(spk), max_len=8)
    assert len(steps) == len(generated.tokens) + (not generated.truncated)


def test_decode_checks_the_context_before_the_first_step(monkeypatch):
    cfg = tiny_cfg(context=20)
    dec = DecoderLM(cfg, seed=0)
    a_p = Tensor(np.random.default_rng(2).normal(size=(3, cfg.d_model)))
    # prompt 2 + source 3 + BOS + 2 * (max_steps - 1) rows at the last step
    dec.decode_greedy(a_p, DecodeConfig(max_steps=8))
    seen = _record_heads(dec, monkeypatch)
    with pytest.raises(ValueError, match="decoding 9 steps needs 22 positions, more than "
                                         "context 20"):
        dec.decode_greedy(a_p, DecodeConfig(max_steps=9))
    assert not seen


def test_decode_step_count_law_on_finished_streams():
    # every pre-EOS step emits exactly G audio tokens, so a T-token output
    # that terminated naturally took ceil(T/G) emitting steps
    rng = np.random.default_rng(4)
    finished = 0
    for seed in range(12):
        g = int(rng.integers(1, 5))
        cfg = tiny_cfg(group_size=g)
        dec = DecoderLM(cfg, seed=seed)
        a_p = Tensor(rng.normal(size=(2, cfg.d_model)))
        res = dec.decode_greedy(a_p, DecodeConfig(max_steps=30))
        if res.truncated_audio:
            continue
        finished += 1
        t = len(res.tokens)
        assert res.token_steps == math.ceil(t / g)
        assert res.steps <= 30
    assert finished >= 3  # untrained models still usually hit EOS by luck


def test_decode_never_emits_pad_or_out_of_range():
    cfg = tiny_cfg()
    dec = DecoderLM(cfg, seed=3)
    v = dec.vocab
    a_p = Tensor(np.random.default_rng(5).normal(size=(2, cfg.d_model)))
    res = dec.decode_greedy(a_p, DecodeConfig(max_steps=20))
    assert all(0 <= t < v.audio_size for t in res.tokens)
    assert all(0 <= t < v.text_size for t in res.text)


def test_make_targets_validates_and_groups():
    cfg = tiny_cfg()
    dec = DecoderLM(cfg, seed=0)
    v = dec.vocab
    text_targets, audio_targets = dec.make_targets([0, 2], [1, 5, 6, 0])
    assert text_targets.tolist() == [0, 2, v.text_eos_local]
    assert audio_targets.tolist() == [[1, 5, 6], [0, v.audio_eos_local, v.audio_pad_local],
                                      [v.audio_pad_local] * 3]
    with pytest.raises(IndexError):
        dec.make_targets([cfg.text_vocab], [0])
    with pytest.raises(IndexError):
        dec.make_targets([0], [cfg.audio_vocab])
    with pytest.raises(IndexError):
        dec.make_targets([0], [-1])


def test_translation_model_loss_and_translate_run():
    cfg = tiny_cfg()
    model = TranslationModel(cfg, seed=0)
    rng = np.random.default_rng(6)
    frames = rng.normal(size=(10, cfg.feat_dim))
    total, la, lt = model.loss_for([frames], [[0, 1]], [[2, 3, 4]], 1.0, 1.0)
    assert np.isfinite(float(total.data))
    assert float(total.data) == pytest.approx(float(la.data) + float(lt.data), rel=1e-12)
    res = model.translate(frames, DecodeConfig(max_steps=6))
    assert res.steps <= 6
    res2 = model.translate(frames, DecodeConfig(max_steps=6))
    assert res.tokens == res2.tokens and res.text == res2.text


def test_decoder_module_gradients_match_finite_differences():
    for name, err in oracles.run_module_gradient_trials(trials=12):
        assert err < oracles.FD_RTOL, f"{name}: worst relative error {err:.3e}"


def test_context_overflow_raises():
    cfg = tiny_cfg(context=10)
    dec = DecoderLM(cfg, seed=0)
    a_p = Tensor(np.zeros((1, 4, cfg.d_model)))  # prompt 2 + 4 + BOS + 2S > 10
    text_targets, audio_targets = dec.batch_targets([[1]], [[0, 1, 2, 3, 4]])
    with pytest.raises(ValueError):
        dec.forward_teacher_forced(a_p, text_targets, audio_targets)


def test_frozen_encoder_pads_and_truncates_to_fixed_length():
    cfg = tiny_cfg(fixed_input_len=6)
    model = TranslationModel(cfg, seed=0)
    short = model.encoder.encode([np.zeros((2, cfg.feat_dim))])
    long = model.encoder.encode([np.zeros((40, cfg.feat_dim))])
    assert short.shape == (1, 6, cfg.enc_dim)
    assert long.shape == (1, 6, cfg.enc_dim)
    assert not model.encoder.trainable()


# ----------------------------------------------------------- batched graphs


def _ragged_batch(cfg, rng):
    """Three utterances of 2, 4 and 5 steps, so two of them are padded."""
    frames = [rng.normal(size=(n, cfg.feat_dim)) for n in (5, 9, 12)]
    texts = [[1], [0, 2, 3], [2, 1, 4, 0]]
    tokens = [[3], [0, 1, 2, 3, 4, 5, 6, 0, 1, 2], [4, 4, 5, 6, 1]]
    return frames, texts, tokens


def _loss_and_grads(model, build):
    """Loss values of build() and the gradient of every trainable tensor."""
    params = model.trainable()
    zero_grad(params.values())
    with Tape() as tape:
        losses = build()
    backward(losses[0], tape)
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for k, p in params.items()}
    return [float(x.data) for x in losses], grads


@pytest.mark.parametrize("projector", ["linear", "conv1d", "qformer"])
def test_batched_loss_is_the_mean_of_batch_of_one_losses(projector):
    cfg = tiny_cfg(projector=projector, freeze_text_embed=False)
    model = TranslationModel(cfg, seed=2)
    frames, texts, tokens = _ragged_batch(cfg, np.random.default_rng(8))
    tt, _ = model.decoder.batch_targets(texts, tokens)
    steps = [len(model.decoder.make_targets(t, k)[0]) for t, k in zip(texts, tokens)]
    assert steps == [2, 4, 5] and tt.shape[1] == 5

    def loss(f, t, k):
        return lambda: model.loss_for(f, t, k, 0.7, 1.3)

    got, got_grads = _loss_and_grads(model, loss(frames, texts, tokens))
    singles = [_loss_and_grads(model, loss([f], [t], [k]))
               for f, t, k in zip(frames, texts, tokens)]
    want = np.mean([vals for vals, _ in singles], axis=0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    refs = {name: np.mean([grads[name] for _, grads in singles], axis=0) for name in got_grads}
    for name, g in got_grads.items():
        assert np.abs(g - refs[name]).max() <= 1e-10 * np.abs(refs[name]).max(), name


def test_padding_is_inert():
    # the ids fed at a shorter utterance's pad steps move neither the loss
    # nor any gradient: no real row attends to a pad row, and PAD targets
    # carry no loss
    cfg = tiny_cfg(freeze_text_embed=False)
    model = TranslationModel(cfg, seed=4)
    dec = model.decoder
    v = dec.vocab
    rng = np.random.default_rng(9)
    frames, texts, tokens = _ragged_batch(cfg, rng)
    tt, at = dec.batch_targets(texts, tokens)
    steps = [len(dec.make_targets(t, k)[0]) for t, k in zip(texts, tokens)]

    def loss(tt_in, at_in):
        def build():
            al, tl = dec.forward_teacher_forced(model.project_source(frames), tt_in, at_in)
            return compute_loss(al, tl, at, tt, v, 1.0, 1.0)
        return _loss_and_grads(model, build)

    base, base_grads = loss(tt, at)
    for _ in range(3):
        tt_in, at_in = tt.copy(), at.copy()
        for i, n in enumerate(steps):
            tt_in[i, n:] = rng.integers(0, v.text_head_size, size=tt_in[i, n:].shape)
            at_in[i, n:] = rng.integers(0, v.audio_head_size, size=at_in[i, n:].shape)
        assert not np.array_equal(tt_in, tt)
        got, grads = loss(tt_in, at_in)
        assert got == base
        for name, g in grads.items():
            np.testing.assert_array_equal(g, base_grads[name], err_msg=name)


@pytest.mark.parametrize("projector", ["linear", "conv1d", "qformer"])
def test_batched_loss_gradients_match_finite_differences(projector):
    cfg = tiny_cfg(projector=projector)
    model = TranslationModel(cfg, seed=6)
    rng = np.random.default_rng(11)
    frames, texts, tokens = _ragged_batch(cfg, rng)
    params = list(model.trainable().values())
    err = oracles.fd_gradcheck(lambda: model.loss_for(frames, texts, tokens, 1.0, 1.0)[0],
                               params, rng, probes=2)
    assert err < oracles.FD_RTOL, f"{projector}: worst relative error {err:.3e}"


def test_embed_reads_each_id_from_its_own_table_bit_for_bit():
    # against the former lookup: every id gathered from both tables and the
    # wrong row masked out; rows and the scatter-add into both gradients agree
    cfg = tiny_cfg(freeze_text_embed=False)
    dec = DecoderLM(cfg, seed=5)
    v = dec.vocab
    d = cfg.d_model
    rng = np.random.default_rng(7)

    def masked(ids):
        flat = ids.reshape(-1)
        is_text = flat < v.text_size
        te = mul(embedding_lookup(dec.text_embed, np.where(is_text, flat, 0)),
                 Tensor(is_text.astype(np.float64)[:, None]))
        ae = mul(embedding_lookup(dec.aux_embed, np.where(is_text, 0, flat - v.text_size)),
                 Tensor((~is_text).astype(np.float64)[:, None]))
        return reshape(add(te, ae), ids.shape + (d,))

    cases = [rng.integers(0, v.total, size=shape) for shape in [(9,), (3, 4), (2, 3, 5)]]
    cases += [rng.integers(0, v.text_size, size=6), rng.integers(v.text_size, v.total, size=6)]
    for ids in cases:
        w = rng.normal(size=ids.shape + (d,))
        runs = []
        for embed in (dec._embed, masked):
            zero_grad([dec.text_embed, dec.aux_embed])
            with Tape() as tape:
                out = embed(ids)
                loss = weighted_sum(out, w)
            backward(loss, tape)
            runs.append([out.data] + [np.zeros_like(t.data) if t.grad is None else t.grad
                                      for t in (dec.text_embed, dec.aux_embed)])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
