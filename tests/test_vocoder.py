from dataclasses import replace

import numpy as np
import pytest

import oracles
from minis2st.corpus import (SpeechFrames, ToyCorpusConfig, generate_toy_corpus,
                             same_speaker_prompts)
from minis2st import nn
from minis2st.tensor import Tape, no_grad
from minis2st.vocoder import SpeakerEmbedder, TimbreVocoder, VocoderConfig


def tiny_cfg(**kw):
    base = dict(feat_dim=4, audio_vocab=6, token_dim=5, d_model=8, blocks=1,
                heads=2, spk_dim=3)
    base.update(kw)
    return VocoderConfig(**base)


def unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_embedder_output_is_unit_norm_and_deterministic():
    e = SpeakerEmbedder(feat_dim=4, spk_dim=6, seed=0)
    rng = np.random.default_rng(0)
    frames = SpeechFrames(rng.normal(size=(11, 4)))
    a = e.embed(frames)
    b = e.embed(frames)
    assert a.shape == (6,)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(a, b)
    again = SpeakerEmbedder(feat_dim=4, spk_dim=6, seed=0).embed(frames)
    np.testing.assert_array_equal(a, again)
    other = SpeakerEmbedder(feat_dim=4, spk_dim=6, seed=1).embed(frames)
    assert not np.array_equal(a, other)


def test_embedder_separates_constant_offsets():
    # two "speakers" as shifted copies of the same content: their embeddings
    # must differ, and same-speaker pairs must sit closer than cross pairs
    e = SpeakerEmbedder(feat_dim=4, spk_dim=8, seed=0)
    rng = np.random.default_rng(1)
    content_a, content_b = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
    off1, off2 = np.array([2.0, 0, 0, 0]), np.array([0, 0, 0, -2.0])
    e11, e12 = e.embed(content_a + off1), e.embed(content_b + off1)
    e21 = e.embed(content_a + off2)
    same = float(e11 @ e12)
    cross = float(e11 @ e21)
    assert same > cross


def test_embedder_input_validation():
    e = SpeakerEmbedder(feat_dim=4, spk_dim=3, seed=0)
    with pytest.raises(ValueError):
        e.embed(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        e.embed(np.zeros((3, 5)))


def test_vocoder_paints_one_frame_per_token():
    rng = np.random.default_rng(2)
    spk = unit(rng, 3)
    voc = TimbreVocoder(tiny_cfg(), seed=0)
    for tokens in ([0], [0, 1, 2, 3], [5, 4, 3, 2, 1, 0, 1]):
        out = voc.synthesize(tokens, spk)
        assert isinstance(out, SpeechFrames)
        assert out.frames.shape == (len(tokens), 4)
    assert voc.synthesize([], spk).frames.shape == (0, 4)
    # training targets are held to the same rule
    with pytest.raises(ValueError, match="one frame per token"):
        voc.loss([[0, 1, 2]], spk[None], [rng.normal(size=(6, 4))])


def test_vocoder_validates_tokens_and_speaker():
    voc = TimbreVocoder(tiny_cfg(), seed=0)
    rng = np.random.default_rng(3)
    spk = unit(rng, 3)
    with pytest.raises(IndexError):
        voc.synthesize([0, 6], spk)  # outside the codebook
    with pytest.raises(ValueError):
        voc.synthesize([0], spk * 2.0)  # not unit norm
    with pytest.raises(ValueError):
        voc.synthesize([0], np.zeros(4))  # wrong dim


def test_speaker_conditioning_changes_output():
    voc = TimbreVocoder(tiny_cfg(), seed=0)
    rng = np.random.default_rng(4)
    a = voc.synthesize([1, 2, 3], unit(rng, 3))
    b = voc.synthesize([1, 2, 3], unit(rng, 3))
    assert np.abs(a.frames - b.frames).max() > 1e-9


def test_synthesis_is_deterministic_and_grad_free():
    voc = TimbreVocoder(tiny_cfg(), seed=1)
    rng = np.random.default_rng(5)
    spk = unit(rng, 3)
    with Tape() as tape:
        a = voc.synthesize([0, 5, 2], spk)
        assert tape.nodes == []
    b = voc.synthesize([0, 5, 2], spk)
    np.testing.assert_array_equal(a.frames, b.frames)


def _ragged_batch(cfg, rng):
    """Three utterances of 1, 4 and 6 tokens, so two of them are padded."""
    tokens = [[3], [0, 2, 3, 5], [2, 1, 4, 0, 5, 5]]
    spks = np.stack([unit(rng, cfg.spk_dim) for _ in tokens])
    targets = [rng.normal(size=(len(t), cfg.feat_dim)) for t in tokens]
    return tokens, spks, targets


def test_vocoder_gradients_match_finite_differences():
    # on a padded batch: pad rows reach neither the loss nor any gradient
    rng = np.random.default_rng(6)
    cfg = tiny_cfg()
    voc = TimbreVocoder(cfg, seed=2)
    tokens, spks, targets = _ragged_batch(cfg, rng)

    def build():
        return voc.loss(tokens, spks, targets)

    params = list(voc.trainable().values())
    for _ in range(6):
        picks = [params[i] for i in rng.choice(len(params), size=3, replace=False)]
        err = oracles.fd_gradcheck(build, picks, rng, probes=1)
        assert err < oracles.FD_RTOL, f"worst fd error {err:.3e}"


def test_batched_loss_is_the_mean_of_batch_of_one_losses():
    rng = np.random.default_rng(7)
    cfg = tiny_cfg()
    voc = TimbreVocoder(cfg, seed=3)
    tokens, spks, targets = _ragged_batch(cfg, rng)
    oracles.assert_batch_is_mean_of_singles(
        voc, lambda: voc.loss(tokens, spks, targets),
        [lambda i=i: voc.loss(tokens[i:i + 1], spks[i:i + 1], targets[i:i + 1])
         for i in range(len(tokens))])


def test_padding_is_inert(monkeypatch):
    # whatever the pad ids and pad target frames hold, the loss and every
    # gradient stay bit for bit: the key mask hides pad tokens from every
    # real row, and pad frames weigh 0
    rng = np.random.default_rng(8)
    cfg = tiny_cfg()
    voc = TimbreVocoder(cfg, seed=4)
    tokens, spks, targets = _ragged_batch(cfg, rng)
    base, base_grads = oracles.loss_and_grads(voc, lambda: voc.loss(tokens, spks, targets))
    monkeypatch.setattr(nn, "right_pad", oracles.noisy_right_pad(nn.right_pad, rng))
    for _ in range(3):
        got, grads = oracles.loss_and_grads(voc, lambda: voc.loss(tokens, spks, targets))
        assert got == base
        for name, g in grads.items():
            np.testing.assert_array_equal(g, base_grads[name], err_msg=name)


def test_a_lone_utterance_is_the_batch_of_one():
    rng = np.random.default_rng(9)
    cfg = tiny_cfg()
    voc = TimbreVocoder(cfg, seed=5)
    tokens, spk = [0, 3, 5], unit(rng, cfg.spk_dim)
    with no_grad():
        lone = voc.forward_frames(tokens, spk, None).data
        batch = voc.forward_frames([tokens], spk[None], None).data
    assert lone.shape == (3, cfg.feat_dim) and batch.shape == (1, 3, cfg.feat_dim)
    np.testing.assert_array_equal(batch[0], lone)


def test_same_seed_same_vocoder():
    a = TimbreVocoder(tiny_cfg(), seed=7)
    b = TimbreVocoder(tiny_cfg(), seed=7)
    for (na, ta), (nb, tb) in zip(sorted(a.named_tensors()), sorted(b.named_tensors())):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    # the embedder it carries by default is the one of its sizes and seed
    own = SpeakerEmbedder(feat_dim=4, spk_dim=3, seed=7)
    np.testing.assert_array_equal(a.embedder.w1, own.w1)
    assert a.recipe["embedder"] == own.recipe


def test_config_validation():
    with pytest.raises(ValueError):
        TimbreVocoder(tiny_cfg(blocks=0), seed=0)
    for emb, message in ((SpeakerEmbedder(4, spk_dim=8), "spk_dim 3 != embedder spk_dim 8"),
                         (SpeakerEmbedder(6, spk_dim=3), "feat_dim 4 != embedder feat_dim 6")):
        with pytest.raises(ValueError, match=message):
            TimbreVocoder(tiny_cfg(), seed=0, embedder=emb)


def test_prompts_embed_each_records_same_speaker_reference():
    e = SpeakerEmbedder(feat_dim=8, seed=0)
    records = list(generate_toy_corpus(ToyCorpusConfig(pairs=9), 0))
    lone = replace(records[3], id="lone", speaker="nobody-else")  # prompts with itself
    for case in (records, records + [lone], [lone]):
        refs = same_speaker_prompts(case)
        got = e.prompts(case)
        assert len(got) == len(case)
        for r, (frames, spk) in zip(case, got):
            assert frames is refs[r.id].tgt_frames
            assert spk.tobytes() == e.embed(refs[r.id].tgt_frames).tobytes()
    assert [spk.tobytes() for _, spk in e.prompts(iter(records))] == [
        spk.tobytes() for _, spk in e.prompts(records)]
