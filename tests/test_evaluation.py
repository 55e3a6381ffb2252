import math

import numpy as np
import pytest

import oracles
from minis2st.corpus import SpeechFrames, ToyCorpusConfig, generate_toy_corpus
from minis2st.evaluation import (
    EvalReport,
    EvalRow,
    corpus_bleu,
    evaluate_translation,
    meteor_lite,
    speaker_similarity,
    steps_to_half_loss,
    timbre_separation,
    transcribe_frames,
    translate_records,
)
from minis2st.model import DecodeConfig, ModelConfig, TranslationModel
from minis2st.vocoder import SpeakerEmbedder, TimbreVocoder, VocoderConfig


# -------------------------------------------------------------------- bleu


def test_bleu_matches_bruteforce_oracle_on_random_corpora(rng):
    for _ in range(200):
        hyps, refs = oracles.random_corpus(rng, n_pairs=int(rng.integers(1, 6)))
        got = corpus_bleu(hyps, refs)
        want = oracles.bleu_bruteforce(hyps, refs)
        assert abs(got - want) <= 1e-9, (hyps, refs)


def test_bleu_identical_corpus_is_exactly_100():
    corpus = [["a", "b", "c", "d", "e"], ["x", "y"]]
    assert corpus_bleu(corpus, corpus) == 100.0


def test_bleu_short_hypothesis_hand_value():
    hyp = ["the", "cat", "sat"]
    ref = ["the", "cat", "sat", "down"]
    # all clipped precisions are 1 after smoothing, so only the brevity
    # penalty exp(1 - 4/3) remains
    assert corpus_bleu([hyp], [ref]) == pytest.approx(100.0 * math.exp(-1.0 / 3.0),
                                                      abs=1e-12)
    assert corpus_bleu([hyp], [ref]) == pytest.approx(71.65313105737893, abs=1e-11)


def test_bleu_zero_overlap_is_zero():
    assert corpus_bleu([["a", "b"]], [["c", "d"]]) == 0.0


def test_bleu_empty_hypothesis_is_zero():
    assert corpus_bleu([[]], [["a"]]) == 0.0


def test_bleu_rejects_mismatched_or_empty_corpora():
    with pytest.raises(ValueError, match="mismatch"):
        corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError, match="non-empty"):
        corpus_bleu([], [])


# ------------------------------------------------------------------ meteor


def test_meteor_matches_bruteforce_on_random_pairs(rng):
    for _ in range(50):
        hyps, refs = oracles.random_corpus(rng, n_pairs=1, vocab=5, max_len=6)
        got = meteor_lite(hyps[0], refs[0])
        want = oracles.meteor_bruteforce(hyps[0], refs[0])
        assert got == pytest.approx(want, abs=1e-12), (hyps[0], refs[0])


def test_meteor_identical_four_tokens():
    s = ["a", "b", "c", "d"]
    # F=1, one chunk of four matches: 1 - 0.5 * (1/4)^3
    assert meteor_lite(s, s) == pytest.approx(0.9921875, abs=1e-15)


def test_meteor_single_shared_token_is_half():
    assert meteor_lite(["a"], ["a"]) == pytest.approx(0.5, abs=1e-15)


def test_meteor_no_match_and_empty_inputs_are_zero():
    assert meteor_lite(["a"], ["b"]) == 0.0
    assert meteor_lite([], ["a"]) == 0.0
    assert meteor_lite(["a"], []) == 0.0


def test_meteor_weights_recall_over_precision():
    # dropping a reference token costs more than inserting a stray one
    assert meteor_lite(["a"], ["a", "b"]) < meteor_lite(["a", "b"], ["a"])


def test_meteor_fragmentation_penalty_lowers_score():
    contiguous = meteor_lite(["a", "b"], ["a", "b"])
    fragmented = meteor_lite(["b", "a"], ["a", "b"])  # two chunks, same matches
    assert fragmented < contiguous


# ------------------------------------------------------- speaker similarity


def test_speaker_similarity_of_identical_frames_is_one(rng):
    emb = SpeakerEmbedder(feat_dim=4, spk_dim=8, seed=0)
    f = SpeechFrames(frames=rng.standard_normal((12, 4)))
    assert speaker_similarity(f, f, emb) == pytest.approx(1.0, abs=1e-12)


def test_speaker_similarity_of_an_empty_generation_is_zero(rng):
    # no audio tokens decoded means no frames: scored 0.0, not an error
    emb = SpeakerEmbedder(feat_dim=4, spk_dim=8, seed=0)
    prompt = SpeechFrames(frames=rng.standard_normal((12, 4)))
    assert speaker_similarity(SpeechFrames(np.zeros((0, 4))), prompt, emb) == 0.0
    assert speaker_similarity(np.zeros((0, 4)), prompt, emb) == 0.0
    with pytest.raises(ValueError, match="4-wide frames, got 5-wide"):
        speaker_similarity(np.zeros((0, 5)), prompt, emb)


# ----------------------------------------------------------------- reports


def test_eval_row_validates_metric_ranges():
    EvalRow(system="ok", count=1, bleu=100.0, meteor=1.0, speaker_sim=-1.0).validate()
    with pytest.raises(ValueError, match="BLEU"):
        EvalRow(system="s", count=1, bleu=100.5).validate()
    with pytest.raises(ValueError, match="METEOR"):
        EvalRow(system="s", count=1, meteor=-0.01).validate()
    with pytest.raises(ValueError, match="similarity"):
        EvalRow(system="s", count=1, speaker_sim=1.5).validate()


def test_report_render_text_layout():
    report = EvalReport(
        rows=[
            EvalRow(system="base", count=50, bleu=91.2345, meteor=0.5,
                    speaker_sim=0.25),
            EvalRow(system="broken", count=0, error="boom"),
        ],
        notes=["a note"],
    )
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0].split() == ["system", "bleu", "meteor", "spk_sim", "n"]
    assert set(lines[1]) <= {"-", " "}
    assert "91.23" in lines[2] and "0.5000" in lines[2]
    assert "broken: FAILED: boom" in text
    assert text.endswith("a note\n")


def test_report_render_text_handles_no_rows():
    assert "system" in EvalReport(rows=[]).render_text()


def test_report_kv_format():
    report = EvalReport(
        rows=[EvalRow(system="base", count=3, bleu=50.0,
                      extras={"text_bleu": 60.0})],
        metadata={"seed": 7},
        notes=["hello"],
    )
    kv = report.to_kv()
    assert "meta.seed=7" in kv
    assert "base.bleu=50.0" in kv
    assert "base.count=3" in kv
    assert "base.text_bleu=60.0" in kv
    assert "note.0=hello" in kv
    assert "base.meteor" not in kv  # None metrics stay out


def test_report_validate_rejects_bad_row():
    report = EvalReport(rows=[EvalRow(system="s", count=1, bleu=-5.0)])
    with pytest.raises(ValueError):
        report.render_text()


# -------------------------------------------------------- loss-curve probe


def test_steps_to_half_loss_windowed():
    assert steps_to_half_loss([]) is None
    assert steps_to_half_loss([10.0] * 20) is None
    # start mean over the 10-step window is 10; the first window averaging
    # <= 5 holds steps 6-15
    assert steps_to_half_loss([10.0] * 10 + [0.0] * 10) == 15
    # one low step does not pull a 10-step mean to half
    assert steps_to_half_loss([10.0] * 10 + [0.0] + [10.0] * 9) is None
    # a trace shorter than 10 steps is its own window: the start mean is 7,
    # and the windows before it grow from the first step, which alone is 1
    assert steps_to_half_loss([1.0, 10.0, 10.0]) == 1


# ----------------------------------------------------------- transcription


class _FixedTokenizer:
    def __init__(self, ids):
        self.ids = list(ids)

    def tokenize(self, frames):
        return list(self.ids)

    def tokenize_many(self, utterances):
        return [list(self.ids) for _ in utterances]


def test_transcribe_majority_votes_each_block():
    alignment = np.array([0, 1, 2, -1], dtype=np.int64)
    tok = _FixedTokenizer([0, 0, 1, 1, 1, 3, 3, 3, 3])
    # blocks: {0,0,1} -> 0, {1,1,unseen} -> 1, {unseen x3} -> dropped
    assert transcribe_frames(None, tok, alignment, frames_per_symbol=3) == [0, 1]


def test_transcribe_tie_votes_pick_lowest_symbol():
    alignment = np.array([0, 1, 2], dtype=np.int64)
    tok = _FixedTokenizer([2, 0, 1])
    assert transcribe_frames(None, tok, alignment, frames_per_symbol=3) == [0]


def test_transcribe_handles_partial_final_block():
    alignment = np.array([5, 6], dtype=np.int64)
    tok = _FixedTokenizer([0, 0, 0, 1])
    assert transcribe_frames(None, tok, alignment, frames_per_symbol=3) == [5, 6]


def test_transcribe_rejects_bad_block_size():
    with pytest.raises(ValueError):
        transcribe_frames(None, _FixedTokenizer([]), np.zeros(1, np.int64), 0)


# ------------------------------------------------------------ full chains


def test_evaluate_translation_rejects_empty_records():
    with pytest.raises(ValueError, match="at least one record"):
        evaluate_translation(model=None, tokenizer=None, vocoder=None,
                             alignment=None, records=[], frames_per_symbol=4)


@pytest.mark.parametrize("with_vocoder", [True, False])
def test_translate_records_matches_the_per_record_loop(with_vocoder):
    records = list(generate_toy_corpus(ToyCorpusConfig(pairs=9), 3))
    model = TranslationModel(ModelConfig(audio_vocab=8, d_model=8, blocks=1, heads=2,
                                         context=64, prompt_len=1, proj_hidden=8, enc_dim=8,
                                         enc_blocks=1, enc_heads=2, fixed_input_len=8), 0)
    vocoder = (TimbreVocoder(VocoderConfig(audio_vocab=8, token_dim=4, d_model=8, blocks=1,
                                           heads=2), 0) if with_vocoder else None)
    dcfg = DecodeConfig(max_steps=6)
    got = translate_records(model, vocoder, iter(records), dcfg)
    want = oracles.translate_records_alone(model, vocoder, records, dcfg)
    assert len(got) == len(want) == len(records)
    assert any(res.tokens for res, _, _ in got)
    for (res, prompt, gen), (w_res, w_prompt, w_gen) in zip(got, want):
        assert res == w_res
        if with_vocoder:
            assert prompt is w_prompt
            assert gen.frames.shape == w_gen.frames.shape
            assert gen.frames.tobytes() == w_gen.frames.tobytes()
        else:
            assert prompt is None and gen is None


def test_timbre_separation_rejects_empty_records():
    with pytest.raises(ValueError, match="at least one record"):
        timbre_separation(vocoder=None, tokenizer=None,
                          records=[], matched={}, mismatched={})


class _Rec:
    def __init__(self, rid, frames):
        self.id = rid
        self.tgt_frames = frames


class _EchoVocoder:
    """Synthesis that hands back the conditioning vector as a single frame."""

    def __init__(self, embedder):
        self.embedder = embedder

    def synthesize(self, tokens, spk):
        return SpeechFrames(frames=np.asarray(spk, dtype=np.float64)[None, :])


class _MeanEmbedder:
    def embed(self, frames):
        f = frames.frames if isinstance(frames, SpeechFrames) else np.asarray(frames)
        v = f.mean(axis=0)
        return v / np.linalg.norm(v)


def test_timbre_separation_counts_matched_wins(rng):
    # the echo vocoder reproduces the matched embedding exactly, so every
    # record should score a win against a distinct mismatched speaker
    recs, matched, mismatched = [], {}, {}
    for i in range(10):
        base = rng.standard_normal((4, 6)) + 3.0
        recs.append(_Rec(f"u{i}", SpeechFrames(frames=base)))
        matched[f"u{i}"] = _Rec(None, SpeechFrames(frames=base + 0.1))
        mismatched[f"u{i}"] = _Rec(None, SpeechFrames(
            frames=rng.standard_normal((4, 6)) - 3.0))
    frac = timbre_separation(
        vocoder=_EchoVocoder(_MeanEmbedder()),
        tokenizer=_FixedTokenizer([0, 1]), records=recs,
        matched=matched, mismatched=mismatched)
    assert frac == 1.0
