from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from minis2st import nn
from minis2st import tokenizer as tokenizer_module
from minis2st.corpus import SpeechFrames, generate_toy_corpus, ToyCorpusConfig
from minis2st.tensor import Tape, Tensor, backward, embedding_lookup, weighted_sum
from minis2st.tokenizer import (
    TOKENIZE_ROWS,
    Codebook,
    SpeechTokenizer,
    TextToTokenModel,
    TokenizerConfig,
    _alignment_counts,
    quantize,
    token_symbol_alignment,
)
from minis2st.vocoder import SpeakerEmbedder


def tiny_cfg(**kw):
    base = dict(feat_dim=4, text_vocab=5, dim=8, codebook_size=12,
                enc1_blocks=1, enc2_blocks=1, asr_blocks=1, heads=2)
    base.update(kw)
    return TokenizerConfig(**base)


def make_codebook(rng, size, dim):
    cb = Codebook(size, dim, np.random.default_rng(0))
    cb.entries.data[:] = rng.normal(size=(size, dim))
    return cb


def test_quantize_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    for _ in range(300):
        size = int(rng.integers(1, 65))
        dim = int(rng.integers(1, 9))
        rows = int(rng.integers(1, 10))
        cb = make_codebook(rng, size, dim)
        h = rng.normal(size=(rows, dim))
        got = quantize(h, cb)
        want = [oracles.nearest_code_bruteforce(h[i], cb.entries.data)
                for i in range(rows)]
        assert got == want


def test_quantize_breaks_ties_toward_lowest_index():
    rng = np.random.default_rng(0)
    cb = make_codebook(rng, 6, 3)
    cb.entries.data[4] = cb.entries.data[1]  # exact duplicate further down
    h = np.vstack([cb.entries.data[1], cb.entries.data[4]])
    assert quantize(h, cb) == [1, 1]
    # all-identical codebook: everything maps to index 0
    cb.entries.data[:] = 0.7
    assert quantize(rng.normal(size=(5, 3)), cb) == [0] * 5


def test_quantize_crosses_chunk_boundary():
    rng = np.random.default_rng(7)
    cb = make_codebook(rng, 10, 4)
    h = rng.normal(size=(130, 4))  # spans three 64-row chunks
    got = quantize(h, cb)
    want = [oracles.nearest_code_bruteforce(row, cb.entries.data) for row in h]
    assert got == want


def check_quantize(h, cb):
    """quantize against the exhaustive oracle; returns the tokens."""
    got = quantize(h, cb)
    assert type(got) is list and all(type(t) is int for t in got)
    assert got == [oracles.nearest_code_bruteforce(row, cb.entries.data) for row in h]
    return got


def test_quantize_exact_at_midpoints_and_ulp_neighbours():
    rng = np.random.default_rng(11)
    # integer codes: each midpoint of two codes is exact, a true tie
    cb = make_codebook(rng, 16, 3)
    cb.entries.data[:] = rng.integers(-3, 4, size=(16, 3))
    pairs = rng.integers(0, 16, size=(40, 2))
    mids = (cb.entries.data[pairs[:, 0]] + cb.entries.data[pairs[:, 1]]) / 2
    check_quantize(mids, cb)
    # normal codes: rounded midpoints sit within an ulp or so of a tie
    cb = make_codebook(rng, 32, 5)
    pairs = rng.integers(0, 32, size=(40, 2))
    check_quantize((cb.entries.data[pairs[:, 0]] + cb.entries.data[pairs[:, 1]]) / 2, cb)
    # codes one ulp apart, and rows on, between and around them
    e = cb.entries.data
    e[7] = np.nextafter(e[3], np.inf)
    e[2] = np.nextafter(e[3], -np.inf)
    rows = np.vstack([e[3], e[7], e[2], (e[3] + e[7]) / 2,
                      e[3] + 1e-12 * rng.normal(size=(6, 5))])
    check_quantize(rows, cb)


def test_quantize_exact_with_duplicate_codes():
    rng = np.random.default_rng(12)
    cb = make_codebook(rng, 24, 4)
    e = cb.entries.data
    e[[5, 9, 20]] = e[2]
    e[17] = e[11]
    rows = np.vstack([e[[2, 5, 9, 11, 17, 20]], e[2] + 0.01 * rng.normal(size=(8, 4)),
                      rng.normal(size=(10, 4))])
    got = check_quantize(rows, cb)
    assert got[:6] == [2, 2, 2, 11, 11, 2]


def test_quantize_exact_under_a_large_common_offset():
    # |h| about 1e8 with unit-scale differences: the expanded distances cancel
    # down to noise, so the shortlist must widen and the direct form decide
    rng = np.random.default_rng(13)
    cb = make_codebook(rng, 64, 8)
    cb.entries.data[:] = 1e8 / np.sqrt(8) + rng.normal(size=(64, 8))
    h = 1e8 / np.sqrt(8) + rng.normal(size=(50, 8))
    got = check_quantize(h, cb)
    e = cb.entries.data
    expanded = (h * h).sum(1)[:, None] - 2 * h @ e.T + (e * e).sum(1)
    assert got != np.argmin(expanded, axis=1).tolist()  # the case is adversarial


def test_quantize_non_finite_rows_and_overflow():
    rng = np.random.default_rng(14)
    cb = make_codebook(rng, 12, 3)
    nan, inf = np.nan, np.inf
    rows = np.array([[nan, nan, nan], [nan, 0.0, 1.0], [inf, 0.0, 0.0], [-inf, 1.0, 0.0],
                     [inf, -inf, 0.0], [0.1, 0.2, 0.3]])
    # all-NaN and all-inf distances go to index 0, as argmin has always given
    assert check_quantize(rows, cb)[:5] == [0] * 5
    # entries near 1e200: their squared distances overflow to inf, and so do
    # the expanded norms of every row that comes near them
    cb.entries.data[[4, 8]] = 1e200 * rng.normal(size=(2, 3))
    rows = np.vstack([rng.normal(size=(5, 3)), cb.entries.data[[8, 4]],
                      cb.entries.data[8] * (1 + 1e-15), [1e200, 0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        got = check_quantize(rows, cb)
    # the direct distances overflow, in quantize and in the brute-force oracle
    assert {Path(w.filename).name for w in caught} == {"tokenizer.py", "oracles.py"}
    assert got[5:7] == [8, 4] and 4 not in got[:5] and 8 not in got[:5]
    # finite norms, but 2 h.e overflows to -inf at a farther code
    cb = make_codebook(rng, 2, 2)
    cb.entries.data[:] = [[1.3e154, 0.0], [0.77e154, 0.0]]
    assert check_quantize(cb.entries.data[1:], cb) == [1]


def test_quantize_one_dimensional_codes():
    rng = np.random.default_rng(15)
    cb = make_codebook(rng, 9, 1)
    cb.entries.data[:, 0] = [0.0, 1.0, 1.0, -2.0, 5.0, 0.5, 3.0, 3.0, -0.5]
    rows = np.array([[0.25], [0.75], [2.0], [4.0], [-1.25], [1.0], [3.0], [1e6], [-1e-300]])
    assert check_quantize(rows, cb)[:7] == [0, 1, 1, 4, 3, 1, 6]
    check_quantize(rng.normal(scale=3.0, size=(30, 1)), cb)


def test_quantize_many_rows_on_a_paper_scale_codebook():
    # 4096 codes of width 64: `_direct_nearest` settles rows in chunks at this size
    rng = np.random.default_rng(16)
    cb = Codebook(4096, 64, rng)
    e = cb.entries.data
    e[4000] = e[17]
    pairs = rng.integers(0, 4096, size=(10, 2))
    rows = np.vstack([rng.normal(size=(60, 64)), e[[17, 4000]],
                      (e[pairs[:, 0]] + e[pairs[:, 1]]) / 2])
    assert rows.shape[0] > 64
    check_quantize(rows, cb)


def test_quantize_input_validation():
    cb = make_codebook(np.random.default_rng(0), 4, 3)
    with pytest.raises(ValueError):
        quantize(np.zeros(3), cb)
    with pytest.raises(ValueError):
        quantize(np.zeros((2, 5)), cb)


def test_straight_through_gradient_is_identity():
    # the quantization bypass h + const(q - h) must push dL/dh_bar straight
    # into h: gradients of sum(h_bar) w.r.t. an upstream scale of h are as if
    # quantization were not there at all
    rng = np.random.default_rng(3)
    cb = make_codebook(rng, 6, 4)
    base = rng.normal(size=(5, 4))
    scale = Tensor(np.ones(()), requires_grad=True)
    from minis2st.tensor import add, mul

    with Tape() as tape:
        h = mul(Tensor(base), scale)
        tokens = quantize(h, cb)
        q = embedding_lookup(cb.entries, tokens)
        h_bar = add(h, Tensor(q.data - h.data))
        loss = weighted_sum(h_bar, 1.0 / h_bar.data.size)
    backward(loss, tape)
    assert float(scale.grad) == pytest.approx(base.mean(), rel=1e-12)


def test_training_losses_parts_sum_and_shapes():
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=0)
    rng = np.random.default_rng(5)
    frames = SpeechFrames(rng.normal(size=(9, cfg.feat_dim)))
    text = [0, 3, 1]
    total, parts, tokens = tok.training_losses([frames], [text])
    assert set(parts) == {"loss_asr", "loss_codebook", "loss_commit"}
    assert float(total.data) == pytest.approx(
        parts["loss_asr"] + parts["loss_codebook"] + parts["loss_commit"], rel=1e-12
    )
    assert len(tokens) == 9  # one token per frame
    assert all(0 <= t < cfg.codebook_size for t in tokens)
    assert np.isfinite(float(total.data))


def test_commitment_term_scales_with_beta():
    rng = np.random.default_rng(6)
    frames = SpeechFrames(rng.normal(size=(6, 4)))
    l1 = SpeechTokenizer(tiny_cfg(commitment_beta=0.25), 0).training_losses([frames], [[1]])[1]
    l2 = SpeechTokenizer(tiny_cfg(commitment_beta=0.5), 0).training_losses([frames], [[1]])[1]
    assert l2["loss_commit"] == pytest.approx(2.0 * l1["loss_commit"], rel=1e-12)
    assert l2["loss_codebook"] == pytest.approx(l1["loss_codebook"], rel=1e-12)


def test_tokenize_is_deterministic():
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=2)
    frames = SpeechFrames(np.random.default_rng(0).normal(size=(7, cfg.feat_dim)))
    assert tok.tokenize(frames) == tok.tokenize(frames)


def _recording_stage1(tok, monkeypatch) -> list:
    """Patch tok's stage-1 encoder to record the shape of each pass it runs."""
    shapes = []
    encode = tok.encoder.encode_stage1

    def record(f, mask):
        shapes.append(f.shape)
        return encode(f, mask)

    monkeypatch.setattr(tok.encoder, "encode_stage1", record)
    return shapes


def test_tokenize_many_equals_tokenizing_alone_in_input_order(monkeypatch):
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=3)
    rng = np.random.default_rng(11)
    rows = TOKENIZE_ROWS
    # 5 frames: a group past the row cap, so it splits over two passes; 9
    # frames: a small group; 13 frames: a lone length; rows + 1 frames: one
    # utterance longer than a pass, which runs alone
    lengths = [5] * (rows // 5 + 7) + [9] * 4 + [13] + [rows + 1]
    rng.shuffle(lengths)
    utts = [SpeechFrames(rng.normal(size=(n, cfg.feat_dim))) for n in lengths]
    shapes = _recording_stage1(tok, monkeypatch)
    got = tok.tokenize_many(utts)
    passes = sorted(shapes)
    assert got == [oracles.tokenize_alone(tok, u) for u in utts]
    assert [len(t) for t in got] == lengths
    assert passes == sorted([(rows // 5, 5, cfg.feat_dim), (7, 5, cfg.feat_dim),
                             (4, 9, cfg.feat_dim), (1, 13, cfg.feat_dim),
                             (1, rows + 1, cfg.feat_dim)])
    assert tok.tokenize_many([]) == []


def test_tokenize_many_checks_every_utterance_before_any_pass(monkeypatch):
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=3)
    good = SpeechFrames(np.ones((6, cfg.feat_dim)))
    shapes = _recording_stage1(tok, monkeypatch)
    for bad in (np.zeros((0, cfg.feat_dim)), np.zeros((6, cfg.feat_dim + 1))):
        with pytest.raises(ValueError) as alone:
            tok.tokenize(bad)
        with pytest.raises(ValueError) as among:
            tok.tokenize_many([good, good, bad, good])
        assert str(among.value) == str(alone.value)
    assert shapes == []


def _ragged_batch(cfg, rng):
    """Three utterances of 5, 9 and 12 frames and 1, 3 and 4 symbols, so
    two of them are padded on both the frame and the text side."""
    frames = [SpeechFrames(rng.normal(size=(n, cfg.feat_dim))) for n in (5, 9, 12)]
    return frames, [[1], [0, 2, 3], [2, 1, 4, 0]]


def test_training_loss_gradcheck_downstream_of_quantizer():
    # stage-1 weights are reached only through the straight-through bypass,
    # whose gradient is a deliberately biased estimator (the true local
    # derivative through a frozen token assignment is zero), so finite
    # differences can only validate what comes after it.  The bypass also
    # passes a used code's value to stage 2 without a gradient, so a used
    # codebook row is checked against the codebook loss's own gradient,
    # 2 (e_k - h_r) / (B T_b d) summed over the real rows r coded k.  On a
    # padded batch, pad rows reach neither the loss nor any gradient.
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=4)
    rng = np.random.default_rng(8)
    frames, texts = _ragged_batch(cfg, rng)

    def build():
        total, _, _ = tok.training_losses(frames, texts)
        return total

    downstream = ("encoder.enc2", "encoder.ln_out", "asr.")
    params = [t for name, t in sorted(tok.trainable().items()) if name.startswith(downstream)]
    for _ in range(5):
        picks = [params[i] for i in rng.choice(len(params), size=3, replace=False)]
        err = oracles.fd_gradcheck(build, picks, rng, probes=1)
        assert err < oracles.FD_RTOL, f"worst fd error {err:.3e}"

    _, grads = oracles.loss_and_grads(tok, build)
    e = tok.codebook.entries.data
    want = np.zeros_like(e)
    for fr in frames:
        h = tok.encoder.encode_stage1(fr.frames, None).data
        for row in h:
            k = np.argmin(((row - e) ** 2).sum(axis=1))
            want[k] += 2.0 * (e[k] - row) / (len(frames) * len(h) * cfg.dim)
    assert np.abs(want).max() > 0
    np.testing.assert_allclose(grads["codebook.entries"], want, rtol=0,
                               atol=1e-10 * np.abs(want).max())


def test_batched_loss_is_the_mean_of_batch_of_one_losses():
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=5)
    frames, texts = _ragged_batch(cfg, np.random.default_rng(9))
    _, parts, tokens = tok.training_losses(frames, texts)
    singles = [tok.training_losses([f], [t]) for f, t in zip(frames, texts)]
    # every real frame is quantized, utterance by utterance, to the codes it
    # gets alone
    assert tokens == [code for _, _, codes in singles for code in codes]
    for name, value in parts.items():
        assert value == pytest.approx(np.mean([p[name] for _, p, _ in singles]), rel=1e-12)
    oracles.assert_batch_is_mean_of_singles(
        tok, lambda: tok.training_losses(frames, texts)[0],
        [lambda f=f, t=t: tok.training_losses([f], [t])[0] for f, t in zip(frames, texts)])


def test_padding_is_inert(monkeypatch):
    # whatever the pad frames and pad text ids hold, the loss, the codes and
    # every gradient stay bit for bit: the key mask hides pad frames from
    # both encoders and from cross-attention, the causal mask hides pad ids,
    # and only real rows are quantized or scored
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=6)
    rng = np.random.default_rng(10)
    frames, texts = _ragged_batch(cfg, rng)
    _, _, base_tokens = tok.training_losses(frames, texts)
    base, base_grads = oracles.loss_and_grads(
        tok, lambda: tok.training_losses(frames, texts)[0])
    monkeypatch.setattr(nn, "right_pad", oracles.noisy_right_pad(nn.right_pad, rng))
    for _ in range(3):
        assert tok.training_losses(frames, texts)[2] == base_tokens
        got, grads = oracles.loss_and_grads(tok, lambda: tok.training_losses(frames, texts)[0])
        assert got == base
        for name, g in grads.items():
            np.testing.assert_array_equal(g, base_grads[name], err_msg=name)


def test_straight_through_carries_asr_gradient_to_stage1():
    # the biased path must still deliver a nonzero training signal upstream
    cfg = tiny_cfg()
    tok = SpeechTokenizer(cfg, seed=4)
    frames = SpeechFrames(np.random.default_rng(8).normal(size=(5, cfg.feat_dim)))
    from minis2st.tensor import zero_grad

    params = tok.trainable()
    zero_grad(params.values())
    with Tape() as tape:
        total, _, _ = tok.training_losses([frames], [[2, 0]])
    backward(total, tape)
    w = params["encoder.in_proj.w"]
    assert w.grad is not None and np.abs(w.grad).max() > 0.0


def test_alignment_table_majority_votes():
    # constructed case: symbol s renders as a constant frame block, so after a
    # perfect tokenizer every token is symbol-pure; with the raw untrained
    # encoder we can still verify table mechanics on the count level
    cfg = ToyCorpusConfig(src_vocab=3, tgt_vocab=3, len_min=2, len_max=3, pairs=10,
                          speakers=1, feat_dim=4, frames_per_symbol=2, noise_std=0.0,
                          speaker_offset_std=0.0)
    m = generate_toy_corpus(cfg, 0)
    tok = SpeechTokenizer(tiny_cfg(codebook_size=8), seed=0)
    table = token_symbol_alignment(tok, m, cfg.frames_per_symbol, cfg.tgt_vocab)
    assert table.shape == (8,)
    assert table.min() >= -1 and table.max() < cfg.tgt_vocab
    seen = set()
    for r in m:
        seen.update(tok.tokenize(r.tgt_frames))
    for t in range(8):
        assert (table[t] >= 0) == (t in seen)
    hits, votes = 0, {}
    for r in m:  # by hand: frame i carries symbol text[i // frames_per_symbol]
        for i, t in enumerate(tok.tokenize(r.tgt_frames)):
            sym = r.tgt_text[i // cfg.frames_per_symbol]
            hits += int(table[t] == sym)
            votes.setdefault(t, Counter())[sym] += 1
    # each token maps to a symbol it carries most often, so the frames whose
    # token maps back to their own symbol are every token's largest count
    assert hits == sum(max(c.values()) for c in votes.values())


def test_alignment_counts_match_the_hand_loop_with_duplicate_codes():
    cfg = ToyCorpusConfig(src_vocab=3, tgt_vocab=4, len_min=2, len_max=4, pairs=12,
                          speakers=2, feat_dim=4, frames_per_symbol=3)
    m = generate_toy_corpus(cfg, 1)
    tok = SpeechTokenizer(tiny_cfg(codebook_size=10), seed=2)
    used = sorted({t for r in m for t in tok.tokenize(r.tgt_frames)})
    e = tok.codebook.entries.data
    e[9] = e[used[-1]]  # a duplicate after the code loses every tie to it
    e[0] = e[used[-1]]  # one before takes its frames over
    fps = cfg.frames_per_symbol
    want = np.zeros((10, cfg.tgt_vocab), dtype=np.int64)
    for r in m:
        for i, t in enumerate(tok.tokenize(r.tgt_frames)):
            want[t, r.tgt_text[min(i // fps, len(r.tgt_text) - 1)]] += 1
    got = _alignment_counts(tok, m, fps, cfg.tgt_vocab)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert want[9].sum() == 0 and want[0].sum() > 0


def test_alignment_on_the_toy_corpus_equals_tokenizing_alone():
    cfg = ToyCorpusConfig(pairs=60)
    m = generate_toy_corpus(cfg, 4)
    tok = SpeechTokenizer(tiny_cfg(feat_dim=cfg.feat_dim, codebook_size=24), seed=1)
    want = oracles.alignment_counts_alone(tok, m, cfg.frames_per_symbol, cfg.tgt_vocab)
    got = _alignment_counts(tok, m, cfg.frames_per_symbol, cfg.tgt_vocab)
    assert np.array_equal(got, want)
    used = want.sum(axis=1) > 0
    table = token_symbol_alignment(tok, m, cfg.frames_per_symbol, cfg.tgt_vocab)
    assert np.array_equal(table, np.where(used, want.argmax(axis=1), -1))


def test_alignment_skips_records_without_text_and_rejects_foreign_symbols():
    cfg = ToyCorpusConfig(src_vocab=3, tgt_vocab=4, len_min=2, len_max=3, pairs=6,
                          speakers=2, feat_dim=4, frames_per_symbol=2)
    m = generate_toy_corpus(cfg, 0)
    tok = SpeechTokenizer(tiny_cfg(codebook_size=10), seed=0)
    records = list(m)
    silent = m.subset(records[:3] + [replace(r, tgt_text=[]) for r in records[3:]])
    assert np.array_equal(_alignment_counts(tok, silent, 2, 4),
                          _alignment_counts(tok, m.subset(records[:3]), 2, 4))
    assert _alignment_counts(tok, m.subset([replace(records[0], tgt_text=[])]), 2, 4).sum() == 0
    for text in ([1, 4], [-1, 2]):
        bad = m.subset(records[:2] + [replace(records[2], tgt_text=text)])
        with pytest.raises(ValueError, match=rf"{records[2].id}.*outside \[0, 4\)"):
            _alignment_counts(tok, bad, 2, 4)


def test_text_to_token_loss_and_generation():
    cfg = tiny_cfg()
    t2t = TextToTokenModel(cfg.text_vocab, cfg.codebook_size, spk_dim=3, seed=0,
                           embedder=SpeakerEmbedder(cfg.feat_dim, spk_dim=3))
    rng = np.random.default_rng(9)
    spk = rng.normal(size=3)
    spk = spk / np.linalg.norm(spk)
    loss = t2t.loss([[0, 2, 1]], [[3, 3, 7, 1]], spk[None])
    assert np.isfinite(float(loss.data))
    res = t2t.generate([0, 2, 1], spk, max_len=6)
    assert len(res.tokens) <= 6
    assert all(0 <= t < cfg.codebook_size for t in res.tokens)
    again = t2t.generate([0, 2, 1], spk, max_len=6)
    assert res.tokens == again.tokens and res.truncated == again.truncated
    with pytest.raises(ValueError, match="spk_dim 3 != embedder spk_dim 16"):
        TextToTokenModel(cfg.text_vocab, cfg.codebook_size, spk_dim=3,
                         embedder=SpeakerEmbedder(cfg.feat_dim))


@pytest.mark.parametrize("max_len", [0, -3])
def test_text_to_token_generation_rejects_fewer_than_one_token(max_len):
    cfg = tiny_cfg()
    t2t = TextToTokenModel(cfg.text_vocab, cfg.codebook_size, spk_dim=3, seed=0,
                           embedder=SpeakerEmbedder(cfg.feat_dim, spk_dim=3))
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        t2t.generate([0, 2, 1], np.ones(3) / np.sqrt(3), max_len=max_len)


# generation stops when it holds max_len tokens, which a fraction never reaches
@pytest.mark.parametrize("max_len", [2.5, "4"])
def test_text_to_token_generation_rejects_a_max_len_that_is_not_an_integer(max_len):
    cfg = tiny_cfg()
    t2t = TextToTokenModel(cfg.text_vocab, cfg.codebook_size, spk_dim=3, seed=0,
                           embedder=SpeakerEmbedder(cfg.feat_dim, spk_dim=3))
    spk = np.ones(3) / np.sqrt(3)
    with pytest.raises(ValueError, match="max_len must be an integer"):
        t2t.generate([0, 2, 1], spk, max_len=max_len)
    assert t2t.generate([0, 2, 1], spk, max_len=np.int64(4)) == t2t.generate([0, 2, 1], spk, 4)


def _text_to_token_batch(rng):
    t2t = TextToTokenModel(5, 12, spk_dim=3, seed=2, embedder=SpeakerEmbedder(4, spk_dim=3))
    texts = [[1], [0, 2, 3], [2, 1, 4, 0]]
    tokens = [[3, 11, 0, 7, 7, 1], [5], [0, 2, 9]]
    spks = rng.normal(size=(3, 3))
    return t2t, texts, tokens, spks / np.linalg.norm(spks, axis=1, keepdims=True)


def test_text_to_token_batched_loss_is_the_mean_of_batch_of_one_losses():
    t2t, texts, tokens, spks = _text_to_token_batch(np.random.default_rng(13))
    oracles.assert_batch_is_mean_of_singles(
        t2t, lambda: t2t.loss(texts, tokens, spks),
        [lambda i=i: t2t.loss(texts[i:i + 1], tokens[i:i + 1], spks[i:i + 1])
         for i in range(len(texts))])


def test_text_to_token_padding_is_inert(monkeypatch):
    # right padding under the causal mask: no real row sees a pad id
    rng = np.random.default_rng(14)
    t2t, texts, tokens, spks = _text_to_token_batch(rng)
    base, base_grads = oracles.loss_and_grads(t2t, lambda: t2t.loss(texts, tokens, spks))
    monkeypatch.setattr(nn, "right_pad", oracles.noisy_right_pad(nn.right_pad, rng))
    for _ in range(3):
        got, grads = oracles.loss_and_grads(t2t, lambda: t2t.loss(texts, tokens, spks))
        assert got == base
        for name, g in grads.items():
            np.testing.assert_array_equal(g, base_grads[name], err_msg=name)


def test_cached_generation_matches_the_recompute_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    for trial in range(200):
        spk_dim = 3
        t2t = TextToTokenModel(5, 12, spk_dim=spk_dim, seed=trial,
                               embedder=SpeakerEmbedder(4, spk_dim=spk_dim))
        text = rng.integers(0, 5, size=int(rng.integers(1, 6))).tolist()
        spk = rng.normal(size=spk_dim)
        seen = oracles.record_head_products(monkeypatch, tokenizer_module, {"head": t2t.head})
        max_len = int(rng.integers(1, 16))
        got = t2t.generate(text, spk, max_len=max_len)
        cached = [out[-1] for _, out in seen]
        seen.clear()
        want = oracles.generate_recompute(t2t, text, spk, max_len)
        last_rows = [out[-1] for _, out in seen]
        assert (got.tokens, got.truncated) == (want.tokens, want.truncated), trial
        assert len(cached) == len(last_rows) > 0
        np.testing.assert_allclose(cached, last_rows, rtol=0, atol=1e-9)


def test_tokenizer_same_seed_same_weights():
    a = SpeechTokenizer(tiny_cfg(), seed=5)
    b = SpeechTokenizer(tiny_cfg(), seed=5)
    c = SpeechTokenizer(tiny_cfg(), seed=6)
    for (na, ta), (nb, tb) in zip(sorted(a.named_tensors()), sorted(b.named_tensors())):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(sorted(a.named_tensors()), sorted(c.named_tensors()))
    )
