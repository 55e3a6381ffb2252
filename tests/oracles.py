"""Independent reference implementations the test suite checks against.

Everything here is deliberately written from the documented definitions, not
by calling back into the package, so a bug in the library cannot hide in its
own test oracle.  Finite-difference gradient checking lives here too.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from minis2st.model import ModelConfig
from minis2st.tensor import (Tape, Tensor, affine, backward, mul, no_grad, squared_error,
                             weighted_sum, zero_grad)
from minis2st.tokenizer import quantize

# ------------------------------------------------------- finite differences

FD_H = 1e-5
FD_RTOL = 1e-4
# relative error denominator floor: below this magnitude the check is
# effectively absolute at FD_RTOL * FD_FLOOR, which still catches sign and
# scale bugs while staying above central-difference noise (~1e-10)
FD_FLOOR = 1e-3


def fd_gradcheck(build_loss, tensors, rng, probes: int = 2,
                 h: float = FD_H, floor: float = FD_FLOOR) -> float:
    """Max relative error between tape gradients and central differences.

    build_loss must rebuild the graph from scratch on every call (the probed
    tensors are mutated in place between calls).
    """
    tensors = [t for t in tensors if t.requires_grad]
    zero_grad(tensors)
    with Tape() as tape:
        loss = build_loss()
    backward(loss, tape)
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        grad = np.zeros(flat.size) if t.grad is None else t.grad.reshape(-1)
        k = min(probes, flat.size)
        for idx in rng.choice(flat.size, size=k, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            with no_grad():
                fp = float(build_loss().data)
            flat[idx] = orig - h
            with no_grad():
                fm = float(build_loss().data)
            flat[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            err = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), floor)
            worst = max(worst, err)
    return worst


def loss_and_grads(module, build):
    """build()'s loss value and the gradient of every trainable tensor of
    `module` (zeros where none reached it)."""
    params = module.trainable()
    zero_grad(params.values())
    with Tape() as tape:
        loss = build()
    backward(loss, tape)
    return float(loss.data), {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                              for k, p in params.items()}


def assert_batch_is_mean_of_singles(module, batch_build, single_builds):
    """The batched loss equals the mean of the batch-of-one losses within
    1e-12 relative, and each gradient is within 1e-10 of the largest entry
    of the mean of theirs."""
    got, got_grads = loss_and_grads(module, batch_build)
    singles = [loss_and_grads(module, build) for build in single_builds]
    want = float(np.mean([value for value, _ in singles]))
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    for name, g in got_grads.items():
        ref = np.mean([grads[name] for _, grads in singles], axis=0)
        assert np.abs(g - ref).max() <= 1e-10 * np.abs(ref).max(), name


def noisy_right_pad(right_pad, rng):
    """`right_pad` with random pad rows instead of its fill: normal values
    for floats, and ids drawn from the real ones of the batch for ints."""
    def pad(seqs, fill):
        out, lengths = right_pad(seqs, fill)
        real = np.arange(out.shape[1]) < lengths[:, None]
        if out.dtype.kind == "f":
            noise = rng.normal(size=out.shape)
        else:
            noise = rng.choice(out[real].reshape(-1), size=out.shape)
        out[~real] = noise[~real]
        return out, lengths
    return pad


def _away_from_kink(x: np.ndarray, margin: float = 0.05) -> np.ndarray:
    """Push values near 0 outside [-margin, margin] so relu stays smooth
    across the finite-difference stencil."""
    near = np.abs(x) < margin
    x = x.copy()
    x[near] = np.sign(x[near] + 1e-12) * (margin + np.abs(x[near]))
    return x


def run_op_gradient_trials(trials: int, seed: int = 0):
    """Finite-difference every differentiable tensor op. Returns a list of
    (op name, worst relative error) pairs, one per op."""
    from minis2st.nn import causal_mask, padding_mask
    from minis2st.tensor import (add, attention, concat, embedding_lookup, layernorm,
                                 linear, relu, reshape, softmax_cross_entropy)
    from minis2st.tensor import mul as t_mul

    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)

    results = []

    def run(name, make_case):
        worst = 0.0
        for _ in range(trials):
            build, tensors = make_case()
            worst = max(worst, fd_gradcheck(build, tensors, rng))
        results.append((name, worst))

    def case_binary(op, broadcast=False):
        def make():
            if broadcast:
                a, b = t(4, 5), t(5)
            else:
                a, b = t(4, 5), t(4, 5)
            w = rng.normal(size=(4, 5))
            return (lambda: weighted_sum(op(a, b), w)), [a, b]
        return make

    run("add", case_binary(add))
    run("add_broadcast", case_binary(add, broadcast=True))
    run("mul", case_binary(t_mul))
    run("mul_broadcast", case_binary(t_mul, broadcast=True))

    def case_mul_scalar():
        a = t(3, 4)
        s = float(rng.normal())
        return (lambda: weighted_sum(t_mul(a, s), 1.0)), [a]
    run("mul_scalar", case_mul_scalar)

    def case_linear():
        a, w, b = t(3, 4), t(4, 2), t(2)
        c = rng.normal(size=(3, 2))
        return (lambda: weighted_sum(linear(a, w, b), c)), [a, w, b]
    run("linear", case_linear)

    def case_linear_batched():
        a, w, b = t(2, 3, 4), t(4, 2), t(2)
        c = rng.normal(size=(2, 3, 2))
        return (lambda: weighted_sum(linear(a, w, b), c)), [a, w, b]
    run("linear_batched", case_linear_batched)

    def case_attention(t_len, s_len, masked, lead=()):
        def make():
            d, heads = 6, 2
            x = t(*lead, t_len, d)
            src = x if s_len is None else t(*lead, s_len, d)
            proj = [(Tensor(rng.normal(0.0, 0.5, size=(d, d)), requires_grad=True), t(d))
                    for _ in range(4)]
            if masked == "keys":  # utterance b sees its first S - b keys
                mask = padding_mask(src.shape[-2] - np.arange(lead[0]))
            else:
                mask = causal_mask(t_len, 0) if masked else None
            c = rng.normal(size=(*lead, t_len, d))
            tensors = [x] + ([] if s_len is None else [src]) + [p for wb in proj for p in wb]
            return (lambda: weighted_sum(attention(x, src, proj, heads, mask), c)), tensors
        return make
    run("attention_self_masked", case_attention(5, None, masked=True))
    run("attention_cross", case_attention(3, 5, masked=False))
    run("attention_batched_self_masked", case_attention(4, None, masked=True, lead=(3,)))
    run("attention_batched_cross", case_attention(3, 4, masked=False, lead=(2,)))
    run("attention_batched_key_masked", case_attention(4, None, masked="keys", lead=(3,)))
    run("attention_batched_cross_key_masked", case_attention(3, 4, masked="keys", lead=(3,)))

    def case_relu():
        a = Tensor(_away_from_kink(rng.normal(size=(4, 5))), requires_grad=True)
        w = rng.normal(size=(4, 5))
        return (lambda: weighted_sum(relu(a), w)), [a]
    run("relu", case_relu)

    def case_reshape():
        a = t(3, 4)
        w = rng.normal(size=(2, 6))
        return (lambda: weighted_sum(reshape(a, (2, 6)), w)), [a]
    run("reshape", case_reshape)

    def case_concat():
        axis = int(rng.integers(0, 2))
        a, b = t(3, 4), (t(2, 4) if axis == 0 else t(3, 2))
        out_shape = (5, 4) if axis == 0 else (3, 6)
        w = rng.normal(size=out_shape)
        return (lambda: weighted_sum(concat([a, b], axis=axis), w)), [a, b]
    run("concat", case_concat)

    def case_embedding():
        table = t(6, 4)
        idx = rng.integers(0, 6, size=5)  # repeats exercise accumulation
        w = rng.normal(size=(5, 4))
        return (lambda: weighted_sum(embedding_lookup(table, idx), w)), [table]
    run("embedding_lookup", case_embedding)

    def case_weighted_sum():
        a = t(3, 4, 5)
        w = rng.normal(size=(3, 4, 1)) * (rng.random(size=(3, 4, 1)) < 0.7)
        return (lambda: weighted_sum(t_mul(a, a), w)), [a]
    run("weighted_sum", case_weighted_sum)

    def case_layernorm():
        a, gain, bias = t(4, 6), t(6), t(6)
        w = rng.normal(size=(4, 6))
        return (lambda: weighted_sum(layernorm(a, gain, bias), w)), [a, gain, bias]
    run("layernorm", case_layernorm)

    def case_ce():
        logits = t(3, 4, 2, 7)
        targets, keep = ragged_targets(rng, logits.shape)
        return (lambda: softmax_cross_entropy(logits, targets, keep)), [logits]
    run("softmax_cross_entropy", case_ce)

    def case_squared_error():
        a = t(3, 4, 5)
        target = rng.normal(size=(3, 4, 5))
        w = rng.uniform(0.1, 1.0, size=(3, 4, 1)) * (rng.random(size=(3, 4, 1)) < 0.7)
        return (lambda: squared_error(a, target, w)), [a]
    run("squared_error", case_squared_error)

    return results


def ragged_targets(rng, shape):
    """Targets and a keep mask for (B, ..., V) logits: ids in [0, V), and
    each utterance keeping its first 1 to all of its positions, row-major."""
    b, v = shape[0], shape[-1]
    n = math.prod(shape[1:-1])
    targets = rng.integers(0, v, size=shape[:-1])
    kept = rng.integers(1, n + 1, size=b)
    keep = (np.arange(n) < kept[:, None]).reshape(shape[:-1])
    return targets, keep


def cross_entropy_gather_reference(logits, targets, keep):
    """Value and logits gradient of the cross-entropy as the loss sites once
    built it, on arrays: the kept rows of (B, ..., V) logits gathered in
    row-major order into (N, V), each weighing 1 / (B * kept rows of its
    utterance), their weighted softmax cross-entropy summed, and the rows'
    gradient scatter-added back into zeros."""
    b, v = logits.shape[0], logits.shape[-1]
    keep = keep.reshape(b, -1)
    counts = keep.sum(axis=1)
    rows = np.flatnonzero(keep)
    weights = np.repeat(1.0 / (b * counts), counts)
    x = logits.reshape(-1, v)[rows]
    t = targets.reshape(-1)[rows]
    n = len(rows)
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    value = -((z[np.arange(n), t] - lse[:, 0]) @ weights)
    p = np.exp(z - lse)
    p[np.arange(n), t] -= 1.0
    grad = np.zeros((logits.size // v, v))
    np.add.at(grad, rows, p * weights[:, None])
    return value, grad.reshape(logits.shape)


def squared_error_reference(x, target, weights):
    """Value and gradient of sum(w * (x - target)**2) on arrays, as the
    subtract, square and weighted-sum chain computed it."""
    d = x - target
    return (d * d * weights).sum(), 2.0 * (np.broadcast_to(weights, d.shape) * d)


def attention_reference(x, src, proj, heads, mask=None):
    """Multi-head attention from its definition, one head and one query row
    at a time: softmax(q k^T / sqrt(d_h) + mask) v per head, heads side by
    side, then the output projection.  Arrays in, array out."""
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = proj
    d = x.shape[1]
    dh = d // heads
    q, k, v = x @ wq + bq, src @ wk + bk, src @ wv + bv
    ctx = np.zeros((x.shape[0], d))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(x.shape[0]):
            scores = np.array([np.dot(q[i, cols], k[j, cols]) / math.sqrt(dh)
                               for j in range(src.shape[0])])
            if mask is not None:
                scores = scores + mask[i]
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            ctx[i, cols] = sum(w * v[j, cols] for j, w in enumerate(weights))
    return ctx @ wo + bo


def _tiny_model_cfg(projector: str) -> ModelConfig:
    return ModelConfig(feat_dim=4, text_vocab=5, audio_vocab=7, d_model=12,
                       blocks=1, heads=2, context=64, group_size=3, prompt_len=2,
                       projector=projector, group_frames=2, proj_hidden=10,
                       qformer_queries=3, qformer_dim=12, qformer_blocks=1,
                       enc_dim=6, enc_blocks=1, enc_heads=2, fixed_input_len=8)


def run_module_gradient_trials(trials: int, seed: int = 0):
    """Finite-difference whole modules end to end: each projector variant, the
    teacher-forced decoder with its joint loss, and the vocoder regression."""
    from minis2st.model import DecoderLM, compute_loss, make_projector
    from minis2st.vocoder import TimbreVocoder, VocoderConfig

    rng = np.random.default_rng(seed)
    results = []

    def probe_some(build, params, n=2):
        picks = [params[i] for i in rng.choice(len(params), size=min(n, len(params)),
                                               replace=False)]
        return fd_gradcheck(build, picks, rng, probes=1)

    variants = ["linear", "conv1d", "qformer"]
    worst = 0.0
    for i in range(trials):
        kind = variants[i % len(variants)]
        cfg = _tiny_model_cfg(kind)
        proj = make_projector(cfg, seed=int(rng.integers(1 << 30)))
        a_f = Tensor(rng.normal(size=(6, cfg.enc_dim)), requires_grad=True)

        def build():
            p = proj.project(a_f)
            return weighted_sum(mul(p, p), 1.0)

        worst = max(worst, probe_some(build, [a_f] + list(proj.trainable().values())))
    results.append(("projectors", worst))

    worst = 0.0
    for i in range(trials):
        cfg = _tiny_model_cfg("linear")
        dec = DecoderLM(cfg, seed=int(rng.integers(1 << 30)))
        v = dec.vocab
        a_p = Tensor(rng.normal(0.0, 0.3, size=(1, 3, cfg.d_model)), requires_grad=True)
        n_text = int(rng.integers(1, 4))
        n_audio = int(rng.integers(1, 6))
        text = rng.integers(0, v.text_size, size=n_text)
        tokens = rng.integers(0, v.audio_size, size=n_audio)
        tt, at = dec.batch_targets([text], [tokens])

        def build():
            al, tl = dec.forward_teacher_forced(a_p, tt, at)
            total, _, _ = compute_loss(al, tl, at, tt, v,
                                       lambda_audio=1.0, lambda_text=1.0)
            return total

        worst = max(worst, probe_some(build, [a_p] + list(dec.trainable().values())))
    results.append(("decoder", worst))

    worst = 0.0
    for i in range(trials):
        cfg = VocoderConfig(feat_dim=4, audio_vocab=6, token_dim=5, d_model=8,
                            blocks=1, heads=2, spk_dim=3)
        voc = TimbreVocoder(cfg, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 6))
        tokens = [int(x) for x in rng.integers(0, cfg.audio_vocab, size=n)]
        spk = rng.normal(size=cfg.spk_dim)
        spk = spk / np.linalg.norm(spk)
        target = rng.normal(size=(n, cfg.feat_dim))

        def build():
            return squared_error(voc.forward_frames(tokens, spk, None), target, 1.0)

        worst = max(worst, probe_some(build, list(voc.trainable().values())))
    results.append(("vocoder", worst))

    return results


# ------------------------------------------------------ recompute decoders
# Greedy decoding as it ran before the library kept a KV cache: every step
# runs the whole input so far through the blocks and reads the last position.
# They reuse the model's layers and its input-row functions, since what they
# check is the cache, not the layers.


def record_head_products(monkeypatch, module, heads: dict) -> list:
    """Make every product by the weights of one of `heads` (name -> Linear)
    append (name, a copy of its output) to the returned list: the `linear`
    calls the recompute decoders make and the `affine` calls by which
    `module` decodes on arrays, both of which run `tensor.affine`.  Each
    call replaces the recorder of the one before."""
    from minis2st import tensor

    names = {id(lin.w.data): name for name, lin in heads.items()}
    seen = []

    def recording(x, w, b):
        out = affine(x, w, b)
        if id(w) in names:
            seen.append((names[id(w)], out.copy()))
        return out

    monkeypatch.setattr(tensor, "affine", recording)
    monkeypatch.setattr(module, "affine", recording)
    return seen


def repetition_penalty_loop(logits, emitted, rho):
    """`model.apply_repetition_penalty` one emitted id at a time, as it was
    written before it indexed them all at once."""
    out = logits.copy()
    for i in set(emitted):
        out[i] = out[i] / rho if out[i] > 0 else out[i] * rho
    return out


def decode_greedy_recompute(dec, a_p, cfg):
    """`DecoderLM.decode_greedy` with every step a full causal pass over the
    soft prompt, source, BOS and all fed-back step rows."""
    from minis2st.model import DecodeResult
    from minis2st.nn import run_blocks
    from minis2st.tensor import concat, embedding_lookup, reshape

    v = dec.vocab
    g = dec.cfg.group_size
    text_ban = np.zeros(v.text_head_size)
    text_ban[v.text_size:] = -1e30  # controls, except EOS
    text_ban[v.text_eos_local] = 0.0
    audio_ban = np.zeros(v.audio_head_size)
    audio_ban[v.audio_pad_local] = -1e30
    text_local = np.full(cfg.max_steps, v.text_pad_local)
    audio_local = np.full((cfg.max_steps, g), v.audio_pad_local)
    text, tokens = [], []
    text_done = audio_done = False
    steps = token_steps = 0
    with no_grad():
        while steps < cfg.max_steps and not (text_done and audio_done):
            parts = dec._prefix(a_p)
            if steps:
                parts.append(dec._step_rows(text_local[:steps], audio_local[:steps]))
            x = dec.ln_f(run_blocks(dec.blocks, concat(parts, axis=0), causal=True))
            last = embedding_lookup(x, [x.shape[0] - 1])
            if not text_done:
                logits = repetition_penalty_loop(dec.text_head(last).data[0] + text_ban, text,
                                                 cfg.repetition_penalty)
                pick = int(np.argmax(logits))
                text_local[steps] = pick
                if pick == v.text_eos_local:
                    text_done = True
                else:
                    text.append(pick)
            if not audio_done:
                logits = reshape(dec.audio_head(last), (g, v.audio_head_size)).data + audio_ban
                for j, pick in enumerate(int(p) for p in np.argmax(logits, axis=1)):
                    audio_local[steps, j] = pick
                    if pick == v.audio_eos_local:
                        audio_done = True
                        break
                    tokens.append(pick)
                    token_steps += int(j == 0)
            steps += 1
    return DecodeResult(tokens=tokens, text=text, steps=steps, token_steps=token_steps,
                        truncated_text=not text_done, truncated_audio=not audio_done)


def generate_recompute(t2t, text, spk_emb, max_len):
    """`TextToTokenModel.generate` with every step a full forward pass over
    the speaker slot, BOS, the text and the tokens so far."""
    from minis2st.tokenizer import TokenGenResult

    banned = np.zeros(t2t.text_vocab + t2t.codebook_size + 2)
    banned[: t2t.text_vocab] = -1e30
    banned[t2t.bos] = -1e30
    out = []
    with no_grad():
        for _ in range(max_len):
            ids = [t2t.bos] + list(text) + [t + t2t.text_vocab for t in out]
            nxt = int(np.argmax(t2t._forward(ids, spk_emb).data[-1] + banned))
            if nxt == t2t.eos:
                return TokenGenResult(out, truncated=False)
            out.append(nxt - t2t.text_vocab)
    return TokenGenResult(out, truncated=True)


# ------------------------------------------------- tokenizing one at a time


def tokenize_alone(tok, frames) -> list:
    """One utterance's tokens from a stage-1 pass of its own (T, feat_dim)
    frames, then `quantize`: tokenizing as it was before utterances of equal
    length shared passes."""
    with no_grad():
        h = tok.encoder.encode_stage1(frames.frames, None)
    return quantize(h, tok.codebook)


def alignment_counts_alone(tok, manifest, frames_per_symbol, n_symbols) -> np.ndarray:
    """counts[token, symbol] frame by frame, each utterance tokenized alone;
    frame i carries symbol text[i // frames_per_symbol], the last one past
    the text's end."""
    counts = np.zeros((tok.codebook.size, n_symbols), dtype=np.int64)
    for r in manifest:
        for i, t in enumerate(tokenize_alone(tok, r.tgt_frames)):
            counts[t, r.tgt_text[min(i // frames_per_symbol, len(r.tgt_text) - 1)]] += 1
    return counts


# ----------------------------------------------- translating one at a time


def translate_records_alone(model, vocoder, records, decode_cfg) -> list:
    """(DecodeResult, prompt frames, synthesized frames) per record, as the
    translate command and the full-chain scoring each looped before they
    shared one chain: translate a record, then synthesize it with the
    embedding of its `same_speaker_prompts` reference's target frames."""
    from minis2st.corpus import same_speaker_prompts

    prompts = same_speaker_prompts(records)
    out = []
    for r in records:
        res = model.translate(r.src_frames, decode_cfg)
        if vocoder is None:
            out.append((res, None, None))
            continue
        prompt = prompts[r.id].tgt_frames
        out.append((res, prompt, vocoder.synthesize(res.tokens, vocoder.embedder.embed(prompt))))
    return out


# ------------------------------------------------------------- VQ brute force


def nearest_code_bruteforce(h_row: np.ndarray, codebook: np.ndarray) -> int:
    """Exhaustive argmin of squared L2 distance, lowest index on ties."""
    best, best_d = 0, float("inf")
    for i in range(codebook.shape[0]):
        d = float(np.sum((h_row - codebook[i]) ** 2))
        if d < best_d:
            best, best_d = i, d
    return best


# --------------------------------------------------------------- text metrics


def bleu_bruteforce(hyps, refs) -> float:
    """Corpus BLEU from the documented formula: clipped n-gram precisions for
    n=1..4, add-one smoothing for n>=2, brevity penalty exp(1-r/c) for c<=r."""
    def grams(seq, n):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    logs = []
    for n in range(1, 5):
        match = total = 0
        for h, rf in zip(hyps, refs):
            hc, rc = Counter(grams(h, n)), Counter(grams(rf, n))
            match += sum(min(k, rc[g]) for g, k in hc.items())
            total += max(0, len(h) - n + 1)
        if n >= 2:
            match, total = match + 1, total + 1
        if match == 0 or total == 0:
            return 0.0
        logs.append(math.log(match / total))
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(logs) / 4.0)


def meteor_bruteforce(hyp, ref) -> float:
    """Unigram METEOR by the documented hand formula: greedy first-unmatched
    alignment, F = PR / (0.9P + 0.1R), penalty 0.5 * (chunks/m)^3."""
    taken = [False] * len(ref)
    pairs = []
    for hi, tok in enumerate(hyp):
        for ri in range(len(ref)):
            if not taken[ri] and ref[ri] == tok:
                taken[ri] = True
                pairs.append((hi, ri))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    p, r = m / len(hyp), m / len(ref)
    f = p * r / (0.9 * p + 0.1 * r)
    chunks = 1 + sum(
        1 for (h0, r0), (h1, r1) in zip(pairs, pairs[1:])
        if h1 != h0 + 1 or r1 != r0 + 1
    )
    return f * (1.0 - 0.5 * (chunks / m) ** 3)


def random_corpus(rng, n_pairs, vocab=8, max_len=7):
    """Small random (hyps, refs) with overlapping vocabulary."""
    hyps, refs = [], []
    for _ in range(n_pairs):
        hyps.append([int(x) for x in rng.integers(0, vocab, size=rng.integers(0, max_len + 1))])
        refs.append([int(x) for x in rng.integers(0, vocab, size=rng.integers(1, max_len + 1))])
    return hyps, refs
