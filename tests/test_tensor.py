import numpy as np
import pytest

import oracles
from minis2st import nn
from minis2st.model import DecodeConfig, DecoderLM, ModelConfig
from minis2st.nn import TransformerBlock, add_positions, causal_mask, run_blocks
from minis2st.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat,
    embedding_lookup,
    layernorm,
    linear,
    mul,
    reshape,
    rng_for,
    seed_for,
    softmax_cross_entropy,
    splitmix64,
    squared_error,
    weighted_sum,
    zero_grad,
)
from minis2st.tokenizer import TextToTokenModel
from minis2st.vocoder import SpeakerEmbedder


def total(x):
    """Sum of all entries: each entry's gradient is 1."""
    return weighted_sum(x, 1.0)


def test_every_op_gradient_matches_finite_differences():
    for name, err in oracles.run_op_gradient_trials(trials=100):
        assert err < oracles.FD_RTOL, f"{name}: worst relative error {err:.3e}"


def test_gradients_accumulate_across_uses():
    x = Tensor([2.0, -1.0], requires_grad=True)
    with Tape() as tape:
        y = total(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    backward(y, tape)
    np.testing.assert_allclose(x.grad, [5.0, -1.0])


def test_gradients_accumulate_across_backward_calls():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = total(mul(x, 2.0))
    backward(y, tape)
    with Tape() as tape:
        z = total(mul(x, 5.0))
    backward(z, tape)
    np.testing.assert_allclose(x.grad, [7.0])
    zero_grad([x])
    assert x.grad is None


def test_backward_without_tape_raises():
    x = Tensor([1.0], requires_grad=True)
    y = total(x)  # no tape active: nothing recorded
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(y, Tape())


def test_backward_walks_only_the_tape_that_recorded_the_loss_and_empties_it():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = total(mul(x, 2.0))
    with Tape() as other:
        total(mul(x, 3.0))
    with pytest.raises(ValueError):
        backward(y, other)
    assert len(other.nodes) == 2 and x.grad is None
    backward(y, tape)
    assert tape.nodes == []
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, 2.0)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_broadcast_gradient_reduces_correctly():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    with Tape() as tape:
        y = total(add(a, b))
    backward(y, tape)
    np.testing.assert_allclose(a.grad, np.ones((3, 4)))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_embedding_lookup_accumulates_repeated_rows():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    with Tape() as tape:
        y = total(embedding_lookup(table, [1, 1, 3]))
    backward(y, tape)
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_allclose(table.grad, expected)


def test_linear_and_concat_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = Tensor([[1.0], [1.0]])
    np.testing.assert_allclose(linear(a, w, Tensor([0.5])).data, [[3.5], [7.5]])
    np.testing.assert_allclose(
        concat([a, Tensor([[5.0, 6.0]])], axis=0).data,
        [[1, 2], [3, 4], [5, 6]],
    )


def _attention_case(rng, t, s, d=8, heads=2):
    x = rng.normal(size=(t, d))
    src = x if s is None else rng.normal(size=(s, d))
    proj = [(rng.normal(0.0, 0.5, size=(d, d)), rng.normal(size=d)) for _ in range(4)]
    return x, src, proj, heads


def test_attention_matches_the_reference_definition():
    rng = np.random.default_rng(0)
    for t, s, masked in [(5, None, True), (5, None, False), (3, 7, False), (4, 2, False)]:
        x, src, proj, heads = _attention_case(rng, t, s)
        mask = causal_mask(t, 0) if masked else None
        got = attention(Tensor(x), Tensor(src), [(Tensor(w), Tensor(b)) for w, b in proj],
                        heads, mask).data
        want = oracles.attention_reference(x, src, proj, heads, mask)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_attention_weights_are_distributions():
    # with value weights zero and identity output, each head's output row is
    # (sum of that row's attention weights) * the value bias
    rng = np.random.default_rng(0)
    for t, s, masked in [(6, None, True), (3, 5, False)]:
        x, src, proj, heads = _attention_case(rng, t, s)
        bias = rng.uniform(1.0, 2.0, size=x.shape[1])
        proj[2] = (np.zeros_like(proj[2][0]), bias)
        proj[3] = (np.eye(x.shape[1]), np.zeros(x.shape[1]))
        mask = causal_mask(t, 0) if masked else None
        out = attention(Tensor(x), Tensor(src), [(Tensor(w), Tensor(b)) for w, b in proj],
                        heads, mask).data
        np.testing.assert_allclose(out / bias, np.ones_like(out), atol=1e-12)


def _attention_grads(x, src, proj, heads, mask, c):
    """Output, the gradients of the inputs, and those of every projection array."""
    ins = [Tensor(a, requires_grad=True) for a in (x, src) if a is not None]
    ps = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)) for w, b in proj]
    with Tape() as tape:
        out = attention(ins[0], ins[-1], ps, heads, mask)
        loss = weighted_sum(out, c / c.size)
    backward(loss, tape)
    return out.data, [t.grad for t in ins], [t.grad for wb in ps for t in wb]


def test_batched_attention_is_a_stack_of_single_ones():
    # a 2-D input is the B = 1 case of the batched code, bit for bit; a batch
    # of B gives each sequence what it gets alone, up to summation order
    rng = np.random.default_rng(5)
    for t, s, masked in [(5, None, True), (3, 4, False)]:
        b, d = 3, 8
        x = rng.normal(size=(b, t, d))
        src = None if s is None else rng.normal(size=(b, s, d))
        proj = [(rng.normal(0.0, 0.5, size=(d, d)), rng.normal(size=d)) for _ in range(4)]
        c = rng.normal(size=(b, t, d))
        mask = causal_mask(t, 0) if masked else None

        def run(i):
            return _attention_grads(x[i], None if src is None else src[i], proj, 2, mask, c[i])

        singles = [run(i) for i in range(b)]
        one = run(slice(0, 1))
        np.testing.assert_array_equal(one[0][0], singles[0][0])
        for got, want in zip(one[1] + one[2], singles[0][1] + singles[0][2]):
            np.testing.assert_array_equal(got.reshape(want.shape), want)
        # the batch's loss is the mean of the single losses
        out, gin, gparams = run(slice(None))
        np.testing.assert_allclose(out, np.stack([o for o, _, _ in singles]),
                                   rtol=1e-12, atol=1e-14)
        for k, got in enumerate(gin):
            want = np.stack([single[1][k] for single in singles]) / b
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)
        for k, got in enumerate(gparams):
            want = sum(single[2][k] for single in singles) / b
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)


def test_layernorm_variance_is_bit_equal_to_np_var():
    # against the two-pass form: np.mean, then np.var, which takes the mean again
    rng = np.random.default_rng(6)
    gain, bias = Tensor(rng.normal(size=7)), Tensor(rng.normal(size=7))
    for _ in range(200):
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=(int(rng.integers(1, 6)), 7))
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - x.mean(axis=-1, keepdims=True)) * inv * gain.data + bias.data
        np.testing.assert_array_equal(layernorm(Tensor(x), gain, bias).data, want)


def test_position_tables_are_built_once_and_read_only(monkeypatch):
    built = []
    real = nn.sinusoidal_positions

    def counting(n, d):
        built.append((n, d))
        return real(n, d)

    monkeypatch.setattr(nn, "sinusoidal_positions", counting)
    monkeypatch.setattr(nn, "_POSITIONS", {})
    x = np.random.default_rng(7).normal(size=(2, 5, 6))
    for rows in (x, x[0], x[1], x):
        out = add_positions(Tensor(rows)).data
        np.testing.assert_array_equal(out, rows + real(5, 6))
    assert built == [(5, 6)]
    with pytest.raises(ValueError):
        nn._POSITIONS[(5, 6)][0, 0] = 1.0


def test_transformer_block_records_few_tape_nodes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(30, 96)), requires_grad=True)
    memory = Tensor(rng.normal(size=(20, 96)), requires_grad=True)
    for cross, limit in [(False, 8), (True, 11)]:
        blk = TransformerBlock(96, 4, rng, cross=cross)
        with Tape() as tape:
            blk(x, memory=memory if cross else None, mask=causal_mask(30, 0))
        assert len(tape.nodes) <= limit, (cross, len(tape.nodes))


def test_causal_mask_after_cached_rows():
    big = -1e9
    assert causal_mask(2, 3).tolist() == [[0, 0, 0, 0, big], [0, 0, 0, 0, 0]]
    np.testing.assert_array_equal(causal_mask(4, 0), np.triu(np.full((4, 4), big), k=1))


def test_causal_mask_slices_one_read_only_table(monkeypatch):
    monkeypatch.setattr(nn, "_CAUSAL", np.zeros((0, 0)))
    # the first call builds a 1-row table; later ones need longer ones
    for past in range(10):
        for n in range(1, 6):
            mask = causal_mask(n, past)
            np.testing.assert_array_equal(mask, np.triu(np.full((n, past + n), -1e9), k=past + 1))
            with pytest.raises(ValueError):
                mask[0, 0] = 1.0
    assert nn._CAUSAL.shape == (14, 14)


def layernorm_by_np_mean(x, gain, bias, g):
    """layernorm's output and its x, gain and bias gradients under the
    upstream gradient g, every mean taken by ndarray.mean."""
    d = x.shape[-1]
    dev = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((dev * dev).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = dev * inv
    gx = g * gain
    dx = (gx - gx.mean(axis=-1, keepdims=True)
          - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv
    return (xhat * gain + bias, dx, (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


def test_layernorm_and_its_gradients_equal_the_np_mean_form():
    rng = np.random.default_rng(12)
    for shape in [(5, 7), (3, 4, 7), (1, 7)]:
        for _ in range(20):
            x = Tensor(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=shape), requires_grad=True)
            gain = Tensor(rng.normal(size=7), requires_grad=True)
            bias = Tensor(rng.normal(size=7), requires_grad=True)
            g = rng.normal(size=shape)
            with Tape() as tape:
                out = layernorm(x, gain, bias)
                backward(weighted_sum(out, g), tape)
            want = layernorm_by_np_mean(x.data, gain.data, bias.data, g)
            for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
                np.testing.assert_array_equal(got, ref)


def test_padding_mask_hides_exactly_the_pad_keys():
    assert nn.padding_mask([4]) is None and nn.padding_mask([3, 3, 3]) is None
    rng = np.random.default_rng(4)
    lengths = [2, 5, 1]
    mask = nn.padding_mask(lengths)
    assert mask.shape == (3, 1, 1, 5)
    # every real query row of every head gives each pad key exactly zero
    # probability, and each real key some
    scores = rng.normal(0.0, 30.0, size=(3, 2, 4, 5)) + mask
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    for b, n in enumerate(lengths):
        assert (p[b, ..., n:] == 0.0).all() and (p[b, ..., :n] > 0.0).all()
    # so a padded batch through blocks gives each utterance's real rows what
    # they get alone, self- and cross-attention alike
    blocks = [TransformerBlock(8, 2, rng, cross=True) for _ in range(2)]
    xs = [rng.normal(size=(n, 8)) for n in lengths]
    mems = [rng.normal(size=(n, 8)) for n in (3, 1, 4)]
    x, _ = nn.right_pad(xs, 7.0)
    mem, mem_lengths = nn.right_pad(mems, -7.0)
    out = run_blocks(blocks, Tensor(x), mask=mask, memory=Tensor(mem),
                     memory_mask=nn.padding_mask(mem_lengths)).data
    for b, (xb, mb) in enumerate(zip(xs, mems)):
        alone = run_blocks(blocks, Tensor(xb), memory=Tensor(mb)).data
        np.testing.assert_allclose(out[b, : len(xb)], alone, rtol=1e-12, atol=1e-12)


def kv_arrays(blocks, rows):
    """The key and value arrays `nn.decode_cached` makes for `rows` rows of
    each block of width 8, (len(blocks), rows, 8) each, NaN until written."""
    keys, values = np.full((2, len(blocks), rows, 8), np.nan)
    return keys, values


def through_caches(blocks, keys, values, held, x):
    """x's rows, an array, through blocks' array steps after the `held` rows
    whose keys and values the arrays hold, writing x's after them, as
    `nn.decode_cached` feeds them."""
    mask = causal_mask(x.shape[-2], held)
    for blk, k, v in zip(blocks, keys, values):
        x = nn.block_step(blk.arrays(), x, mask, (k, v, held))
    return x


def test_the_array_step_on_a_fresh_cache_is_the_block_bit_for_bit():
    # the same kernels in the same order, a block alone and in a stack, with
    # arrays sized past the rows fed as decoding sizes them
    rng = np.random.default_rng(13)
    blocks = [TransformerBlock(8, 2, rng) for _ in range(2)]
    for n in (1, 2, 7):
        x = rng.normal(size=(n, 8))
        one = blocks[0](Tensor(x), mask=causal_mask(n, 0)).data
        both = run_blocks(blocks, Tensor(x), causal=True).data
        keys, values = kv_arrays(blocks[:1], n + 3)
        np.testing.assert_array_equal(
            nn.block_step(blocks[0].arrays(), x, causal_mask(n, 0), (keys[0], values[0], 0)),
            one)
        np.testing.assert_array_equal(
            through_caches(blocks, *kv_arrays(blocks, n + 3), 0, x), both)


def test_a_cross_attention_block_gives_the_array_step_no_weights():
    # block_step has no cross-attention: a cross block's arrays would make
    # it skip one silently, so decoding raises before any step
    blk = TransformerBlock(8, 2, np.random.default_rng(0), cross=True)
    with pytest.raises(ValueError, match="self-attention blocks only"):
        blk.arrays()
    ran = []
    with pytest.raises(ValueError, match="self-attention blocks only"):
        nn.decode_cached([blk], nn.LayerNorm(8), 4, np.zeros((1, 8)), ran.append)
    assert ran == []


def test_cached_blocks_match_a_full_pass():
    # rows fed in chunks through the key and value arrays come out as a full
    # causal pass gives them; the cached rows skip masked key columns, so
    # sums group differently
    rng = np.random.default_rng(3)
    blocks = [TransformerBlock(8, 2, rng) for _ in range(2)]
    x = rng.normal(size=(11, 8))
    keys, values = kv_arrays(blocks, 11)
    full = run_blocks(blocks, Tensor(x), causal=True).data
    parts = [through_caches(blocks, keys, values, lo, x[lo:hi])
             for lo, hi in ((0, 1), (1, 4), (4, 6), (6, 11))]
    # every row of both arrays of both blocks was written
    assert not np.isnan(keys).any() and not np.isnan(values).any()
    np.testing.assert_allclose(np.concatenate(parts), full, rtol=0, atol=1e-12)


def test_decode_cached_feeds_chunks_until_step_stops():
    rng = np.random.default_rng(6)
    blocks = [TransformerBlock(8, 2, rng) for _ in range(2)]
    ln_f = nn.LayerNorm(8)
    x = rng.normal(size=(11, 8))
    chunks = [(0, 3), (3, 4), (4, 7), (7, 11)]
    lasts = []

    def step(last):
        lasts.append(last)
        if len(lasts) == len(chunks):
            return None
        lo, hi = chunks[len(lasts)]
        return x[lo:hi]

    # each chunk's last row is the full causal pass's row at that position
    fed = nn.decode_cached(blocks, ln_f, 11, x[:3], step)
    full = ln_f(run_blocks(blocks, Tensor(x), causal=True)).data
    np.testing.assert_allclose(np.concatenate(lasts), full[[hi - 1 for _, hi in chunks]],
                               rtol=0, atol=1e-12)
    # the loop stops at the first None, and counts every row fed
    assert len(lasts) == len(chunks)
    assert fed == 11
    assert nn.decode_cached(blocks, ln_f, 11, x[:3], lambda last: None) == 3


@pytest.mark.parametrize("rows,prefix_rows,chunk_rows", [(2, 3, 0), (4, 3, 2), (3, 3, 1)],
                         ids=["prefix", "chunk", "row"])
def test_rows_past_the_arrays_raise_rather_than_write(rows, prefix_rows, chunk_rows):
    # the arrays are sized once: a prefix or step past their rows is a
    # broadcast error, whether too few rows are free or none are
    rng = np.random.default_rng(8)
    blocks = [TransformerBlock(8, 2, rng) for _ in range(2)]
    x = rng.normal(size=(prefix_rows + chunk_rows, 8))
    with pytest.raises(ValueError):
        nn.decode_cached(blocks, nn.LayerNorm(8), rows, x[:prefix_rows],
                         lambda last: x[prefix_rows:])


def test_both_greedy_decoders_size_the_arrays_by_their_bound(monkeypatch):
    # (rows, rows fed) of every decode_cached call
    calls = []
    real = nn.decode_cached

    def recorded(blocks, ln_f, rows, prefix, step):
        calls.append((rows, real(blocks, ln_f, rows, prefix, step)))
        return calls[-1][1]

    monkeypatch.setattr(nn, "decode_cached", recorded)
    rng = np.random.default_rng(12)
    cfg = ModelConfig(feat_dim=4, text_vocab=5, audio_vocab=7, d_model=12, blocks=2, heads=2,
                      context=64, prompt_len=2, enc_dim=6, enc_blocks=1, enc_heads=2,
                      fixed_input_len=8, proj_hidden=10)
    dec = DecoderLM(cfg, seed=0)
    v = dec.vocab
    # with no EOS on either head every step runs, so the decoder feeds its
    # prefix (soft prompt, source, BOS) and two rows per later step: exactly
    # the `longest` of its context check
    dec.text_head.b.data[v.text_eos_local] = -1e9
    dec.audio_head.b.data.reshape(-1, v.audio_head_size)[:, v.audio_eos_local] = -1e9
    a_p = Tensor(rng.normal(size=(3, 12)))
    for max_steps in (1, 2, 5):
        assert dec.decode_greedy(a_p, DecodeConfig(max_steps=max_steps)).steps == max_steps
        longest = cfg.prompt_len + 3 + 1 + 2 * (max_steps - 1)
        assert calls.pop() == (longest, longest)
    # generation feeds the speaker slot, BOS and the text, then every pick
    # but the last: at most len(ids) + max_len rows, ids being BOS and text
    t2t = TextToTokenModel(5, 12, spk_dim=3, seed=0, embedder=SpeakerEmbedder(4, spk_dim=3))
    text = [0, 2, 1]
    for no_eos in (False, True):
        if no_eos:
            t2t.head.b.data[t2t.eos] = -1e9
        for max_len in (1, 4, 9):
            out = t2t.generate(text, rng.normal(size=3), max_len=max_len)
            rows, fed = calls.pop()
            assert rows == 1 + len(text) + max_len
            assert fed == 2 + len(text) + min(len(out.tokens), max_len - 1) <= rows
            assert out.truncated or not no_eos
    assert calls == []


def test_a_key_bias_moves_attention_outputs_only_by_rounding():
    # q . (k + b) adds the same q . b to every score of a query row, and
    # softmax drops it; so key biases stay frozen at zero, out of training
    rng = np.random.default_rng(10)
    blk = TransformerBlock(8, 2, rng, cross=True)
    own = TransformerBlock(8, 2, rng)
    biases = [blk.attn.wk.b, blk.cross.wk.b, own.attn.wk.b]
    assert not any(b.requires_grad for b in biases)
    x, memory = rng.normal(size=(2, 7, 8)), rng.normal(size=(2, 5, 8))

    def outputs():
        # a masked batch through the cross block, then the first sequence
        # through the self-attention block's key and value arrays
        full = run_blocks([blk], Tensor(x), causal=True, memory=Tensor(memory)).data
        keys, values = kv_arrays([own], 7)
        parts = [through_caches([own], keys, values, lo, x[0, lo:hi])
                 for lo, hi in ((0, 3), (3, 7))]
        return full, np.concatenate(parts)

    before = outputs()
    for b in biases:
        b.data = b.data + rng.normal(0.0, 3.0, size=b.data.shape)
    for got, want in zip(outputs(), before):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_softmax_cross_entropy_hand_value():
    logits = Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    loss = softmax_cross_entropy(logits, [2, 0], [True, True])
    assert float(loss.data) == pytest.approx(0.97952533918821585, abs=1e-14)


def test_uniform_logits_cross_entropy_is_log_v():
    for v in (2, 7, 66):
        loss = softmax_cross_entropy(Tensor(np.zeros((3, v))), [0, 1, v - 1], np.ones(3, bool))
        assert float(loss.data) == pytest.approx(np.log(v), abs=1e-12)


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3], [True, True])
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((0, 3))), [], [])
    with pytest.raises(ValueError, match="keep mask"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], [True])


def test_loss_ops_equal_the_gather_and_chain_forms_bit_for_bit():
    rng = np.random.default_rng(21)
    for shape in [(3, 4, 2, 7), (5, 6, 9), (4, 3), (1, 1, 1, 2)]:
        for _ in range(10):
            logits = Tensor(rng.normal(0.0, 3.0, size=shape), requires_grad=True)
            targets, keep = oracles.ragged_targets(rng, shape)
            with Tape() as tape:
                loss = softmax_cross_entropy(logits, targets, keep)
            backward(loss, tape)
            value, grad = oracles.cross_entropy_gather_reference(logits.data, targets, keep)
            assert loss.data == value
            np.testing.assert_array_equal(logits.grad, grad)
    for shape, wshape in [((3, 4, 5), (3, 4, 1)), ((6, 2), (6, 2)), ((2, 3), ())]:
        for _ in range(10):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            target = rng.normal(size=shape)
            w = rng.uniform(size=wshape) * (rng.random(size=wshape) < 0.7)
            with Tape() as tape:
                loss = squared_error(x, target, w)
            backward(loss, tape)
            value, grad = oracles.squared_error_reference(x.data, target, w)
            assert loss.data == value
            np.testing.assert_array_equal(x.grad, grad)


def test_cross_entropy_refuses_an_utterance_that_keeps_nothing():
    keep = np.ones((3, 4), bool)
    keep[1] = False
    with pytest.raises(ValueError, match="every utterance"):
        softmax_cross_entropy(Tensor(np.zeros((3, 4, 5))), np.zeros((3, 4), int), keep)


def test_cross_entropy_reads_targets_only_where_kept():
    logits = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    targets = np.array([[0, 9, -1], [3, 2, 1]])
    keep = np.array([[True, False, False], [True, True, True]])
    with Tape() as tape:
        loss = softmax_cross_entropy(logits, targets, keep)
    backward(loss, tape)
    assert float(loss.data) == pytest.approx(np.log(4), abs=1e-12)
    np.testing.assert_array_equal(logits.grad[0, 1:], 0.0)  # masked rows get no gradient
    keep[0, 1] = True
    with pytest.raises(IndexError):
        softmax_cross_entropy(logits, targets, keep)


def test_squared_error_refuses_a_target_of_another_shape():
    with pytest.raises(ValueError, match="target shape"):
        squared_error(Tensor(np.zeros((2, 3))), np.zeros(3), 1.0)


def test_reshape_and_weighted_sum_values():
    x = Tensor(np.arange(6, dtype=np.float64))
    np.testing.assert_allclose(reshape(x, (2, 3)).data, [[0, 1, 2], [3, 4, 5]])
    assert float(weighted_sum(x, np.full(6, 1 / 6)).data) == 2.5


def test_splitmix64_reference_values():
    # standard splitmix64 outputs for inputs 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_seeded_streams_are_stable_and_label_separated():
    a1 = rng_for(7, "alpha").normal(size=4)
    a2 = rng_for(7, "alpha").normal(size=4)
    b = rng_for(7, "beta").normal(size=4)
    other = rng_for(8, "alpha").normal(size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other)
    assert seed_for(7, "alpha") != seed_for(7, "alpha ")
