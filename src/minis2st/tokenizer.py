"""Semantic speech tokenizer: split encoder around a vector-quantization bottleneck.

Stage-1 encoder turns frames into per-frame continuous vectors, the codebook
snaps each vector to its nearest entry (the semantic token), and the stage-2
encoder re-contextualizes the quantized sequence for an attached text decoder
whose cross-entropy supervises the whole stack.  Token sequences are
length-preserving: one token per input frame, no temporal downsampling.

A manifest is tokenized in bulk by `SpeechTokenizer.tokenize_many`: utterances
of equal frame count are stacked and share one stage-1 pass and one quantize,
with no padding and no mask, so every utterance gets the tokens it gets alone.
`tokenize` is the one-utterance case of the same call.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .corpus import Manifest, check_settings, frame_matrix
from .tensor import (
    Tensor,
    add,
    affine,
    concat,
    embedding_lookup,
    mul,
    no_grad,
    reshape,
    rng_for,
    softmax_cross_entropy,
    squared_error,
    utterance_rows,
)

# frames per stage-1 pass of tokenize_many: bounds its (B, heads, T, T)
# attention scores and the (rows, |C|) distances of its quantize
TOKENIZE_ROWS = 512


@dataclass
class TokenizerConfig:
    feat_dim: int = 8
    text_vocab: int = 20
    dim: int = 64
    codebook_size: int = 4096
    enc1_blocks: int = 2
    enc2_blocks: int = 2
    asr_blocks: int = 2
    heads: int = 4
    commitment_beta: float = 0.25

    def __post_init__(self):
        check_settings(self, {})


class Codebook(nn.Module):
    """Learnable table of discrete code vectors."""

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        self.entries = Tensor(rng.normal(0.0, 1.0, size=(size, dim)), requires_grad=True)

    @property
    def size(self) -> int:
        return self.entries.data.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.data.shape[1]


def _direct_nearest(hd: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Argmin of the direct distances sum((h - e)**2) per row: the values that
    define quantize's tokens, ties to the lowest index."""
    out = np.empty(hd.shape[0], dtype=np.int64)
    # row chunks keep the (chunk, |C|, d) distance tensor small at paper-scale codebooks
    for lo in range(0, hd.shape[0], 64):
        chunk = hd[lo : lo + 64]
        d2 = ((chunk[:, None, :] - e[None, :, :]) ** 2).sum(axis=2)
        out[lo : lo + 64] = np.argmin(d2, axis=1)
    return out


def quantize(h, codebook: Codebook) -> list:
    """Nearest codebook entry per row, squared-L2, ties to the lowest index.

    The tokens are those of the direct distances sum((h - e)**2), bit for bit.
    One matmul gives every row's expanded distances |h|^2 - 2 h.e + |e|^2 and
    shortlists the codes within a proven rounding bound of the row minimum; a
    row whose shortlist holds one code takes it, and every other row (a near
    tie, or NaN, infinite or near-overflow values) is settled by direct
    distances.
    """
    hd = h.data if isinstance(h, Tensor) else np.asarray(h, dtype=np.float64)
    if hd.ndim != 2:
        raise ValueError(f"quantize expects (T, d) input, got shape {hd.shape}")
    if hd.shape[1] != codebook.dim:
        raise ValueError(
            f"quantize: input dim {hd.shape[1]} != codebook dim {codebook.dim}"
        )
    e = codebook.entries.data  # updated in place by training: norms are not cached
    d = hd.shape[1]
    # Why one shortlisted code is the direct argmin.  Let D_j be the exact
    # squared distance to code j, x_j its expanded and y_j its direct value as
    # computed, u = eps/2, gamma_n = n*u / (1 - n*u) and S = (|h| + max|e|)^2,
    # which bounds every |h|^2 + 2|h.e| + |e|^2 and every D_j.  A d-term sum
    # of products is off by at most gamma_d times the sum of its |terms|, in
    # any order and with or without FMA (Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 3).  Expanded form: three such sums joined by
    # two additions, so |x_j - D_j| <= gamma_(d+2) * S.  Direct form: each
    # term (h_i - e_i)^2 carries two roundings, then d terms are summed, so
    # |y_j - D_j| <= gamma_(d+2) * D_j <= gamma_(d+2) * S.  With j* the direct
    # argmin, g = 2 * gamma_(d+2) * S and m the expanded minimum, for every k
    #     x_j* <= y_j* + g <= y_k + g <= x_k + 2g,  so  x_j* <= m + 2g,
    # and 2g ~ 4(d+2) u S.  The tolerance 4(d+2) eps S is twice that, which
    # also covers the rounding of S and of m + tol.  Under underflow each of
    # the 3d expanded and d direct products may lose half a subnormal spacing
    # as an absolute error, at most 5d spacings in 2g; 12(d+2) spacings keep
    # the 2x margin.  The bounds need no overflow: S < max/2 keeps every
    # intermediate finite.  A row fails that test when it or any code holds a
    # NaN or an infinity, or when it comes near overflow, and goes the direct
    # way, which warns about such values as it always has.
    fi = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        h_sq = np.einsum("ij,ij->i", hd, hd)
        e_sq = np.einsum("ij,ij->i", e, e)
        dist = hd @ e.T
        dist *= -2.0
        dist += h_sq[:, None]
        dist += e_sq
        best = np.argmin(dist, axis=1)
        low = dist[np.arange(hd.shape[0]), best]
        scale = (np.sqrt(h_sq) + np.sqrt(e_sq.max())) ** 2
        tol = 4 * (d + 2) * (fi.eps * scale + 3 * fi.smallest_subnormal)
        near = np.count_nonzero(dist <= (low + tol)[:, None], axis=1)
    settled = (near == 1) & (scale < fi.max / 2)
    rest = np.flatnonzero(~settled)
    if rest.size:
        best[rest] = _direct_nearest(hd[rest], e)
    return best.tolist()


class SplitEncoder(nn.Module):
    """Two encoder stacks with the quantizer sitting between them.  Both take
    a lone utterance's (T, ...) rows or a right-padded (B, T, ...) batch with
    its `nn.padding_mask`."""

    def __init__(self, cfg: TokenizerConfig, rng: np.random.Generator):
        d = cfg.dim
        self.in_proj = nn.Linear(cfg.feat_dim, d, rng)
        self.enc1 = [nn.TransformerBlock(d, cfg.heads, rng) for _ in range(cfg.enc1_blocks)]
        self.ln_mid = nn.LayerNorm(d)
        self.enc2 = [nn.TransformerBlock(d, cfg.heads, rng) for _ in range(cfg.enc2_blocks)]
        self.ln_out = nn.LayerNorm(d)

    def encode_stage1(self, f: np.ndarray, mask) -> Tensor:
        x = nn.add_positions(self.in_proj(Tensor(f)))
        return self.ln_mid(nn.run_blocks(self.enc1, x, mask=mask))

    def encode_stage2(self, h_bar: Tensor, mask) -> Tensor:
        x = nn.add_positions(h_bar)
        return self.ln_out(nn.run_blocks(self.enc2, x, mask=mask))


class AsrDecoder(nn.Module):
    """Causal text decoder cross-attending to stage-2 encodings."""

    def __init__(self, cfg: TokenizerConfig, rng: np.random.Generator):
        d = cfg.dim
        self.vocab = cfg.text_vocab
        self.bos = cfg.text_vocab
        self.eos = cfg.text_vocab + 1
        self.embed = nn.param(rng, (cfg.text_vocab + 2, d), scale=0.02)
        self.blocks = [
            nn.TransformerBlock(d, cfg.heads, rng, cross=True) for _ in range(cfg.asr_blocks)
        ]
        self.ln_f = nn.LayerNorm(d)
        self.head = nn.Linear(d, cfg.text_vocab + 2, rng)

    def logits(self, h_tilde: Tensor, y_in, memory_mask) -> Tensor:
        """Logits of (B, L) input ids, right-padded, over (B, T, d) encodings
        under their key mask; the causal mask keeps pad ids out of every real
        row's view."""
        x = nn.add_positions(embedding_lookup(self.embed, y_in))
        x = nn.run_blocks(self.blocks, x, causal=True, memory=h_tilde, memory_mask=memory_mask)
        return self.head(self.ln_f(x))


class SpeechTokenizer(nn.Module):
    def __init__(self, cfg: TokenizerConfig, seed: int = 0):
        self.encoder = SplitEncoder(cfg, rng_for(seed, "tokenizer.encoder"))
        self.codebook = Codebook(cfg.codebook_size, cfg.dim, rng_for(seed, "tokenizer.codebook"))
        self.asr = AsrDecoder(cfg, rng_for(seed, "tokenizer.asr"))
        self.cfg = cfg
        self.recipe = {"cfg": asdict(cfg), "seed": seed}

    def _frames(self, utterance) -> np.ndarray:
        """An utterance's (T, feat_dim) frame matrix; ValueError unless T >= 1."""
        f = frame_matrix(utterance, self.cfg.feat_dim, "tokenizer encoder")
        if f.shape[0] < 1:
            raise ValueError(f"tokenizer encoder needs at least one frame, got shape {f.shape}")
        return f

    def tokenize(self, frames) -> list:
        """Frames -> semantic token indices (one per frame)."""
        return self.tokenize_many([frames])[0]

    def tokenize_many(self, utterances) -> list:
        """Each utterance's semantic token indices, in input order.

        Every utterance is checked before any pass runs.  Utterances of equal
        frame count T are stacked into (B, T, feat_dim) stage-1 passes of at
        most TOKENIZE_ROWS frames, or of one utterance when T alone exceeds
        that.  Equal lengths need no padding and no mask, so each utterance's
        tokens are those it gets alone.
        """
        frames = [self._frames(u) for u in utterances]
        by_length: dict = {}
        for i, f in enumerate(frames):
            by_length.setdefault(f.shape[0], []).append(i)
        out = [None] * len(frames)
        with no_grad():
            for t, group in by_length.items():
                per_pass = max(1, TOKENIZE_ROWS // t)
                for lo in range(0, len(group), per_pass):
                    part = group[lo : lo + per_pass]
                    h = self.encoder.encode_stage1(np.array([frames[i] for i in part]), None)
                    codes = quantize(h.data.reshape(-1, h.shape[-1]), self.codebook)
                    for j, i in enumerate(part):
                        out[i] = codes[j * t : (j + 1) * t]
        return out

    def training_losses(self, batch, texts):
        """Joint objective of a batch of utterances: frames and target texts.

        Returns (total, parts, tokens) where total = asr + codebook + beta*commit,
        each term the mean over utterances of that utterance's own loss, and
        tokens are the codes of every real frame, utterance by utterance.  The
        frames are right-padded to the longest and encoded under their key
        mask; only real rows are quantized.  The quantization bypass is a
        straight-through estimator so the text loss reaches stage-1 weights,
        while the codebook/commitment pair pulls codes and encodings toward
        each other.
        """
        f, lengths = nn.right_pad([self._frames(fr) for fr in batch], 0.0)
        mask = nn.padding_mask(lengths)
        h = self.encoder.encode_stage1(f, mask)
        b, t, d = h.shape
        rows, weights = utterance_rows(np.arange(t) < lengths[:, None])
        h_real = embedding_lookup(reshape(h, (b * t, d)), rows)
        tokens = quantize(h_real, self.codebook)
        q = embedding_lookup(self.codebook.entries, tokens)
        w = weights[:, None] / d  # a row's squared error sums d entries
        codebook_loss = squared_error(q, h_real.data, w)
        commit_loss = mul(squared_error(h_real, q.data, w), self.cfg.commitment_beta)
        # forward: q on real rows, gradient: identity to h
        bypass = np.zeros((b * t, d))
        bypass[rows] = q.data - h_real.data
        h_tilde = self.encoder.encode_stage2(add(h, Tensor(bypass.reshape(b, t, d))), mask)
        asr = self.asr
        y_in, n_in = nn.right_pad([[asr.bos] + list(text) for text in texts], asr.eos)
        y_tgt, _ = nn.right_pad([list(text) + [asr.eos] for text in texts], asr.eos)
        asr_loss = softmax_cross_entropy(asr.logits(h_tilde, y_in, mask), y_tgt,
                                         np.arange(y_in.shape[1]) < n_in[:, None])
        total = add(add(asr_loss, codebook_loss), commit_loss)
        parts = {
            "loss_asr": float(asr_loss.data),
            "loss_codebook": float(codebook_loss.data),
            "loss_commit": float(commit_loss.data),
        }
        return total, parts, tokens


# --------------------------------------------------- token/symbol alignment


def _alignment_counts(tok: SpeechTokenizer, manifest: Manifest, frames_per_symbol: int,
                      n_symbols: int) -> np.ndarray:
    """counts[token, symbol]: frames carrying `symbol` that quantize to `token`.

    Each target symbol spans frames_per_symbol frames, and the tokenizer is
    length-preserving, so frame i carries symbol text[i // frames_per_symbol]
    (frames past the text's end carry its last symbol).  A record with no
    target symbols adds no counts; a symbol outside [0, n_symbols) raises
    ValueError.
    """
    records = [r for r in manifest if r.tgt_text]
    for r in records:
        if min(r.tgt_text) < 0 or max(r.tgt_text) >= n_symbols:
            raise ValueError(f"record {r.id!r}: tgt_text {r.tgt_text} holds a symbol "
                             f"outside [0, {n_symbols})")
    counts = np.zeros((tok.codebook.size, n_symbols), dtype=np.int64)
    if not records:
        return counts
    tokens, symbols = [], []
    for r, mu in zip(records, tok.tokenize_many([r.tgt_frames for r in records])):
        at = np.minimum(np.arange(len(mu)) // frames_per_symbol, len(r.tgt_text) - 1)
        tokens.append(mu)
        symbols.append(np.asarray(r.tgt_text, dtype=np.int64)[at])
    np.add.at(counts, (np.concatenate(tokens), np.concatenate(symbols)), 1)
    return counts


def token_symbol_alignment(tok: SpeechTokenizer, manifest: Manifest, frames_per_symbol: int,
                           n_symbols: int) -> np.ndarray:
    """Majority-vote table token -> symbol (-1 where a token never occurs)."""
    counts = _alignment_counts(tok, manifest, frames_per_symbol, n_symbols)
    table = np.full(tok.codebook.size, -1, dtype=np.int64)
    used = counts.sum(axis=1) > 0
    table[used] = counts[used].argmax(axis=1)
    return table


# ------------------------------------------------------ text-to-token model


@dataclass
class TokenGenResult:
    tokens: list
    truncated: bool


class TextToTokenModel(nn.Module):
    """Decoder-only LM mapping target text (plus a speaker slot) to semantic tokens.

    Vocabulary: text symbols, then codebook indices, then BOS/EOS.  The speaker
    embedding enters as a projected soft position at the sequence head.
    Generation is greedy through `nn.decode_cached`: the speaker slot, BOS
    and the text are its prefix, and each step feeds back only the row of
    its pick, with that row's position.
    """

    def __init__(self, text_vocab: int, codebook_size: int, spk_dim: int, seed: int = 0, *,
                 embedder):
        dim, blocks, heads = 64, 2, 4
        embedder.expect(spk_dim=spk_dim)
        rng = rng_for(seed, "text_to_token")
        self.recipe = {"text_vocab": text_vocab, "codebook_size": codebook_size,
                       "spk_dim": spk_dim, "seed": seed, "embedder": embedder.recipe}
        self.embedder = embedder
        self.text_vocab = text_vocab
        self.codebook_size = codebook_size
        self.bos = text_vocab + codebook_size
        self.eos = text_vocab + codebook_size + 1
        total = text_vocab + codebook_size + 2
        self.embed = nn.param(rng, (total, dim), scale=0.02)
        self.spk_proj = nn.Linear(spk_dim, dim, rng)
        self.blocks = [nn.TransformerBlock(dim, heads, rng) for _ in range(blocks)]
        self.ln_f = nn.LayerNorm(dim)
        self.head = nn.Linear(dim, total, rng)

    def _inputs(self, ids, spk_emb) -> Tensor:
        """The speaker slot, then the rows of ids; no positions yet.  (B, L)
        ids and (B, spk_dim) embeddings give (B, 1 + L, dim), and a lone
        utterance's (L,) ids and (spk_dim,) embedding give (1 + L, dim)."""
        spk = np.asarray(spk_emb, dtype=np.float64)
        slot = self.spk_proj(Tensor(spk[..., None, :]))
        return concat([slot, embedding_lookup(self.embed, ids)], axis=-2)

    def _forward(self, ids, spk_emb) -> Tensor:
        x = nn.add_positions(self._inputs(ids, spk_emb))
        return self.head(self.ln_f(nn.run_blocks(self.blocks, x, causal=True)))

    def loss(self, texts, tokens, spk_embs) -> Tensor:
        """Mean over utterances of each one's token cross-entropy, for a batch
        of target texts, their token sequences and (B, spk_dim) speaker
        embeddings.  Sequences are right-padded: under the causal mask no
        real row sees a pad row."""
        if any(len(text) == 0 for text in texts):
            raise ValueError("text_to_token loss needs non-empty text")
        tv = self.text_vocab
        seqs = [[self.bos] + list(text) + [t + tv for t in toks] + [self.eos]
                for text, toks in zip(texts, tokens)]
        ids, _ = nn.right_pad([seq[:-1] for seq in seqs], self.eos)
        # position p (the speaker slot first) predicts seq[p]: the last text
        # symbol's position predicts the first token and the last token's EOS
        targets, _ = nn.right_pad(seqs, self.eos)
        first = np.array([1 + len(text) for text in texts])[:, None]
        last = first + np.array([len(toks) for toks in tokens])[:, None]
        at = np.arange(targets.shape[1])
        return softmax_cross_entropy(self._forward(ids, spk_embs), targets,
                                     (at >= first) & (at <= last))

    def generate(self, text, spk_emb, max_len: int) -> TokenGenResult:
        """At most max_len greedy tokens for text; truncated if EOS did not come."""
        if len(text) == 0:
            raise ValueError("text_to_token generation needs non-empty text")
        if not isinstance(max_len, (int, np.integer)):
            raise ValueError(f"max_len must be an integer, got {max_len!r}")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        banned = np.zeros(self.text_vocab + self.codebook_size + 2)
        banned[: self.text_vocab] = -1e30  # only codebook ids and EOS may be emitted
        banned[self.bos] = -1e30
        ids = [self.bos] + list(text)
        # the longest input: speaker slot, ids, then max_len - 1 fed-back picks
        positions = nn.positions(len(ids) + max_len, self.embed.shape[1])
        head_w, head_b = self.head.w.data, self.head.b.data
        out = []

        def prefix():  # the speaker slot, then ids
            return add(self._inputs(ids, spk_emb), Tensor(positions[: 1 + len(ids)])).data

        def step(last):
            nxt = int((affine(last, head_w, head_b)[0] + banned).argmax())
            if nxt == self.eos:
                return None
            out.append(nxt - self.text_vocab)
            if len(out) == max_len:
                return None
            at = len(ids) + len(out)  # the slot, ids and earlier picks come first
            return self.embed.data[[nxt]] + positions[at: at + 1]

        nn.decode_cached(self.blocks, self.ln_f, len(positions), prefix, step)
        return TokenGenResult(out, truncated=len(out) == max_len)
