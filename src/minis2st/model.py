"""Speech-to-speech translation model.

A frozen speech encoder reads padded source frames, a projector compresses the
encoding into the decoder's width and length budget, and a decoder LM with an
augmented text+audio vocabulary emits the target text stream and the semantic
token stream jointly.  Audio tokens are predicted G at a time from a single
hidden state; the input stream interleaves one text position with one grouped
audio position per step.  The decoder works in head-local ids throughout:
`DecoderLM.make_targets` lays out the (S,) text and (S, G) audio step arrays
that teacher forcing and the loss read, and greedy decoding feeds its picks
back in that same layout, one step's rows at a time through `nn.decode_cached`,
as arrays `_feed_rows` builds from the tables `_step_rows` reads.

Training runs a batch as one graph: every source is cut or padded to the
encoder's fixed length, so the encoder and projector take (B, T, d) with no
padding, and `batch_targets` pads the step arrays on the right with PAD to
the longest utterance.  The causal mask keeps every real row from seeing a
pad row, and `compute_loss` is two `softmax_cross_entropy` calls that keep
only the positions whose target is not PAD, so what a pad step holds reaches
neither the loss nor any gradient.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .corpus import ConfigError, check_settings, finite_outputs, frame_matrix
from .tensor import (
    Tensor,
    add,
    affine,
    concat,
    embedding_lookup,
    mul,
    relu,
    reshape,
    rng_for,
    softmax_cross_entropy,
)


@dataclass
class ModelConfig:
    feat_dim: int = 8
    text_vocab: int = 20
    audio_vocab: int = 384
    d_model: int = 96
    blocks: int = 2
    heads: int = 4
    context: int = 256
    # the corpus renders 4 frames per symbol, so one decode step spans one symbol block
    group_size: int = 4
    prompt_len: int = 4
    projector: str = "linear"  # linear | conv1d | qformer
    group_frames: int = 4      # k: source frames merged per projected position
    proj_hidden: int = 128
    qformer_queries: int = 16
    qformer_dim: int = 64
    qformer_blocks: int = 2
    enc_dim: int = 64
    enc_blocks: int = 1
    enc_heads: int = 4
    fixed_input_len: int = 32
    freeze_text_embed: bool = True

    def __post_init__(self):
        check_settings(self, {"prompt_len": 0})
        if self.projector not in PROJECTORS:
            raise ConfigError(f"unknown projector kind {self.projector!r}")


class AugmentedVocab:
    """Ids of the decoder's joint vocabulary and of its two prediction heads.

    Embedding ids: [0, text) text symbols, [text, text+audio) audio tokens,
    then BOS, EOS_text, EOS_audio, PAD.  Each head predicts in its own compact
    local alphabet: the text head over the text symbols then the four controls,
    the audio head over the codebook ids then EOS and PAD.  The decoder works in
    these head-local ids end to end; `text_in` and `audio_in` map a local id to
    its embedding id, so targets and decoded picks enter the input unconverted.
    """

    def __init__(self, text_size: int, audio_size: int):
        self.text_size = text_size
        self.audio_size = audio_size
        self.bos = text_size + audio_size
        self.eos_text = text_size + audio_size + 1
        self.eos_audio = text_size + audio_size + 2
        self.pad = text_size + audio_size + 3
        self.total = text_size + audio_size + 4
        # audio head alphabet: codebook ids, then EOS, then PAD
        self.audio_eos_local = audio_size
        self.audio_pad_local = audio_size + 1
        self.audio_head_size = audio_size + 2
        # text head alphabet: text ids then the four controls
        self.text_eos_local = text_size + 1
        self.text_pad_local = text_size + 3
        self.text_head_size = text_size + 4
        self.text_in = np.concatenate([np.arange(text_size), self.bos + np.arange(4)])
        self.audio_in = np.concatenate([text_size + np.arange(audio_size),
                                        [self.eos_audio, self.pad]])


# --------------------------------------------------------- frozen encoder


class FrozenSpeechEncoder(nn.Module):
    """Fixed seeded transformer encoder over zero-padded/truncated source frames."""

    def __init__(self, cfg: ModelConfig, seed: int):
        rng = rng_for(seed, "frozen_speech_encoder")
        self.in_proj = nn.Linear(cfg.feat_dim, cfg.enc_dim, rng)
        self.blocks = [
            nn.TransformerBlock(cfg.enc_dim, cfg.enc_heads, rng) for _ in range(cfg.enc_blocks)
        ]
        self.ln = nn.LayerNorm(cfg.enc_dim)
        self.feat_dim = cfg.feat_dim
        self.fixed_input_len = cfg.fixed_input_len
        self.freeze()

    def encode(self, batch) -> Tensor:
        """(B, fixed_input_len, enc_dim) encodings of a batch of utterances."""
        t = self.fixed_input_len
        f = np.zeros((len(batch), t, self.feat_dim))
        for i, frames in enumerate(batch):
            # truncate or left-pad: content stays right-aligned, so each
            # utterance ends at the same slot regardless of length and
            # decoding sees stable offsets
            rows = frame_matrix(frames, self.feat_dim, "speech encoder")[:t]
            f[i, t - len(rows):] = rows
        x = nn.add_positions(self.in_proj(Tensor(f)))
        return self.ln(nn.run_blocks(self.blocks, x))


# -------------------------------------------------------------- projectors


def _frame_windows(a_f: Tensor, k: int) -> Tensor:
    """(..., T, d) -> (..., T // k, k * d): k consecutive frames per row, the
    tail dropped."""
    *lead, te, d = a_f.shape
    if te < k:
        raise ValueError(f"projector needs at least k={k} frames, got {te}")
    tp = te // k
    x = a_f
    if tp * k != te:  # keep the first tp * k rows of every utterance
        b = int(np.prod(lead))
        rows = (te * np.arange(b)[:, None] + np.arange(tp * k)).reshape(-1)
        x = embedding_lookup(reshape(a_f, (b * te, d)), rows)
    return reshape(x, (*lead, tp, k * d))


class LinearProjector(nn.Module):
    """Concatenate k consecutive frames, then a two-layer MLP to d_model."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.k = cfg.group_frames
        self.w1 = nn.Linear(self.k * cfg.enc_dim, cfg.proj_hidden, rng)
        self.w2 = nn.Linear(cfg.proj_hidden, cfg.d_model, rng)

    def project(self, a_f: Tensor) -> Tensor:
        return self.w2(relu(self.w1(_frame_windows(a_f, self.k))))


class Conv1dLinearProjector(nn.Module):
    """1-d convolution with kernel = stride = k, then a two-layer MLP."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.k = cfg.group_frames
        self.conv = nn.Linear(self.k * cfg.enc_dim, cfg.enc_dim, rng)
        self.w1 = nn.Linear(cfg.enc_dim, cfg.proj_hidden, rng)
        self.w2 = nn.Linear(cfg.proj_hidden, cfg.d_model, rng)

    def project(self, a_f: Tensor) -> Tensor:
        # kernel==stride makes the conv an independent linear map per window
        x = self.conv(_frame_windows(a_f, self.k))
        return self.w2(relu(self.w1(x)))


class QFormerProjector(nn.Module):
    """Learned queries cross-attend to the encoding; output length is always
    N_q.  Each utterance of a batch starts from the same queries."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        dq = cfg.qformer_dim
        self.queries = nn.param(rng, (cfg.qformer_queries, dq), scale=0.02)
        self.mem_proj = nn.Linear(cfg.enc_dim, dq, rng)
        self.blocks = [nn.TransformerBlock(dq, cfg.heads, rng, cross=True)
                       for _ in range(cfg.qformer_blocks)]
        self.ln = nn.LayerNorm(dq)
        self.out = nn.Linear(dq, cfg.d_model, rng)

    def project(self, a_f: Tensor) -> Tensor:
        if a_f.shape[-2] < 1:
            raise ValueError("projector needs a non-empty encoding")
        x = nn.run_blocks(self.blocks, nn.expand(self.queries, a_f.shape[:-2]),
                          memory=self.mem_proj(a_f))
        return self.out(self.ln(x))


PROJECTORS = {"linear": LinearProjector, "conv1d": Conv1dLinearProjector,
              "qformer": QFormerProjector}


def make_projector(cfg: ModelConfig, seed: int):
    return PROJECTORS[cfg.projector](cfg, rng_for(seed, f"projector.{cfg.projector}"))


# -------------------------------------------------------------- decoder LM


@dataclass
class DecodeConfig:
    """At most max_steps greedy steps, a whole number of at least 1: decoding
    stops when its step count equals max_steps, which a fraction never does."""
    max_steps: int = 64
    repetition_penalty: float = 1.2

    def __post_init__(self):
        check_settings(self, {})
        if not self.repetition_penalty > 0:
            raise ConfigError(f"repetition_penalty must be positive, got {self.repetition_penalty}")


@dataclass
class DecodeResult:
    tokens: list
    text: list
    steps: int
    token_steps: int
    truncated_text: bool
    truncated_audio: bool


def apply_repetition_penalty(logits: np.ndarray, emitted, rho: float) -> np.ndarray:
    """Discount logits of already-emitted ids: l/rho if positive, l*rho otherwise."""
    out = logits.copy()
    ids = set(emitted)
    if ids:
        i = np.fromiter(ids, np.int64, len(ids))
        x = out[i]
        out[i] = np.where(x > 0, x / rho, x * rho)
    return out


class DecoderLM(nn.Module):
    """Joint text+audio decoder over the augmented vocabulary.

    Input layout: [soft prompt | projected source | BOS | t_0 g_0 t_1 g_1 ...].
    The hidden state at BOS predicts step 0; the one at g_{s-1} predicts step s.
    Each prediction feeds two heads: text logits, and G x (audio+2) grouped
    audio logits.  A group enters the input as its G token embeddings
    concatenated and linearly projected to one position.  Teacher forcing, the
    loss and greedy decoding all read the step arrays `make_targets` lays out;
    `_step_rows` turns them into input rows, and `_feed_rows` builds one
    decode step's two rows from the same tables as plain arrays.

    Teacher forcing runs a batch's whole sequences through the blocks at
    once, right-padded to a common length.  Greedy decoding hands the prefix
    and its `longest` bound to `nn.decode_cached`, which owns the keys and
    values; what stays here is the context check, the bans, the picks off
    the two heads and the two rows each step's picks feed back.
    """

    def __init__(self, cfg: ModelConfig, seed: int):
        self.vocab = AugmentedVocab(cfg.text_vocab, cfg.audio_vocab)
        d, g = cfg.d_model, cfg.group_size
        rng = rng_for(seed, "decoder_lm")
        self.text_embed = Tensor(
            rng_for(seed, "decoder_lm.text_rows").normal(0.0, 0.02, (cfg.text_vocab, d)),
            requires_grad=not cfg.freeze_text_embed,
        )
        self.aux_embed = nn.param(rng, (cfg.audio_vocab + 4, d), scale=0.02)
        self.soft_prompt = nn.param(rng, (cfg.prompt_len, d), scale=0.02)
        self.group_proj = nn.Linear(g * d, d, rng)
        self.blocks = [nn.TransformerBlock(d, cfg.heads, rng) for _ in range(cfg.blocks)]
        self.ln_f = nn.LayerNorm(d)
        self.text_head = nn.Linear(d, self.vocab.text_head_size, rng)
        self.audio_head = nn.Linear(d, g * self.vocab.audio_head_size, rng)
        self.cfg = cfg

    def make_targets(self, text, tokens):
        """Step arrays in head-local ids: text (S,) and audio (S, G).

        EOS ends each stream, the audio stream is cut into rows of G, and PAD
        fills both to S = max(len(text) + 1, ceil((len(tokens) + 1) / G))
        steps.  These arrays are the teacher-forcing input and the loss target
        alike; loss masking hides PAD everywhere.
        """
        v = self.vocab
        g = self.cfg.group_size
        text = np.asarray(text, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        for what, ids, size in (("text symbol", text, v.text_size),
                                ("audio token", tokens, v.audio_size)):
            bad = ids[(ids < 0) | (ids >= size)]
            if bad.size:
                raise IndexError(f"{what} {bad[0]} outside [0, {size})")
        s = max(len(text) + 1, len(tokens) // g + 1)
        text_targets = np.full(s, v.text_pad_local)
        text_targets[: len(text)] = text
        text_targets[len(text)] = v.text_eos_local
        audio_targets = np.full(s * g, v.audio_pad_local)
        audio_targets[: len(tokens)] = tokens
        audio_targets[len(tokens)] = v.audio_eos_local
        return text_targets, audio_targets.reshape(s, g)

    def batch_targets(self, texts, tokens):
        """`make_targets` of each utterance, filled with PAD on the right to
        the longest one's L steps: text (B, L) and audio (B, L, G)."""
        text, audio = zip(*[self.make_targets(t, toks) for t, toks in zip(texts, tokens)])
        return (nn.right_pad(text, self.vocab.text_pad_local)[0],
                nn.right_pad(audio, self.vocab.audio_pad_local)[0])

    def _embed(self, ids) -> Tensor:
        """Rows of embedding ids, any shape, gathered from the aux table, or
        (text ids among them) the two stacked in id order.  No id array is all
        text: every text stream holds EOS or PAD, which are aux rows."""
        idx = np.asarray(ids, dtype=np.int64)
        aux = idx - self.vocab.text_size
        if (aux >= 0).all():
            return embedding_lookup(self.aux_embed, aux)
        return embedding_lookup(concat([self.text_embed, self.aux_embed]), idx)

    def _prefix(self, a_p: Tensor) -> list:
        """The input rows before the first step: soft prompt, source, BOS,
        with a_p's leading axes."""
        lead = a_p.shape[:-2]
        return [nn.expand(self.soft_prompt, lead), a_p,
                self._embed(np.full(lead + (1,), self.vocab.bos))]

    def _step_rows(self, text_local, audio_local) -> Tensor:
        """Input rows t_0, g_0, t_1, g_1, ... of the (..., S) text and
        (..., S, G) audio head-local step arrays, (..., 2S, d)."""
        v = self.vocab
        d = self.cfg.d_model
        *lead, s = np.shape(text_local)
        text_rows = self._embed(v.text_in[text_local])  # (..., S, d)
        audio_rows = self._embed(v.audio_in[audio_local])  # (..., S, G, d)
        group_rows = self.group_proj(reshape(audio_rows, (*lead, s, self.cfg.group_size * d)))
        # interleave rows: (..., S, 2d) -> (..., 2S, d) gives t_0, g_0, t_1, g_1, ...
        return reshape(concat([text_rows, group_rows], axis=-1), (*lead, 2 * s, d))

    def _feed_rows(self, text_pick, audio_picks) -> np.ndarray:
        """The (2, d) rows t, g of one step's head-local text pick and (G,)
        audio picks: `_step_rows` of that one step, as arrays."""
        v = self.vocab
        t = v.text_in[text_pick]
        text_row = (self.text_embed.data[t: t + 1] if t < v.text_size
                    else self.aux_embed.data[t - v.text_size: t - v.text_size + 1])
        audio_rows = self.aux_embed.data[v.audio_in[audio_picks] - v.text_size]  # (G, d)
        group_row = affine(audio_rows.reshape(1, -1), self.group_proj.w.data,
                           self.group_proj.b.data)
        return np.concatenate([text_row, group_row])

    # -- training ----------------------------------------------------------

    def forward_teacher_forced(self, a_p: Tensor, text_targets, audio_targets):
        """Logits for every step of `batch_targets`' (B, L) text and (B, L, G)
        audio arrays under teacher forcing, a_p being the (B, T', d) projected
        sources; a lone utterance may drop the batch axis throughout.

        Returns (audio_logits (B, L, G, audio_head), text_logits (B, L, text_head)).
        """
        v = self.vocab
        g = self.cfg.group_size
        text_targets = np.asarray(text_targets)
        audio_targets = np.asarray(audio_targets)
        *lead, s = text_targets.shape
        if s == 0:
            raise ValueError("teacher forcing needs at least one step")
        if audio_targets.shape != (*lead, s, g):
            raise ValueError(f"audio targets shape {audio_targets.shape} != steps {(*lead, s, g)}")
        seq = concat(self._prefix(a_p) + [self._step_rows(text_targets, audio_targets)], axis=-2)
        n, d = seq.shape[-2:]
        if n > self.cfg.context:
            raise ValueError(f"sequence length {n} exceeds context {self.cfg.context}")
        x = self.ln_f(nn.run_blocks(self.blocks, seq, causal=True))
        # BOS, then every grouped-audio position, of every utterance
        bos = self.cfg.prompt_len + a_p.shape[-2]
        b = int(np.prod(lead))
        rows = (n * np.arange(b)[:, None] + bos + 2 * np.arange(s)).reshape(-1)
        h = embedding_lookup(reshape(x, (b * n, d)), rows)
        text_logits = reshape(self.text_head(h), (*lead, s, v.text_head_size))
        audio_logits = reshape(self.audio_head(h), (*lead, s, g, v.audio_head_size))
        return audio_logits, text_logits

    # -- inference ---------------------------------------------------------

    def decode_greedy(self, a_p: Tensor, cfg: DecodeConfig) -> DecodeResult:
        """Greedy decoding of up to cfg.max_steps steps, checked against the
        context before the first one.  Step 0 reads the prefix's last row;
        step s feeds `nn.decode_cached` only t_{s-1} and g_{s-1}, the rows of
        step s-1's picks as make_targets lays them out, PAD after EOS."""
        v = self.vocab
        g = self.cfg.group_size
        longest = self.cfg.prompt_len + a_p.shape[0] + 1 + 2 * (cfg.max_steps - 1)
        if longest > self.cfg.context:
            raise ValueError(f"decoding {cfg.max_steps} steps needs {longest} positions, "
                             f"more than context {self.cfg.context}")
        text_ban = np.zeros(v.text_head_size)
        text_ban[v.text_size:] = -1e30  # controls, except EOS
        text_ban[v.text_eos_local] = 0.0
        audio_ban = np.zeros(v.audio_head_size)
        audio_ban[v.audio_pad_local] = -1e30
        text_w, text_b = self.text_head.w.data, self.text_head.b.data
        audio_w, audio_b = self.audio_head.w.data, self.audio_head.b.data
        text_out, tokens_out = [], []
        text_done = audio_done = False
        steps = token_steps = 0

        def step(last):
            nonlocal text_done, audio_done, steps, token_steps
            text_pick = v.text_pad_local
            audio_picks = np.full(g, v.audio_pad_local)
            if not text_done:
                tl = affine(last, text_w, text_b)[0] + text_ban
                tl = apply_repetition_penalty(tl, text_out, cfg.repetition_penalty)
                text_pick = int(tl.argmax())
                if text_pick == v.text_eos_local:
                    text_done = True
                else:
                    text_out.append(text_pick)
            if not audio_done:
                al = affine(last, audio_w, audio_b).reshape(g, v.audio_head_size) + audio_ban
                picks = al.argmax(axis=1)
                ends = (picks == v.audio_eos_local).nonzero()[0]
                k = int(ends[0]) if ends.size else g
                audio_picks[: k + 1] = picks[: k + 1]
                tokens_out.extend(picks[:k].tolist())
                token_steps += int(k > 0)
                audio_done = bool(ends.size)
            steps += 1
            if steps == cfg.max_steps or (text_done and audio_done):
                return None
            return self._feed_rows(text_pick, audio_picks)

        nn.decode_cached(self.blocks, self.ln_f, longest,
                         concat(self._prefix(a_p), axis=0).data, step)
        return DecodeResult(
            tokens=tokens_out,
            text=text_out,
            steps=steps,
            token_steps=token_steps,
            truncated_text=not text_done,
            truncated_audio=not audio_done,
        )


# ------------------------------------------------------------------- loss


def compute_loss(audio_logits: Tensor, text_logits: Tensor, audio_targets, text_targets,
                 vocab: AugmentedVocab, lambda_audio: float, lambda_text: float):
    """Joint objective: lambda_a * mean audio CE + lambda_t * mean text CE.

    The targets are the (B, L, G) audio and (B, L) text arrays of
    `batch_targets`, the logits those of `forward_teacher_forced`, all with
    their batch axis.  Each mean CE is one `softmax_cross_entropy` that keeps
    the positions whose target is not PAD: the mean over utterances of that
    utterance's mean, PAD excluded from both the sums and the denominators.
    Raises if a stream of some utterance has no unmasked position at all.
    """
    if audio_logits.data.ndim != 4 or text_logits.data.ndim != 3:
        raise ValueError(f"compute_loss takes batches: (B, L, G, V) audio and (B, L, V) text "
                         f"logits, got {audio_logits.shape} and {text_logits.shape}")
    at = np.asarray(audio_targets, dtype=np.int64)
    tt = np.asarray(text_targets, dtype=np.int64)
    loss_audio = softmax_cross_entropy(audio_logits, at, at != vocab.audio_pad_local)
    loss_text = softmax_cross_entropy(text_logits, tt, tt != vocab.text_pad_local)
    total = add(mul(loss_audio, lambda_audio), mul(loss_text, lambda_text))
    return total, loss_audio, loss_text


# ------------------------------------------------------------ full bundle


class TranslationModel(nn.Module):
    """Frozen encoder + projector + decoder, trained and decoded as one unit."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.encoder = FrozenSpeechEncoder(cfg, seed)
        self.projector = make_projector(cfg, seed)
        self.decoder = DecoderLM(cfg, seed)
        self.cfg = cfg
        self.recipe = {"cfg": asdict(cfg), "seed": seed}

    def project_source(self, batch) -> Tensor:
        """(B, T', d_model) projected sources of a batch of utterances."""
        return self.projector.project(self.encoder.encode(batch))

    def loss_for(self, frames, texts, tokens, lambda_audio: float, lambda_text: float):
        """Joint loss of a batch: per-utterance source frames, target symbols
        and target semantic tokens, each a sequence of B, with the loss
        weights of the training config.  Returns (total, audio CE, text CE),
        each the mean over utterances of that utterance's own loss."""
        text_targets, audio_targets = self.decoder.batch_targets(texts, tokens)
        audio_logits, text_logits = self.decoder.forward_teacher_forced(
            self.project_source(frames), text_targets, audio_targets
        )
        return compute_loss(audio_logits, text_logits, audio_targets, text_targets,
                            self.decoder.vocab, lambda_audio, lambda_text)

    def translate(self, frames, decode_cfg: DecodeConfig | None = None) -> DecodeResult:
        """Greedy decoding of one utterance; NumericError on a non-finite value."""
        with finite_outputs("translation"):
            a_p = self.project_source([frames])
            return self.decoder.decode_greedy(reshape(a_p, a_p.shape[1:]),
                                              decode_cfg or DecodeConfig())
