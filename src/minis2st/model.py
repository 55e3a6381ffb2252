"""Speech-to-speech translation model.

A frozen speech encoder reads padded source frames, a projector compresses the
encoding into the decoder's width and length budget, and a decoder LM with an
augmented text+audio vocabulary emits the target text stream and the semantic
token stream jointly.  Audio tokens are predicted G at a time from a single
hidden state; the input stream interleaves one text position with one grouped
audio position per step.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .corpus import SpeechFrames
from .tensor import (
    Tensor,
    add,
    concat,
    embedding_lookup,
    mul,
    no_grad,
    relu,
    reshape,
    rng_for,
    softmax_cross_entropy,
)


@dataclass
class ModelConfig:
    feat_dim: int = 8
    text_vocab: int = 20
    audio_vocab: int = 4096
    d_model: int = 128
    blocks: int = 4
    heads: int = 4
    context: int = 512
    group_size: int = 3
    prompt_len: int = 4
    projector: str = "linear"  # linear | conv1d | qformer
    group_frames: int = 4      # k: source frames merged per projected position
    proj_hidden: int = 128
    qformer_queries: int = 32
    qformer_dim: int = 128
    qformer_blocks: int = 2
    enc_dim: int = 64
    enc_blocks: int = 2
    enc_heads: int = 4
    fixed_input_len: int = 48
    freeze_text_embed: bool = True

    def validate(self):
        if self.projector not in ("linear", "conv1d", "qformer"):
            raise ValueError(f"unknown projector kind {self.projector!r}")
        if min(self.text_vocab, self.audio_vocab, self.d_model, self.blocks, self.heads,
               self.group_size, self.group_frames, self.fixed_input_len) < 1:
            raise ValueError("model config sizes must be >= 1")
        if self.prompt_len < 0:
            raise ValueError("prompt_len must be >= 0")


class AugmentedVocab:
    """Joint id space: text ids, then audio ids, then four control ids.

    Layout is [0, text) text symbols, [text, text+audio) audio tokens, then
    BOS, EOS_text, EOS_audio, PAD.  Each prediction head works in its own
    compact local alphabet; the maps below are bijections onto the global ids.
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

    def kind(self, gid: int) -> str:
        if 0 <= gid < self.text_size:
            return "text"
        if self.text_size <= gid < self.text_size + self.audio_size:
            return "audio"
        if self.text_size + self.audio_size <= gid < self.total:
            return "control"
        raise IndexError(f"id {gid} outside augmented vocabulary of size {self.total}")

    def audio_to_global(self, local: int) -> int:
        if 0 <= local < self.audio_size:
            return self.text_size + local
        if local == self.audio_eos_local:
            return self.eos_audio
        if local == self.audio_pad_local:
            return self.pad
        raise IndexError(f"audio-local id {local} outside [0, {self.audio_head_size})")

    def audio_from_global(self, gid: int) -> int:
        if self.text_size <= gid < self.text_size + self.audio_size:
            return gid - self.text_size
        if gid == self.eos_audio:
            return self.audio_eos_local
        if gid == self.pad:
            return self.audio_pad_local
        raise IndexError(f"global id {gid} has no audio-local counterpart")

    def text_to_global(self, local: int) -> int:
        if 0 <= local < self.text_size:
            return local
        if self.text_size <= local < self.text_head_size:
            return local + self.audio_size
        raise IndexError(f"text-local id {local} outside [0, {self.text_head_size})")

    def text_from_global(self, gid: int) -> int:
        if 0 <= gid < self.text_size:
            return gid
        if self.text_size + self.audio_size <= gid < self.total:
            return gid - self.audio_size
        raise IndexError(f"global id {gid} has no text-local counterpart")


# ------------------------------------------------------------------ grouping


@dataclass
class GroupedTokenSeq:
    groups: list
    group_size: int
    pad: int

    def __len__(self):
        return len(self.groups)


def group_tokens(tokens, group_size: int, pad: int) -> GroupedTokenSeq:
    """Pad to a multiple of group_size with `pad`, then cut into groups."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    toks = list(tokens)
    short = (-len(toks)) % group_size
    padded = toks + [pad] * short
    groups = [padded[i : i + group_size] for i in range(0, len(padded), group_size)]
    return GroupedTokenSeq(groups=groups, group_size=group_size, pad=pad)


def ungroup_tokens(grouped: GroupedTokenSeq) -> list:
    """Flatten groups and strip the trailing padding."""
    flat = [t for g in grouped.groups for t in g]
    while flat and flat[-1] == grouped.pad:
        flat.pop()
    return flat


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
        self.fixed_input_len = cfg.fixed_input_len
        self.freeze()

    def encode(self, frames) -> Tensor:
        f = frames.frames if isinstance(frames, SpeechFrames) else np.asarray(frames, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(f"encode expects (T, F) frames, got shape {f.shape}")
        t = self.fixed_input_len
        if f.shape[0] >= t:
            f = f[:t]
        else:
            # left-pad: content stays right-aligned, so each utterance ends at
            # the same slot regardless of length and decoding sees stable offsets
            f = np.concatenate([np.zeros((t - f.shape[0], f.shape[1])), f], axis=0)
        with no_grad():
            x = nn.add_positions(self.in_proj(Tensor(f)))
            return self.ln(nn.run_blocks(self.blocks, x))


# -------------------------------------------------------------- projectors


def _frame_windows(a_f: Tensor, k: int) -> Tensor:
    """(T, d) -> (T // k, k * d): k consecutive frames per row, the tail dropped."""
    te, d = a_f.shape
    if te < k:
        raise ValueError(f"projector needs at least k={k} frames, got {te}")
    tp = te // k
    x = a_f if tp * k == te else embedding_lookup(a_f, list(range(tp * k)))
    return reshape(x, (tp, k * d))


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
    """Learned queries cross-attend to the encoding; output length is always N_q."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        dq = cfg.qformer_dim
        self.queries = nn.param(rng, (cfg.qformer_queries, dq), scale=0.02)
        self.mem_proj = nn.Linear(cfg.enc_dim, dq, rng)
        self.blocks = [nn.TransformerBlock(dq, cfg.heads, rng, cross=True)
                       for _ in range(cfg.qformer_blocks)]
        self.ln = nn.LayerNorm(dq)
        self.out = nn.Linear(dq, cfg.d_model, rng)

    def project(self, a_f: Tensor) -> Tensor:
        if a_f.shape[0] < 1:
            raise ValueError("projector needs a non-empty encoding")
        x = nn.run_blocks(self.blocks, self.queries, memory=self.mem_proj(a_f))
        return self.out(self.ln(x))


def make_projector(cfg: ModelConfig, seed: int):
    rng = rng_for(seed, f"projector.{cfg.projector}")
    if cfg.projector == "linear":
        return LinearProjector(cfg, rng)
    if cfg.projector == "conv1d":
        return Conv1dLinearProjector(cfg, rng)
    if cfg.projector == "qformer":
        return QFormerProjector(cfg, rng)
    raise ValueError(f"unknown projector kind {cfg.projector!r}")


# -------------------------------------------------------------- decoder LM


@dataclass
class DecodeConfig:
    max_steps: int = 64
    repetition_penalty: float = 1.2


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
    for i in set(emitted):
        out[i] = out[i] / rho if out[i] > 0 else out[i] * rho
    return out


class DecoderLM(nn.Module):
    """Joint text+audio decoder over the augmented vocabulary.

    Input layout: [soft prompt | projected source | BOS | t_0 g_0 t_1 g_1 ...].
    The hidden state at BOS predicts step 0; the one at g_{s-1} predicts step s.
    Each prediction feeds two heads: text logits, and G x (audio+2) grouped
    audio logits.  A group enters the input as its G token embeddings
    concatenated and linearly projected to one position.
    """

    def __init__(self, cfg: ModelConfig, seed: int):
        cfg.validate()
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

    # -- embedding helpers ------------------------------------------------

    def embed_global(self, ids) -> Tensor:
        """Look up global ids across the split text/aux tables."""
        idx = np.asarray(list(ids), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab.total):
            raise IndexError(f"global id outside vocabulary of size {self.vocab.total}")
        is_text = idx < self.vocab.text_size
        t_idx = np.where(is_text, idx, 0)
        a_idx = np.where(is_text, 0, idx - self.vocab.text_size)
        t_mask = Tensor(is_text.astype(np.float64)[:, None])
        a_mask = Tensor((~is_text).astype(np.float64)[:, None])
        te = mul(embedding_lookup(self.text_embed, t_idx), t_mask)
        ae = mul(embedding_lookup(self.aux_embed, a_idx), a_mask)
        return add(te, ae)

    def _sequence(self, a_p: Tensor, text_in, groups_in) -> Tensor:
        """Assemble input embeddings: prompt, source, BOS, interleaved steps."""
        s = len(text_in)
        g = self.cfg.group_size
        parts = [self.soft_prompt, a_p, self.embed_global([self.vocab.bos])]
        if s:
            text_rows = self.embed_global(text_in)  # (S, d)
            flat = [gid for grp in groups_in for gid in grp]
            group_rows = self.group_proj(
                reshape(self.embed_global(flat), (s, g * self.cfg.d_model))
            )  # (S, d)
            # interleave rows: (S, 2d) -> (2S, d) gives t_0, g_0, t_1, g_1, ...
            parts.append(reshape(concat([text_rows, group_rows], axis=1), (2 * s, self.cfg.d_model)))
        seq = concat(parts, axis=0)
        if seq.shape[0] > self.cfg.context:
            raise ValueError(
                f"sequence length {seq.shape[0]} exceeds context {self.cfg.context}"
            )
        return seq

    def _hidden_at_predictions(self, a_p: Tensor, text_in, groups_in, n_steps: int) -> Tensor:
        seq = self._sequence(a_p, text_in, groups_in)
        x = self.ln_f(nn.run_blocks(self.blocks, seq, causal=True))
        base = self.cfg.prompt_len + a_p.shape[0]
        # BOS position, then every grouped-audio position
        pos = [base] + [base + 2 + 2 * s for s in range(n_steps - 1)]
        return embedding_lookup(x, pos)

    # -- training ----------------------------------------------------------

    def forward_teacher_forced(self, a_p: Tensor, text_targets, grouped: GroupedTokenSeq):
        """Logits for every step under teacher forcing.

        text_targets: text-local ids (symbols/EOS/PAD) per step.
        grouped: audio-local groups; missing steps on either stream are padded.
        Returns (audio_logits (S, G, audio_head), text_logits (S, text_head)).
        """
        v = self.vocab
        g = self.cfg.group_size
        if grouped.group_size != g:
            raise ValueError(f"grouped size {grouped.group_size} != model group size {g}")
        s = max(len(text_targets), len(grouped.groups))
        if s == 0:
            raise ValueError("teacher forcing needs at least one step")
        text_local = list(text_targets) + [v.text_pad_local] * (s - len(text_targets))
        groups_local = [list(grp) for grp in grouped.groups]
        groups_local += [[v.audio_pad_local] * g] * (s - len(groups_local))
        text_in = [v.text_to_global(t) for t in text_local]
        groups_in = [[v.audio_to_global(t) for t in grp] for grp in groups_local]
        h = self._hidden_at_predictions(a_p, text_in, groups_in, s)
        text_logits = self.text_head(h)
        audio_logits = reshape(self.audio_head(h), (s, g, v.audio_head_size))
        return audio_logits, text_logits

    # -- inference ---------------------------------------------------------

    def decode_greedy(self, a_p: Tensor, cfg: DecodeConfig) -> DecodeResult:
        v = self.vocab
        g = self.cfg.group_size
        if cfg.repetition_penalty <= 0:
            raise ValueError("repetition_penalty must be positive")
        text_ban = np.zeros(v.text_head_size)
        for lid in range(v.text_size, v.text_head_size):  # controls
            if lid != v.text_eos_local:
                text_ban[lid] = -1e30
        audio_ban = np.zeros(v.audio_head_size)
        audio_ban[v.audio_pad_local] = -1e30
        text_out, tokens_out = [], []
        text_in, groups_in = [], []
        text_done = audio_done = False
        steps = token_steps = 0
        with no_grad():
            for _ in range(cfg.max_steps):
                if text_done and audio_done:
                    break
                h = self._hidden_at_predictions(a_p, text_in, groups_in, len(text_in) + 1)
                last = embedding_lookup(h, [h.shape[0] - 1])
                steps += 1
                if not text_done:
                    tl = self.text_head(last).data[0] + text_ban
                    tl = apply_repetition_penalty(tl, text_out, cfg.repetition_penalty)
                    pick = int(np.argmax(tl))
                    if pick == v.text_eos_local:
                        text_done = True
                        text_in.append(v.eos_text)
                    else:
                        text_out.append(pick)
                        text_in.append(v.text_to_global(pick))
                else:
                    text_in.append(v.pad)
                if not audio_done:
                    al = reshape(self.audio_head(last), (g, v.audio_head_size)).data + audio_ban
                    grp_in = []
                    emitted = False
                    for row in al:
                        if audio_done:
                            grp_in.append(v.pad)
                            continue
                        pick = int(np.argmax(row))
                        if pick == v.audio_eos_local:
                            audio_done = True
                            grp_in.append(v.eos_audio)
                        else:
                            tokens_out.append(pick)
                            grp_in.append(v.audio_to_global(pick))
                            emitted = True
                    if emitted:
                        token_steps += 1
                    groups_in.append(grp_in)
                else:
                    groups_in.append([v.pad] * g)
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
                 vocab: AugmentedVocab, lambda_audio: float = 1.0, lambda_text: float = 1.0):
    """Joint objective: lambda_a * mean audio CE + lambda_t * mean text CE.

    PAD positions are excluded from both the sums and the denominators.
    Raises if a stream has no unmasked position at all.
    """
    at = np.asarray(audio_targets, dtype=np.int64)
    tt = np.asarray(text_targets, dtype=np.int64)
    s, g, wa = audio_logits.shape
    if at.shape != (s, g):
        raise ValueError(f"audio targets shape {at.shape} != logits steps {(s, g)}")
    if tt.shape != (text_logits.shape[0],):
        raise ValueError(
            f"text targets shape {tt.shape} != logits rows {text_logits.shape[0]}"
        )
    flat_logits = reshape(audio_logits, (s * g, wa))
    flat_t = at.reshape(-1)
    keep_a = np.nonzero(flat_t != vocab.audio_pad_local)[0]
    keep_t = np.nonzero(tt != vocab.text_pad_local)[0]
    if keep_a.size == 0 or keep_t.size == 0:
        raise ValueError("compute_loss: a stream is entirely PAD-masked")
    loss_audio = softmax_cross_entropy(
        embedding_lookup(flat_logits, keep_a), flat_t[keep_a]
    )
    loss_text = softmax_cross_entropy(
        embedding_lookup(text_logits, keep_t), tt[keep_t]
    )
    total = add(mul(loss_audio, lambda_audio), mul(loss_text, lambda_text))
    return total, loss_audio, loss_text


# ------------------------------------------------------------ full bundle


class TranslationModel(nn.Module):
    """Frozen encoder + projector + decoder, trained and decoded as one unit."""

    def __init__(self, cfg: ModelConfig, seed: int):
        cfg.validate()
        self.encoder = FrozenSpeechEncoder(cfg, seed)
        self.projector = make_projector(cfg, seed)
        self.decoder = DecoderLM(cfg, seed)
        self.cfg = cfg
        self.recipe = {"cfg": asdict(cfg), "seed": seed}

    def project_source(self, frames) -> Tensor:
        return self.projector.project(self.encoder.encode(frames))

    def make_targets(self, text, tokens):
        """Text/audio target streams in head-local alphabets.

        EOS is appended to both streams; the audio stream is then grouped with
        PAD fill, and loss masking hides PAD everywhere.
        """
        v = self.decoder.vocab
        for t in text:
            if not (0 <= t < v.text_size):
                raise IndexError(f"text symbol {t} outside [0, {v.text_size})")
        for t in tokens:
            if not (0 <= t < v.audio_size):
                raise IndexError(f"audio token {t} outside [0, {v.audio_size})")
        text_targets = list(text) + [v.text_eos_local]
        grouped = group_tokens(list(tokens) + [v.audio_eos_local],
                               self.cfg.group_size, v.audio_pad_local)
        return text_targets, grouped

    def loss_for(self, frames, text, tokens, lambda_audio: float = 1.0,
                 lambda_text: float = 1.0):
        text_targets, grouped = self.make_targets(text, tokens)
        a_p = self.project_source(frames)
        audio_logits, text_logits = self.decoder.forward_teacher_forced(
            a_p, text_targets, grouped
        )
        s = audio_logits.shape[0]
        at = [list(grp) for grp in grouped.groups]
        at += [[self.decoder.vocab.audio_pad_local] * self.cfg.group_size] * (s - len(at))
        tt = text_targets + [self.decoder.vocab.text_pad_local] * (s - len(text_targets))
        return compute_loss(audio_logits, text_logits, at, tt, self.decoder.vocab,
                            lambda_audio=lambda_audio, lambda_text=lambda_text)

    def translate(self, frames, decode_cfg: DecodeConfig | None = None) -> DecodeResult:
        a_p = self.project_source(frames)
        return self.decoder.decode_greedy(a_p, decode_cfg or DecodeConfig())
