"""Token-to-frames synthesis with speaker-timbre conditioning.

The speaker embedder is a fixed seeded network (per-frame projection, mean+std
pooling, unit-norm output) and is never trained.  The vocoder proper is a
conditioned regression decoder: the speaker embedding is concatenated to every
token embedding, a small non-causal transformer contextualizes the sequence,
and an output head paints one frame per token, as the tokenizer emits one
token per frame.  A vocoder carries the embedder that conditions it
(`vocoder.embedder`) and records it in its recipe.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .corpus import (ConfigError, SpeechFrames, check_settings, finite_outputs, frame_matrix,
                     same_speaker_prompts)
from .tensor import Tensor, concat, embedding_lookup, rng_for, squared_error


@dataclass
class VocoderConfig:
    feat_dim: int = 8
    audio_vocab: int = 384
    token_dim: int = 16
    d_model: int = 32
    blocks: int = 1
    heads: int = 4
    spk_dim: int = 16

    def __post_init__(self):
        check_settings(self, {})


class SpeakerEmbedder:
    """Deterministic frames -> unit-norm speaker vector. Fixed weights, no grads."""

    def __init__(self, feat_dim: int, spk_dim: int = 16, seed: int = 0):
        if min(feat_dim, spk_dim) < 1:  # before any draw: 1 / sqrt(feat_dim) needs feat_dim >= 1
            raise ConfigError(f"speaker embedder sizes must be >= 1, got feat_dim {feat_dim}, "
                              f"spk_dim {spk_dim}")
        hidden = 32
        rng = rng_for(seed, "speaker_embedder")
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(feat_dim), size=(feat_dim, hidden))
        self.b1 = rng.normal(0.0, 0.1, size=hidden)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(2 * hidden), size=(2 * hidden, spk_dim))
        self.spk_dim = spk_dim
        self.feat_dim = feat_dim
        self.recipe = {"feat_dim": feat_dim, "spk_dim": spk_dim, "seed": seed}

    def expect(self, **sizes):
        """ValueError unless this embedder has these sizes, e.g. spk_dim=16."""
        for dim, size in sizes.items():
            if size != self.recipe[dim]:
                raise ValueError(f"{dim} {size} != embedder {dim} {self.recipe[dim]}")

    def embed(self, frames) -> np.ndarray:
        f = frame_matrix(frames, self.feat_dim, "speaker embedder")
        if f.shape[0] < 1:
            raise ValueError(f"speaker embedding needs at least one frame, got shape {f.shape}")
        a = np.tanh(f @ self.w1 + self.b1)
        pooled = np.concatenate([a.mean(axis=0), a.std(axis=0)])
        v = pooled @ self.w2
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ValueError("degenerate speaker embedding (zero norm)")
        return v / n

    def prompts(self, records) -> list:
        """(prompt frames, their embedding) per record, in record order: each
        record is spoken in the voice of its same-speaker reference."""
        records = list(records)
        refs = same_speaker_prompts(records)
        return [(refs[r.id].tgt_frames, self.embed(refs[r.id].tgt_frames)) for r in records]


class TimbreVocoder(nn.Module):
    def __init__(self, cfg: VocoderConfig, seed: int = 0, embedder: SpeakerEmbedder | None = None):
        if embedder is None:
            embedder = SpeakerEmbedder(cfg.feat_dim, cfg.spk_dim, seed=seed)
        embedder.expect(spk_dim=cfg.spk_dim, feat_dim=cfg.feat_dim)
        self.embedder = embedder
        rng = rng_for(seed, "vocoder")
        self.token_embed = nn.param(rng, (cfg.audio_vocab, cfg.token_dim), scale=0.02)
        self.in_proj = nn.Linear(cfg.token_dim + cfg.spk_dim, cfg.d_model, rng)
        self.blocks = [nn.TransformerBlock(cfg.d_model, cfg.heads, rng) for _ in range(cfg.blocks)]
        self.ln = nn.LayerNorm(cfg.d_model)
        self.head = nn.Linear(cfg.d_model, cfg.feat_dim, rng)
        self.cfg = cfg
        self.recipe = {"cfg": asdict(cfg), "seed": seed, "embedder": embedder.recipe}

    def forward_frames(self, tokens, spk: np.ndarray, mask) -> Tensor:
        """Differentiable synthesis of (B, T) token ids right-padded to the
        longest utterance, one (B, spk_dim) speaker row each, under their
        `nn.padding_mask`; output (B, T, feat_dim), one frame per token, rows
        past an utterance's own length being padding.  A lone utterance drops
        the batch axis: (T,) ids and a (spk_dim,) row give (T, feat_dim).
        """
        cfg = self.cfg
        spk = np.asarray(spk, dtype=np.float64)
        ids = np.asarray(tokens, dtype=np.int64)
        lead = ids.shape[:-1]
        if spk.shape != lead + (cfg.spk_dim,):
            raise ValueError(f"speaker embedding shape {spk.shape} != {lead + (cfg.spk_dim,)}")
        if (np.abs(np.linalg.norm(spk, axis=-1) - 1.0) > 1e-6).any():
            raise ValueError("speaker embedding must be unit-norm")
        bad = ids[(ids < 0) | (ids >= cfg.audio_vocab)]
        if bad.size:
            raise IndexError(f"token {bad[0]} outside codebook of size {cfg.audio_vocab}")
        t = ids.shape[-1]
        if t == 0:
            return Tensor(np.zeros(lead + (0, cfg.feat_dim)))
        emb = embedding_lookup(self.token_embed, ids)
        cond = Tensor(np.broadcast_to(spk[..., None, :], lead + (t, cfg.spk_dim)).copy())
        x = nn.add_positions(self.in_proj(concat([emb, cond], axis=-1)))
        return self.head(self.ln(nn.run_blocks(self.blocks, x, mask=mask)))

    def loss(self, tokens, spks: np.ndarray, frames) -> Tensor:
        """Mean over utterances of each one's frame MSE, for a batch of token
        sequences, their (B, spk_dim) speaker rows and target frames, one row
        per token.  Real frame entries weigh 1 / (B * T_b * F), pad frames
        nothing."""
        ids, n_tok = nn.right_pad(tokens, 0)
        target, n_rows = nn.right_pad([frame_matrix(f, self.cfg.feat_dim, "vocoder target")
                                       for f in frames], 0.0)
        if (n_rows != n_tok).any():
            raise ValueError("vocoder targets need one frame per token")
        out = self.forward_frames(ids, spks, nn.padding_mask(n_tok))
        real = np.arange(target.shape[1]) < n_rows[:, None]
        w = real / (len(n_rows) * n_rows[:, None] * self.cfg.feat_dim)
        return squared_error(out, target, w[:, :, None])

    def synthesize(self, tokens, spk: np.ndarray) -> SpeechFrames:
        """One frame per token in `spk`'s voice; NumericError on a non-finite value."""
        with finite_outputs("synthesis"):
            return SpeechFrames(self.forward_frames(list(tokens), spk, None).data)
