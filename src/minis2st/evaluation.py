"""Metrics, reports and the translation chain they score.

Corpus BLEU (n=1..4, add-one smoothing above unigrams, brevity penalty), a
reduced METEOR over exact unigram alignments, speaker similarity through the
fixed embedder, and the comparison reports the ablations render.
`translate_records` is the one inference chain: translate each record, then
speak each translation in the voice of its same-speaker prompt.

Translated speech is scored by re-quantizing the synthesized frames with the
trained tokenizer and reading symbols off the majority-vote alignment table;
this stands in for an external ASR system at this scale.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import atomic_write, cosine_similarity, frame_matrix


# ---------------------------------------------------------------- text metrics


def _ngrams(seq, n: int):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def corpus_bleu(hyps, refs) -> float:
    """Corpus-level BLEU in [0, 100].

    Geometric mean of clipped n-gram precisions for n=1..4 with add-one
    smoothing on n >= 2, times the brevity penalty exp(1 - r/c) when c < r.
    Identical corpora score exactly 100.0; zero unigram overlap scores 0.0.
    """
    if len(hyps) != len(refs):
        raise ValueError(f"corpus size mismatch: {len(hyps)} hyps vs {len(refs)} refs")
    if not hyps:
        raise ValueError("corpus_bleu needs a non-empty corpus")
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    log_p = 0.0
    for n in range(1, 5):
        match = 0
        total = 0
        for h, rf in zip(hyps, refs):
            hc = Counter(_ngrams(h, n))
            rc = Counter(_ngrams(rf, n))
            match += sum(min(k, rc[g]) for g, k in hc.items())
            total += max(0, len(h) - n + 1)
        if n >= 2:
            match += 1
            total += 1
        if match == 0 or total == 0:
            return 0.0
        log_p += math.log(match / total)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return float(100.0 * bp * math.exp(log_p / 4.0))


def meteor_lite(hyp, ref) -> float:
    """Unigram-only METEOR: harmonic mean F (recall-weighted, alpha=0.9) times
    a fragmentation penalty 0.5 * (chunks/matches)^3.

    Alignment is greedy left to right: each hypothesis token takes the first
    unmatched identical reference token.  Zero matches (including empty
    inputs) score 0.0.  Stemming and synonymy are out of scope.
    """
    hyp = list(hyp)
    ref = list(ref)
    taken = [False] * len(ref)
    pairs = []  # (hyp position, ref position)
    for hi, tok in enumerate(hyp):
        for ri, rtok in enumerate(ref):
            if not taken[ri] and rtok == tok:
                taken[ri] = True
                pairs.append((hi, ri))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f = p * r / (0.9 * p + 0.1 * r)
    chunks = 1
    for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]):
        if h1 != h0 + 1 or r1 != r0 + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return float(f * (1.0 - penalty))


def speaker_similarity(gen, prompt, embedder) -> float:
    """Cosine between speaker embeddings of generated and prompt frames; a
    generation with no frames (no audio tokens were decoded) scores 0.0."""
    if not len(frame_matrix(gen, embedder.feat_dim, "speaker embedder")):
        return 0.0
    return cosine_similarity(embedder.embed(gen), embedder.embed(prompt))


# -------------------------------------------------------------------- reports


@dataclass
class EvalRow:
    system: str
    count: int
    bleu: float | None = None
    meteor: float | None = None
    speaker_sim: float | None = None
    extras: dict = field(default_factory=dict)
    error: str | None = None

    def validate(self):
        if self.bleu is not None and not (0.0 <= self.bleu <= 100.0):
            raise ValueError(f"BLEU {self.bleu} outside [0, 100]")
        if self.meteor is not None and not (0.0 <= self.meteor <= 1.0):
            raise ValueError(f"METEOR {self.meteor} outside [0, 1]")
        if self.speaker_sim is not None and not (-1.0 <= self.speaker_sim <= 1.0):
            raise ValueError(f"speaker similarity {self.speaker_sim} outside [-1, 1]")


def score_corpus(system: str, hyps, refs, sims) -> EvalRow:
    """The row of a hypothesis corpus: corpus BLEU, mean METEOR-lite, and the
    mean speaker similarity unless `sims` is None."""
    return EvalRow(
        system=system,
        count=len(hyps),
        bleu=corpus_bleu(hyps, refs),
        meteor=float(np.mean([meteor_lite(h, rf) for h, rf in zip(hyps, refs)])),
        speaker_sim=None if sims is None else float(np.mean(sims)),
    )


@dataclass
class EvalReport:
    rows: list
    metadata: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def validate(self):
        for row in self.rows:
            row.validate()

    def render_text(self) -> str:
        self.validate()

        def fmt(v, spec):
            return "-" if v is None else format(v, spec)

        header = ["system", "bleu", "meteor", "spk_sim", "n"]
        lines = [[r.system, fmt(r.bleu, ".2f"), fmt(r.meteor, ".4f"),
                  fmt(r.speaker_sim, ".4f"), str(r.count)] for r in self.rows]
        widths = [max(len(header[i]), *(len(row[i]) for row in lines)) if lines else len(header[i])
                  for i in range(len(header))]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        for row in lines:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for r in self.rows:
            if r.error:
                out.append(f"{r.system}: FAILED: {r.error}")
        for note in self.notes:
            out.append(note)
        return "\n".join(out) + "\n"

    def to_kv(self) -> str:
        self.validate()
        lines = []
        for k in sorted(self.metadata):
            lines.append(f"meta.{k}={self.metadata[k]}")
        for r in self.rows:
            for name in ("bleu", "meteor", "speaker_sim", "count"):
                v = getattr(r, name)
                if v is not None:
                    lines.append(f"{r.system}.{name}={v}")
            for k in sorted(r.extras):
                lines.append(f"{r.system}.{k}={r.extras[k]}")
            if r.error:
                lines.append(f"{r.system}.error={r.error}")
        for i, note in enumerate(self.notes):
            lines.append(f"note.{i}={note}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> list:
        """report.txt and report.kv in `out_dir` (made if absent); their paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        txt, kv = out_dir / "report.txt", out_dir / "report.kv"
        atomic_write(txt, [self.render_text()])
        atomic_write(kv, [self.to_kv()])
        return [txt, kv]


# ------------------------------------------------- transcription stand-in


def transcribe_frames(frames, tokenizer, alignment: np.ndarray, frames_per_symbol: int) -> list:
    """Frames -> symbol ids: re-quantize, map tokens through the alignment
    table, then majority-vote each frames_per_symbol block (ties and unseen
    tokens resolve to the lowest symbol id / drop out respectively)."""
    if frames_per_symbol < 1:
        raise ValueError("frames_per_symbol must be >= 1")
    mu = tokenizer.tokenize(frames)
    syms = np.asarray(alignment, dtype=np.int64)[mu]
    out = []
    for lo in range(0, len(syms), frames_per_symbol):
        block = syms[lo : lo + frames_per_symbol]
        block = block[block >= 0]
        if block.size:
            out.append(int(np.bincount(block).argmax()))
    return out


def translate_records(model, vocoder, records, decode_cfg) -> list:
    """(DecodeResult, prompt frames, synthesized frames) per record, in order:
    every record is translated, then `vocoder` speaks each translation in the
    voice of its `vocoder.embedder.prompts` prompt.  With vocoder None, the
    prompt and the frames are None."""
    records = list(records)
    results = [model.translate(r.src_frames, decode_cfg) for r in records]
    if vocoder is None:
        return [(res, None, None) for res in results]
    return [(res, prompt, vocoder.synthesize(res.tokens, spk))
            for res, (prompt, spk) in zip(results, vocoder.embedder.prompts(records))]


def evaluate_translation(*, model, tokenizer, vocoder, alignment,
                         records, frames_per_symbol: int,
                         decode_cfg=None, system: str = "s2st"):
    """Full-chain scoring: `translate_records`, transcribe, then metrics.

    Returns (EvalRow, details) where details carries per-utterance
    hypotheses/references/similarities for inspection.
    """
    records = list(records)
    if not records:
        raise ValueError("evaluate_translation needs at least one record")
    hyps, refs, sims, texts = [], [], [], []
    chain = translate_records(model, vocoder, records, decode_cfg)
    for r, (res, prompt, gen) in zip(records, chain):
        hyps.append(transcribe_frames(gen, tokenizer, alignment, frames_per_symbol)
                    if gen.length else [])
        sims.append(speaker_similarity(gen, prompt, vocoder.embedder))
        refs.append(list(r.tgt_text))
        texts.append(list(res.text))
    row = score_corpus(system, hyps, refs, sims)
    row.extras = {"text_bleu": corpus_bleu(texts, refs)}
    row.validate()
    return row, {"hyps": hyps, "refs": refs, "sims": sims, "texts": texts}


def timbre_separation(*, vocoder, tokenizer, records, matched, mismatched) -> float:
    """Fraction of records where synthesis conditioned on the matched speaker
    lands closer (cosine) to that speaker's prompt than to a mismatched one."""
    records = list(records)
    if not records:
        raise ValueError("timbre_separation needs at least one record")
    wins = 0
    for r, mu in zip(records, tokenizer.tokenize_many([r.tgt_frames for r in records])):
        e_m = vocoder.embedder.embed(matched[r.id].tgt_frames)
        e_x = vocoder.embedder.embed(mismatched[r.id].tgt_frames)
        e_g = vocoder.embedder.embed(vocoder.synthesize(mu, e_m))
        wins += int(cosine_similarity(e_g, e_m) > cosine_similarity(e_g, e_x))
    return wins / len(records)


# ------------------------------------------------------------- loss curves


def steps_to_half_loss(trace):
    """First step (1-based) where the mean loss over a 10-step window falls
    to half the initial window's mean; None when the trace never gets there."""
    if not trace:
        return None
    w = min(10, len(trace))
    target = float(np.mean(trace[:w])) / 2.0
    for i in range(len(trace)):
        if float(np.mean(trace[max(0, i - w + 1) : i + 1])) <= target:
            return i + 1
    return None
