"""Bilingual utterance corpus: types, toy generator, similarity filter, disk formats.

A manifest is one file of line-delimited JSON: the first line metadata, then
one utterance per line, its source and target frames inline as base64 of the
bytes a frame file holds.  Frame files hold raw float64 little-endian data,
so round-trips are bit-exact.
"""
from __future__ import annotations

import base64
import json
import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .tensor import rng_for

FRAME_MAGIC = b"DS2F"
FRAME_VERSION = 1


class ParseError(ValueError):
    """Malformed manifest or frame file; message carries file and line."""


class ConfigError(ValueError):
    """A setting out of range: a `*Config` field, or a value a stage needs."""


def check_settings(cfg, floors: dict):
    """The rule every `*Config` checks first: ConfigError unless each `int`
    field of the dataclass `cfg` holds an integer at or above its floor, 1
    unless `floors` maps the field to another (None: no floor), and each
    `float` field a number v with 0 <= v < inf, which NaN fails."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type in ("int", int):
            floor = floors.get(f.name, 1)
            if not isinstance(v, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
            if floor is not None and v < floor:
                raise ConfigError(f"{f.name} must be >= {floor}, got {v}")
        elif f.type in ("float", float):
            if not (isinstance(v, numbers.Real) and 0 <= v < math.inf):
                raise ConfigError(f"{f.name} must be finite and >= 0, got {v!r}")


@dataclass
class SpeechFrames:
    """A (T, F) float64 feature matrix: T frames of F finite features each.
    Frame files and manifest records hold the matrix alone; the nominal frame
    rate is manifest metadata."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be 2-d (T, F), got shape {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise ValueError("frames contain non-finite values")

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other):
        if not isinstance(other, SpeechFrames):
            return NotImplemented
        return np.array_equal(self.frames, other.frames)


def frame_matrix(frames, width: int, what: str) -> np.ndarray:
    """`frames` (SpeechFrames or an array) as a 2-d float64 matrix `width` wide.

    ValueError naming `what` and both widths when the frames are not (T, width).
    """
    f = frames.frames if isinstance(frames, SpeechFrames) else np.asarray(frames, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"{what} expects (T, F) frames, got shape {f.shape}")
    if f.shape[1] != width:
        raise ValueError(f"{what} expects {width}-wide frames, got {f.shape[1]}-wide")
    return f


@dataclass
class UtterancePair:
    id: str
    src_text: list
    tgt_text: list
    src_frames: SpeechFrames
    tgt_frames: SpeechFrames
    speaker: str
    similarity: float


@dataclass
class Manifest:
    records: list
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def subset(self, records) -> Manifest:
        """A manifest of `records` with this one's metadata, frame count redone."""
        meta = dict(self.metadata)
        meta["frame_count"] = int(sum(r.src_frames.length for r in records))
        return Manifest(records=records, metadata=meta)


# ------------------------------------------------------------------ metrics


def cosine_similarity(a, b) -> float:
    """a.b / (|a||b|), clamped to [-1, 1].

    Both vectors zero is undefined and raises; exactly one zero returns 0.0
    (orthogonality convention).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"cosine_similarity: shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        raise ValueError("cosine_similarity undefined: both vectors are zero")
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def filter_by_similarity(m: Manifest, threshold: float = 0.9, inclusive: bool = False) -> Manifest:
    """Keep records with similarity above the threshold (strictly, by default).

    Order-preserving, never mutates records, idempotent at a fixed threshold.
    A NaN or infinite threshold raises ValueError: it would keep all or none.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"similarity threshold must be finite, got {threshold}")
    if inclusive:
        return m.subset([r for r in m.records if r.similarity >= threshold])
    return m.subset([r for r in m.records if r.similarity > threshold])


def same_speaker_prompts(records) -> dict:
    """id -> reference record of the same speaker (next one cyclically; a
    speaker with a single utterance prompts with itself)."""
    by_spk: dict = {}
    first: dict = {}  # (speaker, id) -> where that id first appears in the speaker's list
    for r in records:
        group = by_spk.setdefault(r.speaker, [])
        first.setdefault((r.speaker, r.id), len(group))
        group.append(r)
    out = {}
    for r in records:
        group = by_spk[r.speaker]
        out[r.id] = group[(first[r.speaker, r.id] + 1) % len(group)]
    return out


# ------------------------------------------------------------- toy corpus


@dataclass
class ToyCorpusConfig:
    src_vocab: int = 20
    tgt_vocab: int = 20
    len_min: int = 3
    len_max: int = 8
    pairs: int = 500
    speakers: int = 4
    feat_dim: int = 8
    frames_per_symbol: int = 4
    noise_std: float = 0.05
    speaker_offset_std: float = 0.3
    frame_rate: int = 50

    def __post_init__(self):
        check_settings(self, {"pairs": 0})
        if self.tgt_vocab < self.src_vocab:
            raise ConfigError(
                f"invertible symbol map needs tgt_vocab >= src_vocab "
                f"({self.tgt_vocab} < {self.src_vocab})"
            )
        if self.len_min > self.len_max:
            raise ConfigError(f"bad length range [{self.len_min}, {self.len_max}]")


def toy_symbol_map(cfg: ToyCorpusConfig, seed: int) -> list:
    """The published source->target symbol map: an injective seeded draw."""
    rng = rng_for(seed, "toy.symbol_map")
    return [int(v) for v in rng.permutation(cfg.tgt_vocab)[: cfg.src_vocab]]


def toy_templates(cfg: ToyCorpusConfig, seed: int, side: str) -> np.ndarray:
    """Per-symbol frame templates, shape (vocab, frames_per_symbol, feat_dim)."""
    vocab = cfg.src_vocab if side == "src" else cfg.tgt_vocab
    rng = rng_for(seed, f"toy.templates.{side}")
    return rng.normal(0.0, 1.0, size=(vocab, cfg.frames_per_symbol, cfg.feat_dim))


def render_symbols(symbols, templates, noise_std, rng, offset=None) -> np.ndarray:
    blocks = [templates[s] for s in symbols]
    frames = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, templates.shape[2]))
    if offset is not None:
        frames = frames + offset
    if noise_std > 0 and frames.size:
        frames = frames + rng.normal(0.0, noise_std, size=frames.shape)
    return frames


def generate_toy_corpus(cfg: ToyCorpusConfig, seed: int) -> Manifest:
    """Deterministic synthetic bilingual corpus.

    Target text is the symbol map applied to the reversed source sentence;
    frames render one fixed template block per symbol plus isotropic noise,
    and target frames additionally carry a per-speaker constant offset.
    """
    sym_map = toy_symbol_map(cfg, seed)
    src_tpl = toy_templates(cfg, seed, "src")
    tgt_tpl = toy_templates(cfg, seed, "tgt")
    spk_rng = rng_for(seed, "toy.speakers")
    offsets = spk_rng.normal(0.0, cfg.speaker_offset_std, size=(cfg.speakers, cfg.feat_dim))
    rng = rng_for(seed, "toy.pairs")

    records = []
    for i in range(cfg.pairs):
        n = int(rng.integers(cfg.len_min, cfg.len_max + 1))
        src = [int(s) for s in rng.integers(0, cfg.src_vocab, size=n)]
        tgt = [sym_map[s] for s in reversed(src)]
        spk = int(rng.integers(0, cfg.speakers))
        src_frames = render_symbols(src, src_tpl, cfg.noise_std, rng)
        tgt_frames = render_symbols(tgt, tgt_tpl, cfg.noise_std, rng, offset=offsets[spk])
        records.append(
            UtterancePair(
                id=f"utt{i:05d}",
                src_text=src,
                tgt_text=tgt,
                src_frames=SpeechFrames(src_frames),
                tgt_frames=SpeechFrames(tgt_frames),
                speaker=f"spk{spk}",
                similarity=1.0,
            )
        )

    metadata = {
        "name": "toy",
        "language_pair": "src-tgt",
        "frame_rate": cfg.frame_rate,
        "frame_count": int(sum(r.src_frames.length for r in records)),
        "src_vocab": cfg.src_vocab,
        "tgt_vocab": cfg.tgt_vocab,
        "feat_dim": cfg.feat_dim,
        "frames_per_symbol": cfg.frames_per_symbol,
        "speakers": cfg.speakers,
        "symbol_map": sym_map,
        "seed": seed,
    }
    return Manifest(records=records, metadata=metadata)


# ----------------------------------------------------------------- disk I/O


def atomic_write(path, chunks):
    """Write `chunks` (bytes, or str as UTF-8) to `path` through a sibling temp
    file that is synced and renamed over it: a crash or an error mid-write
    leaves any previous file at `path` as it was, and no temp file behind."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == tmp:  # name the caller's path, not the temp sibling
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)


def text_lines(path):
    """(line number, line) for each line of a UTF-8 text file; ParseError
    naming the file and line of the first bytes that are not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
            yield lineno, line


def encode_frames(sf: SpeechFrames) -> bytes:
    """The bytes of a frame file: magic, then version, rows and columns as
    little-endian uint32, then the rows as little-endian float64."""
    data = np.ascontiguousarray(sf.frames, dtype="<f8")
    return FRAME_MAGIC + struct.pack("<III", FRAME_VERSION, *data.shape) + data.tobytes()


def parse_frames(data: bytes, where: str) -> SpeechFrames:
    """The frames `encode_frames` wrote into `data`; ParseError starting with
    `where` for a bad magic, version or size, or a NaN or infinite value."""
    if data[:4] != FRAME_MAGIC:
        raise ParseError(f"{where}: bad magic {data[:4]!r}, expected {FRAME_MAGIC!r}")
    if len(data) < 16:
        raise ParseError(f"{where}: truncated frame header")
    version, t, f = struct.unpack_from("<III", data, 4)
    if version != FRAME_VERSION:
        raise ParseError(f"{where}: unsupported frame version {version}")
    if len(data) - 16 != 8 * t * f:
        what = "truncated payload" if len(data) - 16 < 8 * t * f else "bytes trail the payload"
        raise ParseError(f"{where}: {what} ({len(data) - 16} bytes, {8 * t * f} declared)")
    frames = np.frombuffer(data, dtype="<f8", offset=16).reshape(t, f).astype(np.float64)
    if not np.isfinite(frames).all():
        raise ParseError(f"{where}: frames contain non-finite values")
    return SpeechFrames(frames)


def write_frames(path, sf: SpeechFrames):
    atomic_write(path, [encode_frames(sf)])


def read_frames(path) -> SpeechFrames:
    return parse_frames(Path(path).read_bytes(), str(path))


def write_manifest(m: Manifest, path):
    """One file, replaced whole by one atomic_write: a metadata line, then one
    line per record holding its frames as base64 of their frame-file bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"manifest": m.metadata}, sort_keys=True)]
    for r in m.records:
        src, tgt = (base64.b64encode(encode_frames(sf)).decode("ascii")
                    for sf in (r.src_frames, r.tgt_frames))
        lines.append(json.dumps({"id": r.id, "speaker": r.speaker, "similarity": r.similarity,
                                 "src_text": list(r.src_text), "tgt_text": list(r.tgt_text),
                                 "src_frames": src, "tgt_frames": tgt}, sort_keys=True))
    atomic_write(path, (line + "\n" for line in lines))


# manifest record field -> (type check, what it wants), in constructor order
_STR = (lambda v: type(v) is str, "a string")
_SYMBOLS = (lambda v: type(v) is list and all(type(t) is int and t >= 0 for t in v),
            "a list of ints >= 0")
_RECORD_FIELDS = {"id": _STR, "src_text": _SYMBOLS, "tgt_text": _SYMBOLS, "src_frames": _STR,
                  "tgt_frames": _STR, "speaker": _STR,
                  # json reads NaN and Infinity; exact for any int, however large
                  "similarity": (lambda v: type(v) in (int, float)
                                 and abs(v) <= sys.float_info.max, "a finite number")}
# metadata values the readers use as sizes and rates
_META_INTS = ("frame_rate", "feat_dim", "tgt_vocab", "frames_per_symbol")


def check_record_id(rid: str, path, lineno: int, seen: dict):
    """ParseError at path:lineno unless `rid` can name a file inside an output
    directory and is not in `seen` (id -> line of its first occurrence), which
    it then joins: commands write one file per record, named by its id."""
    if rid in ("", ".", "..") or any(c.isspace() or c in "/\\" for c in rid):
        raise ParseError(f"{path}:{lineno}: record id {rid!r} cannot name a file: it is "
                         "empty, '.' or '..', or holds whitespace, '/' or '\\'")
    if rid in seen:
        raise ParseError(f"{path}:{lineno}: duplicate record id {rid!r} "
                         f"(first on line {seen[rid]})")
    seen[rid] = lineno


def read_manifest(path) -> Manifest:
    path = Path(path)
    records = []
    metadata = {}
    seen = {}
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid record: {e}") from e
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: record is not a JSON object")
        if lineno == 1 and "manifest" in obj:
            metadata = obj["manifest"]
            if not isinstance(metadata, dict):
                raise ParseError(f"{path}:1: manifest metadata is not a JSON object")
            for key in _META_INTS:
                if key in metadata and not (type(metadata[key]) is int and metadata[key] >= 1):
                    raise ParseError(f"{path}:1: metadata {key!r} is not an int >= 1")
            continue
        for key, (ok, what) in _RECORD_FIELDS.items():
            if key not in obj:
                raise ParseError(f"{path}:{lineno}: missing field {key!r}")
            if not ok(obj[key]):
                raise ParseError(f"{path}:{lineno}: field {key!r} is not {what}")
        vocab = metadata.get("tgt_vocab")
        if vocab is not None and any(t >= vocab for t in obj["tgt_text"]):
            raise ParseError(f"{path}:{lineno}: field 'tgt_text' holds a symbol >= "
                             f"metadata 'tgt_vocab' {vocab}")
        check_record_id(obj["id"], path, lineno, seen)
        frames = {}
        for key in ("src_frames", "tgt_frames"):
            where = f"{path}:{lineno}: field {key!r}"
            try:
                data = base64.b64decode(obj[key], validate=True)
            except ValueError as exc:  # binascii.Error, or a character beyond ASCII
                raise ParseError(f"{where}: not base64 ({exc})") from None
            f = parse_frames(data, where)
            if f.feat_dim != metadata.get("feat_dim", f.feat_dim):
                raise ParseError(f"{where}: {f.feat_dim} features, "
                                 f"metadata 'feat_dim' is {metadata['feat_dim']}")
            frames[key] = f
        records.append(
            UtterancePair(
                id=obj["id"],
                src_text=obj["src_text"],
                tgt_text=obj["tgt_text"],
                speaker=obj["speaker"],
                similarity=float(obj["similarity"]),
                **frames,
            )
        )
    return Manifest(records=records, metadata=metadata)


# -------------------------------------------------------------------- stats


def human_count(n: int) -> str:
    if n >= 1_000_000:
        return f"{n / 1_000_000:g}M"
    if n >= 1_000:
        return f"{n / 1_000:g}K"
    return str(n)


@dataclass
class StatsReport:
    records: int
    src_frames: int
    tgt_frames: int
    frame_rate: int
    per_speaker: dict

    @property
    def duration_s(self) -> float:
        """Duration proxy: source frames over the nominal frame rate."""
        return self.src_frames / self.frame_rate

    @property
    def duration_h(self) -> float:
        return self.duration_s / 3600.0

    def render_text(self) -> str:
        rows = [
            ("records", f"{self.records} ({human_count(self.records)})"),
            ("source frames", f"{self.src_frames} ({human_count(self.src_frames)})"),
            ("target frames", f"{self.tgt_frames} ({human_count(self.tgt_frames)})"),
            ("duration proxy", f"{self.duration_s:.1f} s ({self.duration_h:.1f} h)"),
        ]
        for spk in sorted(self.per_speaker):
            rows.append((f"speaker {spk}", str(self.per_speaker[spk])))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def corpus_stats(m: Manifest) -> StatsReport:
    per_speaker = {}
    for r in m.records:
        per_speaker[r.speaker] = per_speaker.get(r.speaker, 0) + 1
    return StatsReport(
        records=len(m.records),
        src_frames=int(sum(r.src_frames.length for r in m.records)),
        tgt_frames=int(sum(r.tgt_frames.length for r in m.records)),
        frame_rate=m.metadata.get("frame_rate", 50),
        per_speaker=per_speaker,
    )
