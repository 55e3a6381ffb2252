"""Training engine: Adam, warmup/decay schedule, early stopping, checkpoints.

The loop is deterministic given (config, seed): batch order is a seeded
per-epoch shuffle bucketed by example length, and all in-loop randomness flows
through one checkpointed generator.  Checkpoints carry parameters, optimizer
moments, auxiliary state arrays, the RNG state, and validation bookkeeping, so
resuming reproduces an uninterrupted run bit for bit.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import ConfigError, NumericError, ParseError, atomic_write, check_settings
from .tensor import Tape, backward, rng_for, seed_for, zero_grad


class VersionError(RuntimeError):
    """Checkpoint version or kind does not match what the reader expects."""


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    warmup_steps: int = 50
    decay_gamma: float = 0.85
    max_epochs: int = 4
    validate_every: int = 200
    lambda_audio: float = 1.0
    lambda_text: float = 1.0
    patience: int = 3
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_settings(self, {"seed": None})
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0 < self.decay_gamma <= 1:
            raise ConfigError(f"decay_gamma must be in (0, 1], got {self.decay_gamma}")


def lr_schedule(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to base lr, then one gamma decay per epoch: the epoch
    holding the first step after warmup applies gamma^0, so the rate is
    continuous at the boundary."""
    if step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    epochs_decayed = (step - 1) // steps_per_epoch - cfg.warmup_steps // steps_per_epoch
    return cfg.lr * cfg.decay_gamma ** epochs_decayed


class Adam:
    """Bias-corrected Adam over a named parameter dict; every step updates the
    moments and the parameter arrays in place, so arrays taken from them stay live."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict):
        self.params = dict(sorted(params.items()))
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# -------------------------------------------------------------- checkpoints

CKPT_MAGIC = b"DS2C"
CKPT_VERSION = 1


@dataclass
class CheckpointState:
    kind: str
    config: dict
    step: int
    tensors: dict
    rng_state: dict | None = None
    meta: dict = field(default_factory=dict)


def save_checkpoint(path, st: CheckpointState):
    """Write `st` to `path` through `atomic_write`, one tensor at a time: a
    crash or an error mid-write leaves any previous checkpoint as it was."""
    names = sorted(st.tensors)
    header = {
        "kind": st.kind,
        "config": st.config,
        "step": st.step,
        "rng_state": st.rng_state,
        "meta": st.meta,
        "tensors": [{"name": n, "shape": list(np.asarray(st.tensors[n]).shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = (np.ascontiguousarray(st.tensors[n], dtype="<f8").tobytes() for n in names)
    atomic_write(path, chain([CKPT_MAGIC, struct.pack("<IQ", CKPT_VERSION, len(blob)), blob],
                             tensors))


def load_checkpoint(path) -> CheckpointState:
    """Read a checkpoint; a file that does not hold exactly what its header
    declares raises ParseError, before any tensor is allocated, and so does a
    tensor holding a NaN or infinite value, naming it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (magic {magic!r})")
        fixed = fh.read(12)
        if len(fixed) != 12:
            raise ParseError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<IQ", fixed)
        if version != CKPT_VERSION:
            raise VersionError(
                f"{path}: checkpoint version {version}, this build reads {CKPT_VERSION}"
            )
        if hlen > size - 16:
            raise ParseError(f"{path}: truncated checkpoint header "
                             f"({size - 16} of {hlen} bytes)")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ParseError(f"{path}: corrupt checkpoint header ({exc})") from None
        if not isinstance(header, dict):
            raise ParseError(f"{path}: checkpoint header is not an object")
        for key, typ in (("kind", str), ("config", dict), ("step", int), ("tensors", list)):
            if type(header.get(key)) is not typ:
                raise ParseError(f"{path}: checkpoint header {key!r} is missing "
                                 f"or not of type {typ.__name__}")
        entries = header["tensors"]
        for entry in entries:
            if not (isinstance(entry, dict) and type(entry.get("name")) is str
                    and type(entry.get("shape")) is list
                    and all(type(n) is int and n >= 0 for n in entry["shape"])):
                raise ParseError(f"{path}: bad tensor entry {entry!r:.80}")
        counts = [math.prod(entry["shape"]) for entry in entries]
        have, need = size - 16 - hlen, 8 * sum(counts)
        if have != need:
            what = "truncated tensors" if have < need else "bytes trail the last tensor"
            raise ParseError(f"{path}: {what} ({have} bytes of tensor data, {need} declared)")
        tensors = {}
        for entry, count in zip(entries, counts):
            data = np.frombuffer(fh.read(8 * count), dtype="<f8")
            if not np.isfinite(data).all():
                raise ParseError(f"{path}: tensor {entry['name']!r} holds non-finite values")
            tensors[entry["name"]] = data.reshape(entry["shape"]).copy()
    return CheckpointState(
        kind=header["kind"],
        config=header["config"],
        step=header["step"],
        tensors=tensors,
        rng_state=header.get("rng_state"),
        meta=header.get("meta", {}),
    )


def load_arrays(tensors: dict, table: dict):
    """Copy each checkpoint array into its live array, `table` mapping its
    key to (what it is, live array); VersionError, before any copy, unless
    the checkpoint holds every key at its live array's shape."""
    copies = []
    for key, (what, into) in table.items():
        if key not in tensors:
            raise VersionError(f"checkpoint missing {what} {key!r}")
        src = np.asarray(tensors[key], dtype=np.float64)
        if src.shape != into.shape:
            raise VersionError(f"{what} {key!r}: checkpoint shape {src.shape} "
                               f"!= model shape {into.shape}")
        copies.append((into, src))
    for into, src in copies:
        into[...] = src


def expect_kind(st: CheckpointState, kind: str) -> CheckpointState:
    if st.kind != kind:
        raise VersionError(f"checkpoint holds a {st.kind!r} model, expected {kind!r}")
    return st


# ------------------------------------------------------------ train engine


@dataclass
class TrainResult:
    steps: int
    best_val: float
    val_history: list
    stopped_early: bool
    best_step: int
    state: CheckpointState  # what the checkpoint holds: the best state, else the last


def _epoch_batches(n: int, batch_size: int, epoch: int, seed: int, lengths=None):
    """Seeded shuffle, stable length bucketing, then shuffled batch order."""
    rng = rng_for(seed, f"train.order.epoch{epoch}")
    idx = list(rng.permutation(n))
    if lengths is not None:
        idx.sort(key=lambda i: lengths[i])  # stable: same-length items stay shuffled
    batches = [idx[i : i + batch_size] for i in range(0, n, batch_size)]
    order = rng.permutation(len(batches))
    return [batches[j] for j in order]


def train(*, params: dict, examples, loss_fn, val_fn, cfg: TrainConfig,
          lengths=None, state_arrays=None, on_epoch_end=None,
          checkpoint_path=None, log_path=None, resume_from: CheckpointState | None = None,
          kind: str = "model", config_snapshot: dict | None = None,
          max_steps: int | None = None) -> TrainResult:
    """Generic loop: batches -> loss_fn -> backward -> Adam, validating on schedule.

    loss_fn(batch, rng) returns (scalar loss Tensor, {name: float} extras);
    val_fn() returns a float; on_epoch_end(epoch, rng) runs once per finished
    epoch, unless an early stop ends the run at its last step.  Improvements
    (by >= min_delta) refresh the best weights (and the best checkpoint, when
    a path is given); `patience` flat validations stop the run; a non-finite
    loss aborts with NumericError, which names the best checkpoint only if
    this run wrote one.
    On return `params` hold the best weights (the resumed ones count as best
    so far), or the last weights if no validation improved; the result's
    `state` is that checkpoint state, in memory whether or not it was written.
    """
    n = len(examples)
    if n == 0:
        raise ConfigError("empty training set")
    state_arrays = state_arrays or {}
    bpe = math.ceil(n / cfg.batch_size)
    adam = Adam(params)
    rng = np.random.default_rng(seed_for(cfg.seed, "train.rng"))
    step = 0
    best_val = math.inf
    best_step = 0
    bad = 0
    val_history = []
    epochs_done = 0  # completed on_epoch_end callbacks
    best = resume_from  # checkpoint state at best_step
    written = False  # whether this run has saved a checkpoint
    # every array a checkpoint holds, by its key: all live, so nothing rebinds them
    table = {name: ("parameter", p.data) for name, p in params.items()}
    for prefix, moments in (("opt.m.", adam.m), ("opt.v.", adam.v)):
        table.update({prefix + name: ("moment", arr) for name, arr in moments.items()})
    table.update({f"state.{key}": ("state array", arr) for key, arr in state_arrays.items()})

    if resume_from is not None:  # checked whole before anything live changes
        st = resume_from
        missing = [k for k in ("adam_t", "best_val", "best_step", "bad", "val_history",
                               "epochs_done") if k not in st.meta]
        if missing:
            raise VersionError(f"checkpoint meta missing {missing}")
        load_arrays(st.tensors, table)
        adam.t = int(st.meta["adam_t"])
        step = st.step
        best_val = float(st.meta["best_val"])
        best_step = int(st.meta["best_step"])
        bad = int(st.meta["bad"])
        val_history = [tuple(v) for v in st.meta["val_history"]]
        epochs_done = int(st.meta["epochs_done"])
        if st.rng_state is not None:
            rng.bit_generator.state = st.rng_state

    def snapshot() -> CheckpointState:
        return CheckpointState(
            kind=kind,
            config=config_snapshot or {},
            step=step,
            tensors={key: np.array(arr, dtype=np.float64) for key, (_, arr) in table.items()},
            rng_state=rng.bit_generator.state,
            meta={
                "adam_t": adam.t,
                "best_val": best_val,
                "best_step": best_step,
                "bad": bad,
                "val_history": [list(v) for v in val_history],
                "epochs_done": epochs_done,
            },
        )

    def diverged(what: str) -> NumericError:
        kept = (f"best checkpoint (step {best_step}) retained" if written
                else "no checkpoint written")
        return NumericError(f"non-finite {what} at step {step}; {kept}")

    log_fh = open(log_path, "a" if resume_from is not None else "w") if log_path else None
    early = False
    batches = None
    try:
        while not early:
            # every finished epoch's callback runs before the next step or the
            # end of the run; a checkpoint written at an epoch's last step
            # predates that callback, so a resume from it runs it here too
            while on_epoch_end is not None and epochs_done < step // bpe:
                on_epoch_end(epochs_done, rng)
                epochs_done += 1
            if step >= cfg.max_epochs * bpe or (max_steps is not None and step >= max_steps):
                break
            if batches is None or step % bpe == 0:
                batches = _epoch_batches(n, cfg.batch_size, step // bpe, cfg.seed, lengths)
            batch = batches[step % bpe]
            step += 1
            lr = lr_schedule(step, bpe, cfg)
            with Tape() as tape:
                loss, extras = loss_fn([examples[i] for i in batch], rng)
            lval = float(loss.data)
            if not np.isfinite(lval):
                raise diverged("training loss")
            backward(loss, tape)
            adam.step(lr)
            zero_grad(params.values())
            if log_fh:
                rec = {"step": step, "loss": lval}
                rec.update({k: float(v) for k, v in sorted(extras.items())})
                rec["lr"] = lr
                log_fh.write(json.dumps(rec) + "\n")
            if step % cfg.validate_every == 0:
                val = float(val_fn())
                if not np.isfinite(val):
                    raise diverged("validation loss")
                val_history.append((step, val))
                if val <= best_val - cfg.min_delta:
                    best_val = val
                    best_step = step
                    bad = 0
                    best = snapshot()
                    if checkpoint_path:
                        save_checkpoint(checkpoint_path, best)
                        written = True
                else:
                    bad += 1
                    early = bad >= cfg.patience
    finally:
        if log_fh:
            log_fh.close()
    if best is None:
        best = snapshot()
        if checkpoint_path:
            save_checkpoint(checkpoint_path, best)
    else:
        for name, p in params.items():
            p.data[...] = best.tensors[name]
    return TrainResult(steps=step, best_val=best_val, val_history=val_history,
                       stopped_early=early, best_step=best_step, state=best)
