import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from minis2st.corpus import ConfigError, ParseError
from minis2st.tensor import Tensor, _active_tape, squared_error
from minis2st.training import (
    Adam,
    CheckpointState,
    NumericError,
    TrainConfig,
    VersionError,
    _epoch_batches,
    expect_kind,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)


# ------------------------------------------------------------- lr schedule


def test_warmup_is_linear_in_step():
    cfg = TrainConfig(lr=1e-4, warmup_steps=50)
    assert lr_schedule(1, 10, cfg) == pytest.approx(2e-6)
    assert lr_schedule(25, 10, cfg) == pytest.approx(5e-5)
    assert lr_schedule(50, 10, cfg) == pytest.approx(1e-4)


def test_decay_applies_gamma_per_unit():
    # 300-step epochs: warmup ends in epoch 0, steps 400 and 900 sit in epochs 1 and 2
    cfg = TrainConfig(lr=1e-4, warmup_steps=50, decay_gamma=0.85)
    assert lr_schedule(51, 300, cfg) == pytest.approx(1e-4)
    assert lr_schedule(400, 300, cfg) == pytest.approx(8.5e-5)
    assert lr_schedule(900, 300, cfg) == pytest.approx(7.225e-5)


def test_schedule_is_continuous_at_warmup_boundary():
    cfg = TrainConfig(lr=3e-3, warmup_steps=7)
    # warmup ends mid-epoch (5-step epochs); that epoch applies gamma^0, so
    # the first post-warmup lr equals the peak
    assert lr_schedule(7, 5, cfg) == lr_schedule(8, 5, cfg) == 3e-3


@pytest.mark.parametrize("kw", [
    {"lr": 0.0},
    {"lr": -1e-4},
    {"batch_size": 0},
    {"warmup_steps": 0},
    {"max_epochs": 0},
    {"validate_every": 0},
    {"patience": 0},
    {"decay_gamma": 0.0},
    {"decay_gamma": 1.2},
    {"lambda_audio": -0.5},
    {"lambda_text": -1.0},
    {"min_delta": -1e-9},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw)


def test_config_accepts_gamma_of_one():
    assert TrainConfig(decay_gamma=1.0).decay_gamma == 1.0


def test_config_accepts_numpy_integer_counts():
    cfg = TrainConfig(batch_size=np.int64(4), patience=np.int32(2), seed=np.int64(3))
    assert (cfg.batch_size, cfg.patience, cfg.seed) == (4, 2, 3)


# -------------------------------------------------------------------- adam


def _reference_adam_step(data, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return data - lr * mhat / (np.sqrt(vhat) + eps), m, v


def test_adam_matches_hand_stepped_oracle():
    rng = np.random.default_rng(7)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    adam = Adam({"w": w, "b": b})
    ref = {
        "w": (w.data.copy(), np.zeros_like(w.data), np.zeros_like(w.data)),
        "b": (b.data.copy(), np.zeros_like(b.data), np.zeros_like(b.data)),
    }
    for t in range(1, 6):
        gw = rng.standard_normal(w.data.shape)
        gb = rng.standard_normal(b.data.shape)
        w.grad, b.grad = gw, gb
        adam.step(1e-2)
        for name, g in (("w", gw), ("b", gb)):
            d, m, v = ref[name]
            ref[name] = _reference_adam_step(d, g, m, v, t, 1e-2)
    for name, p in (("w", w), ("b", b)):
        # the moments are checkpointed, so they must match as well as the weights
        for got, want in zip((p.data, adam.m[name], adam.v[name]), ref[name]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert adam.t == 5


def test_adam_treats_missing_grad_as_zero():
    w = Tensor(np.ones(3), requires_grad=True)
    before = w.data.copy()
    adam = Adam({"w": w})
    w.grad = None
    adam.step(0.1)
    np.testing.assert_array_equal(w.data, before)


def test_adam_steps_every_array_in_place():
    w = Tensor(np.ones(3), requires_grad=True)
    adam = Adam({"w": w})
    held = (w.data, adam.m["w"], adam.v["w"])
    w.grad = np.full(3, 0.5)
    adam.step(0.1)
    assert all(now is then for now, then in zip((w.data, adam.m["w"], adam.v["w"]), held))
    assert not np.array_equal(w.data, np.ones(3))


# ------------------------------------------------------------- checkpoints


def _sample_state(rng_state=None):
    return CheckpointState(
        kind="model",
        config={"d_model": 8, "name": "toy"},
        step=17,
        tensors={
            "b.bias": np.arange(5, dtype=np.float64),
            "a.w": np.linspace(-1, 1, 12).reshape(3, 4),
            "scalarish": np.array(2.5),
        },
        rng_state=rng_state,
        meta={"best_val": 0.25, "adam_t": 17},
    )


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    gen = np.random.default_rng(3)
    st = _sample_state(rng_state=gen.bit_generator.state)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, st)
    back = load_checkpoint(path)
    assert back.kind == st.kind
    assert back.config == st.config
    assert back.step == st.step
    assert back.meta == st.meta
    assert back.rng_state == st.rng_state
    assert sorted(back.tensors) == sorted(st.tensors)
    for name in st.tensors:
        np.testing.assert_array_equal(back.tensors[name], st.tensors[name])
        assert back.tensors[name].shape == np.asarray(st.tensors[name]).shape


def test_checkpoint_resave_is_byte_identical(tmp_path):
    st = _sample_state()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, st)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_load_rejects_truncated_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _sample_state())
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)


def test_load_rejects_future_version(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _sample_state())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_expect_kind_gates_on_kind(tmp_path):
    st = _sample_state()
    assert expect_kind(st, "model") is st
    with pytest.raises(VersionError):
        expect_kind(st, "vocoder")


# ------------------------------------------------------------- batch order


def test_epoch_batches_cover_every_index_once():
    for n, bs in [(1, 1), (7, 3), (16, 4), (23, 8)]:
        batches = _epoch_batches(n, bs, epoch=0, seed=5)
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(n))
        assert all(len(b) <= bs for b in batches)


def test_epoch_batches_deterministic_but_epoch_sensitive():
    a = _epoch_batches(32, 4, epoch=2, seed=9)
    b = _epoch_batches(32, 4, epoch=2, seed=9)
    c = _epoch_batches(32, 4, epoch=3, seed=9)
    assert a == b
    assert a != c


def test_epoch_batches_bucket_by_length():
    n, bs = 20, 4
    rng = np.random.default_rng(0)
    lengths = list(rng.permutation(n))  # distinct lengths: bucketing is unambiguous
    batches = _epoch_batches(n, bs, epoch=1, seed=3, lengths=lengths)
    order = sorted(range(n), key=lambda i: lengths[i])
    expected = {frozenset(order[i : i + bs]) for i in range(0, n, bs)}
    assert {frozenset(b) for b in batches} == expected


# ------------------------------------------------------------- train loop


def _make_problem(seed=0, n=8, dim=4, noisy=False):
    """Quadratic fit: params pulled toward a fixed target, optional rng noise."""
    gen = np.random.default_rng(seed)
    w = Tensor(gen.standard_normal(dim), requires_grad=True)
    target = gen.standard_normal(dim)

    def loss_fn(batch, rng):
        t = target + (rng.standard_normal(dim) * 0.1 if noisy else 0.0)
        return squared_error(w, t, 1.0 / dim), {"batch_n": float(len(batch))}

    def val_fn():
        return float(np.mean((w.data - target) ** 2))

    return {"w": w}, list(range(n)), loss_fn, val_fn


def test_train_happy_path_logs_and_converges(tmp_path):
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=2, max_epochs=6,
                      validate_every=4, patience=10, seed=1)
    log = tmp_path / "train.log.jsonl"
    res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                cfg=cfg, log_path=str(log))
    assert res.steps == 12  # 8 examples / batch 4 = 2 steps x 6 epochs
    assert not res.stopped_early
    assert [s for s, _ in res.val_history] == [4, 8, 12]
    assert res.best_val == min(v for _, v in res.val_history)
    assert res.best_step in (4, 8, 12)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in rows] == list(range(1, 13))
    assert all(set(r) == {"step", "loss", "batch_n", "lr"} for r in rows)
    assert rows[0]["lr"] == pytest.approx(0.05 / 2)
    assert rows[-1]["loss"] < rows[0]["loss"]


def test_logged_lr_follows_warmup_then_per_epoch_decay(tmp_path):
    # 9 examples in batches of 3: 3-step epochs; warmup ends inside epoch 1,
    # which keeps the peak rate, and each later epoch halves it
    params, examples, loss_fn, val_fn = _make_problem(n=9)
    cfg = TrainConfig(lr=0.5, batch_size=3, warmup_steps=4, decay_gamma=0.5, max_epochs=4,
                      validate_every=100, patience=3)
    log = tmp_path / "train.log.jsonl"
    res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                cfg=cfg, log_path=str(log))
    assert res.steps == 12
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["lr"] for r in rows] == [0.125, 0.25, 0.375, 0.5,  # warmup
                                       0.5, 0.5,  # rest of epoch 1
                                       0.25, 0.25, 0.25,  # epoch 2
                                       0.125, 0.125, 0.125]  # epoch 3


def test_epoch_callbacks_around_a_validation_at_an_epoch_end():
    # 2-step epochs validated at their last step; a constant validation loss
    # improves once (step 2), then is flat at steps 4 and 6
    def run(max_steps=None, **kw):
        params, examples, loss_fn, _ = _make_problem()
        cfg = replace(TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=50,
                                  validate_every=2, patience=50), **kw)
        seen = []
        res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=lambda: 1.0,
                    cfg=cfg, on_epoch_end=lambda epoch, rng: seen.append(epoch),
                    max_steps=max_steps)
        return res, seen

    # an early stop at step 6 ends the run before epoch 2's callback
    res, seen = run(patience=2)
    assert res.stopped_early and res.steps == 6
    assert seen == [0, 1]
    # a cap at the same step lets it run
    res, seen = run(max_steps=6)
    assert not res.stopped_early and res.steps == 6
    assert seen == [0, 1, 2]
    # a run that ends after max_epochs runs every epoch's callback
    res, seen = run(max_epochs=3)
    assert not res.stopped_early and res.steps == 6
    assert seen == [0, 1, 2]


def test_train_rejects_empty_example_list():
    params, _, loss_fn, val_fn = _make_problem()
    with pytest.raises(ConfigError):
        train(params=params, examples=[], loss_fn=loss_fn, val_fn=val_fn,
              cfg=TrainConfig())


def test_early_stopping_counts_flat_validations(tmp_path):
    params, examples, loss_fn, _ = _make_problem()
    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=3, seed=2)
    res = train(params=params, examples=examples, loss_fn=loss_fn,
                val_fn=lambda: 1.0, cfg=cfg)
    # first validation improves on inf, then `patience` flat ones end the run
    assert res.stopped_early
    assert len(res.val_history) == 1 + cfg.patience
    assert res.steps == 2 * (1 + cfg.patience)
    assert res.best_step == 2


def test_max_steps_caps_without_early_stop_flag():
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=100, patience=3)
    res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                cfg=cfg, max_steps=3)
    assert res.steps == 3
    assert not res.stopped_early


def test_nan_loss_raises_and_keeps_best_checkpoint(tmp_path):
    params, examples, good_loss, _ = _make_problem()
    calls = {"n": 0}

    def loss_fn(batch, rng):
        calls["n"] += 1
        if calls["n"] == 5:
            # the finite check fires before backward, so no tape link needed
            return Tensor(np.array(math.nan)), {}
        return good_loss(batch, rng)

    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=10, seed=3)
    ckpt = tmp_path / "best.ckpt"
    with pytest.raises(NumericError, match="step 5"):
        train(params=params, examples=examples, loss_fn=loss_fn,
              val_fn=lambda: 1.0, cfg=cfg, checkpoint_path=str(ckpt))
    # the improvement at step 2 was flushed to disk before the blow-up
    assert ckpt.exists()
    assert load_checkpoint(ckpt).step == 2


@pytest.mark.parametrize("with_path", [False, True])
def test_nan_loss_before_any_validation_names_no_checkpoint(tmp_path, with_path):
    params, examples, good_loss, _ = _make_problem()
    calls = {"n": 0}

    def loss_fn(batch, rng):
        calls["n"] += 1
        return (Tensor(np.array(math.nan)), {}) if calls["n"] == 3 else good_loss(batch, rng)

    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=10, patience=10)
    ckpt = tmp_path / "best.ckpt"
    with pytest.raises(NumericError) as err:
        train(params=params, examples=examples, loss_fn=loss_fn, val_fn=lambda: 1.0,
              cfg=cfg, checkpoint_path=str(ckpt) if with_path else None)
    assert str(err.value) == "non-finite training loss at step 3; no checkpoint written"
    assert not ckpt.exists()


def test_nan_validation_raises_numeric_error():
    params, examples, loss_fn, _ = _make_problem()
    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=2,
                      validate_every=2, patience=10)
    with pytest.raises(NumericError, match="validation"):
        train(params=params, examples=examples, loss_fn=loss_fn,
              val_fn=lambda: math.inf, cfg=cfg)


def test_fallback_checkpoint_written_when_no_validation_ran(tmp_path):
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=1e-3, batch_size=4, warmup_steps=1, max_epochs=1,
                      validate_every=100, patience=3)
    ckpt = tmp_path / "last.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
          cfg=cfg, checkpoint_path=str(ckpt), kind="tokenizer",
          config_snapshot={"note": 1})
    st = load_checkpoint(ckpt)
    assert st.kind == "tokenizer"
    assert st.config == {"note": 1}
    assert st.step == 2


def test_train_returns_best_weights_without_a_checkpoint():
    params, examples, loss_fn, _ = _make_problem()
    scripted = iter([3.0, 1.0, 2.0, 2.5])  # best at the second of four validations
    seen = {}

    def val_fn():
        seen[len(seen) + 1] = params["w"].data.copy()
        return next(scripted)

    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=10, seed=4)
    res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                cfg=cfg, max_steps=8)
    assert res.steps == 8 and res.best_step == 4
    np.testing.assert_array_equal(params["w"].data, seen[2])
    assert not np.array_equal(params["w"].data, seen[4])


def test_resumed_weights_count_as_best_so_far(tmp_path):
    params, examples, loss_fn, _ = _make_problem()
    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=10, seed=4)
    ckpt = tmp_path / "best.ckpt"
    scripted = iter([1.0, 0.5])
    train(params=params, examples=examples, loss_fn=loss_fn,
          val_fn=lambda: next(scripted), cfg=cfg, checkpoint_path=str(ckpt), max_steps=4)
    st = load_checkpoint(ckpt)
    assert st.step == 4
    scripted = iter([0.9, 0.8])  # no improvement on the resumed best of 0.5
    train(params=params, examples=examples, loss_fn=loss_fn,
          val_fn=lambda: next(scripted), cfg=cfg, resume_from=st, max_steps=8)
    np.testing.assert_array_equal(params["w"].data, st.tensors["w"])


def test_train_restores_and_resumes_into_the_live_arrays(tmp_path):
    # an array taken from a parameter before train() holds what it returns
    params, examples, loss_fn, _ = _make_problem()
    held = params["w"].data
    scripted = iter([3.0, 1.0, 2.0, 2.5])  # best at the second of four validations
    seen = {}

    def val_fn():
        seen[len(seen) + 1] = held.copy()
        return next(scripted)

    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=10, seed=4)
    ckpt = tmp_path / "best.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn, cfg=cfg,
          checkpoint_path=str(ckpt), max_steps=8)
    assert params["w"].data is held
    np.testing.assert_array_equal(held, seen[2])

    st = load_checkpoint(ckpt)
    params, examples, loss_fn, _ = _make_problem(seed=1)
    held = params["w"].data
    scripted = iter([1.5, 2.0])  # no improvement on the resumed best of 1.0
    train(params=params, examples=examples, loss_fn=loss_fn,
          val_fn=lambda: next(scripted), cfg=cfg, resume_from=st, max_steps=8)
    assert params["w"].data is held
    np.testing.assert_array_equal(held, st.tensors["w"])


def test_train_keeps_last_weights_when_no_validation_ran():
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=1,
                      validate_every=100, patience=3)
    before = params["w"].data.copy()
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn, cfg=cfg)
    assert not np.array_equal(params["w"].data, before)


def test_result_state_is_the_checkpoint_written(tmp_path):
    # with and without an improving validation (best state vs fallback)
    for validate_every in (2, 100):
        params, examples, loss_fn, val_fn = _make_problem()
        cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=50,
                          validate_every=validate_every, patience=10, seed=4)
        scripted = iter([3.0, 1.0, 2.0, 2.5])
        ckpt, again = tmp_path / "run.ckpt", tmp_path / "again.ckpt"
        res = train(params=params, examples=examples, loss_fn=loss_fn,
                    val_fn=lambda: next(scripted), cfg=cfg, checkpoint_path=str(ckpt),
                    max_steps=8, kind="tokenizer", config_snapshot={"note": 1})
        save_checkpoint(again, res.state)
        assert again.read_bytes() == ckpt.read_bytes()
        assert res.state.step == (4 if validate_every == 2 else 8)


def test_each_step_frees_its_tape_without_the_cyclic_collector():
    params, examples, good_loss, val_fn = _make_problem()
    tapes = []

    def loss_fn(batch, rng):
        tapes.append(weakref.ref(_active_tape()))
        return good_loss(batch, rng)

    cfg = TrainConfig(lr=0.05, batch_size=4, warmup_steps=1, max_epochs=50,
                      validate_every=2, patience=10)
    gc.collect()
    gc.disable()
    try:
        train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, max_steps=6)
        assert len(tapes) == 6
        assert all(ref() is None for ref in tapes)
    finally:
        gc.enable()


def test_resume_missing_parameter_or_state_is_version_error(tmp_path):
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=1e-2, batch_size=4, warmup_steps=1, max_epochs=4,
                      validate_every=2, patience=10, seed=4)
    ckpt = tmp_path / "run.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
          cfg=cfg, checkpoint_path=str(ckpt), max_steps=2)
    st = load_checkpoint(ckpt)

    extra = dict(params)
    extra["stray"] = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(VersionError, match="parameter"):
        train(params=extra, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, resume_from=st)
    with pytest.raises(VersionError, match="state array"):
        train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
              cfg=cfg, resume_from=st, state_arrays={"ctr": np.zeros(1)})
    for key in ("opt.m.w", "opt.v.w"):
        tensors = {k: v for k, v in st.tensors.items() if k != key}
        with pytest.raises(VersionError, match=f"checkpoint missing moment '{key}'"):
            train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                  cfg=cfg, resume_from=replace(st, tensors=tensors))
    for key in ("adam_t", "best_val", "best_step", "bad", "val_history", "epochs_done"):
        meta = {k: v for k, v in st.meta.items() if k != key}
        with pytest.raises(VersionError, match=f"checkpoint meta missing .*'{key}'"):
            train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                  cfg=cfg, resume_from=replace(st, meta=meta))


def test_a_failed_resume_leaves_the_live_arrays_as_they_were(tmp_path):
    # every checkpoint entry is checked before any is copied, so a resume
    # whose last-keyed entry is missing or mis-shaped changes nothing
    params, examples, loss_fn, val_fn = _make_problem()
    cfg = TrainConfig(lr=1e-2, batch_size=4, warmup_steps=1, max_epochs=4,
                      validate_every=2, patience=10, seed=4)
    ckpt = tmp_path / "run.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
          cfg=cfg, checkpoint_path=str(ckpt), max_steps=2)
    st = load_checkpoint(ckpt)
    params, examples, loss_fn, val_fn = _make_problem(seed=9)
    w = params["w"].data.copy()
    assert not np.array_equal(w, st.tensors["w"])
    ctr = np.array([5.0])
    for resumed, match in ((st, "checkpoint missing state array 'state.ctr'"),
                           (replace(st, tensors={**st.tensors, "state.ctr": np.zeros(2)}),
                            r"'state.ctr': checkpoint shape \(2,\) != model shape \(1,\)")):
        with pytest.raises(VersionError, match=match):
            train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                  cfg=cfg, resume_from=resumed, state_arrays={"ctr": ctr})
        np.testing.assert_array_equal(params["w"].data, w)
        np.testing.assert_array_equal(ctr, [5.0])


def test_resume_refuses_a_mis_shaped_array(tmp_path):
    params, examples, loss_fn, val_fn = _make_problem()  # w has shape (4,)
    cfg = TrainConfig(lr=1e-2, batch_size=4, warmup_steps=1, max_epochs=4,
                      validate_every=2, patience=10, seed=4)
    ckpt = tmp_path / "run.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn, cfg=cfg,
          checkpoint_path=str(ckpt), max_steps=2, state_arrays={"ctr": np.zeros(2)})
    st = load_checkpoint(ckpt)

    def resume(st, ctr):
        train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn, cfg=cfg,
              resume_from=st, state_arrays={"ctr": ctr})

    for key in ("w", "opt.m.w", "opt.v.w"):
        with pytest.raises(VersionError, match=rf"'{key}': checkpoint shape \(3,\) "
                                               rf"!= model shape \(4,\)"):
            resume(replace(st, tensors={**st.tensors, key: np.zeros(3)}), np.zeros(2))
    with pytest.raises(VersionError, match=r"'state.ctr': checkpoint shape \(2,\) "
                                           r"!= model shape \(3,\)"):
        resume(st, np.zeros(3))


def test_resume_reproduces_uninterrupted_run_bit_for_bit(tmp_path):
    cfg = TrainConfig(lr=0.02, batch_size=4, warmup_steps=2, max_epochs=10,
                      validate_every=5, patience=50, seed=11)

    def run(tag, max_steps, resume=None):
        # resume restores parameter data, so a fresh problem instance is fine
        params, examples, loss_fn, val_fn = _make_problem(seed=5, noisy=True)
        return params, train(
            params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
            cfg=cfg, checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
            log_path=str(tmp_path / f"{tag}.log"), resume_from=resume,
            max_steps=max_steps)

    straight_params, straight = run("straight", max_steps=10)

    _, half = run("resumed", max_steps=5)
    assert half.steps == 5
    st = load_checkpoint(tmp_path / "resumed.ckpt")
    assert st.step == 5
    resumed_params, resumed = run("resumed", max_steps=10, resume=st)

    np.testing.assert_array_equal(straight_params["w"].data,
                                  resumed_params["w"].data)
    assert resumed.steps == straight.steps == 10
    assert resumed.val_history == straight.val_history
    assert resumed.best_val == straight.best_val
    # interrupted log + appended continuation equals the one-shot log
    assert (tmp_path / "resumed.log").read_bytes() == \
        (tmp_path / "straight.log").read_bytes()


def test_resume_replays_pending_epoch_callback(tmp_path):
    # a checkpoint written at an epoch's final step predates that epoch's
    # callback; resuming must run the callback before continuing
    def build():
        params, examples, loss_fn, val_fn = _make_problem(seed=8)
        ctr = np.zeros(1)
        return params, examples, loss_fn, val_fn, ctr

    cfg = TrainConfig(lr=0.01, batch_size=4, warmup_steps=1, max_epochs=3,
                      validate_every=2, patience=50, seed=6)

    def bump(epoch, rng):
        state["ctr"][0] += 1

    params, examples, loss_fn, val_fn, ctr = build()
    state = {"ctr": ctr}
    straight = train(params=params, examples=examples, loss_fn=loss_fn,
                     val_fn=val_fn, cfg=cfg, state_arrays=state,
                     on_epoch_end=bump)
    straight_w = params["w"].data.copy()
    assert ctr[0] == 3.0

    params, examples, loss_fn, val_fn, ctr = build()
    state = {"ctr": ctr}
    ckpt = tmp_path / "mid.ckpt"
    train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
          cfg=cfg, state_arrays=state, on_epoch_end=bump,
          checkpoint_path=str(ckpt), max_steps=2)
    st = load_checkpoint(ckpt)
    assert st.step == 2
    assert st.tensors["state.ctr"][0] == 0.0  # saved before epoch 0's callback
    assert st.meta["epochs_done"] == 0

    ctr[...] = 0.0
    res = train(params=params, examples=examples, loss_fn=loss_fn, val_fn=val_fn,
                cfg=cfg, state_arrays=state, on_epoch_end=bump, resume_from=st)
    assert ctr[0] == 3.0
    assert res.steps == 6
    np.testing.assert_array_equal(params["w"].data, straight_w)
