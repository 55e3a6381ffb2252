import numpy as np
import pytest

from minis2st import pipeline
from minis2st.corpus import ConfigError, ToyCorpusConfig, generate_toy_corpus
from minis2st.model import ModelConfig, TranslationModel
from minis2st.tensor import Tape, _active_tape
from minis2st.tokenizer import SpeechTokenizer, TokenizerConfig
from minis2st.training import TrainConfig, load_checkpoint, save_checkpoint
from minis2st.vocoder import SpeakerEmbedder, VocoderConfig


def test_the_config_defaults_compose_into_one_chain():
    corpus, tok, model, voc = ToyCorpusConfig(), TokenizerConfig(), ModelConfig(), VocoderConfig()
    assert tok.codebook_size == model.audio_vocab == voc.audio_vocab
    assert corpus.feat_dim == tok.feat_dim == model.feat_dim == voc.feat_dim
    assert tok.text_vocab == model.text_vocab == corpus.tgt_vocab
    # one decode step spans one rendered symbol
    assert model.group_size == corpus.frames_per_symbol


def test_stage_weights_do_not_depend_on_checkpoint_path(tmp_path):
    full = generate_toy_corpus(ToyCorpusConfig(pairs=60), 0)
    train_m, val_m = pipeline.split_manifest(full, 50)
    tok = SpeechTokenizer(TokenizerConfig(), 0)
    # large steps and a coarse min_delta put the best validation before the end
    tcfg = TrainConfig(lr=3e-2, batch_size=8, warmup_steps=5, max_epochs=20,
                       validate_every=5, patience=50, min_delta=0.1)
    runs = []
    for ckpt in (None, str(tmp_path / "voc.ckpt")):
        voc, res = pipeline.train_vocoder_stage(train_m, val_m, tok, tcfg=tcfg,
                                                max_steps=60, checkpoint_path=ckpt)
        runs.append((voc.trainable(), res))
    (in_memory, res), (on_disk, _) = runs
    assert res.best_step < res.steps
    assert in_memory.keys() == on_disk.keys()
    for name in in_memory:
        np.testing.assert_array_equal(in_memory[name].data, on_disk[name].data)


# the exact config dicts the checkpoints of each kind record
TOK = {"feat_dim": 8, "text_vocab": 20, "dim": 16, "codebook_size": 32, "enc1_blocks": 1,
       "enc2_blocks": 1, "asr_blocks": 1, "heads": 2, "commitment_beta": 0.25}
MODEL = {"feat_dim": 8, "text_vocab": 20, "audio_vocab": 32, "d_model": 16, "blocks": 1,
         "heads": 2, "context": 64, "group_size": 4, "prompt_len": 2, "projector": "linear",
         "group_frames": 4, "proj_hidden": 16, "qformer_queries": 4, "qformer_dim": 16,
         "qformer_blocks": 1, "enc_dim": 16, "enc_blocks": 1, "enc_heads": 2,
         "fixed_input_len": 16, "freeze_text_embed": True}
VOC = {"feat_dim": 8, "audio_vocab": 32, "token_dim": 8, "d_model": 16, "blocks": 1,
       "heads": 2, "spk_dim": 16}


def _embedder(seed):
    return {"feat_dim": 8, "spk_dim": 16, "seed": seed}


def _assert_same_module(rebuilt, trained):
    a, b = dict(rebuilt.named_tensors()), dict(trained.named_tensors())
    assert a.keys() == b.keys()
    for name in a:  # trainable and frozen tensors alike
        assert a[name].requires_grad == b[name].requires_grad, name
        np.testing.assert_array_equal(a[name].data, b[name].data, err_msg=name)


def test_checkpoint_layout_and_rebuild(tmp_path):
    full = generate_toy_corpus(ToyCorpusConfig(pairs=10), 0)
    train_m, val_m = pipeline.split_manifest(full, 8)
    path = {k: str(tmp_path / f"{k}.ckpt")
            for k in ("tokenizer", "model", "vocoder", "tok+t2t", "model+voc")}
    run = dict(seed=3, max_steps=1)
    tok, _ = pipeline.train_tokenizer_stage(train_m, val_m, TokenizerConfig(**TOK),
                                            checkpoint_path=path["tokenizer"], **run)
    # an embedder of another seed than the stage's: its own seed is recorded
    t2t, _ = pipeline.train_text_to_token_stage(
        train_m, val_m, tok, embedder=SpeakerEmbedder(8, seed=5), **run)
    model, _ = pipeline.train_model_stage(train_m, val_m, tok, ModelConfig(**MODEL),
                                          checkpoint_path=path["model"], **run)
    voc, _ = pipeline.train_vocoder_stage(train_m, val_m, tok, VocoderConfig(**VOC),
                                          checkpoint_path=path["vocoder"], **run)
    save_checkpoint(path["tok+t2t"], pipeline.bundle(
        load_checkpoint(path["tokenizer"]), "text_to_token", t2t))
    save_checkpoint(path["model+voc"], pipeline.bundle(
        load_checkpoint(path["model"]), "vocoder", voc))

    t2t_config = {"text_vocab": 20, "codebook_size": 32, "spk_dim": 16, "seed": 3,
                  "embedder": _embedder(5)}
    voc_config = {"cfg": VOC, "seed": 3, "embedder": _embedder(3)}
    configs = {
        "tokenizer": {"cfg": TOK, "seed": 3},
        "model": {"cfg": MODEL, "seed": 3, "token_source": "speech"},
        "vocoder": voc_config,
        "tok+t2t": {"cfg": TOK, "seed": 3, "text_to_token": t2t_config},
        "model+voc": {"cfg": MODEL, "seed": 3, "token_source": "speech", "vocoder": voc_config},
    }
    st = {k: load_checkpoint(p) for k, p in path.items()}
    for k, config in configs.items():
        assert st[k].config == config, k

    cases = [  # (file, kind, bundle key, trained module)
        ("tokenizer", "tokenizer", None, tok),
        ("model", "model", None, model),
        ("vocoder", "vocoder", None, voc),
        ("tok+t2t", "tokenizer", None, tok),
        ("tok+t2t", "tokenizer", "text_to_token", t2t),
        ("model+voc", "model", None, model),
        ("model+voc", "model", "vocoder", voc),
    ]
    for name, kind, key, module in cases:
        rebuilt = pipeline.rebuild(st[name], kind, key)
        _assert_same_module(rebuilt, module)
        if hasattr(module, "embedder"):
            for attr in ("w1", "b1", "w2"):
                np.testing.assert_array_equal(getattr(rebuilt.embedder, attr),
                                              getattr(module.embedder, attr))
    for name in ("vocoder", "model+voc"):
        rebuilt = pipeline.resolve_vocoder(st[name])
        _assert_same_module(rebuilt, voc)
        np.testing.assert_array_equal(rebuilt.embedder.w1, voc.embedder.w1)

    # older checkpoints hold trained key biases; the frozen zeros stay
    key_bias = "decoder.blocks.0.attn.wk.b"
    assert key_bias not in st["model"].tensors
    st["model"].tensors[key_bias] = np.ones(16)
    rebuilt = pipeline.rebuild(st["model"], "model")
    np.testing.assert_array_equal(dict(rebuilt.named_tensors())[key_bias].data, np.zeros(16))


@pytest.mark.parametrize("stage,cfg", [("model", ModelConfig(**{**MODEL, "audio_vocab": 24})),
                                       ("vocoder", VocoderConfig(**{**VOC, "audio_vocab": 24}))],
                         ids=["model", "vocoder"])
def test_a_stage_whose_audio_vocab_is_not_the_codebook_fails_before_any_step(
        stage, cfg, monkeypatch):
    def no_training(**kw):
        raise AssertionError("the stage trained")

    monkeypatch.setattr(pipeline, "train", no_training)
    m = generate_toy_corpus(ToyCorpusConfig(pairs=4), 0)
    tok = SpeechTokenizer(TokenizerConfig(**TOK), 0)
    with pytest.raises(ConfigError, match=f"^{stage} audio vocab 24 != codebook size 32$"):
        getattr(pipeline, f"train_{stage}_stage")(m, m, tok, cfg, max_steps=1)


def test_toy_run_records_peak_rss_outside_the_total(toy_run):
    t = toy_run.timings
    assert t["peak_rss_mb"] > 0
    stages = ("corpus", "tokenizer", "model", "vocoder", "evaluation")
    assert t["total"] == sum(t[k] for k in stages)


def test_only_what_trains_records_on_the_open_tape(monkeypatch):
    # the open tape is the one recording rule: the frozen speech encoder on
    # constant frames records nothing inside it, and each stage's batch-8
    # loss records the same graph it did while an ambient switch existed
    full = generate_toy_corpus(ToyCorpusConfig(pairs=24), 0)
    train_m, val_m = pipeline.split_manifest(full, 16)
    encoder = TranslationModel(ModelConfig(), 0).encoder
    with Tape() as tape:
        encoder.encode([r.src_frames for r in train_m])
    assert tape.nodes == []

    nodes, train = {}, pipeline.train

    def counting(*, loss_fn, kind, **kw):
        def counted(batch, rng):
            out = loss_fn(batch, rng)
            nodes.setdefault(kind, (len(batch), len(_active_tape().nodes)))
            return out
        return train(loss_fn=counted, kind=kind, **kw)

    monkeypatch.setattr(pipeline, "train", counting)
    tok, _ = pipeline.train_tokenizer_stage(train_m, val_m, max_steps=1)
    pipeline.train_model_stage(train_m, val_m, tok, max_steps=1)
    pipeline.train_vocoder_stage(train_m, val_m, tok, max_steps=1)
    pipeline.train_text_to_token_stage(train_m, val_m, tok, max_steps=1)
    assert nodes == {"tokenizer": (8, 46), "model": (8, 41), "vocoder": (8, 15),
                     "text_to_token": (8, 23)}
