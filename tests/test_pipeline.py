import numpy as np

from minis2st import pipeline
from minis2st.corpus import generate_toy_corpus
from minis2st.tokenizer import SpeechTokenizer
from minis2st.training import TrainConfig


def test_stage_weights_do_not_depend_on_checkpoint_path(tmp_path):
    full = generate_toy_corpus(pipeline.toy_corpus_config(60), 0)
    train_m, val_m = pipeline.split_manifest(full, 50)
    tok = SpeechTokenizer(pipeline.toy_tokenizer_config(), 0)
    # large steps and a coarse min_delta put the best validation before the end
    tcfg = TrainConfig(lr=3e-2, batch_size=8, warmup_steps=5, max_epochs=20,
                       validate_every=5, patience=50, min_delta=0.1)
    runs = []
    for ckpt in (None, str(tmp_path / "voc.ckpt")):
        voc, res, _ = pipeline.train_vocoder_stage(train_m, val_m, tok, tcfg=tcfg,
                                                   max_steps=60, checkpoint_path=ckpt)
        runs.append((voc.trainable(), res))
    (in_memory, res), (on_disk, _) = runs
    assert res.best_step < res.steps
    assert in_memory.keys() == on_disk.keys()
    for name in in_memory:
        np.testing.assert_array_equal(in_memory[name].data, on_disk[name].data)
