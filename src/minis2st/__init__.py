"""Miniature direct speech-to-speech translation pipeline on numpy.

Semantic tokenizer (VQ split encoder), decoder-only translation LM over an
augmented text+audio vocabulary with grouped audio emission, timbre-conditioned
vocoder, and the training/evaluation machinery to run the whole thing on a
synthetic bilingual corpus in CPU minutes.
"""
from .corpus import (
    Manifest,
    ParseError,
    SpeechFrames,
    ToyCorpusConfig,
    UtterancePair,
    corpus_stats,
    cosine_similarity,
    filter_by_similarity,
    generate_toy_corpus,
    read_frames,
    read_manifest,
    write_frames,
    write_manifest,
)
from .evaluation import (
    EvalReport,
    EvalRow,
    corpus_bleu,
    evaluate_translation,
    meteor_lite,
    speaker_similarity,
    steps_to_half_loss,
    timbre_separation,
    transcribe_frames,
)
from .model import (
    AugmentedVocab,
    DecodeConfig,
    DecodeResult,
    ModelConfig,
    TranslationModel,
    compute_loss,
)
from .pipeline import (
    PipelineRun,
    resolve_vocoder,
    run_ablation,
    run_toy_pipeline,
    split_manifest,
    train_model_stage,
    train_tokenizer_stage,
    train_vocoder_stage,
)
from .tensor import Tensor, no_grad, rng_for
from .tokenizer import (
    SpeechTokenizer,
    TextToTokenModel,
    TokenizerConfig,
    token_symbol_alignment,
)
from .training import (
    CheckpointState,
    ConfigError,
    NumericError,
    TrainConfig,
    TrainResult,
    VersionError,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .vocoder import SpeakerEmbedder, TimbreVocoder, VocoderConfig


def _pin_blas_to_one_thread():
    """One thread for NumPy's bundled OpenBLAS: how BLAS splits a product sets its rounding."""
    import ctypes
    from pathlib import Path
    import numpy as np
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"):
        set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


_pin_blas_to_one_thread()

__version__ = "0.1.0"

__all__ = [
    "AugmentedVocab",
    "CheckpointState",
    "ConfigError",
    "DecodeConfig",
    "DecodeResult",
    "EvalReport",
    "EvalRow",
    "Manifest",
    "ModelConfig",
    "NumericError",
    "ParseError",
    "PipelineRun",
    "SpeakerEmbedder",
    "SpeechFrames",
    "SpeechTokenizer",
    "Tensor",
    "TextToTokenModel",
    "TimbreVocoder",
    "TokenizerConfig",
    "ToyCorpusConfig",
    "TrainConfig",
    "TrainResult",
    "TranslationModel",
    "UtterancePair",
    "VersionError",
    "VocoderConfig",
    "compute_loss",
    "corpus_bleu",
    "corpus_stats",
    "cosine_similarity",
    "evaluate_translation",
    "filter_by_similarity",
    "generate_toy_corpus",
    "load_checkpoint",
    "meteor_lite",
    "no_grad",
    "read_frames",
    "read_manifest",
    "resolve_vocoder",
    "rng_for",
    "run_ablation",
    "run_toy_pipeline",
    "save_checkpoint",
    "speaker_similarity",
    "split_manifest",
    "steps_to_half_loss",
    "timbre_separation",
    "token_symbol_alignment",
    "train",
    "train_model_stage",
    "train_tokenizer_stage",
    "train_vocoder_stage",
    "transcribe_frames",
    "write_frames",
    "write_manifest",
]
