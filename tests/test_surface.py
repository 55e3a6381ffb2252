"""The settable surface: every parameter with a default of every function in
the package, plus every field of a `*Config` dataclass, counted with `ast`.

A change that adds or removes an option moves this count; it updates
SETTABLE and says why in CHANGES.md.

Also pinned here: every config refuses, when it is built, each value the one
settings rule or its own checks refuse, no module imports a name it does not
use, the modules import one another in one order only, the package root
imports none of them, so importing one module loads only it and the layers
below it, and the benchmark under `bench/`, which a change to the program may
not edit, still finds every entry point it wraps and calls them as it does.
"""
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minis2st
from minis2st import corpus, evaluation, model, pipeline, tokenizer, training, vocoder
from minis2st.corpus import ConfigError, ToyCorpusConfig
from minis2st.model import DecodeConfig, ModelConfig
from minis2st.tokenizer import TokenizerConfig
from minis2st.training import TrainConfig
from minis2st.vocoder import VocoderConfig

SETTABLE = 139

BENCH = Path(__file__).resolve().parent.parent / "bench"


def settable_count() -> int:
    count = 0
    for path in sorted(Path(minis2st.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_count_is_pinned():
    assert settable_count() == SETTABLE


# each module of the package may import only the modules before it
LAYERS = ["tensor", "corpus", "nn", "tokenizer", "model", "vocoder", "training", "evaluation",
          "pipeline", "cli"]


def package_imports(path: Path) -> set:
    """The package modules a module imports anywhere, function bodies included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from .x import y` names x; `from . import x` and `from minis2st import x` name x
            module = (f"minis2st.{node.module}" if node.level and node.module
                      else node.module or "minis2st")
            names += [f"{module}.{a.name}" for a in node.names] if module == "minis2st" else [module]
    return {name.split(".")[1] for name in names if name.startswith("minis2st.")}


def test_each_module_imports_only_the_layers_below_it():
    pkg = Path(minis2st.__file__).parent
    assert sorted(p.stem for p in pkg.glob("*.py")) == sorted(LAYERS + ["__init__"])
    for i, name in enumerate(LAYERS):
        above = package_imports(pkg / f"{name}.py") - set(LAYERS[:i])
        assert not above, f"{name} imports {sorted(above)}, which come after it"


def test_the_package_root_imports_no_package_module():
    assert not package_imports(Path(minis2st.__file__))


def test_importing_one_module_loads_only_it_and_still_pins_blas():
    pkg = Path(minis2st.__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(pkg.parent), str(Path(__file__).parent)])}
    # goldens imports the CLI, so the loaded modules are read before it is
    code = ("import json, sys\n"
            "import minis2st.tensor\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('minis2st'))\n"
            "import goldens\n"
            "print(json.dumps([loaded, goldens.blas_threads()]))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    loaded, threads = json.loads(run.stdout)
    assert loaded == ["minis2st", "minis2st.tensor"]
    assert threads == 1


# every `*Config` dataclass of the package, so a config added later is covered too
CONFIGS = sorted({obj for mod in (corpus, model, tokenizer, training, vocoder)
                  for name, obj in vars(mod).items()
                  if name.endswith("Config") and dataclasses.is_dataclass(obj)},
                 key=lambda cls: cls.__name__)
# the floors `check_settings` holds an int field to, where they are not 1
FLOORS = {(ModelConfig, "prompt_len"): 0, (ToyCorpusConfig, "pairs"): 0,
          (TrainConfig, "seed"): None}


def rule_cases(cls) -> list:
    """Values the one rule refuses, for every field it checks: an int field
    below its floor or fractional, a float field NaN, infinite or negative."""
    cases = []
    for f in dataclasses.fields(cls):
        if f.type == "int":
            floor = FLOORS.get((cls, f.name), 1)
            cases += [{f.name: v} for v in ([] if floor is None else [floor - 1]) + [2.5]]
        elif f.type == "float":
            cases += [{f.name: v} for v in (float("nan"), float("inf"), -1.0)]
    return cases


OUT_OF_RANGE = [
    *[(cls, kw) for cls in CONFIGS for kw in rule_cases(cls)],
    # what one config checks beyond the rule
    (ModelConfig, dict(projector="mlp")),
    (ToyCorpusConfig, dict(src_vocab=6, tgt_vocab=5)),
    (ToyCorpusConfig, dict(len_min=5, len_max=2)),
    (TrainConfig, dict(lr=0)),
    *[(TrainConfig, dict(decay_gamma=v)) for v in (0, 1.5)],
    (DecodeConfig, dict(repetition_penalty=0.0)),
    (DecodeConfig, dict(max_steps="4")),
]


@pytest.mark.parametrize("cls,kw", OUT_OF_RANGE,
                         ids=[cls.__name__ + "-" + ",".join(f"{k}={v}" for k, v in kw.items())
                              for cls, kw in OUT_OF_RANGE])
def test_every_config_rejects_an_out_of_range_value_when_built(cls, kw):
    cls()  # the defaults are in range
    with pytest.raises(ConfigError):
        cls(**kw)


# imports a module keeps without using them, each with its reason
UNUSED_IMPORTS = {
    # bench/workloads.py calls it as pipeline's, and bench/ may not change with the program
    ("pipeline", "same_speaker_prompts"),
}


def test_no_module_imports_a_name_it_does_not_use():
    unused = set()
    for path in sorted(Path(minis2st.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in bound.keys() - used}
    assert unused == UNUSED_IMPORTS


def test_no_module_but_tensor_rebinds_a_tensors_data():
    # training steps, restores and loads every array in place, so an array
    # taken from a module stays live; `-=` and subscript writes are in place
    rebinds = []
    for path in sorted(Path(minis2st.__file__).parent.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                rebinds += [f"{path.name}:{node.lineno}" for target in targets
                            for sub in ast.walk(target)
                            if isinstance(sub, ast.Attribute) and sub.attr == "data"
                            and isinstance(sub.ctx, ast.Store)]
    assert rebinds == []


def test_the_benchmark_still_reaches_every_entry_point_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    # the calls bench/workloads.py makes, argument for argument
    m = object()
    for name, extra in (("tokenizer", ()), ("model", (m,)), ("vocoder", (m,))):
        inspect.signature(getattr(pipeline, f"train_{name}_stage")).bind(
            m, m, *extra, seed=0, max_steps=1, checkpoint_path="c", log_path="l",
            loss_trace=[])
    inspect.signature(pipeline.train).bind_partial(loss_fn=m, val_fn=m)
    inspect.signature(pipeline.toy_train_config).bind("model", 0)
    inspect.signature(pipeline.same_speaker_prompts).bind(m)
    inspect.signature(pipeline.toy_corpus_config).bind(550)
    for preset in ("model", "tokenizer", "vocoder"):
        inspect.signature(getattr(pipeline, f"toy_{preset}_config")).bind()
    for cls in (model.TranslationModel, tokenizer.SpeechTokenizer, vocoder.TimbreVocoder):
        inspect.signature(cls).bind(m, 0)
    inspect.signature(model.DecodeConfig).bind(max_steps=64)
    inspect.signature(pipeline.split_manifest).bind(m, 500)
    inspect.signature(corpus.generate_toy_corpus).bind(m, 0)
    inspect.signature(tokenizer.token_symbol_alignment).bind(m, m, 4, 20)
    inspect.signature(vocoder.SpeakerEmbedder).bind(8, spk_dim=16, seed=0)
    inspect.signature(model.TranslationModel.translate).bind(m, m, m)
    inspect.signature(vocoder.SpeakerEmbedder.embed).bind(m, m)
    inspect.signature(vocoder.TimbreVocoder.synthesize).bind(m, m, m)
    inspect.signature(evaluation.transcribe_frames).bind(m, m, m, 4)
