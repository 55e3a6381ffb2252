"""Records references.json: the outputs the benchmark checks runs against.

    python3 bench/record_references.py

Translate: the greedy outputs (text ids and audio tokens) of every held-out
utterance at 64 decode steps; the 8-step workload compares with their
prefixes, which greedy decoding makes identical.  Train: the last
validation loss of each stage, for each of the seeds 0 .. TRAIN_SEEDS-1.
Run it only when the program's outputs are meant to change, and say so where
the change is reviewed.
"""
from __future__ import annotations

import json
import re
import sys
import time

import run

TRAIN_SEEDS = 20


def main() -> int:
    run.bootstrap()
    import workloads
    from minis2st.model import DecodeConfig

    max_steps = max(workloads.DECODE_STEPS.values())
    chain = workloads.translate_setup()
    utterances = {}
    for rec in chain.held_out:
        res = chain.model.translate(rec.src_frames, DecodeConfig(max_steps=max_steps))
        utterances[rec.id] = {"text": list(res.text), "tokens": list(res.tokens)}
    print(f"translate: {len(utterances)} utterances", file=sys.stderr)

    val_loss = {}
    with workloads.scratch_dir(run.ROOT) as workdir:
        for seed in range(TRAIN_SEEDS):
            t0 = time.perf_counter()
            stages = workloads.train_round(workloads.train_setup(seed), seed, workdir)
            val_loss[str(seed)] = {name: stage.result.val_history[-1][1]
                                  for name, stage in stages.items()}
            print(f"train seed {seed}: {val_loss[str(seed)]} "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)

    doc = {
        "recorded_at": run.git_sha(run.ROOT),
        "translate": {"pool_seed": workloads.POOL_SEED, "max_steps": max_steps,
                      "utterances": utterances},
        "train": {"steps": workloads.STEPS, "val_loss": val_loss},
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per id list keeps the file short and its diffs readable
    text = re.sub(r"\[[\d,\s]*\]", lambda m: re.sub(r"\s+", "", m.group(0)), text)
    with open(workloads.REFERENCES, "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
