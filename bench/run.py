"""minis2st benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload {train,translate_long,translate_short} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from ./src.  The
report lists every metric by name and unit; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`, where
`metrics` holds the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  A traced run measures the same work twice, first
with no tracing installed and then traced, reports the difference as the
tracing overhead, and writes its spans and self-time table to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train", "translate_long", "translate_short")
# the toy shapes are far too small for BLAS threads to pay off, and one
# thread keeps runs on a shared machine steadier
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info() -> dict:
    """BLAS library, version, core type and the thread count it runs with,
    read from the OpenBLAS build NumPy loaded (None where unavailable)."""
    import ctypes

    import numpy as np

    info = {"blas": None, "blas_core": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return info
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if threads is not None:
                info["blas_threads"] = int(threads())
            if core is not None:
                core.restype = ctypes.c_char_p
                info["blas_core"] = core().decode()
            if threads is not None:
                return info
    return info


def git_sha(root: Path):
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_kernel_ms() -> float:
    """Median time of a fixed NumPy-and-interpreter kernel that does not touch
    the program.  Logged before and after a run, it shows how fast the
    machine itself was while the run measured."""
    import time

    import numpy as np

    a = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(1000):
            c = np.maximum(a @ a.T, 0.0) + 1.0
            acc += float(c.sum())
            seen[i % 97] = (acc, i)
        times.append(time.perf_counter() - t0)
    return 1000 * sorted(times)[2]


def environment(requested_threads: int, ref_before: float) -> dict:
    import numpy as np

    env = {"nproc": nproc(), "blas_threads_requested": requested_threads,
           "ref_kernel_ms": [ref_before, reference_kernel_ms()]}
    env.update(blas_info())
    env.update({"numpy": np.__version__, "python": platform.python_version(),
                "git_sha": git_sha(ROOT), "src_sha256": src_digest(ROOT)})
    return env


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bootstrap() -> int:
    """Pin the BLAS thread count and import the program from ./src; returns
    the thread count, or raises ImportError when ./src holds no program."""
    threads = min(BLAS_THREADS, nproc())
    # must be set before NumPy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import minis2st

    if Path(minis2st.__file__).resolve().parent.parent != src:
        raise ImportError(f"minis2st was imported from {minis2st.__file__}, not {src}")
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        threads = bootstrap()
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    import workloads

    ref_before = reference_kernel_ms()
    if args.workload == "train":
        with workloads.scratch_dir(ROOT) as workdir:
            result = workloads.run_train(args.seed, args.seconds, workdir, bool(args.trace))
        metrics = workloads.train_metrics(result)
    else:
        result = workloads.run_translate(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = workloads.translate_metrics(result)
    checks = result["checks"]
    setup = sorted(result["setup_times"])
    metrics["setup_s"] = (setup[len(setup) // 2], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["error_rate"] = (checks.failed / checks.attempted, "share")
    tracer = None
    if args.trace:
        # per-layer numbers replace the end-to-end ones, which tracing would skew
        traced = result["traced"]
        tracer = traced["tracer"]
        items = len(result["rounds"] if args.workload == "train" else result["latencies"])
        over = traced["traced_s"] - traced["untraced_s"]
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_ms"] = (1000 * over / items, "ms")
        metrics["trace.overhead_pct"] = (100 * over / traced["untraced_s"], "%")

    env = environment(threads, ref_before)
    kind = "per_layer" if args.trace else "end_to_end"
    chosen = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"# minis2st benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# work {result['work']}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        mark = "*" if name in chosen else " "
        print(f"{mark} {name:34s} {fmt(value):>14s} {unit}")
    if tracer is not None:
        print("# self time (ms) of the traced phase and its one set-up; "
              f"wrap points missing: {tracer.missing}")
        table = tracer.table()
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"#   {name:34s} self {row['self_ms']:12.1f}  total {row['total_ms']:12.1f}"
                  f"  calls {row['calls']:8d}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "work": result["work"],
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "attempted": checks.attempted, "failed": checks.failed}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        tracer.write(path, doc)
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    missing = [n for n in chosen if n not in metrics or metrics[n][1] != chosen[n]]
    if missing:
        print(f"bench: BENCHMARK.json names metrics this run lacks: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
