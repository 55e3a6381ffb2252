import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldens
import minis2st

# relative tolerance of the float-array statistics; a sum is compared relative
# to the larger of itself and the array's norm, so a sum near zero does not
# turn the check into an exact one
RTOL = 1e-9


def assert_reproduces_the_goldens(got):
    want = json.loads(goldens.GOLDEN_PATH.read_text())
    assert sorted(got["files"]) == sorted(want["files"])
    assert sorted(got["arrays"]) == sorted(want["arrays"])
    for name, w in want["arrays"].items():
        g = got["arrays"][name]
        assert g["shape"] == w["shape"], name
        assert math.isclose(g["norm"], w["norm"], rel_tol=RTOL, abs_tol=0.0), name
        scale = max(abs(w["sum"]), w["norm"])
        assert abs(g["sum"] - w["sum"]) <= RTOL * scale, name
    builds = [{k: v for k, v in doc["versions"].items() if k != "blas_threads"}
              for doc in (want, got)]
    if builds[0] != builds[1]:
        pytest.skip(f"float arrays match to {RTOL:g}; file digests skipped: recorded with "
                    f"{want['versions']}, running {got['versions']}")
    # the same build pins BLAS to the thread count the goldens were made with
    assert got["versions"] == want["versions"]
    differ = [f for f, h in want["files"].items() if got["files"][f] != h]
    assert not differ, f"{len(differ)} files differ from the goldens: {differ[:10]}"


def test_chain_reproduces_the_golden_outputs():
    assert_reproduces_the_goldens(goldens.record_fresh())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chain_reproduces_the_goldens_under_any_blas_thread_setting(threads, tmp_path):
    # the package pins BLAS to one thread when imported, whatever the
    # environment asks for
    src = str(Path(minis2st.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "digest.json"
    run = subprocess.run([sys.executable, goldens.__file__, str(out)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    assert_reproduces_the_goldens(json.loads(out.read_text()))
