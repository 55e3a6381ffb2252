import json
import math

import pytest

import goldens

# relative tolerance of the float-array statistics; a sum is compared relative
# to the larger of itself and the array's norm, so a sum near zero does not
# turn the check into an exact one
RTOL = 1e-9


def test_chain_reproduces_the_golden_outputs():
    want = json.loads(goldens.GOLDEN_PATH.read_text())
    got = goldens.record_fresh()
    assert sorted(got["files"]) == sorted(want["files"])
    assert sorted(got["arrays"]) == sorted(want["arrays"])
    for name, w in want["arrays"].items():
        g = got["arrays"][name]
        assert g["shape"] == w["shape"], name
        assert math.isclose(g["norm"], w["norm"], rel_tol=RTOL, abs_tol=0.0), name
        scale = max(abs(w["sum"]), w["norm"])
        assert abs(g["sum"] - w["sum"]) <= RTOL * scale, name
    if got["versions"] != want["versions"]:
        pytest.skip(f"float arrays match to {RTOL:g}; file digests skipped: recorded with "
                    f"{want['versions']}, running {got['versions']}")
    differ = [f for f, h in want["files"].items() if got["files"][f] != h]
    assert not differ, f"{len(differ)} files differ from the goldens: {differ[:10]}"
