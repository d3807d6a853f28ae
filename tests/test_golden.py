"""The golden end-to-end run against its pins (`tests/golden/pins.json`).

On the numpy, scipy and BLAS build the pins were made under, every output's
SHA-256 must match ("exact" mode). On another build, the outputs no float
computation reaches (the prepare step's) must still match, and the rest is
checked by value: losses within 1e-9 relative, caption words equal, eval
scores and corpus statistics within 1e-12 ("tolerance" mode). The test names its mode and never
skips. `tests/golden/pin.py` runs the same flow and rewrites the pins.
"""

import json

import pytest

from golden.pin import PINS, moved, observe, run_flow

# vocabularies, corpus index and manifest: counting, no float arithmetic;
# parameter counts: integers and one Python division
BUILD_FREE = ("prepare/", "params/")


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    got = observe(run_flow(tmp_path_factory.mktemp("golden")))
    mode = "exact" if got["stamp"] == pins["stamp"] else "tolerance"
    print(f"golden mode: {mode} (pinned under {pins['stamp']}, running under {got['stamp']})")
    return mode, pins, got


def test_every_output_is_written(golden):
    _, pins, got = golden
    assert sorted(got["digests"]) == sorted(pins["digests"])


def test_outputs_match_the_pins(golden):
    mode, pins, got = golden
    checked = [name for name in pins["digests"] if mode == "exact" or name.startswith(BUILD_FREE)]
    moved = [name for name in checked if got["digests"].get(name) != pins["digests"][name]]
    assert moved == [], f"{mode} mode: outputs differ from the pins"
    if mode == "tolerance":
        assert got["losses"] == [pytest.approx(epoch, rel=1e-9) for epoch in pins["losses"]]
        assert got["captions"] == pins["captions"]
        assert got["eval_scores"] == {
            code: pytest.approx(scores, rel=1e-12, abs=1e-12) for code, scores in pins["eval_scores"].items()
        }
        assert got["stats"] == [pytest.approx(row, rel=1e-12, abs=1e-12) for row in pins["stats"]]


def test_pin_reports_what_moved():
    stamp = {"numpy": "2", "scipy": "1", "blas": {}}
    old = {"stamp": stamp, "digests": {"a": "1" * 64, "b": "2" * 64, "gone": "3" * 64}}
    new = {"stamp": stamp | {"numpy": "3"}, "digests": {"a": "1" * 64, "b": "4" * 64, "new": "5" * 64}}
    assert moved(old, new) == [
        "b: 22222222 -> 44444444",
        "gone: 33333333 -> absent",
        "new: absent -> 55555555",
        'stamp: {"blas": {}, "numpy": "2", "scipy": "1"} -> {"blas": {}, "numpy": "3", "scipy": "1"}',
    ]
    assert moved(new, new) == []
