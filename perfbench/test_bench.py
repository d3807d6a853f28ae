"""Smoke tests for the benchmark: every workload, untraced and traced, at the
tiny scale. Run with `python -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"])
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    _, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    a, _ = bench("prepare_eval", 0, seed=5)
    b, _ = bench("prepare_eval", 0, seed=5)
    c, _ = bench("prepare_eval", 0, seed=6)
    assert a["environment"]["input_digest"] == b["environment"]["input_digest"]
    assert a["environment"]["input_digest"] != c["environment"]["input_digest"]


def test_traced_run_restores_every_patched_function():
    from polycap import autodiff, cli, decoding, model, text

    before = (model.MultilingualModel.forward, autodiff.Tensor.backward, decoding.caption_audio, cli.tokenize, text.tokenize)
    bench("caption", 1)
    after = (model.MultilingualModel.forward, autodiff.Tensor.backward, decoding.caption_audio, cli.tokenize, text.tokenize)
    assert before == after


def test_wrong_cider_is_counted_as_failed(monkeypatch):
    from polycap import evaluation

    real = evaluation.cider_d

    def skewed(candidates, references):
        result = real(candidates, references)
        return evaluation.CiderResult(result.corpus_score, {k: v * 1.01 for k, v in result.per_item.items()})

    monkeypatch.setattr(evaluation, "cider_d", skewed)
    report, result = bench("prepare_eval", 0)
    assert result["correct"] is False and result["failed"] > 0
    assert any("oracle" in p for p in report["problems"])


def test_missing_program_exits_nonzero_without_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0 and out.getvalue() == ""


def test_benchmark_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(len(n) <= 64 for n in names) and len(set(names)) == len(names)
    documented = json.loads((HERE / "workloads.json").read_text())
    assert set(documented["workloads"]) == set(WORKLOADS)
    assert set(documented["layer_predictions"]) == {m["name"] for m in SPEC["per_layer"]}
