"""The benchmark harness at smoke size: every workload runs and checks clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--smoke", "--seconds", "1", "--trace", str(trace),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", ["train", "caption", "prepare_eval"])
def test_smoke_run_is_correct(workload):
    smoke_run(workload, trace=0)


def test_traced_train_fills_every_layer_metric():
    # the tracer labels spans by polycap's entry points; a refactor that
    # bypasses one of them would leave its layer reading zero
    metrics = smoke_run("train", trace=1)["metrics"]
    for name in ("self_attn", "cross_attn", "frontend", "ff", "norm", "head"):
        assert metrics[f"model.{name}_s"]["value"] > 0, name
    # Linear (with its ReLU or GELU), attention, Add & Norm, the token
    # lookup and the loss are one node each, and dropout is part of the node
    # it follows; a primitive composed again from elementwise nodes grows this
    assert metrics["autodiff.graph_nodes"]["value"] <= 50


def test_traced_caption_run_is_correct():
    # the tracer wraps polycap's decoding entry points and reads their
    # arguments; a traced caption run must still decode and check clean
    smoke_run("caption", trace=1)
