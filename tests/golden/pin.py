"""The golden end-to-end run: prepare, train, caption (a directory and a
manifest split), eval, stats and params over the tiny corpus in this
directory.

`run_flow` runs the seven commands in one child interpreter at one BLAS
thread, in a copy of this directory, with relative paths, and writes each
command's stdout to `stdout.txt` in its `--out` directory; `observe` reads
what they wrote. `tests/test_golden.py` compares that with `pins.json`.

Run this file to rewrite `pins.json` from the current tree:

    PYTHONPATH=src python tests/golden/pin.py

It prints each digest that differs from the pins it replaces, and the
stamp if that changed. Only do so for a change that is meant to move output
bits, and say which outputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import polycap

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
INPUTS = ("emb", "manifest.jsonl", "train.json")

CHECKPOINT = "out/train/checkpoint.ackp"
STEPS = [
    ["prepare", "--manifest", "manifest.jsonl", "--embeddings-dir", "emb", "--languages", "en,fr",
     "--out", "out/prepare"],
    ["train", "--config", "train.json", "--out", "out/train"],
    # --max-len below the model's max_len - 1, so the checkpoint cuts nothing
    ["caption", "--checkpoint", CHECKPOINT, "--embeddings-dir", "emb", "--max-len", "6",
     "--out", "out/caption_dir"],
    ["caption", "--checkpoint", CHECKPOINT, "--embeddings-dir", "emb", "--manifest", "manifest.jsonl",
     "--split", "test", "--max-len", "6", "--out", "out/caption_test"],
    ["eval", "--captions", "out/caption_test/captions.jsonl", "--manifest", "manifest.jsonl",
     "--split", "test", "--out", "out/eval"],
    ["stats", "--manifest", "manifest.jsonl", "--languages", "en,fr", "--split", "train", "--out", "out/stats"],
    # the default model config: integer counts
    ["params", "--vocab-sizes", "en=40,fr=50", "--out", "out/params"],
]
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from polycap.cli import main
for argv in json.loads(sys.argv[1]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code:
        sys.exit(f"polycap {argv[0]} exited {code}")
    Path(argv[argv.index("--out") + 1], "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
"""
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# wall-clock fields, and what a run manifest records of the machine
VOLATILE_METRICS = ("seconds",)
VOLATILE_MANIFEST = ("timestamp_unix", "environment")


def run_flow(work: Path) -> Path:
    """Copy the inputs into `work`, run every step there in one child
    interpreter and return the output directory."""
    for name in INPUTS:
        source = HERE / name
        if source.is_dir():
            shutil.copytree(source, work / name)
        else:
            shutil.copy(source, work / name)
    env = dict(os.environ, PYTHONPATH=str(Path(polycap.__file__).resolve().parent.parent))
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(STEPS)], cwd=work, env=env, capture_output=True, text=True
    )
    if done.returncode:
        raise RuntimeError(f"golden run failed:\n{done.stdout}{done.stderr}")
    return work / "out"


def _normalized(path: Path) -> bytes:
    """A file's bytes, with the wall-clock and machine fields left out of
    metrics logs and run manifests."""
    if path.name == "metrics.jsonl":
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            lines.append(json.dumps({k: v for k, v in obj.items() if k not in VOLATILE_METRICS}, sort_keys=True))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if path.name == "run_manifest.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        return json.dumps({k: v for k, v in doc.items() if k not in VOLATILE_MANIFEST}, sort_keys=True).encode()
    return path.read_bytes()


def stamp(out: Path) -> dict:
    """The numpy, scipy and BLAS build the run's bits depend on, as the
    train run manifest recorded it."""
    env = json.loads((out / "train" / "run_manifest.json").read_text(encoding="utf-8"))["environment"]
    return {key: env[key] for key in ("numpy", "scipy", "blas")}


def observe(out: Path) -> dict:
    """What the golden test compares: the SHA-256 of every output, and the
    values its tolerance mode checks (losses, caption words, eval scores,
    corpus statistics)."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    metrics = map(json.loads, (out / "train" / "metrics.jsonl").read_text(encoding="utf-8").splitlines())
    captions = {
        run: [
            [obj["audio_id"], obj["language"], obj["caption"]]
            for obj in map(json.loads, (out / run / "captions.jsonl").read_text(encoding="utf-8").splitlines())
        ]
        for run in ("caption_dir", "caption_test")
    }
    report = json.loads((out / "eval" / "eval_report.json").read_text(encoding="utf-8"))
    return {
        "stamp": stamp(out),
        "digests": {
            p.relative_to(out).as_posix(): hashlib.sha256(_normalized(p)).hexdigest() for p in files
        },
        "losses": [[m["train_loss"], m["val_loss"]] for m in metrics],
        "captions": captions,
        "eval_scores": {
            code: {k: v for k, v in scores.items() if isinstance(v, float)}
            for code, scores in report["scores"].items()
        },
        "stats": json.loads((out / "stats" / "stats.json").read_text(encoding="utf-8")),
    }


def moved(old: dict, new: dict) -> list[str]:
    """One line per output whose digest differs between the `old` and `new`
    pins (changed, added or gone), and one for the stamp if it changed."""
    before, after = old.get("digests", {}), new["digests"]
    lines = [
        f"{name}: {before.get(name, 'absent')[:8]} -> {after.get(name, 'absent')[:8]}"
        for name in sorted(before.keys() | after.keys())
        if before.get(name) != after.get(name)
    ]
    if old.get("stamp") != new["stamp"]:
        old_stamp, new_stamp = (json.dumps(doc.get("stamp"), sort_keys=True) for doc in (old, new))
        lines.append(f"stamp: {old_stamp} -> {new_stamp}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        observed = observe(run_flow(Path(tmp)))
    old = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    PINS.write_text(json.dumps(observed, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(observed['digests'])} digests to {PINS}")
    for line in moved(old, observed) or ["nothing moved"]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
