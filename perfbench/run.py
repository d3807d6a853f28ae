#!/usr/bin/env python3
"""polycap benchmark: three workloads, one command.

    python3 perfbench/run.py --workload {train,caption,prepare_eval} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root (or anywhere: paths are resolved from this
file). Inputs are generated from --seed; the program is driven in-process
through polycap's public functions; every output is checked. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with polycap
unmodified. With --trace 1 the window alternates untraced and traced blocks;
the metrics are per-layer numbers from the traced blocks plus
trace.overhead_pct, and the spans are written to .bench_out/. --smoke runs
the same code paths and checks at a tiny model size in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use. Must run before
    numpy is imported to take effect."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "caption", "prepare_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny model and inputs, same paths and checks")
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc: int, digest: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "thread_cap_vars": list(BLAS_THREAD_VARS),
        },
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "input_digest": digest,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def release_memory() -> None:
    """Collect garbage and hand free heap pages back to the OS, so every block
    starts from the allocator state a fresh `polycap` process would have and
    peak RSS does not depend on how fragmented earlier blocks left the heap."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def measure(wl, seconds: float, tracer) -> dict:
    """Set up repeatedly, warm up, then run blocks until the window is over.
    With a tracer, blocks alternate untraced and traced, ending on a traced one."""
    setup_times = []
    for _ in range(wl.scale.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        release_memory()
    t0 = time.perf_counter()
    wl.warmup()
    warmup_s = time.perf_counter() - t0
    release_memory()

    plain, traced = [], []
    blocks = {False: 0, True: 0}
    start = time.perf_counter()
    while True:
        use = tracer is not None and blocks[False] > blocks[True]
        ops = wl.block(tracer if use else None)
        (traced if use else plain).extend(ops)
        blocks[use] += 1
        release_memory()
        over = time.perf_counter() - start >= seconds
        if over and (tracer is None or blocks[True] == blocks[False]):
            break
    window_s = time.perf_counter() - start
    wl.finish()
    return {
        "setup_times": setup_times,
        "warmup_s": warmup_s,
        "window_s": window_s,
        "blocks": blocks[False] + blocks[True],
        "plain": plain,
        "traced": traced,
    }


def rate(ops) -> float:
    seconds = sum(o.seconds for o in ops)
    return sum(o.units for o in ops) / seconds if seconds > 0 else 0.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "polycap" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.stderr.write(f"perfbench: polycap sources or tests/oracles.py missing under {ROOT}\n")
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    import inputs
    import tracing
    import workloads

    scale = inputs.SMOKE if args.smoke else inputs.DEFAULT
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](scale, args.seed, work, ROOT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        run = measure(wl, args.seconds, tracer)
        digest = wl.input_digest()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = run["plain"]
    out = wl.outcome
    details = {
        # what a run pays before measuring: the median build plus the warm-up
        "setup_s": (statistics.median(run["setup_times"]) + run["warmup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (out.failed / max(out.attempted, 1), "ratio"),
    }
    if plain:
        details.update(wl.details(plain))
    latencies = [o.seconds for o in plain]
    metrics = {
        "setup_s": details["setup_s"],
        "peak_rss_mb": details["peak_rss_mb"],
        "work_per_s": (rate(plain), "1/s"),
        "op_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
    }
    if tracer is not None:
        traced = run["traced"]
        n = wl.trace_ops(traced)
        metrics = {k: (v, tracing.unit_of(k)) for k, v in tracing.layer_metrics(tracer.spans, max(n, 1)).items()}
        base = rate(plain)
        metrics["trace.overhead_pct"] = (100.0 * (base - rate(traced)) / base if base else 0.0, "%")
        captions = tracing.durations(tracer.spans, "decoding.caption")
        if captions:
            details["caption.latency_s"] = (workloads.summary(captions), "s")
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, 1 client",
        "op": wl.op,
        "work_unit": wl.unit,
        "scale": scale.describe(),
        "setup_s_samples": run["setup_times"],
        "warmup_s": run["warmup_s"],
        "window_s": run["window_s"],
        "blocks": run["blocks"],
        "environment": environment(nproc, digest),
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "problems": out.problems,
    }
    for name, (value, unit) in {**details, **metrics}.items():
        print(f"{name:<28} {json.dumps(value)} {unit}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": out.failed == 0 and bool(plain),
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
