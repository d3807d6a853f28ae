"""Which lines of polycap the bench and the golden run never execute.

    python tests/traffic.py

Runs the three `perfbench/run.py --smoke --seconds 1 --trace 0` workloads and
the golden flow's STEPS (`tests/golden/pin.py`) in this process, under a
`sys.settrace` line tracer limited to `src/polycap`, and prints, per module,
the executable lines that never ran. Error branches show up too: read the
list, gate nothing on it. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polycap"
RAN: set[tuple[str, int]] = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None
    RAN.add((frame.f_code.co_filename, frame.f_lineno))  # a call starts at the def line

    def line(frame, event, arg):
        if event == "line":
            RAN.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    return line


def executable_lines(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(n for _, n in dis.findlinestarts(code) if n)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def ranges(numbers: list[int]) -> str:
    spans: list[list[int]] = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    sys.settrace(trace)
    import run  # perfbench/run.py; polycap is imported under the tracer

    from golden.pin import HERE, STEPS
    from polycap.cli import main as polycap_main

    with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as work:
        for workload in ("train", "caption", "prepare_eval"):
            argv = ["--workload", workload, "--seed", "1", "--smoke", "--seconds", "1", "--trace", "0"]
            assert run.main(argv) == 0, workload
        shutil.copytree(HERE, work, dirs_exist_ok=True)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in STEPS:
                assert polycap_main(argv) == 0, argv[0]
        finally:
            os.chdir(cwd)
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(n for n in executable_lines(path) if (str(path), n) not in RAN)
        print(f"{path.name}: {ranges(missed) or '-'}")


if __name__ == "__main__":
    main()
