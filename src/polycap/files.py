"""Atomic output files: a crash mid-write never leaves a half-written file.

`atomic_write` writes to a temporary file in the target's directory and moves
it over the target with one `os.replace` once the write has finished. If
anything fails first, the temporary file is removed and the previous file,
if any, is left as it was. This guards against the process failing; it does
not fsync, so it makes no promise across a power loss.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a new temporary file for writing, UTF-8 text unless `binary`,
    that replaces `path` when the block exits cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
