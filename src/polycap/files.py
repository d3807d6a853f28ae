"""Atomic output files, and the one parser of JSON input.

`atomic_write` writes to a temporary file in the target's directory and moves
it over the target with one `os.replace` once the write has finished, so a
crash mid-write never leaves a half-written file. If anything fails first,
the temporary file is removed and the previous file, if any, is left as it
was. This guards against the process failing; it does not fsync, so it makes
no promise across a power loss.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from collections import Counter
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


def parse_json(text: str) -> tuple[object, list[str]]:
    """The value of JSON `text`, and one `repeated key 'k'` item per key an
    object of it repeats (`json.loads` alone keeps the last). Malformed JSON,
    or an integer past Python's digit limit, raises ValueError."""
    repeated = []

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):  # only a repeated key shrinks the dict
            repeated.extend(f"repeated key {key!r}" for key, n in Counter(k for k, _ in pairs).items() if n > 1)
        return obj

    return json.loads(text, object_pairs_hook=unique_keys), repeated
