"""Atomic output files, a non-blocking open of input files, and the one
parser of JSON input.

`atomic_write` writes a temporary file in the target's directory and moves it
to the target when the write has finished, so at every instant, whatever the
process does, the path names a whole file, old or new; a failure first removes
the temporary file and leaves the previous one as it was. Over a regular file
the move is one `renameat2` RENAME_EXCHANGE, then an unlink of the old file,
now under the temporary name; elsewhere, or if the exchange fails, `os.replace`.
On ext4 (`auto_da_alloc`) a rename over a file first writes the new data out;
the exchange skips that wait and that ordering. Nothing is fsynced, so a power
loss soon after a rewrite can leave the path empty or partial, not old or new.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import json
import os
import secrets
import stat
from collections import Counter
from pathlib import Path
from typing import IO, Iterator

try:  # glibc 2.28+; None where libc lacks it
    _renameat2 = ctypes.CDLL(None).renameat2
except (AttributeError, OSError):
    _renameat2 = None
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2


def _exchange(a: Path, b: Path) -> bool:
    args = (_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE)
    return _renameat2 is not None and _renameat2(*args) == 0


def _move_into_place(tmp: Path, path: Path) -> None:
    """Move the finished file `tmp` to `path` (see the module docstring)."""
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # nothing at `path`: os.replace moves it there or says why not
        regular = False
    if regular and _exchange(tmp, path):
        try:
            os.unlink(tmp)  # the old file, now under the temporary name
        except OSError:  # `path` changed after the lstat, to a directory say
            _exchange(tmp, path)  # back as it was; the cleanup removes the new file
            raise
    else:
        os.replace(tmp, path)


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
        _move_into_place(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def open_regular(path: str | Path) -> IO[bytes]:
    """`path` opened for binary reading if it names a regular file; anything
    else raises OSError. The open does not wait: a plain open of a FIFO
    blocks until a writer appears."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(errno.EINVAL, "not a regular file")
    return open(fd, "rb")


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
