"""Exception hierarchy shared across the toolkit.

Every toolkit error carries a machine-parseable payload so the CLI can emit
structured diagnostics on stderr. ``exit_code`` follows the CLI contract:
2 for validation failures, 3 for runtime failures.
"""

from __future__ import annotations

import math
import numbers
import os


class ToolkitError(Exception):
    """Base class for all structured toolkit errors."""

    exit_code = 2

    def __init__(self, message: str, *, items: list | None = None):
        super().__init__(message)
        self.message = message
        self.items = items or []

    def payload(self) -> dict:
        out = {"error": type(self).__name__, "message": self.message}
        if self.items:
            out["items"] = self.items
        return out


class ValidationError(ToolkitError):
    """Inputs failed fail-fast validation (bad file, missing item, bad config)."""

    exit_code = 2


class RuntimeFailure(ToolkitError):
    """An operation failed after inputs were accepted."""

    exit_code = 3


def is_integer(value) -> bool:
    """An integer, not a bool: a config's JSON `2.0` or `true` is no count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer_problems(fields) -> list[str]:
    """One report item per (name, value, low) whose value is not an integer >= low."""
    return [
        f"{name}={value!r} must be an integer >= {low}"
        for name, value, low in fields
        if not is_integer(value) or value < low
    ]


def is_real(value) -> bool:
    """A real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A real number that is neither infinite nor NaN, not a bool."""
    return is_real(value) and math.isfinite(value)


def physical_memory() -> int:
    """Bytes of physical memory. Work estimated above it is refused as a
    ValidationError: allocating it would end in a MemoryError or the OOM
    killer, not in a report of the input at fault."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
