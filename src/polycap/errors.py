"""Exception hierarchy shared across the toolkit.

Every toolkit error carries a machine-parseable payload so the CLI can emit
structured diagnostics on stderr. ``exit_code`` follows the CLI contract:
2 for validation failures, 3 for runtime failures.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import typing


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


def config_from_json(cls, doc, what: str):
    """The config dataclass `cls` built from its JSON object `doc`. Each key
    that is no field, each missing required field and each value that should
    be an object but is not, at any depth, is one item (by its dotted path) of
    one ValidationError `what`, raised before any class checks its values. A
    dataclass field is built from its own object (or is null, if its type
    allows None), a tuple field from a JSON list."""
    problems = []

    def build(cls, doc, where: str, check: bool):
        if not isinstance(doc, dict):
            kind = type(doc).__name__
            problems.append(f"'{where[:-1]}' must be an object" if where else f"expected an object, got {kind}")
            return None
        hints, values = typing.get_type_hints(cls), {}
        problems.extend(f"unknown key '{where}{key}'" for key in doc if key not in hints)
        for f in dataclasses.fields(cls):
            if f.name not in doc:
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                    problems.append(f"missing required key '{where}{f.name}'")
                continue
            value, kinds = doc[f.name], typing.get_args(hints[f.name]) or (hints[f.name],)
            nested = [kind for kind in kinds if dataclasses.is_dataclass(kind)]
            if nested and not (value is None and type(None) in kinds):
                value = build(nested[0], value, f"{where}{f.name}.", check)
            elif typing.get_origin(hints[f.name]) is tuple and isinstance(value, list):
                value = tuple(value)
            values[f.name] = value
        return None if check else cls(**values)

    build(cls, doc, "", check=True)
    if problems:
        raise ValidationError(what, items=problems)
    return build(cls, doc, "", check=False)


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
