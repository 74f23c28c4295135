"""Tiny argument-validation helpers.

All public constructors in the library validate their numeric arguments with
these helpers so that misconfiguration fails fast with a message naming the
offending parameter, instead of surfacing as a confusing downstream error in
the middle of a long simulation run.
"""

from __future__ import annotations

import math
import operator
from typing import Union

Number = Union[int, float]

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_int",
    "check_node_id",
]


def _finite(name: str, value: Number) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_positive(name: str, value: Number) -> Number:
    """Raise ``ValueError`` unless ``value > 0``; return it otherwise."""
    _finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Raise ``ValueError`` unless ``value >= 0``; return it otherwise."""
    _finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    _finite(name, value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_in_range(
    name: str,
    value: Number,
    low: Number,
    high: Number,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> Number:
    """Raise ``ValueError`` unless ``value`` lies in the given interval."""
    _finite(name, value)
    lo_ok = value >= low if low_inclusive else value > low
    hi_ok = value <= high if high_inclusive else value < high
    if not (lo_ok and hi_ok):
        lb = "[" if low_inclusive else "("
        hb = "]" if high_inclusive else ")"
        raise ValueError(f"{name} must lie in {lb}{low}, {high}{hb}, got {value!r}")
    return value


def check_int(name: str, value: object) -> int:
    """Raise ``TypeError`` unless ``value`` is an integral number."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return int(value)


def check_node_id(value: object, n: int, name: str = "node") -> int:
    """Return ``value`` as a node id of an ``n``-node network.

    It must be integral (``operator.index``: floats, even integral-valued
    ones, are rejected instead of silently truncated — a fractional id is
    always a caller bug) and lie in ``[0, n)`` — a negative id would
    otherwise index from the end of every per-node array.
    """
    try:
        i = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(
            f"{name} ids must be integers, got {type(value).__name__} ({value!r})"
        ) from None
    if not 0 <= i < n:
        raise ValueError(f"{name} id {i} out of range for {n} nodes")
    return i
