"""Table-driven parsing of JSON configs: each key is declared once, as ``(convert, default)``.

``convert`` turns a JSON value into the value the code uses, range checks
included, and raises ``ValueError`` or ``TypeError`` on a bad one.  The
default is the JSON value an absent key stands for, converted like a given
one; ``REQUIRED`` marks a key that must be given, and ``None`` stands for
"not given".  Shapes and fields are tables of ``type -> (builder, keys)``,
each key named as the builder's parameter it is passed to.
"""

from __future__ import annotations

import math
import sys

from .errors import ConfigError, InnervarError

REQUIRED = object()  # the default of a key that must be given
# MemoryError: a builder sized by the config (a node count) asks for more than there is
_BAD_VALUE = (TypeError, ValueError, ArithmeticError, MemoryError, InnervarError)


def parse(spec, keys: dict, what: str) -> dict:
    """Every key of ``keys``, in table order, converted from ``spec`` or its default."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {spec!r}")
    extra = set(spec) - set(keys)
    if extra:
        raise ConfigError(f"{what}: unknown keys {sorted(extra)}")
    missing = [key for key, (_convert, default) in keys.items()
               if default is REQUIRED and key not in spec]
    if missing:
        raise ConfigError(f"{what}: missing keys {missing}")
    out = {}
    for key, (convert, default) in keys.items():
        if key not in spec and default is None:
            out[key] = None
            continue
        try:
            out[key] = convert(spec.get(key, default))
        except _BAD_VALUE as exc:
            raise ConfigError(f"{what}: {key}: {exc}") from exc
    return out


def build(spec, builders: dict, what: str):
    """Build a ``{"type": ..., key: value, ...}`` descriptor from ``type -> (builder, keys)``."""
    # a list compares by ==, so an unhashable 'type' is an unknown one, not a TypeError
    if not isinstance(spec, dict) or spec.get("type") not in list(builders):
        raise ConfigError(f"{what} descriptor needs a 'type' in {sorted(builders)}, got {spec!r}")
    builder, keys = builders[spec["type"]]
    what = f"{what} {spec['type']!r}"
    opts = parse({k: v for k, v in spec.items() if k != "type"}, keys, what)
    try:
        return builder(**opts)
    except _BAD_VALUE as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def as_is(value):
    """Structured values (matrices, term tables, centers), which their builder checks."""
    return value


def checked(convert, holds, rule: str):
    """A converter: ``convert``, then a ValueError unless ``holds`` of the result."""

    def check(value):
        out = convert(value)
        if not holds(out):
            raise ValueError(f"{value!r} is not {rule}")
        return out

    return check


def integer(value) -> int:
    """A whole number; a fraction, a boolean or a string raises instead of being converted."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


count = checked(integer, lambda n: n >= 1, "a count of at least 1")
natural = checked(integer, lambda n: n >= 0, "a non-negative integer")
finite = checked(float, math.isfinite, "a finite number")
positive = checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")
# a bump divides by r^2, which must be a normal float: r from about 1.5e-154 to 1.3e154
bump_radius = checked(float, lambda r: r > 0.0 and sys.float_info.min <= r * r < math.inf,
                      "a positive radius whose square is a normal float")


def one_of(*choices):
    return checked(as_is, lambda v: v in choices, f"one of {list(choices)}")
