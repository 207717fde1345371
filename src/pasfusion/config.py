"""The one check every config value goes through, and the error it raises.

Imports no numpy, so the CLI can parse its arguments without loading it.
"""
from __future__ import annotations

import math

NUMBER = (int, float)       # a JSON number; a bool is never one


class ConfigError(ValueError):
    """A malformed configuration value; the CLI exits 2."""


def check(value, name: str, kinds: tuple, ok=None, rule: str = ""):
    """``value`` if its exact type is one of ``kinds`` and ``ok(value)``
    holds (``rule`` says how, in words); ``None`` passes when ``kinds``
    holds it. Anything else, and a float that is not finite (Python's
    ``json`` reads ``NaN`` and ``Infinity``), is a ConfigError naming ``name``."""
    if value is None and None in kinds:
        return value
    if (type(value) not in kinds or (type(value) is float and not math.isfinite(value))
            or (ok is not None and not ok(value))):
        kind = "/".join(getattr(k, "__name__", "null") for k in kinds)
        raise ConfigError(f"config key {name!r} must be {kind}{rule and ' ' + rule}, "
                          f"got {value!r}")
    return value
