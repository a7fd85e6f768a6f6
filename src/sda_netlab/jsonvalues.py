"""The JSON value rules every config, overlay and Python-built source
obeys: a finite JSON number of the right kind, or a JSON string."""

from __future__ import annotations

import sys


def json_number(raw, name: str, kind: type = float):
    """``raw`` as ``kind`` when it is a finite JSON number (for ``kind=int``,
    an integer); a bool or a string is never one.  Raises ``ValueError``
    prefixed by ``name``.  Every numeric config value goes through here."""
    integer = kind is int
    if isinstance(raw, bool) or not isinstance(raw, int if integer else (int, float)):
        raise ValueError(f"{name}: must be {'an integer' if integer else 'a number'}, got {raw!r}")
    if integer:
        return raw
    if not abs(raw) <= sys.float_info.max:  # NaN, infinities, integers beyond a float
        raise ValueError(f"{name}: must be finite")
    return float(raw)


def json_string(raw, name: str) -> str:
    """``raw`` when it is a JSON string; raises ``ValueError`` prefixed by
    ``name``.  Config ids and paths go through here, never ``str()``."""
    if not isinstance(raw, str):
        raise ValueError(f"{name}: must be a string, got {raw!r}")
    return raw
