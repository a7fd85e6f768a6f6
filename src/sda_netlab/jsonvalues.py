"""The JSON value rules every config, overlay and Python-built source
obeys: a finite JSON number of the right kind, a JSON string, or an object
with known keys, none of them repeated; and the config key that prefixes
every error."""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager


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


class JsonObject(dict):
    """A decoded JSON object that remembers the keys its text repeats, which
    a plain ``dict`` would resolve to the last value without a word; every
    config and overlay file is read with it as the ``object_pairs_hook``."""

    def __init__(self, pairs=()):
        super().__init__(pairs)
        counts = Counter(key for key, _ in pairs)
        self.duplicates = sorted(key for key, count in counts.items() if count > 1)


def key_errors(raw: dict, required=(), optional=()) -> list[str]:
    """Every key error of the object ``raw``: each repeated key, then each
    unknown key, in sorted order, then each missing ``required`` key in the
    order given."""
    return [f"{key}: duplicate key" for key in getattr(raw, "duplicates", ())] + [
        f"{key}: unknown key" for key in sorted(set(raw) - {*required, *optional})
    ] + [f"{key}: required key is missing" for key in required if key not in raw]


def json_object(raw, name: str, required=(), optional=()) -> dict:
    """``raw`` when it is a JSON object whose keys are all ``required`` or
    ``optional`` and include every ``required`` one; raises ``ValueError``
    prefixed by ``name`` at the first problem.  Every config object but the
    top level, whose errors are all reported, goes through here."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name}: must be an object")
    errors = key_errors(raw, required, optional)
    if errors:
        raise ValueError(f"{name}: {errors[0]}")
    return raw


@contextmanager
def config_key(key: str):
    """Prefix a ``ValueError`` raised inside with ``key``, the config key of
    its input, and raise an ``OSError`` that reading the input met as one."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ValueError(f"{key}: {exc}") from None
