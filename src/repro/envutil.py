"""Validated environment-variable settings.

Numeric deployment settings (``REPRO_STORE_LRU``) are read through
:func:`env_int`, so a typo'd value fails fast with the variable's name
in the message instead of raising a bare ``ValueError`` deep inside the
store.
"""

from __future__ import annotations

import os


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """``int(os.environ[name])`` with validation, or ``default`` if unset.

    Raises :class:`ValueError` naming the variable when the value is not
    an integer or is below ``minimum``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value
