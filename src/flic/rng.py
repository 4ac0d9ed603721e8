"""Keyed random streams shared by every module that draws random numbers."""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """A generator for ``(seed, *key)``; the same key always yields the
    same draws, whatever else the run has drawn before.

    Keys are not fully independent: ``SeedSequence`` drops trailing zero
    words of its entropy, so two keys that differ only by trailing zeros,
    such as ``(4, 0)`` and ``(4, 0, 0)``, give the same stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
