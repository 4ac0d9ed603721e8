"""Keyed random streams shared by every module that draws random numbers."""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for ``(seed, *key)``; the same key always
    yields the same draws, whatever else the run has drawn before."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
