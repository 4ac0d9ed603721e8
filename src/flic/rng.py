"""Keyed random streams shared by every module that draws random numbers,
and the draw of an active client set from one of them, which the
federated rounds and the theory harness both make."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["stream", "active_count", "select_active_clients"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """A generator for ``(seed, *key)``; the same key always yields the
    same draws, whatever else the run has drawn before.

    Keys are not fully independent: ``SeedSequence`` drops trailing zero
    words of its entropy, so two keys that differ only by trailing zeros,
    such as ``(4, 0)`` and ``(4, 0, 0)``, give the same stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def active_count(b: int, rate: float) -> int:
    """The size of an active set: ``max(1, floor(rate * b))``, the floor
    taken of the rate as written. The float product can fall just short of
    a whole number (``0.29 * 100`` is 28.999999999999996), so its floor is
    raised by one when ``(floor + 1) / b`` rounds to ``rate`` or below:
    0.29 of 100 clients is 29, and a rate of ``m / b`` gives ``m``."""
    if b < 1:
        raise ValueError("need at least one client")
    m = math.floor(rate * b)
    if (m + 1) / b <= rate:
        m += 1
    return max(1, m)


def select_active_clients(b: int, rate: float, rng) -> np.ndarray:
    """Uniform subset of ``max(1, floor(rate * b))`` clients, sorted, drawn
    without replacement. The floor is of the rate as written, so 0.29 of
    100 clients selects 29 though ``0.29 * 100`` is just below 29 in
    floating point (see :func:`active_count`)."""
    return np.sort(rng.choice(b, size=active_count(b, rate), replace=False))
