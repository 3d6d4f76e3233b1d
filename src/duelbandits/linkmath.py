"""Logistic link arithmetic, Bradley-Terry sampling, and the non-linearity coefficient."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _sigmoid(w: float) -> float:
    e = math.exp(-abs(w))
    return 1.0 / (1.0 + e) if w >= 0 else e / (1.0 + e)


def sigmoid_pair(w) -> Tuple[float, float]:
    """Return (sigma(w), sigma'(w)) for the logistic link sigma(w) = 1/(1+e^-w).

    Computed via exp(-|w|) so that arguments up to +-700 neither overflow
    nor lose the derivative to cancellation. A numpy array of arguments (one
    per seed of a lockstep stack) gives two arrays. Their exponentials still come
    from ``math.exp`` one at a time: ``np.exp`` can differ from it in the last
    bit, and a stacked seed must match its solo run exactly.
    """
    if isinstance(w, np.ndarray) and w.ndim:
        values = w.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(f"sigmoid argument must be finite, got {w!r}")
        s = np.array([_sigmoid(v) for v in values])
        return s, s * (1.0 - s)
    w = float(w)
    if not math.isfinite(w):
        raise ValueError(f"sigmoid argument must be finite, got {w!r}")
    s = _sigmoid(w)
    return s, s * (1.0 - s)


def sigmoid_rows(s: np.ndarray) -> np.ndarray:
    """sigma(s) for an array of arguments, each through exp of a non-positive number."""
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bt_sample(reward_a, reward_b, rng):
    """Draw a Bradley-Terry preference label.

    Returns 1 (first action preferred) with probability sigma(reward_a - reward_b).
    ``rng`` is a generator, or the float uniform draw it would give at this
    point. For numpy arrays of rewards, one pair per seed of a lockstep stack,
    ``rng`` is the array of uniform draws, each taken from its own seed's
    generator; the labels come back as an int array.
    """
    if isinstance(reward_a, np.ndarray) and reward_a.ndim:
        diffs = np.subtract(reward_a, reward_b).tolist()
        if not all(map(math.isfinite, diffs)):
            raise ValueError("rewards must be finite")
        return np.array([u < _sigmoid(v) for v, u in zip(diffs, rng.tolist())], dtype=np.int64)
    if not (math.isfinite(reward_a) and math.isfinite(reward_b)):
        raise ValueError("rewards must be finite")
    p, _ = sigmoid_pair(reward_a - reward_b)
    return 1 if (rng if isinstance(rng, float) else rng.random()) < p else 0


def kappa_bound(B: float, L: float) -> float:
    """Closed-form upper bound 3 + exp(2*B*L) on the non-linearity coefficient."""
    if B <= 0 or L <= 0:
        raise ValueError(f"B and L must be positive, got B={B}, L={L}")
    return 3.0 + math.exp(2.0 * B * L)
