"""Synthetic contextual dueling environments with linear ground-truth rewards."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class FeatureTable:
    """Dense feature map phi indexed (context, action) -> R^d, with norm bound L."""

    phi: np.ndarray
    L: float

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim != 3:
            raise ValueError(f"phi must be (contexts, actions, dim), got shape {self.phi.shape}")
        norms = np.linalg.norm(self.phi, axis=2)
        if np.any(norms > self.L * (1 + 1e-9)):
            raise ValueError("a feature vector exceeds the stated norm bound L")

    @property
    def num_contexts(self) -> int:
        return self.phi.shape[0]

    @property
    def num_actions(self) -> int:
        return self.phi.shape[1]

    @property
    def dim(self) -> int:
        return self.phi.shape[2]


@dataclass
class GroundTruth:
    """Hidden reward parameter and the bounds the instance respects."""

    theta_star: np.ndarray
    B: float
    L: float

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if float(np.linalg.norm(self.theta_star)) > self.B * (1 + 1e-9):
            raise ValueError("theta_star lies outside the B-ball")


@dataclass
class BehaviorSpec:
    """Passive-mode pair distribution: uniform, with an optional sticky bad pair.

    With probability ``coverage_skew`` the draw returns ``fixed_pair``, a
    deliberately poorly-covering tuple, which starves the data of directions
    the optimal policy needs, stressing the concentrability term.
    """

    coverage_skew: float = 0.0
    fixed_pair: Tuple[int, int, int] = (0, 0, 1)

    def __post_init__(self):
        if not (0.0 <= self.coverage_skew <= 1.0):
            raise ValueError(f"coverage_skew must lie in [0, 1], got {self.coverage_skew}")


@dataclass
class Policy:
    """Deterministic context -> action map, total over the environment's contexts."""

    action_of: np.ndarray

    def __post_init__(self):
        self.action_of = np.asarray(self.action_of, dtype=int)

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.action_of, other.action_of)


@dataclass
class Environment:
    """Feature table, ground truth, context distribution, and passive behavior."""

    features: FeatureTable
    truth: GroundTruth
    rho: np.ndarray
    behavior: BehaviorSpec
    rng_seed: int
    _pair_index: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    _pair_diffs: Optional[np.ndarray] = field(default=None, repr=False)
    _cum_rho: Optional[List[float]] = field(default=None, repr=False)
    _reward_rows: Optional[List[List[float]]] = field(default=None, repr=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.features.num_contexts,):
            raise ValueError("rho must have one entry per context")
        if np.any(self.rho < 0) or abs(float(self.rho.sum()) - 1.0) > 1e-12:
            raise ValueError("rho must be a probability vector")

    # --- rewards ---------------------------------------------------------

    def rewards(self) -> np.ndarray:
        """True reward table phi . theta_star, shape (contexts, actions)."""
        return self.features.phi @ self.truth.theta_star

    def reward(self, x: int, a: int) -> float:
        """phi(x, a) . theta_star, from a table computed once.

        ``np.vecdot`` gives each entry the bits of ``phi[x, a] @ theta_star``.
        """
        if self._reward_rows is None:
            self._reward_rows = np.vecdot(self.features.phi, self.truth.theta_star).tolist()
        return self._reward_rows[x][a]

    def optimal_policy(self) -> Policy:
        return Policy(np.argmax(self.rewards(), axis=1))

    def draw_context(self, rng: np.random.Generator) -> int:
        """Sample a context id from rho via the cached inverse CDF."""
        if self._cum_rho is None:
            self._cum_rho = np.cumsum(self.rho).tolist()
        return min(bisect.bisect_right(self._cum_rho, rng.random()),
                   self.features.num_contexts - 1)

    def z_of(self, x: int, a: int, a_prime: int) -> np.ndarray:
        return self.features.phi[x, a] - self.features.phi[x, a_prime]

    # --- unordered action pairs, in lexicographic order -------------------

    def action_pairs(self) -> List[Tuple[int, int]]:
        if self._pair_index is None:
            A = self.features.num_actions
            if A == 1:
                self._pair_index = [(0, 0)]
            else:
                self._pair_index = [(a, b) for a in range(A) for b in range(a + 1, A)]
        return self._pair_index

    def pair_diffs(self) -> np.ndarray:
        """All z vectors for (context, a < a') tuples, rows in lexicographic order."""
        if self._pair_diffs is None:
            pairs = self.action_pairs()
            rows = [
                self.features.phi[x, a] - self.features.phi[x, b]
                for x in range(self.features.num_contexts)
                for (a, b) in pairs
            ]
            self._pair_diffs = np.asarray(rows)
        return self._pair_diffs


def make_environment(
    dim: int,
    num_contexts: int,
    num_actions: int,
    B: float = 1.0,
    L: float = 1.0,
    seed: int = 0,
    coverage_skew: float = 0.0,
) -> Environment:
    """Draw a random instance: theta* uniform in the B-ball, features uniform on the L-sphere."""
    if dim < 1 or num_contexts < 1 or num_actions < 1:
        raise ValueError("dim, num_contexts and num_actions must be positive")
    if B <= 0 or L <= 0:
        raise ValueError("B and L must be positive")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    theta_star = direction * B * rng.random() ** (1.0 / dim)
    phi = rng.standard_normal((num_contexts, num_actions, dim))
    phi *= L / np.linalg.norm(phi, axis=2, keepdims=True)
    rho = np.full(num_contexts, 1.0 / num_contexts)
    fixed_pair = (0, 0, min(1, num_actions - 1))
    return Environment(
        features=FeatureTable(phi=phi, L=L),
        truth=GroundTruth(theta_star=theta_star, B=B, L=L),
        rho=rho,
        behavior=BehaviorSpec(coverage_skew=coverage_skew, fixed_pair=fixed_pair),
        rng_seed=seed,
    )


def draw_passive_pair(env: Environment, rng: np.random.Generator) -> Tuple[int, int, int]:
    """Draw the passive-mode (context, action, action') tuple.

    Always consumes the same number of random variates regardless of the
    skew coin so that streams stay aligned across skew settings.
    """
    coin = rng.random()
    x = env.draw_context(rng)
    pairs = env.action_pairs()
    a, b = pairs[int(rng.integers(len(pairs)))]
    if coin < env.behavior.coverage_skew:
        return env.behavior.fixed_pair
    return x, a, b
