"""Shared estimator surface: sklearn-style params, fit/predict, input checks,
and the curvature-matrix core (norms, snapshots) the estimators share.

The estimators follow the scikit-learn conventions closely enough to compose
with that ecosystem (``get_params``/``set_params`` as used by ``sklearn.clone``,
constructor-only hyperparameters, learned attributes with trailing underscores)
without importing it.
"""

from __future__ import annotations

import inspect
import json
from typing import Optional, Tuple

import numpy as np

from .linalg import LocalNormMatrix

__all__ = ["check_vector", "check_label", "check_pair_samples", "BaseRewardEstimator"]


def check_vector(z, dim: int, name: str = "z") -> np.ndarray:
    """Coerce to a finite float vector of length ``dim``."""
    arr = np.asarray(z, dtype=float).reshape(-1)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {np.shape(z)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_label(y) -> None:
    """Reject anything but a 0/1 preference label."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")


def check_pair_samples(Z, y, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce (Z, y) to a (n, dim) float matrix and an (n,) array of 0/1 labels."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise ValueError(f"Z must have shape (n, {dim}), got {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("Z contains non-finite entries")
    y = np.asarray(y).reshape(-1)
    if y.shape[0] != Z.shape[0]:
        raise ValueError(f"y has length {y.shape[0]}, expected {Z.shape[0]}")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    return Z, y.astype(int)


class BaseRewardEstimator:
    """Common surface of the online reward estimators.

    Subclasses store hyperparameters verbatim in ``__init__``, create state in
    ``reset``, and implement ``update`` for a single preference sample
    (feature difference ``z``, binary label ``y``) and ``radius``. Everything
    else here is derived from those pieces.

    An estimator that keeps a ``LocalNormMatrix`` names the attribute holding
    it in ``curvature_attr``; the norms, the matrices and the snapshot all read
    it from there. ``kind`` tags the snapshot.
    """

    curvature_attr: Optional[str] = None
    kind: str

    # --- sklearn-style parameter handling -------------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseRewardEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # --- lifecycle -------------------------------------------------------

    def reset(self) -> "BaseRewardEstimator":
        raise NotImplementedError

    def update(self, z: np.ndarray, y: int) -> None:
        """Consume one preference sample. Subclasses implement the actual step."""
        raise NotImplementedError

    def _ensure_state(self) -> None:
        if not hasattr(self, "theta_"):
            self.reset()

    def observe(self, sample) -> None:
        """Consume a PreferenceSample record."""
        self._ensure_state()
        self.update(sample.z, sample.y)

    def partial_fit(self, Z, y) -> "BaseRewardEstimator":
        """Feed samples one at a time in row order, keeping existing state."""
        self._ensure_state()
        Z, y = check_pair_samples(Z, y, self.dim)
        for row, label in zip(Z, y):
            self.update(row, int(label))
        return self

    def fit(self, Z, y) -> "BaseRewardEstimator":
        """Reset, then consume the samples in one sequential pass."""
        self.reset()
        return self.partial_fit(Z, y)

    # --- prediction ------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Estimated rewards X @ theta for feature rows X."""
        self._ensure_state()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.theta_

    def predict_proba(self, Z) -> np.ndarray:
        """P(first action preferred) = sigma(z . theta) for feature-difference rows."""
        logits = self.predict(Z)
        out = np.empty_like(logits)
        pos = logits >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
        e = np.exp(logits[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    def averaged_theta(self) -> np.ndarray:
        """Average of all iterates produced so far, the zero initial one included."""
        self._ensure_state()
        return self.theta_sum_ / self.t_

    # --- hooks used by the scenario loops --------------------------------

    def local_norm(self, v: np.ndarray) -> float:
        """Norm of v under the estimator's curvature matrix."""
        return getattr(self, self.curvature_attr).norm(v)

    def inv_norm(self, v: np.ndarray) -> float:
        """Norm of v under the inverse curvature matrix (uncertainty scale)."""
        return getattr(self, self.curvature_attr).inv_norm(v)

    def inv_norm_matrix(self) -> np.ndarray:
        """The inverse curvature matrix itself, for policy/selection helpers."""
        return getattr(self, self.curvature_attr).inv

    def local_norm_matrix(self) -> Optional[np.ndarray]:
        """The curvature matrix when one is materialized, else None."""
        if self.curvature_attr is None:
            return None
        return getattr(self, self.curvature_attr).mat

    def radius(self, t: Optional[int] = None) -> float:
        """Confidence radius at iteration t (defaults to the current counter)."""
        raise NotImplementedError

    # --- snapshotting ------------------------------------------------------

    def _snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.get_params(),
            "t": self.t_,
            "theta": self.theta_.tolist(),
            "theta_sum": self.theta_sum_.tolist(),
            self.curvature_attr[:-1]: self.local_norm_matrix().reshape(-1).tolist(),
        }

    def _restore(self, payload: dict) -> None:
        self.t_ = int(payload["t"])
        self.theta_ = np.asarray(payload["theta"], dtype=float)
        self.theta_sum_ = np.asarray(payload["theta_sum"], dtype=float)
        mat = np.asarray(payload[self.curvature_attr[:-1]], dtype=float)
        mat = mat.reshape(self.dim, self.dim)
        setattr(self, self.curvature_attr,
                LocalNormMatrix(mat=mat, inv=np.linalg.inv(mat), dim=self.dim))

    def save(self, path) -> None:
        """Write a text snapshot: params, counter, iterates, curvature row-major."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._snapshot(), fh)

    @classmethod
    def load(cls, path) -> "BaseRewardEstimator":
        """Rebuild from a snapshot; the inverse is recomputed, never trusted."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        est = cls(**payload["params"]).reset()
        est._restore(payload)
        return est
