"""Shared estimator surface: sklearn-style params, fit/predict, input checks,
the hyperparameters and iterates every estimator keeps, and the
curvature-matrix core (norms, snapshots) the estimators share.

The estimators follow the scikit-learn conventions closely enough to compose
with that ecosystem (``get_params``/``set_params`` as used by ``sklearn.clone``,
constructor-only hyperparameters, learned attributes with trailing underscores)
without importing it.
"""

from __future__ import annotations

import inspect
import json
import math
from typing import Optional, Tuple

import numpy as np

from .linalg import LocalNormMatrix
from .linkmath import kappa_bound, sigmoid_rows

__all__ = ["check_vector", "check_label", "check_pair_samples", "practical_radius",
           "default_step_size", "default_regularization", "resolve_hyperparameters",
           "BaseRewardEstimator"]


def default_step_size(B: float, L: float) -> float:
    """Step size (1/2) log 2 + (B*L + 1) that the confidence guarantee assumes."""
    return 0.5 * math.log(2.0) + (B * L + 1.0)


def default_regularization(eta: float, dim: int, B: float, L: float) -> float:
    """Regularization 84*sqrt(2)*eta*(d*L^2 + B*L^3) paired with the default step size."""
    return 84.0 * math.sqrt(2.0) * eta * (dim * L**2 + B * L**3)


def resolve_hyperparameters(dim: int, B: float, L: float, eta: Optional[float],
                            lam: Optional[float], c_beta: float,
                            delta: float) -> Tuple[float, float]:
    """(eta, lam), each one left None filled from its closed form, once every value checks.

    A bad value raises ValueError whose message starts with the parameter's
    name. Besides being positive and finite, lam must keep 1/lam and
    kappa_bound(B, L) * lam finite: the first seeds the maintained inverse, the
    second is the floor of MLE's scatter matrix and of the domination audit's.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    for name, value in (("B", B), ("L", L)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    try:
        kappa = kappa_bound(B, L)
    except OverflowError:
        raise ValueError(f"B is too large for L={L}: "
                         f"kappa = 3 + exp(2*B*L) is not finite at B={B}") from None
    if not c_beta >= 0:
        raise ValueError(f"c_beta must be >= 0, got {c_beta}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if eta is None:
        eta = default_step_size(B, L)
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if lam is None:
        lam = default_regularization(eta, dim, B, L)
    if not (0 < lam < math.inf and 1.0 / lam < math.inf and kappa * lam < math.inf):
        raise ValueError(f"lam must be positive with 1/lam and kappa*lam = "
                         f"(3 + exp(2*B*L))*lam finite, got {lam}")
    return eta, lam


def practical_radius(coeff: float, dim: int, t: int, delta: float) -> float:
    """The practical confidence radius coeff * sqrt(d log((t+1)/delta)) at iteration t."""
    return coeff * math.sqrt(dim * math.log((t + 1) / delta))


def check_vector(z, dim: int, name: str = "z", lead: Tuple[int, ...] = ()) -> np.ndarray:
    """Coerce to a finite float vector of length ``dim``, or a ``lead`` stack of them."""
    arr = np.asarray(z, dtype=float)
    if not lead:
        arr = arr.reshape(-1)
    if arr.shape != (*lead, dim):
        raise ValueError(f"{name} must have shape {(*lead, dim)}, got {np.shape(z)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_label(y) -> None:
    """Reject anything but a 0/1 preference label (or a numpy array of them, for a stack)."""
    if isinstance(y, np.ndarray) and y.ndim:
        if not set(y.tolist()) <= {0, 1}:
            raise ValueError(f"labels must be 0 or 1, got {y!r}")
    elif y not in (0, 1):
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

    Subclasses store hyperparameters verbatim in ``__init__``, add their own
    state to the base's ``reset``, and implement ``update`` for a single
    preference sample (feature difference ``z``, binary label ``y``), ending it
    with ``_advance``. The base ``reset`` checks the shared hyperparameters and
    resolves ``eta_`` and ``lam_``; an estimator that takes no ``eta`` or
    ``lam`` gets the closed form. Everything else here is derived from those
    pieces.

    An estimator that keeps a ``LocalNormMatrix`` names the attribute holding
    it in ``curvature_attr``; the norms, the matrices and the snapshot all read
    it from there. ``kind`` tags the snapshot.
    """

    curvature_attr: Optional[str] = None
    kind: str
    eta: Optional[float] = None
    lam: Optional[float] = None

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
        """Check the hyperparameters, resolve eta_ and lam_, and start at theta = 0, t = 1."""
        self.eta_, self.lam_ = resolve_hyperparameters(
            self.dim, self.B, self.L, self.eta, self.lam, self.c_beta, self.delta)
        self.theta_ = np.zeros(self.dim)
        self.theta_sum_ = np.zeros(self.dim)
        self.t_ = 1
        return self

    def update(self, z: np.ndarray, y: int) -> None:
        """Consume one preference sample. Subclasses implement the actual step."""
        raise NotImplementedError

    def _advance(self, theta_next: np.ndarray) -> None:
        """Make theta_next the current iterate, add it to the running sum, and count the step."""
        self.theta_ = theta_next
        self.theta_sum_ = self.theta_sum_ + theta_next
        self.t_ += 1

    def _ensure_state(self) -> None:
        if not hasattr(self, "theta_"):
            self.reset()

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
        return sigmoid_rows(self.predict(Z))

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
        """Confidence radius at iteration t (default: the current counter); practical here."""
        return practical_radius(self.c_beta, self.dim, self.t_ if t is None else t, self.delta)

    # --- snapshotting ------------------------------------------------------

    def _snapshot(self) -> dict:
        payload = {
            "kind": self.kind,
            "params": self.get_params(),
            "t": self.t_,
            "theta": self.theta_.tolist(),
            "theta_sum": self.theta_sum_.tolist(),
        }
        if self.curvature_attr is not None:
            payload[self.curvature_attr[:-1]] = self.local_norm_matrix().reshape(-1).tolist()
        return payload

    def _restore(self, payload: dict) -> None:
        self.t_ = int(payload["t"])
        self.theta_ = np.asarray(payload["theta"], dtype=float)
        self.theta_sum_ = np.asarray(payload["theta_sum"], dtype=float)
        if self.curvature_attr is None:
            return
        mat = np.asarray(payload[self.curvature_attr[:-1]], dtype=float)
        mat = mat.reshape(self.dim, self.dim)
        setattr(self, self.curvature_attr,
                LocalNormMatrix(mat=mat, inv=np.linalg.inv(mat), dim=self.dim))

    def save(self, path) -> None:
        """Write a text snapshot: params, counter, iterates, any curvature matrix row-major."""
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
