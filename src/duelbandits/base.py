"""Shared estimator surface: constructor parameters, input checks, the
hyperparameters and iterates every estimator keeps, and the curvature-matrix
core (norms, snapshots) the estimators share.

Hyperparameters are constructor-only and stored verbatim; learned state has a
trailing underscore.
"""

from __future__ import annotations

import inspect
import json
import math
from typing import Optional, Tuple

import numpy as np

from .linalg import LocalNormMatrix
from .linkmath import kappa_bound


def default_step_size(B: float, L: float) -> float:
    """Step size (1/2) log 2 + (B*L + 1) that the confidence guarantee assumes."""
    return 0.5 * math.log(2.0) + (B * L + 1.0)


def default_regularization(eta: float, dim: int, B: float, L: float) -> float:
    """Regularization 84*sqrt(2)*eta*(d*L^2 + B*L^3) paired with the default step size."""
    return 84.0 * math.sqrt(2.0) * eta * (dim * L**2 + B * L**3)


def resolve_hyperparameters(dim: int, B: float, L: float, eta: Optional[float],
                            lam: Optional[float], c_beta: float, delta: float,
                            uses_lam: bool = True) -> Tuple[float, Optional[float]]:
    """(eta, lam), each one left None filled from its closed form, once every value checks.

    A bad value raises ValueError whose message starts with the parameter's
    name. Besides being positive and finite, lam must keep 1/lam and
    kappa_bound(B, L) * lam finite: the first seeds the maintained inverse, the
    second is the floor of MLE's scatter matrix and of the domination audit's.
    For an estimator that takes no lam (``uses_lam`` false), lam is neither
    resolved nor checked and comes back None.
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
    if not uses_lam:
        return eta, None
    if lam is None:
        lam = default_regularization(eta, dim, B, L)
    if not (0 < lam < math.inf and 1.0 / lam < math.inf and kappa * lam < math.inf):
        raise ValueError(f"lam must be positive with 1/lam and kappa*lam = "
                         f"(3 + exp(2*B*L))*lam finite, got {lam}")
    return eta, lam


def practical_radius(coeff: float, dim: int, t: int, delta: float) -> float:
    """The practical confidence radius coeff * sqrt(d log((t+1)/delta)) at iteration t."""
    return coeff * math.sqrt(dim * math.log((t + 1) / delta))


def check_vector(z, dim: int, lead: Tuple[int, ...] = ()) -> np.ndarray:
    """Coerce to a finite float vector of length ``dim``, or a ``lead`` stack of them."""
    arr = np.asarray(z, dtype=float)
    if not lead:
        arr = arr.reshape(-1)
    if arr.shape != (*lead, dim):
        raise ValueError(f"z must have shape {(*lead, dim)}, got {np.shape(z)}")
    if not np.isfinite(arr).all():
        raise ValueError("z contains non-finite entries")
    return arr


def check_label(y) -> None:
    """Reject anything but a 0/1 preference label (or a numpy array of them, for a stack)."""
    if isinstance(y, np.ndarray) and y.ndim:
        if not set(y.tolist()) <= {0, 1}:
            raise ValueError(f"labels must be 0 or 1, got {y!r}")
    elif y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")


class BaseRewardEstimator:
    """Common surface of the online reward estimators.

    Subclasses store hyperparameters verbatim in ``__init__``, add their own
    state to the base's ``reset``, and implement ``update`` for a single
    preference sample (feature difference ``z``, binary label ``y``), ending it
    with ``_advance``. The base ``reset`` checks the shared hyperparameters and
    resolves ``eta_`` and ``lam_``; an estimator that takes no ``eta`` gets
    the closed form, and one that takes no ``lam`` (hvpcg, whose damping
    schedule stands in for it) gets ``lam_`` None. Everything else here is
    derived from those pieces.

    An estimator that keeps a ``LocalNormMatrix`` names the attribute holding
    it in ``curvature_attr``; the norms, the matrices and the snapshot all read
    it from there. ``kind`` tags the snapshot.
    """

    curvature_attr: Optional[str] = None
    kind: str
    eta: Optional[float] = None
    lam: Optional[float] = None

    # --- constructor parameters -----------------------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self) -> dict:
        """The constructor arguments, by name."""
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # --- lifecycle -------------------------------------------------------

    def reset(self) -> "BaseRewardEstimator":
        """Check the hyperparameters, resolve eta_ and lam_, and start at theta = 0, t = 1."""
        self.eta_, self.lam_ = resolve_hyperparameters(
            self.dim, self.B, self.L, self.eta, self.lam, self.c_beta, self.delta,
            uses_lam="lam" in self._param_names())
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

    def averaged_theta(self) -> np.ndarray:
        """Average of all iterates produced so far, the zero initial one included."""
        return self.theta_sum_ / self.t_

    # --- hooks used by the scenario loops --------------------------------

    def local_norm(self, v: np.ndarray) -> float:
        """Norm of v under the estimator's curvature matrix."""
        return getattr(self, self.curvature_attr).norm(v)

    def inv_norm_matrix(self) -> np.ndarray:
        """The inverse curvature matrix itself, for policy/selection helpers."""
        return getattr(self, self.curvature_attr).inv

    def local_norm_matrix(self) -> Optional[np.ndarray]:
        """The curvature matrix when one is materialized, else None."""
        if self.curvature_attr is None:
            return None
        return getattr(self, self.curvature_attr).mat

    def radius(self) -> float:
        """Confidence radius at the current counter t_; practical here."""
        return practical_radius(self.c_beta, self.dim, self.t_, self.delta)

    # --- snapshotting ------------------------------------------------------

    def _snapshot(self) -> dict:
        payload = {
            "kind": self.kind,
            "params": self.get_params(),
            "t": self.t_,
            "theta": self.theta_.tolist(),
            "theta_sum": self.theta_sum_.tolist(),
        }
        if hasattr(self, "projections_"):
            payload["projections"] = int(self.projections_)
        if self.curvature_attr is not None:
            payload[self.curvature_attr[:-1]] = self.local_norm_matrix().reshape(-1).tolist()
        return payload

    def _restore(self, payload: dict) -> None:
        self.t_ = int(payload["t"])
        self.theta_ = np.asarray(payload["theta"], dtype=float)
        self.theta_sum_ = np.asarray(payload["theta_sum"], dtype=float)
        if hasattr(self, "projections_"):
            self.projections_ = int(payload.get("projections", 0))
        if self.curvature_attr is None:
            return
        mat = np.asarray(payload[self.curvature_attr[:-1]], dtype=float)
        mat = mat.reshape(self.dim, self.dim)
        setattr(self, self.curvature_attr,
                LocalNormMatrix(mat=mat, inv=np.linalg.inv(mat), dim=self.dim))

    def save(self, path) -> None:
        """Write a text snapshot: params, counter, iterates, projections, any curvature matrix."""
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
