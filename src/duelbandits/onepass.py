"""One-pass mirror-descent reward estimator and its matrix-free variant.

The update keeps a running curvature matrix built from per-sample logistic
Hessians evaluated at the *next* iterate (a lookahead), takes a single
Newton-like step against that geometry, and projects back onto the parameter
ball in the same norm. Per-iteration cost and memory are O(d^2) regardless of
how many samples have been seen; no sample is ever stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .base import BaseRewardEstimator, check_label, check_vector, practical_radius
from .exceptions import NumericFailure
from .linalg import LocalNormMatrix, _identity, cg_solve, rank_one_inverse
from .linkmath import log_loss, sigmoid_pair

__all__ = [
    "OnePassConfig",
    "default_step_size",
    "default_regularization",
    "confidence_radius",
    "loss_derivatives",
    "project_localnorm_ball",
    "OnePassRewardEstimator",
    "HvpCgRewardEstimator",
]

RADIUS_MODES = ("practical", "theory")


def default_step_size(B: float, L: float) -> float:
    """Step size (1/2) log 2 + (B*L + 1) that the confidence guarantee assumes."""
    return 0.5 * math.log(2.0) + (B * L + 1.0)


def default_regularization(eta: float, dim: int, B: float, L: float) -> float:
    """Regularization 84*sqrt(2)*eta*(d*L^2 + B*L^3) paired with the default step size."""
    return 84.0 * math.sqrt(2.0) * eta * (dim * L**2 + B * L**3)


@dataclass(frozen=True)
class OnePassConfig:
    """Resolved hyperparameters of the one-pass estimator."""

    dim: int
    B: float
    L: float
    eta: float
    lam: float
    radius_mode: str = "practical"
    c_beta: float = 1.0
    delta: float = 0.1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        for name in ("B", "L", "eta", "lam"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"radius_mode must be one of {RADIUS_MODES}, got {self.radius_mode!r}")
        if self.c_beta < 0:
            raise ValueError(f"c_beta must be nonnegative, got {self.c_beta}")
        if not (0 < self.delta <= 1):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")

    @classmethod
    def resolve(
        cls,
        dim: int,
        B: float,
        L: float,
        eta: Optional[float] = None,
        lam: Optional[float] = None,
        radius_mode: str = "practical",
        c_beta: float = 1.0,
        delta: float = 0.1,
    ) -> "OnePassConfig":
        """Fill eta/lam from their closed-form defaults when not overridden."""
        if eta is None:
            eta = default_step_size(B, L)
        if lam is None:
            lam = default_regularization(eta, dim, B, L)
        return cls(dim=dim, B=B, L=L, eta=eta, lam=lam,
                   radius_mode=radius_mode, c_beta=c_beta, delta=delta)


def confidence_radius(t: int, config: OnePassConfig) -> float:
    """Confidence-set radius at iteration t.

    Practical mode scales sqrt(d log((t+1)/delta)) by c_beta. Theory mode
    evaluates the full constant from the guarantee's proof, which is loose by
    design and only sensible for coverage checks.
    """
    if t < 1:
        raise ValueError(f"iteration counter must be >= 1, got {t}")
    if config.radius_mode == "practical":
        return practical_radius(config.c_beta, config.dim, t, config.delta)
    eta, lam, B, L, d = config.eta, config.lam, config.B, config.L, config.dim
    c = 7.0 * eta / 6.0
    big_c = (
        22.0 * eta * (3.0 * math.log(1.0 + 2.0 * t) + 2.0 + L * B)
        * math.log(2.0 * math.sqrt(1.0 + 2.0 * t) / config.delta)
        + 4.0 * eta
        + 2.0 * eta * math.sqrt(6.0) * c * d * math.log(1.0 + 2.0 * t * L**2 / (d * lam))
        + 4.0 * lam * B**2
    )
    return math.sqrt(big_c)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector: the sqrt-of-dot np.linalg.norm computes, without its overhead."""
    return math.sqrt(v.dot(v))


def loss_derivatives(theta: np.ndarray, z: np.ndarray, y: int) -> Tuple[float, np.ndarray, float]:
    """Loss, gradient, and Hessian weight of the logistic preference loss at theta.

    The gradient is (sigma(z.theta) - y) z; the Hessian is hess_weight * z z^T
    with hess_weight = sigma'(z.theta), returned as the scalar so callers choose
    whether to materialize it.
    """
    check_label(y)
    s = float(np.dot(z, theta))
    sig, ds = sigmoid_pair(s)
    return log_loss(s, y), (sig - y) * z, ds


def project_localnorm_ball(theta_prime: np.ndarray, norm_mat: np.ndarray, B: float) -> np.ndarray:
    """Project theta_prime onto the Euclidean ball of radius B in the norm of norm_mat.

    Interior points pass through. Otherwise the KKT system gives
    theta(nu) = (M + nu I)^-1 M theta_prime with ||theta(nu)|| strictly
    decreasing in nu, so the multiplier is bracketed by geometric growth and
    pinned by bisection to |norm - B| <= 1e-10 * B.
    """
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    theta_prime = np.asarray(theta_prime, dtype=float)
    if _norm(theta_prime) <= B:
        return theta_prime.copy()
    rhs = norm_mat @ theta_prime
    eye = np.eye(theta_prime.shape[0])

    def candidate(nu: float) -> np.ndarray:
        return np.linalg.solve(norm_mat + nu * eye, rhs)

    hi = 1.0
    for _ in range(201):
        if _norm(candidate(hi)) < B:
            break
        hi *= 2.0
    else:
        raise NumericFailure("projection multiplier bracket exceeded 200 doublings")

    lo = 0.0
    tol = 1e-10 * B
    theta = None
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        theta = candidate(mid)
        nrm = _norm(theta)
        if abs(nrm - B) <= tol:
            break
        if nrm > B:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericFailure("projection bisection did not reach tolerance")
    nrm = _norm(theta)
    if nrm > B:
        theta = theta * (B / nrm)
    return theta


class OnePassRewardEstimator(BaseRewardEstimator):
    """Online preference reward estimator with constant per-iteration cost.

    Parameters
    ----------
    dim : feature dimension d.
    B : radius of the parameter ball the iterates live in.
    L : bound on feature norms (feature differences are bounded by 2L).
    eta, lam : step size and regularization; default to the closed-form
        settings the confidence guarantee assumes.
    radius_mode, c_beta, delta : confidence-radius configuration.

    Attributes (after reset/fit)
    ----------
    theta_ : current parameter iterate, always inside the B-ball.
    hess_ : running lookahead curvature matrix and its maintained inverse.
    theta_sum_ : running sum of all iterates, for averaged-parameter policies.
    t_ : iteration counter, starting at 1.
    projections_ : updates whose step left the ball and was projected back.
    """

    curvature_attr = "hess_"
    kind = "onepass"

    def __init__(self, dim: int, B: float = 1.0, L: float = 1.0,
                 eta: Optional[float] = None, lam: Optional[float] = None,
                 radius_mode: str = "practical", c_beta: float = 1.0,
                 delta: float = 0.1):
        self.dim = dim
        self.B = B
        self.L = L
        self.eta = eta
        self.lam = lam
        self.radius_mode = radius_mode
        self.c_beta = c_beta
        self.delta = delta

    def reset(self) -> "OnePassRewardEstimator":
        self.config_ = OnePassConfig.resolve(
            self.dim, self.B, self.L, self.eta, self.lam,
            self.radius_mode, self.c_beta, self.delta,
        )
        self.theta_ = np.zeros(self.dim)
        self.hess_ = LocalNormMatrix.scaled_identity(self.dim, self.config_.lam)
        self.theta_sum_ = np.zeros(self.dim)
        self.t_ = 1
        self.projections_ = 0
        return self

    # --- lockstep stacks ---------------------------------------------------
    # A stacked instance steps S seeds at once: theta_ and theta_sum_ are
    # (S, d), hess_ is a stack of S curvature pairs, projections_ is (S,), and
    # the shared parameters and counter t_ are those of every row.

    @classmethod
    def stack(cls, estimators: Sequence["OnePassRewardEstimator"]) -> "OnePassRewardEstimator":
        """One instance holding the state of each single estimator as a row."""
        first = estimators[0]
        params = first.get_params()
        if any(e.get_params() != params or e.t_ != first.t_ for e in estimators):
            raise ValueError("stacked estimators must share parameters and counter")
        est = cls(**params)
        est.config_, est.t_ = first.config_, first.t_
        est.theta_ = np.stack([e.theta_ for e in estimators])
        est.theta_sum_ = np.stack([e.theta_sum_ for e in estimators])
        est.hess_ = LocalNormMatrix.stack([e.hess_ for e in estimators])
        est.projections_ = np.array([e.projections_ for e in estimators])
        return est

    def unstack(self, estimators: Sequence["OnePassRewardEstimator"]) -> None:
        """Write each row's state into its own single estimator, in row order."""
        for k, est in enumerate(estimators):
            est.config_, est.t_ = self.config_, self.t_
            est.theta_, est.theta_sum_ = self.theta_[k], self.theta_sum_[k]
            est.hess_ = self.hess_[k]
            est.projections_ = int(self.projections_[k])

    def update(self, z: np.ndarray, y) -> None:
        """One step on one sample; on a stack, z is (S, d) and y (S,), one per row."""
        if self.theta_.ndim > 1:
            self._update_rows(z, y)
            return
        z = check_vector(z, self.dim)
        check_label(y)
        cfg = self.config_
        hess = self.hess_
        sig, hw = sigmoid_pair(float(np.dot(z, self.theta_)))
        grad = (sig - y) * z
        step_weight = cfg.eta * hw
        # u = H^-1 z serves both rank-one updates: the scratch inverse of the
        # step geometry H + eta*hw*zz^T below, and the lookahead accumulation
        # into H, which therefore needs no downdate of the scratch matrix.
        u = hess.inv @ z
        zu = float(z @ u)
        tilde_inv = rank_one_inverse(hess.inv, u, zu, step_weight)
        theta_prime = self.theta_ - cfg.eta * (tilde_inv @ grad)
        if _norm(theta_prime) <= cfg.B:
            theta_next = theta_prime
        else:
            self.projections_ += 1
            tilde_mat = hess.mat + step_weight * np.multiply(z[:, None], z)
            theta_next = project_localnorm_ball(theta_prime, tilde_mat, cfg.B)
        _, hw_next = sigmoid_pair(float(np.dot(z, theta_next)))
        hess.rank_one_update(z, hw_next, u, zu)
        self.theta_ = theta_next
        self.theta_sum_ = self.theta_sum_ + theta_next
        self.t_ += 1

    def _update_rows(self, z: np.ndarray, y) -> None:
        """The step of ``update`` for every row of a stack, each with a single run's bits.

        A NumericFailure names its row as ``index`` and leaves every row as it
        was, except that the failing row has counted a projection that fired
        before the failure, as a single run does.
        """
        z = check_vector(z, self.dim, lead=self.theta_.shape[:-1])
        y = np.asarray(y)
        check_label(y)
        cfg = self.config_
        hess = self.hess_
        sig, hw = sigmoid_pair(np.vecdot(z, self.theta_))
        grad = (sig - y)[:, None] * z
        step_weight = cfg.eta * hw
        u = np.matvec(hess.inv, z)
        zu = np.vecdot(z, u)
        tilde_inv = rank_one_inverse(hess.inv, u, zu, step_weight)
        theta_next = self.theta_ - cfg.eta * np.matvec(tilde_inv, grad)
        # projection is the rare case, so it runs row by row where it fires
        norms = np.vecdot(theta_next, theta_next).tolist()
        fired = [k for k, sq in enumerate(norms) if not math.sqrt(sq) <= cfg.B]
        try:
            for k in fired:
                tilde_mat = hess.mat[k] + step_weight[k] * np.multiply(z[k][:, None], z[k])
                try:
                    theta_next[k] = project_localnorm_ball(theta_next[k], tilde_mat, cfg.B)
                except NumericFailure as exc:
                    raise NumericFailure(str(exc), index=k) from exc
            _, hw_next = sigmoid_pair(np.vecdot(z, theta_next))
            hess.rank_one_update(z, hw_next, u, zu)
        except NumericFailure as exc:
            if exc.index in fired:
                self.projections_[exc.index] += 1
            raise
        self.projections_[fired] += 1
        self.theta_ = theta_next
        self.theta_sum_ = self.theta_sum_ + theta_next
        self.t_ += 1

    def radius(self, t: Optional[int] = None) -> float:
        return confidence_radius(self.t_ if t is None else t, self.config_)


def damping_value(t: int, horizon: int, lambda0: float, damping: str) -> float:
    """Damping schedule lambda0 * min(1, f(t/horizon)) absorbing past curvature."""
    u = t / horizon
    if damping == "linear":
        f = u
    elif damping == "log":
        f = math.log1p(u) / math.log(2.0)
    else:
        raise ValueError(f"damping must be 'linear' or 'log', got {damping!r}")
    return lambda0 * min(1.0, f)


class HvpCgRewardEstimator(BaseRewardEstimator):
    """Matrix-free variant: conjugate gradient against Hessian-vector products.

    Past curvature is absorbed into a growing damping term instead of a stored
    matrix, so the state is O(d): no d x d array exists anywhere in the update.
    The projection is plain Euclidean rescaling since no curvature norm is
    available; ``projections_`` counts the updates it rescaled. ``horizon``
    anchors the damping schedule and must be set before the first update.
    """

    def __init__(self, dim: int, B: float = 1.0, L: float = 1.0,
                 eta: Optional[float] = None, cg_iters: int = 3,
                 cg_tol: float = 1e-10, lambda0: float = 0.8,
                 damping: str = "linear", horizon: Optional[int] = None,
                 c_beta: float = 1.0, delta: float = 0.1):
        self.dim = dim
        self.B = B
        self.L = L
        self.eta = eta
        self.cg_iters = cg_iters
        self.cg_tol = cg_tol
        self.lambda0 = lambda0
        self.damping = damping
        self.horizon = horizon
        self.c_beta = c_beta
        self.delta = delta

    def reset(self) -> "HvpCgRewardEstimator":
        if self.horizon is None or self.horizon < 1:
            raise ValueError("horizon must be a positive iteration budget")
        if self.cg_iters < 1:
            raise ValueError(f"cg_iters must be >= 1, got {self.cg_iters}")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        self.eta_ = default_step_size(self.B, self.L) if self.eta is None else self.eta
        self.theta_ = np.zeros(self.dim)
        self.theta_sum_ = np.zeros(self.dim)
        self.t_ = 1
        self.projections_ = 0
        return self

    def _damping(self, t: Optional[int] = None) -> float:
        return damping_value(self.t_ if t is None else t, self.horizon,
                             self.lambda0, self.damping)

    def update(self, z: np.ndarray, y: int) -> None:
        z = check_vector(z, self.dim)
        check_label(y)
        sig, hw = sigmoid_pair(float(np.dot(z, self.theta_)))
        grad = (sig - y) * z
        lam_t = self._damping()
        scale = self.eta_ * hw

        def apply(p: np.ndarray) -> np.ndarray:
            return lam_t * p + scale * float(z @ p) * z

        v, _ = cg_solve(apply, grad, self.cg_iters, self.cg_tol)
        theta_next = self.theta_ - self.eta_ * v
        nrm = _norm(theta_next)
        if nrm > self.B:
            self.projections_ += 1
            theta_next = theta_next * (self.B / nrm)
        self.theta_ = theta_next
        self.theta_sum_ = self.theta_sum_ + theta_next
        self.t_ += 1

    # --- scenario hooks ----------------------------------------------------
    # The damping term is this estimator's whole model of accumulated
    # curvature, so its norms are isotropic.

    def local_norm(self, v: np.ndarray) -> float:
        return math.sqrt(self._damping()) * _norm(v)

    def inv_norm(self, v: np.ndarray) -> float:
        return _norm(v) / math.sqrt(self._damping())

    def inv_norm_matrix(self) -> np.ndarray:
        return _identity(self.dim) / self._damping()
