"""One-pass mirror-descent reward estimator and its matrix-free variant.

The update keeps a running curvature matrix built from per-sample logistic
Hessians evaluated at the *next* iterate (a lookahead), takes a single
Newton-like step against that geometry, and projects back onto the parameter
ball in the same norm. Per-iteration cost and memory are O(d^2) regardless of
how many samples have been seen; no sample is ever stored.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .base import BaseRewardEstimator, check_label, check_vector, practical_radius
from .exceptions import NumericFailure
from .linalg import (LocalNormMatrix, _boundary_damping, _eigh, _identity, _norm, _probe,
                     cg_solve, rank_one_inverse)
from .linkmath import sigmoid_pair

RADIUS_MODES = ("practical", "theory")


def confidence_radius(t: int, est: "OnePassRewardEstimator") -> float:
    """Confidence-set radius at iteration t of a reset one-pass estimator.

    Practical mode scales sqrt(d log((t+1)/delta)) by c_beta. Theory mode
    evaluates the full constant from the guarantee's proof, which is loose by
    design and only sensible for coverage checks.
    """
    if t < 1:
        raise ValueError(f"iteration counter must be >= 1, got {t}")
    if est.radius_mode == "practical":
        return practical_radius(est.c_beta, est.dim, t, est.delta)
    eta, lam, B, L, d = est.eta_, est.lam_, est.B, est.L, est.dim
    c = 7.0 * eta / 6.0
    big_c = (
        22.0 * eta * (3.0 * math.log(1.0 + 2.0 * t) + 2.0 + L * B)
        * math.log(2.0 * math.sqrt(1.0 + 2.0 * t) / est.delta)
        + 4.0 * eta
        + 2.0 * eta * math.sqrt(6.0) * c * d * math.log(1.0 + 2.0 * t * L**2 / (d * lam))
        + 4.0 * lam * B**2
    )
    return math.sqrt(big_c)


def project_localnorm_ball(theta_prime: np.ndarray, norm_mat: np.ndarray, B: float) -> np.ndarray:
    """Project theta_prime onto the Euclidean ball of radius B in the norm of norm_mat.

    Interior points pass through. Otherwise the KKT system gives
    theta(nu) = (M + nu I)^-1 M theta_prime, whose norm falls strictly in nu.
    One eigendecomposition M = Q diag(lam) Q^T serves ``_boundary_damping``
    (mu0 = 0), which pins nu to |norm - B| <= 1e-10 * B, and the result
    theta = Q (b / (lam + nu)), b = Q^T M theta_prime, which ends on
    ||theta|| <= B exactly. A search that misses the tolerance (a failed eigh
    and a non-finite M among its causes) raises NumericFailure.
    """
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    theta_prime = np.asarray(theta_prime, dtype=float)
    if _norm(theta_prime) <= B:
        return theta_prime.copy()
    tol = 1e-10 * B
    rhs = norm_mat @ theta_prime
    lam, Q = _eigh(norm_mat)
    b = Q.T @ rhs
    nu, _ = _boundary_damping(norm_mat, rhs, 0.0, B, tol, model=(lam, b, _probe(lam, b)))
    theta = Q @ (b / (lam + nu))
    nrm = _norm(theta)
    if not abs(nrm - B) <= tol:  # a NaN from a failed eigh lands here too
        raise NumericFailure(f"projection ended at norm {nrm}, not within {tol} of B = {B}")
    while nrm > B:  # the rescale rounds, up to 2 ulps above B
        theta = theta * (B / nrm)
        nrm = _norm(theta)
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

    Attributes (after reset)
    ----------
    eta_, lam_ : the resolved step size and regularization.
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
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"radius_mode must be one of {RADIUS_MODES}, got {self.radius_mode!r}")
        super().reset()
        self.hess_ = LocalNormMatrix.scaled_identity(self.dim, self.lam_)
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
        est.eta_, est.lam_, est.t_ = first.eta_, first.lam_, first.t_
        est.theta_ = np.stack([e.theta_ for e in estimators])
        est.theta_sum_ = np.stack([e.theta_sum_ for e in estimators])
        est.hess_ = LocalNormMatrix.stack([e.hess_ for e in estimators])
        est.projections_ = np.array([e.projections_ for e in estimators])
        return est

    def unstack(self, estimators: Sequence["OnePassRewardEstimator"]) -> None:
        """Write each row's state into its own single estimator, in row order."""
        for k, est in enumerate(estimators):
            est.t_ = self.t_
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
        hess = self.hess_
        sig, hw = sigmoid_pair(float(np.dot(z, self.theta_)))
        grad = (sig - y) * z
        step_weight = self.eta_ * hw
        # u = H^-1 z serves both rank-one updates: the scratch inverse of the
        # step geometry H + eta*hw*zz^T below, and the lookahead accumulation
        # into H, which therefore needs no downdate of the scratch matrix.
        u = hess.inv @ z
        zu = float(z @ u)
        tilde_inv = rank_one_inverse(hess.inv, u, zu, step_weight)
        theta_prime = self.theta_ - self.eta_ * (tilde_inv @ grad)
        if _norm(theta_prime) <= self.B:
            theta_next = theta_prime
        else:
            self.projections_ += 1
            tilde_mat = hess.mat + step_weight * np.multiply(z[:, None], z)
            theta_next = project_localnorm_ball(theta_prime, tilde_mat, self.B)
        _, hw_next = sigmoid_pair(float(np.dot(z, theta_next)))
        hess.rank_one_update(z, hw_next, u, zu)
        self._advance(theta_next)

    def _update_rows(self, z: np.ndarray, y) -> None:
        """The step of ``update`` for every row of a stack, each with a single run's bits.

        A NumericFailure names its row as ``index`` and leaves every row as it
        was, except that the failing row has counted a projection that fired
        before the failure, as a single run does.
        """
        z = check_vector(z, self.dim, lead=self.theta_.shape[:-1])
        y = np.asarray(y)
        check_label(y)
        hess = self.hess_
        sig, hw = sigmoid_pair(np.vecdot(z, self.theta_))
        grad = (sig - y)[:, None] * z
        step_weight = self.eta_ * hw
        u = np.matvec(hess.inv, z)
        zu = np.vecdot(z, u)
        tilde_inv = rank_one_inverse(hess.inv, u, zu, step_weight)
        theta_next = self.theta_ - self.eta_ * np.matvec(tilde_inv, grad)
        # projection is the rare case, so it runs row by row where it fires
        norms = np.vecdot(theta_next, theta_next).tolist()
        fired = [k for k, sq in enumerate(norms) if not math.sqrt(sq) <= self.B]
        try:
            for k in fired:
                tilde_mat = hess.mat[k] + step_weight[k] * np.multiply(z[k][:, None], z[k])
                try:
                    theta_next[k] = project_localnorm_ball(theta_next[k], tilde_mat, self.B)
                except NumericFailure as exc:
                    raise NumericFailure(str(exc), index=k) from exc
            _, hw_next = sigmoid_pair(np.vecdot(z, theta_next))
            hess.rank_one_update(z, hw_next, u, zu)
        except NumericFailure as exc:
            if exc.index in fired:
                self.projections_[exc.index] += 1
            raise
        self.projections_[fired] += 1
        self._advance(theta_next)

    def radius(self, t: Optional[int] = None) -> float:
        return confidence_radius(self.t_ if t is None else t, self)


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

    The CG right-hand side is a multiple of z, an eigenvector of the system
    matrix lam_t*I + s*zz^T, so CG is exact after its first iteration and runs
    with fixed settings (3 iterations, tolerance 1e-10).
    """

    kind = "hvpcg"

    def __init__(self, dim: int, B: float = 1.0, L: float = 1.0,
                 eta: Optional[float] = None, lambda0: float = 0.8,
                 damping: str = "linear", horizon: Optional[int] = None,
                 c_beta: float = 1.0, delta: float = 0.1):
        self.dim = dim
        self.B = B
        self.L = L
        self.eta = eta
        self.lambda0 = lambda0
        self.damping = damping
        self.horizon = horizon
        self.c_beta = c_beta
        self.delta = delta

    def reset(self) -> "HvpCgRewardEstimator":
        if self.horizon is None or self.horizon < 1:
            raise ValueError("horizon must be a positive iteration budget")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        super().reset()
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

        v, _ = cg_solve(apply, grad, 3, 1e-10)
        theta_next = self.theta_ - self.eta_ * v
        nrm = _norm(theta_next)
        if nrm > self.B:
            self.projections_ += 1
            theta_next = theta_next * (self.B / nrm)
        self._advance(theta_next)

    # --- scenario hooks ----------------------------------------------------
    # The damping term is this estimator's whole model of accumulated
    # curvature, so its norms are isotropic.

    def local_norm(self, v: np.ndarray) -> float:
        return math.sqrt(self._damping()) * _norm(v)

    def inv_norm_matrix(self) -> np.ndarray:
        return _identity(self.dim) / self._damping()
