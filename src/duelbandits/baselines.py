"""Baseline estimators the one-pass method is measured against.

``MleRewardEstimator`` refits a constrained maximum-likelihood estimate on the
full sample history at every update; its per-call cost is meant to grow with
the buffer. ``ImplicitOmdRewardEstimator`` solves a single-sample proximal
subproblem per update, so its cost stays constant but needs an inner iterative
solve instead of a closed form.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .base import BaseRewardEstimator, check_label, check_vector
from .linalg import LocalNormMatrix
from .linkmath import kappa_bound, sigmoid_pair
from .onepass import default_regularization, default_step_size

__all__ = ["MleRewardEstimator", "ImplicitOmdRewardEstimator"]

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60


def _ball_projection(v: np.ndarray, B: float) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    if nrm <= B:
        return v
    return v * (B / nrm)


def _sigmoid_rows(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _nll(Z: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    s = Z @ theta
    return float(np.sum(np.logaddexp(0.0, -s) * y + np.logaddexp(0.0, s) * (1 - y)))


def _model_norm(H: np.ndarray, r: np.ndarray):
    """Return mu -> ||(H + mu I)^-1 r|| for symmetric H, each call O(d).

    One eigendecomposition H = Q diag(lam) Q^T gives
    ||(H + mu I)^-1 r||^2 = sum_i b_i^2 / (lam_i + mu)^2 with b = Q^T r, so the
    damping search probes the norm without a dense solve per probe.
    """
    lam, Q = np.linalg.eigh(H)
    b = Q.T @ r

    def model_norm(mu: float) -> float:
        x = b / (lam + mu)
        return math.sqrt(float(np.dot(x, x)))

    return model_norm


def _projected_newton(Z, y, theta, B, tol, max_iters, prox=None):
    """Minimize the logistic loss (plus optional proximal term) over the B-ball.

    Damped Newton with Armijo backtracking (constant 1e-4, shrink 0.5). When
    the Newton step leaves the ball, the damping is raised until the quadratic
    model's minimizer lands exactly on the boundary, which keeps the direction
    a descent direction; naive step-then-project stalls at boundary-pinned
    optima where constrained logistic fits routinely live.

    ``prox`` is a (center, matrix, inv_step) triple adding
    (inv_step/2) * ||theta - center||_matrix^2 to the objective. Returns
    (theta, converged, iterations). Convergence is measured by the norm of the
    unit-step gradient mapping theta - Proj(theta - grad).
    """
    center = matrix = None
    inv_step = 0.0
    if prox is not None:
        center, matrix, inv_step = prox
    dim = theta.shape[0]
    eye = np.eye(dim)

    def value(th):
        v = _nll(Z, y, th)
        if prox is not None:
            diff = th - center
            v += 0.5 * inv_step * float(diff @ matrix @ diff)
        return v

    def grad_hess(th):
        s = Z @ th
        sig = _sigmoid_rows(s)
        g = Z.T @ (sig - y)
        w = sig * (1.0 - sig)
        H = Z.T @ (w[:, None] * Z)
        if prox is not None:
            g = g + inv_step * (matrix @ (th - center))
            H = H + inv_step * matrix
        return g, H

    def model_candidate(H, g, mu):
        # minimizer of the damped quadratic model subject to the ball:
        # (H + mu I)(theta+ - theta) = -(g + mu*theta), i.e.
        # theta+ = (H + mu I)^-1 (H theta - g)
        return np.linalg.solve(H + mu * eye, H @ theta - g)

    iters = 0
    for iters in range(1, max_iters + 1):
        g, H = grad_hess(theta)
        mapping = theta - _ball_projection(theta - g, B)
        mapping_norm = float(np.linalg.norm(mapping))
        if mapping_norm <= tol:
            return theta, True, iters - 1
        base = value(theta)
        # solvability damping, scaled down with the mapping so its bias on the
        # fixed point stays far below any convergence tolerance
        mu0 = (1e-12 + 1e-3 * min(mapping_norm, 1.0)) * (1.0 + float(np.trace(H)) / dim)
        target = model_candidate(H, g, mu0)
        if float(np.linalg.norm(target)) > B:
            # Newton wants to leave the ball: raise the damping until the
            # model minimizer lands on the boundary (norm decreases in mu).
            # The radial tolerance tightens with the mapping so its slop never
            # dominates the remaining step near a pinned optimum.
            radial_tol = max(1e-14, min(1e-10, 1e-3 * mapping_norm)) * B
            model_norm = _model_norm(H, H @ theta - g)
            lo, hi = mu0, max(mu0, 1e-6)
            for _ in range(200):
                if model_norm(hi) < B:
                    break
                hi *= 4.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                nrm = model_norm(mid)
                if abs(nrm - B) <= radial_tol:
                    break
                if nrm > B:
                    lo = mid
                else:
                    hi = mid
            target = model_candidate(H, g, mid)
            # land exactly on the boundary: any inward radial slop turns the
            # direction ascent at a pinned optimum and stalls the line search
            target = target * (B / float(np.linalg.norm(target)))
        direction = target - theta
        accepted = None
        step = 1.0
        # slack admits steps whose true decrease sits below the float
        # resolution of the objective; the mapping criterion stays the only
        # convergence certificate
        noise = 16.0 * np.finfo(float).eps * (abs(base) + 1.0)
        for _ in range(MAX_BACKTRACKS):
            cand = theta + step * direction
            delta = cand - theta
            descent = float(g @ delta)
            if (descent < 0.0
                    and value(cand) <= base + ARMIJO_C * descent + noise
                    and float(np.linalg.norm(delta)) > 1e-15 * (1.0 + B)):
                accepted = cand
                break
            step *= ARMIJO_SHRINK
        if accepted is None:
            break
        theta = accepted
    g, _ = grad_hess(theta)
    mapping = theta - _ball_projection(theta - g, B)
    return theta, float(np.linalg.norm(mapping)) <= tol, iters


class MleRewardEstimator(BaseRewardEstimator):
    """Constrained MLE refit over the full history at every update.

    The unconstrained likelihood diverges on separable data, so the fit is over
    the B-ball. ``fit_tol=None`` uses the customary 1/t schedule tying the
    optimization error to the statistical error. ``v_reg=None`` regularizes the
    companion scatter matrix V with lam * kappa_bound(B, L) so that V matches
    the curvature matrix's domination identity; pass an explicit value to use
    plain lam instead.

    The confidence radius carries a sqrt(kappa) factor on top of the usual
    sqrt(d log) shape: scatter-matrix norms understate uncertainty by up to
    that factor relative to curvature-matrix norms, and without it the
    baseline under-explores badly under adaptive data collection.
    """

    curvature_attr = "V_"
    kind = "mle"

    def __init__(self, dim: int, B: float = 1.0, L: float = 1.0,
                 lam: Optional[float] = None, v_reg: Optional[float] = None,
                 fit_tol: Optional[float] = None, max_newton_iters: int = 50,
                 c_beta: float = 1.0, delta: float = 0.1):
        self.dim = dim
        self.B = B
        self.L = L
        self.lam = lam
        self.v_reg = v_reg
        self.fit_tol = fit_tol
        self.max_newton_iters = max_newton_iters
        self.c_beta = c_beta
        self.delta = delta

    def reset(self) -> "MleRewardEstimator":
        lam = self.lam
        if lam is None:
            lam = default_regularization(default_step_size(self.B, self.L),
                                         self.dim, self.B, self.L)
        v_reg = self.v_reg if self.v_reg is not None else lam * kappa_bound(self.B, self.L)
        self.v_reg_ = v_reg
        self.radius_scale_ = math.sqrt(kappa_bound(self.B, self.L))
        self.theta_ = np.zeros(self.dim)
        self.theta_sum_ = np.zeros(self.dim)
        self.t_ = 1
        self.V_ = LocalNormMatrix.scaled_identity(self.dim, v_reg)
        self._capacity = 64
        self._Z = np.empty((self._capacity, self.dim))
        self._y = np.empty(self._capacity, dtype=float)
        self.n_samples_ = 0
        self.last_converged_ = True
        self.last_newton_iters_ = 0
        return self

    def _append(self, z: np.ndarray, y: int) -> None:
        if self.n_samples_ == self._capacity:
            self._capacity *= 2
            Z = np.empty((self._capacity, self.dim))
            Z[: self.n_samples_] = self._Z[: self.n_samples_]
            labels = np.empty(self._capacity, dtype=float)
            labels[: self.n_samples_] = self._y[: self.n_samples_]
            self._Z, self._y = Z, labels
        self._Z[self.n_samples_] = z
        self._y[self.n_samples_] = y
        self.n_samples_ += 1

    def update(self, z: np.ndarray, y: int) -> None:
        z = check_vector(z, self.dim)
        check_label(y)
        self._append(z, y)
        Z = self._Z[: self.n_samples_]
        labels = self._y[: self.n_samples_]
        tol = self.fit_tol if self.fit_tol is not None else 1.0 / self.n_samples_
        self.theta_, self.last_converged_, self.last_newton_iters_ = _projected_newton(
            Z, labels, self.theta_.copy(), self.B, tol, self.max_newton_iters
        )
        self.V_.rank_one_update(z, 1.0)
        self.theta_sum_ = self.theta_sum_ + self.theta_
        self.t_ += 1

    def refit(self, tol: Optional[float] = None) -> np.ndarray:
        """Re-run the constrained fit on the current buffer (e.g. after a permutation)."""
        if self.n_samples_ == 0:
            return self.theta_
        Z = self._Z[: self.n_samples_]
        labels = self._y[: self.n_samples_]
        if tol is None:
            tol = self.fit_tol if self.fit_tol is not None else 1.0 / self.n_samples_
        self.theta_, self.last_converged_, self.last_newton_iters_ = _projected_newton(
            Z, labels, self.theta_.copy(), self.B, tol, self.max_newton_iters
        )
        return self.theta_

    def permute_buffer(self, order: np.ndarray) -> None:
        """Reorder the stored samples; the loss is order-invariant so fits should agree."""
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(self.n_samples_)):
            raise ValueError("order must be a permutation of the buffer indices")
        self._Z[: self.n_samples_] = self._Z[: self.n_samples_][order]
        self._y[: self.n_samples_] = self._y[: self.n_samples_][order]

    def radius(self, t: Optional[int] = None) -> float:
        t = self.t_ if t is None else t
        return (self.c_beta * self.radius_scale_
                * math.sqrt(self.dim * math.log((t + 1) / self.delta)))

    # --- snapshotting (buffer included, so O(t) on disk) --------------------

    def _snapshot(self) -> dict:
        payload = super()._snapshot()
        payload["Z"] = self._Z[: self.n_samples_].reshape(-1).tolist()
        payload["y"] = self._y[: self.n_samples_].astype(int).tolist()
        return payload

    def _restore(self, payload: dict) -> None:
        super()._restore(payload)
        labels = np.asarray(payload["y"], dtype=float)
        Z = np.asarray(payload["Z"], dtype=float).reshape(labels.shape[0], self.dim)
        for row, label in zip(Z, labels):
            self._append(row, int(label))


class ImplicitOmdRewardEstimator(BaseRewardEstimator):
    """Per-sample proximal update against the lookahead curvature norm.

    Each update minimizes the current sample's loss plus a quadratic proximity
    term, warm-started at the previous iterate, then folds the sample's Hessian
    at the solution into the curvature matrix. Cost per update is constant in t
    up to the inner iteration count, which is recorded rather than assumed.
    """

    curvature_attr = "local_norm_"
    kind = "implicit"

    def __init__(self, dim: int, B: float = 1.0, L: float = 1.0,
                 eta: Optional[float] = None, lam: Optional[float] = None,
                 inner_tol: float = 1e-8, max_inner_iters: int = 50,
                 c_beta: float = 1.0, delta: float = 0.1):
        self.dim = dim
        self.B = B
        self.L = L
        self.eta = eta
        self.lam = lam
        self.inner_tol = inner_tol
        self.max_inner_iters = max_inner_iters
        self.c_beta = c_beta
        self.delta = delta

    def reset(self) -> "ImplicitOmdRewardEstimator":
        self.eta_ = default_step_size(self.B, self.L) if self.eta is None else self.eta
        self.lam_ = (default_regularization(self.eta_, self.dim, self.B, self.L)
                     if self.lam is None else self.lam)
        self.theta_ = np.zeros(self.dim)
        self.theta_sum_ = np.zeros(self.dim)
        self.t_ = 1
        self.local_norm_ = LocalNormMatrix.scaled_identity(self.dim, self.lam_)
        self.last_converged_ = True
        self.last_inner_iters_ = 0
        return self

    def update(self, z: np.ndarray, y: int) -> None:
        z = check_vector(z, self.dim)
        check_label(y)
        Z = z[None, :]
        labels = np.array([float(y)])
        prox = (self.theta_.copy(), self.local_norm_.mat, 1.0 / self.eta_)
        theta_next, self.last_converged_, self.last_inner_iters_ = _projected_newton(
            Z, labels, self.theta_.copy(), self.B,
            self.inner_tol, self.max_inner_iters, prox=prox,
        )
        _, hw_next = sigmoid_pair(float(z @ theta_next))
        self.local_norm_.rank_one_update(z, hw_next)
        self.theta_ = theta_next
        self.theta_sum_ = self.theta_sum_ + theta_next
        self.t_ += 1

    def radius(self, t: Optional[int] = None) -> float:
        t = self.t_ if t is None else t
        return self.c_beta * math.sqrt(self.dim * math.log((t + 1) / self.delta))
