"""Baseline estimators the one-pass method is measured against.

``MleRewardEstimator`` refits a constrained maximum-likelihood estimate on the
full sample history at every update; its per-call cost is meant to grow with
the buffer. ``ImplicitOmdRewardEstimator`` solves a single-sample proximal
subproblem per update, so its cost stays constant but needs an inner iterative
solve instead of a closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from .base import BaseRewardEstimator, check_label, check_vector, practical_radius
from .linalg import LocalNormMatrix, _boundary_damping, _identity, _norm
from .linkmath import kappa_bound, sigmoid_pair, sigmoid_rows

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
EPS = np.finfo(float).eps

_solve1 = np.linalg._umath_linalg.solve1


def _ball_projection(v: np.ndarray, B: float) -> np.ndarray:
    nrm = _norm(v)
    if nrm <= B:
        return v
    return v * (B / nrm)


def _solve(A: np.ndarray, b: np.ndarray):
    """(A^-1 b, its norm) for float64 A (d, d) and b (d,), bit for bit ``np.linalg.solve``.

    Calls the LAPACK gufunc ``np.linalg.solve`` itself calls, without its
    wrapper; on float64 operands the gufunc picks the wrapper's signature. The
    wrapper turns a singular A into a LinAlgError through an errstate handler;
    the gufunc alone returns NaN, so a non-finite solution raises LinAlgError
    here.
    """
    x = _solve1(A, b)
    nrm = _norm(x)
    if not math.isfinite(nrm):
        raise np.linalg.LinAlgError("Singular matrix")
    return x, nrm


def _on_last_theta(f):
    """f memoized on the theta object it was last called with.

    Sound because the solver never writes into a theta it holds; the memo's
    reference keeps that object alive, so no other array can take its id.
    """
    last_theta = last = None

    def memo(th):
        nonlocal last_theta, last
        if th is not last_theta:
            last_theta, last = th, f(th)
        return last

    return memo


def _logistic_objective(Z, y):
    """(value, grad_hess) of the logistic loss over the rows of Z with labels y.

    Row i's loss is logaddexp(0, -s_i) for y_i = 1 and logaddexp(0, s_i) for
    y_i = 0, so one pass over s * (1 - 2y) gives each row's term the bits of
    the label-weighted sum of both passes. value and grad_hess called with the
    same theta object share one Z @ theta.
    """
    sign = 1.0 - 2.0 * y
    margins = _on_last_theta(lambda th: Z @ th)

    def value(th):
        return float(np.logaddexp(0.0, margins(th) * sign).sum())

    def grad_hess(th):
        sig = sigmoid_rows(margins(th))
        w = sig * (1.0 - sig)
        return Z.T @ (sig - y), Z.T @ (w[:, None] * Z)

    return value, grad_hess


def _proximal_objective(z, y, center, matrix, inv_step):
    """(value, grad_hess) of one sample's logistic loss plus a proximal term.

    The objective is loss(z . theta, y) + (inv_step/2) * ||theta - center||_matrix^2,
    computed on the float s = z . theta and d-vectors. Each product the n-row
    loss forms over a single row is one multiplication, so every value,
    gradient and Hessian has the bits of ``_logistic_objective(z[None, :],
    [y])`` plus the proximal terms. ``np.exp`` and ``np.logaddexp`` give a
    float the bits they give a one-element array; ``math.exp`` does not. The
    link arithmetic runs on Python floats, which round as float64 does.
    value and grad_hess called with the same theta object share s and
    theta - center.
    """
    prox_hess = inv_step * matrix
    shared = _on_last_theta(lambda th: (float(z @ th), th - center))

    def value(th):
        s, diff = shared(th)
        return (float(np.logaddexp(0.0, -s if y else s))
                + 0.5 * inv_step * float(diff @ matrix @ diff))

    def grad_hess(th):
        s, diff = shared(th)
        if s >= 0:
            sig = 1.0 / (1.0 + float(np.exp(-s)))
        else:
            e = float(np.exp(s))
            sig = e / (1.0 + e)
        w = sig * (1.0 - sig)
        g = z * (sig - y) + inv_step * (matrix @ diff)
        return g, z[:, None] * (w * z) + prox_hess

    return value, grad_hess


def _projected_newton(objective, theta, B, tol, max_iters, counts):
    """Minimize a smooth convex objective over the B-ball.

    ``objective`` is a (value, grad_hess) pair of functions of theta: the
    objective's value, and its gradient with its Hessian. Damped Newton with
    Armijo backtracking (constant 1e-4, shrink 0.5). When the Newton step
    leaves the ball, the damping is raised until the quadratic model's
    minimizer lands exactly on the boundary, which keeps the direction a
    descent direction; naive step-then-project stalls at boundary-pinned
    optima where constrained logistic fits routinely live.

    Returns (theta, converged, iterations). Convergence is measured by the
    norm of the unit-step gradient mapping theta - Proj(theta - grad).
    ``counts`` (a Counter) gains the boundary damping searches run and the
    real norm probes they made. No theta the solver is given or forms is ever
    written into, so the objective may key work on the theta object.
    """
    value, grad_hess = objective
    dim = theta.shape[0]
    eye = _identity(dim)

    iters = 0
    # the objective at theta: computed once, then carried over from the
    # accepted line-search candidate that becomes the next theta
    base = None
    for iters in range(1, max_iters + 1):
        g, H = grad_hess(theta)
        mapping_norm = _norm(theta - _ball_projection(theta - g, B))
        if mapping_norm <= tol:
            return theta, True, iters - 1
        if base is None:
            base = value(theta)
        # minimizer of the damped quadratic model subject to the ball:
        # (H + mu I)(theta+ - theta) = -(g + mu*theta), i.e.
        # theta+ = (H + mu I)^-1 (H theta - g)
        rhs = H @ theta - g
        # solvability damping, scaled down with the mapping so its bias on the
        # fixed point stays far below any convergence tolerance
        mu0 = (1e-12 + 1e-3 * min(mapping_norm, 1.0)) * (1.0 + float(H.trace()) / dim)
        target, target_norm = _solve(H + mu0 * eye, rhs)
        if target_norm > B:
            # Newton wants to leave the ball: raise the damping until the
            # model minimizer lands on the boundary (norm decreases in mu).
            # The radial tolerance tightens with the mapping so its slop never
            # dominates the remaining step near a pinned optimum.
            radial_tol = max(1e-14, min(1e-10, 1e-3 * mapping_norm)) * B
            mid, probes = _boundary_damping(H, rhs, mu0, B, radial_tol)
            counts["boundary_searches"] += 1
            counts["boundary_probes"] += probes
            target, target_norm = _solve(H + mid * eye, rhs)
            # land exactly on the boundary: any inward radial slop turns the
            # direction ascent at a pinned optimum and stalls the line search
            target = target * (B / target_norm)
        direction = target - theta
        step = 1.0
        # slack admits steps whose true decrease sits below the float
        # resolution of the objective; the mapping criterion stays the only
        # convergence certificate
        noise = 16.0 * EPS * (abs(base) + 1.0)
        for _ in range(MAX_BACKTRACKS):
            cand = theta + (direction if step == 1.0 else step * direction)
            delta = cand - theta
            descent = float(g @ delta)
            if descent < 0.0:
                cand_value = value(cand)
                if (cand_value <= base + ARMIJO_C * descent + noise
                        and _norm(delta) > 1e-15 * (1.0 + B)):
                    break
            step *= ARMIJO_SHRINK
        else:
            break  # no step accepted
        theta, base = cand, cand_value
    g, _ = grad_hess(theta)
    return theta, _norm(theta - _ball_projection(theta - g, B)) <= tol, iters


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
        super().reset()
        kappa = kappa_bound(self.B, self.L)
        self.v_reg_ = self.v_reg if self.v_reg is not None else self.lam_ * kappa
        self.radius_scale_ = math.sqrt(kappa)
        self.V_ = LocalNormMatrix.scaled_identity(self.dim, self.v_reg_)
        self._capacity = 64
        self._Z = np.empty((self._capacity, self.dim))
        self._y = np.empty(self._capacity, dtype=float)
        self.n_samples_ = 0
        self.last_converged_ = True
        self.last_newton_iters_ = 0
        self.newton_iters_hist_ = Counter()
        self.boundary_counts_ = Counter()
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
        self.refit()
        self.newton_iters_hist_[self.last_newton_iters_] += 1
        self.V_.rank_one_update(z, 1.0)
        self._advance(self.theta_)

    def refit(self) -> np.ndarray:
        """Fit the constrained MLE to the current buffer, warm-started at theta_."""
        if self.n_samples_ == 0:
            return self.theta_
        Z = self._Z[: self.n_samples_]
        labels = self._y[: self.n_samples_]
        tol = self.fit_tol if self.fit_tol is not None else 1.0 / self.n_samples_
        self.theta_, self.last_converged_, self.last_newton_iters_ = _projected_newton(
            _logistic_objective(Z, labels), self.theta_, self.B, tol,
            self.max_newton_iters, self.boundary_counts_)
        return self.theta_

    def radius(self, t: Optional[int] = None) -> float:
        return practical_radius(self.c_beta * self.radius_scale_, self.dim,
                                self.t_ if t is None else t, self.delta)

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
        super().reset()
        self.local_norm_ = LocalNormMatrix.scaled_identity(self.dim, self.lam_)
        self.last_converged_ = True
        self.last_inner_iters_ = 0
        self.newton_iters_hist_ = Counter()
        self.boundary_counts_ = Counter()
        return self

    def update(self, z: np.ndarray, y: int) -> None:
        z = check_vector(z, self.dim)
        check_label(y)
        objective = _proximal_objective(z, y, self.theta_, self.local_norm_.mat,
                                        1.0 / self.eta_)
        theta_next, self.last_converged_, self.last_inner_iters_ = _projected_newton(
            objective, self.theta_, self.B, self.inner_tol, self.max_inner_iters,
            self.boundary_counts_)
        self.newton_iters_hist_[self.last_inner_iters_] += 1
        _, hw_next = sigmoid_pair(float(z @ theta_next))
        self.local_norm_.rank_one_update(z, hw_next)
        self._advance(theta_next)
