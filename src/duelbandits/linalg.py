"""Rank-one inverse upkeep, weighted norms, matrix-free CG, and the boundary search.

The rank-one kernels and the norms take an optional leading axis: a stack of
S matrices (S, d, d) with one vector (S, d) and one weight per row, for seeds
run in lockstep. Each row gets exactly the arithmetic it would get alone: the
stacked products are numpy's gufuncs (``np.vecdot``, ``np.matvec``,
``np.vecmat``), which give the same bits per row as ``v @ w`` and ``M @ v``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericFailure

SECULAR_STEPS = 20

_eigh = np.linalg._umath_linalg.eigh_lo


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector: the sqrt-of-dot np.linalg.norm computes, without its overhead."""
    return math.sqrt(v.dot(v))


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The (dim, dim) identity, built once per dimension and read-only."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def _outer(u: np.ndarray) -> np.ndarray:
    return u[..., :, None] * u[..., None, :]


def rank_one_inverse(inv: np.ndarray, u: np.ndarray, zu, w) -> np.ndarray:
    """Return (A + w*z*z^T)^-1 given inv = A^-1, u = inv @ z and zu = z . u.

    The result inv - (w / (1 + w*zu)) * u u^T is a new array, exactly symmetric
    whenever inv is, since u_i*u_j == u_j*u_i. A denominator that is not
    positive and finite means the inverse state is corrupted; on a stack the
    NumericFailure carries the first such row as ``index``. A stack takes one
    weight per row, or one weight for all of them.
    """
    denom = 1.0 + w * zu
    if u.ndim == 1:
        if not 0.0 < denom < math.inf:
            raise NumericFailure(_denominator_message(denom))
        return inv - (w / denom) * np.multiply(u[:, None], u)
    values = denom.tolist()
    for k, value in enumerate(values):
        if not 0.0 < value < math.inf:
            raise NumericFailure(_denominator_message(value), index=k)
    return inv - (w / denom)[:, None, None] * _outer(u)


def _denominator_message(denom: float) -> str:
    return f"Sherman-Morrison denominator {denom} is not positive; inverse state corrupted"


def _check_weights(w: np.ndarray) -> list:
    weights = w.tolist()
    if any(v < 0 for v in weights):
        raise ValueError(f"rank-one weight must be nonnegative, got {w}")
    return weights


def sherman_morrison(inv: np.ndarray, z: np.ndarray, w) -> np.ndarray:
    """Return (A + w*z*z^T)^-1 given inv = A^-1, in O(d^2) arithmetic.

    An update with a positive weight is explicitly symmetrized, so it is exactly
    symmetric even when ``inv`` is not, and long update chains keep the
    positive-definiteness detectable. A zero weight returns ``inv`` copied as
    it is, unsymmetrized: the whole matrix, or that row of a stack (z of shape
    (S, d)).
    """
    if z.ndim == 1:
        if w < 0:
            raise ValueError(f"rank-one weight must be nonnegative, got {w}")
        if w == 0.0:
            return inv.copy()
        u = inv @ z
        return _symmetrize(rank_one_inverse(inv, u, float(z @ u), w))
    if isinstance(w, float) and w > 0:  # one positive weight for every row
        u = np.matvec(inv, z)
        return _symmetrize(rank_one_inverse(inv, u, np.vecdot(z, u), w))
    w = np.broadcast_to(np.asarray(w, dtype=float), z.shape[:1])
    weights = _check_weights(w)
    if not any(weights):
        return np.broadcast_to(inv, (*z.shape, z.shape[-1])).copy()
    u = np.matvec(inv, z)
    out = _symmetrize(rank_one_inverse(inv, u, np.vecdot(z, u), w))
    if not all(weights):
        out = np.where((w == 0)[:, None, None], inv, out)
    return out


def mahalanobis_inv(v: np.ndarray, inv: np.ndarray):
    """Weighted norm sqrt(v^T inv v) for a symmetric PSD matrix inv.

    Quadratic forms in [-1e-12, 0) are rounding noise and clamp to zero;
    anything more negative means the matrix is not PSD. A stack of vectors and
    matrices gives one norm per row.
    """
    if v.ndim == 1:
        q = float(v @ inv @ v)
        if q < -1e-12:
            raise NumericFailure(_quad_form_message(q))
        return math.sqrt(max(q, 0.0))
    q = np.vecdot(np.vecmat(v, inv), v)
    for k, value in enumerate(q.tolist()):
        if value < -1e-12:
            raise NumericFailure(_quad_form_message(value), index=k)
    return np.sqrt(np.maximum(q, 0.0))


def _quad_form_message(q: float) -> str:
    return f"quadratic form {q} is negative; matrix not PSD"


def cg_solve(
    apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    max_iters: int,
    tol: float,
) -> Tuple[np.ndarray, float]:
    """Conjugate gradient for A v = b with A given only through ``apply``.

    Starts from v = 0 and stops after ``max_iters`` rounds or as soon as the
    residual norm drops to ``tol``. Returns (v, final residual norm). A must be
    symmetric positive definite; a nonpositive curvature p^T A p or a non-finite
    intermediate raises NumericFailure.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    b = np.asarray(b, dtype=float)
    v = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    if math.sqrt(rs) <= tol:
        return v, math.sqrt(rs)
    p = r.copy()
    for _ in range(max_iters):
        ap = apply(p)
        curv = float(p @ ap)
        if not math.isfinite(curv) or curv <= 0:
            raise NumericFailure(f"CG curvature {curv} is not positive; operator not PD")
        alpha = rs / curv
        v = v + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if not math.isfinite(rs_new):
            raise NumericFailure("CG residual became non-finite")
        if math.sqrt(rs_new) <= tol:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return v, math.sqrt(rs)


def _model_norm(H: np.ndarray, r: np.ndarray):
    """Return (lam, b, probe) for the damped model norm of symmetric H.

    One eigendecomposition H = Q diag(lam) Q^T gives
    ||(H + mu I)^-1 r||^2 = sum_i b_i^2 / (lam_i + mu)^2 with b = Q^T r, so
    ``probe(mu)`` (see ``_probe``) returns that norm in O(d), without a dense
    solve.

    Calls the LAPACK gufunc ``np.linalg.eigh`` itself calls, without its
    wrapper, so lam and Q have its bits. The wrapper turns a failed
    decomposition into a LinAlgError; the gufunc alone returns NaN
    eigenvalues, at least at one end of the sorted lam, so those raise here.
    """
    lam, Q = _eigh(H)
    if not (math.isfinite(lam[0]) and math.isfinite(lam[-1])):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    b = Q.T @ r
    return lam, b, _probe(lam, b)


def _probe(lam: np.ndarray, b: np.ndarray):
    """probe(mu) = ||b / (lam + mu)||; every call writes b / (lam + mu) into one buffer."""
    x = np.empty_like(b)

    def probe(mu: float) -> float:
        np.add(lam, mu, out=x)
        np.divide(b, x, out=x)
        return _norm(x)

    return probe


def _secular_seeds(lam, b, B, mu0, radial_tol):
    """Two damping values just below and just above the boundary root.

    Newton's method on the secular equation 1/B - 1/||b / (lam + mu)|| = 0
    (Moré & Sorensen 1983), which is convex and decreasing in mu: from
    max(mu0, ||b||/B - lam_max, max_i(|b_i|/B - lam_i)), which lies at or
    left of the root, its iterates rise monotonically to it. The last bound
    holds because ||b / (lam + mu)|| >= |b_i| / (lam_i + mu). The seeds sit
    two radial-band half-widths either side of the last iterate. They only
    decide which probes the damping search makes, never its result.
    """
    mu = max(mu0, _norm(b) / B - float(lam[-1]), float((np.abs(b) / B - lam).max()))
    width = math.nan
    for _ in range(SECULAR_STEPS):
        shifted = lam + mu
        x = b / shifted
        nrm2 = float(x.dot(x))
        curv = float((x / shifted).dot(x))  # sum_i b_i^2 / (lam_i + mu)^3
        if not curv > 0.0:
            return math.nan, math.nan
        nrm = math.sqrt(nrm2)
        # mu-width of the radial band: radial_tol over |d||x||/dmu| = curv/||x||
        width = radial_tol * nrm / curv
        step = (nrm / B - 1.0) * nrm2 / curv
        mu += step
        if abs(step) <= 0.5 * width:
            break
    return mu - 2.0 * width, mu + 2.0 * width


def _boundary_damping(H, rhs, mu0, B, radial_tol, model=None):
    """The damping mu with ||(H + mu I)^-1 rhs|| = B, and the real probes made.

    The baselines' damped Newton step and onepass's projection both solve this
    boundary equation here. Brackets the damping by fours from max(mu0, 1e-6), then bisects until the
    model norm is within radial_tol of B. Each norm the two loops ask for is
    answered by a certificate when one holds, else by a real probe. While
    every lam_i + mu > 0 the probe is monotone non-increasing in mu in
    floating point too (np.add, np.divide, a dot of squares and sqrt each
    round monotonically), so a real probe outside the radial band and above B
    answers every smaller mu, and one outside the band and below B every
    larger mu; a probe inside the band answers nothing. The loops therefore
    end on the mid they end on with a real probe at every call. When
    lam_min + mu0 <= 0 every call is a real probe. A caller holding H's
    eigendecomposition passes ``model``, the (lam, b, probe) of ``_model_norm``.
    """
    lam, b, probe = _model_norm(H, rhs) if model is None else model
    probes = 0
    above, below = -math.inf, math.inf
    certify = lam[0] + mu0 > 0.0

    def model_norm(mu):
        """A real probe at mu, which the loops make only where no certificate answers."""
        nonlocal above, below, probes
        probes += 1
        nrm = probe(mu)
        if certify and abs(nrm - B) > radial_tol:
            if nrm > B:
                above = mu
            else:
                below = mu
        return nrm

    if certify:
        for seed in _secular_seeds(lam, b, B, mu0, radial_tol):
            if mu0 <= seed and above < seed < below:  # never true for a NaN
                model_norm(seed)
    # certified without a probe: the norm exceeds B at mu <= above, falls short at mu >= below
    lo, hi = mu0, max(mu0, 1e-6)
    for _ in range(200):
        if hi >= below or (hi > above and model_norm(hi) < B):
            break
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        nrm = math.inf if mid <= above else 0.0 if mid >= below else model_norm(mid)
        if abs(nrm - B) <= radial_tol:
            break
        if nrm > B:
            lo = mid
        else:
            hi = mid
    return mid, probes


@dataclass
class LocalNormMatrix:
    """A symmetric PD matrix and its inverse, kept in lockstep under rank-one updates.

    Both sides are retained: quadratic forms in the matrix itself feed the
    coverage and domination diagnostics, while the inverse drives the update
    step and the uncertainty norms.

    Construction stores symmetrized copies of ``mat`` and ``inv`` (an inverse
    from ``np.linalg.inv`` is off-symmetric in the last bits). Every update then
    keeps both sides exactly symmetric without symmetrizing again: adding
    w z z^T to a symmetric matrix, or subtracting c u u^T from one, leaves it
    symmetric.

    A stack holds one pair per seed, ``mat`` and ``inv`` of shape
    (S, dim, dim); ``stack`` builds one and indexing takes rows back out.
    """

    mat: np.ndarray
    inv: np.ndarray
    dim: int = field(default=0)

    def __post_init__(self) -> None:
        self.mat = _symmetrize(np.asarray(self.mat, dtype=float))
        self.inv = _symmetrize(np.asarray(self.inv, dtype=float))
        if self.dim == 0:
            self.dim = self.mat.shape[-1]
        if self.mat.shape[-2:] != (self.dim, self.dim) or self.inv.shape != self.mat.shape:
            raise ValueError("matrix and inverse must both be dim x dim")

    @classmethod
    def stack(cls, items: Sequence["LocalNormMatrix"]) -> "LocalNormMatrix":
        return cls(mat=np.stack([m.mat for m in items]),
                   inv=np.stack([m.inv for m in items]), dim=items[0].dim)

    def __getitem__(self, rows) -> "LocalNormMatrix":
        return LocalNormMatrix(mat=self.mat[rows], inv=self.inv[rows], dim=self.dim)

    @classmethod
    def scaled_identity(cls, dim: int, scale: float) -> "LocalNormMatrix":
        if dim < 1 or scale <= 0:
            raise ValueError(f"need dim >= 1 and scale > 0, got dim={dim}, scale={scale}")
        return cls(mat=scale * np.eye(dim), inv=(1.0 / scale) * np.eye(dim), dim=dim)

    def rank_one_update(self, z: np.ndarray, w, u: Optional[np.ndarray] = None,
                        zu=None) -> None:
        """Add w * z z^T to the matrix and apply the paired inverse update.

        A caller that already holds u = inv @ z and zu = z . u for the current
        inverse passes them, and the product is not formed again. On a stack,
        z is (S, dim) and w (S,); rows with weight zero are left untouched.
        """
        if z.ndim == 1:
            if w < 0:
                raise ValueError(f"rank-one weight must be nonnegative, got {w}")
            if w == 0.0:
                return
            if u is None:
                u = self.inv @ z
                zu = float(z @ u)
            self.inv = rank_one_inverse(self.inv, u, zu, w)
            self.mat = self.mat + w * np.multiply(z[:, None], z)
            return
        w = np.asarray(w, dtype=float)
        weights = _check_weights(w)
        if not any(weights):
            return
        if u is None:
            u = np.matvec(self.inv, z)
            zu = np.vecdot(z, u)
        inv = rank_one_inverse(self.inv, u, zu, w)
        mat = self.mat + w[:, None, None] * _outer(z)
        if not all(weights):
            keep = (w == 0)[:, None, None]
            inv, mat = np.where(keep, self.inv, inv), np.where(keep, self.mat, mat)
        self.inv, self.mat = inv, mat

    def norm(self, v: np.ndarray):
        """sqrt(v^T M v), one per row on a stack."""
        return mahalanobis_inv(v, self.mat)

    def inverse_drift(self) -> float:
        """Relative Frobenius distance between the maintained inverse and a fresh one."""
        return inverse_drift(self.mat, self.inv)


def inverse_drift(mat: np.ndarray, inv: np.ndarray) -> float:
    """Relative Frobenius distance between ``inv`` and a fresh inverse of ``mat``."""
    fresh = np.linalg.inv(mat)
    return float(np.linalg.norm(inv - fresh) / np.linalg.norm(fresh))
