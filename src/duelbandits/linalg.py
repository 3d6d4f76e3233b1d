"""Rank-one inverse maintenance, weighted norms, and a matrix-free CG solver.

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

__all__ = [
    "sherman_morrison",
    "rank_one_inverse",
    "mahalanobis_inv",
    "cg_solve",
    "LocalNormMatrix",
    "inverse_drift",
]


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

    def copy(self) -> "LocalNormMatrix":
        return LocalNormMatrix(mat=self.mat, inv=self.inv, dim=self.dim)

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

    def inv_norm(self, v: np.ndarray):
        """sqrt(v^T M^-1 v), one per row on a stack."""
        return mahalanobis_inv(v, self.inv)

    def inverse_drift(self) -> float:
        """Relative Frobenius distance between the maintained inverse and a fresh one."""
        return inverse_drift(self.mat, self.inv)


def inverse_drift(mat: np.ndarray, inv: np.ndarray) -> float:
    """Relative Frobenius distance between ``inv`` and a fresh inverse of ``mat``."""
    fresh = np.linalg.inv(mat)
    return float(np.linalg.norm(inv - fresh) / np.linalg.norm(fresh))
