"""Runtime checks of the statistical guarantees backing the estimator.

These turn the supporting lemmas into measured quantities: does the recorded
confidence radius actually cover the truth, does the self-normalized potential
stay under its closed-form ceiling, does the curvature matrix dominate the
scatter matrix, and does the per-iteration cost stay flat.

The one report path: a run's sink feeds ``RunChecks`` a block of rounds at a
time, the round loop hands it the curvature matrices at the domination audit
points, and ``diagnostics_report`` turns a seed's checks into its summary's
``diagnostics``. ``coverage_check`` and ``timing_profile`` take a whole
in-memory record and a caller's radius or windows; the streamed report is
tested against them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericFailure
from .linkmath import kappa_bound

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import RunRecord


# the report's potential replays V_s = POTENTIAL_LAMBDA * I + sum_{i<s} z_i z_i^T
POTENTIAL_LAMBDA = 1.0
# the replay's sub-block: one Cholesky per this many rows, aligned to absolute row counts
POTENTIAL_BLOCK = 32
# the rounds after which H >= V/kappa is audited, besides a run's last
DOMINATION_AUDIT_POINTS = (100, 1000)
# the estimators whose curvature matrix is lam*I plus lookahead Hessians; MLE's
# is the scatter matrix V itself, and hvpcg forms none
_AUDITED_KINDS = ("onepass", "implicit")


def _window_sums(t: np.ndarray, wall: np.ndarray, n: int) -> np.ndarray:
    """wall_nanos summed over rounds t in the first and the last tenth of n (all if n < 10)."""
    w = n // 10 if n >= 10 else n
    return np.stack([np.where(t <= w, wall, 0).sum(axis=-1),
                     np.where(t > n - w, wall, 0).sum(axis=-1)], axis=-1)


class RunChecks:
    """A report's streamed inputs for a group of runs, fed a block of rounds at a time.

    ``n`` is the rounds a run is expected to complete, which places the
    timing windows and the last audit point. Each ``feed`` takes the next
    rounds of every run, and the runs replay their potentials as one stack,
    which ``elliptic_potential_check`` carries from feed to feed: it keeps
    each run's V and takes the rows POTENTIAL_BLOCK at a time, so a 256-round
    block costs 8 Cholesky factorizations per run, not 256 rank-one updates.

    ``est`` is the runs' estimator, a lone one or a lockstep stack. For an
    audited kind (onepass, implicit) each run also keeps its scatter sum
    sum z z^T, added one round after another, and ``points`` holds the
    rounds at which the loop calls ``audit``, which checks H >= V/kappa with
    V = kappa*lam*I + that sum; for any other estimator ``points`` is empty
    and ``audits`` stay empty lists.
    """

    def __init__(self, envs: Sequence, n: int, est=None):
        self.phi = np.stack([env.features.phi for env in envs])
        self.L, self.n = 2 * np.array([env.truth.L for env in envs]), n
        self.rows, self.replay = np.arange(len(envs))[:, None], {}
        self.first = np.zeros(len(envs), dtype=np.int64)  # 0: no violation yet
        self.lhs, self.rhs = np.zeros((2, len(envs)))
        self.windows = np.zeros((len(envs), 2), dtype=np.int64)
        self.audits = [[] for _ in envs]
        self.points, self.v_sum = frozenset(), None
        if getattr(est, "kind", None) in _AUDITED_KINDS:
            self.points = frozenset(p for p in (*DOMINATION_AUDIT_POINTS, n) if 1 <= p <= n)
            d = self.phi.shape[-1]
            self.v_sum = np.zeros((len(envs), d, d))
            self.kappas = [kappa_bound(env.truth.B, env.truth.L) for env in envs]
            self.lam = est.lam_

    def feed(self, t: np.ndarray, x, a, a_prime, err_local, beta, wall):
        """Rounds ``t`` of every run.

        Each other argument holds one row per run; beta may be one shared row.
        """
        z = self.phi[self.rows, x, a]
        z -= self.phi[self.rows, x, a_prime]
        self.lhs, self.rhs, _ = elliptic_potential_check(z, POTENTIAL_LAMBDA, self.L, self.replay)
        if self.points:  # one round of every run at a time: no (S, rounds, d, d) array
            for row in np.moveaxis(z, 1, 0):
                self.v_sum += row[:, :, None] * row[:, None, :]
        bad = err_local > beta
        hit = bad.any(axis=1) & (self.first == 0)
        self.first[hit] = t[bad[hit].argmax(axis=1)]
        self.windows += _window_sums(t, wall, self.n)

    def audit(self, t: int, H: np.ndarray) -> None:
        """Check H >= V/kappa for every run after round t, its rows up to t all fed.

        ``H`` holds the runs' curvature matrices: (d, d) for a lone run, or a
        stack's (S, d, d).
        """
        H = np.reshape(H, self.v_sum.shape)
        eye = np.eye(self.v_sum.shape[-1])
        for s, kappa in enumerate(self.kappas):
            V = kappa * self.lam * eye + self.v_sum[s]
            self.audits[s].append({"t": t, "min_eig": norm_domination_check(H[s], V, kappa)})


def diagnostics_report(checks: RunChecks, s: int, n: int, wall: Optional[np.ndarray]) -> dict:
    """Run s's lemma-level checks after its n rounds: its summary's ``diagnostics`` field.

    Holds coverage_ok, first_violation, potential_lhs, potential_rhs,
    domination_min_eig, timing_early_ns, timing_late_ns and timing_ratio.
    A run that stopped short of ``checks.n`` passes its whole ``wall``
    column, whose windows then fall in its own n rounds. The domination
    eigenvalue is the least of the run's ``checks.audits`` (None, so JSON
    null, for an estimator that is not audited); the timing ratio is None
    when the early window read 0 ns.
    """
    windows = checks.windows[s] if wall is None else _window_sums(np.arange(1, n + 1), wall, n)
    early, late = (windows / (n // 10 if n >= 10 else n)).tolist() if n else (0.0, 0.0)
    first = int(checks.first[s]) or None
    return {"coverage_ok": first is None, "first_violation": first,
            "potential_lhs": float(checks.lhs[s]), "potential_rhs": float(checks.rhs[s]),
            "domination_min_eig": min((a["min_eig"] for a in checks.audits[s]), default=None),
            "timing_early_ns": early, "timing_late_ns": late,
            "timing_ratio": 1.0 if n < 10 else late / early if early else None}


def coverage_check(record: "RunRecord",
                   beta: Optional[np.ndarray] = None) -> Tuple[bool, Optional[int]]:
    """Was the truth inside the confidence set at every logged iteration?

    Compares the recorded local-norm estimation error against the recorded
    radius (or a caller-supplied replacement radius sequence). Returns
    (ok, first violating t or None).
    """
    radii = record.beta if beta is None else np.asarray(beta, dtype=float)
    if radii.shape != record.est_err_local.shape:
        raise ValueError("radius sequence must match the record length")
    bad = record.est_err_local > radii
    if not bad.any():
        return True, None
    return False, int(record.t[int(np.argmax(bad))])


def _potential_terms(V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """min(1, z_j^T V_j^-1 z_j) for the rows z_j of Z fed in order after V.

    V_j = V + sum_{i<j} z_i z_i^T. With C the Cholesky factor of
    I + Z V^-1 Z^T, C_jj^2 = 1 + z_j^T V_j^-1 z_j. One row of terms per
    leading index.
    """
    W = np.linalg.solve(V, np.swapaxes(Z, -1, -2))
    C = np.linalg.cholesky(np.eye(Z.shape[-2]) + Z @ W)
    return np.minimum(1.0, np.diagonal(C, axis1=-2, axis2=-1) ** 2 - 1.0)


def elliptic_potential_check(zs, lambda_v: float, L, replay: Optional[dict] = None):
    """Sum of clipped squared self-normalized norms against its closed-form ceiling.

    Computes lhs = sum_s min(1, ||z_s||^2) in the inverse of V_s = lambda*I +
    sum_{i<s} z_i z_i^T, the sum the elliptic potential lemma bounds, and
    rhs = 2 d log(1 + t L^2 / (lambda d)). The replay keeps V and takes the
    rows POTENTIAL_BLOCK at a time: one batched solve, one Cholesky and one
    V += Z^T Z per sub-block (``_potential_terms``). ``L`` must bound the
    supplied rows (callers pass 2L for preference differences); a stack may
    pass one bound per sequence. A longer row raises ValueError, a NaN row
    NumericFailure. Returns (lhs, rhs, ok) with one value per leading index:
    scalars for one (n, d) sequence ``zs``, arrays of S for a stack of
    equal-length sequences (S, n, d), which are replayed together.

    ``replay``, an initially empty dict passed on every call, carries the
    replay from call to call, so a long sequence is fed a block of rows at a
    time without being held whole. Sub-blocks start at multiples of
    POTENTIAL_BLOCK rows fed, and the rows of a trailing partial one carry
    over to the next call, so the blocking does not change a bit of lhs.
    Each call checks its rows against ``L`` and feeds them after the rows
    before, and lhs and rhs cover every row fed so far.
    """
    if lambda_v <= 0:
        raise ValueError(f"lambda_v must be positive, got {lambda_v}")
    zs, L = np.asarray(zs, dtype=float), np.asarray(L, dtype=float)
    norms = np.sqrt(np.vecdot(zs, zs))
    if np.any(norms > L[..., None] * (1 + 1e-9)):
        raise ValueError("a row exceeds the stated norm bound L")
    if np.isnan(norms).any():
        raise NumericFailure("a row fed to the potential replay is not finite")
    state = {} if replay is None else replay
    if not state:
        state.update(V=lambda_v * np.eye(zs.shape[-1]), lhs=np.zeros(zs.shape[:-2]),
                     carry=np.zeros((*zs.shape[:-2], 0, zs.shape[-1])), n=0)
    rows = np.concatenate((state["carry"], zs), axis=-2)
    V, lhs = state["V"], state["lhs"]
    full = rows.shape[-2] - rows.shape[-2] % POTENTIAL_BLOCK
    for lo in range(0, full, POTENTIAL_BLOCK):
        Z = rows[..., lo:lo + POTENTIAL_BLOCK, :]
        lhs = lhs + _potential_terms(V, Z).sum(axis=-1)
        V = V + np.swapaxes(Z, -1, -2) @ Z
    tail = rows[..., full:, :].copy()  # keeps only the carried rows alive
    state.update(V=V, lhs=lhs, carry=tail, n=state["n"] + zs.shape[-2])
    if tail.shape[-2]:
        lhs = lhs + _potential_terms(V, tail).sum(axis=-1)
    d = zs.shape[-1]
    rhs = 2.0 * d * np.log(1.0 + state["n"] * L**2 / (lambda_v * d))
    return lhs[()], rhs[()], (lhs <= rhs + 1e-9)[()]


def norm_domination_check(H: np.ndarray, V: np.ndarray, kappa: float) -> float:
    """Smallest eigenvalue of H - V/kappa; nonnegative when H dominates V/kappa.

    Evaluated as (kappa*H - V)/kappa so the definitional t=0 case
    H = lam*I, V = kappa*lam*I cancels exactly instead of to rounding noise.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    diff = (kappa * np.asarray(H, dtype=float) - np.asarray(V, dtype=float)) / kappa
    return float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0])


def timing_profile(record: RunRecord, early: Tuple[int, int],
                   late: Tuple[int, int]) -> Tuple[float, float, float]:
    """Mean update wall time over two inclusive iteration windows, and their ratio.

    No pass/fail judgment is made here; callers compare the ratio against
    whatever constancy or growth they expect.
    """
    means = []
    for lo, hi in (early, late):
        mask = (record.t >= lo) & (record.t <= hi)
        if not mask.any():
            raise ValueError(f"window [{lo}, {hi}] selects no iterations")
        means.append(float(record.wall_nanos[mask].mean()))
    early_mean, late_mean = means
    return early_mean, late_mean, late_mean / early_mean
