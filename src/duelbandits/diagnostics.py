"""Runtime checks of the statistical guarantees backing the estimator.

These turn the supporting lemmas into measured quantities: does the recorded
confidence radius actually cover the truth, does the self-normalized potential
stay under its closed-form ceiling, does the curvature matrix dominate the
scatter matrix, and does the per-iteration cost stay flat.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .linalg import sherman_morrison

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import RunRecord


# rounds of played rows that the potential replay gathers and holds at a time
REPLAY_BLOCK_ROWS = 128


def diagnostics_report(envs: Sequence, records: Sequence["RunRecord"],
                       potential_lambda: float = 1.0) -> List[dict]:
    """Bundle every lemma-level check, one report dict per finished run.

    Each report holds coverage_ok, first_violation, potential_lhs,
    potential_rhs, domination_min_eig, timing_early_ns, timing_late_ns and
    timing_ratio.

    ``envs`` and ``records`` pair each run with its environment. The
    domination eigenvalue comes from the audits each run itself recorded (NaN
    when the estimator exposes no curvature matrix); the timing windows are
    the first and last tenth of the run. The elliptic potentials of
    equal-length records are replayed as one stack, fed a block of rounds at
    a time (``_z_blocks``), so the played rows are never held whole.
    """
    groups: dict = {}
    for k, (env, rec) in enumerate(zip(envs, records)):
        groups.setdefault((len(rec), env.truth.L, env.features.phi.shape), []).append(k)
    potentials = {}
    for (n, L, _), ks in groups.items():
        blocks = _z_blocks([envs[k] for k in ks], [records[k] for k in ks], n)
        lhs, rhs, _ = elliptic_potential_check(blocks, potential_lambda, 2 * L)
        potentials.update((k, (float(v), rhs)) for k, v in zip(ks, lhs))
    return [_report(rec, *potentials[k]) for k, rec in enumerate(records)]


def _z_blocks(envs: Sequence, records: Sequence["RunRecord"], n: int) -> Iterator[np.ndarray]:
    """The played z rows of S equal-length records as (S, m, d) blocks of consecutive rounds.

    Each block is gathered from the records' logged x, a, a' ids and the
    stacked features, the same values ``RunRecord.z_rows`` gives. A record
    of no rounds gives one empty block.
    """
    phi = np.stack([env.features.phi for env in envs])
    seed = np.arange(len(records))[:, None]
    for lo in range(0, max(n, 1), REPLAY_BLOCK_ROWS):
        x, a, b = (np.stack([getattr(rec, name)[lo:lo + REPLAY_BLOCK_ROWS] for rec in records])
                   for name in ("x", "a", "a_prime"))
        z = phi[seed, x, a]
        z -= phi[seed, x, b]
        yield z


def _report(record: "RunRecord", lhs: float, rhs: float) -> dict:
    cov_ok, first = coverage_check(record)
    audits = record.summary.get("domination_audits", [])
    dom = min((a["min_eig"] for a in audits), default=float("nan"))
    n = len(record)
    if n >= 10:
        tenth = n // 10
        early, late, ratio = timing_profile(record, (1, tenth), (n - tenth + 1, n))
    else:
        early = late = float(record.wall_nanos.mean()) if n else 0.0
        ratio = 1.0
    return {
        "coverage_ok": cov_ok, "first_violation": first,
        "potential_lhs": lhs, "potential_rhs": rhs,
        "domination_min_eig": dom,
        "timing_early_ns": early, "timing_late_ns": late, "timing_ratio": ratio,
    }


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


def elliptic_potential_check(zs, lambda_v: float, L: float):
    """Sum of squared self-normalized norms against its closed-form ceiling.

    Computes lhs = sum_s ||z_s||^2 in the inverse of V_s = lambda*I + sum_{i<s}
    z_i z_i^T via incremental rank-one inverse updates, and
    rhs = 2 d log(1 + t L^2 / (lambda d)). ``L`` must bound the supplied rows
    (callers pass 2L for preference differences). Returns (lhs, rhs, ok) with
    one lhs and one verdict per leading index: scalars for one (n, d)
    sequence, arrays of S for a stack of equal-length sequences (S, n, d),
    which are replayed together.

    ``zs`` is one such array, or an iterable of consecutive row blocks
    ((m, d) or (S, m, d), one leading shape throughout), so a long sequence
    is replayed without being held whole; the blocking does not change a bit
    of lhs. A block is checked against ``L`` when it arrives.
    """
    if lambda_v <= 0:
        raise ValueError(f"lambda_v must be positive, got {lambda_v}")
    inv = lhs = None
    n = 0
    for block in ((zs,) if isinstance(zs, np.ndarray) else zs):
        block = np.asarray(block, dtype=float)
        if np.any(np.sqrt(np.vecdot(block, block)) > L * (1 + 1e-9)):
            raise ValueError("a row exceeds the stated norm bound L")
        if inv is None:
            d = block.shape[-1]
            inv = np.eye(d) / lambda_v
            lhs = np.zeros(block.shape[:-2])
        for j in range(block.shape[-2]):
            z = block[..., j, :]
            u = np.matvec(inv, z)
            zu = np.vecdot(z, u)
            lhs = lhs + zu
            inv = sherman_morrison(inv, z, 1.0, u, zu)
        n += block.shape[-2]
    if inv is None:
        raise ValueError("no row blocks to replay")
    rhs = float(2.0 * d * np.log(1.0 + n * L**2 / (lambda_v * d)))
    return lhs[()], rhs, (lhs <= rhs + 1e-9)[()]


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
