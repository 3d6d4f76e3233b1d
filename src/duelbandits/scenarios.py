"""The three online preference-learning loops and their metrics.

Passive: pairs arrive from the environment's behavior distribution; the final
policy maximizes a pessimism-penalized value. Active: the learner queries the
pair with the largest uncertainty norm and plays the averaged-parameter greedy
policy. Deployment: contexts arrive online, the learner plays a greedy action
plus an exploration-bonused partner and pays dueling regret against the
optimal action.

Each scenario runs one seed, or equal-length sequences of environments and
estimators. Several seeds whose estimator has a stacked update
(``stack``/``unstack``) run in lockstep: one round advances every seed, and
one update call steps them all. Other seeds run one after another. Every
seed's record is exactly the one it would get alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .environment import Environment, Policy, draw_passive_pair
from .exceptions import NumericFailure
from .linalg import inverse_drift
from .linkmath import bt_sample, kappa_bound

__all__ = [
    "RunRecord",
    "CSV_COLUMNS",
    "shared_csv_cells",
    "greedy_policy",
    "pessimistic_policy",
    "pessimistic_value",
    "subopt",
    "select_most_uncertain",
    "select_deploy_actions",
    "run_passive",
    "run_active",
    "run_deploy",
    "default_checkpoints",
]

CSV_COLUMNS = (
    "t", "wall_nanos", "est_err_l2", "est_err_local", "beta",
    "cum_regret", "subopt_checkpoint", "x", "a", "a_prime", "y", "flags",
)

ENUMERATE_BUDGET = 10**6
LAZY_CANDIDATES = 32
CSV_BLOCK_ROWS = 64
DOMINATION_AUDIT_POINTS = (100, 1000)


_FLOAT_COLUMNS = frozenset(("est_err_l2", "est_err_local", "beta", "cum_regret",
                            "subopt_checkpoint"))


# preformatted cells for small non-negative ids (contexts, actions, labels, early t)
_ID_CELLS = tuple(map(str, range(1024)))


def _csv_cells(name: str, values: np.ndarray) -> list:
    """One column's cells: str of each id, repr of each float with NaN as an empty cell."""
    if name in _FLOAT_COLUMNS:
        return [repr(v) if v == v else "" for v in values.tolist()]
    return [_ID_CELLS[v] if -1 < v < len(_ID_CELLS) else str(v) for v in values.tolist()]


def shared_csv_cells(records: Sequence["RunRecord"]) -> dict:
    """The CSV cells of every column that all records hold byte for byte, formatted once.

    Maps a column name to the cells of the longest record; a shorter record
    (a seed that stopped early) shares a column when it equals that record's
    prefix. Bytes decide, not ``==``: -0.0 == 0.0, but the two print apart.
    A lone record shares nothing, so it keeps formatting a block at a time.
    """
    if len(records) < 2:
        return {}
    longest = max(records, key=len)
    shared = {}
    for name in CSV_COLUMNS[:-1]:
        ref = getattr(longest, name)
        if all(getattr(rec, name).tobytes() == ref[:len(rec)].tobytes() for rec in records):
            shared[name] = _csv_cells(name, ref)
    return shared


@dataclass
class RunRecord:
    """Per-iteration log of one scenario run plus its summary."""

    scenario: str
    seed: int
    T: int
    t: np.ndarray
    wall_nanos: np.ndarray
    est_err_l2: np.ndarray
    est_err_local: np.ndarray
    beta: np.ndarray
    cum_regret: np.ndarray
    subopt_checkpoint: np.ndarray
    x: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    y: np.ndarray
    flags: List[str]
    summary: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path, shared: Optional[dict] = None) -> None:
        """One row per iteration.

        Cells are formatted a column and a block of rows at a time, so the
        converted copy stays small. ``shared`` holds the preformatted cells of
        columns this record has in common with others (``shared_csv_cells``).
        """
        shared = shared or {}
        n = len(self.t)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for lo in range(0, n, CSV_BLOCK_ROWS):
                block = slice(lo, min(lo + CSV_BLOCK_ROWS, n))
                columns = [shared[name][block] if name in shared
                           else _csv_cells(name, getattr(self, name)[block])
                           for name in CSV_COLUMNS[:-1]]
                fh.write("\n".join(map(",".join, zip(*columns, self.flags[block]))) + "\n")

    def z_rows(self, env: Environment) -> np.ndarray:
        """Reconstruct the played z sequence from the logged tuple ids."""
        phi = env.features.phi
        return phi[self.x, self.a] - phi[self.x, self.a_prime]


class _Recorder:
    """(S, T) record columns, one row per seed; a one-seed run writes row 0."""

    def __init__(self, scenario: str, seeds: Sequence[int], T: int):
        self.scenario, self.seeds, self.T = scenario, list(seeds), T
        shape = (len(self.seeds), T)
        self.wall = np.zeros(shape, dtype=np.int64)
        self.err_l2 = np.full(shape, np.nan)
        self.err_local = np.full(shape, np.nan)
        self.beta = np.full(shape, np.nan)
        self.cum_regret = np.full(shape, np.nan)
        self.subopt_ckpt = np.full(shape, np.nan)
        self.x = np.zeros(shape, dtype=np.int64)
        self.a = np.zeros(shape, dtype=np.int64)
        self.a_prime = np.zeros(shape, dtype=np.int64)
        self.y = np.zeros(shape, dtype=np.int64)
        self.flags = [[""] * T for _ in self.seeds]
        self.n = np.zeros(len(self.seeds), dtype=np.int64)

    def record(self, s: int) -> RunRecord:
        """Seed row s as its own record, cut at the rounds it completed."""
        n = int(self.n[s])
        return RunRecord(
            scenario=self.scenario, seed=self.seeds[s], T=self.T,
            t=np.arange(1, n + 1, dtype=np.int64),
            wall_nanos=self.wall[s, :n],
            est_err_l2=self.err_l2[s, :n], est_err_local=self.err_local[s, :n],
            beta=self.beta[s, :n], cum_regret=self.cum_regret[s, :n],
            subopt_checkpoint=self.subopt_ckpt[s, :n],
            x=self.x[s, :n], a=self.a[s, :n], a_prime=self.a_prime[s, :n], y=self.y[s, :n],
            flags=self.flags[s][:n],
        )


def default_checkpoints(T: int) -> Tuple[int, ...]:
    """Powers of two up to T, plus T itself."""
    points = set()
    k = 1
    while k <= T:
        points.add(k)
        k *= 2
    if T >= 1:
        points.add(T)
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# policies and metrics


def greedy_policy(theta: np.ndarray, env: Environment) -> Policy:
    """Per-context argmax of estimated reward; ties go to the lowest action id."""
    return Policy(np.argmax(env.features.phi @ theta, axis=1))


def subopt(policy: Policy, env: Environment) -> float:
    """Expected true-reward shortfall of the policy against the optimal one."""
    r = env.rewards()
    idx = np.arange(env.features.num_contexts)
    gap = r[idx, np.argmax(r, axis=1)] - r[idx, policy.action_of]
    return float(np.dot(env.rho, gap))


def _quad_forms(rows: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise z M z^T: one BLAS product, then a row dot (per leading index on a stack)."""
    return np.einsum("...ij,...ij->...i", rows @ M, rows)


def _penalized_norms(rows: np.ndarray, norm_inv: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_quad_forms(rows, norm_inv), 0.0))


def pessimistic_value(policy: Policy, theta: np.ndarray, norm_inv: np.ndarray,
                      beta: float, env: Environment) -> float:
    """Pessimism-penalized value of a policy: Phi(pi).theta - beta*||Phi(pi)||_inv."""
    phi = env.features.phi
    avg = np.einsum("x,xd->d", env.rho,
                    phi[np.arange(env.features.num_contexts), policy.action_of])
    return float(avg @ theta) - beta * float(_penalized_norms(avg[None, :], norm_inv)[0])


def pessimistic_policy(theta: np.ndarray, norm_inv: np.ndarray, beta: float,
                       env: Environment, mode: str = "enumerate") -> Policy:
    """Maximize the pessimism-penalized value over deterministic policies.

    ``enumerate`` is exact but costs num_actions**num_contexts evaluations;
    ``greedy_percontext`` maximizes per context independently, which ignores
    the coupling the penalty norm introduces across contexts and is therefore
    an approximation. Ties resolve to the lowest action ids in both modes.
    """
    phi = env.features.phi
    X, A, d = phi.shape
    if mode == "greedy_percontext":
        actions = np.empty(X, dtype=int)
        for x in range(X):
            scores = phi[x] @ theta - beta * _penalized_norms(phi[x], norm_inv)
            actions[x] = int(np.argmax(scores))
        return Policy(actions)
    if mode != "enumerate":
        raise ValueError(f"mode must be 'enumerate' or 'greedy_percontext', got {mode!r}")
    n_policies = A**X
    if n_policies > ENUMERATE_BUDGET:
        raise ValueError(
            f"enumerate mode would scan {n_policies} policies (> {ENUMERATE_BUDGET}); "
            "use mode='greedy_percontext'"
        )
    # Expand the table one context at a time, carrying each partial policy's
    # linear value and quadratic form, q(p + r) = q(p) + 2 (p M).r + r M r^T,
    # so the full A**X x d table of averaged features is never formed.
    lin, quad, prefix = np.zeros(1), np.zeros(1), np.zeros((1, d))
    for x in range(X):
        rows = env.rho[x] * phi[x]
        cross = (prefix @ norm_inv) @ rows.T
        lin = (lin[:, None] + rows @ theta).ravel()
        quad = (quad[:, None] + 2.0 * cross + _quad_forms(rows, norm_inv)).ravel()
        if x < X - 1:
            prefix = (prefix[:, None, :] + rows[None, :, :]).reshape(-1, d)
    values = lin - beta * np.sqrt(np.maximum(quad, 0.0))
    best = int(np.argmax(values))
    actions = np.empty(X, dtype=int)
    for x in range(X - 1, -1, -1):
        actions[x] = best % A
        best //= A
    return Policy(actions)


def _certified_argmax(pair_diffs: np.ndarray, norm_inv: np.ndarray, memo: dict) -> np.ndarray:
    """The index the full scan's argmax returns, usually from LAZY_CANDIDATES rows.

    A full scan keeps in ``memo`` the top candidates, the largest form outside
    them (``bound``) and an error ``unit`` = 16 d^2 eps R^2 m, with R^2 the
    largest squared row norm and m the largest |entry| of norm_inv. Each
    computed form is within 2 d^2 eps R^2 m of its exact value, and each
    rank-one downdate of a kept inverse moves a form by at most 2 d eps R^2 m
    beyond its exact change. In exact arithmetic no form grows between calls,
    since every estimator only adds curvature, so last scan's forms bound
    this call's from above up to ``slack`` = (rounds + 4) * unit. The best
    candidate is returned only when it beats the second candidate and
    ``bound`` by more than 2 * slack; it is then the unique maximum of a full
    scan. Otherwise, exact ties included, a full scan runs and refreshes the
    memo. On a stack the memo holds one entry per seed and a full scan covers
    every seed.
    """
    if memo:
        memo["rounds"] += 1
        forms = _quad_forms(memo["rows"], norm_inv)
        scale = 2.0 * (memo["rounds"] + 4)
        picks = []
        for values, cand, bound, unit in zip(forms.reshape(-1, LAZY_CANDIDATES).tolist(),
                                             memo["cand"], memo["bound"], memo["unit"]):
            second, best = sorted(values)[-2:]
            margin = scale * unit
            # a NaN or infinite form leaves the sum non-finite: the full scan handles it
            if not (best - second > margin and best > bound + margin
                    and math.isfinite(sum(values))):
                break
            picks.append(cand[values.index(best)])
        else:
            return np.array(picks).reshape(forms.shape[:-1])
    forms = _quad_forms(pair_diffs, norm_inv)
    cut = forms.shape[-1] - LAZY_CANDIDATES
    # position cut - 1 holds the largest form outside the candidates after it
    order = np.argpartition(forms, cut - 1, axis=-1)
    cand = order[..., cut:]
    d = norm_inv.shape[-1]
    unit = (16.0 * d * d * np.finfo(float).eps
            * np.einsum("...ij,...ij->...i", pair_diffs, pair_diffs).max(axis=-1)
            * np.abs(norm_inv).max(axis=(-2, -1)))
    memo.update(
        rounds=0,
        rows=np.take_along_axis(pair_diffs, cand[..., None], axis=-2),
        cand=cand.reshape(-1, LAZY_CANDIDATES).tolist(),
        bound=np.take_along_axis(forms, order[..., cut - 1:cut], axis=-1).ravel().tolist(),
        unit=np.ravel(unit).tolist(),
    )
    return forms.argmax(axis=-1)


def select_most_uncertain(pair_diffs: np.ndarray, norm_inv: np.ndarray,
                          pairs: Sequence[Tuple[int, int]], memo: Optional[dict] = None):
    """Scan for the (x, a, a') tuple with the largest uncertainty norm.

    ``pair_diffs`` and ``pairs`` are an environment's ``pair_diffs()`` and
    ``action_pairs()``: unordered pairs a < a' only, since the norm is
    symmetric in the two actions. Ties resolve to the lexicographically
    smallest tuple. On a lockstep stack, pair_diffs is (S, P, d) and norm_inv
    (S, d, d), and x, a, a' come back as (S,) arrays.

    ``memo`` is an initially empty dict that one run passes on every call
    with the same pair table, while norm_inv only ever loses curvature (it
    never grows in the PSD order). The scan then re-scores only the top
    candidates of the last full scan and returns the full scan's tuple
    exactly (``_certified_argmax``). Without a memo, and for tables of at most
    2 * LAZY_CANDIDATES pairs, every call scores every pair.
    """
    if memo is None or pair_diffs.shape[-2] <= 2 * LAZY_CANDIDATES:
        idx = _quad_forms(pair_diffs, norm_inv).argmax(axis=-1)
    else:
        idx = _certified_argmax(pair_diffs, norm_inv, memo)
    if idx.ndim == 0:
        x, rest = divmod(int(idx), len(pairs))
        return (x, *pairs[rest])
    x, rest = np.divmod(idx, len(pairs))
    a, b = np.asarray(pairs)[rest].T
    return x, a, b


def select_deploy_actions(theta: np.ndarray, norm_inv: np.ndarray, beta: float,
                          phi_x: np.ndarray, explore_coeff: float = 1.0):
    """Greedy first action; second maximizes reward plus distance-to-first bonus.

    ``phi_x`` holds the (actions, d) features of the arrived context. The
    second argmax ranges over every action including the first, so a zero
    bonus collapses to playing the greedy action twice. On a lockstep stack,
    theta is (S, d), norm_inv (S, d, d) and phi_x (S, actions, d), and the two
    actions come back as (S,) arrays.
    """
    if theta.ndim == 1:
        scores = phi_x @ theta
        a = int(scores.argmax())
        bonus = explore_coeff * beta * _penalized_norms(phi_x - phi_x[a], norm_inv)
        return a, int((scores + bonus).argmax())
    scores = np.matvec(phi_x, theta)
    a = scores.argmax(axis=-1)
    greedy = phi_x[np.arange(len(a)), a][:, None, :]
    bonus = explore_coeff * beta * _penalized_norms(phi_x - greedy, norm_inv)
    return a, (scores + bonus).argmax(axis=-1)


# ---------------------------------------------------------------------------
# run loops


def _domination_parts(estimator):
    mat = estimator.local_norm_matrix()
    cfg = getattr(estimator, "config_", None)
    if mat is not None and cfg is not None:
        return mat, cfg.lam
    if mat is not None and hasattr(estimator, "lam_"):
        return mat, estimator.lam_
    return None


class _DominationAudit:
    """Tracks V_t = kappa*lam*I + sum z z^T per seed and spot-checks H >= V/kappa.

    The scatter sums of all seeds are one (S, d, d) stack; a check reads each
    seed's H from its own estimator, which the loop has brought up to date.
    """

    def __init__(self, estimators, envs: Sequence[Environment], T: int,
                 points: Sequence[int] = DOMINATION_AUDIT_POINTS):
        parts = [_domination_parts(est) for est in estimators]
        self.records: List[List[dict]] = [[] for _ in estimators]
        if parts[0] is None:
            self.points = frozenset()
            return
        self.lams = [lam for _, lam in parts]
        self.kappas = [kappa_bound(env.truth.B, env.truth.L) for env in envs]
        dim = envs[0].features.dim
        self.v_sum = np.zeros((len(envs), dim, dim))
        self.points = frozenset(p for p in (*points, T) if 1 <= p <= T)
        self.estimators = estimators
        self.dim = dim

    def step(self, z: np.ndarray, rows) -> None:
        """Add the round's z z^T: one z (d,) for row ``rows``, or (S', d) for S' rows."""
        if self.points:
            self.v_sum[rows] += z[..., :, None] * z[..., None, :]

    def check(self, t: int, live: np.ndarray) -> None:
        from .diagnostics import norm_domination_check

        for s in live:
            kappa = self.kappas[s]
            H = self.estimators[s].local_norm_matrix()
            V = kappa * self.lams[s] * np.eye(self.dim) + self.v_sum[s]
            self.records[s].append({"t": t, "min_eig": norm_domination_check(H, V, kappa)})


def _estimator_stats(estimator) -> dict:
    """End-of-run internals: projections fired, and the drift of a maintained inverse."""
    stats = {}
    if hasattr(estimator, "projections_"):
        stats["projections"] = estimator.projections_
    mat = estimator.local_norm_matrix()
    if mat is not None:
        stats["inverse_drift"] = inverse_drift(mat, estimator.inv_norm_matrix())
    return stats


def _base_summary(rec: RunRecord, estimator, theta_star, aborted: Optional[str]) -> dict:
    n = len(rec)
    diff = estimator.theta_ - theta_star
    flag_counts: dict = {}
    for f in rec.flags:
        if f:
            flag_counts[f] = flag_counts.get(f, 0) + 1
    summary = {
        "scenario": rec.scenario,
        "seed": rec.seed,
        "T": rec.T,
        "estimator": type(estimator).__name__,
        "completed": n,
        "aborted": aborted,
        "final_est_err_l2": float(np.linalg.norm(diff)),
        "final_est_err_local": float(estimator.local_norm(diff)),
        "final_beta": float(estimator.radius()),
        "update_ns_total": int(rec.wall_nanos.sum()),
        "update_ns_mean": float(rec.wall_nanos.mean()) if n else 0.0,
        "flag_counts": flag_counts,
        "estimator_stats": _estimator_stats(estimator),
    }
    hist = getattr(estimator, "newton_iters_hist_", None)
    if hist is not None:
        # entry k: the updates whose damped-Newton solve took k iterations
        summary["newton_iters_hist"] = [hist[k] for k in range(max(hist, default=-1) + 1)]
    counts = getattr(estimator, "boundary_counts_", None)
    if counts is not None:
        # damped-Newton steps that left the ball, and the real norm probes
        # their damping searches made
        summary["boundary_searches"] = counts["boundary_searches"]
        summary["boundary_probes"] = counts["boundary_probes"]
    return summary


def _seeds(env, estimator):
    """(environments, estimators, single) for one seed or equal-length sequences."""
    if isinstance(env, Environment):
        return [env], [estimator], True
    envs, estimators = list(env), list(estimator)
    if not envs or len(envs) != len(estimators):
        raise ValueError("need one estimator per environment, and at least one of each")
    return envs, estimators, False


def _lockstep(estimators) -> bool:
    """Whether the seeds step as one stack: several of them, with a stacked update."""
    return len(estimators) > 1 and hasattr(type(estimators[0]), "stack")


def _streams(envs: Sequence[Environment], stream_seed: Optional[int]):
    """Each seed's random stream: from its environment's seed unless overridden."""
    return [np.random.default_rng((env.rng_seed, 1) if stream_seed is None else stream_seed)
            for env in envs]


class _Draws:
    """The uniform draws of scenarios that draw only doubles, ``per_round`` a round.

    ``rng.random(n)`` gives the same doubles as n calls of ``rng.random()``,
    so each seed's stream is read a block of rounds at a time, and memory
    stays O(S) whatever the horizon. ``draws(rows, i)`` is round i's
    (seeds, per_round) block.
    """

    BLOCK_ROUNDS = 256

    def __init__(self, streams, per_round: int):
        self.streams, self.per_round = streams, per_round
        self.block, self.first = None, None

    def __call__(self, rows, i: int) -> np.ndarray:
        first = i - i % self.BLOCK_ROUNDS
        if first != self.first:
            n = self.BLOCK_ROUNDS * self.per_round
            self.block = np.stack([rng.random(n).reshape(-1, self.per_round)
                                   for rng in self.streams])
            self.first = first
        return self.block[rows, i - first]


def _start(estimators, T: int) -> None:
    for est in estimators:
        if getattr(est, "horizon", False) is None:
            est.horizon = max(T, 1)
        est.reset()


def _finish(rec: _Recorder, s: int, env: Environment, estimator, aborted: Optional[str],
            audit: _DominationAudit, policy: Optional[Callable]):
    """Seed row s's (final policy, record) with its summary."""
    record = rec.record(s)
    record.summary = _base_summary(record, estimator, env.truth.theta_star, aborted)
    record.summary["domination_audits"] = audit.records[s]
    final = None
    if policy is not None and aborted is None:
        final = policy(estimator, env)
        record.summary["subopt"] = subopt(final, env)
        record.summary["policy"] = final.action_of.tolist()
    return final, record


def _run_loop(scenario: str, env: Environment, estimator, T: int, choose: Callable,
              policy: Optional[Callable] = None,
              checkpoints: Optional[Sequence[int]] = None,
              on_step: Optional[Callable] = None) -> Tuple[Optional[Policy], RunRecord]:
    """The round structure all three scenarios share, for one seed.

    Each round ``choose()`` returns the played (x, a, a', y) and the radius
    its choice used. The estimate is captured before the timed update; a
    NumericFailure there flags the round ``update_failed`` and ends the run.
    After a successful update come ``on_step(rec, i, x, a, a')``, the step
    flag, the domination audit, and the suboptimality of
    ``policy(estimator, env)`` at the rounds in ``checkpoints`` (default:
    ``default_checkpoints(T)``). A run with a ``policy`` that no failure cut
    short ends by extracting it. The record is row 0 of a one-seed recorder.
    """
    _start([estimator], T)
    ckpts = frozenset(default_checkpoints(T) if checkpoints is None else checkpoints)
    theta_star = env.truth.theta_star
    rec = _Recorder(scenario, [env.rng_seed], T)
    audit = _DominationAudit([estimator], [env], T)
    aborted = None
    for t in range(1, T + 1):
        i = t - 1
        x, a, b, yy, beta = choose()
        z = env.z_of(x, a, b)
        diff = estimator.theta_ - theta_star
        rec.err_l2[0, i] = math.sqrt(float(diff @ diff))
        rec.err_local[0, i] = estimator.local_norm(diff)
        rec.beta[0, i] = beta
        rec.x[0, i], rec.a[0, i], rec.a_prime[0, i], rec.y[0, i] = x, a, b, yy
        try:
            start = time.perf_counter_ns()
            estimator.update(z, yy)
            rec.wall[0, i] = time.perf_counter_ns() - start
        except NumericFailure as exc:
            rec.flags[0][i] = "update_failed"
            rec.n[0] = t
            aborted = str(exc)
            break
        if on_step is not None:
            on_step(rec, i, x, a, b)
        if not getattr(estimator, "last_converged_", True):
            rec.flags[0][i] = "inner_nonconverged"
        audit.step(z, 0)
        if t in audit.points:
            audit.check(t, (0,))
        rec.n[0] = t
        if t in ckpts:
            rec.subopt_ckpt[0, i] = subopt(policy(estimator, env), env)
    return _finish(rec, 0, env, estimator, aborted, audit, policy)


def _run_lockstep(scenario: str, envs: Sequence[Environment], estimators, T: int,
                  choose: Callable, policy: Optional[Callable] = None,
                  checkpoints: Optional[Sequence[int]] = None,
                  on_step: Optional[Callable] = None) -> List[Tuple[Optional[Policy], RunRecord]]:
    """``_run_loop`` for S seeds whose estimators have a stacked update.

    ``live`` holds the positions of the seeds still running, in stack-row
    order, for indexing paired with per-seed choices; ``rows`` selects the
    same seeds (a plain slice while every seed runs). Each round
    ``choose(stack, live, rows, i)`` returns the played x, a, a', y (one per
    live seed) and the radius the choice used, and
    ``on_step(rec, live, rows, i, x, a, a')`` sees the same arrays. Every live
    row's ``wall_nanos`` is the stacked update time divided by the live seeds.
    A NumericFailure in the update flags the failing seed's round
    ``update_failed`` and ends that seed's run; the others retry the round
    without it. Every seed's record is exactly its ``_run_loop`` record.

    The stack owns the state while the rounds run; each seed's own estimator
    is brought up to date whenever it is read (audits, checkpoints, a failure
    and the end), so the estimators end the run holding their final state.
    """
    _start(estimators, T)
    S = len(envs)
    ckpts = frozenset(default_checkpoints(T) if checkpoints is None else checkpoints)
    theta_star = np.stack([env.truth.theta_star for env in envs])
    phi = np.stack([env.features.phi for env in envs])
    rec = _Recorder(scenario, [env.rng_seed for env in envs], T)
    audit = _DominationAudit(estimators, envs, T)
    aborted: List[Optional[str]] = [None] * S
    live, rows = np.arange(S), slice(None)
    stack = type(estimators[0]).stack(estimators)
    t = 0
    for t in range(1, T + 1):
        i = t - 1
        x, a, b, yy, beta = choose(stack, live, rows, i)
        z = phi[live, x, a] - phi[live, x, b]
        diff = stack.theta_ - theta_star[rows]
        rec.err_l2[rows, i] = np.sqrt(np.vecdot(diff, diff))
        rec.err_local[rows, i] = stack.local_norm(diff)
        rec.beta[rows, i] = beta
        rec.x[rows, i], rec.a[rows, i], rec.a_prime[rows, i], rec.y[rows, i] = x, a, b, yy
        while len(live):
            try:
                start = time.perf_counter_ns()
                stack.update(z, yy)
                rec.wall[rows, i] = (time.perf_counter_ns() - start) // len(live)
                break
            except NumericFailure as exc:
                k = exc.index
                if k is None:
                    raise
                rec.flags[live[k]][i] = "update_failed"
                rec.n[live[k]] = t
                aborted[live[k]] = str(exc)
                stack.unstack([estimators[s] for s in live])
                keep = np.arange(len(live)) != k
                live, x, a, b, yy, z = (v[keep] for v in (live, x, a, b, yy, z))
                rows = live
                if len(live):
                    stack = type(estimators[0]).stack([estimators[s] for s in live])
        if not len(live):
            break
        if on_step is not None:
            on_step(rec, live, rows, i, x, a, b)
        audit.step(z, rows)
        if t in audit.points or t in ckpts:
            stack.unstack([estimators[s] for s in live])
        if t in audit.points:
            audit.check(t, live)
        if t in ckpts:
            for s in live:
                rec.subopt_ckpt[s, i] = subopt(policy(estimators[s], envs[s]), envs[s])
    rec.n[live] = t
    stack.unstack([estimators[s] for s in live])
    return [_finish(rec, s, env, est, aborted[s], audit, policy)
            for s, (env, est) in enumerate(zip(envs, estimators))]


def run_passive(env, estimator, T: int, policy_mode: str = "enumerate",
                checkpoints: Optional[Sequence[int]] = None,
                stream_seed: Optional[int] = None):
    """Observe behavior-distributed pairs for T rounds, then extract a pessimistic policy.

    Returns (policy, record); for sequences of environments and estimators, a
    list of them, one per seed. Pair draws interleave integer and double
    draws, so every seed draws from its own stream round by round, also in
    lockstep.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    envs, estimators, single = _seeds(env, estimator)
    rngs = _streams(envs, stream_seed)

    def draw(s: int):
        e, rng = envs[s], rngs[s]
        x, a, b = draw_passive_pair(e, rng)
        return x, a, b, bt_sample(e.reward(x, a), e.reward(x, b), rng)

    def policy(est, e) -> Policy:
        return pessimistic_policy(est.theta_, est.inv_norm_matrix(), est.radius(), e, policy_mode)

    if _lockstep(estimators):
        def choose_live(stack, live, rows, i):
            x, a, b, y = np.array([draw(s) for s in live], dtype=np.int64).reshape(-1, 4).T
            return x, a, b, y, stack.radius()

        out = _run_lockstep("passive", envs, estimators, T, choose_live, policy, checkpoints)
    else:
        def one(s, e, est):
            return _run_loop("passive", e, est, T, lambda: (*draw(s), est.radius()),
                             policy, checkpoints)

        out = [one(s, *args) for s, args in enumerate(zip(envs, estimators))]
    return out[0] if single else out


def run_active(env, estimator, T: int, checkpoints: Optional[Sequence[int]] = None,
               stream_seed: Optional[int] = None):
    """Query the most uncertain pair each round; play the averaged-parameter greedy policy.

    Returns (policy, record); for sequences of environments and estimators, a
    list of them, one per seed. The scan keeps a memo per run, which is exact
    as long as ``inv_norm_matrix()`` never grows between rounds: every
    estimator here only adds curvature.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    envs, estimators, single = _seeds(env, estimator)
    streams = _streams(envs, stream_seed)

    def policy(est, e) -> Policy:
        return greedy_policy(est.averaged_theta(), e)

    if _lockstep(estimators):
        draws = _Draws(streams, 1)  # the label
        pair_diffs = np.stack([e.pair_diffs() for e in envs])
        pairs = np.array(envs[0].action_pairs())
        # Environment.reward takes one dot product per (x, a); the stacked row
        # dots give the same bits for the whole table at once
        reward_of = np.vecdot(np.stack([e.features.phi for e in envs]),
                              np.stack([e.truth.theta_star for e in envs])[:, None, None, :])

        # one scan memo per stack: seeds only ever leave it, so their count names it
        memos = {}

        def choose_live(stack, live, rows, i):
            x, a, b = select_most_uncertain(pair_diffs[rows], stack.inv_norm_matrix(), pairs,
                                            memos.setdefault(len(live), {}))
            y = bt_sample(reward_of[live, x, a], reward_of[live, x, b], draws(rows, i)[:, 0])
            return x, a, b, y, stack.radius()

        out = _run_lockstep("active", envs, estimators, T, choose_live, policy, checkpoints)
    else:
        def one(e, est, rng):
            pair_diffs, pairs, memo = e.pair_diffs(), e.action_pairs(), {}

            def choose():
                x, a, b = select_most_uncertain(pair_diffs, est.inv_norm_matrix(), pairs, memo)
                return x, a, b, bt_sample(e.reward(x, a), e.reward(x, b), rng), est.radius()

            return _run_loop("active", e, est, T, choose, policy, checkpoints)

        out = [one(*args) for args in zip(envs, estimators, streams)]
    for (final, rec), est, e in zip(out, estimators, envs):
        if final is not None:
            rec.summary["subopt_last_iterate"] = subopt(greedy_policy(est.theta_, e), e)
    return out[0] if single else out


def run_deploy(env, estimator, T: int, explore_coeff: float = 1.0,
               stream_seed: Optional[int] = None):
    """Serve arriving contexts with a greedy + exploratory pair, accumulating dueling regret.

    Returns the record; for sequences of environments and estimators, a list
    of them, one per seed.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    envs, estimators, single = _seeds(env, estimator)
    streams = _streams(envs, stream_seed)
    regret = [0.0] * len(envs)
    if _lockstep(estimators):
        draws = _Draws(streams, 2)  # the context, then the label
        phi = np.stack([e.features.phi for e in envs])
        rewards = np.stack([e.rewards() for e in envs])
        star = rewards.argmax(axis=2)
        cum_rho = np.stack([np.cumsum(e.rho) for e in envs])
        last_context = cum_rho.shape[1] - 1
        cum = np.zeros(len(envs))

        def choose_live(stack, live, rows, i):
            u = draws(rows, i)
            # the inverse-CDF lookup of Environment.draw_context, for every live seed
            x = np.minimum((cum_rho[rows] <= u[:, :1]).sum(axis=1), last_context)
            beta = stack.radius()
            a, b = select_deploy_actions(stack.theta_, stack.inv_norm_matrix(), beta,
                                         phi[live, x], explore_coeff)
            return x, a, b, bt_sample(rewards[live, x, a], rewards[live, x, b], u[:, 1]), beta

        def on_step_live(rec: _Recorder, live, rows, i: int, x, a, b) -> None:
            cum[rows] += (rewards[live, x, star[live, x]]
                          - 0.5 * (rewards[live, x, a] + rewards[live, x, b]))
            rec.cum_regret[rows, i] = cum[rows]

        out = _run_lockstep("deploy", envs, estimators, T, choose_live, checkpoints=(),
                            on_step=on_step_live)
        regret = cum.tolist()
    else:
        def one(s, e, est, rng):
            phi = e.features.phi
            rewards = e.rewards()
            star = np.argmax(rewards, axis=1).tolist()
            reward_of = rewards.tolist()

            def choose():
                x = e.draw_context(rng)
                beta = est.radius()
                a, b = select_deploy_actions(est.theta_, est.inv_norm_matrix(), beta,
                                             phi[x], explore_coeff)
                r_x = reward_of[x]
                return x, a, b, bt_sample(r_x[a], r_x[b], rng), beta

            def on_step(rec: _Recorder, i: int, x: int, a: int, b: int) -> None:
                r_x = reward_of[x]
                regret[s] += r_x[star[x]] - 0.5 * (r_x[a] + r_x[b])
                rec.cum_regret[0, i] = regret[s]

            return _run_loop("deploy", e, est, T, choose, checkpoints=(), on_step=on_step)

        out = [one(s, *args) for s, args in enumerate(zip(envs, estimators, streams))]
    records = [rec for _, rec in out]
    for rec, total in zip(records, regret):
        rec.summary["cum_regret"] = float(total)
    return records[0] if single else records
