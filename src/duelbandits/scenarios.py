"""The three online preference-learning loops and their metrics.

Passive: pairs arrive from the environment's behavior distribution; the final
policy maximizes a pessimism-penalized value. Active: the learner queries the
pair with the largest uncertainty norm and plays the averaged-parameter greedy
policy. Deployment: contexts arrive online, the learner plays a greedy action
plus an exploration-bonused partner and pays dueling regret against the
optimal action.
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
CSV_BLOCK_ROWS = 256
DOMINATION_AUDIT_POINTS = (100, 1000)


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


# one formatter per CSV_COLUMNS entry: integer ids, floats (NaN -> empty), flag text
_CSV_FORMATS = (str, str, _fmt, _fmt, _fmt, _fmt, _fmt, str, str, str, str, str)


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

    def write_csv(self, path) -> None:
        """One row per iteration.

        Columns become Python values a block of rows at a time: one ``tolist``
        per column and block, instead of a numpy scalar per cell, while the
        converted copy stays small.
        """
        arrays = [getattr(self, name) for name in CSV_COLUMNS[:-1]]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for lo in range(0, len(self.t), CSV_BLOCK_ROWS):
                block = slice(lo, lo + CSV_BLOCK_ROWS)
                columns = [arr[block].tolist() for arr in arrays]
                fh.writelines(
                    ",".join([fmt(v) for fmt, v in zip(_CSV_FORMATS, row)]) + "\n"
                    for row in zip(*columns, self.flags[block])
                )

    def z_rows(self, env: Environment) -> np.ndarray:
        """Reconstruct the played z sequence from the logged tuple ids."""
        phi = env.features.phi
        return phi[self.x, self.a] - phi[self.x, self.a_prime]


class _Recorder:
    def __init__(self, scenario: str, seed: int, T: int):
        self.scenario, self.seed, self.T = scenario, seed, T
        self.wall = np.zeros(T, dtype=np.int64)
        self.err_l2 = np.full(T, np.nan)
        self.err_local = np.full(T, np.nan)
        self.beta = np.full(T, np.nan)
        self.cum_regret = np.full(T, np.nan)
        self.subopt_ckpt = np.full(T, np.nan)
        self.x = np.zeros(T, dtype=np.int64)
        self.a = np.zeros(T, dtype=np.int64)
        self.a_prime = np.zeros(T, dtype=np.int64)
        self.y = np.zeros(T, dtype=np.int64)
        self.flags = [""] * T
        self.n = 0

    def finish(self, summary: dict) -> RunRecord:
        n = self.n
        return RunRecord(
            scenario=self.scenario, seed=self.seed, T=self.T,
            t=np.arange(1, n + 1, dtype=np.int64),
            wall_nanos=self.wall[:n],
            est_err_l2=self.err_l2[:n], est_err_local=self.err_local[:n],
            beta=self.beta[:n], cum_regret=self.cum_regret[:n],
            subopt_checkpoint=self.subopt_ckpt[:n],
            x=self.x[:n], a=self.a[:n], a_prime=self.a_prime[:n], y=self.y[:n],
            flags=self.flags[:n], summary=summary,
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
    """Row-wise z M z^T: one BLAS product, then a row dot."""
    return np.einsum("ij,ij->i", rows @ M, rows)


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


def select_most_uncertain(env: Environment, norm_inv: np.ndarray) -> Tuple[int, int, int]:
    """Exhaustive scan for the (x, a, a') tuple with the largest uncertainty norm.

    Unordered pairs a < a' only, since the norm is symmetric in the two actions;
    ties resolve to the lexicographically smallest tuple.
    """
    idx = int(np.argmax(_quad_forms(env.pair_diffs(), norm_inv)))
    pairs = env.action_pairs()
    x, rest = divmod(idx, len(pairs))
    a, b = pairs[rest]
    return x, a, b


def select_deploy_actions(theta: np.ndarray, norm_inv: np.ndarray, beta: float,
                          x: int, env: Environment,
                          explore_coeff: float = 1.0) -> Tuple[int, int]:
    """Greedy first action; second maximizes reward plus distance-to-first bonus.

    The second argmax ranges over every action including the first, so a zero
    bonus collapses to playing the greedy action twice.
    """
    phi_x = env.features.phi[x]
    scores = phi_x @ theta
    a = int(scores.argmax())
    bonus = explore_coeff * beta * _penalized_norms(phi_x - phi_x[a], norm_inv)
    a_prime = int((scores + bonus).argmax())
    return a, a_prime


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
    """Tracks V_t = kappa*lam*I + sum z z^T and spot-checks H >= V/kappa."""

    def __init__(self, estimator, env: Environment, T: int,
                 points: Sequence[int] = DOMINATION_AUDIT_POINTS):
        self.parts = _domination_parts(estimator)
        self.records: List[dict] = []
        if self.parts is None:
            self.points = frozenset()
            return
        self.kappa = kappa_bound(env.truth.B, env.truth.L)
        dim = env.features.dim
        self.v_sum = np.zeros((dim, dim))
        self.points = frozenset(p for p in (*points, T) if 1 <= p <= T)
        self.estimator = estimator
        self.lam = self.parts[1]
        self.dim = dim

    def step(self, z: np.ndarray, t: int) -> None:
        if self.parts is None:
            return
        self.v_sum += np.multiply(z[:, None], z)
        if t in self.points:
            from .diagnostics import norm_domination_check

            H = self.estimator.local_norm_matrix()
            V = self.kappa * self.lam * np.eye(self.dim) + self.v_sum
            self.records.append(
                {"t": t, "min_eig": norm_domination_check(H, V, self.kappa)}
            )


def _estimator_stats(estimator) -> dict:
    """End-of-run internals: projections fired, and the drift of a maintained inverse."""
    stats = {}
    if hasattr(estimator, "projections_"):
        stats["projections"] = estimator.projections_
    mat = estimator.local_norm_matrix()
    if mat is not None:
        stats["inverse_drift"] = inverse_drift(mat, estimator.inv_norm_matrix())
    return stats


def _base_summary(rec: _Recorder, estimator, theta_star, aborted: Optional[str]) -> dict:
    n = rec.n
    diff = estimator.theta_ - theta_star
    flag_counts: dict = {}
    for f in rec.flags[:n]:
        if f:
            flag_counts[f] = flag_counts.get(f, 0) + 1
    return {
        "scenario": rec.scenario,
        "seed": rec.seed,
        "T": rec.T,
        "estimator": type(estimator).__name__,
        "completed": n,
        "aborted": aborted,
        "final_est_err_l2": float(np.linalg.norm(diff)),
        "final_est_err_local": float(estimator.local_norm(diff)),
        "final_beta": float(estimator.radius()),
        "update_ns_total": int(rec.wall[:n].sum()),
        "update_ns_mean": float(rec.wall[:n].mean()) if n else 0.0,
        "flag_counts": flag_counts,
        "estimator_stats": _estimator_stats(estimator),
    }


def _run_loop(scenario: str, env: Environment, estimator, T: int,
              stream_seed: Optional[int], choose: Callable,
              policy: Optional[Callable[[], Policy]] = None,
              checkpoints: Optional[Sequence[int]] = None,
              on_step: Optional[Callable] = None) -> Tuple[Optional[Policy], RunRecord]:
    """The round structure all three scenarios share.

    Each round ``choose(rng)`` returns the played (x, a, a', y) and the radius
    its choice used. The estimate is captured before the timed update; a
    NumericFailure there flags the round ``update_failed`` and ends the run.
    After a successful update come ``on_step(rec, i, x, a, a')``, the step
    flag, the domination audit, and the suboptimality of ``policy()`` at the
    rounds in ``checkpoints`` (default: ``default_checkpoints(T)``). A run
    with a ``policy`` that no failure cut short ends by extracting it.
    """
    if getattr(estimator, "horizon", False) is None:
        estimator.horizon = max(T, 1)
    estimator.reset()
    rng = np.random.default_rng((env.rng_seed, 1) if stream_seed is None else stream_seed)
    ckpts = frozenset(default_checkpoints(T) if checkpoints is None else checkpoints)
    theta_star = env.truth.theta_star
    rec = _Recorder(scenario, env.rng_seed, T)
    audit = _DominationAudit(estimator, env, T)
    aborted = None
    for t in range(1, T + 1):
        i = t - 1
        x, a, b, yy, beta = choose(rng)
        z = env.z_of(x, a, b)
        diff = estimator.theta_ - theta_star
        rec.err_l2[i] = math.sqrt(float(diff @ diff))
        rec.err_local[i] = estimator.local_norm(diff)
        rec.beta[i] = beta
        rec.x[i], rec.a[i], rec.a_prime[i], rec.y[i] = x, a, b, yy
        try:
            start = time.perf_counter_ns()
            estimator.update(z, yy)
            rec.wall[i] = time.perf_counter_ns() - start
        except NumericFailure as exc:
            rec.flags[i] = "update_failed"
            rec.n = t
            aborted = str(exc)
            break
        if on_step is not None:
            on_step(rec, i, x, a, b)
        if not getattr(estimator, "last_converged_", True):
            rec.flags[i] = "inner_nonconverged"
        audit.step(z, t)
        rec.n = t
        if t in ckpts:
            rec.subopt_ckpt[i] = subopt(policy(), env)
    summary = _base_summary(rec, estimator, theta_star, aborted)
    summary["domination_audits"] = audit.records
    final = None
    if policy is not None and aborted is None:
        final = policy()
        summary["subopt"] = subopt(final, env)
        summary["policy"] = final.action_of.tolist()
    return final, rec.finish(summary)


def run_passive(env: Environment, estimator, T: int, policy_mode: str = "enumerate",
                checkpoints: Optional[Sequence[int]] = None,
                stream_seed: Optional[int] = None) -> Tuple[Optional[Policy], RunRecord]:
    """Observe behavior-distributed pairs for T rounds, then extract a pessimistic policy."""
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")

    def choose(rng):
        x, a, b = draw_passive_pair(env, rng)
        return x, a, b, bt_sample(env.reward(x, a), env.reward(x, b), rng), estimator.radius()

    def policy() -> Policy:
        return pessimistic_policy(estimator.theta_, estimator.inv_norm_matrix(),
                                  estimator.radius(), env, policy_mode)

    return _run_loop("passive", env, estimator, T, stream_seed, choose, policy, checkpoints)


def run_active(env: Environment, estimator, T: int,
               checkpoints: Optional[Sequence[int]] = None,
               stream_seed: Optional[int] = None) -> Tuple[Optional[Policy], RunRecord]:
    """Query the most uncertain pair each round; play the averaged-parameter greedy policy."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")

    def choose(rng):
        x, a, b = select_most_uncertain(env, estimator.inv_norm_matrix())
        return x, a, b, bt_sample(env.reward(x, a), env.reward(x, b), rng), estimator.radius()

    policy, rec = _run_loop("active", env, estimator, T, stream_seed, choose,
                            lambda: greedy_policy(estimator.averaged_theta(), env), checkpoints)
    if policy is not None:
        rec.summary["subopt_last_iterate"] = subopt(greedy_policy(estimator.theta_, env), env)
    return policy, rec


def run_deploy(env: Environment, estimator, T: int, explore_coeff: float = 1.0,
               stream_seed: Optional[int] = None) -> RunRecord:
    """Serve arriving contexts with a greedy + exploratory pair, accumulating dueling regret."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rewards = env.rewards()
    star = np.argmax(rewards, axis=1).tolist()
    reward_of = rewards.tolist()
    regret = 0.0

    def choose(rng):
        x = env.draw_context(rng)
        beta = estimator.radius()
        a, b = select_deploy_actions(estimator.theta_, estimator.inv_norm_matrix(),
                                     beta, x, env, explore_coeff)
        r_x = reward_of[x]
        return x, a, b, bt_sample(r_x[a], r_x[b], rng), beta

    def on_step(rec: _Recorder, i: int, x: int, a: int, b: int) -> None:
        nonlocal regret
        r_x = reward_of[x]
        regret += r_x[star[x]] - 0.5 * (r_x[a] + r_x[b])
        rec.cum_regret[i] = regret

    _, rec = _run_loop("deploy", env, estimator, T, stream_seed, choose,
                       checkpoints=(), on_step=on_step)
    rec.summary["cum_regret"] = regret
    return rec
