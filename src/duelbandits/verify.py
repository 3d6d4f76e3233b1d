"""Built-in invariant suite: every module's documented properties, at desk scale.

Each check is a callable returning (ok, detail). ``run_verify`` executes all of
them with a fixed seed and reports one line per check; the CLI maps any failure
to a nonzero exit. Statistical checks use the same sizes the properties are
stated at; seeds of an omd estimator step in lockstep, so a full pass takes
seconds. These checks are the one copy of each invariant: the test suite runs
them all but the wall-clock ``baseline-time-scaling`` (tests/test_verify.py).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from .baselines import (ImplicitOmdRewardEstimator, MleRewardEstimator, _logistic_objective,
                        _projected_newton)
from .config import parse_config
from .diagnostics import (
    coverage_check,
    elliptic_potential_check,
    norm_domination_check,
    timing_profile,
)
from .environment import make_environment
from .linalg import LocalNormMatrix, cg_solve, sherman_morrison
from .linkmath import bt_sample, kappa_bound, sigmoid_pair
from .onepass import OnePassRewardEstimator, project_localnorm_ball
from .runner import aggregate_summaries
from .scenarios import (
    RunRecord,
    pessimistic_policy,
    pessimistic_value,
    run_active,
    run_deploy,
    run_passive,
    select_most_uncertain,
)

CheckResult = Tuple[bool, str]


def _random_pd(rng: np.random.Generator, d: int, lo: float = 1.0, hi: float = 5.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, size=d)
    return q @ np.diag(eigs) @ q.T


def _passive_stream(rng: np.random.Generator, dim: int, n: int, scale: float = 2.0):
    """Random bounded (z, y) samples without an environment."""
    zs = rng.standard_normal((n, dim))
    zs *= (scale * rng.random((n, 1))) / np.linalg.norm(zs, axis=1, keepdims=True)
    theta = rng.standard_normal(dim)
    theta /= 2 * np.linalg.norm(theta)
    ys = np.empty(n, dtype=int)
    for i in range(n):
        ys[i] = bt_sample(float(zs[i] @ theta), 0.0, rng)
    return zs, ys


# --------------------------------------------------------------------------
# core math


def check_sigmoid_symmetry(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for w in rng.uniform(-30, 30, size=10_000):
        s_pos, ds_pos = sigmoid_pair(w)
        s_neg, ds_neg = sigmoid_pair(-w)
        worst = max(worst, abs(s_pos + s_neg - 1.0), abs(ds_pos - ds_neg))
    return worst <= 1e-12, f"max symmetry defect {worst:.2e}"


def check_sherman_morrison_agreement(seed: int, sm_fn: Callable = sherman_morrison,
                                     updates: int = 1000, dim: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    mat = np.eye(dim)
    inv = np.eye(dim)
    for _ in range(updates):
        z = rng.standard_normal(dim)
        w = float(rng.random())
        mat += w * np.outer(z, z)
        inv = sm_fn(inv, z, w)
    direct = np.linalg.inv(mat)
    rel = float(np.linalg.norm(inv - direct) / np.linalg.norm(direct))
    return rel <= 1e-8, f"relative Frobenius drift {rel:.2e} after {updates} updates"


def check_cg_exactness(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 21))
        A = _random_pd(rng, d, 0.5, 5.0)
        b = rng.standard_normal(d)
        v, _ = cg_solve(lambda p: A @ p, b, max_iters=d, tol=0.0)
        ref = np.linalg.solve(A, b)
        worst = max(worst, float(np.linalg.norm(v - ref) / np.linalg.norm(ref)))
    return worst <= 1e-6, f"max relative CG error {worst:.2e}"


def check_bt_determinism(seed: int) -> CheckResult:
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        draws.append([bt_sample(0.3, 0.1, rng) for _ in range(1000)])
    return draws[0] == draws[1], "same seed reproduced 1000 draws"


# --------------------------------------------------------------------------
# one-pass estimator


def check_ball_invariant(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    est = OnePassRewardEstimator(dim=4, B=1.0, L=1.0, eta=2.0, lam=0.5).reset()
    zs, ys = _passive_stream(rng, 4, 2000)
    worst = 0.0
    for z, y in zip(zs, ys):
        est.update(z, int(y))
        worst = max(worst, float(np.linalg.norm(est.theta_)))
    return worst <= 1.0 + 1e-9, f"max iterate norm {worst:.12f}"


def check_inverse_drift(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    est = OnePassRewardEstimator(dim=20, B=1.0, L=1.0, eta=2.0, lam=1.0).reset()
    zs, ys = _passive_stream(rng, 20, 10_000)
    for z, y in zip(zs, ys):
        est.update(z, int(y))
    drift = est.hess_.inverse_drift()
    return drift <= 1e-8, f"inverse drift {drift:.2e} after 10000 steps"


def check_projection_kkt(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 12))
        M = _random_pd(rng, d, 0.3, 10.0)
        theta_prime = rng.standard_normal(d) * rng.uniform(1.5, 5.0)
        B = 1.0
        theta = project_localnorm_ball(theta_prime, M, B)
        if np.linalg.norm(theta_prime) <= B:
            continue
        resid_vec = M @ (theta - theta_prime)
        nu = -float(theta @ resid_vec) / float(theta @ theta)
        resid = float(np.linalg.norm(resid_vec + nu * theta))
        bound = 1e-6 * (1.0 + float(np.linalg.norm(theta_prime)) * float(np.linalg.norm(M)))
        worst = max(worst, resid / bound)
    return worst <= 1.0, f"worst KKT residual at {worst:.2e} of its allowance"


def check_derivatives_match_fd(seed: int) -> CheckResult:
    """The logistic objective MLE minimizes: gradient and Hessian against central differences.

    Over 1 to 8 rows; with one row the gradient is OMD's (sigma - y) z and the
    Hessian its sigma' z z^T.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    componentwise = True
    h = 1e-5
    for _ in range(50):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, 9))
        theta = rng.standard_normal(d) * 0.5
        Z = rng.standard_normal((n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        value, grad_hess = _logistic_objective(Z, y)
        grad, hess = grad_hess(theta)
        fd_grad = np.array([(value(theta + h * e) - value(theta - h * e)) / (2 * h)
                            for e in np.eye(d)])
        rel_g = np.linalg.norm(fd_grad - grad) / max(1e-12, np.linalg.norm(grad))
        componentwise = componentwise and bool(
            np.all(np.abs(fd_grad - grad) <= 1e-6 * np.maximum(1.0, np.abs(grad))))
        direction = rng.standard_normal(d)
        fd_hess_dir = (grad_hess(theta + h * direction)[0]
                       - grad_hess(theta - h * direction)[0]) / (2 * h)
        hess_dir = hess @ direction
        rel_h = np.linalg.norm(fd_hess_dir - hess_dir) / max(1e-8, np.linalg.norm(hess_dir))
        worst = max(worst, float(rel_g), float(rel_h))
    return worst <= 1e-6 and componentwise, f"max relative derivative mismatch {worst:.2e}"


def check_curvature_domination(seed: int) -> CheckResult:
    env = make_environment(5, 8, 4, seed=seed)
    est = OnePassRewardEstimator(dim=5)
    _, rec = run_passive(env, est, 2000, checkpoints=())
    audits = rec.summary["domination_audits"]
    floor_ok = float(np.linalg.eigvalsh(est.hess_.mat)[0]) >= est.lam_ - 1e-8
    min_eig = min(a["min_eig"] for a in audits)
    return (min_eig >= -1e-8 and floor_ok), (
        f"min domination eigenvalue {min_eig:.2e} over audits {[a['t'] for a in audits]}"
    )


def check_estimator_consistency(seed: int) -> CheckResult:
    # 20 consecutive seeds, whose omd estimators step in lockstep
    envs = [make_environment(5, 8, 4, seed=seed + i) for i in range(20)]
    runs = run_passive(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 8000, checkpoints=())
    errs_late = [rec.summary["final_est_err_l2"] for _, rec in runs]
    errs_early = [float(rec.est_err_l2[1000]) for _, rec in runs]
    early = float(np.median(errs_early))
    late = float(np.median(errs_late))
    return late < early, f"median error {early:.4f} at T=1000 vs {late:.4f} at T=8000"


def check_constant_state_size(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    est = OnePassRewardEstimator(dim=6).reset()
    zs, ys = _passive_stream(rng, 6, 2000)

    def state_size() -> int:
        total = 0
        for value in vars(est).values():
            if isinstance(value, np.ndarray):
                total += value.size
            elif isinstance(value, LocalNormMatrix):
                total += value.mat.size + value.inv.size
            elif isinstance(value, (list, tuple, dict, bytes, str)):
                total += len(value)
        return total

    for z, y in zip(zs[:100], ys[:100]):
        est.update(z, int(y))
    size_100 = state_size()
    for z, y in zip(zs[100:], ys[100:]):
        est.update(z, int(y))
    size_2000 = state_size()
    return size_100 == size_2000, f"state size {size_100} at t=100 vs {size_2000} at t=2000"


# --------------------------------------------------------------------------
# baselines


def check_mle_order_invariance(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    est = MleRewardEstimator(dim=3, B=1.0, fit_tol=1e-8)
    est.reset()
    zs, ys = _passive_stream(rng, 3, 60)
    for z, y in zip(zs, ys):
        est.update(z, int(y))
    # refit the rows from theta = 0, in their order and in another, through the solver refit uses
    fits = [_projected_newton(_logistic_objective(zs[rows], ys[rows]), np.zeros(3), est.B,
                              est.fit_tol, est.max_newton_iters, Counter())[0]
            for rows in (np.arange(len(zs)), rng.permutation(len(zs)))]
    gap = max(float(np.linalg.norm(a - b))
              for a, b in ((fits[0], fits[1]), (fits[0], est.theta_), (fits[1], est.theta_)))
    return gap <= 10 * est.fit_tol, f"cold refits in two row orders and theta differ by {gap:.2e}"


def check_mle_1d_oracle(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(6, 30))
        zs = rng.uniform(0.5, 1.5, size=(n, 1))
        ys = rng.integers(0, 2, size=n)
        if ys.min() == ys.max():
            ys[0] = 1 - ys[0]
        est = MleRewardEstimator(dim=1, B=5.0, fit_tol=1e-10, max_newton_iters=200)
        est.reset()
        for z, y in zip(zs, ys):
            est.update(z, int(y))
        grid = np.linspace(-5, 5, 2001)
        losses = [
            float(np.sum(np.logaddexp(0, -zs[:, 0] * g) * ys
                         + np.logaddexp(0, zs[:, 0] * g) * (1 - ys)))
            for g in grid
        ]
        lo, hi = grid[max(0, int(np.argmin(losses)) - 1)], grid[min(2000, int(np.argmin(losses)) + 1)]
        for _ in range(80):  # bisect on the derivative
            mid = 0.5 * (lo + hi)
            dl = float(np.sum((1 / (1 + np.exp(-zs[:, 0] * mid)) - ys) * zs[:, 0]))
            if dl > 0:
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(float(est.theta_[0]) - 0.5 * (lo + hi)))
    return worst <= 1e-6, f"max |mle - oracle| {worst:.2e}"


def check_implicit_anchoring(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    est = ImplicitOmdRewardEstimator(dim=4, eta=1e-9, lam=1.0, inner_tol=1e-12)
    est.reset()
    est.theta_ = rng.standard_normal(4) * 0.3
    anchor = est.theta_.copy()
    z = rng.standard_normal(4)
    est.update(z, 1)
    moved = float(np.linalg.norm(est.theta_ - anchor))
    return moved <= 1e-6, f"iterate moved {moved:.2e} with eta -> 0"


def check_baseline_time_scaling(seed: int) -> CheckResult:
    env = make_environment(10, 8, 4, seed=seed)
    T = 2400
    _, rec_mle = run_passive(env, MleRewardEstimator(dim=10), T, checkpoints=())
    _, _, ratio_mle = timing_profile(rec_mle, (200, 400), (T - 200, T))
    _, rec_imp = run_passive(env, ImplicitOmdRewardEstimator(dim=10), T, checkpoints=())
    _, _, ratio_imp = timing_profile(rec_imp, (200, 400), (T - 200, T))
    ok = ratio_mle >= 2.0 and ratio_imp <= 2.0
    return ok, f"late/early time ratio: mle {ratio_mle:.2f} (wants growth), implicit {ratio_imp:.2f} (wants flat)"


# --------------------------------------------------------------------------
# scenarios


def check_regret_nondecreasing(seed: int) -> CheckResult:
    env = make_environment(5, 8, 4, seed=seed)
    rec = run_deploy(env, OnePassRewardEstimator(dim=5), 1500)
    diffs = np.diff(rec.cum_regret)
    min_diff = float(diffs.min()) if diffs.size else 0.0
    return min_diff >= -1e-12 and rec.cum_regret[0] >= -1e-12, f"min regret increment {min_diff:.2e}"


def check_z_norm_bound(seed: int) -> CheckResult:
    worst = 0.0
    env = make_environment(5, 8, 4, seed=seed)
    _, rec = run_passive(env, OnePassRewardEstimator(dim=5), 500, checkpoints=())
    worst = max(worst, float(np.linalg.norm(rec.z_rows(env), axis=1).max()))
    _, rec = run_active(env, OnePassRewardEstimator(dim=5), 500)
    worst = max(worst, float(np.linalg.norm(rec.z_rows(env), axis=1).max()))
    rec = run_deploy(env, OnePassRewardEstimator(dim=5), 500)
    if len(rec):
        worst = max(worst, float(np.linalg.norm(rec.z_rows(env), axis=1).max()))
    bound = 2 * env.truth.L
    return worst <= bound + 1e-9, f"max ||z|| {worst:.6f} vs bound {bound}"


def check_enumerate_beats_greedy(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        X = int(rng.integers(2, 4))
        A = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        env = make_environment(d, X, A, seed=int(rng.integers(2**31)))
        theta = rng.standard_normal(d)
        M = _random_pd(rng, d)
        beta = float(rng.uniform(0.1, 2.0))
        pol_enum = pessimistic_policy(theta, M, beta, env, "enumerate")
        pol_greedy = pessimistic_policy(theta, M, beta, env, "greedy_percontext")
        v_enum = pessimistic_value(pol_enum, theta, M, beta, env)
        v_greedy = pessimistic_value(pol_greedy, theta, M, beta, env)
        if v_enum < v_greedy - 1e-12:
            return False, f"enumerate value {v_enum} below greedy {v_greedy}"
    return True, "enumerate >= greedy value on 100 random instances"


def check_uncertainty_scan_consistency(seed: int) -> CheckResult:
    env = make_environment(6, 5, 4, seed=seed)
    est = OnePassRewardEstimator(dim=6, lam=2.0).reset()
    rng = np.random.default_rng(seed)
    for t in range(300):
        incremental = select_most_uncertain(env.pair_diffs(), est.inv_norm_matrix(),
                                            env.action_pairs())
        fresh = select_most_uncertain(env.pair_diffs(), np.linalg.inv(est.hess_.mat),
                                      env.action_pairs())
        if incremental != fresh:
            return False, f"selection diverged at step {t}: {incremental} vs {fresh}"
        x, a, b = incremental
        y = bt_sample(env.reward(x, a), env.reward(x, b), rng)
        est.update(env.z_of(x, a, b), y)
    return True, "incremental and freshly-inverted scans agreed for 300 steps"


# --------------------------------------------------------------------------
# diagnostics


def check_elliptic_incremental(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    d, n, lam = 10, 500, 1.0
    zs = rng.standard_normal((n, d))
    zs *= rng.random((n, 1)) / np.linalg.norm(zs, axis=1, keepdims=True)
    lhs, rhs, ok = elliptic_potential_check(zs, lam, 1.0)
    fresh = 0.0
    gram = lam * np.eye(d)
    for z in zs:
        fresh += float(z @ np.linalg.solve(gram, z))
        gram += np.outer(z, z)
    gap = abs(lhs - fresh)
    return ok and gap <= 1e-8, f"incremental vs fresh potential gap {gap:.2e}"


def check_coverage_monotone(seed: int) -> CheckResult:
    env = make_environment(5, 8, 4, seed=seed)
    _, rec = run_passive(env, OnePassRewardEstimator(dim=5), 300, checkpoints=())
    ok_base, first_base = coverage_check(rec)
    for scale in (1.0, 2.0, 5.0, 10.0, 50.0):
        ok_scaled, first = coverage_check(rec, beta=rec.beta * scale)
        # a wider radius can only remove violations: none new, none earlier
        if (ok_base and not ok_scaled) or (first is not None and first < first_base):
            return False, f"coverage lost when radius scaled by {scale}"
    return True, "coverage preserved under radius inflation"


def check_domination_zero_case(seed: int) -> CheckResult:
    lam = 1672.6
    kappa = kappa_bound(1.0, 1.0)
    H = lam * np.eye(5)
    V = kappa * lam * np.eye(5)
    val = norm_domination_check(H, V, kappa)
    return val == 0.0, f"definitional case returned {val!r}"


def check_timing_profile_oracle(seed: int) -> CheckResult:
    T = 10_000
    rec = RunRecord(
        scenario="synthetic", seed=0, T=T,
        t=np.arange(1, T + 1), wall_nanos=np.arange(1, T + 1, dtype=np.int64),
        est_err_l2=np.zeros(T), est_err_local=np.zeros(T), beta=np.zeros(T),
        cum_regret=np.zeros(T), subopt_checkpoint=np.zeros(T),
        x=np.zeros(T, int), a=np.zeros(T, int), a_prime=np.zeros(T, int),
        y=np.zeros(T, int), flags=[""] * T,
    )
    early, late, ratio = timing_profile(rec, (1000, 2000), (9000, 10000))
    want = 9500.0 / 1500.0
    ok = early == 1500.0 and late == 9500.0 and abs(ratio - want) <= 1e-12
    return ok, f"linear-growth ratio {ratio:.6f} (expected {want:.6f})"


# --------------------------------------------------------------------------
# harness


def check_config_roundtrip(seed: int) -> CheckResult:
    cfg = parse_config({"scenario": "deploy", "T": 100, "num_seeds": 3})
    echoed = parse_config(json.loads(cfg.echo_json()))
    return echoed == cfg, "parse(echo(config)) == config"


def check_aggregate_permutation_invariance(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    summaries = [
        {"seed": i, "aborted": None, "subopt": float(rng.random()),
         "final_est_err_l2": float(rng.random()), "update_ns_mean": float(rng.random())}
        for i in range(9)
    ]
    base = aggregate_summaries(summaries, "passive")
    shuffled = list(summaries)
    rng.shuffle(shuffled)
    other = aggregate_summaries(shuffled, "passive")
    return base == other, "aggregate invariant under seed order"


CHECKS: List[Tuple[str, Callable[[int], CheckResult]]] = [
    ("sigmoid-symmetry", check_sigmoid_symmetry),
    ("sherman-morrison-agreement", check_sherman_morrison_agreement),
    ("cg-exactness", check_cg_exactness),
    ("bt-sample-determinism", check_bt_determinism),
    ("onepass-ball-invariant", check_ball_invariant),
    ("onepass-inverse-drift", check_inverse_drift),
    ("projection-kkt-residual", check_projection_kkt),
    ("loss-derivative-finite-diff", check_derivatives_match_fd),
    ("curvature-domination", check_curvature_domination),
    ("onepass-consistency", check_estimator_consistency),
    ("onepass-constant-state", check_constant_state_size),
    ("mle-order-invariance", check_mle_order_invariance),
    ("mle-1d-oracle", check_mle_1d_oracle),
    ("implicit-anchoring", check_implicit_anchoring),
    ("baseline-time-scaling", check_baseline_time_scaling),
    ("deploy-regret-nondecreasing", check_regret_nondecreasing),
    ("z-norm-bound", check_z_norm_bound),
    ("enumerate-beats-greedy", check_enumerate_beats_greedy),
    ("uncertainty-scan-consistency", check_uncertainty_scan_consistency),
    ("elliptic-incremental-vs-fresh", check_elliptic_incremental),
    ("coverage-monotone-in-radius", check_coverage_monotone),
    ("domination-zero-case", check_domination_zero_case),
    ("timing-profile-oracle", check_timing_profile_oracle),
    ("config-echo-roundtrip", check_config_roundtrip),
    ("aggregate-permutation-invariance", check_aggregate_permutation_invariance),
]


def run_verify(seed: int = 0, names: Optional[List[str]] = None,
               stream=None) -> int:
    """Run the invariant suite; print one line per check; return failure count."""
    import sys

    unknown = sorted(set(names or ()) - {name for name, _ in CHECKS})
    if unknown:
        raise ValueError(f"unknown check names {unknown}")
    stream = stream or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure with the traceback's headline
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"[{status}] {name:<34} {detail}  ({elapsed:.2f}s)", file=stream)
    return failures
