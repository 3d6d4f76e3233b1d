"""Acceptance suite: every top-level claim, one test per criterion.

Run batches are produced once per session and shared: the lemma-level
diagnostics (criterion 7) audit the same runs that back the statistical
criteria (1-5). Each test prints one PASS/FAIL line with the measured values
(visible under pytest -s; the test outcome itself mirrors the line).
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import duelbandits as db
from duelbandits.config import parse_config, resolve_seeds
from duelbandits.diagnostics import (
    coverage_check,
    elliptic_potential_check,
    timing_profile,
)
from duelbandits.runner import run_experiment

SEEDS_20 = resolve_seeds(0, 20)
SEEDS_200 = resolve_seeds(0, 200)

DEFAULT_ENV = dict(dim=5, num_contexts=8, num_actions=4, B=1.0, L=1.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# shared run batches; the omd batches run their seeds in lockstep, which gives
# every seed the record its solo run would give


@pytest.fixture(scope="session")
def coverage_runs():
    def build():
        envs = [db.make_environment(seed=seed, **DEFAULT_ENV) for seed in SEEDS_200]
        ests = [db.OnePassRewardEstimator(dim=5, radius_mode="theory", delta=0.1)
                for _ in envs]
        return list(zip(envs, db.run_deploy(envs, ests, 2000)))

    runs, elapsed = _timed(build)
    return runs, elapsed


@pytest.fixture(scope="session")
def timing_runs():
    def build():
        out = {}
        for kind, est in (("omd", db.OnePassRewardEstimator(dim=20)),
                          ("mle", db.MleRewardEstimator(dim=20))):
            env = db.make_environment(20, 8, 4, seed=SEEDS_200[0])
            _, rec = db.run_passive(env, est, 10_000, checkpoints=())
            out[kind] = (env, rec)
        return out

    runs, elapsed = _timed(build)
    return runs, elapsed


@pytest.fixture(scope="session")
def active_runs():
    def build():
        envs = [db.make_environment(seed=seed, **DEFAULT_ENV) for seed in SEEDS_20]
        ests = [db.OnePassRewardEstimator(dim=5) for _ in envs]
        runs = db.run_active(envs, ests, 4000, checkpoints=(1000, 4000))
        return [(env, rec) for env, (_, rec) in zip(envs, runs)]

    runs, elapsed = _timed(build)
    return runs, elapsed


@pytest.fixture(scope="session")
def deploy_runs():
    def build():
        out = {"omd": [], "mle": []}
        envs = [db.make_environment(seed=seed, **DEFAULT_ENV) for seed in SEEDS_20]
        ests = [db.OnePassRewardEstimator(dim=5) for _ in envs]
        out["omd"] = list(zip(envs, db.run_deploy(envs, ests, 4000, explore_coeff=1.0)))
        for seed in SEEDS_20:
            env = db.make_environment(seed=seed, **DEFAULT_ENV)
            out["mle"].append((env, db.run_deploy(env, db.MleRewardEstimator(dim=5),
                                                  4000, explore_coeff=1.0)))
        return out

    runs, elapsed = _timed(build)
    return runs, elapsed


@pytest.fixture(scope="session")
def passive_runs():
    def build():
        envs = [db.make_environment(seed=seed, coverage_skew=0.0, **DEFAULT_ENV)
                for seed in SEEDS_20]
        ests = [db.OnePassRewardEstimator(dim=5) for _ in envs]
        runs = db.run_passive(envs, ests, 4000, checkpoints=(500, 4000))
        return [(env, rec) for env, (_, rec) in zip(envs, runs)]

    runs, elapsed = _timed(build)
    return runs, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_confidence_coverage(coverage_runs):
    runs, elapsed = coverage_runs
    covered = sum(coverage_check(rec)[0] for _, rec in runs)
    ok = covered >= 0.9 * len(runs) and elapsed < 300
    _report("criterion 1 (confidence coverage)", ok,
            f"theory-radius coverage on {covered}/{len(runs)} deploy seeds "
            f"(need >=180), batch {elapsed:.0f}s (budget 300s)")
    assert covered >= 180
    assert elapsed < 300


def test_criterion_2_constant_time_updates(timing_runs):
    runs, elapsed = timing_runs
    windows = ((1000, 2000), (9000, 10000))
    omd_early, omd_late, omd_ratio = timing_profile(runs["omd"][1], *windows)
    mle_early, mle_late, mle_ratio = timing_profile(runs["mle"][1], *windows)
    ok = omd_ratio <= 1.5 and mle_ratio >= 4.0 and elapsed < 600
    _report("criterion 2 (constant-time updates)", ok,
            f"late/early wall ratio omd {omd_ratio:.3f} (<=1.5; "
            f"{omd_early / 1e3:.0f} -> {omd_late / 1e3:.0f} us), "
            f"mle {mle_ratio:.2f} (>=4; {mle_early / 1e3:.0f} -> {mle_late / 1e3:.0f} us), "
            f"batch {elapsed:.0f}s (budget 600s)")
    assert omd_ratio <= 1.5
    assert mle_ratio >= 4.0
    assert elapsed < 600


def test_criterion_3_active_suboptimality_decay(active_runs):
    runs, elapsed = active_runs
    at_1000 = float(np.median([rec.subopt_checkpoint[999] for _, rec in runs]))
    at_4000 = float(np.median([rec.subopt_checkpoint[3999] for _, rec in runs]))
    ok = at_4000 <= 0.7 * at_1000 and elapsed < 300
    _report("criterion 3 (active suboptimality decay)", ok,
            f"median SubOpt {at_1000:.4f} at T=1000 vs {at_4000:.4f} at T=4000 "
            f"(need <=0.7x), batch {elapsed:.0f}s (budget 300s)")
    assert at_4000 <= 0.7 * at_1000
    assert elapsed < 300


def test_criterion_4_deploy_regret_sublinear_and_parity(deploy_runs):
    runs, elapsed = deploy_runs
    omd_1000 = float(np.median([rec.cum_regret[999] for _, rec in runs["omd"]]))
    omd_4000 = float(np.median([rec.cum_regret[3999] for _, rec in runs["omd"]]))
    mle_4000 = float(np.median([rec.cum_regret[3999] for _, rec in runs["mle"]]))
    growth = omd_4000 / omd_1000
    parity = abs(omd_4000 - mle_4000) / mle_4000
    ok = growth <= 3.0 and parity <= 0.25 and elapsed < 600
    _report("criterion 4 (sublinear regret + parity)", ok,
            f"median Reg_4000/Reg_1000 = {growth:.3f} (<=3); "
            f"omd {omd_4000:.1f} vs mle {mle_4000:.1f}, parity {parity:.3f} (<=0.25), "
            f"batch {elapsed:.0f}s (budget 600s)")
    assert growth <= 3.0
    assert parity <= 0.25
    assert elapsed < 600


def test_criterion_5_passive_pessimism(passive_runs):
    runs, elapsed = passive_runs
    at_500 = float(np.median([rec.subopt_checkpoint[499] for _, rec in runs]))
    at_4000 = float(np.median([rec.subopt_checkpoint[3999] for _, rec in runs]))
    ok = at_4000 < at_500 and elapsed < 300
    _report("criterion 5 (passive pessimism)", ok,
            f"median SubOpt {at_500:.4f} at T=500 vs {at_4000:.4f} at T=4000 "
            f"(need strict decrease), batch {elapsed:.0f}s (budget 300s)")
    assert at_4000 < at_500
    assert elapsed < 300


def test_criterion_6_oracle_equivalences():
    # the Sherman-Morrison chain, CG, projection KKT residuals and loss
    # derivatives are verify checks, which tests/test_verify.py runs
    details = []

    # (a) local-norm projection: worked example
    M = np.diag([4.0, 1.0])
    theta_prime = np.array([2.0, 2.0])
    out = db.project_localnorm_ball(theta_prime, M, 1.0)
    nu_star = brentq(lambda nu: math.hypot(8 / (4 + nu), 2 / (1 + nu)) - 1.0,
                     0.0, 100.0, xtol=1e-14)
    expected = np.array([8 / (4 + nu_star), 2 / (1 + nu_star)])
    proj_err = float(np.linalg.norm(out - expected))
    resid_vec = M @ (out - theta_prime)
    nu_rec = -float(out @ resid_vec) / float(out @ out)
    assert abs(nu_star - 4.5713232) < 1e-6
    assert proj_err <= 1e-6
    assert abs(nu_rec - nu_star) <= 1e-6
    details.append(f"nu* {nu_rec:.6f}")

    # (b) d=1 MLE closed forms
    est = db.MleRewardEstimator(dim=1, B=1.0, fit_tol=1e-10, max_newton_iters=200).reset()
    est.update(np.array([1.0]), 1)
    est.update(np.array([1.0]), 0)
    assert abs(est.theta_[0]) <= 1e-6
    est = db.MleRewardEstimator(dim=1, B=1.0, fit_tol=1e-10, max_newton_iters=200).reset()
    est.update(np.array([1.0]), 1)
    assert abs(est.theta_[0] - 1.0) <= 1e-6
    est = db.MleRewardEstimator(dim=1, B=2.0, fit_tol=1e-12, max_newton_iters=200).reset()
    for y in (1, 1, 1, 0):
        est.update(np.array([1.0]), y)
    assert abs(est.theta_[0] - math.log(3.0)) <= 1e-6
    details.append("MLE closed forms {0, B, log3} ok")

    # (c) d=1 implicit proximal root
    est = db.ImplicitOmdRewardEstimator(dim=1, B=1.0, eta=1.0, lam=1.0,
                                        inner_tol=1e-12, max_inner_iters=200).reset()
    est.update(np.array([1.0]), 1)
    root = brentq(lambda th: th - 1.0 + 1.0 / (1.0 + math.exp(-th)), 0.0, 1.0, xtol=1e-15)
    imp_err = abs(est.theta_[0] - root)
    details.append(f"implicit root err {imp_err:.1e}")
    assert imp_err <= 1e-6

    _report("criterion 6 (oracle equivalences)", True, "; ".join(details))


def test_criterion_7_lemma_level_diagnostics(coverage_runs, timing_runs, active_runs,
                                             deploy_runs, passive_runs):
    batches = []
    runs, _ = coverage_runs
    batches.append(("coverage", runs))
    truns, _ = timing_runs
    batches.append(("timing", list(truns.values())))
    aruns, _ = active_runs
    batches.append(("active", aruns))
    druns, _ = deploy_runs
    batches.append(("deploy", druns["omd"] + druns["mle"]))
    pruns, _ = passive_runs
    batches.append(("passive", pruns))

    elliptic_fail = 0
    domination_min = float("inf")
    audited = total = 0
    for name, runs in batches:
        for env, rec in runs:
            total += 1
            _, _, ok = elliptic_potential_check(rec.z_rows(env), 1.0, 2 * env.truth.L)
            elliptic_fail += not ok
            audits = rec.summary.get("domination_audits", [])
            if audits:
                audited += 1
                assert {a["t"] for a in audits} >= ({100, 1000} & set(range(1, rec.T + 1)))
                domination_min = min(domination_min, min(a["min_eig"] for a in audits))
    ok = elliptic_fail == 0 and domination_min >= -1e-8
    _report("criterion 7 (lemma-level diagnostics)", ok,
            f"elliptic potential ok on {total - elliptic_fail}/{total} runs; "
            f"min domination eigenvalue {domination_min:.2e} over {audited} audited runs")
    assert elliptic_fail == 0
    assert domination_min >= -1e-8


def test_criterion_8_hvpcg_fidelity():
    # first-step equivalence in d=1: horizon 1 pins the damping at lambda0
    exact = db.OnePassRewardEstimator(dim=1, B=1.0, L=1.0, eta=2.0, lam=1.0).reset()
    exact.update(np.array([1.0]), 1)
    fast = db.HvpCgRewardEstimator(dim=1, B=1.0, L=1.0, eta=2.0, lambda0=1.0,
                                   damping="linear", horizon=1).reset()
    fast.update(np.array([1.0]), 1)
    first_step_gap = abs(fast.theta_[0] - exact.theta_[0])
    assert first_step_gap <= 1e-15

    def build():
        errs = {"hvpcg": [], "omd": []}
        for seed in SEEDS_20:
            env = db.make_environment(10, 8, 4, seed=seed)
            est = db.HvpCgRewardEstimator(dim=10, lambda0=0.8, damping="linear",
                                          horizon=2000)
            _, rec = db.run_passive(env, est, 2000, checkpoints=())
            errs["hvpcg"].append(rec.summary["final_est_err_l2"])
            env = db.make_environment(10, 8, 4, seed=seed)
            _, rec = db.run_passive(env, db.OnePassRewardEstimator(dim=10), 2000,
                                    checkpoints=())
            errs["omd"].append(rec.summary["final_est_err_l2"])
        return errs

    errs, elapsed = _timed(build)
    med_h = float(np.median(errs["hvpcg"]))
    med_o = float(np.median(errs["omd"]))
    ok = med_h <= 2 * med_o and elapsed < 180
    _report("criterion 8 (HVP-CG fidelity)", ok,
            f"first-step gap {first_step_gap:.1e}; median final error "
            f"{med_h:.4f} vs exact {med_o:.4f} (need <=2x), batch {elapsed:.0f}s (budget 180s)")
    assert med_h <= 2 * med_o
    assert elapsed < 180


def test_criterion_9_full_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        cfg = parse_config({"scenario": "deploy", "estimator": "omd", "T": 200,
                            "num_seeds": 3, "output_dir": str(tmp_path / name)})
        run_experiment(cfg)
        outs.append(tmp_path / name)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert len(csvs) == 3
    mismatches = 0
    for name in csvs:
        a_lines = (outs[0] / name).read_text().splitlines()
        b_lines = (outs[1] / name).read_text().splitlines()
        header = a_lines[0].split(",")
        wall = header.index("wall_nanos")
        for ra, rb in zip(a_lines, b_lines):
            ca, cb = ra.split(","), rb.split(",")
            del ca[wall], cb[wall]
            if ca != cb:
                mismatches += 1
    _report("criterion 9 (full determinism)", mismatches == 0,
            f"{len(csvs)} seed CSVs byte-identical in all metric columns "
            f"({mismatches} mismatching rows)")
    assert mismatches == 0
