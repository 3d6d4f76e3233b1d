import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits.baselines import ImplicitOmdRewardEstimator
from duelbandits.diagnostics import (
    POTENTIAL_BLOCK,
    RunChecks,
    coverage_check,
    diagnostics_report,
    elliptic_potential_check,
    norm_domination_check,
    timing_profile,
)
from duelbandits.environment import make_environment
from duelbandits.exceptions import NumericFailure
from duelbandits.linkmath import kappa_bound, sigmoid_pair
from duelbandits.onepass import OnePassRewardEstimator
from duelbandits.scenarios import (CSV_BLOCK_ROWS, FileSink, MemorySink, RunRecord, run_deploy,
                                   run_passive)
from conftest import OracleEstimator, fail_seed_at


def synthetic_record(T, wall=None, err_local=None, beta=None):
    return RunRecord(
        scenario="synthetic", seed=0, T=T,
        t=np.arange(1, T + 1),
        wall_nanos=np.asarray(wall if wall is not None else np.zeros(T), dtype=np.int64),
        est_err_l2=np.zeros(T),
        est_err_local=np.asarray(err_local if err_local is not None else np.zeros(T), dtype=float),
        beta=np.asarray(beta if beta is not None else np.zeros(T), dtype=float),
        cum_regret=np.full(T, np.nan), subopt_checkpoint=np.full(T, np.nan),
        x=np.zeros(T, int), a=np.zeros(T, int), a_prime=np.zeros(T, int),
        y=np.zeros(T, int), flags=[""] * T,
    )


class TestCoverage:
    def test_oracle_run_is_covered(self, default_env):
        oracle = OracleEstimator(default_env.truth.theta_star)
        rec = run_deploy(default_env, oracle, 20)
        ok, first = coverage_check(rec)
        assert ok and first is None

    def test_zero_radius_violates_at_first_step(self):
        rec = synthetic_record(5, err_local=np.ones(5), beta=np.zeros(5))
        ok, first = coverage_check(rec)
        assert not ok and first == 1

    def test_violation_index_reported(self):
        err = np.array([0.0, 0.0, 2.0, 0.0])
        rec = synthetic_record(4, err_local=err, beta=np.ones(4))
        ok, first = coverage_check(rec)
        assert not ok and first == 3

    def test_radius_override_length_checked(self):
        rec = synthetic_record(4)
        with pytest.raises(ValueError):
            coverage_check(rec, beta=np.ones(3))


class TestEllipticPotential:
    def test_empty_sequence(self):
        lhs, rhs, ok = elliptic_potential_check(np.empty((0, 3)), 1.0, 1.0)
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    def test_single_unit_vector_worked_example(self):
        zs = np.array([[1.0, 0.0]])
        lhs, rhs, ok = elliptic_potential_check(zs, 1.0, 1.0)
        assert abs(lhs - 1.0) < 1e-15
        assert abs(rhs - 4.0 * np.log(1.5)) < 1e-12
        assert abs(rhs - 1.6219) < 1e-4
        assert ok

    def test_many_random_unit_vectors_stay_bounded(self):
        rng = np.random.default_rng(0)
        zs = rng.standard_normal((10_000, 5))
        zs /= np.linalg.norm(zs, axis=1, keepdims=True)
        lhs, rhs, ok = elliptic_potential_check(zs, 1.0, 1.0)
        assert ok
        assert 0 < lhs <= rhs + 1e-9

    def test_long_row_term_clipped_at_one(self):
        """The lemma bounds sum min(1, ||z||^2): z = [2, 0] at lambda = 1 adds 1, not 4."""
        lhs, rhs, ok = elliptic_potential_check(np.array([[2.0, 0.0]]), 1.0, 2.0)
        assert lhs == 1.0
        assert abs(rhs - 4.0 * np.log(3.0)) < 1e-12
        assert ok

    @pytest.mark.parametrize("S", [1, 2, 20])
    @pytest.mark.parametrize("d", [1, 5, 20, 100])
    def test_blocked_terms_equal_fresh_solves(self, S, d):
        """The sub-block Cholesky terms against one fresh solve of V_s per row, clipped."""
        rng = np.random.default_rng(S * 1000 + d)
        n = 2 * POTENTIAL_BLOCK + 13
        zs = rng.standard_normal((S, n, d))
        zs *= 2.0 * rng.random((S, n, 1)) / np.linalg.norm(zs, axis=-1, keepdims=True)
        lhs, _, _ = elliptic_potential_check(zs, 1.0, 2.0)
        for s in range(S):
            V, fresh = np.eye(d), 0.0
            for z in zs[s]:
                fresh += min(1.0, z @ np.linalg.solve(V, z))
                V += np.outer(z, z)
            assert abs(np.atleast_1d(lhs)[s] - fresh) <= 1e-12 * fresh

    def test_norm_bound_enforced(self):
        with pytest.raises(ValueError):
            elliptic_potential_check(np.array([[2.0, 0.0]]), 1.0, 1.0)

    def test_nan_row_raises(self):
        """A NaN row fails loudly; a Cholesky of its sub-block would return NaN without raising."""
        zs = np.full((2, POTENTIAL_BLOCK + 5, 3), 0.1)
        zs[1, 3, 2] = np.nan
        with pytest.raises(NumericFailure, match="not finite"):
            elliptic_potential_check(zs, 1.0, 1.0)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            elliptic_potential_check(np.array([[1.0]]), 0.0, 1.0)


BLOCK = 128  # rows per block fed to the replay


class TestStreamedReplay:
    @settings(max_examples=30, deadline=None)
    @given(S=st.sampled_from([1, 2, 7, 20]), d=st.integers(1, 24),
           n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
           feed=st.sampled_from([1, POTENTIAL_BLOCK - 1, 45, BLOCK]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_replay_the_one_array_bits(self, S, d, n, feed, seed):
        """The sink's block-fed replay gives the (S, n, d) replay's lhs to the bit.

        Feeds of 1, 31 and 45 rows end inside a sub-block, so rows carry over.
        """
        rng = np.random.default_rng(seed)
        envs = [make_environment(d, 6, 3, seed=seed + k) for k in range(S)]
        sink = MemorySink("synthetic", envs, n, False, None)
        # the ids in the sink's narrow columns, put as one block of n rounds
        sink.x[:] = rng.integers(0, 6, (S, n))
        sink.a[:], sink.a_prime[:] = rng.integers(0, 3, (2, S, n))
        sink.wall_nanos[:] = 1
        sink.put(n)
        zs = np.stack([sink.record(s).z_rows(env) for s, env in enumerate(envs)])
        L = 2 * envs[0].truth.L
        lhs, rhs, _ = elliptic_potential_check(zs, 1.0, L)
        want = np.atleast_1d(lhs).tolist()
        replay = {}
        for lo in range(0, n, feed):
            fed = elliptic_potential_check(zs[:, lo:lo + feed], 1.0, L, replay)[0]
        assert np.atleast_1d(fed).tolist() == want
        reports = [diagnostics_report(sink.checks, s, n, None) for s in range(S)]
        assert [r["potential_lhs"] for r in reports] == want
        assert all(r["potential_rhs"] == rhs for r in reports)

    @pytest.mark.parametrize("bad", [0, BLOCK - 1, BLOCK, 2 * BLOCK + 2])
    def test_long_row_raises_from_its_block(self, bad):
        rng = np.random.default_rng(3)
        n = 2 * BLOCK + 3
        zs = rng.standard_normal((2, n, 4))
        zs /= 2.0 * np.linalg.norm(zs, axis=-1, keepdims=True)
        zs[1, bad] *= 5.0  # norm 2.5 against L = 2
        replay, served = {}, []
        with pytest.raises(ValueError, match="norm bound"):
            for lo in range(0, n, BLOCK):
                served.append(lo)
                elliptic_potential_check(zs[:, lo:lo + BLOCK], 1.0, 2.0, replay)
        assert served[-1] == bad - bad % BLOCK

    def test_report_holds_one_block_of_rows(self, monkeypatch):
        """20 seeds x 2000 rounds in memory: no feed of the report takes more than one block."""
        fed = []
        feed = RunChecks.feed

        def spy(self, t, x, *columns):
            fed.append((len(x), len(t)))
            feed(self, t, x, *columns)

        monkeypatch.setattr(RunChecks, "feed", spy)
        envs = [make_environment(5, 8, 4, seed=s) for s in range(20)]
        run_deploy(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 2000)
        assert max(rounds for _, rounds in fed) <= CSV_BLOCK_ROWS
        assert sum(rounds for _, rounds in fed) == 2000
        assert {seeds for seeds, _ in fed} == {20}


class TestNormDomination:
    def test_scalar_single_sample_case(self):
        lam, z, theta = 1.0, 1.5, 0.4
        kappa = kappa_bound(1.0, 1.0)
        _, hw = sigmoid_pair(z * theta)
        H = np.array([[lam + hw * z * z]])
        V = np.array([[kappa * lam + z * z]])
        assert norm_domination_check(H, V, kappa) >= 0.0

    def test_huge_kappa_sentinel(self):
        H = np.diag([2.0, 3.0])
        V = np.eye(2)
        val = norm_domination_check(H, V, 1e300)
        assert abs(val - 2.0) < 1e-9

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            norm_domination_check(np.eye(2), np.eye(2), 0.0)


class TestDiagnosticsReport:
    def test_full_report_on_theory_radius_run(self, default_env):
        est = OnePassRewardEstimator(dim=5, radius_mode="theory")
        report = run_deploy(default_env, est, 150).summary["diagnostics"]
        assert report["coverage_ok"]
        assert report["first_violation"] is None
        assert 0 < report["potential_lhs"] <= report["potential_rhs"] + 1e-9
        assert report["domination_min_eig"] >= -1e-8
        assert report["timing_ratio"] > 0
        assert set(report) == {
            "coverage_ok", "first_violation", "potential_lhs", "potential_rhs",
            "domination_min_eig", "timing_early_ns", "timing_late_ns", "timing_ratio",
        }

    def test_long_feature_rows_stay_inside_the_lemma(self):
        """L = 2 rows reach ||z||^2 > 1 at lambda = 1; clipped, the sum stays under its ceiling."""
        env = make_environment(5, 8, 4, L=2.0, seed=1)
        report = run_deploy(env, OnePassRewardEstimator(dim=5, L=2.0), 50).summary["diagnostics"]
        assert report["potential_lhs"] <= report["potential_rhs"]

    def test_zero_early_window_reports_no_ratio(self, default_env):
        """A run whose early rounds read 0 ns reports a null timing ratio instead of raising."""

        class Untimed(MemorySink):
            def put(self, hi):
                self.wall_nanos[:] = 0
                return super().put(hi)

        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 40, sink=Untimed)
        report = rec.summary["diagnostics"]
        assert (report["timing_early_ns"], report["timing_late_ns"]) == (0.0, 0.0)
        assert report["timing_ratio"] is None
        assert json.loads(json.dumps(report, allow_nan=False))["timing_ratio"] is None

    def test_practical_radius_violation_reported_honestly(self, default_env):
        # the practical radius makes no coverage guarantee; at t=1 the local
        # error sqrt(lam)*||theta*|| dwarfs it, and the report must say so
        report = run_deploy(default_env, OnePassRewardEstimator(dim=5), 50).summary["diagnostics"]
        assert not report["coverage_ok"]
        assert report["first_violation"] == 1


class TestStreamedReport:
    def test_report_equals_the_record_references(self, monkeypatch):
        """Lone and lockstep reports: one stacked seed stops in block two, one has L = 2."""
        T, k = 2 * CSV_BLOCK_ROWS + 22, CSV_BLOCK_ROWS + 40
        bounds = (1.0, 1.0, 1.0, 2.0)  # a stack may mix feature bounds
        envs = [make_environment(5, 8, 4, L=L, seed=s) for s, L in enumerate(bounds)]
        fail_seed_at(monkeypatch, envs[2].rng_seed, k)  # the stack's seed 1
        lone = run_deploy(envs[0], OnePassRewardEstimator(dim=5, radius_mode="theory"), T)
        stack = run_deploy(envs[1:], [OnePassRewardEstimator(dim=5) for _ in envs[1:]], T)
        assert [len(rec) for rec in stack] == [T, k, T]
        reports = []
        for env, rec in zip(envs, [lone, *stack]):
            report = rec.summary["diagnostics"]
            reports.append(report)
            assert (report["coverage_ok"], report["first_violation"]) == coverage_check(rec)
            lhs, rhs, _ = elliptic_potential_check(rec.z_rows(env), 1.0, 2 * env.truth.L)
            assert (report["potential_lhs"], report["potential_rhs"]) == (lhs, rhs)
            n = len(rec)
            w = n // 10
            early, late, _ = timing_profile(rec, (1, w), (n - w + 1, n))
            assert (report["timing_early_ns"], report["timing_late_ns"]) == (early, late)
        assert {report["coverage_ok"] for report in reports} == {True, False}


def reference_audits(rec: RunRecord, env, fresh) -> list:
    """A run's domination audits, recomputed plainly from its record.

    ``fresh`` replays the record's (z, y) one update at a time, V is summed
    one row after another, and each of t = 100, 1000 and T that the run's
    updates reached gets norm_domination_check(H, V, kappa).
    """
    kappa = kappa_bound(env.truth.B, env.truth.L)
    done = len(rec) - (rec.flags[-1:] == ["update_failed"])  # a failed update is no round
    points = {p for p in (100, 1000, rec.T) if p <= done}
    v, audits = np.zeros((env.features.dim,) * 2), []
    for t, (z, y) in enumerate(zip(rec.z_rows(env)[:done], rec.y[:done].tolist()), 1):
        fresh.update(z, y)
        v += np.outer(z, z)
        if t in points:
            V = kappa * fresh.lam_ * np.eye(len(v)) + v
            audits.append({"t": t, "min_eig": norm_domination_check(
                fresh.local_norm_matrix(), V, kappa)})
    return audits


def csv_rounds(path, rec: RunRecord) -> RunRecord:
    """A file sink's record with its summary, and the ids and flags read back from its CSV."""
    header, *rows = Path(path).read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
    ids = {name: np.array(cells[name], dtype=np.int64) for name in ("x", "a", "a_prime", "y")}
    return RunRecord(rec.scenario, rec.seed, rec.T, flags=list(cells["flags"]),
                     summary=rec.summary, **ids)


class TestDominationAudit:
    @pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
    def test_audits_equal_the_plain_reference(self, monkeypatch, tmp_path, on_file):
        """Lone implicit, an omd stack with points inside blocks, and a seed that stops early."""
        envs = [make_environment(5, 8, 4, seed=s) for s in range(5)]
        sink = (functools.partial(FileSink, str(tmp_path / "seed{}.csv")) if on_file
                else MemorySink)
        fail_seed_at(monkeypatch, envs[4].rng_seed, 700)
        implicit = functools.partial(ImplicitOmdRewardEstimator, dim=5)
        omd = functools.partial(OnePassRewardEstimator, dim=5)
        runs = [(envs[0], run_passive(envs[0], implicit(), 300, sink=sink)[1], implicit),
                *zip(envs[1:4], run_deploy(envs[1:4], [omd() for _ in range(3)], 1100,
                                           sink=sink), [omd] * 3),
                (envs[4], run_deploy(envs[4], omd(), 1100, sink=sink), omd)]
        seen = []
        for env, rec, make in runs:
            if on_file:
                rec = csv_rounds(tmp_path / f"seed{env.rng_seed}.csv", rec)
            audits = rec.summary["domination_audits"]
            seen.append([a["t"] for a in audits])
            assert audits == reference_audits(rec, env, make().reset())
            assert rec.summary["diagnostics"]["domination_min_eig"] == min(
                a["min_eig"] for a in audits)
        assert seen == [[100, 300]] + [[100, 1000, 1100]] * 3 + [[100]]


class TestTimingProfile:
    def test_constant_timings_ratio_one(self):
        rec = synthetic_record(100, wall=np.full(100, 250))
        early, late, ratio = timing_profile(rec, (1, 50), (51, 100))
        assert (early, late, ratio) == (250.0, 250.0, 1.0)

    def test_single_element_windows(self):
        rec = synthetic_record(10, wall=np.arange(1, 11))
        early, late, ratio = timing_profile(rec, (3, 3), (7, 7))
        assert early == 3.0 and late == 7.0

    def test_empty_window_rejected(self):
        rec = synthetic_record(10, wall=np.arange(1, 11))
        with pytest.raises(ValueError):
            timing_profile(rec, (11, 20), (1, 5))
