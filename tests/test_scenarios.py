import dataclasses
import functools
import itertools
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits.environment import (
    BehaviorSpec,
    Environment,
    FeatureTable,
    GroundTruth,
    Policy,
    make_environment,
)
from duelbandits import linalg, onepass, scenarios
from duelbandits.baselines import ImplicitOmdRewardEstimator, MleRewardEstimator
from duelbandits.config import ESTIMATOR_CLASSES, resolve_seeds
from duelbandits.exceptions import NumericFailure
from duelbandits.linalg import LocalNormMatrix, sherman_morrison
from duelbandits.onepass import HvpCgRewardEstimator, OnePassRewardEstimator
from duelbandits.scenarios import (
    CSV_COLUMNS,
    FileSink,
    RunRecord,
    default_checkpoints,
    greedy_policy,
    pessimistic_policy,
    pessimistic_value,
    run_active,
    run_deploy,
    run_passive,
    select_deploy_actions,
    select_most_uncertain,
    subopt,
)
from conftest import OracleEstimator, csv_without_wall, fail_seed_at, one_table_policy


def manual_env(phi, theta_star, rho, B=None, L=None, seed=0):
    phi = np.asarray(phi, dtype=float)
    L = L if L is not None else float(np.linalg.norm(phi, axis=2).max())
    theta_star = np.asarray(theta_star, dtype=float)
    B = B if B is not None else float(np.linalg.norm(theta_star))
    return Environment(
        features=FeatureTable(phi=phi, L=L),
        truth=GroundTruth(theta_star=theta_star, B=max(B, 1e-9), L=L),
        rho=np.asarray(rho, dtype=float),
        behavior=BehaviorSpec(),
        rng_seed=seed,
    )


class Exploding(OnePassRewardEstimator):
    """Raises NumericFailure from its 21st update."""

    def update(self, z, y):
        if self.t_ == 21:
            raise NumericFailure("synthetic fault")
        super().update(z, y)


def assert_stopped_at_failed_update(rec):
    assert rec.summary["aborted"] == "synthetic fault"
    assert rec.summary["completed"] == 21
    assert len(rec) == 21 and rec.t[-1] == 21
    assert rec.flags[-1] == "update_failed"
    assert rec.wall_nanos[-1] == 0


def random_spd(rng, d):
    """A random symmetric positive-definite matrix with non-zero off-diagonals."""
    G = rng.standard_normal((d, d))
    return G @ G.T / d + 0.1 * np.eye(d)


class TestSubopt:
    def test_optimal_policy_has_zero_gap(self, default_env):
        assert subopt(default_env.optimal_policy(), default_env) == 0.0

    def test_single_context_worked_example(self):
        env = manual_env(
            phi=[[[1.0, 0.0], [0.25, 0.0]]],
            theta_star=[1.0, 0.0],
            rho=[1.0],
        )
        assert abs(subopt(Policy(np.array([1])), env) - 0.75) < 1e-15
        assert subopt(Policy(np.array([0])), env) == 0.0

    def test_nonnegative_over_random_policies(self, default_env):
        rng = np.random.default_rng(0)
        A = default_env.features.num_actions
        X = default_env.features.num_contexts
        for _ in range(50):
            pol = Policy(rng.integers(0, A, size=X))
            assert subopt(pol, default_env) >= 0.0


class TestPessimisticPolicy:
    def test_zero_beta_reduces_to_greedy(self, default_env):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(5)
        M = np.eye(5)
        expected = greedy_policy(theta, default_env)
        for mode in ("enumerate", "greedy_percontext"):
            assert pessimistic_policy(theta, M, 0.0, default_env, mode) == expected

    def test_single_context_modes_agree(self):
        rng = np.random.default_rng(2)
        env = make_environment(3, 1, 4, seed=3)
        theta = rng.standard_normal(3)
        M = np.diag(rng.uniform(0.5, 2.0, size=3))
        a = pessimistic_policy(theta, M, 1.3, env, "enumerate")
        b = pessimistic_policy(theta, M, 1.3, env, "greedy_percontext")
        assert a == b

    # (contexts, actions, non-diagonal M, beta); one test id for every case
    EXACT_CASES = ((2, 2, False, 0.8), (4, 3, True, 0.0), (4, 3, True, 0.8),
                   (4, 3, True, 5.0))

    def test_enumerate_is_exact_on_tiny_instance(self):
        for contexts, actions, spd, beta in self.EXACT_CASES:
            rng = np.random.default_rng(3)
            env = make_environment(3, contexts, actions, seed=4)
            theta = rng.standard_normal(3)
            M = random_spd(rng, 3) if spd else np.diag(rng.uniform(0.5, 2.0, size=3))
            if actions > 2:
                # action 2 repeats action 0 in the first two contexts: exact ties
                phi = env.features.phi.copy()
                phi[:2, 2] = phi[:2, 0]
                env = manual_env(phi, env.truth.theta_star, env.rho, B=env.truth.B,
                                 L=env.features.L)
            best = pessimistic_policy(theta, M, beta, env, "enumerate")
            values = {}
            for acts in itertools.product(range(actions), repeat=contexts):
                pol = Policy(np.array(acts))
                values[acts] = pessimistic_value(pol, theta, M, beta, env)
            brute = max(values, key=values.get)  # first maximizer: lowest index
            case = (contexts, actions, spd, beta)
            assert tuple(best.action_of) == brute, case
            if beta == 0.0:
                assert sum(v == values[brute] for v in values.values()) > 1, case

    def test_enumerate_dominates_greedy(self, default_env):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rng.standard_normal(5)
            M = np.diag(rng.uniform(0.2, 3.0, size=5))
            beta = float(rng.uniform(0.0, 2.0))
            v_enum = pessimistic_value(
                pessimistic_policy(theta, M, beta, default_env, "enumerate"),
                theta, M, beta, default_env)
            v_greedy = pessimistic_value(
                pessimistic_policy(theta, M, beta, default_env, "greedy_percontext"),
                theta, M, beta, default_env)
            assert v_enum >= v_greedy - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 24),
           shape=st.sampled_from([(1, 5), (2, 7), (3, 4), (5, 5), (6, 5), (8, 4), (9, 3),
                                  (2, 200), (3, 40)]),
           kind=st.sampled_from(["plain", "ties", "nan"]))
    def test_blocked_enumeration_matches_one_table(self, seed, d, shape, kind):
        """The blocked scan picks the one-table argmax: first maximum, or first NaN.

        (2, 200) and (3, 40) walk their last level in slices at every budget.
        """
        X, A = shape
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((X, A, d))
        rho = rng.dirichlet(np.ones(X))
        theta = rng.standard_normal(d)
        G = rng.standard_normal((d, d))
        M = G @ G.T / d + 0.1 * np.eye(d)
        beta = float(rng.uniform(0.0, 3.0))
        if kind == "ties" and A > 1:
            # equal features give exact ties between policies
            phi[:, 1] = phi[:, 0]
        if kind == "nan":
            # policies that play this feature row score NaN
            phi[rng.integers(X), rng.integers(A)] = np.inf
            beta = max(beta, 0.5)
        env = SimpleNamespace(features=SimpleNamespace(phi=phi), rho=rho)
        with np.errstate(invalid="ignore", over="ignore"):
            want = one_table_policy(theta, M, beta, env).tolist()
            # small budgets walk head 0 and one-row blocks too
            for rows in (1, 4, 64, scenarios.ENUMERATE_ROWS):
                with mock.patch.object(scenarios, "ENUMERATE_ROWS", rows):
                    got = pessimistic_policy(theta, M, beta, env, "enumerate").action_of
                assert got.tolist() == want, rows

    @pytest.mark.parametrize("shape", [(8, 4, 20), (19, 2, 20), (2, 1000, 20)])
    def test_enumeration_peak_is_bounded_by_the_row_budget(self, shape):
        """The blocked scan's traced peak stays under 1 MiB, however many policies it walks."""
        import tracemalloc

        X, A, d = shape
        rng = np.random.default_rng(6)
        env = SimpleNamespace(features=SimpleNamespace(phi=rng.standard_normal((X, A, d))),
                              rho=rng.dirichlet(np.ones(X)))
        theta, M = rng.standard_normal(d), np.eye(d)
        tracemalloc.start()
        try:
            pessimistic_policy(theta, M, 1.0, env, "enumerate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_enumerate_budget_guard(self):
        env = make_environment(2, 21, 2, seed=5)
        with pytest.raises(ValueError, match="greedy_percontext"):
            pessimistic_policy(np.zeros(2), np.eye(2), 1.0, env, "enumerate")

    def test_unknown_mode_rejected(self, default_env):
        with pytest.raises(ValueError):
            pessimistic_policy(np.zeros(5), np.eye(5), 1.0, default_env, "softmax")


def scan(env, norm_inv):
    return select_most_uncertain(env.pair_diffs(), norm_inv, env.action_pairs())


class TestSelectMostUncertain:
    def test_identity_norm_maximizes_euclidean(self, default_env):
        x, a, b = scan(default_env, np.eye(5))
        Z = default_env.pair_diffs()
        best = float(np.linalg.norm(Z, axis=1).max())
        chosen = np.linalg.norm(default_env.z_of(x, a, b))
        assert abs(chosen - best) <= 1e-12
        assert a < b

    def test_single_pair_pool(self):
        env = make_environment(2, 1, 2, seed=6)
        assert scan(env, np.eye(2)) == (0, 0, 1)

    def test_selection_rotates_on_two_pair_instance(self):
        # two contexts, one pair each; repeatedly feeding the chosen pair's
        # direction must strictly shrink its uncertainty until the other wins
        phi = np.zeros((2, 2, 2))
        phi[0, 0] = [1.0, 0.0]
        phi[0, 1] = [-1.0, 0.0]
        phi[1, 0] = [0.0, 0.9]
        phi[1, 1] = [0.0, -0.9]
        env = manual_env(phi, theta_star=[0.1, 0.1], rho=[0.5, 0.5])
        from duelbandits.linalg import LocalNormMatrix, mahalanobis_inv

        lm = LocalNormMatrix.scaled_identity(2, 1.0)
        first = scan(env, lm.inv)
        assert first == (0, 0, 1)
        seen = {first}
        for _ in range(10):
            x, a, b = scan(env, lm.inv)
            seen.add((x, a, b))
            z = env.z_of(x, a, b)
            before = mahalanobis_inv(z, lm.inv)
            lm.rank_one_update(z, 0.25)
            assert mahalanobis_inv(z, lm.inv) < before
        assert (1, 0, 1) in seen

    def test_matches_brute_force_on_wide_instance(self):
        rng = np.random.default_rng(12)
        env = make_environment(20, 32, 8, seed=13)
        Z = env.pair_diffs()
        pairs = env.action_pairs()
        for _ in range(5):
            M = random_spd(rng, 20)
            qf = [float(z @ M @ z) for z in Z]
            x, rest = divmod(int(np.argmax(qf)), len(pairs))
            assert scan(env, M) == (x, *pairs[rest])

    def test_stack_scans_each_row(self):
        rng = np.random.default_rng(21)
        envs = [make_environment(5, 6, 4, seed=s) for s in (1, 2, 3)]
        Ms = np.stack([random_spd(rng, 5) for _ in envs])
        x, a, b = select_most_uncertain(np.stack([e.pair_diffs() for e in envs]), Ms,
                                        envs[0].action_pairs())
        assert [(int(x[k]), int(a[k]), int(b[k])) for k in range(3)] == [
            scan(e, M) for e, M in zip(envs, Ms)]

    def test_tie_breaks_lexicographic(self):
        phi = np.zeros((2, 2, 2))
        phi[0, 0] = [1.0, 0.0]
        phi[0, 1] = [-1.0, 0.0]
        phi[1, 0] = [0.0, 1.0]
        phi[1, 1] = [0.0, -1.0]
        env = manual_env(phi, theta_star=[0.1, 0.1], rho=[0.5, 0.5])
        assert scan(env, np.eye(2)) == (0, 0, 1)


def shrink(rng, M, rows, chosen):
    """M after one random loss of curvature: a scalar shrink, or a PSD rank-one
    downdate along the chosen row (as active learning does), another row or a
    random direction."""
    if rng.random() < 0.2:
        return M / rng.uniform(1.0, 1.5)
    z = [chosen, rows[rng.integers(len(rows))], rng.standard_normal(len(M))][
        rng.choice(3, p=[0.5, 0.3, 0.2])]
    u = M @ z
    return sherman_morrison(M, z, rng.uniform(0.0, 30.0), u, float(z @ u))


FIVE_ACTION_PAIRS = [(a, b) for a in range(5) for b in range(a + 1, 5)]


def scan_rows(rows, norm_inv):
    """The plain scan of a table of rows for 5 actions, 10 pairs a context."""
    return select_most_uncertain(rows, norm_inv, FIVE_ACTION_PAIRS)


class TestLazyScan:
    """``select_most_uncertain`` with a memo returns the plain scan's tuple."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(7, 12),
           st.integers(0, 6), st.booleans())
    def test_memo_matches_plain_scan(self, seed, d, contexts, duplicates, tie_at_top):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((contexts * len(FIVE_ACTION_PAIRS), d))
        for _ in range(duplicates):
            rows[rng.integers(len(rows))] = rows[rng.integers(len(rows))]
        Ms = [random_spd(rng, d) for _ in range(2)]
        if tie_at_top:  # an exact tie for the largest form, which the lowest index wins
            forms = np.einsum("ij,jk,ik->i", rows, Ms[0], rows)
            rows[rng.integers(len(rows))] = rows[int(forms.argmax())]
        stacked_rows = np.stack([rows, rows[rng.permutation(len(rows))]])
        memo, stacked_memo = {}, {}
        for _ in range(40):
            want = scan_rows(rows, Ms[0])
            assert select_most_uncertain(rows, Ms[0], FIVE_ACTION_PAIRS, memo) == want
            x, a, b = select_most_uncertain(stacked_rows, np.stack(Ms), FIVE_ACTION_PAIRS,
                                            stacked_memo)
            for k in range(2):
                assert (int(x[k]), int(a[k]), int(b[k])) == scan_rows(stacked_rows[k], Ms[k])
            chosen = rows[want[0] * len(FIVE_ACTION_PAIRS) + FIVE_ACTION_PAIRS.index(want[1:])]
            Ms = [shrink(rng, M, rows, chosen) for M in Ms]

    @pytest.mark.parametrize("make", [
        lambda d, T: OnePassRewardEstimator(dim=d),
        lambda d, T: MleRewardEstimator(dim=d),
        lambda d, T: ImplicitOmdRewardEstimator(dim=d),
        lambda d, T: HvpCgRewardEstimator(dim=d, horizon=T),
    ], ids=["omd", "mle", "implicit", "hvpcg"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 5, 20]))
    def test_no_form_outgrows_its_slack(self, make, seed, d):
        """Every later form stays below the one a full scan saw, up to (rounds + 4) * unit."""
        T = 40
        env = make_environment(d, 10, 5, seed=seed % 1000)
        rows, rng = env.pair_diffs(), np.random.default_rng(seed)
        est = make(d, T)
        est.reset()
        stale = []  # (round of the full scan, its forms, its unit)
        for t in range(T):
            M = est.inv_norm_matrix()
            forms = np.einsum("ij,ij->i", rows @ M, rows)
            for first, old, unit in stale:
                assert (forms - old).max() <= (t - first + 4) * unit
            memo = {}
            select_most_uncertain(rows, M, env.action_pairs(), memo)
            stale.append((t, forms, memo["unit"][0]))
            z = rows[rng.integers(len(rows))]
            est.update(z, int(rng.random() < 0.5))

    def test_failed_seed_resets_the_memo(self, monkeypatch):
        """After a lockstep stack fails, each seed's lone run scans with a new memo of its own."""
        calls = []
        plain = scenarios.select_most_uncertain

        def spy(pair_diffs, norm_inv, pairs, memo=None):
            calls.append((memo, bool(memo), pair_diffs.ndim))
            return plain(pair_diffs, norm_inv, pairs, memo)

        monkeypatch.setattr(scenarios, "select_most_uncertain", spy)
        envs = [make_environment(5, 12, 5, seed=s) for s in (3, 4, 5)]
        fail_seed_at(monkeypatch, envs[1].rng_seed, 20)
        got = run_active(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 60)
        assert [rec.summary["aborted"] for _, rec in got] == [None, "synthetic fault", None]
        # the stack's 20 rounds, then the lone runs of 60, 20 and 60 rounds
        runs = [calls[:20], calls[20:80], calls[80:100], calls[100:]]
        assert [len(run) for run in runs] == [20, 60, 20, 60]
        for run, ndim in zip(runs, (3, 2, 2, 2)):
            assert all(memo is run[0][0] and n == ndim for memo, _, n in run)
            assert not run[0][1] and any(used for _, used, _ in run)
        assert len({id(run[0][0]) for run in runs}) == 4

        # every seed's run equals the same stack scanned without a memo
        monkeypatch.setattr(scenarios, "select_most_uncertain",
                            lambda pair_diffs, norm_inv, pairs, memo=None:
                            plain(pair_diffs, norm_inv, pairs))
        want = run_active(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 60)
        for (got_policy, got_rec), (want_policy, want_rec) in zip(got, want):
            assert got_policy == want_policy
            assert_same_run(got_rec, want_rec)


class TestSelectDeployActions:
    def test_zero_beta_plays_greedy_twice(self, default_env):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(5)
        a, b = select_deploy_actions(theta, np.eye(5), 0.0, default_env.features.phi[2])
        scores = default_env.features.phi[2] @ theta
        assert a == int(np.argmax(scores))
        assert b == a

    def test_huge_beta_maximizes_distance(self):
        phi = np.zeros((1, 3, 2))
        phi[0, 0] = [1.0, 0.0]
        phi[0, 1] = [0.9, 0.1]
        phi[0, 2] = [-1.0, 0.0]
        env = manual_env(phi, theta_star=[1.0, 0.0], rho=[1.0])
        theta = np.array([1.0, 0.0])
        a, b = select_deploy_actions(theta, np.eye(2), 1e7, env.features.phi[0])
        assert a == 0
        assert b == 2  # farthest from action 0, reward term negligible

    def test_matches_brute_force(self, default_env):
        rng = np.random.default_rng(14)
        phi = default_env.features.phi
        for _ in range(20):
            theta = rng.standard_normal(5)
            M = random_spd(rng, 5)
            beta = float(rng.uniform(0.0, 3.0))
            for x in range(default_env.features.num_contexts):
                scores = [float(p @ theta) for p in phi[x]]
                a = int(np.argmax(scores))
                bonus = [beta * np.sqrt((p - phi[x, a]) @ M @ (p - phi[x, a]))
                         for p in phi[x]]
                b = int(np.argmax(np.add(scores, bonus)))
                assert select_deploy_actions(theta, M, beta, phi[x]) == (a, b)

    def test_single_action(self):
        env = make_environment(2, 2, 1, seed=8)
        a, b = select_deploy_actions(np.ones(2), np.eye(2), 5.0, env.features.phi[0])
        assert (a, b) == (0, 0)


class TestRunPassive:
    def test_oracle_recovers_optimal_policy(self, default_env):
        oracle = OracleEstimator(default_env.truth.theta_star)
        policy, rec = run_passive(default_env, oracle, 30)
        assert policy == default_env.optimal_policy()
        assert rec.summary["subopt"] == 0.0

    def test_t_zero_pure_pessimism_minimizes_penalty_norm(self):
        env = make_environment(4, 3, 3, seed=21)
        est = OnePassRewardEstimator(dim=4, c_beta=1.0)
        policy, rec = run_passive(env, est, 0)
        # theta is 0, so the chosen policy minimizes ||Phi(pi)|| among all policies
        phi, rho = env.features.phi, env.rho
        best_norm = min(
            np.linalg.norm(sum(rho[x] * phi[x, actions[x]] for x in range(3)))
            for actions in itertools.product(range(3), repeat=3)
        )
        chosen = np.linalg.norm(
            sum(rho[x] * phi[x, policy.action_of[x]] for x in range(3)))
        assert abs(chosen - best_norm) <= 1e-9

    def test_seeded_reproducibility(self, default_env):
        a_policy, a = run_passive(default_env, OnePassRewardEstimator(dim=5), 80)
        b_policy, b = run_passive(default_env, OnePassRewardEstimator(dim=5), 80)
        assert a_policy == b_policy
        for field in ("est_err_l2", "est_err_local", "beta", "x", "a", "a_prime", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_checkpoint_column(self, default_env):
        est = OnePassRewardEstimator(dim=5)
        _, rec = run_passive(default_env, est, 40, checkpoints=(10, 40))
        assert np.isfinite(rec.subopt_checkpoint[9])
        assert np.isfinite(rec.subopt_checkpoint[39])
        assert np.isnan(rec.subopt_checkpoint[20])


    def test_inner_nonconverged_flags_the_rounds_that_stopped_short(self, default_env):
        class Recording(MleRewardEstimator):
            def reset(self):
                self.converged_log = []
                return super().reset()

            def update(self, z, y):
                super().update(z, y)
                self.converged_log.append(self.last_converged_)

        est = Recording(dim=5, max_newton_iters=1, fit_tol=1e-14)
        _, rec = run_passive(default_env, est, 60, checkpoints=())
        flagged = [f == "inner_nonconverged" for f in rec.flags]
        assert flagged == [not ok for ok in est.converged_log]
        assert 0 < sum(flagged) < len(flagged)
        assert rec.summary["flag_counts"] == {"inner_nonconverged": sum(flagged)}


class TestRunActive:
    def test_oracle_reaches_zero_subopt(self, default_env):
        oracle = OracleEstimator(default_env.truth.theta_star)
        policy, rec = run_active(default_env, oracle, 25)
        assert rec.summary["subopt"] == 0.0

    def test_constant_estimator_yields_greedy_of_average(self, default_env):
        rng = np.random.default_rng(9)
        theta_bar = rng.standard_normal(5)
        frozen = OracleEstimator(theta_bar)
        policy, rec = run_active(default_env, frozen, 25)
        assert policy == greedy_policy(theta_bar, default_env)

    def test_seeded_reproducibility(self, default_env):
        _, a = run_active(default_env, OnePassRewardEstimator(dim=5), 60)
        _, b = run_active(default_env, OnePassRewardEstimator(dim=5), 60)
        for field in ("est_err_l2", "x", "a", "a_prime", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_records_last_iterate_subopt(self, default_env):
        _, rec = run_active(default_env, OnePassRewardEstimator(dim=5), 30)
        assert "subopt_last_iterate" in rec.summary
        assert rec.summary["subopt_last_iterate"] >= 0.0


class TestRunDeploy:
    def test_oracle_zero_regret(self, default_env):
        oracle = OracleEstimator(default_env.truth.theta_star)
        rec = run_deploy(default_env, oracle, 40)
        assert rec.cum_regret[-1] == 0.0
        pistar = default_env.optimal_policy()
        assert np.array_equal(rec.a, pistar.action_of[rec.x])
        assert np.array_equal(rec.a_prime, rec.a)

    def test_seeded_reproducibility(self, default_env):
        a = run_deploy(default_env, OnePassRewardEstimator(dim=5), 60)
        b = run_deploy(default_env, OnePassRewardEstimator(dim=5), 60)
        assert np.array_equal(a.cum_regret, b.cum_regret)
        assert np.array_equal(a.y, b.y)

    def test_domination_audits_present(self, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 150)
        audits = rec.summary["domination_audits"]
        assert [a["t"] for a in audits] == [100, 150]
        assert all(a["min_eig"] >= -1e-8 for a in audits)


    def test_estimator_stats(self, default_env):
        est = OnePassRewardEstimator(dim=5, B=0.3, eta=1.0, lam=0.5)
        rec = run_deploy(default_env, est, 200)
        stats = rec.summary["estimator_stats"]
        assert stats["projections"] == est.projections_ > 0
        assert stats["inverse_drift"] == est.hess_.inverse_drift()
        assert 0.0 <= stats["inverse_drift"] <= 1e-12

    @pytest.mark.parametrize("est, keys", [
        (MleRewardEstimator(dim=5), {"inverse_drift"}),
        (HvpCgRewardEstimator(dim=5), {"projections"}),
        (OracleEstimator(np.zeros(5)), set()),
    ], ids=["mle", "hvpcg", "oracle"])
    def test_estimator_stats_fields_follow_the_estimator(self, default_env, est, keys):
        rec = run_deploy(default_env, est, 20)
        assert set(rec.summary["estimator_stats"]) == keys

    @pytest.mark.parametrize("cls, attr", [
        (MleRewardEstimator, "last_newton_iters_"),
        (ImplicitOmdRewardEstimator, "last_inner_iters_"),
    ], ids=["mle", "implicit"])
    def test_newton_iteration_histogram(self, default_env, tmp_path, cls, attr):
        counts = []

        class Recording(cls):
            def update(self, z, y):
                super().update(z, y)
                counts.append(getattr(self, attr))

        est = Recording(dim=5)
        _, rec = run_passive(default_env, est, 60, checkpoints=(60,))
        hist = rec.summary["newton_iters_hist"]
        assert hist == [counts.count(k) for k in range(max(counts) + 1)]
        assert sum(hist) == 60 and hist[-1] > 0
        # kept out of the pinned estimator_stats and of the snapshot
        assert set(rec.summary["estimator_stats"]) == {"inverse_drift"}
        est.save(tmp_path / "est.json")
        assert "hist" not in (tmp_path / "est.json").read_text()

    @pytest.mark.parametrize("est", [
        MleRewardEstimator(dim=5),
        ImplicitOmdRewardEstimator(dim=5, B=0.1, eta=10.0, lam=1e-3),
    ], ids=["mle", "implicit"])
    def test_boundary_search_counts(self, default_env, tmp_path, monkeypatch, est):
        searches, probes = [], []
        model_norm = linalg._model_norm

        def recording(H, r):
            lam, b, probe = model_norm(H, r)
            searches.append(H)

            def real_probe(mu):
                probes.append(mu)
                return probe(mu)

            return lam, b, real_probe

        monkeypatch.setattr(linalg, "_model_norm", recording)
        _, rec = run_passive(default_env, est, 60, checkpoints=(60,))
        assert rec.summary["boundary_searches"] == len(searches) > 20
        assert rec.summary["boundary_probes"] == len(probes) < 8 * len(searches)
        # kept out of the pinned estimator_stats and of the snapshot
        assert set(rec.summary["estimator_stats"]) == {"inverse_drift"}
        est.save(tmp_path / "est.json")
        assert "boundary" not in (tmp_path / "est.json").read_text()

    def test_no_histogram_without_a_newton_solve(self, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 20)
        assert not {"newton_iters_hist", "boundary_searches",
                    "boundary_probes"} & set(rec.summary)


def expected_row(rec, i):
    """Row i of a run CSV: str of each id, repr of each float, NaN as an empty cell."""
    def cell(name):
        v = getattr(rec, name)[i]
        if name in ("t", "wall_nanos", "x", "a", "a_prime", "y"):
            return str(int(v))
        return "" if np.isnan(v) else repr(float(v))

    return [cell(name) for name in CSV_COLUMNS[:-1]] + [rec.flags[i]]


class TestRunRecord:
    def test_csv_layout(self, tmp_path, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 25)
        path = tmp_path / "run.csv"
        rec.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[CSV_COLUMNS.index("subopt_checkpoint")] == ""

    def test_csv_cells_match_record_across_row_blocks(self, tmp_path, default_env):
        # long enough for several full row blocks and a partial last one
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 600)
        rec.flags[300] = "inner_nonconverged"
        # beta and the unwritten subopt_checkpoint view read-only rows the
        # recorder shares across seeds: give this record its own copies
        rec.beta, rec.subopt_checkpoint = rec.beta.copy(), rec.subopt_checkpoint.copy()
        # float columns with some NaN cells, an all-NaN block, and an infinite value
        rec.beta[[3, 280]] = np.nan
        rec.subopt_checkpoint[[0, 255, 256, 599]] = [0.5, 1e-300, -0.0, np.inf]
        rec.est_err_local[256:512] = np.nan
        path = tmp_path / "run.csv"
        rec.write_csv(path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 600
        for i, line in enumerate(lines):
            assert line.split(",") == expected_row(rec, i), i

    def test_shared_cells_write_the_same_bytes(self, tmp_path):
        # three records of one run set: the third stopped early; the shared
        # cells are the longest record's, as a sink formats them once a block
        rng = np.random.default_rng(5)
        T, short = 200, 130
        beta = rng.random(T)
        beta[[0, 70]] = 0.0
        beta[[5, 64]] = np.nan
        regret = rng.random(T)
        regret[64:128] = np.nan
        a = rng.integers(0, 4, T)
        a[[0, 63, 64, 150]] = [1023, 1024, 10**12, -1]
        recs = []
        for k, n in enumerate((T, T, short)):
            x = rng.integers(0, 8, n)
            x[[1, 100]] = [len(scenarios._ID_CELLS), -7]
            err = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
            err[rng.random(n) < 0.1] = np.nan
            flags = [""] * n
            flags[k + 2] = "projected"
            recs.append(RunRecord(
                scenario="deploy", seed=k, T=T, t=np.arange(1, n + 1, dtype=np.int64),
                wall_nanos=rng.integers(10**3, 10**9, n),
                est_err_l2=err, est_err_local=np.full(n, np.nan),
                beta=beta[:n].copy(), cum_regret=regret[:n].copy(),
                subopt_checkpoint=np.full(n, np.nan),
                x=x, a=a[:n].copy(), a_prime=rng.integers(0, 4, n), y=rng.integers(0, 2, n),
                flags=flags))
        shared = {name: scenarios._csv_cells(name, getattr(recs[0], name))
                  for name in ("a", "beta", "cum_regret", "est_err_local", "subopt_checkpoint",
                               "t")}
        for rec in recs:
            want = "".join(",".join(row) + "\n" for row in
                           [list(CSV_COLUMNS)] + [expected_row(rec, i) for i in range(len(rec))])
            for cells in (None, shared):
                path = tmp_path / f"run{rec.seed}.csv"
                rec.write_csv(path, cells)
                assert path.read_bytes() == want.encode(), (rec.seed, cells is None)
            # the same rows appended a block at a time, as a file sink writes them
            rows = lambda lo, hi: dataclasses.replace(
                rec, **{name: getattr(rec, name)[lo:hi] for name in CSV_COLUMNS})
            rows(0, 0).write_csv(path)
            for lo in range(0, len(rec), 70):
                rows(lo, lo + 70).write_csv(path, append=True)
            assert path.read_bytes() == want.encode(), rec.seed

    @pytest.mark.parametrize("contexts, actions", [(300, 3), (2, 300)])
    def test_wide_ids_write_the_int64_rows(self, tmp_path, contexts, actions):
        """Ids past 255 take uint16, and the CSV prints them as the int64 record does."""
        env = make_environment(3, contexts, actions, seed=4)
        if contexts > 255:
            rec = run_deploy(env, OnePassRewardEstimator(dim=3), 700)
            wide = rec.x
        else:
            # behavior-drawn pairs cover the actions
            _, rec = run_passive(env, OnePassRewardEstimator(dim=3), 700,
                                 policy_mode="greedy_percontext", checkpoints=())
            wide = rec.a
        assert wide.dtype == np.uint16 and wide.max() > 255
        assert rec.y.dtype == np.uint8
        oracle = dataclasses.replace(rec, **{name: getattr(rec, name).astype(np.int64)
                                             for name in ("x", "a", "a_prime", "y")})
        rec.write_csv(tmp_path / "narrow.csv")
        oracle.write_csv(tmp_path / "int64.csv")
        lines = (tmp_path / "narrow.csv").read_text().splitlines()[1:]
        assert len(lines) == 700
        for i, line in enumerate(lines):
            assert line.split(",") == expected_row(oracle, i), i
        assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()

    def test_shared_columns_are_read_only_views(self, default_env):
        envs = [default_env, make_environment(5, 8, 4, seed=12)]
        recs = run_deploy(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 30)
        for name in ("t", "beta", "subopt_checkpoint"):
            first, second = (getattr(rec, name) for rec in recs)
            assert np.shares_memory(first, second), name
            assert not first.flags.writeable, name
        assert np.isnan(recs[0].subopt_checkpoint).all()
        # the regret each seed paid is its own
        assert not np.shares_memory(recs[0].cum_regret, recs[1].cum_regret)
        _, rec = run_passive(default_env, OnePassRewardEstimator(dim=5), 30, checkpoints=())
        assert np.isnan(rec.cum_regret).all() and not rec.cum_regret.flags.writeable

    def test_default_checkpoints(self):
        assert default_checkpoints(10) == (1, 2, 4, 8, 10)
        assert default_checkpoints(8) == (1, 2, 4, 8)
        assert default_checkpoints(0) == ()

    def test_partial_record_on_estimator_failure(self, default_env):
        policy, rec = run_passive(default_env, Exploding(dim=5), 60)
        assert policy is None
        assert_stopped_at_failed_update(rec)
        assert "policy" not in rec.summary and "subopt" not in rec.summary

    def test_active_record_stops_at_estimator_failure(self, default_env):
        policy, rec = run_active(default_env, Exploding(dim=5), 60)
        assert policy is None
        assert_stopped_at_failed_update(rec)
        for key in ("policy", "subopt", "subopt_last_iterate"):
            assert key not in rec.summary

    def test_deploy_record_stops_at_estimator_failure(self, default_env):
        rec = run_deploy(default_env, Exploding(dim=5), 60)
        assert_stopped_at_failed_update(rec)
        # regret accrues only after a successful update
        assert np.isnan(rec.cum_regret[-1])
        assert np.isfinite(rec.cum_regret[:-1]).all()
        assert rec.summary["cum_regret"] == rec.cum_regret[-2]


TIMING_KEYS = ("update_ns_total", "update_ns_mean")
DIAGNOSTICS_TIMING_KEYS = ("timing_early_ns", "timing_late_ns", "timing_ratio")


def assert_same_run(got, want):
    """Equal records and summaries, except the timing of the update."""
    assert len(got) == len(want) and got.flags == want.flags
    for name in ("t", "est_err_l2", "est_err_local", "beta", "cum_regret",
                 "subopt_checkpoint", "x", "a", "a_prime", "y"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name

    def strip(summary):
        out = {k: v for k, v in summary.items() if k not in TIMING_KEYS}
        out["diagnostics"] = {k: v for k, v in summary["diagnostics"].items()
                              if k not in DIAGNOSTICS_TIMING_KEYS}
        return out

    assert strip(got.summary) == strip(want.summary)


class TestLockstep:
    SEEDS = resolve_seeds(0, 6)

    # omd keeps the bare scenario ids it had before the other estimators joined
    @pytest.mark.parametrize("scenario, kind", [
        pytest.param(scenario, kind, id=scenario if kind == "omd" else f"{scenario}-{kind}")
        for kind in ESTIMATOR_CLASSES for scenario in ("passive", "active", "deploy")])
    def test_stack_equals_solo_runs(self, scenario, kind):
        """A list of seeds gives each seed its solo run: in one stack, or one group each."""
        run = {"passive": lambda e, est: run_passive(e, est, 40, checkpoints=(10, 40)),
               "active": lambda e, est: run_active(e, est, 40, checkpoints=(10, 40)),
               "deploy": lambda e, est: run_deploy(e, est, 40)}[scenario]
        envs = [make_environment(5, 8, 4, seed=s) for s in self.SEEDS[:3]]
        ests = [ESTIMATOR_CLASSES[kind](dim=5) for _ in envs]
        stacked = run(envs, ests)
        for env, est, got in zip(envs, ests, stacked):
            solo_est = ESTIMATOR_CLASSES[kind](dim=5)
            want = run(env, solo_est)
            if scenario == "deploy":
                assert_same_run(got, want)
            else:
                assert got[0] == want[0]
                assert_same_run(got[1], want[1])
            # each seed's own estimator ends holding its final state
            assert np.array_equal(est.theta_, solo_est.theta_)
            assert np.array_equal(est.inv_norm_matrix(), solo_est.inv_norm_matrix())

    @pytest.mark.parametrize("scenario", ["passive", "active", "deploy"])
    def test_lone_seed_never_stacks(self, monkeypatch, default_env, scenario):
        """A lone seed steps its own estimator on (d,) vectors, never a stack of one."""
        def refuse(cls, estimators):
            raise AssertionError("a lone seed was stacked")

        monkeypatch.setattr(OnePassRewardEstimator, "stack", classmethod(refuse))
        run = {"passive": run_passive, "active": run_active, "deploy": run_deploy}[scenario]
        run(default_env, OnePassRewardEstimator(dim=5), 30)
        run([default_env], [OnePassRewardEstimator(dim=5)], 30)

    def test_failing_seed_ends_as_alone_and_the_others_go_on(self, monkeypatch):
        def refuse(theta_prime, norm_mat, B):
            raise NumericFailure("projection refused")

        monkeypatch.setattr(onepass, "project_localnorm_ball", refuse)
        envs = [make_environment(5, 8, 4, B=1.0, seed=s) for s in self.SEEDS]
        params = dict(dim=5, B=1.0, lam=10.0)
        stacked = run_deploy(envs, [OnePassRewardEstimator(**params) for _ in envs], 150)
        solo = [run_deploy(env, OnePassRewardEstimator(**params), 150) for env in envs]
        aborted = [rec.summary["aborted"] for rec in stacked]
        assert "projection refused" in aborted and None in aborted
        for got, want in zip(stacked, solo):
            assert_same_run(got, want)

    def test_failing_seed_writes_its_solo_csv(self, monkeypatch, tmp_path):
        """A seed that fails mid-stack writes its solo run's CSV, kept in memory or streamed."""
        def refuse(theta_prime, norm_mat, B):
            raise NumericFailure("projection refused")

        def text(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            wall = rows[0].index("wall_nanos")
            return [row[:wall] + row[wall + 1:] for row in rows]

        def written(rec, path):
            rec.write_csv(path)
            return text(path)

        monkeypatch.setattr(onepass, "project_localnorm_ball", refuse)
        envs = [make_environment(5, 8, 4, B=1.0, seed=s) for s in self.SEEDS]
        params = dict(dim=5, B=1.0, lam=10.0)
        stacked = run_deploy(envs, [OnePassRewardEstimator(**params) for _ in envs], 150)
        streamed = run_deploy(envs, [OnePassRewardEstimator(**params) for _ in envs], 150,
                              sink=functools.partial(FileSink, str(tmp_path / "seed{}.csv")))
        failed = [k for k, rec in enumerate(stacked) if rec.summary["aborted"]]
        assert failed and len(failed) < len(envs)
        assert [rec.summary["aborted"] for rec in streamed] == [
            rec.summary["aborted"] for rec in stacked]
        for k in failed:
            got = stacked[k]
            want = run_deploy(envs[k], OnePassRewardEstimator(**params), 150)
            solo = written(want, tmp_path / "solo.csv")
            assert written(got, tmp_path / "stacked.csv") == solo
            assert text(tmp_path / f"seed{envs[k].rng_seed}.csv") == solo
            # the failed round's own cells: its flag, and no share of the retried update
            i = len(got) - 1
            assert got.flags[i] == "update_failed" and got.wall_nanos[i] == 0
            assert any(len(rec) > i and rec.wall_nanos[i] > 0 for rec in stacked)

    def test_rerun_after_a_put_block_writes_the_solo_csvs(self, monkeypatch, tmp_path):
        """A stack that fails after putting a block has its writer joined before the rerun.

        Each block append is slowed down, so a writer still busy with the
        stack's first block would land its rows after the rerun's header.
        """
        T, k = 600, 300
        fail_seed_at(monkeypatch, self.SEEDS[1], k)
        write_csv = RunRecord.write_csv

        def slow(self, path, shared=None, append=False):
            if append:
                time.sleep(0.05)
            write_csv(self, path, shared, append)

        monkeypatch.setattr(RunRecord, "write_csv", slow)
        envs = [make_environment(5, 8, 4, seed=s) for s in self.SEEDS[:3]]
        streamed = run_deploy(envs, [OnePassRewardEstimator(dim=5) for _ in envs], T,
                              sink=functools.partial(FileSink, str(tmp_path / "seed{}.csv")))
        assert [len(rec) for rec in streamed] == [T, k, T]
        for env in envs:
            run_deploy(env, OnePassRewardEstimator(dim=5), T).write_csv(tmp_path / "solo.csv")
            assert (csv_without_wall(tmp_path / f"seed{env.rng_seed}.csv")
                    == csv_without_wall(tmp_path / "solo.csv"))

    def test_rows_time_an_equal_share_of_the_update(self, default_env):
        envs = [default_env, make_environment(5, 8, 4, seed=12)]
        recs = run_deploy(envs, [OnePassRewardEstimator(dim=5) for _ in envs], 30)
        assert np.array_equal(recs[0].wall_nanos, recs[1].wall_nanos)
        assert (recs[0].wall_nanos > 0).all()

    def test_failing_rank_one_update_ends_seed_as_alone(self, monkeypatch):
        """A seed whose curvature update fails after its projection fired keeps that count."""
        original = LocalNormMatrix.rank_one_update

        def refuse_large(self, z, w, u=None, zu=None):
            big = (self.mat[..., 0, 0] > 45.0).tolist()
            if self.mat.ndim == 2 and big:
                raise NumericFailure("curvature refused")
            if self.mat.ndim == 3 and any(big):
                raise NumericFailure("curvature refused")
            original(self, z, w, u, zu)

        monkeypatch.setattr(LocalNormMatrix, "rank_one_update", refuse_large)
        envs = [make_environment(5, 8, 4, B=1.0, seed=s) for s in self.SEEDS]
        params = dict(dim=5, B=1.0, lam=10.0)
        stacked = run_deploy(envs, [OnePassRewardEstimator(**params) for _ in envs], 300)
        solo = [run_deploy(env, OnePassRewardEstimator(**params), 300) for env in envs]
        aborted = [rec.summary["aborted"] for rec in stacked]
        assert "curvature refused" in aborted and None in aborted
        assert any(rec.summary["estimator_stats"]["projections"] for rec in stacked
                   if rec.summary["aborted"])
        for got, want in zip(stacked, solo):
            assert_same_run(got, want)

    @pytest.mark.parametrize("scenario", ["passive", "active", "deploy"])
    def test_fault_only_a_stack_raises_leaves_every_lone_record(self, monkeypatch, scenario):
        """A stacked update that fails is thrown away: every seed gets its lone record, whole."""
        update = OnePassRewardEstimator.update

        def stack_fails(self, z, y):
            if self.theta_.ndim > 1 and self.t_ == 30:
                raise NumericFailure("stack refused")
            update(self, z, y)

        monkeypatch.setattr(OnePassRewardEstimator, "update", stack_fails)
        run = {"passive": lambda e, est: run_passive(e, est, 40, checkpoints=(10, 40)),
               "active": lambda e, est: run_active(e, est, 40, checkpoints=(10, 40)),
               "deploy": lambda e, est: run_deploy(e, est, 40)}[scenario]
        envs = [make_environment(5, 8, 4, seed=s) for s in self.SEEDS[:3]]
        stacked = run(envs, [OnePassRewardEstimator(dim=5) for _ in envs])
        for env, got in zip(envs, stacked):
            want = run(env, OnePassRewardEstimator(dim=5))
            if scenario == "deploy":
                got, want = (None, got), (None, want)
            assert got[0] == want[0] and got[1].summary["aborted"] is None
            assert_same_run(got[1], want[1])

    def test_estimators_without_stacked_update_run_one_after_another(self, default_env):
        envs = [default_env, make_environment(5, 8, 4, seed=12)]
        recs = run_deploy(envs, [MleRewardEstimator(dim=5) for _ in envs], 10)
        for env, rec in zip(envs, recs):
            assert_same_run(rec, run_deploy(env, MleRewardEstimator(dim=5), 10))
