import itertools

import numpy as np
import pytest

from duelbandits.environment import (
    BehaviorSpec,
    Environment,
    FeatureTable,
    GroundTruth,
    Policy,
    make_environment,
)
from duelbandits.baselines import MleRewardEstimator
from duelbandits.exceptions import NumericFailure
from duelbandits.onepass import HvpCgRewardEstimator, OnePassRewardEstimator
from duelbandits.scenarios import (
    CSV_COLUMNS,
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
from conftest import OracleEstimator


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

    def test_enumerate_budget_guard(self):
        env = make_environment(2, 21, 2, seed=5)
        with pytest.raises(ValueError, match="greedy_percontext"):
            pessimistic_policy(np.zeros(2), np.eye(2), 1.0, env, "enumerate")

    def test_unknown_mode_rejected(self, default_env):
        with pytest.raises(ValueError):
            pessimistic_policy(np.zeros(5), np.eye(5), 1.0, default_env, "softmax")


class TestSelectMostUncertain:
    def test_identity_norm_maximizes_euclidean(self, default_env):
        x, a, b = select_most_uncertain(default_env, np.eye(5))
        Z = default_env.pair_diffs()
        best = float(np.linalg.norm(Z, axis=1).max())
        chosen = np.linalg.norm(default_env.z_of(x, a, b))
        assert abs(chosen - best) <= 1e-12
        assert a < b

    def test_single_pair_pool(self):
        env = make_environment(2, 1, 2, seed=6)
        assert select_most_uncertain(env, np.eye(2)) == (0, 0, 1)

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
        first = select_most_uncertain(env, lm.inv)
        assert first == (0, 0, 1)
        seen = {first}
        for _ in range(10):
            x, a, b = select_most_uncertain(env, lm.inv)
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
            assert select_most_uncertain(env, M) == (x, *pairs[rest])

    def test_tie_breaks_lexicographic(self):
        phi = np.zeros((2, 2, 2))
        phi[0, 0] = [1.0, 0.0]
        phi[0, 1] = [-1.0, 0.0]
        phi[1, 0] = [0.0, 1.0]
        phi[1, 1] = [0.0, -1.0]
        env = manual_env(phi, theta_star=[0.1, 0.1], rho=[0.5, 0.5])
        assert select_most_uncertain(env, np.eye(2)) == (0, 0, 1)


class TestSelectDeployActions:
    def test_zero_beta_plays_greedy_twice(self, default_env):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(5)
        a, b = select_deploy_actions(theta, np.eye(5), 0.0, 2, default_env)
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
        a, b = select_deploy_actions(theta, np.eye(2), 1e7, 0, env)
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
                assert select_deploy_actions(theta, M, beta, x, default_env) == (a, b)

    def test_single_action(self):
        env = make_environment(2, 2, 1, seed=8)
        a, b = select_deploy_actions(np.ones(2), np.eye(2), 5.0, 0, env)
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

    def test_regret_nondecreasing(self, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 300)
        diffs = np.diff(rec.cum_regret)
        assert np.all(diffs >= -1e-12)
        assert rec.cum_regret[0] >= -1e-12

    def test_z_norm_bounded(self, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 200)
        norms = np.linalg.norm(rec.z_rows(default_env), axis=1)
        assert np.all(norms <= 2 * default_env.truth.L + 1e-9)

    def test_seeded_reproducibility(self, default_env):
        a = run_deploy(default_env, OnePassRewardEstimator(dim=5), 60)
        b = run_deploy(default_env, OnePassRewardEstimator(dim=5), 60)
        assert np.array_equal(a.cum_regret, b.cum_regret)
        assert np.array_equal(a.y, b.y)

    def test_domination_audits_present(self, default_env):
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 150,
                         stream_seed=1234)
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
        # long enough for two full row blocks and a partial third
        rec = run_deploy(default_env, OnePassRewardEstimator(dim=5), 600)
        rec.flags[300] = "inner_nonconverged"
        path = tmp_path / "run.csv"
        rec.write_csv(path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 600

        def cell(name, i):
            v = getattr(rec, name)[i]
            if name in ("t", "wall_nanos", "x", "a", "a_prime", "y"):
                return str(int(v))
            return "" if np.isnan(v) else repr(float(v))

        for i, line in enumerate(lines):
            expected = [cell(name, i) for name in CSV_COLUMNS[:-1]] + [rec.flags[i]]
            assert line.split(",") == expected, i

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
