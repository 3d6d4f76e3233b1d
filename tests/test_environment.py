import numpy as np
import pytest
from scipy.stats import chisquare

from duelbandits.environment import (
    BehaviorSpec,
    Environment,
    FeatureTable,
    GroundTruth,
    Policy,
    draw_passive_pair,
    make_environment,
)


class TestMakeEnvironment:
    def test_construction_invariants(self):
        env = make_environment(5, 8, 4, B=1.0, L=1.0, seed=0)
        assert np.linalg.norm(env.truth.theta_star) <= 1.0
        norms = np.linalg.norm(env.features.phi, axis=2)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)
        assert abs(env.rho.sum() - 1.0) <= 1e-12

    def test_scaled_bounds(self):
        env = make_environment(3, 2, 5, B=2.5, L=0.7, seed=1)
        assert np.linalg.norm(env.truth.theta_star) <= 2.5
        norms = np.linalg.norm(env.features.phi, axis=2)
        assert np.all(np.abs(norms - 0.7) <= 1e-12)

    def test_same_seed_identical(self):
        a = make_environment(4, 3, 3, seed=42)
        b = make_environment(4, 3, 3, seed=42)
        assert np.array_equal(a.truth.theta_star, b.truth.theta_star)
        assert np.array_equal(a.features.phi, b.features.phi)

    def test_different_seed_differs(self):
        a = make_environment(4, 3, 3, seed=42)
        b = make_environment(4, 3, 3, seed=43)
        assert not np.array_equal(a.features.phi, b.features.phi)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_environment(0, 3, 3)
        with pytest.raises(ValueError):
            make_environment(3, 3, 3, B=0.0)


class TestBehavior:
    def test_uniform_pairs_chi_square(self):
        env = make_environment(3, 4, 4, seed=5, coverage_skew=0.0)
        rng = np.random.default_rng(7)
        pairs = env.action_pairs()
        counts = np.zeros(len(pairs))
        index = {p: i for i, p in enumerate(pairs)}
        for _ in range(100_000):
            _, a, b = draw_passive_pair(env, rng)
            counts[index[(a, b)]] += 1
        result = chisquare(counts)
        assert result.pvalue > 0.001

    def test_full_skew_always_fixed_pair(self):
        env = make_environment(3, 4, 4, seed=5, coverage_skew=1.0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            assert draw_passive_pair(env, rng) == env.behavior.fixed_pair

    def test_skew_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BehaviorSpec(coverage_skew=1.5)

    def test_draw_context_follows_rho(self):
        env = make_environment(2, 3, 2, seed=9)
        env.rho = np.array([0.7, 0.2, 0.1])
        env._cum_rho = None
        rng = np.random.default_rng(10)
        counts = np.zeros(3)
        for _ in range(50_000):
            counts[env.draw_context(rng)] += 1
        assert np.allclose(counts / 50_000, env.rho, atol=0.01)


class TestCachedLookups:
    @pytest.mark.parametrize("dim", [1, 2, 5, 20, 33])
    def test_reward_table_has_the_bits_of_each_row_product(self, dim):
        env = make_environment(dim, 6, 5, seed=dim)
        phi, theta = env.features.phi, env.truth.theta_star
        for x in range(6):
            for a in range(5):
                assert env.reward(x, a) == float(phi[x, a] @ theta)

    def test_draw_context_matches_searchsorted(self):
        class Fixed:
            def __init__(self, values):
                self.values = iter(values)

            def random(self):
                return next(self.values)

        env = make_environment(2, 5, 2, seed=3)
        env.rho = np.array([0.1, 0.25, 0.3, 0.05, 0.3])
        env._cum_rho = None
        cum = np.cumsum(env.rho)
        us = [0.0, 0.5, 1.0 - 2**-53, *cum.tolist(),
              *np.random.default_rng(4).random(1000).tolist()]
        draws = Fixed(us)
        for u in us:
            want = min(int(np.searchsorted(cum, u, side="right")), 4)
            assert env.draw_context(draws) == want


class TestTypes:
    def test_feature_table_norm_violation_rejected(self):
        phi = np.zeros((2, 2, 3))
        phi[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            FeatureTable(phi=phi, L=1.0)

    def test_ground_truth_ball_violation_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(theta_star=np.array([2.0, 0.0]), B=1.0, L=1.0)

    def test_rho_must_normalize(self):
        env = make_environment(2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            Environment(features=env.features, truth=env.truth,
                        rho=np.array([0.5, 0.6]), behavior=env.behavior, rng_seed=0)

    def test_policy_equality(self):
        assert Policy(np.array([0, 1])) == Policy(np.array([0, 1]))
        assert Policy(np.array([0, 1])) != Policy(np.array([1, 1]))

    def test_rewards_and_optimal_policy(self):
        env = make_environment(4, 5, 3, seed=3)
        r = env.rewards()
        assert r.shape == (5, 3)
        pistar = env.optimal_policy()
        for x in range(5):
            assert r[x, pistar.action_of[x]] == r[x].max()

    def test_pair_diffs_lexicographic(self):
        env = make_environment(3, 2, 3, seed=4)
        Z = env.pair_diffs()
        pairs = env.action_pairs()
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert Z.shape == (6, 3)
        expected = env.features.phi[1, 0] - env.features.phi[1, 2]
        assert np.array_equal(Z[3 + 1], expected)

    def test_single_action_environment(self):
        env = make_environment(2, 2, 1, seed=6)
        assert env.action_pairs() == [(0, 0)]
        assert np.allclose(env.pair_diffs(), 0.0)
