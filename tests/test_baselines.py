import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from duelbandits import baselines, linalg
from duelbandits.baselines import ImplicitOmdRewardEstimator, MleRewardEstimator
from duelbandits.linkmath import kappa_bound


def sigmoid(w):
    return 1.0 / (1.0 + math.exp(-w))


class TestMleClosedForms:
    def test_symmetric_labels_give_zero(self):
        est = MleRewardEstimator(dim=1, B=1.0, fit_tol=1e-10, max_newton_iters=200).reset()
        est.update(np.array([1.0]), 1)
        est.update(np.array([1.0]), 0)
        assert abs(est.theta_[0]) <= 1e-6

    def test_single_positive_sample_hits_boundary(self):
        est = MleRewardEstimator(dim=1, B=1.0, fit_tol=1e-10, max_newton_iters=200).reset()
        est.update(np.array([1.0]), 1)
        assert abs(est.theta_[0] - 1.0) <= 1e-6

    def test_three_to_one_gives_log3(self):
        est = MleRewardEstimator(dim=1, B=2.0, fit_tol=1e-12, max_newton_iters=200).reset()
        for y in (1, 1, 1, 0):
            est.update(np.array([1.0]), y)
        assert abs(est.theta_[0] - math.log(3.0)) <= 1e-6

    def test_interior_optimum_matches_root_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(8, 40))
            zs = rng.uniform(0.5, 1.5, size=n)
            ys = rng.integers(0, 2, size=n)
            if ys.min() == ys.max():
                ys[0] = 1 - ys[0]
            est = MleRewardEstimator(dim=1, B=5.0, fit_tol=1e-11, max_newton_iters=300).reset()
            for z, y in zip(zs, ys):
                est.update(np.array([z]), int(y))

            def score(theta):
                return float(np.sum((1 / (1 + np.exp(-zs * theta)) - ys) * zs))

            root = brentq(score, -5.0, 5.0, xtol=1e-13)
            assert abs(est.theta_[0] - root) <= 1e-6


class TestMleBehavior:
    def test_buffer_grows_with_samples(self):
        est = MleRewardEstimator(dim=2).reset()
        rng = np.random.default_rng(2)
        for i in range(150):
            est.update(rng.standard_normal(2), int(rng.integers(0, 2)))
            assert est.n_samples_ == i + 1
        assert est.t_ == 151

    def test_ball_constraint_respected(self):
        rng = np.random.default_rng(3)
        est = MleRewardEstimator(dim=3, B=0.5).reset()
        for _ in range(100):
            z = rng.standard_normal(3)
            est.update(z, 1)
            assert np.linalg.norm(est.theta_) <= 0.5 + 1e-9

    def test_v_matrix_accumulates(self):
        est = MleRewardEstimator(dim=2, lam=1.0, v_reg=1.0).reset()
        z = np.array([1.0, 0.0])
        est.update(z, 1)
        assert np.allclose(est.V_.mat, np.diag([2.0, 1.0]), atol=1e-12)

    def test_default_v_reg_is_lam_kappa(self):
        est = MleRewardEstimator(dim=2, lam=3.0).reset()
        assert abs(est.v_reg_ - 3.0 * kappa_bound(1.0, 1.0)) < 1e-9

    def test_radius_carries_kappa_factor(self):
        est = MleRewardEstimator(dim=4, delta=0.1).reset()
        base = math.sqrt(4 * math.log(2.0 / 0.1))
        assert abs(est.radius(1) - math.sqrt(kappa_bound(1.0, 1.0)) * base) < 1e-12

    def test_snapshot_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        est = MleRewardEstimator(dim=3).reset()
        for _ in range(30):
            est.update(rng.standard_normal(3), int(rng.integers(0, 2)))
        path = tmp_path / "mle.json"
        est.save(path)
        loaded = MleRewardEstimator.load(path)
        assert loaded.n_samples_ == est.n_samples_
        assert np.allclose(loaded.theta_, est.theta_, atol=0)
        z = rng.standard_normal(3)
        est.update(z, 1)
        loaded.update(z, 1)
        assert np.allclose(loaded.theta_, est.theta_, atol=1e-9)


class TestBoundarySearch:
    """The damping search for boundary-pinned fits, probed through eigh in O(d)."""

    @staticmethod
    def pinned_problem(seed=0, d=20, n=400, B=1.0):
        # features of spread scale (cond(H) ~ 400) and a true parameter of norm
        # 4 put the unconstrained optimum well outside the B-ball
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((n, d)) * np.geomspace(1.0, 0.05, d)
        theta_star = rng.standard_normal(d)
        theta_star *= 4.0 / np.linalg.norm(theta_star)
        p = 1.0 / (1.0 + np.exp(-(Z @ theta_star)))
        y = (rng.random(n) < p).astype(float)
        return Z, y, B

    @staticmethod
    def feed(est, Z, y):
        for z, label in zip(Z, y):
            est.update(z, int(label))
        return est

    def test_eigh_norm_matches_dense_solve_at_every_probe(self, monkeypatch):
        Z, y, B = self.pinned_problem()
        d = Z.shape[1]
        est = MleRewardEstimator(dim=d, B=B, fit_tol=1e-10, max_newton_iters=200).reset()
        # warm up unrecorded, so the probed Hessians are past the rank-deficient start
        self.feed(est, Z[:350], y[:350])
        probes = []
        model_norm = linalg._model_norm

        def recording(H, r):
            lam, b, norm = model_norm(H, r)

            def probe(mu):
                probes.append((H, r, mu, norm(mu)))
                return probes[-1][3]

            return lam, b, probe

        monkeypatch.setattr(linalg, "_model_norm", recording)
        self.feed(est, Z[350:], y[350:])
        assert len(probes) > 100
        for H, r, mu, nrm in probes:
            dense = float(np.linalg.norm(np.linalg.solve(H + mu * np.eye(d), r)))
            assert abs(nrm - dense) <= 1e-12 * dense

    @staticmethod
    def plain_damping(H, r, mu0, B, radial_tol):
        """The damping search's bracket and bisection with a real probe at every call.

        Returns (mid, calls)."""
        _, _, model_norm = linalg._model_norm(H, r)
        calls = 0

        def probe(mu):
            nonlocal calls
            calls += 1
            return model_norm(mu)

        lo, hi = mu0, max(mu0, 1e-6)
        for _ in range(200):
            if probe(hi) < B:
                break
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            nrm = probe(mid)
            if abs(nrm - B) <= radial_tol:
                break
            if nrm > B:
                lo = mid
            else:
                hi = mid
        return mid, calls

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 32), st.integers(0, 2**32 - 1), st.floats(0.0, 6.0),
           st.sampled_from(["full", "rank_deficient", "indefinite"]), st.floats(0.1, 10.0),
           st.floats(-14.0, -10.0), st.floats(0.0, 1.0), st.floats(1e-6, 4.0),
           st.sampled_from(["newton", "nan", "far_low", "far_high", "answer"]))
    def test_certified_search_ends_on_the_plain_mid(self, d, seed, log_cond, shape, B,
                                                    log_tol, mapping, log_excess, seeds):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        if shape == "rank_deficient" and d > 1:
            # n < d rows: eigh returns zeros as tiny eigenvalues of either sign
            Z = rng.standard_normal((int(rng.integers(1, d)), d))
            H = scale * (Z.T @ Z)
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            H = (Q * (scale * np.geomspace(1.0, 10.0 ** -log_cond, d))) @ Q.T
            H = 0.5 * (H + H.T)
        mu0 = (1e-12 + 1e-3 * mapping) * (1.0 + float(H.trace()) / d)
        if shape == "indefinite":
            # lam_min + mu0 <= 0: the probe is not monotone there
            H = H - (mu0 + scale * rng.uniform(0.0, 1.0)) * np.eye(d)
        lam = np.linalg.eigh(H)[0]
        r = rng.standard_normal(d)
        if lam[0] + mu0 > 0.0:
            # the model minimizer at mu0 lies outside the ball, as in the solver
            r *= B * 10.0 ** log_excess / linalg._model_norm(H, r)[2](mu0)
        radial_tol = 10.0 ** log_tol * B
        ref_mid, calls = self.plain_damping(H, r, mu0, B, radial_tol)
        forced = {"nan": (math.nan, math.nan), "far_low": (mu0, mu0 + 1e-9 * ref_mid),
                  "far_high": (1e6 * ref_mid, 1e12 * ref_mid), "answer": (ref_mid, ref_mid)}
        seeder = (linalg._secular_seeds if seeds == "newton"
                  else lambda *args: forced[seeds])
        with mock.patch.object(linalg, "_secular_seeds", seeder):
            mid, probes = linalg._boundary_damping(H, r, mu0, B, radial_tol)
        assert mid == ref_mid
        assert probes <= calls + 2
        if not lam[0] + mu0 > 0.0:
            assert probes == calls  # no certificate: a real probe at every call

    def test_certified_search_probes_few_and_seeds_change_only_the_count(self):
        Z, y, B = self.pinned_problem()

        def fit_with(seeder):
            est = MleRewardEstimator(dim=Z.shape[1], B=B, fit_tol=1e-10,
                                     max_newton_iters=200).reset()
            with mock.patch.object(linalg, "_secular_seeds", seeder):
                return self.feed(est, Z, y)

        newton = fit_with(linalg._secular_seeds)
        nan = fit_with(lambda *args: (math.nan, math.nan))
        assert np.array_equal(newton.theta_, nan.theta_)
        searches = newton.boundary_counts_["boundary_searches"]
        assert searches == nan.boundary_counts_["boundary_searches"] > 300
        assert newton.boundary_counts_["boundary_probes"] <= 8 * searches
        assert nan.boundary_counts_["boundary_probes"] > 2 * newton.boundary_counts_[
            "boundary_probes"]

    def test_fit_lands_on_boundary_with_kkt(self):
        Z, y, B = self.pinned_problem()
        est = MleRewardEstimator(dim=Z.shape[1], B=B, fit_tol=1e-10,
                                 max_newton_iters=200).reset()
        self.feed(est, Z, y)
        assert est.last_converged_
        theta = est.theta_
        assert abs(np.linalg.norm(theta) - B) <= 1e-12 * B
        # ball KKT: grad + nu * theta = 0 with multiplier nu > 0
        grad = Z.T @ (1.0 / (1.0 + np.exp(-(Z @ theta))) - y)
        nu = -float(grad @ theta) / B ** 2
        assert nu > 0.0
        assert np.linalg.norm(grad + nu * theta) <= 1e-8 * np.linalg.norm(grad)


class TestExactHelpers:
    """The solver's fast helpers return the bits of the numpy calls they stand in for."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64).flatmap(
               lambda d: st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)),
           st.floats(-150.0, 150.0))
    def test_vector_norm_matches_numpy(self, entries, log_scale):
        v = np.array(entries) * 10.0 ** log_scale
        assert baselines._norm(v) == float(np.linalg.norm(v))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_model_norm_probes_share_no_state(self, d, seed):
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(2):
            A = rng.standard_normal((d + 2, d))
            problems.append((A.T @ A, rng.standard_normal(d)))
        probes = [linalg._model_norm(H, r)[2] for H, r in problems]
        mus = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 15)])
        order = rng.permutation(len(mus))
        for mu in np.concatenate([mus[order], mus[order[::-1]]]):
            # the two problems' probes alternate, each at the same mu
            for (H, r), probe in zip(problems, probes):
                lam, Q = np.linalg.eigh(H)
                x = (Q.T @ r) / (lam + mu)
                assert probe(float(mu)) == math.sqrt(float(np.dot(x, x)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.booleans())
    def test_solve_matches_numpy(self, d, seed, spd):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, d))
        if spd:  # the damped Hessians the solver passes
            A = A @ A.T + 10.0 ** rng.uniform(-12.0, 0.0) * np.eye(d)
        b = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
        x, nrm = baselines._solve(A, b)
        ref = np.linalg.solve(A, b)
        assert x.tobytes() == ref.tobytes()
        assert nrm == baselines._norm(ref)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("A", [np.zeros((1, 1)), np.ones((3, 3)),
                                   np.array([[1.0, 2.0], [2.0, 4.0]])],
                             ids=["zero", "ones", "rank_one"])
    def test_solve_raises_on_a_singular_matrix(self, A):
        b = np.ones(A.shape[0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, b)
        with pytest.raises(np.linalg.LinAlgError):
            baselines._solve(A, b)

    @staticmethod
    def n_row_objective(z, y, theta, center, matrix, inv_step):
        """The proximal objective as the n-row solver formed it on Z = z[None, :]."""
        Z = z[None, :]
        labels = np.array([float(y)])
        s = Z @ theta
        diff = theta - center
        value = float((np.logaddexp(0.0, -s) * labels
                       + np.logaddexp(0.0, s) * (1 - labels)).sum())
        value += 0.5 * inv_step * float(diff @ matrix @ diff)
        sig = np.empty_like(s)
        pos = s >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        e = np.exp(s[~pos])
        sig[~pos] = e / (1.0 + e)
        g = Z.T @ (sig - labels)
        w = sig * (1.0 - sig)
        H = Z.T @ (w[:, None] * Z)
        g = g + inv_step * (matrix @ (theta - center))
        H = H + inv_step * matrix
        return value, g, H

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 32), st.sampled_from([0, 1]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, -0.0]) | st.floats(-700.0, 700.0))
    def test_proximal_objective_matches_n_row_arithmetic(self, d, y, seed, s_target):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(d)
        if s_target == 0.0:
            theta = np.full(d, s_target)  # +0.0 or -0.0 in every entry
        else:
            theta = rng.standard_normal(d)
            theta += (s_target - z @ theta) * z / (z @ z)
        center = rng.standard_normal(d)
        A = rng.standard_normal((d, d))
        matrix = A @ A.T + 0.1 * np.eye(d)
        inv_step = float(rng.uniform(0.01, 2.0))
        value, grad_hess = baselines._proximal_objective(z, y, center, matrix, inv_step)
        g, H = grad_hess(theta)
        ref_value, ref_g, ref_H = self.n_row_objective(z, y, theta, center, matrix, inv_step)
        assert value(theta) == ref_value
        assert np.array_equal(g, ref_g)
        assert np.array_equal(H, ref_H)

    @staticmethod
    def n_row_logistic(Z, y, theta):
        """The logistic loss as computed before the single pass: two logaddexp
        passes weighted by y and 1 - y, and its own Z @ theta per call."""
        s = Z @ theta
        value = float((np.logaddexp(0.0, -s) * y + np.logaddexp(0.0, s) * (1 - y)).sum())
        s = Z @ theta
        sig = np.empty_like(s)
        pos = s >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        e = np.exp(s[~pos])
        sig[~pos] = e / (1.0 + e)
        w = sig * (1.0 - sig)
        return value, Z.T @ (sig - y), Z.T @ (w[:, None] * Z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 32), st.sampled_from(["zeros", "ones", "mixed"]),
           st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, -0.0]) | st.floats(-700.0, 700.0))
    def test_logistic_objective_matches_two_pass_arithmetic(self, n, d, labels, seed, s_max):
        rng = np.random.default_rng(seed)
        y = {"zeros": np.zeros(n), "ones": np.ones(n),
             "mixed": rng.integers(0, 2, size=n).astype(float)}[labels]
        Z = rng.standard_normal((n, d))
        if s_max == 0.0:
            thetas = [np.full(d, s_max), rng.standard_normal(d)]  # every margin +-0.0
        else:
            # margins spread over [-|s_max|, |s_max|], both signs
            theta = rng.standard_normal(d)
            targets = s_max * rng.uniform(-1.0, 1.0, size=n)
            Z += np.outer(targets - Z @ theta, theta) / (theta @ theta)
            thetas = [theta, -theta]
        value, grad_hess = baselines._logistic_objective(Z, y)
        # value and grad_hess in both orders on one theta object, then a new one
        for theta, value_first in zip(thetas, (True, False)):
            ref_value, ref_g, ref_H = self.n_row_logistic(Z, y, theta)
            if value_first:
                got_value = value(theta)
            g, H = grad_hess(theta)
            if not value_first:
                got_value = value(theta)
            assert np.float64(got_value).tobytes() == np.float64(ref_value).tobytes()
            assert g.tobytes() == ref_g.tobytes()
            assert H.tobytes() == ref_H.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 32), st.integers(0, 2**32 - 1),
           st.sampled_from(["full", "rank_deficient", "indefinite"]))
    def test_model_norm_eigenpairs_match_numpy(self, d, seed, shape):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((int(rng.integers(1, d + 1)) if shape == "rank_deficient"
                                 else d + 2, d))
        H = A.T @ A
        if shape == "indefinite":
            H -= rng.uniform(0.0, 2.0) * float(H.trace()) / d * np.eye(d)
        r = rng.standard_normal(d)
        lam, b, _ = linalg._model_norm(H, r)
        ref_lam, Q = np.linalg.eigh(H)
        assert lam.tobytes() == ref_lam.tobytes()
        assert b.tobytes() == (Q.T @ r).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("where", ["all", "lower", "diagonal"])
    def test_model_norm_raises_on_a_nan_matrix(self, where):
        H = np.eye(4) + 0.1
        if where == "all":
            H[:] = np.nan
        elif where == "lower":
            H[3, 1] = np.nan
        else:
            H[2, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(H)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._model_norm(H, np.ones(4))


class TestReadOnlyTheta:
    """The solver never writes into a theta it is given: the objectives key their
    shared work on the theta object, so a write would hand them stale margins."""

    @pytest.mark.parametrize("make", [
        lambda d: MleRewardEstimator(dim=d, fit_tol=1e-10, max_newton_iters=200),
        lambda d: ImplicitOmdRewardEstimator(dim=d, B=2.0, eta=1.0, lam=0.1),
    ], ids=["mle", "implicit"])
    def test_updates_take_a_read_only_theta(self, make):
        Z, y, _ = TestBoundarySearch.pinned_problem(seed=3, d=6, n=60)
        free, locked = make(6).reset(), make(6).reset()
        for z, label in zip(Z, y):
            free.update(z, int(label))
            locked.theta_.flags.writeable = False
            locked.update(z, int(label))
            assert locked.theta_.tobytes() == free.theta_.tobytes()
        # the fits took several Newton steps and searched the boundary
        assert max(free.newton_iters_hist_) >= 2
        assert free.boundary_counts_["boundary_searches"] > 0


class TestImplicitOmd:
    def test_zero_feature_difference_is_no_op(self):
        est = ImplicitOmdRewardEstimator(dim=3, eta=1.0, lam=1.0).reset()
        est.update(np.zeros(3), 1)
        assert np.allclose(est.theta_, np.zeros(3), atol=1e-12)

    def test_worked_1d_proximal_root(self):
        est = ImplicitOmdRewardEstimator(dim=1, B=1.0, eta=1.0, lam=1.0,
                                         inner_tol=1e-12, max_inner_iters=100).reset()
        est.update(np.array([1.0]), 1)
        root = brentq(lambda th: th - 1.0 + sigmoid(th), 0.0, 1.0, xtol=1e-15)
        assert abs(root - 0.40105813754154673) < 1e-12
        assert abs(est.theta_[0] - root) <= 1e-6

    def test_inner_tolerance_contract(self):
        rng = np.random.default_rng(5)
        est = ImplicitOmdRewardEstimator(dim=3, eta=1.0, lam=1.0,
                                         inner_tol=1e-10, max_inner_iters=200).reset()
        for _ in range(20):
            z = rng.standard_normal(3)
            y = int(rng.integers(0, 2))
            theta_prev = est.theta_.copy()
            h_prev = est.local_norm_.mat.copy()
            est.update(z, y)
            assert est.last_converged_
            # recompute the subproblem gradient mapping at the returned point
            s = float(z @ est.theta_)
            g = (sigmoid(s) - y) * z + (1.0 / est.eta_) * (h_prev @ (est.theta_ - theta_prev))
            stepped = est.theta_ - g
            nrm = np.linalg.norm(stepped)
            if nrm > est.B:
                stepped = stepped * (est.B / nrm)
            assert np.linalg.norm(est.theta_ - stepped) <= 1e-9

    def test_lookahead_accumulation(self):
        est = ImplicitOmdRewardEstimator(dim=1, eta=1.0, lam=1.0, inner_tol=1e-12).reset()
        est.update(np.array([1.0]), 1)
        theta = est.theta_[0]
        s = sigmoid(theta)
        assert abs(est.local_norm_.mat[0, 0] - (1.0 + s * (1 - s))) < 1e-9

    def test_inner_iterations_recorded(self):
        est = ImplicitOmdRewardEstimator(dim=2, inner_tol=1e-10).reset()
        est.update(np.array([1.0, 0.5]), 1)
        assert est.last_inner_iters_ >= 1

    def test_snapshot_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        est = ImplicitOmdRewardEstimator(dim=3, eta=1.0, lam=1.0).reset()
        for _ in range(15):
            est.update(rng.standard_normal(3), int(rng.integers(0, 2)))
        path = tmp_path / "implicit.json"
        est.save(path)
        loaded = ImplicitOmdRewardEstimator.load(path)
        assert loaded.t_ == est.t_
        assert np.allclose(loaded.theta_, est.theta_, atol=0)
        assert np.allclose(loaded.local_norm_.mat @ loaded.local_norm_.inv,
                           np.eye(3), atol=1e-10)
        z = rng.standard_normal(3)
        est.update(z, 1)
        loaded.update(z, 1)
        assert np.allclose(loaded.theta_, est.theta_, atol=1e-9)


class TestTimeScaling:
    def test_mle_cost_grows_and_implicit_stays_flat(self):
        rng = np.random.default_rng(7)
        d, n = 8, 900
        zs = rng.standard_normal((n, d))
        ys = rng.integers(0, 2, size=n)

        def window_means(make):
            # one copy brought to update 99, one to update n - 101, on the same
            # stream; their timed updates alternate, so host drift hits both
            # windows alike
            early, late = make().reset(), make().reset()
            for i in range(n - 101):
                if i < 99:
                    early.update(zs[i], int(ys[i]))
                late.update(zs[i], int(ys[i]))
            times = np.empty((2, 101))
            for k in range(101):
                for row, (est, i) in enumerate(((early, 99 + k), (late, n - 101 + k))):
                    start = time.perf_counter_ns()
                    est.update(zs[i], int(ys[i]))
                    times[row, k] = time.perf_counter_ns() - start
            return float(times[0].mean()), float(times[1].mean())

        early, late = window_means(lambda: MleRewardEstimator(dim=d))
        assert late / early >= 1.5

        early_i, late_i = window_means(lambda: ImplicitOmdRewardEstimator(dim=d))
        assert late_i / early_i <= 2.0
