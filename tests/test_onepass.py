import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from duelbandits import onepass
from duelbandits.baselines import (ImplicitOmdRewardEstimator, MleRewardEstimator,
                                   _logistic_objective)
from duelbandits.exceptions import NumericFailure
from duelbandits.linalg import LocalNormMatrix
from duelbandits.linkmath import sigmoid_pair
from duelbandits.onepass import (
    HvpCgRewardEstimator,
    OnePassRewardEstimator,
    confidence_radius,
    damping_value,
    project_localnorm_ball,
)


def random_pd(rng, d, lo=0.5, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T


class TestInit:
    def test_explicit_lambda(self):
        est = OnePassRewardEstimator(dim=3, B=1.0, L=1.0, eta=1.0, lam=2.0).reset()
        assert np.array_equal(est.hess_.mat, 2.0 * np.eye(3))
        assert np.array_equal(est.hess_.inv, 0.5 * np.eye(3))
        assert np.array_equal(est.theta_, np.zeros(3))
        assert est.t_ == 1

    def test_default_parameter_formulas(self):
        est = OnePassRewardEstimator(dim=4, B=1.0, L=1.0).reset()
        eta = 0.5 * math.log(2.0) + 2.0
        assert abs(est.eta_ - eta) < 1e-12
        assert abs(est.eta_ - 2.3466) < 1e-4
        lam = 84.0 * math.sqrt(2.0) * eta * 5.0
        assert abs(est.lam_ - lam) < 1e-9
        assert abs(est.lam_ - 1393.8) < 0.05

    def test_deterministic_init(self):
        a = OnePassRewardEstimator(dim=5).reset()
        b = OnePassRewardEstimator(dim=5).reset()
        assert np.array_equal(a.theta_, b.theta_)
        assert np.array_equal(a.hess_.mat, b.hess_.mat)
        assert (a.eta_, a.lam_) == (b.eta_, b.lam_)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OnePassRewardEstimator(dim=0).reset()
        with pytest.raises(ValueError):
            OnePassRewardEstimator(dim=2, B=-1.0).reset()
        with pytest.raises(ValueError):
            OnePassRewardEstimator(dim=2, radius_mode="bogus").reset()


# every estimator kind, with what it needs beyond the shared hyperparameters
KINDS = {
    "omd": (OnePassRewardEstimator, {}),
    "mle": (MleRewardEstimator, {}),
    "implicit": (ImplicitOmdRewardEstimator, {}),
    "hvpcg": (HvpCgRewardEstimator, {"horizon": 10}),
}
BAD_VALUES = [("dim", 0), ("B", 0.0), ("B", -1.0), ("L", 0.0), ("L", -1.0),
              ("eta", 0.0), ("eta", -1.0), ("lam", 0.0), ("lam", -1.0),
              ("c_beta", -0.5), ("delta", 0.0), ("delta", -0.1), ("delta", 1.5)]


class TestSharedHyperparameters:
    @pytest.mark.parametrize("kind, name, value", [
        (kind, name, value) for kind, (cls, _) in KINDS.items()
        for name, value in BAD_VALUES if name in cls._param_names()])
    def test_bad_value_rejected_at_reset(self, kind, name, value):
        cls, extra = KINDS[kind]
        params = {"dim": 3, **extra, name: value}
        with pytest.raises(ValueError, match=rf"^{name} "):
            cls(**params).reset()

    @pytest.mark.parametrize("kind", KINDS)
    def test_eta_and_lam_follow_the_closed_forms(self, kind):
        cls, extra = KINDS[kind]
        B, L, d = 1.5, 0.8, 4
        est = cls(dim=d, B=B, L=L, **extra).reset()
        eta = 0.5 * math.log(2.0) + (B * L + 1.0)
        assert est.eta_ == eta
        if "lam" not in cls._param_names():
            # hvpcg takes no lam, so none is resolved
            assert est.lam_ is None
            return
        assert est.lam_ == 84.0 * math.sqrt(2.0) * eta * (d * L**2 + B * L**3)
        if "eta" in cls._param_names():
            est = cls(dim=d, B=B, L=L, eta=2.0, **extra).reset()
            assert est.lam_ == 84.0 * math.sqrt(2.0) * 2.0 * (d * L**2 + B * L**3)
        assert cls(dim=d, B=B, L=L, lam=3.0, **extra).reset().lam_ == 3.0


def one_row_objective(theta, z, y):
    """(loss, gradient, Hessian) of the one-row logistic objective MLE minimizes."""
    value, grad_hess = _logistic_objective(np.asarray(z)[None, :], np.array([float(y)]))
    return value(theta), *grad_hess(theta)


class TestLossDerivatives:
    """One row of the logistic objective is OMD's loss: gradient (sigma - y) z, Hessian sigma' z z^T."""

    def test_zero_theta_label_one(self):
        z = np.array([0.3, -0.7])
        loss, grad, hess = one_row_objective(np.zeros(2), z, 1)
        sig, hw = sigmoid_pair(0.0)
        assert abs(loss - math.log(2.0)) < 1e-15
        assert np.allclose(grad, (sig - 1) * z, atol=1e-15)
        assert np.allclose(grad, -0.5 * z, atol=1e-15)
        assert hw == 0.25
        assert np.allclose(hess, hw * np.outer(z, z), atol=1e-15)

    def test_zero_theta_label_zero(self):
        z = np.array([0.3, -0.7])
        loss, grad, hess = one_row_objective(np.zeros(2), z, 0)
        assert abs(loss - math.log(2.0)) < 1e-15
        assert np.allclose(grad, 0.5 * z, atol=1e-15)
        assert np.allclose(hess, 0.25 * np.outer(z, z), atol=1e-15)

    def test_log3_margin(self):
        z = np.array([math.log(3.0)])
        loss, grad, hess = one_row_objective(np.array([1.0]), z, 1)
        sig, hw = sigmoid_pair(math.log(3.0))
        assert abs(loss - math.log(4.0 / 3.0)) < 1e-12
        assert np.allclose(grad, (sig - 1) * z, atol=1e-15)
        assert np.allclose(grad, -0.25 * z, atol=1e-12)
        assert abs(hw - 0.1875) < 1e-12
        assert np.allclose(hess, hw * z * z, atol=1e-15)


class TestOmdStep:
    def test_worked_first_step(self):
        est = OnePassRewardEstimator(dim=1, B=1.0, L=1.0, eta=2.0, lam=1.0).reset()
        est.update(np.array([1.0]), 1)
        assert abs(est.theta_[0] - 2.0 / 3.0) < 1e-14
        h2 = 1.0 + sigmoid_pair(2.0 / 3.0)[1]
        assert abs(est.hess_.mat[0, 0] - h2) < 1e-14
        assert abs(est.hess_.mat[0, 0] - 1.2241) < 1e-4
        assert est.t_ == 2
        assert abs(est.theta_sum_[0] - 2.0 / 3.0) < 1e-14

    def test_zero_feature_difference_is_no_op(self):
        est = OnePassRewardEstimator(dim=3, eta=1.5, lam=2.0).reset()
        est.update(np.array([0.4, 0.1, -0.2]), 1)
        theta_before = est.theta_.copy()
        mat_before = est.hess_.mat.copy()
        est.update(np.zeros(3), 0)
        assert np.array_equal(est.theta_, theta_before)
        assert np.array_equal(est.hess_.mat, mat_before)

    def test_step_is_pure_given_state_copy(self):
        rng = np.random.default_rng(1)
        est = OnePassRewardEstimator(dim=4).reset()
        for _ in range(5):
            est.update(rng.standard_normal(4), int(rng.integers(0, 2)))
        z = rng.standard_normal(4)
        a = copy.deepcopy(est)
        b = copy.deepcopy(est)
        a.update(z, 1)
        b.update(z, 1)
        assert np.array_equal(a.theta_, b.theta_)
        assert np.array_equal(a.hess_.mat, b.hess_.mat)

    def test_theta_sum_is_running_sum_of_iterates(self):
        rng = np.random.default_rng(3)
        est = OnePassRewardEstimator(dim=3, lam=1.0, eta=1.0).reset()
        iterates = []
        for _ in range(10):
            est.update(rng.standard_normal(3), int(rng.integers(0, 2)))
            iterates.append(est.theta_.copy())
        assert np.allclose(est.theta_sum_, np.sum(iterates, axis=0), atol=1e-14)
        assert est.t_ == 11
        avg = est.averaged_theta()
        assert np.allclose(avg, np.sum(iterates, axis=0) / 11, atol=1e-14)

    def test_curvature_is_lookahead_sum(self):
        # reconstruct the accumulator from scratch: lam*I plus each sample's
        # Hessian weight evaluated at the iterate produced AFTER that sample,
        # never at the one that consumed it and never with the step's
        # eta-weighted scratch term
        rng = np.random.default_rng(10)
        est = OnePassRewardEstimator(dim=4, lam=1.5, eta=2.0).reset()
        samples, iterates = [], []
        for _ in range(60):
            z = rng.standard_normal(4)
            y = int(rng.integers(0, 2))
            est.update(z, y)
            samples.append((z, y))
            iterates.append(est.theta_.copy())
        expected = 1.5 * np.eye(4)
        for (z, _), theta_next in zip(samples, iterates):
            _, hw = sigmoid_pair(float(z @ theta_next))
            expected += hw * np.outer(z, z)
        assert np.allclose(est.hess_.mat, expected, atol=1e-10)


    def test_projection_counter_counts_projections(self, monkeypatch):
        calls = []
        original = onepass.project_localnorm_ball

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(onepass, "project_localnorm_ball", counting)
        rng = np.random.default_rng(11)
        est = OnePassRewardEstimator(dim=3, B=0.2, eta=1.0, lam=0.5).reset()
        for _ in range(200):
            est.update(rng.standard_normal(3), int(rng.integers(0, 2)))
        assert 0 < est.projections_ == len(calls) < 200


def exact_omd_step(est, z, y):
    """theta - eta * (H + eta*hw*zz^T)^-1 (sig - y) z by a dense solve, and that lookahead matrix."""
    sig, hw = sigmoid_pair(float(z @ est.theta_))
    tilde = est.hess_.mat + est.eta_ * hw * np.outer(z, z)
    return est.theta_ - est.eta_ * np.linalg.solve(tilde, (sig - y) * z), tilde


class TestClosedFormStep:
    """The closed-form step is OMD's step against the lookahead norm, alone and on every row."""

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_matches_a_dense_solve_alone_and_per_row(self, d):
        rng = np.random.default_rng(d)
        B = 1.5
        singles, samples = [], []
        for k in range(3):
            est = OnePassRewardEstimator(dim=d, B=B, eta=1.0, lam=1.0).reset()
            mat = random_pd(rng, d)
            est.hess_ = LocalNormMatrix(mat, np.linalg.inv(mat))
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            if k < 2:
                est.theta_ = 0.25 * direction
                z = 0.5 * rng.standard_normal(d) / math.sqrt(d)
            else:  # on the ball's edge, stepping outward: the projection fires
                est.theta_ = 0.999 * B * direction
                z = -direction
            singles.append(est)
            samples.append((z, k % 2))
        stack = OnePassRewardEstimator.stack(singles)
        stack.update(np.array([z for z, _ in samples]), np.array([y for _, y in samples]))
        fired = []
        for k, (est, (z, y)) in enumerate(zip(singles, samples)):
            want, tilde = exact_omd_step(est, z, y)
            fired.append(np.linalg.norm(want) > B)
            if fired[-1]:
                want = project_localnorm_ball(want, tilde, B)
            est.update(z, y)
            for got in (est.theta_, stack.theta_[k]):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert fired == [False, False, True]
        assert stack.projections_.tolist() == [0, 0, 1] and singles[2].projections_ == 1

    def test_corrupted_inverse_raises_alone_and_names_the_row(self):
        d = 4
        z = np.full(d, 0.5)
        single = OnePassRewardEstimator(dim=d, lam=1.0).reset()
        single.hess_.inv = -10.0 * np.eye(d)  # negative definite: 1 + eta*hw*z.u < 0
        with pytest.raises(NumericFailure, match="Sherman-Morrison denominator") as alone:
            single.update(z, 1)
        assert single.t_ == 1 and not single.theta_.any()
        stack = OnePassRewardEstimator.stack(
            [OnePassRewardEstimator(dim=d, lam=1.0).reset() for _ in range(3)])
        stack.hess_.inv[1] = -10.0 * np.eye(d)
        with pytest.raises(NumericFailure) as stacked:
            stack.update(np.tile(z, (3, 1)), np.array([1, 1, 1]))
        assert str(stacked.value) == str(alone.value)
        assert stack.t_ == 1 and not stack.theta_.any()


class TestProjection:
    def test_interior_point_unchanged(self):
        theta = np.array([0.3, 0.2])
        out = project_localnorm_ball(theta, np.diag([4.0, 1.0]), 1.0)
        assert np.array_equal(out, theta)

    def test_identity_norm_is_euclidean(self):
        out = project_localnorm_ball(np.array([2.0, 0.0]), np.eye(2), 1.0)
        assert np.allclose(out, [1.0, 0.0], atol=1e-10)

    def test_worked_anisotropic_example(self):
        M = np.diag([4.0, 1.0])
        theta_prime = np.array([2.0, 2.0])
        out = project_localnorm_ball(theta_prime, M, 1.0)
        nu_star = brentq(lambda nu: math.hypot(8 / (4 + nu), 2 / (1 + nu)) - 1.0,
                         0.0, 100.0, xtol=1e-14)
        assert abs(nu_star - 4.571323176251141) < 1e-9
        expected = np.array([8 / (4 + nu_star), 2 / (1 + nu_star)])
        assert np.allclose(out, expected, atol=1e-6)
        resid_vec = M @ (out - theta_prime)
        nu = -float(out @ resid_vec) / float(out @ out)
        assert abs(nu - nu_star) < 1e-6
        assert np.linalg.norm(resid_vec + nu * out) <= 1e-6

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.floats(0.05, 20.0), st.floats(0.1, 6.0),
           st.integers(0, 2**32 - 1))
    def test_kkt_conditions(self, d, B, scale, seed):
        """Interior points pass; otherwise ||theta|| = B and M(theta' - theta) = nu*theta, nu >= 0."""
        rng = np.random.default_rng(seed)
        M = random_pd(rng, d, lo=0.1, hi=10.0)
        theta_prime = rng.standard_normal(d)
        theta_prime *= scale * B / np.linalg.norm(theta_prime)
        out = project_localnorm_ball(theta_prime, M, B)
        if math.sqrt(float(theta_prime @ theta_prime)) <= B:
            assert np.array_equal(out, theta_prime)
            return
        assert np.linalg.norm(out) <= B
        assert abs(np.linalg.norm(out) - B) <= 1e-10 * B
        pull = M @ (theta_prime - out)
        nu = float(out @ pull) / float(out @ out)
        assert nu >= 0.0
        scale_of = np.linalg.norm(M) * np.linalg.norm(theta_prime)
        assert np.linalg.norm(pull - nu * out) <= 1e-8 * scale_of

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.floats(0.1, 10.0), st.floats(0.0, 3.0),
           st.sampled_from(["inside", "just_outside", "far_outside"]),
           st.integers(0, 2**32 - 1))
    def test_kkt_across_conditioning(self, d, B, log10_cond, where, seed):
        """Norm matrices up to condition 1e3, points inside, at B*(1 + 1e-6) and far out."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        # eigenvalues spread log-evenly, so cond(M) is 10**log10_cond for d > 1
        eigs = rng.uniform(0.1, 10.0) * 10.0 ** (log10_cond * np.linspace(0.0, 1.0, d))
        M = q @ np.diag(eigs) @ q.T
        scale = {"inside": rng.uniform(0.0, 1.0 - 1e-9), "just_outside": 1.0 + 1e-6,
                 "far_outside": rng.uniform(2.0, 100.0)}[where]
        theta_prime = rng.standard_normal(d)
        theta_prime *= scale * B / np.linalg.norm(theta_prime)
        out = project_localnorm_ball(theta_prime, M, B)
        if where == "inside":
            assert out is not theta_prime and np.array_equal(out, theta_prime)
            return
        norm = np.linalg.norm(out)
        assert norm <= B
        assert abs(norm - B) <= 1e-10 * B
        resid_vec = M @ (out - theta_prime)
        nu = -float(out @ resid_vec) / float(out @ out)
        assert nu >= -1e-9
        # the allowance of the projection-kkt verify check
        bound = 1e-6 * (1.0 + np.linalg.norm(theta_prime) * np.linalg.norm(M))
        assert np.linalg.norm(resid_vec + nu * out) <= bound

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            project_localnorm_ball(np.ones(2), np.eye(2), 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("where", ["all", "lower", "upper", "inf"])
    def test_non_finite_norm_matrix_raises_numeric_failure(self, where):
        M = np.eye(3) + 0.1
        if where == "all":
            M[:] = np.nan
        elif where == "inf":
            M[0, 0] = np.inf
        else:  # eigh reads only the lower triangle
            M[(2, 0) if where == "lower" else (0, 2)] = np.nan
        with pytest.raises(NumericFailure, match="projection"):
            project_localnorm_ball(np.full(3, 2.0), M, 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_norm_matrix_fails_a_lone_update(self):
        est = OnePassRewardEstimator(dim=4, B=0.05, lam=1.0).reset()
        est.hess_.mat = np.full((4, 4), np.nan)  # the inverse stays finite
        with pytest.raises(NumericFailure, match="projection"):
            est.update(np.ones(4), 1)
        assert est.projections_ == 1 and est.t_ == 1 and not est.theta_.any()


class TestConfidenceRadius:
    def test_practical_zero_scale(self):
        est = OnePassRewardEstimator(dim=4, B=1.0, L=1.0, c_beta=0.0).reset()
        assert confidence_radius(5, est) == 0.0

    def test_practical_worked_value(self):
        est = OnePassRewardEstimator(dim=4, B=1.0, L=1.0, c_beta=1.0, delta=0.1).reset()
        want = math.sqrt(4 * math.log(2.0 / 0.1))
        got = confidence_radius(1, est)
        assert abs(got - want) < 1e-12
        assert abs(got - 3.462) < 1e-3

    def test_theory_nondecreasing_in_t(self):
        est = OnePassRewardEstimator(dim=5, B=1.0, L=1.0, radius_mode="theory", delta=0.1).reset()
        values = [confidence_radius(t, est) for t in (1, 10, 100, 1000)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] > 0

    def test_theory_formula_terms(self):
        # direct evaluation of the proof constant at t=1
        est = OnePassRewardEstimator(dim=2, B=1.0, L=1.0, radius_mode="theory", delta=0.5).reset()
        eta, lam = est.eta_, est.lam_
        c = 7 * eta / 6
        C = (22 * eta * (3 * math.log(3.0) + 2 + 1.0) * math.log(2 * math.sqrt(3.0) / 0.5)
             + 4 * eta
             + 2 * eta * math.sqrt(6) * c * 2 * math.log(1 + 2 * 1 / (2 * lam))
             + 4 * lam)
        assert abs(confidence_radius(1, est) - math.sqrt(C)) < 1e-12

    def test_bad_iteration_rejected(self):
        est = OnePassRewardEstimator(dim=2, B=1.0, L=1.0).reset()
        with pytest.raises(ValueError):
            confidence_radius(0, est)


class TestSnapshot:
    def test_roundtrip_and_continuation(self, tmp_path):
        rng = np.random.default_rng(6)
        est = OnePassRewardEstimator(dim=4, eta=1.0, lam=2.0).reset()
        for _ in range(50):
            est.update(rng.standard_normal(4), int(rng.integers(0, 2)))
        path = tmp_path / "state.json"
        est.save(path)
        loaded = OnePassRewardEstimator.load(path)
        assert loaded.t_ == est.t_
        assert np.allclose(loaded.theta_, est.theta_, atol=0)
        assert np.allclose(loaded.theta_sum_, est.theta_sum_, atol=0)
        assert np.allclose(loaded.hess_.mat, est.hess_.mat, atol=0)
        # inverse is recomputed, not read: it must invert the stored matrix
        assert np.allclose(loaded.hess_.mat @ loaded.hess_.inv, np.eye(4), atol=1e-10)
        z = rng.standard_normal(4)
        est.update(z, 1)
        loaded.update(z, 1)
        assert np.allclose(loaded.theta_, est.theta_, atol=1e-12)


    def test_hvpcg_roundtrip_and_continuation(self, tmp_path):
        rng = np.random.default_rng(11)
        est = HvpCgRewardEstimator(dim=4, B=2.0, horizon=100).reset()
        for _ in range(30):
            est.update(rng.standard_normal(4), int(rng.integers(0, 2)))
        path = tmp_path / "state.json"
        est.save(path)
        assert json.loads(path.read_text())["kind"] == "hvpcg"
        loaded = HvpCgRewardEstimator.load(path)
        for _ in range(30):
            z, y = rng.standard_normal(4), int(rng.integers(0, 2))
            est.update(z, y)
            loaded.update(z, y)
            assert loaded.t_ == est.t_
            assert loaded.theta_.tobytes() == est.theta_.tobytes()
            assert loaded.theta_sum_.tobytes() == est.theta_sum_.tobytes()

    @pytest.mark.parametrize("kind, params", [
        (OnePassRewardEstimator, {"B": 0.05, "lam": 1.0}),
        (HvpCgRewardEstimator, {"B": 0.05, "horizon": 100}),
    ], ids=["omd", "hvpcg"])
    def test_roundtrip_keeps_the_projection_count(self, kind, params, tmp_path):
        rng = np.random.default_rng(12)
        est = kind(dim=3, **params).reset()
        for _ in range(50):
            est.update(rng.standard_normal(3), int(rng.integers(0, 2)))
        assert est.projections_ > 0
        path = tmp_path / "state.json"
        est.save(path)
        assert kind.load(path).projections_ == est.projections_
        # a snapshot written before the count was saved loads as 0
        payload = json.loads(path.read_text())
        del payload["projections"]
        path.write_text(json.dumps(payload))
        assert kind.load(path).projections_ == 0

    @pytest.mark.parametrize("kind, params", [
        (OnePassRewardEstimator, {"eta": 1.0, "lam": 1.0}),
        (MleRewardEstimator, {"lam": 1.0}),
        (ImplicitOmdRewardEstimator, {"eta": 1.0, "lam": 1.0}),
    ], ids=["omd", "mle", "implicit"])
    def test_loaded_curvature_stays_exactly_symmetric(self, kind, params, tmp_path):
        # np.linalg.inv of the stored matrix is off-symmetric in the last bits;
        # loading must not carry that into the updates that follow
        rng = np.random.default_rng(10)
        est = kind(dim=4, **params).reset()
        for _ in range(20):
            est.update(rng.standard_normal(4) / 2.0, int(rng.integers(0, 2)))
        path = tmp_path / "state.json"
        est.save(path)
        loaded = kind.load(path)
        for _ in range(50):
            loaded.update(rng.standard_normal(4) / 2.0, int(rng.integers(0, 2)))
            mat, inv = loaded.local_norm_matrix(), loaded.inv_norm_matrix()
            assert np.array_equal(mat, mat.T)
            assert np.array_equal(inv, inv.T)


class TestHvpCg:
    def test_first_step_matches_exact_omd_in_1d(self):
        exact = OnePassRewardEstimator(dim=1, B=1.0, L=1.0, eta=2.0, lam=1.0).reset()
        exact.update(np.array([1.0]), 1)
        # horizon 1 with lambda0 = 1 puts the damping at exactly 1 = lam
        fast = HvpCgRewardEstimator(dim=1, B=1.0, L=1.0, eta=2.0, lambda0=1.0,
                                    damping="linear", horizon=1).reset()
        fast.update(np.array([1.0]), 1)
        assert abs(fast.theta_[0] - exact.theta_[0]) <= 1e-15
        assert abs(fast.theta_[0] - 2.0 / 3.0) <= 1e-15

    def test_zero_gradient_is_no_op(self):
        est = HvpCgRewardEstimator(dim=3, horizon=10).reset()
        est.update(np.zeros(3), 1)
        assert np.array_equal(est.theta_, np.zeros(3))

    def test_damping_schedule(self):
        assert damping_value(1000, 1000, 0.8, "linear") == 0.8
        assert damping_value(2000, 1000, 0.8, "linear") == 0.8
        assert abs(damping_value(500, 1000, 0.8, "linear") - 0.4) < 1e-15
        assert damping_value(1000, 1000, 0.8, "log") == 0.8
        vals = [damping_value(t, 1000, 0.8, "log") for t in (1, 10, 100, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            damping_value(1, 10, 0.8, "cubic")

    def test_iterates_stay_in_ball(self):
        rng = np.random.default_rng(7)
        est = HvpCgRewardEstimator(dim=4, B=1.0, horizon=500).reset()
        for _ in range(500):
            z = rng.standard_normal(4)
            est.update(z, int(rng.integers(0, 2)))
            assert np.linalg.norm(est.theta_) <= 1.0 + 1e-12

    def test_rescale_counter(self):
        rng = np.random.default_rng(12)
        est = HvpCgRewardEstimator(dim=4, B=2.0, horizon=300).reset()
        rescaled = 0
        for _ in range(300):
            before = est.projections_
            est.update(rng.standard_normal(4), int(rng.integers(0, 2)))
            on_boundary = abs(np.linalg.norm(est.theta_) - 2.0) <= 1e-12
            assert est.projections_ - before == int(on_boundary)
            rescaled += int(on_boundary)
        assert 0 < est.projections_ == rescaled < 300

    def test_reset_resolves_and_checks_no_lam(self):
        # at B=350 the closed-form lam would overflow kappa * lam; hvpcg forms neither
        est = HvpCgRewardEstimator(dim=3, B=350.0, horizon=10).reset()
        assert est.lam_ is None
        est.update(np.array([0.5, 0.0, 0.0]), 1)
        assert np.isfinite(est.theta_).all()

    def test_requires_horizon(self):
        with pytest.raises(ValueError):
            HvpCgRewardEstimator(dim=2).reset()

    def test_inv_norm_matrix_is_a_fresh_scaled_identity(self):
        rng = np.random.default_rng(4)
        est = HvpCgRewardEstimator(dim=5, horizon=50).reset()
        for _ in range(20):
            est.update(rng.standard_normal(5), int(rng.integers(0, 2)))
            first = est.inv_norm_matrix()
            assert first.tobytes() == (np.eye(5) / est._damping()).tobytes()
            first[:] = 0.0  # a caller may write into it; the next call is unaffected
            assert est.inv_norm_matrix().tobytes() == (np.eye(5) / est._damping()).tobytes()


class TestEstimatorSurface:
    def test_get_params_roundtrip(self):
        est = OnePassRewardEstimator(dim=3, B=2.0, c_beta=0.5)
        params = est.get_params()
        assert params["dim"] == 3 and params["B"] == 2.0 and params["c_beta"] == 0.5
        clone = OnePassRewardEstimator(**params)
        assert clone.get_params() == params

    def test_input_validation(self):
        est = OnePassRewardEstimator(dim=3).reset()
        with pytest.raises(ValueError):
            est.update(np.ones(2), 1)
        with pytest.raises(ValueError):
            est.update(np.array([np.nan, 0.0, 0.0]), 1)
        with pytest.raises(ValueError):
            est.update(np.ones(3), 2)


def sample_stream(seed, S, d, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, S, d)) / math.sqrt(d), rng.integers(0, 2, (n, S))


class TestStackedUpdate:
    """A stacked estimator steps each row exactly as that row's single estimator would."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([2, 5, 20]), st.sampled_from([0.3, 1.0]),
           st.integers(0, 2**32 - 1))
    def test_rows_match_single_estimators(self, S, d, B, seed):
        Z, Y = sample_stream(seed, S, d, 40)
        params = dict(dim=d, B=B, lam=2.0)
        singles = [OnePassRewardEstimator(**params).reset() for _ in range(S)]
        stack = OnePassRewardEstimator.stack(
            [OnePassRewardEstimator(**params).reset() for _ in range(S)])
        for z, y in zip(Z, Y):
            stack.update(z, y)
            for s, est in enumerate(singles):
                est.update(z[s], int(y[s]))
        rows = [OnePassRewardEstimator(**params) for _ in range(S)]
        stack.unstack(rows)
        for row, est in zip(rows, singles):
            assert row.t_ == est.t_ and row.projections_ == est.projections_
            for attr in ("theta_", "theta_sum_"):
                assert np.array_equal(getattr(row, attr), getattr(est, attr))
            assert np.array_equal(row.hess_.mat, est.hess_.mat)
            assert np.array_equal(row.hess_.inv, est.hess_.inv)

    def test_failed_projection_names_the_row_and_changes_nothing_else(self, monkeypatch):
        """Row 1's projection fails alone and in the stack; either counts it and keeps its state."""
        S, d = 3, 4
        single = OnePassRewardEstimator(dim=d, B=0.05, lam=1.0).reset()
        stack = OnePassRewardEstimator.stack(
            [OnePassRewardEstimator(dim=d, B=0.05, lam=1.0).reset() for _ in range(S)])
        before = (stack.theta_.copy(), stack.hess_.inv.copy(), stack.t_)

        def refuse(theta_prime, norm_mat, B):
            raise NumericFailure("projection refused")

        monkeypatch.setattr(onepass, "project_localnorm_ball", refuse)
        with pytest.raises(NumericFailure, match="projection refused"):
            single.update(np.ones(d), 0)
        assert single.projections_ == 1 and single.t_ == 1 and not single.theta_.any()
        z = np.zeros((S, d))
        z[1] = 1.0  # only row 1 takes a step long enough to leave the ball
        with pytest.raises(NumericFailure, match="projection refused"):
            stack.update(z, np.array([1, 0, 1]))
        assert stack.projections_.tolist() == [0, 1, 0]
        assert np.array_equal(stack.theta_, before[0])
        assert np.array_equal(stack.hess_.inv, before[1]) and stack.t_ == before[2]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_norm_matrix_names_the_row(self):
        """Row 1's NaN matrix fails its projection alone and in the stack, with one message."""
        S, d = 3, 4
        single = OnePassRewardEstimator(dim=d, B=0.05, lam=1.0).reset()
        single.hess_.mat[:] = np.nan  # the inverse stays finite
        with pytest.raises(NumericFailure, match="projection") as alone:
            single.update(np.ones(d), 0)
        assert single.projections_ == 1
        assert not single.theta_.any() and single.t_ == 1
        stack = OnePassRewardEstimator.stack(
            [OnePassRewardEstimator(dim=d, B=0.05, lam=1.0).reset() for _ in range(S)])
        stack.hess_.mat[1] = np.nan  # the inverses stay finite
        z = np.zeros((S, d))
        z[1] = 1.0  # only row 1 takes a step long enough to leave the ball
        with pytest.raises(NumericFailure, match="projection") as stacked:
            stack.update(z, np.array([1, 0, 1]))
        assert str(stacked.value) == str(alone.value)
        assert stack.projections_.tolist() == [0, 1, 0]
        assert not stack.theta_.any() and stack.t_ == 1

    def test_curvature_failure_after_a_projection_still_counts_it(self, monkeypatch):
        """Row 1's curvature update fails alone and in the stack, after every projection fired."""
        update = LocalNormMatrix.rank_one_update

        def refuse_ones(self, z, w, u=None, zu=None):  # row 1's sample is the all-ones z
            if (z == 1.0).all(axis=-1).any():
                raise NumericFailure("curvature refused")
            update(self, z, w, u, zu)

        monkeypatch.setattr(LocalNormMatrix, "rank_one_update", refuse_ones)
        single = OnePassRewardEstimator(dim=4, B=0.05, lam=1.0).reset()
        with pytest.raises(NumericFailure, match="curvature refused"):
            single.update(np.ones(4), 1)
        assert single.projections_ == 1 and single.t_ == 1
        assert not single.theta_.any()
        stack = OnePassRewardEstimator.stack(
            [OnePassRewardEstimator(dim=4, B=0.05, lam=1.0).reset() for _ in range(3)])
        z = np.zeros((3, 4))
        z[1], z[2] = 1.0, 0.5  # rows 1 and 2 leave the ball; row 1's curvature update fails
        with pytest.raises(NumericFailure, match="curvature refused"):
            stack.update(z, np.array([1, 1, 1]))
        assert stack.projections_.tolist() == [0, 1, 1]
        assert not stack.theta_.any() and stack.t_ == 1

    def test_stack_needs_shared_parameters(self):
        with pytest.raises(ValueError):
            OnePassRewardEstimator.stack([OnePassRewardEstimator(dim=2).reset(),
                                          OnePassRewardEstimator(dim=2, B=2.0).reset()])
