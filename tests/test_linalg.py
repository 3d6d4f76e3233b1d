import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits.exceptions import NumericFailure
from duelbandits.linalg import (
    LocalNormMatrix,
    cg_solve,
    mahalanobis_inv,
    sherman_morrison,
)


def random_pd(rng, d, lo=0.5, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T


def isotropic_samples(rng, d, T):
    for _ in range(T):
        yield rng.standard_normal(d), float(rng.random())


def three_direction_samples(rng, d, T):
    """Rows near a 3-dim subspace: the accumulated matrix reaches cond ~5e3."""
    basis = np.linalg.qr(rng.standard_normal((d, 3)))[0].T
    Z = rng.standard_normal((T, 3)) @ basis + 0.013 * rng.standard_normal((T, d))
    return zip(Z, rng.random(T).tolist())


class TestShermanMorrison:
    def test_unit_weight_basis_vector(self):
        out = sherman_morrison(np.eye(2), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(out, np.diag([0.5, 1.0]), atol=1e-15)

    def test_weight_three(self):
        out = sherman_morrison(np.eye(2), np.array([1.0, 0.0]), 3.0)
        assert np.allclose(out, np.diag([0.25, 1.0]), atol=1e-15)

    def test_zero_weight_no_op(self):
        inv = random_pd(np.random.default_rng(0), 4)
        out = sherman_morrison(inv, np.ones(4), 0.0)
        assert np.array_equal(out, inv)

    def test_output_symmetric(self):
        rng = np.random.default_rng(2)
        inv = random_pd(rng, 6)
        inv = (inv + inv.T) / 2.0  # symmetric in, symmetric out
        out = sherman_morrison(inv, rng.standard_normal(6), 2.0)
        assert np.array_equal(out, out.T)

    def test_corrupted_state_detected(self):
        with pytest.raises(NumericFailure):
            sherman_morrison(-np.eye(2), np.array([1.0, 0.0]), 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sherman_morrison(np.eye(2), np.array([1.0, 0.0]), -0.5)


class TestMahalanobisInv:
    def test_identity(self):
        assert mahalanobis_inv(np.array([1.0, 0.0]), np.eye(2)) == 1.0

    def test_diagonal(self):
        assert abs(mahalanobis_inv(np.array([1.0, 0.0]), np.diag([4.0, 1.0])) - 2.0) < 1e-15

    def test_zero_vector(self):
        assert mahalanobis_inv(np.zeros(3), np.eye(3)) == 0.0

    def test_tiny_negative_clamped(self):
        m = np.eye(2) * -1e-13
        assert mahalanobis_inv(np.array([1.0, 0.0]), m) == 0.0

    def test_clearly_negative_raises(self):
        with pytest.raises(NumericFailure):
            mahalanobis_inv(np.array([1.0, 0.0]), -np.eye(2))


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        v, resid = cg_solve(lambda p: p, b, max_iters=1, tol=0.0)
        assert np.allclose(v, b, atol=1e-15)
        assert resid == 0.0

    def test_diagonal_two_iterations(self):
        A = np.diag([1.0, 2.0])
        v, resid = cg_solve(lambda p: A @ p, np.array([1.0, 2.0]), max_iters=2, tol=0.0)
        assert np.allclose(v, [1.0, 1.0], atol=1e-12)

    def test_zero_rhs(self):
        v, resid = cg_solve(lambda p: p, np.zeros(4), max_iters=3, tol=0.0)
        assert np.array_equal(v, np.zeros(4))
        assert resid == 0.0

    def test_full_rank_matches_direct_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 21))
            A = random_pd(rng, d)
            b = rng.standard_normal(d)
            v, _ = cg_solve(lambda p: A @ p, b, max_iters=d, tol=0.0)
            ref = np.linalg.solve(A, b)
            assert np.linalg.norm(v - ref) / np.linalg.norm(ref) <= 1e-6

    def test_early_exit_on_tolerance(self):
        rng = np.random.default_rng(4)
        A = random_pd(rng, 8)
        b = rng.standard_normal(8)
        v, resid = cg_solve(lambda p: A @ p, b, max_iters=100, tol=1e-10)
        assert resid <= 1e-10

    def test_non_pd_operator_raises(self):
        with pytest.raises(NumericFailure):
            cg_solve(lambda p: -p, np.ones(3), max_iters=5, tol=0.0)

    def test_bad_max_iters(self):
        with pytest.raises(ValueError):
            cg_solve(lambda p: p, np.ones(2), max_iters=0, tol=0.0)


class TestLocalNormMatrix:
    def test_scaled_identity_init(self):
        lm = LocalNormMatrix.scaled_identity(3, 2.0)
        assert np.array_equal(lm.mat, 2.0 * np.eye(3))
        assert np.array_equal(lm.inv, 0.5 * np.eye(3))

    @pytest.mark.parametrize("d, T, samples, min_cond", [
        (8, 300, isotropic_samples, 1.0),
        (20, 100_000, three_direction_samples, 1e3),
        (100, 10_000, isotropic_samples, 1.0),
    ], ids=["d8_T300", "d20_T1e5_cond5e3", "d100_T1e4"])
    def test_paired_updates_stay_in_lockstep(self, d, T, samples, min_cond):
        rng = np.random.default_rng(5)
        lm = LocalNormMatrix.scaled_identity(d, 1.5)
        for z, w in samples(rng, d, T):
            lm.rank_one_update(z, w)
        assert np.linalg.cond(lm.mat) >= min_cond
        assert lm.inverse_drift() <= 1e-8
        prod = lm.mat @ lm.inv
        assert np.linalg.norm(prod - np.eye(d)) / np.sqrt(d) <= 1e-8
        assert np.array_equal(lm.mat, lm.mat.T)
        assert np.array_equal(lm.inv, lm.inv.T)

    def test_construction_symmetrizes_once(self):
        mat = random_pd(np.random.default_rng(8), 6)
        inv = np.linalg.inv(mat)
        lm = LocalNormMatrix(mat=mat, inv=inv)
        assert np.array_equal(lm.inv, lm.inv.T)
        assert np.array_equal(lm.inv, (inv + inv.T) / 2.0)
        assert lm.inv is not inv and lm.mat is not mat

    def test_norms(self):
        lm = LocalNormMatrix(mat=np.diag([4.0, 1.0]), inv=np.diag([0.25, 1.0]))
        v = np.array([1.0, 0.0])
        assert abs(lm.norm(v) - 2.0) < 1e-15
        assert abs(mahalanobis_inv(v, lm.inv) - 0.5) < 1e-15

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            LocalNormMatrix.scaled_identity(0, 1.0)
        with pytest.raises(ValueError):
            LocalNormMatrix.scaled_identity(2, 0.0)


def stacked_inputs(seed, S, d):
    """S curvature pairs, one z and one weight per row; about a quarter of the weights are 0."""
    rng = np.random.default_rng(seed)
    mats = np.stack([random_pd(rng, d) for _ in range(S)])
    invs = np.linalg.inv(mats)
    z = rng.standard_normal((S, d))
    w = rng.uniform(0.0, 2.0, S)
    w[rng.random(S) < 0.25] = 0.0
    return mats, invs, z, w


class TestStackedKernels:
    """A stack of S rows gets exactly the bits each row gets on its own."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([2, 5, 20]), st.integers(0, 2**32 - 1))
    def test_stack_equals_per_row_calls(self, S, d, seed):
        mats, invs, z, w = stacked_inputs(seed, S, d)
        u = np.matvec(invs, z)
        inverse = sherman_morrison(invs, z, w, u, np.vecdot(z, u))
        sm = sherman_morrison(invs, z, w)
        stack = LocalNormMatrix(mats, invs)
        stack.rank_one_update(z, w)
        norms = stack.norm(z)
        for s in range(S):
            u_s = invs[s] @ z[s]
            assert np.array_equal(inverse[s], sherman_morrison(invs[s], z[s], float(w[s]),
                                                               u_s, float(z[s] @ u_s)))
            assert np.array_equal(sm[s], sherman_morrison(invs[s], z[s], float(w[s])))
            single = LocalNormMatrix(mats[s], invs[s])
            single.rank_one_update(z[s], float(w[s]))
            assert np.array_equal(stack.mat[s], single.mat)
            assert np.array_equal(stack.inv[s], single.inv)
            assert norms[s] == single.norm(z[s])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([2, 5, 20]), st.integers(0, 2**32 - 1),
           st.data())
    def test_bad_denominator_names_the_row(self, S, d, seed, data):
        _, invs, z, w = stacked_inputs(seed, S, d)
        bad = data.draw(st.integers(0, S - 1))
        u = np.matvec(invs, z)
        zu = np.vecdot(z, u)
        zu[bad] = -1.0 / max(w[bad], 0.5) - 1.0  # 1 + w*zu < 0 for that row
        w[bad] = max(w[bad], 0.5)
        with pytest.raises(NumericFailure) as stacked:
            sherman_morrison(invs, z, w, u, zu)
        with pytest.raises(NumericFailure) as single:
            sherman_morrison(invs[bad], z[bad], float(w[bad]), u[bad], float(zu[bad]))
        assert str(stacked.value) == str(single.value)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 7, 20]), st.integers(1, 24), st.integers(0, 2**32 - 1),
           st.sampled_from(["scalar", "per_row", "some_zero"]))
    def test_sherman_morrison_stack_matches_rows_and_fresh_inverse(self, S, d, seed, weights):
        mats, invs, z, w = stacked_inputs(seed, S, d)
        invs = (invs + invs.swapaxes(-1, -2)) / 2.0  # symmetric in, symmetric out
        rng = np.random.default_rng(seed + 1)
        if weights == "scalar":
            w = float(rng.uniform(0.1, 2.0))
        elif weights == "per_row":
            w = rng.uniform(0.1, 2.0, S)
        else:
            w[rng.integers(S)] = 0.0
        sm = sherman_morrison(invs, z, w)
        row_w = np.broadcast_to(w, (S,))
        for s in range(S):
            assert np.array_equal(sm[s], sherman_morrison(invs[s], z[s], float(row_w[s])))
            # a zero-weight row is a plain copy; every updated row is exactly symmetric
            assert np.array_equal(sm[s], invs[s] if row_w[s] == 0 else sm[s].T)
            fresh = np.linalg.inv(mats[s] + row_w[s] * np.outer(z[s], z[s]))
            assert np.linalg.norm(sm[s] - fresh) <= 1e-10 * np.linalg.norm(fresh)

    def test_negative_quadratic_form_names_the_row(self):
        """A stack holding row 1's indefinite matrix fails with row 1's own message."""
        mats = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericFailure) as stacked:
            mahalanobis_inv(v, mats)
        with pytest.raises(NumericFailure) as single:
            mahalanobis_inv(v[1], mats[1])
        assert str(stacked.value) == str(single.value)

    def test_stack_and_rows_round_trip(self):
        rng = np.random.default_rng(3)
        singles = [LocalNormMatrix(m, np.linalg.inv(m)) for m in (random_pd(rng, 3) for _ in range(4))]
        stack = LocalNormMatrix.stack(singles)
        assert stack.mat.shape == (4, 3, 3) and stack.dim == 3
        for k, single in enumerate(singles):
            assert np.array_equal(stack[k].mat, single.mat)
            assert np.array_equal(stack[k].inv, single.inv)
