import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits.baselines import _logistic_objective
from duelbandits.linkmath import (
    _sigmoid,
    bt_sample,
    kappa_bound,
    sigmoid_pair,
)


class TestSigmoidPair:
    def test_at_zero(self):
        assert sigmoid_pair(0.0) == (0.5, 0.25)

    def test_at_log3(self):
        s, ds = sigmoid_pair(math.log(3))
        assert abs(s - 0.75) < 1e-15
        assert abs(ds - 0.1875) < 1e-15

    def test_at_minus_log3(self):
        s, ds = sigmoid_pair(-math.log(3))
        assert abs(s - 0.25) < 1e-15
        assert abs(ds - 0.1875) < 1e-15

    def test_extreme_arguments_stay_finite(self):
        for w in (700.0, -700.0, 500.0, -500.0):
            s, ds = sigmoid_pair(w)
            assert 0.0 <= s <= 1.0
            assert 0.0 <= ds <= 0.25
            assert math.isfinite(s) and math.isfinite(ds)
        assert sigmoid_pair(700.0)[0] == 1.0
        assert sigmoid_pair(-700.0)[0] > 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            sigmoid_pair(bad)


class TestStackedSigmoid:
    """An array of arguments gives each entry the bits of the scalar call."""

    ARGS = st.one_of(st.floats(-700.0, 700.0),
                     st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                      -2.2250738585072014e-308, 700.0, -700.0]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ARGS, min_size=1, max_size=12), st.data())
    def test_bits_equal_scalar_path(self, ws, data):
        bits = lambda values: np.asarray(values, dtype=float).view(np.int64).tolist()
        s, ds = sigmoid_pair(np.array(ws))
        assert bits(s) == bits([_sigmoid(w) for w in ws])
        assert bits(ds) == bits([sigmoid_pair(w)[1] for w in ws])
        us = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                min_size=len(ws), max_size=len(ws)))
        labels = bt_sample(np.array(ws), np.zeros(len(ws)), np.array(us))
        assert labels.dtype == np.int64
        assert labels.tolist() == [int(u < _sigmoid(w)) for w, u in zip(ws, us)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            sigmoid_pair(np.array([0.5, bad]))
        with pytest.raises(ValueError):
            bt_sample(np.array([0.5, bad]), np.zeros(2), np.full(2, 0.5))


def logistic_loss(w, y):
    """The logistic loss at margin w: one row of the objective MLE minimizes, at theta = 1."""
    value, _ = _logistic_objective(np.array([[w]]), np.array([float(y)]))
    return value(np.ones(1))


class TestLogLoss:
    def test_matches_naive_formula(self):
        # naive form loses precision past |w| ~ 10 (1 - sigma cancels), so the
        # comparison stays where the oracle itself is trustworthy
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = float(rng.uniform(-10, 10))
            y = int(rng.integers(0, 2))
            s = 1 / (1 + math.exp(-w))
            naive = -y * math.log(s) - (1 - y) * math.log(1 - s)
            assert abs(logistic_loss(w, y) - naive) < 1e-9

    def test_stable_at_extremes(self):
        assert math.isfinite(logistic_loss(700.0, 0))
        assert math.isfinite(logistic_loss(-700.0, 1))
        assert abs(logistic_loss(700.0, 1)) < 1e-300


class TestBtSample:
    def test_equal_rewards_frequency(self):
        rng = np.random.default_rng(2)
        freq = sum(bt_sample(1.3, 1.3, rng) for _ in range(100_000)) / 100_000
        assert 0.49 <= freq <= 0.51

    def test_log3_gap_frequency(self):
        rng = np.random.default_rng(3)
        freq = sum(bt_sample(math.log(3), 0.0, rng) for _ in range(100_000)) / 100_000
        assert 0.74 <= freq <= 0.76

    def test_huge_gap_always_prefers_first(self):
        rng = np.random.default_rng(4)
        assert all(bt_sample(50.0, 0.0, rng) == 1 for _ in range(1000))

    def test_rejects_nonfinite(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bt_sample(float("nan"), 0.0, rng)

    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.integers(0, 2**32 - 1))
    def test_float_draw_gives_the_generator_label(self, reward_a, reward_b, seed):
        want = bt_sample(reward_a, reward_b, np.random.default_rng(seed))
        u = np.random.default_rng(seed).random()
        assert bt_sample(reward_a, reward_b, u) == want
        # the scenario loops read their draws from an array, as numpy floats
        assert bt_sample(np.float64(reward_a), np.float64(reward_b), np.float64(u)) == want


class TestKappa:
    def test_bound_closed_form(self):
        assert abs(kappa_bound(1.0, 1.0) - (3.0 + math.exp(2.0))) < 1e-12
        assert abs(kappa_bound(1.0, 1.0) - 10.3891) < 1e-4

    def test_bound_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kappa_bound(0.0, 1.0)
