import os
from pathlib import Path

import numpy as np
import pytest

from duelbandits import make_environment, scenarios
from duelbandits.exceptions import NumericFailure
from duelbandits.onepass import OnePassRewardEstimator


class OracleEstimator:
    """Clairvoyant stand-in: theta pinned anywhere, zero confidence radius.

    Plugs into the scenario loops to check that with perfect knowledge they
    reduce to their ideal behavior (optimal policy, zero regret).
    """

    def __init__(self, theta, dim=None):
        self._theta0 = np.asarray(theta, dtype=float)
        self.dim = dim if dim is not None else self._theta0.shape[0]

    def reset(self):
        self.theta_ = self._theta0.copy()
        self.theta_sum_ = self._theta0.copy()
        self.t_ = 1
        return self

    def update(self, z, y):
        self.theta_sum_ = self.theta_sum_ + self.theta_
        self.t_ += 1

    def averaged_theta(self):
        return self.theta_

    def local_norm(self, v):
        return 0.0

    def inv_norm_matrix(self):
        return np.eye(self.dim)

    def local_norm_matrix(self):
        return None

    def radius(self):
        return 0.0


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which this process has a child still running or not reaped.

    A file sink's CSV writer is a forked child that ``_run_loop`` must join
    on every path out of a run.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {f'unreaped (pid {pid})' if pid else 'running'}")


@pytest.fixture
def default_env():
    return make_environment(5, 8, 4, seed=11)


def one_table_policy(theta, norm_inv, beta, env):
    """``pessimistic_policy(..., "enumerate")`` scoring every policy in one table.

    Each context's expansion spans every partial policy, and one np.argmax
    over all A**X values picks the answer: the reference for the blocked
    enumeration, which must pick the same policy.
    """
    phi = env.features.phi
    X, A, d = phi.shape
    lin, quad, prefix = np.zeros(1), np.zeros(1), np.zeros((1, d))
    for x in range(X):
        rows = env.rho[x] * phi[x]
        cross = (prefix @ norm_inv) @ rows.T
        lin = (lin[:, None] + rows @ theta).ravel()
        quad = (quad[:, None] + 2.0 * cross
                + np.einsum("ij,ij->i", rows @ norm_inv, rows)).ravel()
        if x < X - 1:
            prefix = (prefix[:, None, :] + rows[None, :, :]).reshape(-1, d)
    best = int(np.argmax(lin - beta * np.sqrt(np.maximum(quad, 0.0))))
    actions = np.empty(X, dtype=int)
    for x in range(X - 1, -1, -1):
        actions[x] = best % A
        best //= A
    return actions


def csv_without_wall(path):
    """A run CSV's rows with every wall_nanos cell blanked."""
    rows = [line.split(",") for line in Path(path).read_text().split("\n")]
    for row in rows[:len(rows) - 1]:
        row[1] = ""
    return rows


def fail_seed_at(monkeypatch, seed, t, message="synthetic fault"):
    """OMD's update raises NumericFailure(message) at round t of every run that holds ``seed``.

    The fault follows the environment seed: it fires in any lockstep stack
    that holds it and in its lone run, and in no run without it.
    """
    run_loop, update = scenarios._run_loop, OnePassRewardEstimator.update
    holds = []  # one entry per run in progress: does it hold the seed?

    def tracking(scenario, envs, *args, **kwargs):
        holds.append(any(env.rng_seed == seed for env in envs))
        try:
            return run_loop(scenario, envs, *args, **kwargs)
        finally:
            holds.pop()

    def faulty(self, z, y):
        if holds and holds[-1] and self.t_ == t:
            raise NumericFailure(message)
        update(self, z, y)

    monkeypatch.setattr(scenarios, "_run_loop", tracking)
    monkeypatch.setattr(OnePassRewardEstimator, "update", faulty)
