"""The three online preference-learning loops and their metrics.

Passive: pairs arrive from the environment's behavior distribution; the final
policy maximizes a pessimism-penalized value. Active: the learner queries the
pair with the largest uncertainty norm and plays the averaged-parameter greedy
policy. Deployment: contexts arrive online, the learner plays a greedy action
plus an exploration-bonused partner and pays dueling regret against the
optimal action.

Each scenario runs one seed, or equal-length sequences of environments and
estimators, through one round loop, ``_run_loop``, a group of seeds at a
time (``_run_groups``). Several seeds whose estimator has a stacked update
(``stack``/``unstack``) form one lockstep group: one round advances every
seed, and one update call steps them all. Any other seed is a group of its
own, indexed by the int 0 so that its rounds work on plain (d,) vectors. A
lockstep group is all or nothing: a stack that fails runs again seed by seed.
Each scenario builds one chooser per group from stacked tables. Every seed's
record is exactly the one it would get alone.

The rounds go to one sink per group, in memory or to CSV files. Either sink
feeds the group's ``diagnostics.RunChecks``, so every seed's summary carries
its ``diagnostics``, whichever sink it ran with.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import RunChecks, diagnostics_report, norm_domination_check
from .environment import Environment, Policy, draw_passive_pair
from .exceptions import NumericFailure
from .linkmath import bt_sample, kappa_bound

CSV_COLUMNS = (
    "t", "wall_nanos", "est_err_l2", "est_err_local", "beta",
    "cum_regret", "subopt_checkpoint", "x", "a", "a_prime", "y", "flags",
)

ENUMERATE_BUDGET = 10**6
ENUMERATE_ROWS = 1024
LAZY_CANDIDATES = 32
CSV_BLOCK_ROWS = 256
DOMINATION_AUDIT_POINTS = (100, 1000)


_FLOAT_COLUMNS = frozenset(("est_err_l2", "est_err_local", "beta", "cum_regret",
                            "subopt_checkpoint"))


# preformatted cells for small non-negative ids (contexts, actions, labels, early t)
_ID_CELLS = tuple(map(str, range(1024)))


def _csv_cells(name: str, values: np.ndarray) -> list:
    """One column's cells: str of each id, repr of each float with NaN as an empty cell."""
    if name in _FLOAT_COLUMNS:
        return [repr(v) if v == v else "" for v in values.tolist()]
    ids, n = _ID_CELLS, len(_ID_CELLS)
    return [ids[v] if -1 < v < n else str(v) for v in values.tolist()]


@dataclass
class RunRecord:
    """Per-iteration log of one scenario run plus its summary.

    A run's records keep x, a, a' and y in the narrowest unsigned type that
    holds its ids, and share t, beta and every column the run never writes
    as read-only views. A record that a file sink wrote holds no rounds:
    they are in its CSV.
    """

    scenario: str
    seed: int
    T: int
    t: Optional[np.ndarray] = None
    wall_nanos: Optional[np.ndarray] = None
    est_err_l2: Optional[np.ndarray] = None
    est_err_local: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    cum_regret: Optional[np.ndarray] = None
    subopt_checkpoint: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    a_prime: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    flags: Optional[List[str]] = None
    summary: dict = field(default_factory=dict)

    def __len__(self) -> int:
        """The rounds the seed completed; a record without rounds counts them in its summary."""
        return self.summary["completed"] if self.t is None else len(self.t)

    def write_csv(self, path, shared: Optional[dict] = None, append: bool = False) -> None:
        """One row per iteration, after a header line, or after the file's rows with ``append``.

        Cells are formatted a column at a time, all rows in one pass: a file
        sink hands over one block of rounds. ``shared`` holds the preformatted
        cells of columns this record has in common with others.
        """
        shared = shared or {}
        columns = [shared[name] if name in shared else _csv_cells(name, getattr(self, name))
                   for name in CSV_COLUMNS[:-1]]
        lines = [] if append else [",".join(CSV_COLUMNS)]
        lines += map(",".join, zip(*columns, self.flags))
        lines.append("")
        with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines))

    def z_rows(self, env: Environment) -> np.ndarray:
        """Reconstruct the played z sequence from the logged tuple ids."""
        phi = env.features.phi
        return phi[self.x, self.a] - phi[self.x, self.a_prime]


FLAGS = ("", "inner_nonconverged", "update_failed")
_SEED_COLUMNS = ("wall_nanos", "est_err_l2", "est_err_local", "cum_regret",
                 "subopt_checkpoint", "x", "a", "a_prime", "y")


class MemorySink:
    """The rounds of one ``_run_loop`` run, kept whole: (S, T) columns, one RunRecord per seed.

    A sink holds ``width`` rounds of the CSV's columns, one row per seed;
    round i lives at column i - ``base``. ``put(hi)`` closes the open block's
    rounds lo..hi-1 (lo is 0 at first), opens the next at hi, and streams what
    a summary reads: rounds completed, the ``wall_nanos`` sum, flag counts
    (``flags`` holds indices into FLAGS) and the run's ``RunChecks``, fed the
    block in one call. Given ``regret(rows, x, a, a')``, what rounds paid
    (deploy), it fills ``cum_regret`` a block at a time: the running total
    goes in front of the block's ``np.cumsum``, so the bits are those of one
    sum over the run. This sink is as wide as the run; ``_run_loop`` puts its
    blocks as it puts a file sink's.

    x, a, a' and y take the narrowest unsigned type that holds the ids. A
    column the same for every seed is kept once, read-only, and every record
    views it: t, beta (a stack reads one radius per round) and a NaN
    broadcast for each column the run never writes.
    """

    base = lo = 0  # the round at column 0, and the first round of the open block

    def __init__(self, scenario: str, envs: Sequence[Environment], T: int,
                 checkpoints: bool, regret: Optional[Callable], width: Optional[int] = None):
        self.scenario, self.seeds, self.T = scenario, [env.rng_seed for env in envs], T
        width = T if width is None else width
        contexts, actions = envs[0].features.phi.shape[:2]
        S, shape = len(self.seeds), (len(self.seeds), width)
        self.t = np.arange(1, width + 1, dtype=np.int64)
        self.t.flags.writeable = False
        nan = np.broadcast_to(np.nan, shape)
        self.cum_regret = nan if regret is None else np.full(shape, np.nan)
        self.subopt_checkpoint = np.full(shape, np.nan) if checkpoints else nan
        self.beta = np.full(width, np.nan)
        self.wall_nanos = np.zeros(shape, dtype=np.int64)
        self.est_err_l2 = np.full(shape, np.nan)
        self.est_err_local = np.full(shape, np.nan)
        self.x = np.zeros(shape, dtype=np.min_scalar_type(contexts - 1))
        self.a = np.zeros(shape, dtype=np.min_scalar_type(actions - 1))
        self.a_prime = np.zeros_like(self.a)
        self.y = np.zeros(shape, dtype=np.uint8)
        self.flags = np.zeros(shape, dtype=np.uint8)
        self.n = 0  # the rounds put so far, the same for every seed
        self.wall_ns = np.zeros(S, dtype=np.int64)
        self.flag_counts = np.zeros((S, len(FLAGS)), dtype=np.int64)
        # the running regret: -0.0 is the exact identity of +, and a first
        # update that fails leaves 0.0
        self.pay, self.regret = regret, None if regret is None else np.full(S, -0.0)
        self.rows = np.arange(S)[:, None]
        self.checks = RunChecks(envs, T)

    def put(self, hi: int) -> slice:
        """Close the open block's rounds lo..hi-1 and open one at hi; returns their columns."""
        cols = slice(self.lo - self.base, hi - self.base)
        if self.pay is not None:  # a round whose update failed pays nothing and shows NaN
            failed = self.flags[:, cols] == FLAGS.index("update_failed")
            paid = np.where(failed, 0.0, self.pay(self.rows, self.x[:, cols], self.a[:, cols],
                                                  self.a_prime[:, cols]))
            total = np.cumsum(np.concatenate((self.regret[:, None], paid), axis=1), axis=1)
            self.regret[:] = total[:, -1]
            self.cum_regret[:, cols] = np.where(failed, np.nan, total[:, 1:])
        self.n = self.lo = hi
        self.wall_ns += self.wall_nanos[:, cols].sum(axis=1)
        self.flag_counts += (self.flags[:, cols, None] == range(len(FLAGS))).sum(axis=1)
        self.checks.feed(self.t[cols], self.x[:, cols], self.a[:, cols], self.a_prime[:, cols],
                         self.est_err_local[:, cols], self.beta[cols], self.wall_nanos[:, cols])
        return cols

    def _record(self, s: int, cols: slice) -> RunRecord:
        return RunRecord(self.scenario, self.seeds[s], self.T,
                         t=self.t[cols], beta=self.beta[cols],
                         flags=[FLAGS[f] for f in self.flags[s, cols].tolist()],
                         **{name: getattr(self, name)[s, cols] for name in _SEED_COLUMNS})

    def record(self, s: int) -> RunRecord:
        """Seed s's record, cut at the rounds it completed; beta turns read-only here."""
        self.beta.flags.writeable = False
        return self._record(s, slice(0, self.n))

    def wall(self, s: int) -> np.ndarray:
        """Seed s's ``wall_nanos`` column: the timing windows of a seed that stopped early."""
        return self.wall_nanos[s, :self.n]


class FileSink(MemorySink):
    """The rounds of one ``_run_loop`` run, streamed to one CSV per seed: memory flat in T.

    ``path`` names a seed's CSV with ``{}`` for the seed; ``runner.run_experiment``
    renames it once the run set is done, so a run cut short leaves no CSV
    that looks complete. Each closed block of CSV_BLOCK_ROWS rounds is
    appended to the seeds' files through ``RunRecord.write_csv``, the shared
    columns formatted once, and its buffer is then reused for the rounds from
    the next block's first (``base``). A seed's record holds no rounds.
    """

    def __init__(self, path: str, scenario: str, envs: Sequence[Environment], T: int,
                 checkpoints: bool, regret: Optional[Callable]):
        super().__init__(scenario, envs, T, checkpoints, regret, width=CSV_BLOCK_ROWS)
        self.shared = ("t", "beta") + tuple(name for name in ("cum_regret", "subopt_checkpoint")
                                            if not getattr(self, name).flags.writeable)
        self.paths = [path.format(seed) for seed in self.seeds]
        for s, file in enumerate(self.paths):
            self._record(s, slice(0, 0)).write_csv(file)

    def put(self, hi: int) -> slice:
        cols = super().put(hi)
        records = [self._record(s, cols) for s in range(len(self.paths))]
        shared = {name: _csv_cells(name, getattr(records[0], name)) for name in self.shared}
        for path, rec in zip(self.paths, records):
            rec.write_csv(path, shared, append=True)
        self.base = hi
        self.t = np.arange(hi + 1, hi + 1 + CSV_BLOCK_ROWS, dtype=np.int64)
        self.wall_nanos.fill(0)
        self.flags.fill(0)
        if "subopt_checkpoint" not in self.shared:
            self.subopt_checkpoint.fill(np.nan)
        return cols

    def record(self, s: int) -> RunRecord:
        return RunRecord(self.scenario, self.seeds[s], self.T)

    def wall(self, s: int) -> np.ndarray:
        """Seed s's ``wall_nanos`` column, read back from its CSV."""
        with open(self.paths[s], encoding="utf-8") as fh:
            next(fh)
            return np.array([int(line.split(",", 2)[1]) for line in fh], dtype=np.int64)


def default_checkpoints(T: int) -> Tuple[int, ...]:
    """Powers of two up to T, plus T itself."""
    points = set()
    k = 1
    while k <= T:
        points.add(k)
        k *= 2
    if T >= 1:
        points.add(T)
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# policies and metrics


def greedy_policy(theta: np.ndarray, env: Environment) -> Policy:
    """Per-context argmax of estimated reward; ties go to the lowest action id."""
    return Policy(np.argmax(env.features.phi @ theta, axis=1))


def subopt(policy: Policy, env: Environment) -> float:
    """Expected true-reward shortfall of the policy against the optimal one."""
    r = env.rewards()
    idx = np.arange(env.features.num_contexts)
    gap = r[idx, np.argmax(r, axis=1)] - r[idx, policy.action_of]
    return float(np.dot(env.rho, gap))


def _quad_forms(rows: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise z M z^T: one BLAS product, then a row dot (per leading index on a stack)."""
    return np.einsum("...ij,...ij->...i", rows @ M, rows)


def _penalized_norms(rows: np.ndarray, norm_inv: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_quad_forms(rows, norm_inv), 0.0))


def pessimistic_value(policy: Policy, theta: np.ndarray, norm_inv: np.ndarray,
                      beta: float, env: Environment) -> float:
    """Pessimism-penalized value of a policy: Phi(pi).theta - beta*||Phi(pi)||_inv."""
    phi = env.features.phi
    avg = np.einsum("x,xd->d", env.rho,
                    phi[np.arange(env.features.num_contexts), policy.action_of])
    return float(avg @ theta) - beta * float(_penalized_norms(avg[None, :], norm_inv)[0])


def pessimistic_policy(theta: np.ndarray, norm_inv: np.ndarray, beta: float,
                       env: Environment, mode: str = "enumerate") -> Policy:
    """Maximize the pessimism-penalized value over deterministic policies.

    ``enumerate`` is exact but costs num_actions**num_contexts evaluations;
    ``greedy_percontext`` maximizes per context independently, which ignores
    the coupling the penalty norm introduces across contexts and is therefore
    an approximation. Ties resolve to the lowest action ids in both modes.
    """
    phi = env.features.phi
    X, A, d = phi.shape
    if mode == "greedy_percontext":
        actions = np.empty(X, dtype=int)
        for x in range(X):
            scores = phi[x] @ theta - beta * _penalized_norms(phi[x], norm_inv)
            actions[x] = int(np.argmax(scores))
        return Policy(actions)
    if mode != "enumerate":
        raise ValueError(f"mode must be 'enumerate' or 'greedy_percontext', got {mode!r}")
    n_policies = A**X
    if n_policies > ENUMERATE_BUDGET:
        raise ValueError(
            f"enumerate mode would scan {n_policies} policies (> {ENUMERATE_BUDGET}); "
            "use mode='greedy_percontext'"
        )
    # Expand the table one context at a time, carrying each partial policy's
    # linear value and quadratic form, q(p + r) = q(p) + 2 (p M).r + r M r^T,
    # so the full A**X x d table of averaged features is never formed. Whole
    # levels are expanded while the next holds at most ENUMERATE_ROWS partial
    # policies (at most X - 2 levels); the rest are walked a block of head rows
    # at a time, so no (rows, d) level a block forms exceeds that budget
    # either, and the last level a slice of the block's rows at a time, so no
    # (rows, A) array exceeds ENUMERATE_ROWS * d entries. Walking in order, a
    # running argmax keeps np.argmax's answer: the first maximum, or the first
    # NaN.
    def expand(lin, quad, prefix, x):
        rows = env.rho[x] * phi[x]
        cross = (prefix @ norm_inv) @ rows.T
        lin = (lin[:, None] + rows @ theta).ravel()
        cross *= 2.0  # in place: quad + 2 cross + r M r^T, the bits of one expression
        cross += quad[:, None]
        cross += _quad_forms(rows, norm_inv)
        quad = cross.ravel()
        if x < X - 1:
            prefix = (prefix[:, None, :] + rows[None, :, :]).reshape(-1, d)
        return lin, quad, prefix

    head = 0
    while head < X - 2 and A ** (head + 1) <= ENUMERATE_ROWS:
        head += 1
    table = np.zeros(1), np.zeros(1), np.zeros((1, d))
    for x in range(head):
        table = expand(*table, x)
    size = max(1, ENUMERATE_ROWS // A ** (X - head - 1))
    step = max(1, ENUMERATE_ROWS * d // A)

    # one slice of the last level: its first argmax and value. A function of its
    # own, so that a slice's arrays are freed before the next slice forms
    def slice_max(lin, quad, prefix):
        lin, quad, _ = expand(lin, quad, prefix, X - 1)
        values = lin - beta * np.sqrt(np.maximum(quad, 0.0))
        k = int(np.argmax(values))
        return k, values[k]

    def slice_maxima():  # (policy index, value) of each slice's first maximum, in policy order
        for lo in range(0, len(table[0]), size):
            block = tuple(column[lo:lo + size] for column in table)
            for x in range(head, X - 1):
                block = expand(*block, x)
            for p in range(0, len(block[0]), step):
                k, value = slice_max(*(column[p:p + step] for column in block))
                yield (lo * A ** (X - head - 1) + p) * A + k, value

    best, best_value = 0, None
    for index, value in slice_maxima():
        if best_value is None or not value <= best_value:
            best, best_value = index, value
            if best_value != best_value:
                break
    actions = np.empty(X, dtype=int)
    for x in range(X - 1, -1, -1):
        actions[x] = best % A
        best //= A
    return Policy(actions)


def _certified_argmax(pair_diffs: np.ndarray, norm_inv: np.ndarray, memo: dict) -> np.ndarray:
    """The index the full scan's argmax returns, usually from LAZY_CANDIDATES rows.

    A full scan keeps in ``memo`` the top candidates, the largest form outside
    them (``bound``) and an error ``unit`` = 16 d^2 eps R^2 m, with R^2 the
    largest squared row norm and m the largest |entry| of norm_inv. Each
    computed form is within 2 d^2 eps R^2 m of its exact value, and each
    rank-one downdate of a kept inverse moves a form by at most 2 d eps R^2 m
    beyond its exact change. In exact arithmetic no form grows between calls,
    since every estimator only adds curvature, so last scan's forms bound
    this call's from above up to ``slack`` = (rounds + 4) * unit. The best
    candidate is returned only when it beats the second candidate and
    ``bound`` by more than 2 * slack; it is then the unique maximum of a full
    scan. Otherwise, exact ties included, a full scan runs and refreshes the
    memo. On a stack the memo holds one entry per seed and a full scan covers
    every seed.
    """
    if memo:
        memo["rounds"] += 1
        forms = _quad_forms(memo["rows"], norm_inv)
        scale = 2.0 * (memo["rounds"] + 4)
        picks = []
        for values, cand, bound, unit in zip(forms.reshape(-1, LAZY_CANDIDATES).tolist(),
                                             memo["cand"], memo["bound"], memo["unit"]):
            second, best = sorted(values)[-2:]
            margin = scale * unit
            # a NaN or infinite form leaves the sum non-finite: the full scan handles it
            if not (best - second > margin and best > bound + margin
                    and math.isfinite(sum(values))):
                break
            picks.append(cand[values.index(best)])
        else:
            return np.array(picks).reshape(forms.shape[:-1])
    forms = _quad_forms(pair_diffs, norm_inv)
    cut = forms.shape[-1] - LAZY_CANDIDATES
    # position cut - 1 holds the largest form outside the candidates after it
    order = np.argpartition(forms, cut - 1, axis=-1)
    cand = order[..., cut:]
    d = norm_inv.shape[-1]
    unit = (16.0 * d * d * np.finfo(float).eps
            * np.einsum("...ij,...ij->...i", pair_diffs, pair_diffs).max(axis=-1)
            * np.abs(norm_inv).max(axis=(-2, -1)))
    memo.update(
        rounds=0,
        rows=np.take_along_axis(pair_diffs, cand[..., None], axis=-2),
        cand=cand.reshape(-1, LAZY_CANDIDATES).tolist(),
        bound=np.take_along_axis(forms, order[..., cut - 1:cut], axis=-1).ravel().tolist(),
        unit=np.ravel(unit).tolist(),
    )
    return forms.argmax(axis=-1)


def select_most_uncertain(pair_diffs: np.ndarray, norm_inv: np.ndarray,
                          pairs: Sequence[Tuple[int, int]], memo: Optional[dict] = None):
    """Scan for the (x, a, a') tuple with the largest uncertainty norm.

    ``pair_diffs`` and ``pairs`` are an environment's ``pair_diffs()`` and
    ``action_pairs()``: unordered pairs a < a' only, since the norm is
    symmetric in the two actions. Ties resolve to the lexicographically
    smallest tuple. On a lockstep stack, pair_diffs is (S, P, d) and norm_inv
    (S, d, d), and x, a, a' come back as (S,) arrays.

    ``memo`` is an initially empty dict that one run passes on every call
    with the same pair table, while norm_inv only ever loses curvature (it
    never grows in the PSD order). The scan then re-scores only the top
    candidates of the last full scan and returns the full scan's tuple
    exactly (``_certified_argmax``). Without a memo, and for tables of at most
    2 * LAZY_CANDIDATES pairs, every call scores every pair.
    """
    if memo is None or pair_diffs.shape[-2] <= 2 * LAZY_CANDIDATES:
        idx = _quad_forms(pair_diffs, norm_inv).argmax(axis=-1)
    else:
        idx = _certified_argmax(pair_diffs, norm_inv, memo)
    if idx.ndim == 0:
        x, rest = divmod(int(idx), len(pairs))
        return (x, *np.asarray(pairs[rest]).tolist())
    x, rest = np.divmod(idx, len(pairs))
    a, b = np.asarray(pairs)[rest].T
    return x, a, b


def select_deploy_actions(theta: np.ndarray, norm_inv: np.ndarray, beta: float,
                          phi_x: np.ndarray, explore_coeff: float = 1.0):
    """Greedy first action; second maximizes reward plus distance-to-first bonus.

    ``phi_x`` holds the (actions, d) features of the arrived context. The
    second argmax ranges over every action including the first, so a zero
    bonus collapses to playing the greedy action twice. On a lockstep stack,
    theta is (S, d), norm_inv (S, d, d) and phi_x (S, actions, d), and the two
    actions come back as (S,) arrays.
    """
    if theta.ndim == 1:
        scores = phi_x @ theta
        a = int(scores.argmax())
        bonus = explore_coeff * beta * _penalized_norms(phi_x - phi_x[a], norm_inv)
        return a, int((scores + bonus).argmax())
    scores = np.matvec(phi_x, theta)
    a = scores.argmax(axis=-1)
    greedy = phi_x[np.arange(len(a)), a][:, None, :]
    bonus = explore_coeff * beta * _penalized_norms(phi_x - greedy, norm_inv)
    return a, (scores + bonus).argmax(axis=-1)


# ---------------------------------------------------------------------------
# run loops


# the estimators whose curvature matrix is lam*I plus lookahead Hessians; MLE's
# is the scatter matrix V itself, and hvpcg forms none
_AUDITED_KINDS = ("onepass", "implicit")


class _DominationAudit:
    """Tracks V_t = kappa*lam*I + sum z z^T per seed and spot-checks H >= V/kappa.

    The scatter sums of all seeds are one (S, d, d) stack; a check reads each
    seed's H from its own estimator, which the loop has brought up to date.
    """

    def __init__(self, estimators, envs: Sequence[Environment], T: int):
        self.records: List[List[dict]] = [[] for _ in estimators]
        if getattr(estimators[0], "kind", None) not in _AUDITED_KINDS:
            self.points = frozenset()
            return
        self.lams = [est.lam_ for est in estimators]
        self.kappas = [kappa_bound(env.truth.B, env.truth.L) for env in envs]
        dim = envs[0].features.dim
        self.v_sum = np.zeros((len(envs), dim, dim))
        self.points = frozenset(p for p in (*DOMINATION_AUDIT_POINTS, T) if 1 <= p <= T)
        self.estimators = estimators
        self.dim = dim

    def step(self, z: np.ndarray, rows) -> None:
        """Add the round's z z^T: one z (d,) for the row ``rows``, or (S, d) for every row."""
        if self.points:
            self.v_sum[rows] += z[..., :, None] * z[..., None, :]

    def check(self, t: int) -> None:
        for s in range(len(self.records)):
            kappa = self.kappas[s]
            H = self.estimators[s].local_norm_matrix()
            V = kappa * self.lams[s] * np.eye(self.dim) + self.v_sum[s]
            self.records[s].append({"t": t, "min_eig": norm_domination_check(H, V, kappa)})


class _Draws:
    """The uniform draws of scenarios that draw only doubles, ``per_round`` a round.

    ``rng.random(n)`` gives the same doubles as n calls of ``rng.random()``,
    so each seed's stream is read CSV_BLOCK_ROWS rounds at a time, and memory
    stays O(S) whatever the horizon. ``draws(rows, i, k)`` is round i's k-th
    draw for the seeds ``rows``. Given the (S, contexts) cumulative context
    weights ``cum_rho``, draw 0 of a round is instead the context id the
    inverse-CDF lookup of ``Environment.draw_context`` picks with it, found
    once a block for every seed.
    """

    def __init__(self, streams, per_round: int, cum_rho: Optional[np.ndarray] = None):
        self.streams, self.per_round, self.cum_rho = streams, per_round, cum_rho
        self.columns, self.first = None, None

    def __call__(self, rows, i: int, k: int):
        first = i - i % CSV_BLOCK_ROWS
        if first != self.first:
            n = CSV_BLOCK_ROWS * self.per_round
            block = np.stack([rng.random(n).reshape(-1, self.per_round) for rng in self.streams])
            self.columns = list(np.moveaxis(block, 2, 0))
            if self.cum_rho is not None:
                found = [np.searchsorted(cum, u, side="right")
                         for cum, u in zip(self.cum_rho, self.columns[0])]
                self.columns[0] = np.minimum(found, self.cum_rho.shape[1] - 1)
            self.first = first
        return self.columns[k][rows, i - first]


def _finish(out: MemorySink, s: int, env: Environment, estimator, aborted: Optional[str],
            audit: _DominationAudit, policy: Optional[Callable]):
    """Seed s's (final policy, record) with its summary."""
    n, wall = out.n, int(out.wall_ns[s])
    diff = estimator.theta_ - env.truth.theta_star
    # end-of-run internals: projections fired, and the drift of a maintained inverse
    stats = {"projections": estimator.projections_} if hasattr(estimator, "projections_") else {}
    curvature = getattr(estimator, "curvature_attr", None)
    if curvature is not None:
        stats["inverse_drift"] = getattr(estimator, curvature).inverse_drift()
    record = out.record(s)
    record.summary = summary = {
        "scenario": out.scenario,
        "seed": out.seeds[s],
        "T": out.T,
        "estimator": type(estimator).__name__,
        "completed": n,
        "aborted": aborted,
        "final_est_err_l2": float(np.linalg.norm(diff)),
        "final_est_err_local": float(estimator.local_norm(diff)),
        "final_beta": float(estimator.radius()),
        "update_ns_total": wall,
        "update_ns_mean": wall / n if n else 0.0,
        "flag_counts": {FLAGS[f]: c for f, c in enumerate(out.flag_counts[s].tolist())
                        if f and c},
        "estimator_stats": stats,
        "domination_audits": audit.records[s],
        "diagnostics": diagnostics_report(out.checks, s, n, out.wall(s) if n < out.T else None,
                                          audit.records[s]),
    }
    hist = getattr(estimator, "newton_iters_hist_", None)
    if hist is not None:
        # entry k: the updates whose damped-Newton solve took k iterations
        summary["newton_iters_hist"] = [hist[k] for k in range(max(hist, default=-1) + 1)]
    counts = getattr(estimator, "boundary_counts_", None)
    if counts is not None:
        # damped-Newton steps that left the ball, and the real norm probes
        # their damping searches made
        summary["boundary_searches"] = counts["boundary_searches"]
        summary["boundary_probes"] = counts["boundary_probes"]
    if out.regret is not None:
        summary["cum_regret"] = float(out.regret[s])
    final = None
    if policy is not None and aborted is None:
        final = policy(estimator, env)
        summary["subopt"] = subopt(final, env)
        summary["policy"] = final.action_of.tolist()
        if out.scenario == "active":
            summary["subopt_last_iterate"] = subopt(greedy_policy(estimator.theta_, env), env)
    return final, record


def _run_loop(scenario: str, envs: Sequence[Environment], estimators, T: int,
              choose: Callable, policy: Optional[Callable] = None,
              checkpoints: Optional[Sequence[int]] = None, regret: Optional[Callable] = None,
              sink: Callable = MemorySink) -> List[Tuple[Optional[Policy], RunRecord]]:
    """The round structure all three scenarios share, for one group of seeds (``_run_groups``).

    A lone seed steps its own estimator, and ``idx`` and ``rows`` are the int
    0, so every array of its rounds stays a (d,) vector. A lockstep group
    steps one stack for the whole run: ``idx`` holds every seed's position
    and ``rows`` is a plain slice. Each round ``choose(stack, idx, rows, i)``
    returns the played x, a, a', y (one per seed) and the radius the choice
    used. The estimate is captured before the timed update, and each seed's
    ``wall_nanos`` is an equal share of the update time. A NumericFailure in
    a lone seed's update flags its round ``update_failed`` and ends its run;
    a stack's is raised, for ``_run_groups`` to run the seeds alone. After a
    successful update come the ``inner_nonconverged`` flag, the domination
    audit, and the suboptimality of ``policy(estimator, env)`` at the rounds
    in ``checkpoints`` (default: ``default_checkpoints(T)``). A seed with a
    ``policy`` that no failure cut short ends by extracting it.

    The rounds go to ``sink(scenario, envs, T, checkpoints, regret)``, a
    ``MemorySink`` or ``FileSink``: whichever it is, one ``put`` closes a block
    and opens the next at every multiple of CSV_BLOCK_ROWS rounds, at the end
    and when a lone seed stops. Round i is written at column i - ``out.base``.
    ``regret(rows, x, a, a')`` (deploy) gives what the rounds paid.

    A stack owns the state while the rounds run; each seed's own estimator
    is brought up to date whenever it is read (audits, checkpoints and the
    end), so the estimators end the run holding their final state. Every
    seed's record is exactly the one it gets as a lone seed.
    """
    for est in estimators:
        if getattr(est, "horizon", False) is None:
            est.horizon = max(T, 1)
        est.reset()
    S = len(envs)
    stacked = S > 1
    ckpts = frozenset(default_checkpoints(T) if checkpoints is None else checkpoints)
    theta_star = np.stack([env.truth.theta_star for env in envs])
    phi = np.stack([env.features.phi for env in envs])
    out = sink(scenario, envs, T, any(1 <= p <= T for p in ckpts), regret)
    audit = _DominationAudit(estimators, envs, T)
    aborted = None
    if stacked:
        stack, idx, rows = type(estimators[0]).stack(estimators), np.arange(S), slice(None)
    else:
        stack, idx, rows = estimators[0], 0, 0
    for t in range(1, T + 1):
        i = t - 1
        j = i - out.base
        x, a, b, yy, beta = choose(stack, idx, rows, i)
        z = phi[idx, x, a] - phi[idx, x, b]
        diff = stack.theta_ - theta_star[rows]
        # math.sqrt of one dot gives np.vecdot's bits without the numpy-scalar cost
        out.est_err_l2[rows, j] = (math.sqrt(diff @ diff) if diff.ndim == 1
                                   else np.sqrt(np.vecdot(diff, diff)))
        out.est_err_local[rows, j] = stack.local_norm(diff)
        out.beta[j] = beta
        out.x[rows, j], out.a[rows, j], out.a_prime[rows, j], out.y[rows, j] = x, a, b, yy
        try:
            start = time.perf_counter_ns()
            stack.update(z, yy)
            out.wall_nanos[rows, j] = (time.perf_counter_ns() - start) // S
        except NumericFailure as exc:
            if stacked:
                raise
            out.flags[0, j] = FLAGS.index("update_failed")
            aborted = str(exc)
            out.put(t)
            break
        # only a lone seed's estimator runs an inner solve that can stop short
        if not getattr(stack, "last_converged_", True):
            out.flags[0, j] = FLAGS.index("inner_nonconverged")
        audit.step(z, rows)
        if stacked and (t in audit.points or t in ckpts):
            stack.unstack(estimators)
        if t in audit.points:
            audit.check(t)
        if t in ckpts:
            for s, (env, est) in enumerate(zip(envs, estimators)):
                out.subopt_checkpoint[s, j] = subopt(policy(est, env), env)
        if t % CSV_BLOCK_ROWS == 0 or t == T:
            out.put(t)
    if stacked:
        stack.unstack(estimators)
    return [_finish(out, s, env, est, aborted, audit, policy)
            for s, (env, est) in enumerate(zip(envs, estimators))]


def _run_groups(scenario: str, env, estimator, T: int, chooser: Callable,
                policy: Optional[Callable] = None, checkpoints: Optional[Sequence[int]] = None,
                sink: Callable = MemorySink):
    """Run one seed, or equal-length sequences of environments and estimators, a group at a time.

    Several seeds of an estimator with a stacked update (``stack``/``unstack``)
    form one lockstep group; any other seed is a group of its own. A group is
    all or nothing: a stacked run that raises NumericFailure is thrown away
    and its seeds run again one at a time, so the seed that failed ends as it
    does alone and the others complete. Each run draws every seed's random
    stream afresh from its environment's seed, and ``chooser(envs, streams)``
    gives its ``choose`` and ``regret`` (``_run_loop``).

    Returns each seed's (policy, record), or its record alone when there is
    no ``policy``: one for one seed, else a list in seed order.
    """
    single = isinstance(env, Environment)
    envs, estimators = ([env], [estimator]) if single else (list(env), list(estimator))
    if not envs or len(envs) != len(estimators):
        raise ValueError("need one estimator per environment, and at least one of each")

    def run(envs, estimators):
        choose, regret = chooser(envs, [np.random.default_rng((e.rng_seed, 1)) for e in envs])
        return _run_loop(scenario, envs, estimators, T, choose, policy, checkpoints, regret, sink)

    out = None
    if len(envs) > 1 and hasattr(type(estimators[0]), "stack"):
        try:
            out = run(envs, estimators)
        except NumericFailure:
            pass  # the stack is thrown away
    if out is None:
        out = [r for e, est in zip(envs, estimators) for r in run([e], [est])]
    if policy is None:
        out = [rec for _, rec in out]
    return out[0] if single else out


def run_passive(env, estimator, T: int, policy_mode: str = "enumerate",
                checkpoints: Optional[Sequence[int]] = None, sink: Callable = MemorySink):
    """Observe behavior-distributed pairs for T rounds, then extract a pessimistic policy.

    Returns (policy, record); for sequences of environments and estimators, a
    list of them, one per seed. ``sink`` takes the rounds (``_run_loop``).
    Pair draws interleave integer and double draws, so every seed draws from
    its own stream round by round, also in lockstep.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")

    def policy(est, e) -> Policy:
        return pessimistic_policy(est.theta_, est.inv_norm_matrix(), est.radius(), e, policy_mode)

    def chooser(envs, rngs):
        def draw(s: int):
            e, rng = envs[s], rngs[s]
            x, a, b = draw_passive_pair(e, rng)
            return x, a, b, bt_sample(e.reward(x, a), e.reward(x, b), rng)

        def choose(stack, idx, rows, i):
            if isinstance(idx, int):
                return (*draw(idx), stack.radius())
            x, a, b, y = np.array([draw(s) for s in idx], dtype=np.int64).reshape(-1, 4).T
            return x, a, b, y, stack.radius()

        return choose, None

    return _run_groups("passive", env, estimator, T, chooser, policy, checkpoints, sink)


def run_active(env, estimator, T: int, checkpoints: Optional[Sequence[int]] = None,
               sink: Callable = MemorySink):
    """Query the most uncertain pair each round; play the averaged-parameter greedy policy.

    Returns (policy, record); for sequences of environments and estimators, a
    list of them, one per seed. ``sink`` takes the rounds (``_run_loop``).
    The scan keeps a memo per run, which is exact as long as
    ``inv_norm_matrix()`` never grows between rounds: every estimator here
    only adds curvature. A completed seed's summary also scores the greedy
    policy of its last iterate, ``subopt_last_iterate``.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")

    def policy(est, e) -> Policy:
        return greedy_policy(est.averaged_theta(), e)

    def chooser(envs, streams):
        draws = _Draws(streams, 1)  # the label
        pair_diffs = np.stack([e.pair_diffs() for e in envs])
        pairs = np.array(envs[0].action_pairs())
        # Environment.reward takes one dot product per (x, a); the stacked row
        # dots give the same bits for the whole table at once
        reward_of = np.vecdot(np.stack([e.features.phi for e in envs]),
                              np.stack([e.truth.theta_star for e in envs])[:, None, None, :])
        memo = {}

        def choose(stack, idx, rows, i):
            x, a, b = select_most_uncertain(pair_diffs[rows], stack.inv_norm_matrix(), pairs, memo)
            y = bt_sample(reward_of[idx, x, a], reward_of[idx, x, b], draws(rows, i, 0))
            return x, a, b, y, stack.radius()

        return choose, None

    return _run_groups("active", env, estimator, T, chooser, policy, checkpoints, sink)


def run_deploy(env, estimator, T: int, explore_coeff: float = 1.0, sink: Callable = MemorySink):
    """Serve arriving contexts with a greedy + exploratory pair, accumulating dueling regret.

    Returns the record; for sequences of environments and estimators, a list
    of them, one per seed. ``sink`` takes the rounds (``_run_loop``). Every
    round whose update went through pays r(x, a*) - (r(x, a) + r(x, a')) / 2.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")

    def chooser(envs, streams):
        phi = np.stack([e.features.phi for e in envs])
        rewards = np.stack([e.rewards() for e in envs])
        best = rewards.max(axis=2)
        draws = _Draws(streams, 2, np.stack([np.cumsum(e.rho) for e in envs]))  # context, label

        def choose(stack, idx, rows, i):
            x = draws(rows, i, 0)
            beta = stack.radius()
            a, b = select_deploy_actions(stack.theta_, stack.inv_norm_matrix(), beta,
                                         phi[idx, x], explore_coeff)
            y = bt_sample(rewards[idx, x, a], rewards[idx, x, b], draws(rows, i, 1))
            return x, a, b, y, beta

        def regret(rows, x, a, b):
            return best[rows, x] - 0.5 * (rewards[rows, x, a] + rewards[rows, x, b])

        return choose, regret

    return _run_groups("deploy", env, estimator, T, chooser, checkpoints=(), sink=sink)
