"""Exact replay of recorded runs: the choices they made and the bytes they wrote.

``pinned_choices.json`` holds, for each case, the config of one seeded run
and what it produced, recorded before any change it is meant to guard:

* ``x``, ``a``, ``a_prime``: the pairs an active run queried;
* ``policy``: the final ``summary["policy"]`` of a passive enumerate run;
* ``columns``: the sha256 of every run-CSV column except ``wall_nanos``
  (the column's cells, newline-joined, as ``RunRecord.write_csv`` prints them);
* ``summary``: exact summary values (``final_est_err_l2``, ``final_beta``,
  and ``cum_regret`` or ``policy``, as the scenario has them);
* ``save_sha256``: the sha256 of the config's estimator ``save()`` file after
  ``SNAPSHOT_UPDATES`` seeded updates (no scenario loop involved);
* ``seed_runs``: for a config run through ``run_experiment`` with several
  seeds, each seed's CSV column digests, its whole-file digest (``file``: the
  sha256 of the CSV text with every ``wall_nanos`` cell blanked, so the
  header, row order, separators and newlines are pinned too) and its
  ``SEED_RUN_FIELDS`` summary values (dotted names reach into nested blocks),
  plus ``aggregate``: the run's ``aggregate.json`` without its timing metric.

A change to how the uncertainty scan or the policy enumeration rounds its
quadratic forms that flips an argmax shows up here as a mismatch, and so does
any change to the last bit of an estimator update. A change that is meant to
alter outputs re-records every case with

    PYTHONPATH=src python3 tests/test_pinned_choices.py
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from duelbandits import scenarios
from duelbandits.config import parse_config
from duelbandits.runner import build_estimator, run_experiment, run_single
from conftest import one_table_policy

PINNED = Path(__file__).parent / "pinned_choices.json"
CASES = json.loads(PINNED.read_text())
UNPINNED_COLUMNS = ("wall_nanos",)
SNAPSHOT_UPDATES = 30
SEED_RUN_FIELDS = (
    "completed", "aborted", "final_est_err_l2", "final_est_err_local", "final_beta",
    "cum_regret", "subopt", "subopt_last_iterate", "policy", "flag_counts",
    "estimator_stats", "domination_audits", "diagnostics.coverage_ok",
    "diagnostics.first_violation", "diagnostics.potential_lhs",
    "diagnostics.potential_rhs", "diagnostics.domination_min_eig",
)


def column_digests(rec, workdir: Path) -> dict:
    path = workdir / "run.csv"
    rec.write_csv(path)
    return csv_digests(path)


def csv_digests(path: Path) -> dict:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    columns = zip(*(row.split(",") for row in rows))
    return {name: hashlib.sha256("\n".join(cells).encode()).hexdigest()
            for name, cells in zip(header.split(","), columns)
            if name not in UNPINNED_COLUMNS}


def file_digest(path: Path) -> str:
    """sha256 of a run CSV's text with each unpinned column's cells blanked."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    header = lines[0].split(",")
    blank = [header.index(name) for name in UNPINNED_COLUMNS]
    for k in range(1, len(lines)):
        if lines[k]:
            cells = lines[k].split(",")
            for j in blank:
                cells[j] = ""
            lines[k] = ",".join(cells)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def snapshot_digest(cfg, workdir: Path) -> str:
    """sha256 of the estimator's snapshot after a seeded stream of updates."""
    est = build_estimator(cfg).reset()
    rng = np.random.default_rng(cfg.seeds[0])
    for _ in range(SNAPSHOT_UPDATES):
        est.update(rng.uniform(-1.0, 1.0, cfg.d) / np.sqrt(cfg.d), int(rng.integers(2)))
    path = workdir / "snapshot.json"
    est.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_field(summary: dict, dotted: str):
    """A summary value by dotted name; NaN becomes the string "nan", which compares equal."""
    for key in dotted.split("."):
        summary = summary[key]
    return "nan" if summary != summary else summary


def experiment_digests(cfg, workdir: Path) -> dict:
    """Every seed's column digests and summary fields, from one run_experiment call."""
    cfg = dataclasses.replace(cfg, output_dir=str(workdir / "experiment"))
    result = run_experiment(cfg)
    runs = []
    for summary in result.summaries:
        stem = f"{cfg.scenario}_{cfg.estimator}_seed{summary['seed']}"
        fields = {}
        for name in SEED_RUN_FIELDS:
            try:
                fields[name] = summary_field(summary, name)
            except KeyError:
                continue
        path = result.output_dir / f"{stem}.csv"
        runs.append({"seed": summary["seed"], "columns": csv_digests(path),
                     "file": file_digest(path), "summary": fields})
    aggregate = dict(result.aggregate)
    aggregate["metrics"] = {k: v for k, v in aggregate["metrics"].items()
                            if k != "update_ns_mean"}
    return {"seed_runs": runs, "aggregate": aggregate}


def observe(case: dict, workdir: Path) -> dict:
    """Run the case's config and return the same fields the case pins."""
    cfg = parse_config(case["config"])
    if "save_sha256" in case:
        return {"save_sha256": snapshot_digest(cfg, workdir)}
    if "seed_runs" in case:
        return experiment_digests(cfg, workdir)
    rec = run_single(cfg, cfg.seeds[0])
    out = {}
    for col in ("x", "a", "a_prime"):
        if col in case:
            out[col] = getattr(rec, col).tolist()
    if "policy" in case:
        out["policy"] = rec.summary["policy"]
    if "columns" in case:
        out["columns"] = column_digests(rec, workdir)
    if "summary" in case:
        out["summary"] = {key: rec.summary[key] for key in case["summary"]}
    return out


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_choices_match_recording(case, tmp_path):
    pinned = {k: v for k, v in case.items() if k not in ("name", "config")}
    assert observe(case, tmp_path) == pinned


ENUMERATING = [c for c in CASES if c["config"]["scenario"] == "passive"
               and c["config"].get("policy_mode", "enumerate") == "enumerate"
               and "save_sha256" not in c]


@pytest.mark.parametrize("case", ENUMERATING, ids=[c["name"] for c in ENUMERATING])
def test_blocked_enumeration_picks_the_one_table_policy(case, tmp_path, monkeypatch):
    """Every policy a pinned passive run enumerates, checkpoints included, is the oracle's."""
    blocked = scenarios.pessimistic_policy
    calls = []

    def checked(theta, norm_inv, beta, env, mode="enumerate"):
        policy = blocked(theta, norm_inv, beta, env, mode)
        calls.append(policy.action_of.tolist())
        assert calls[-1] == one_table_policy(theta, norm_inv, beta, env).tolist()
        return policy

    monkeypatch.setattr(scenarios, "pessimistic_policy", checked)
    pinned = {k: v for k, v in case.items() if k not in ("name", "config")}
    assert observe(case, tmp_path) == pinned
    assert calls


def repin() -> None:
    cases = []
    for c in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases.append({"name": c["name"], "config": c["config"], **observe(c, Path(tmp))})
    PINNED.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")


if __name__ == "__main__":
    repin()
