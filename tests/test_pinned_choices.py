"""Exact replay of recorded runs: the choices they made and the bytes they wrote.

``pinned_choices.json`` holds, for each case, the config of one seeded run
and what it produced, recorded before any change it is meant to guard:

* ``x``, ``a``, ``a_prime``: the pairs an active run queried;
* ``policy``: the final ``summary["policy"]`` of a passive enumerate run;
* ``columns``: the sha256 of every run-CSV column except ``wall_nanos``
  (the column's cells, newline-joined, as ``RunRecord.write_csv`` prints them);
* ``summary``: exact summary values (``final_est_err_l2``, ``final_beta``,
  and ``cum_regret`` or ``policy``, as the scenario has them).

A change to how the uncertainty scan or the policy enumeration rounds its
quadratic forms that flips an argmax shows up here as a mismatch, and so does
any change to the last bit of an estimator update. A change that is meant to
alter outputs re-records every case with

    PYTHONPATH=src python3 tests/test_pinned_choices.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from duelbandits.config import parse_config
from duelbandits.runner import run_single

PINNED = Path(__file__).parent / "pinned_choices.json"
CASES = json.loads(PINNED.read_text())
UNPINNED_COLUMNS = ("wall_nanos",)


def column_digests(rec, workdir: Path) -> dict:
    path = workdir / "run.csv"
    rec.write_csv(path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    columns = zip(*(row.split(",") for row in rows))
    return {name: hashlib.sha256("\n".join(cells).encode()).hexdigest()
            for name, cells in zip(header.split(","), columns)
            if name not in UNPINNED_COLUMNS}


def observe(case: dict, workdir: Path) -> dict:
    """Run the case's config and return the same fields the case pins."""
    cfg = parse_config(case["config"])
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


def repin() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = [{"name": c["name"], "config": c["config"], **observe(c, Path(tmp))}
                 for c in CASES]
    PINNED.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")


if __name__ == "__main__":
    repin()
