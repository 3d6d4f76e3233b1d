"""Correctness gate: checks every artifact a benchmark round writes.

The CLI exits 0 even when seeds fail, so the gate never trusts it. It reads
``aggregate.json``, every per-seed summary and every per-seed CSV, and decides
for each seed-run whether it failed:

* the summary is missing, carries ``error``, or ``aborted``;
* the CSV breaks a structural invariant (T rows, ``t`` = 1..T, ids in range,
  y in {0, 1}, known flags, deploy ``cum_regret`` never decreasing);
* against the pinned reference (default seed and sizes only): a discrete
  column differs at all, or a float column differs by more than 1e-12
  relative. Floats are pinned as sums over blocks of ``BLOCK_ROWS`` rows, so
  any change larger than 1e-12 of a block's absolute sum is caught;
* against the first round of the same run: anything but ``wall_nanos``
  differs, since a round repeats the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

CSV_HEADER = ("t", "wall_nanos", "est_err_l2", "est_err_local", "beta",
              "cum_regret", "subopt_checkpoint", "x", "a", "a_prime", "y", "flags")
DISCRETE = ("t", "x", "a", "a_prime", "y", "flags")
FLOATS = ("est_err_l2", "est_err_local", "beta", "cum_regret", "subopt_checkpoint")
FLAGS = ("", "inner_nonconverged", "update_failed")
BLOCK_ROWS = 50
REL_TOL = 1e-12


def read_columns(path: Path) -> dict:
    """Parse a run CSV into its columns, as the strings the program wrote."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_HEADER:
        raise ValueError(f"{Path(path).name}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(CSV_HEADER) for row in rows):
        raise ValueError(f"{Path(path).name}: ragged row")
    return {name: [row[i] for row in rows] for i, name in enumerate(CSV_HEADER)}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update("\n".join(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def content_digest(cols: dict) -> str:
    """Digest of every column except wall_nanos."""
    return _sha(*(cols[name] for name in CSV_HEADER if name != "wall_nanos"))


def _block_sums(values):
    """(sum, absolute sum) of the non-empty cells of each block of rows."""
    out = []
    for i in range(0, len(values), BLOCK_ROWS):
        block = [float(v) for v in values[i:i + BLOCK_ROWS] if v]
        out.append((math.fsum(block), math.fsum(abs(v) for v in block)))
    return out


def sketch(cols: dict) -> dict:
    """The pinned form of one CSV: exact discrete digest, float block sums."""
    return {
        "rows": len(cols["t"]),
        "discrete_sha256": _sha(*(cols[name] for name in DISCRETE)),
        "floats": {
            name: {
                "empty_sha256": _sha(["1" if v == "" else "0" for v in cols[name]]),
                "block_sums": [s for s, _ in _block_sums(cols[name])],
            }
            for name in FLOATS
        },
    }


def compare_to_reference(cols: dict, ref: dict) -> list:
    """Problems found comparing a CSV's columns with its pinned sketch."""
    problems = []
    if len(cols["t"]) != ref["rows"]:
        return [f"{len(cols['t'])} rows, reference has {ref['rows']}"]
    if _sha(*(cols[name] for name in DISCRETE)) != ref["discrete_sha256"]:
        problems.append("discrete columns differ from the reference")
    for name in FLOATS:
        pinned = ref["floats"][name]
        if _sha(["1" if v == "" else "0" for v in cols[name]]) != pinned["empty_sha256"]:
            problems.append(f"{name}: empty cells differ from the reference")
            continue
        for k, ((total, abs_total), want) in enumerate(
                zip(_block_sums(cols[name]), pinned["block_sums"])):
            if abs(total - want) > REL_TOL * abs_total:
                problems.append(f"{name}: rows {k * BLOCK_ROWS + 1}.. sum {total!r} "
                                f"vs reference {want!r}")
                break
    return problems


def structural_problems(cols: dict, spec: dict) -> list:
    """Invariants every completed seed-run holds, whatever its seed."""
    problems = []
    n = len(cols["t"])
    if n != spec["T"]:
        problems.append(f"{n} rows, expected T={spec['T']}")
    if cols["t"] != [str(t) for t in range(1, n + 1)]:
        problems.append("t is not 1..n")
    for name, bound in (("x", spec["contexts"]), ("a", spec["actions"]),
                        ("a_prime", spec["actions"]), ("y", 2)):
        if any(not (0 <= int(v) < bound) for v in cols[name]):
            problems.append(f"{name} outside [0, {bound})")
    if any(f not in FLAGS for f in cols["flags"]):
        problems.append("unknown flag")
    if spec["scenario"] == "deploy":
        regret = [float(v) if v else math.nan for v in cols["cum_regret"]]
        if any(math.isnan(v) for v in regret):
            problems.append("cum_regret has empty cells")
        elif any(b < a for a, b in zip(regret, regret[1:])):
            problems.append("cum_regret decreases")
    return problems


def check_runset(cfg, spec: dict, reference: dict | None, first_round: dict) -> dict:
    """Check one finished run set; returns counts, steps and problems.

    ``reference`` maps CSV names to pinned sketches, or is None when this run
    is not the pinned one. ``first_round`` maps CSV names to content digests;
    it is filled on the first round and compared against afterwards.
    """
    out_dir = Path(cfg.output_dir)
    result = {"attempted": len(cfg.seeds), "failed": 0, "steps": 0, "problems": []}
    ok_summaries = 0
    for seed in cfg.seeds:
        stem = f"{cfg.scenario}_{cfg.estimator}_seed{seed}"
        problems = []
        summary_path = out_dir / f"{stem}_summary.json"
        if not summary_path.is_file():
            problems.append("no summary (the seed raised)")
        else:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            result["steps"] += int(summary.get("completed", 0))
            if "error" in summary or summary.get("aborted") is not None:
                problems.append(f"error/aborted: {summary.get('error') or summary['aborted']}")
            else:
                ok_summaries += 1
                if summary.get("completed") != cfg.T:
                    problems.append(f"completed {summary.get('completed')} of T={cfg.T}")
            try:
                cols = read_columns(out_dir / f"{stem}.csv")
            except (OSError, ValueError) as exc:
                problems.append(f"csv: {exc}")
            else:
                problems += structural_problems(cols, spec)
                if reference is not None:
                    if f"{stem}.csv" in reference:
                        problems += compare_to_reference(cols, reference[f"{stem}.csv"])
                    else:
                        problems.append("no pinned reference for this CSV")
                digest = content_digest(cols)
                if first_round.setdefault(f"{stem}.csv", digest) != digest:
                    problems.append("differs from the first round of this run")
        if problems:
            result["failed"] += 1
            result["problems"] += [f"{stem}: {p}" for p in problems]
    try:
        aggregate = json.loads((out_dir / "aggregate.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result["problems"].append(f"aggregate.json: {exc}")
    else:
        if (aggregate.get("seeds_total"), aggregate.get("seeds_completed")) != (
                len(cfg.seeds), ok_summaries):
            result["problems"].append(
                f"aggregate.json reports {aggregate.get('seeds_completed')}/"
                f"{aggregate.get('seeds_total')} seeds, summaries show "
                f"{ok_summaries}/{len(cfg.seeds)}")
    return result
