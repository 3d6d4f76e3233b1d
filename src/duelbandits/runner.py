"""Experiment orchestration: seed fan-out, artifact writing, aggregation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .config import ESTIMATOR_CLASSES, ExperimentConfig
from .diagnostics import diagnostics_report
from .environment import make_environment
from .scenarios import run_active, run_deploy, run_passive, shared_csv_cells


# constructor parameters whose config key has another name
_RENAMED = {"dim": "d", "damping": "damping_fn", "horizon": "T"}


def build_estimator(cfg: ExperimentConfig):
    """The estimator a config asks for; a parameter the config has no key for keeps its default."""
    cls = ESTIMATOR_CLASSES[cfg.estimator]
    values = vars(cfg)
    keys = {name: _RENAMED.get(name, name) for name in cls._param_names()}
    return cls(**{name: values[key] for name, key in keys.items() if key in values})


def run_single(cfg: ExperimentConfig, seed):
    """Seeded runs: a fresh environment and estimator per seed, one scenario loop.

    ``seed`` is one seed, giving one RunRecord, or a list of seeds, giving one
    RunRecord each. The scenario groups them: several seeds of an estimator
    with a stacked update (omd) run in lockstep, other seeds one at a time.
    """
    single = not isinstance(seed, (list, tuple))
    seeds = [seed] if single else list(seed)
    envs = [make_environment(cfg.d, cfg.contexts, cfg.actions, cfg.B, cfg.L,
                             seed=s, coverage_skew=cfg.coverage_skew) for s in seeds]
    ests = [build_estimator(cfg) for _ in seeds]
    if cfg.scenario == "passive":
        recs = [rec for _, rec in run_passive(envs, ests, cfg.T, policy_mode=cfg.policy_mode)]
    elif cfg.scenario == "active":
        recs = [rec for _, rec in run_active(envs, ests, cfg.T)]
    elif cfg.scenario == "deploy":
        recs = run_deploy(envs, ests, cfg.T, explore_coeff=cfg.explore_coeff)
    else:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    return recs[0] if single else recs


def _seed_chunks(cfg: ExperimentConfig) -> List[List[int]]:
    """One contiguous chunk of seeds per worker; each chunk is one ``run_single`` call."""
    seeds = list(cfg.seeds)
    n = min(cfg.workers, len(seeds))
    size, extra = divmod(len(seeds), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_seed_task(args: Tuple[ExperimentConfig, List[int]]):
    """(seed, record, error) for each seed of a chunk.

    A chunk that raises runs again one seed at a time, so the error lands on
    the seed that raised and the other seeds complete.
    """
    cfg, seeds = args
    try:
        return list(zip(seeds, run_single(cfg, seeds), [None] * len(seeds)))
    except Exception as exc:  # algorithmic failure: record, let other seeds run
        if len(seeds) > 1:
            return [r for seed in seeds for r in _run_seed_task((cfg, [seed]))]
        return [(seeds[0], None, f"{type(exc).__name__}: {exc}")]


def _run_all(cfg: ExperimentConfig):
    tasks = [(cfg, chunk) for chunk in _seed_chunks(cfg)]
    if cfg.workers > 1:
        # imported here: loading multiprocessing costs a one-worker run memory and start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_seed_task, tasks))
    else:
        chunks = [_run_seed_task(t) for t in tasks]
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: cfg.seeds.index(r[0]))
    return results


def _quartiles(values: List[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "q25": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "q75": float(np.percentile(arr, 75)),
        "count": int(arr.size),
    }


_FINAL_METRICS = {
    "passive": ("subopt", "final_est_err_l2", "update_ns_mean"),
    "active": ("subopt", "subopt_last_iterate", "final_est_err_l2", "update_ns_mean"),
    "deploy": ("cum_regret", "final_est_err_l2", "update_ns_mean"),
}


def aggregate_summaries(summaries: List[dict], scenario: str) -> dict:
    """Medians and quartiles of final metrics across completed seeds.

    Invariant to the order summaries arrive in: everything reported is either
    a rank statistic, a count, or the seed-sorted list of failed seeds.
    """
    completed = [s for s in summaries if s.get("aborted") is None and "error" not in s]
    failed = [{"seed": s["seed"], "error": s["error"] if "error" in s
               else f"aborted: {s['aborted']}"}
              for s in summaries if "error" in s or s.get("aborted") is not None]
    out = {
        "scenario": scenario,
        "seeds_total": len(summaries),
        "seeds_completed": len(completed),
        "failed": sorted(failed, key=lambda f: f["seed"]),
        "metrics": {},
    }
    for metric in _FINAL_METRICS[scenario]:
        values = [s[metric] for s in completed if metric in s]
        if values:
            out["metrics"][metric] = _quartiles(values)
    return out


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    summaries: List[dict]
    aggregate: dict
    output_dir: Path


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed of a config, write per-seed CSV + summary, and aggregate."""
    out_dir = Path(cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    (out_dir / "config.json").write_text(cfg.echo_json(), encoding="utf-8")

    results = _run_all(cfg)
    done = [rec for _, rec, _ in results if rec is not None]
    envs = [make_environment(cfg.d, cfg.contexts, cfg.actions, cfg.B, cfg.L,
                             seed=rec.seed, coverage_skew=cfg.coverage_skew) for rec in done]
    reports = iter(diagnostics_report(envs, done))
    shared = shared_csv_cells(done)
    summaries = []
    for seed, rec, error in results:
        if rec is None:
            summaries.append({"seed": seed, "error": error})
            continue
        stem = f"{cfg.scenario}_{cfg.estimator}_seed{seed}"
        rec.write_csv(out_dir / f"{stem}.csv", shared)
        rec.summary["diagnostics"] = next(reports)
        rec.summary["config"] = cfg.to_dict()
        (out_dir / f"{stem}_summary.json").write_text(
            json.dumps(rec.summary, indent=2, sort_keys=True), encoding="utf-8")
        summaries.append(rec.summary)
    aggregate = aggregate_summaries(summaries, cfg.scenario)
    (out_dir / "aggregate.json").write_text(
        json.dumps(aggregate, indent=2, sort_keys=True), encoding="utf-8")
    return ExperimentResult(cfg, summaries, aggregate, out_dir)

