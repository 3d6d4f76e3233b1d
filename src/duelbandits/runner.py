"""Experiment orchestration: seed fan-out, artifact writing, aggregation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .baselines import ImplicitOmdRewardEstimator, MleRewardEstimator
from .config import ExperimentConfig
from .diagnostics import diagnostics_report, timing_profile
from .environment import make_environment
from .onepass import HvpCgRewardEstimator, OnePassRewardEstimator
from .scenarios import run_active, run_deploy, run_passive, shared_csv_cells

__all__ = ["build_estimator", "run_single", "run_experiment", "ExperimentResult",
           "bench_windows"]


def build_estimator(cfg: ExperimentConfig, kind: Optional[str] = None,
                    horizon: Optional[int] = None):
    """Instantiate the estimator a config asks for. eta/lam are already resolved."""
    kind = kind or cfg.estimator
    if kind == "omd":
        return OnePassRewardEstimator(dim=cfg.d, B=cfg.B, L=cfg.L, eta=cfg.eta,
                                      lam=cfg.lam, radius_mode=cfg.radius_mode,
                                      c_beta=cfg.c_beta, delta=cfg.delta)
    if kind == "mle":
        return MleRewardEstimator(dim=cfg.d, B=cfg.B, L=cfg.L, lam=cfg.lam,
                                  c_beta=cfg.c_beta, delta=cfg.delta)
    if kind == "implicit":
        return ImplicitOmdRewardEstimator(dim=cfg.d, B=cfg.B, L=cfg.L, eta=cfg.eta,
                                          lam=cfg.lam, c_beta=cfg.c_beta, delta=cfg.delta)
    if kind == "hvpcg":
        return HvpCgRewardEstimator(dim=cfg.d, B=cfg.B, L=cfg.L, eta=cfg.eta,
                                    lambda0=cfg.lambda0, damping=cfg.damping_fn,
                                    horizon=horizon if horizon is not None else cfg.T,
                                    c_beta=cfg.c_beta, delta=cfg.delta)
    raise ValueError(f"unknown estimator kind {kind!r}")


def run_single(cfg: ExperimentConfig, seed, estimator_kind: Optional[str] = None):
    """Seeded runs: a fresh environment and estimator per seed, one scenario loop.

    ``seed`` is one seed, giving one RunRecord, or a list of seeds, giving one
    RunRecord each. Several seeds of an estimator with a stacked update (omd)
    run in lockstep; other estimators run them one after another.
    """
    single = not isinstance(seed, (list, tuple))
    seeds = [seed] if single else list(seed)
    envs = [make_environment(cfg.d, cfg.contexts, cfg.actions, cfg.B, cfg.L,
                             seed=s, coverage_skew=cfg.coverage_skew) for s in seeds]
    ests = [build_estimator(cfg, kind=estimator_kind, horizon=cfg.T) for _ in seeds]
    if cfg.scenario in ("passive", "bench"):
        # bench times updates on passive data, with no checkpoint policies in between
        recs = [rec for _, rec in run_passive(
            envs, ests, cfg.T, policy_mode=cfg.policy_mode,
            checkpoints=() if cfg.scenario == "bench" else None)]
    elif cfg.scenario == "active":
        recs = [rec for _, rec in run_active(envs, ests, cfg.T)]
    elif cfg.scenario == "deploy":
        recs = run_deploy(envs, ests, cfg.T, explore_coeff=cfg.explore_coeff)
    else:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    return recs[0] if single else recs


def _seed_chunks(cfg: ExperimentConfig, kind: str) -> List[List[int]]:
    """The seed groups that run as one lockstep stack each.

    omd runs (except ``bench``, whose output is the cost of one update) split
    into one contiguous chunk per worker; every other estimator has no stacked
    update and runs one seed at a time.
    """
    seeds = list(cfg.seeds)
    if kind != "omd" or cfg.scenario == "bench":
        return [[s] for s in seeds]
    n = min(cfg.workers, len(seeds))
    size, extra = divmod(len(seeds), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_seed_task(args: Tuple[ExperimentConfig, List[int], Optional[str]]):
    """(seed, record, error) for each seed of a chunk.

    A chunk that raises runs again one seed at a time, so the error lands on
    the seed that raised and the other seeds complete.
    """
    cfg, seeds, kind = args
    try:
        return list(zip(seeds, run_single(cfg, seeds, estimator_kind=kind), [None] * len(seeds)))
    except Exception as exc:  # algorithmic failure: record, let other seeds run
        if len(seeds) > 1:
            return [r for seed in seeds for r in _run_seed_task((cfg, [seed], kind))]
        return [(seeds[0], None, f"{type(exc).__name__}: {exc}")]


def _run_all(cfg: ExperimentConfig, kind: Optional[str] = None):
    kind = kind or cfg.estimator
    tasks = [(cfg, chunk, kind) for chunk in _seed_chunks(cfg, kind)]
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


def _failed_seeds(summaries: List[dict]) -> List[dict]:
    """Seeds that raised or aborted, with why, sorted by seed."""
    failed = [{"seed": s["seed"], "error": s["error"] if "error" in s
               else f"aborted: {s['aborted']}"}
              for s in summaries if "error" in s or s.get("aborted") is not None]
    return sorted(failed, key=lambda f: f["seed"])


def aggregate_summaries(summaries: List[dict], scenario: str) -> dict:
    """Medians and quartiles of final metrics across completed seeds.

    Invariant to the order summaries arrive in: everything reported is either
    a rank statistic, a count, or the seed-sorted list of failed seeds.
    """
    completed = [s for s in summaries if s.get("aborted") is None and "error" not in s]
    out = {
        "scenario": scenario,
        "seeds_total": len(summaries),
        "seeds_completed": len(completed),
        "failed": _failed_seeds(summaries),
        "metrics": {},
    }
    for metric in _FINAL_METRICS.get(scenario, ()):
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


def bench_windows(T: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Early and late inclusive iteration windows for the timing comparison."""
    early = (max(1, T // 10), max(1, T // 5))
    late = (max(1, T - T // 10), T)
    return early, late


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed of a config, write per-seed CSV + summary, and aggregate."""
    out_dir = Path(cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    (out_dir / "config.json").write_text(cfg.echo_json(), encoding="utf-8")

    if cfg.scenario == "bench":
        return _run_bench(cfg, out_dir)

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
        rec.summary["diagnostics"] = next(reports).to_dict()
        rec.summary["config"] = cfg.to_dict()
        (out_dir / f"{stem}_summary.json").write_text(
            json.dumps(rec.summary, indent=2, sort_keys=True), encoding="utf-8")
        summaries.append(rec.summary)
    aggregate = aggregate_summaries(summaries, cfg.scenario)
    (out_dir / "aggregate.json").write_text(
        json.dumps(aggregate, indent=2, sort_keys=True), encoding="utf-8")
    return ExperimentResult(cfg, summaries, aggregate, out_dir)


def _run_bench(cfg: ExperimentConfig, out_dir: Path) -> ExperimentResult:
    early, late = bench_windows(cfg.T)
    table = {}
    summaries = []
    for kind in cfg.bench_estimators:
        rows = []
        results = _run_all(cfg, kind=kind)
        for seed, rec, error in results:
            if rec is None:
                summaries.append({"seed": seed, "estimator": kind, "error": error})
                continue
            stem = f"bench_{kind}_seed{seed}"
            rec.write_csv(out_dir / f"{stem}.csv")
            early_mean, late_mean, ratio = timing_profile(rec, early, late)
            row = {"seed": seed, "estimator": kind,
                   "early_mean_ns": early_mean, "late_mean_ns": late_mean,
                   "ratio": ratio}
            rows.append(row)
            summaries.append({**rec.summary, **row})
        if rows:
            table[kind] = {
                "early_mean_ns": float(np.median([r["early_mean_ns"] for r in rows])),
                "late_mean_ns": float(np.median([r["late_mean_ns"] for r in rows])),
                "ratio": float(np.median([r["ratio"] for r in rows])),
            }
    aggregate = {
        "scenario": "bench",
        "T": cfg.T,
        "early_window": list(early),
        "late_window": list(late),
        "estimators": table,
        "failed": _failed_seeds(summaries),
    }
    (out_dir / "bench.json").write_text(
        json.dumps(aggregate, indent=2, sort_keys=True), encoding="utf-8")
    return ExperimentResult(cfg, summaries, aggregate, out_dir)


def format_bench_table(aggregate: dict) -> str:
    lines = [
        f"timing windows: early {aggregate['early_window']}, late {aggregate['late_window']}",
        f"{'estimator':<10} {'early ns':>14} {'late ns':>14} {'ratio':>8}",
    ]
    for kind, row in aggregate["estimators"].items():
        lines.append(
            f"{kind:<10} {row['early_mean_ns']:>14.1f} {row['late_mean_ns']:>14.1f} "
            f"{row['ratio']:>8.3f}"
        )
    return "\n".join(lines)
