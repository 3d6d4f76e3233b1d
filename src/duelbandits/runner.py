"""Experiment orchestration: seed fan-out, artifact writing, aggregation."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .baselines import ImplicitOmdRewardEstimator, MleRewardEstimator
from .config import ExperimentConfig
from .diagnostics import diagnostics_report, timing_profile
from .environment import make_environment
from .onepass import HvpCgRewardEstimator, OnePassRewardEstimator
from .scenarios import RunRecord, run_active, run_deploy, run_passive

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
                                    cg_iters=cfg.K, cg_tol=cfg.cg_tol,
                                    lambda0=cfg.lambda0, damping=cfg.damping_fn,
                                    horizon=horizon if horizon is not None else cfg.T,
                                    c_beta=cfg.c_beta, delta=cfg.delta)
    raise ValueError(f"unknown estimator kind {kind!r}")


def run_single(cfg: ExperimentConfig, seed: int,
               estimator_kind: Optional[str] = None) -> RunRecord:
    """One seeded run: fresh environment, fresh estimator, one scenario loop."""
    env = make_environment(cfg.d, cfg.contexts, cfg.actions, cfg.B, cfg.L,
                           seed=seed, coverage_skew=cfg.coverage_skew)
    est = build_estimator(cfg, kind=estimator_kind, horizon=cfg.T)
    if cfg.scenario in ("passive", "bench"):
        # bench times updates on passive data, with no checkpoint policies in between
        _, rec = run_passive(env, est, cfg.T, policy_mode=cfg.policy_mode,
                             checkpoints=() if cfg.scenario == "bench" else None)
    elif cfg.scenario == "active":
        _, rec = run_active(env, est, cfg.T)
    elif cfg.scenario == "deploy":
        rec = run_deploy(env, est, cfg.T, explore_coeff=cfg.explore_coeff)
    else:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    return rec


def _run_seed_task(args: Tuple[ExperimentConfig, int, Optional[str]]):
    cfg, seed, kind = args
    try:
        return seed, run_single(cfg, seed, estimator_kind=kind), None
    except Exception as exc:  # algorithmic failure: record, let other seeds run
        return seed, None, f"{type(exc).__name__}: {exc}"


def _run_all(cfg: ExperimentConfig, kind: Optional[str] = None):
    tasks = [(cfg, seed, kind) for seed in cfg.seeds]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_seed_task, tasks))
    else:
        results = [_run_seed_task(t) for t in tasks]
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
    summaries = []
    for seed, rec, error in results:
        if rec is None:
            summaries.append({"seed": seed, "error": error})
            continue
        stem = f"{cfg.scenario}_{cfg.estimator}_seed{seed}"
        rec.write_csv(out_dir / f"{stem}.csv")
        env = make_environment(cfg.d, cfg.contexts, cfg.actions, cfg.B, cfg.L,
                               seed=seed, coverage_skew=cfg.coverage_skew)
        rec.summary["diagnostics"] = diagnostics_report(env, rec).to_dict()
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
