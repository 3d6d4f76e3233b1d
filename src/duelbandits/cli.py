"""Command-line entry point: run experiments, benchmark estimators, verify invariants."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .config import parse_config
from .exceptions import ConfigError
from .runner import format_bench_table, run_experiment
from .verify import run_verify


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--d", type=int, dest="d")
    p.add_argument("--contexts", type=int)
    p.add_argument("--actions", type=int)
    p.add_argument("--B", type=float, dest="B")
    p.add_argument("--L", type=float, dest="L")
    p.add_argument("--seeds", type=int, dest="num_seeds",
                   help="number of seeds fanned out from --base-seed")
    p.add_argument("--base-seed", type=int, dest="base_seed")
    p.add_argument("--out", dest="output_dir")
    p.add_argument("--workers", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--c-beta", type=float, dest="c_beta")
    p.add_argument("--radius-mode", choices=("practical", "theory"), dest="radius_mode")
    p.add_argument("--delta", type=float)
    p.add_argument("--explore-coeff", type=float, dest="explore_coeff")
    p.add_argument("--K", type=int, dest="K", help="max CG iterations (hvpcg)")
    p.add_argument("--lambda0", type=float)
    p.add_argument("--damping-fn", choices=("linear", "log"), dest="damping_fn")
    p.add_argument("--cg-tol", type=float, dest="cg_tol")
    p.add_argument("--policy-mode", choices=("enumerate", "greedy_percontext"),
                   dest="policy_mode")
    p.add_argument("--coverage-skew", type=float, dest="coverage_skew")


def _collect(args: argparse.Namespace, fixed: Optional[dict] = None) -> dict:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    skip = {"command", "config", "func", "seed", "checks", "estimators"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = value
    if fixed:
        data.update(fixed)
    return data


def _report_failures(aggregate: dict) -> int:
    """Print each failed seed to stderr; exit code 1 if there was any."""
    failed = aggregate["failed"]
    for f in failed:
        print(f"seed {f['seed']} failed: {f['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(_collect(args))
    result = run_experiment(cfg)
    print(f"resolved config written to {result.output_dir / 'config.json'}")
    if cfg.scenario == "bench":
        print(format_bench_table(result.aggregate))
        print(f"artifacts in {result.output_dir}")
        return _report_failures(result.aggregate)
    completed = result.aggregate.get("seeds_completed", len(result.summaries))
    print(f"{completed}/{len(cfg.seeds)} seeds completed; "
          f"artifacts in {result.output_dir}")
    for metric, stats in result.aggregate.get("metrics", {}).items():
        print(f"  {metric}: median {stats['median']:.6g} "
              f"[q25 {stats['q25']:.6g}, q75 {stats['q75']:.6g}]")
    return _report_failures(result.aggregate)


def _cmd_bench(args: argparse.Namespace) -> int:
    fixed = {"scenario": "bench"}
    if args.estimators:
        fixed["bench_estimators"] = [e.strip() for e in args.estimators.split(",")]
    data = _collect(args, fixed)
    data.setdefault("num_seeds", 1)
    cfg = parse_config(data)
    result = run_experiment(cfg)
    print(format_bench_table(result.aggregate))
    print(f"artifacts in {result.output_dir}")
    return _report_failures(result.aggregate)


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = run_verify(seed=args.seed, names=args.checks or None)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="duelbandits",
        description="Contextual dueling-bandit simulator with one-pass reward estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario across seeds")
    run_p.add_argument("--scenario", choices=("passive", "active", "deploy", "bench"))
    run_p.add_argument("--estimator", choices=("omd", "mle", "implicit", "hvpcg"))
    _add_common_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", help="per-iteration timing comparison of estimators")
    bench_p.add_argument("--estimators", help="comma-separated estimator kinds")
    _add_common_flags(bench_p)
    bench_p.set_defaults(func=_cmd_bench)

    verify_p = sub.add_parser("verify", help="run the built-in invariant suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--checks", nargs="*", help="run only the named checks")
    verify_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
