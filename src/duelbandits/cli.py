"""Command-line entry point: run experiments, verify invariants."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .config import _FIELD_TYPES, CHOICES, parse_config
from .exceptions import ConfigError
from .runner import run_experiment
from .verify import CHECKS, run_verify

# config keys whose flag is not the key with "-" for "_"
_FLAG_NAMES = {"lam": "--lambda", "num_seeds": "--seeds", "output_dir": "--out"}


def _add_field_flags(p: argparse.ArgumentParser, keys) -> None:
    """One flag per config key, with the key's type and value set and the key as dest."""
    for key in keys:
        p.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key,
                       type=_FIELD_TYPES[key], choices=CHOICES.get(key),
                       help=f"config key '{key}'")


def _collect(args: argparse.Namespace) -> dict:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    skip = {"command", "config", "func", "seed", "checks"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = value
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    """Run a config and print its aggregate; each failed seed goes to stderr and exits 1."""
    cfg = parse_config(_collect(args))
    result = run_experiment(cfg)
    print(f"resolved config written to {result.output_dir / 'config.json'}")
    print(f"{result.aggregate['seeds_completed']}/{len(cfg.seeds)} seeds completed; "
          f"artifacts in {result.output_dir}")
    for metric, stats in result.aggregate["metrics"].items():
        print(f"  {metric}: median {stats['median']:.6g} "
              f"[q25 {stats['q25']:.6g}, q75 {stats['q75']:.6g}]")
    failed = result.aggregate["failed"]
    for f in failed:
        print(f"seed {f['seed']} failed: {f['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = run_verify(seed=args.seed, names=args.checks or None)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelbandits",
        description="Contextual dueling-bandit simulator with one-pass reward estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario across seeds")
    run_p.add_argument("--config", help="JSON config file; explicit flags override it")
    # every config key but the seed list, which has no flag
    _add_field_flags(run_p, [key for key in _FIELD_TYPES if key != "seeds"])
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the built-in invariant suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--checks", nargs="*", choices=[name for name, _ in CHECKS],
                          metavar="NAME", help="run only the named checks")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
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
