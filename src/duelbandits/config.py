"""Experiment configuration: parsing, validation, defaults, seed fan-out."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exceptions import ConfigError
from .linkmath import kappa_bound
from .onepass import RADIUS_MODES, default_regularization, default_step_size

__all__ = ["ExperimentConfig", "parse_config", "mix_seed", "resolve_seeds"]

SCENARIOS = ("passive", "active", "deploy", "bench")
ESTIMATORS = ("omd", "mle", "implicit", "hvpcg")
DAMPING_FNS = ("linear", "log")
POLICY_MODES = ("enumerate", "greedy_percontext")

_MASK64 = (1 << 64) - 1


def mix_seed(base_seed: int, index: int) -> int:
    """Splittable per-run seed: a 64-bit finalizer over base_seed + index.

    Seed i never depends on how many seeds are requested, so growing a sweep
    leaves all earlier runs untouched.
    """
    x = (base_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class ExperimentConfig:
    """Fully resolved description of one experiment."""

    scenario: str
    estimator: str = "omd"
    d: int = 5
    contexts: int = 8
    actions: int = 4
    B: float = 1.0
    L: float = 1.0
    T: int = 2000
    seeds: Optional[List[int]] = None
    num_seeds: int = 20
    base_seed: int = 0
    coverage_skew: float = 0.0
    eta: Optional[float] = None
    lam: Optional[float] = None
    c_beta: float = 1.0
    radius_mode: str = "practical"
    delta: float = 0.1
    explore_coeff: float = 1.0
    K: int = 3
    lambda0: float = 0.8
    damping_fn: str = "linear"
    cg_tol: float = 1e-10
    policy_mode: str = "enumerate"
    output_dir: str = "runs"
    workers: int = 1
    bench_estimators: Tuple[str, ...] = ("omd", "mle")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["bench_estimators"] = list(self.bench_estimators)
        return out

    def echo_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _field_type(hint) -> Tuple[type, bool]:
    """(coercion target, nullable) of an annotation.

    Optional[X] is a nullable X; List and Tuple fields take a list.
    """
    args = typing.get_args(hint)
    nullable = type(None) in args
    if nullable:
        hint = next(arg for arg in args if arg is not type(None))
    return (list if typing.get_origin(hint) in (list, tuple) else hint), nullable


_HINTS = {name: _field_type(hint)
          for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_FIELD_TYPES = {name: target for name, (target, _) in _HINTS.items()}
_OPTIONAL_FIELDS = {name for name, (_, nullable) in _HINTS.items() if nullable}


def _coerce(key: str, value, target):
    if value is None:
        if key in _OPTIONAL_FIELDS:
            return None
        raise ConfigError(f"configuration key '{key}' must not be null")
    if target is int:
        if isinstance(value, bool):
            raise ConfigError(f"configuration key '{key}' expects an integer, got {value!r}")
        try:
            out = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"configuration key '{key}' expects an integer, got {value!r}")
        if isinstance(value, str) or isinstance(value, (int, float)):
            if float(value) != out:
                raise ConfigError(f"configuration key '{key}' expects an integer, got {value!r}")
        return out
    if target is float:
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"configuration key '{key}' expects a number, got {value!r}")
        if not math.isfinite(out):
            raise ConfigError(f"configuration key '{key}' must be finite, got {value!r}")
        return out
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"configuration key '{key}' expects a string, got {value!r}")
        return value
    if target is list:
        if isinstance(value, (list, tuple)):
            return list(value)
        raise ConfigError(f"configuration key '{key}' expects a list, got {value!r}")
    raise ConfigError(f"configuration key '{key}' has unsupported type")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a flat key/value mapping into a resolved ExperimentConfig.

    Unknown keys, type mismatches, and out-of-range values raise ConfigError
    naming the offending key. eta/lam left unset resolve to their closed-form
    defaults; the seed list resolves from (base_seed, num_seeds) when absent.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a key/value mapping")
    values = {}
    for key, raw in data.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key '{key}'")
        values[key] = _coerce(key, raw, _FIELD_TYPES[key])
    if "scenario" not in values:
        raise ConfigError("configuration key 'scenario' is required")
    cfg = ExperimentConfig(**values)

    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"configuration key 'scenario' must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if cfg.estimator not in ESTIMATORS:
        raise ConfigError(f"configuration key 'estimator' must be one of {ESTIMATORS}, got {cfg.estimator!r}")
    for key, minimum in (("d", 1), ("contexts", 1), ("actions", 1), ("num_seeds", 1),
                         ("K", 1), ("workers", 1)):
        if getattr(cfg, key) < minimum:
            raise ConfigError(f"configuration key '{key}' must be >= {minimum}, got {getattr(cfg, key)}")
    if cfg.T < 0:
        raise ConfigError(f"configuration key 'T' must be >= 0, got {cfg.T}")
    for key in ("B", "L", "delta", "lambda0"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"configuration key '{key}' must be positive, got {getattr(cfg, key)}")
    try:
        kappa = kappa_bound(cfg.B, cfg.L)
    except OverflowError:
        kappa = math.inf
    if not math.isfinite(kappa):
        raise ConfigError(f"configuration key 'B' is too large for L={cfg.L}: "
                          f"kappa = 3 + exp(2*B*L) is not finite at B={cfg.B}")
    if cfg.delta > 1:
        raise ConfigError(f"configuration key 'delta' must lie in (0, 1], got {cfg.delta}")
    if not (0.0 <= cfg.coverage_skew <= 1.0):
        raise ConfigError(f"configuration key 'coverage_skew' must lie in [0, 1], got {cfg.coverage_skew}")
    if cfg.c_beta < 0:
        raise ConfigError(f"configuration key 'c_beta' must be >= 0, got {cfg.c_beta}")
    if cfg.explore_coeff < 0:
        raise ConfigError(f"configuration key 'explore_coeff' must be >= 0, got {cfg.explore_coeff}")
    if cfg.cg_tol < 0:
        raise ConfigError(f"configuration key 'cg_tol' must be >= 0, got {cfg.cg_tol}")
    if cfg.radius_mode not in RADIUS_MODES:
        raise ConfigError(f"configuration key 'radius_mode' must be one of {RADIUS_MODES}, got {cfg.radius_mode!r}")
    if cfg.damping_fn not in DAMPING_FNS:
        raise ConfigError(f"configuration key 'damping_fn' must be one of {DAMPING_FNS}, got {cfg.damping_fn!r}")
    if cfg.policy_mode not in POLICY_MODES:
        raise ConfigError(f"configuration key 'policy_mode' must be one of {POLICY_MODES}, got {cfg.policy_mode!r}")
    if cfg.eta is not None and cfg.eta <= 0:
        raise ConfigError(f"configuration key 'eta' must be positive, got {cfg.eta}")
    if cfg.lam is not None and cfg.lam <= 0:
        raise ConfigError(f"configuration key 'lam' must be positive, got {cfg.lam}")
    if cfg.seeds is not None:
        if len(cfg.seeds) < 1:
            raise ConfigError("configuration key 'seeds' must list at least one seed")
        try:
            cfg.seeds = [int(s) for s in cfg.seeds]
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("configuration key 'seeds' must list integers")
    bad = [e for e in cfg.bench_estimators if e not in ESTIMATORS]
    if bad:
        raise ConfigError(f"configuration key 'bench_estimators' has invalid entries {bad}")
    cfg.bench_estimators = tuple(cfg.bench_estimators)

    # resolve defaults so the echoed config is self-contained
    if cfg.eta is None:
        cfg.eta = default_step_size(cfg.B, cfg.L)
    if cfg.lam is None:
        cfg.lam = default_regularization(cfg.eta, cfg.d, cfg.B, cfg.L)
    if cfg.seeds is None:
        cfg.seeds = resolve_seeds(cfg.base_seed, cfg.num_seeds)
    cfg.num_seeds = len(cfg.seeds)
    return cfg


def resolve_seeds(base_seed: int, count: int) -> List[int]:
    return [mix_seed(base_seed, i) for i in range(count)]
