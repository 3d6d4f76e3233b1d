"""Experiment configuration: parsing, validation, defaults, seed fan-out."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .base import resolve_hyperparameters
from .exceptions import ConfigError
from .onepass import RADIUS_MODES
from .scenarios import ENUMERATE_BUDGET

SCENARIOS = ("passive", "active", "deploy")
ESTIMATORS = ("omd", "mle", "implicit", "hvpcg")
DAMPING_FNS = ("linear", "log")
POLICY_MODES = ("enumerate", "greedy_percontext")
# the value set of every enumerated key
CHOICES = {"scenario": SCENARIOS, "estimator": ESTIMATORS, "radius_mode": RADIUS_MODES,
           "damping_fn": DAMPING_FNS, "policy_mode": POLICY_MODES}

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
    lambda0: float = 0.8
    damping_fn: str = "linear"
    policy_mode: str = "enumerate"
    output_dir: str = "runs"
    workers: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def echo_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _field_type(hint) -> Tuple[type, bool]:
    """(coercion target, nullable) of an annotation.

    Optional[X] is a nullable X; a List field takes a list.
    """
    args = typing.get_args(hint)
    nullable = type(None) in args
    if nullable:
        hint = next(arg for arg in args if arg is not type(None))
    return (list if typing.get_origin(hint) is list else hint), nullable


_HINTS = {name: _field_type(hint)
          for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_FIELD_TYPES = {name: target for name, (target, _) in _HINTS.items()}
_OPTIONAL_FIELDS = {name for name, (_, nullable) in _HINTS.items() if nullable}


def _as_int(key: str, value) -> int:
    """An integer value, or a ConfigError naming the key (booleans and fractions included)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        if isinstance(value, bool) or not (isinstance(value, str) or float(value).is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"configuration key '{key}' expects an integer, got {value!r}")


def _coerce(key: str, value, target):
    if value is None:
        if key in _OPTIONAL_FIELDS:
            return None
        raise ConfigError(f"configuration key '{key}' must not be null")
    if target is int:
        return _as_int(key, value)
    if target is float:
        if isinstance(value, bool):
            raise ConfigError(f"configuration key '{key}' expects a number, got {value!r}")
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
    defaults, except that hvpcg takes no lam and keeps it None; the seed list
    resolves from (base_seed, num_seeds) when absent.
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

    for key, allowed in CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"configuration key '{key}' must be one of {allowed}, got {getattr(cfg, key)!r}")
    # only passive runs have a use for T = 0: the policy of the prior alone
    for key, minimum in (("contexts", 1), ("actions", 1), ("num_seeds", 1),
                         ("workers", 1), ("T", 0 if cfg.scenario == "passive" else 1)):
        if getattr(cfg, key) < minimum:
            raise ConfigError(f"configuration key '{key}' must be >= {minimum}, got {getattr(cfg, key)}")
    # hvpcg takes no lam: its damping schedule (lambda0, damping_fn) stands in
    uses_lam = cfg.estimator != "hvpcg"
    if not uses_lam and cfg.lam is not None:
        raise ConfigError("configuration key 'lam' has no effect with estimator 'hvpcg', "
                          "whose damping is set by 'lambda0' and 'damping_fn'; leave it unset")
    # the estimators' own check; it also resolves eta/lam, so the echoed config
    # is self-contained
    try:
        cfg.eta, cfg.lam = resolve_hyperparameters(cfg.d, cfg.B, cfg.L, cfg.eta, cfg.lam,
                                                   cfg.c_beta, cfg.delta, uses_lam)
    except ValueError as exc:
        name, rule = str(exc).split(" ", 1)
        if name == "lam" and cfg.lam is None:
            raise ConfigError(f"configuration keys 'eta', 'd', 'B' and 'L' resolve lam = "
                              f"84*sqrt(2)*eta*(d*L^2 + B*L^3), which {rule}") from None
        raise ConfigError(f"configuration key '{'d' if name == 'dim' else name}' {rule}") from None
    if cfg.lambda0 <= 0:
        raise ConfigError(f"configuration key 'lambda0' must be positive, got {cfg.lambda0}")
    # A**X past 64 contexts is over the budget for any A >= 2 (and 1 for A = 1),
    # so the power is capped rather than formed for a huge X
    if (cfg.scenario == "passive" and cfg.policy_mode == "enumerate"
            and cfg.actions ** min(cfg.contexts, 64) > ENUMERATE_BUDGET):
        raise ConfigError(f"configuration key 'policy_mode' 'enumerate' would scan "
                          f"actions**contexts = {cfg.actions}**{cfg.contexts} policies "
                          f"(> {ENUMERATE_BUDGET}); use 'greedy_percontext'")
    if not (0.0 <= cfg.coverage_skew <= 1.0):
        raise ConfigError(f"configuration key 'coverage_skew' must lie in [0, 1], got {cfg.coverage_skew}")
    if cfg.explore_coeff < 0:
        raise ConfigError(f"configuration key 'explore_coeff' must be >= 0, got {cfg.explore_coeff}")
    if cfg.seeds is not None:
        if len(cfg.seeds) < 1:
            raise ConfigError("configuration key 'seeds' must list at least one seed")
        cfg.seeds = [_as_int("seeds", s) for s in cfg.seeds]
        negative = [s for s in cfg.seeds if s < 0]
        if negative:
            raise ConfigError(f"configuration key 'seeds' must list non-negative seeds, got {negative}")
        repeated = sorted(s for s, n in Counter(cfg.seeds).items() if n > 1)
        if repeated:
            raise ConfigError(f"configuration key 'seeds' lists seeds {repeated} more than once")

    if cfg.seeds is None:
        cfg.seeds = resolve_seeds(cfg.base_seed, cfg.num_seeds)
    cfg.num_seeds = len(cfg.seeds)
    return cfg


def resolve_seeds(base_seed: int, count: int) -> List[int]:
    return [mix_seed(base_seed, i) for i in range(count)]
