"""Contextual dueling bandits with one-pass preference reward estimation.

A library and CLI simulator for Bradley-Terry preference feedback over linear
rewards: a constant-cost online mirror-descent estimator, MLE and implicit-OMD
baselines, the passive/active/deployment interaction loops, and runtime
diagnostics for the statistical guarantees.
"""

import types

from .base import BaseRewardEstimator, default_regularization, default_step_size
from .baselines import ImplicitOmdRewardEstimator, MleRewardEstimator
from .config import ExperimentConfig, mix_seed, parse_config
from .diagnostics import (
    coverage_check,
    diagnostics_report,
    elliptic_potential_check,
    norm_domination_check,
    timing_profile,
)
from .environment import (
    BehaviorSpec,
    Environment,
    FeatureTable,
    GroundTruth,
    Policy,
    make_environment,
)
from .exceptions import ConfigError, NumericFailure
from .linalg import LocalNormMatrix, cg_solve, mahalanobis_inv, sherman_morrison
from .linkmath import bt_sample, kappa_bound, sigmoid_pair
from .onepass import (
    HvpCgRewardEstimator,
    OnePassRewardEstimator,
    confidence_radius,
    project_localnorm_ball,
)
from .runner import build_estimator, run_experiment, run_single
from .scenarios import (
    RunRecord,
    greedy_policy,
    pessimistic_policy,
    run_active,
    run_deploy,
    run_passive,
    select_deploy_actions,
    select_most_uncertain,
    subopt,
)

__version__ = "0.1.0"

# every public name the imports above bind; the submodules they bind are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
