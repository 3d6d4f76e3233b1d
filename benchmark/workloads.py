"""The benchmark's workloads: each one is a list of run sets for the runner.

A run set is a flat config mapping for ``duelbandits.config.parse_config``,
minus the keys the harness fills in per run (``base_seed``, ``workers`` and
``output_dir``). Sizes are stated in full rather than left to the program's
defaults, so that a change of default cannot silently change a workload.
"""

from __future__ import annotations

# What `duelbandits run --scenario deploy` does out of the box: per-step cost
# is Python/numpy call overhead in the OMD update and the deploy pair choice.
DEPLOY_DEFAULT = [
    {"scenario": "deploy", "estimator": "omd", "d": 5, "contexts": 8, "actions": 4,
     "T": 2000, "num_seeds": 20},
]

# 32 contexts x 8 actions = 896 candidate pairs at d=20: the uncertainty scan
# dominates, and the same onepass/linalg code runs at d=20 instead of d=5.
ACTIVE_WIDE = [
    {"scenario": "active", "estimator": kind, "d": 20, "contexts": 32, "actions": 8,
     "T": 2000, "num_seeds": 2}
    for kind in ("omd", "hvpcg")
]

# The growing-state workload: the MLE buffer is refit in full on every step,
# and it is the only workload where the baselines and the pessimistic policy
# enumeration (4**8 policies per checkpoint) run.
PASSIVE_REFIT = [
    {"scenario": "passive", "estimator": kind, "d": 20, "contexts": 8, "actions": 4,
     "T": 2500, "num_seeds": 2, "policy_mode": "enumerate"}
    for kind in ("mle", "implicit")
]

WORKLOADS = {
    "deploy_default": DEPLOY_DEFAULT,
    "active_wide": ACTIVE_WIDE,
    "passive_refit": PASSIVE_REFIT,
}

# The probe kernel (probe.py) that matches each workload's hot path.
PROBE_KERNELS = {
    "deploy_default": "small_ops",
    "active_wide": "pair_scan",
    "passive_refit": "mixed",
}

# Tiny versions of the same run sets, for the benchmark's own self-tests.
SMOKE_SIZES = {"T": 40, "num_seeds": 1}


def smoke(runsets):
    return [{**spec, **SMOKE_SIZES} for spec in runsets]
