import dataclasses
import functools
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits import cli, runner, scenarios
from duelbandits.cli import main
from duelbandits.config import (DAMPING_FNS, ESTIMATOR_CLASSES, ESTIMATORS, POLICY_MODES,
                                RADIUS_MODES, SCENARIOS, ExperimentConfig, _FIELD_TYPES, _OPTIONAL_FIELDS, mix_seed,
                                parse_config, resolve_seeds)
from duelbandits.diagnostics import DOMINATION_AUDIT_POINTS
from duelbandits.exceptions import ConfigError
from duelbandits.onepass import OnePassRewardEstimator
from duelbandits.runner import aggregate_summaries, run_experiment
from duelbandits.scenarios import (CSV_BLOCK_ROWS, ENUMERATE_BUDGET, FileSink, MemorySink,
                                   RunRecord)
from duelbandits.verify import (
    check_sherman_morrison_agreement,
    check_domination_zero_case,
    check_timing_profile_oracle,
    run_verify,
)

from conftest import csv_without_wall, fail_seed_at


class TestParseConfig:
    def test_documented_defaults(self):
        cfg = parse_config({"scenario": "passive"})
        assert (cfg.d, cfg.contexts, cfg.actions) == (5, 8, 4)
        assert (cfg.B, cfg.L) == (1.0, 1.0)
        assert cfg.T == 2000
        assert len(cfg.seeds) == 20
        assert cfg.estimator == "omd"
        eta = 0.5 * math.log(2.0) + 2.0
        assert abs(cfg.eta - eta) < 1e-12
        assert abs(cfg.lam - 84 * math.sqrt(2) * eta * 6.0) < 1e-9

    def test_eta_override_keeps_lambda_formula(self):
        cfg = parse_config({"scenario": "deploy", "eta": 2.0})
        assert cfg.eta == 2.0
        assert abs(cfg.lam - 84 * math.sqrt(2) * 2.0 * 6.0) < 1e-9

    def test_both_overridden(self):
        cfg = parse_config({"scenario": "deploy", "eta": 2.0, "lam": 7.0})
        assert (cfg.eta, cfg.lam) == (2.0, 7.0)

    def test_negative_horizon_names_key(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config({"scenario": "deploy", "T": -5})

    def test_unknown_key_named(self):
        # K and cg_tol are retired hvpcg knobs, and bench_estimators went with the
        # bench scenario: an old echoed config holding any of them fails
        for key in ("velocity", "K", "cg_tol", "bench_estimators"):
            with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
                parse_config({"scenario": "deploy", key: 3})

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config({"scenario": "deploy", "T": "soon"})

    def test_scenario_required(self):
        with pytest.raises(ConfigError, match="'scenario'"):
            parse_config({})

    def test_enum_values_checked(self):
        with pytest.raises(ConfigError, match="'estimator'"):
            parse_config({"scenario": "deploy", "estimator": "sgd"})
        with pytest.raises(ConfigError, match="'radius_mode'"):
            parse_config({"scenario": "deploy", "radius_mode": "hopeful"})
        with pytest.raises(ConfigError, match="'scenario'"):
            parse_config({"scenario": "bench"})

    def test_overflowing_kappa_names_B(self):
        # kappa_bound = 3 + exp(2*B*L) overflows a double past 2*B*L ~ 709.78
        with pytest.raises(ConfigError, match="'B'"):
            parse_config({"scenario": "deploy", "B": 400})
        assert parse_config({"scenario": "deploy", "B": 350, "lam": 1.0}).B == 350.0
        # at the default lam ~ 1.5e7, kappa * lam overflows: the domination audit
        # failed every omd seed with a LinAlgError
        with pytest.raises(ConfigError, match="'B'"):
            parse_config({"scenario": "deploy", "B": 350})

    def test_explicit_lam_with_hvpcg_names_lam(self):
        # hvpcg's damping schedule stands in for lam, so a lam could change nothing
        with pytest.raises(ConfigError, match="^configuration key 'lam' has no effect with "
                           "estimator 'hvpcg', whose damping is set by 'lambda0' and "
                           "'damping_fn'; leave it unset$"):
            parse_config({"scenario": "active", "estimator": "hvpcg", "lam": 5.0})
        with pytest.raises(ConfigError, match="'lam'"):
            parse_config(run_flags_config(["--scenario", "active", "--estimator", "hvpcg",
                                           "--lambda", "5"]))

    def test_hvpcg_resolves_and_checks_no_lam(self):
        # omd refuses B=350 at its default lam (kappa * lam overflows); hvpcg forms no lam
        cfg = parse_config({"scenario": "deploy", "estimator": "hvpcg", "B": 350, "T": 20,
                            "num_seeds": 1})
        assert cfg.lam is None and cfg.eta is not None
        assert runner.run_single(cfg, cfg.seeds[0]).summary["aborted"] is None

    def test_hvpcg_echo_shows_lam_null(self):
        cfg = parse_config({"scenario": "active", "estimator": "hvpcg"})
        echoed = json.loads(cfg.echo_json())
        assert echoed["lam"] is None
        assert parse_config(echoed) == cfg
        assert json.loads(parse_config({"scenario": "active"}).echo_json())["lam"] > 0

    @pytest.mark.parametrize("key, value", [
        ("eta", 1e308),   # lam resolves to inf
        ("lam", 1e308),   # kappa * lam overflows
        ("lam", 1e-320),  # 1 / lam overflows
        ("L", 1e-200),    # lam underflows to 0
    ], ids=["eta-huge", "lam-huge", "lam-tiny", "L-tiny"])
    def test_unusable_resolved_hyperparameter_names_key(self, key, value):
        # each of these used to parse and then fail inside every seed
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config({"scenario": "deploy", key: value})

    def test_explicit_seed_list(self):
        cfg = parse_config({"scenario": "deploy", "seeds": [5, 6, 7]})
        assert cfg.seeds == [5, 6, 7]
        assert cfg.num_seeds == 3

    def test_repeated_seed_names_key(self):
        # a repeated seed would run twice, write the same artifacts twice and
        # count twice in the aggregate medians
        with pytest.raises(ConfigError, match="'seeds'.*\\[7\\]"):
            parse_config({"scenario": "deploy", "seeds": [7, 7, 8]})

    @pytest.mark.parametrize("scenario", ["active", "deploy"])
    def test_zero_horizon_names_key(self, scenario):
        with pytest.raises(ConfigError, match="'T' must be >= 1"):
            parse_config({"scenario": scenario, "T": 0})

    def test_passive_keeps_zero_horizon(self):
        # T = 0 is the pessimistic policy of the prior alone
        assert parse_config({"scenario": "passive", "T": 0}).T == 0

    def test_enumerate_over_budget_names_policy_mode(self):
        # 4**11 policies: each seed used to fail at its first checkpoint
        for contexts, actions in ((11, 4), (10**9, 2)):
            with pytest.raises(ConfigError, match="'policy_mode'"):
                parse_config({"scenario": "passive", "contexts": contexts, "actions": actions})
        # exactly the budget (10**6), one action, greedy mode and other scenarios pass
        for data in ({"scenario": "passive", "contexts": 6, "actions": 10},
                     {"scenario": "passive", "contexts": 10**9, "actions": 1},
                     {"scenario": "passive", "contexts": 11, "actions": 4,
                      "policy_mode": "greedy_percontext"},
                     {"scenario": "active", "contexts": 11, "actions": 4}):
            assert parse_config(data).contexts == data["contexts"]


FLOAT_FIELDS = sorted(k for k, target in _FIELD_TYPES.items() if target is float)
INT_FIELDS = sorted(k for k, target in _FIELD_TYPES.items() if target is int)
POSITIVE = st.floats(1e-3, 1e3)

# one strategy of valid values per ExperimentConfig field
FIELD_STRATEGIES = {
    "scenario": st.sampled_from(SCENARIOS),
    "estimator": st.sampled_from(ESTIMATORS),
    "d": st.integers(1, 64),
    "contexts": st.integers(1, 64),
    "actions": st.integers(1, 64),
    "B": st.floats(1e-3, 10.0),
    "L": st.floats(1e-3, 10.0),
    "T": st.integers(1, 10**7),
    "seeds": st.none() | st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5,
                                  unique=True),
    "num_seeds": st.integers(1, 64),
    "base_seed": st.integers(0, 2**32),
    "coverage_skew": st.floats(0.0, 1.0),
    "eta": st.none() | POSITIVE,
    "lam": st.none() | POSITIVE,
    "c_beta": st.floats(0.0, 1e3),
    "radius_mode": st.sampled_from(RADIUS_MODES),
    "delta": st.floats(1e-9, 1.0),
    "explore_coeff": st.floats(0.0, 1e3),
    "lambda0": POSITIVE,
    "damping_fn": st.sampled_from(DAMPING_FNS),
    "policy_mode": st.sampled_from(POLICY_MODES),
    "output_dir": st.text(min_size=1, max_size=20),
    "workers": st.integers(1, 8),
}


def within_enumerate_budget(data) -> bool:
    """Whether a passive enumerate config has at most ENUMERATE_BUDGET policies."""
    if data["scenario"] != "passive" or data.get("policy_mode", "enumerate") != "enumerate":
        return True
    actions = data.get("actions", ExperimentConfig.actions)
    return actions ** data.get("contexts", ExperimentConfig.contexts) <= ENUMERATE_BUDGET


def lam_where_taken(data) -> bool:
    """Whether an explicit lam goes to an estimator that takes one (hvpcg does not)."""
    return data.get("lam") is None or data.get("estimator") != "hvpcg"


VALID_CONFIGS = st.fixed_dictionaries(
    {"scenario": FIELD_STRATEGIES["scenario"]},
    optional={k: v for k, v in FIELD_STRATEGIES.items() if k != "scenario"},
).filter(within_enumerate_budget).filter(lam_where_taken)
# the flag of every config key that has one; the seed list has none
FLAGS = {
    "scenario": "--scenario", "estimator": "--estimator", "d": "--d",
    "contexts": "--contexts", "actions": "--actions", "B": "--B", "L": "--L", "T": "--T",
    "num_seeds": "--seeds", "base_seed": "--base-seed", "coverage_skew": "--coverage-skew",
    "eta": "--eta", "lam": "--lambda", "c_beta": "--c-beta", "radius_mode": "--radius-mode",
    "delta": "--delta", "explore_coeff": "--explore-coeff", "lambda0": "--lambda0",
    "damping_fn": "--damping-fn", "policy_mode": "--policy-mode", "output_dir": "--out",
    "workers": "--workers",
}
PARSER = cli._parser()
README = Path(__file__).resolve().parents[1] / "README.md"


def run_flags_config(argv) -> dict:
    """The config mapping ``duelbandits run`` builds from its arguments."""
    return cli._collect(PARSER.parse_args(["run", *argv]))


class TestConfigFields:
    def test_field_types_come_from_the_dataclass(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(_FIELD_TYPES) == names
        assert sorted(FIELD_STRATEGIES) == sorted(names)
        assert _OPTIONAL_FIELDS == {"seeds", "eta", "lam"}
        assert _FIELD_TYPES["seeds"] is list

    def test_run_has_one_flag_per_key(self):
        dests = set(vars(PARSER.parse_args(["run"]))) - {"command", "func", "config"}
        assert dests == set(FLAGS)
        assert sorted(set(_FIELD_TYPES) - set(FLAGS)) == ["seeds"]

    @settings(max_examples=200, deadline=None)
    @given(VALID_CONFIGS)
    def test_flag_sets_field_as_config_file_key(self, data):
        """Each flag gives the same config as its key in a --config file."""
        data = {k: v for k, v in data.items() if k in FLAGS}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            from_file = run_flags_config(["--config", str(path)])
        # "--flag=value" keeps a value that starts with "-" an argument
        from_flags = run_flags_config([f"{FLAGS[k]}={v}" for k, v in data.items()
                                       if v is not None])
        assert parse_config(from_flags) == parse_config(from_file)

    @settings(max_examples=200, deadline=None)
    @given(VALID_CONFIGS)
    def test_echo_roundtrip_property(self, data):
        cfg = parse_config(data)
        echoed = json.loads(cfg.echo_json())
        assert sorted(echoed) == sorted(_FIELD_TYPES)
        assert parse_config(echoed) == cfg

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_non_finite_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config({"scenario": "deploy", key: value})

    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_infinite_int_names_key(self, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config({"scenario": "deploy", key: math.inf})

    def test_infinite_json_horizon_names_key(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config(json.loads('{"scenario": "deploy", "T": Infinity}'))

    def test_infinite_seed_rejected(self):
        with pytest.raises(ConfigError, match="'seeds'"):
            parse_config({"scenario": "deploy", "seeds": [math.inf]})

    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_boolean_float_names_key(self, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config({"scenario": "deploy", key: True})

    @pytest.mark.parametrize("seeds", [[1.5, 2.7], [3, 0.5], [True], [None], ["x"]],
                             ids=["fractions", "one-fraction", "bool", "null", "text"])
    def test_non_integer_seeds_name_key(self, seeds):
        with pytest.raises(ConfigError, match="'seeds'"):
            parse_config({"scenario": "deploy", "seeds": seeds})

    def test_negative_seed_names_key(self):
        # the generator rejects a negative seed only once the run starts
        with pytest.raises(ConfigError, match="'seeds'.*\\[-1\\]"):
            parse_config({"scenario": "deploy", "seeds": [-1]})

    def test_integral_seed_values_accepted(self):
        assert parse_config({"scenario": "deploy", "seeds": [1.0, "2", 3]}).seeds == [1, 2, 3]


# each kind with every config key it takes set off its default, and the
# constructor parameters the key must reach (d and damping_fn are renamed)
COMMON_KEYS = {"d": 3, "B": 0.5, "L": 2.0, "c_beta": 0.5, "delta": 0.05}
COMMON_PARAMS = {"dim": 3, "B": 0.5, "L": 2.0, "c_beta": 0.5, "delta": 0.05}
CATALOGUE_CASES = {
    "omd": ({"eta": 0.25, "lam": 3.0, "radius_mode": "theory"},
            {"eta": 0.25, "lam": 3.0, "radius_mode": "theory"}),
    "mle": ({"lam": 3.0}, {"lam": 3.0}),
    "implicit": ({"eta": 0.25, "lam": 3.0}, {"eta": 0.25, "lam": 3.0}),
    "hvpcg": ({"eta": 0.25, "lambda0": 0.5, "damping_fn": "log"},
              {"eta": 0.25, "lambda0": 0.5, "damping": "log"}),
}


class TestEstimatorCatalogue:
    def test_every_kind_has_a_case(self):
        assert ESTIMATORS == tuple(ESTIMATOR_CLASSES) == tuple(CATALOGUE_CASES)

    @pytest.mark.parametrize("kind", list(CATALOGUE_CASES))
    def test_build_fills_the_constructor_by_name(self, kind):
        keys, params = CATALOGUE_CASES[kind]
        cfg = parse_config({"scenario": "active", "estimator": kind, **COMMON_KEYS, **keys})
        est = runner.build_estimator(cfg)
        assert type(est) is ESTIMATOR_CLASSES[kind]
        # a parameter the config has no key for keeps its constructor default
        defaults = {name: p.default for name, p in inspect.signature(type(est)).parameters.items()}
        assert est.get_params() == {**defaults, **COMMON_PARAMS, **params}

    def test_mle_takes_lam_but_no_eta(self):
        cfg = parse_config({"scenario": "passive", "estimator": "mle", "lam": 3.0, "eta": 0.25})
        params = runner.build_estimator(cfg).get_params()
        assert params["lam"] == 3.0 and "eta" not in params


class TestSeedFanout:
    def test_prefix_stability(self):
        assert resolve_seeds(0, 5) == resolve_seeds(0, 20)[:5]

    def test_distinct_across_indices_and_bases(self):
        seeds = resolve_seeds(0, 100) + resolve_seeds(1, 100)
        assert len(set(seeds)) == 200

    def test_mix_is_deterministic(self):
        assert mix_seed(42, 7) == mix_seed(42, 7)
        assert 0 <= mix_seed(42, 7) < 2**64


class TestRunExperiment:
    def test_artifact_contract(self, tmp_path):
        cfg = parse_config({"scenario": "deploy", "estimator": "omd", "T": 50,
                            "num_seeds": 3, "output_dir": str(tmp_path / "out")})
        result = run_experiment(cfg)
        out = tmp_path / "out"
        csvs = sorted(out.glob("deploy_omd_seed*.csv"))
        summaries = sorted(out.glob("deploy_omd_seed*_summary.json"))
        assert len(csvs) == 3 and len(summaries) == 3
        assert (out / "aggregate.json").exists()
        assert (out / "config.json").exists()
        echoed = parse_config(json.loads((out / "config.json").read_text()))
        assert echoed == cfg
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds_completed"] == 3
        assert agg["failed"] == []
        assert "cum_regret" in agg["metrics"]
        summary = json.loads(summaries[0].read_text())
        assert summary["config"]["T"] == 50
        assert summary["diagnostics"]["coverage_ok"] in (True, False)
        assert summary["diagnostics"]["potential_lhs"] <= summary["diagnostics"]["potential_rhs"] + 1e-9

    def test_metric_columns_reproducible(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            cfg = parse_config({"scenario": "deploy", "T": 40, "num_seeds": 2,
                                "output_dir": str(tmp_path / name)})
            run_experiment(cfg)
            paths.append(tmp_path / name)
        for csv in sorted(paths[0].glob("*.csv")):
            other = paths[1] / csv.name
            a_rows = csv.read_text().splitlines()
            b_rows = other.read_text().splitlines()
            header = a_rows[0].split(",")
            skip = header.index("wall_nanos")
            for ra, rb in zip(a_rows, b_rows):
                ca, cb = ra.split(","), rb.split(",")
                del ca[skip], cb[skip]
                assert ca == cb

    def test_all_estimators_run(self, tmp_path):
        for kind in ESTIMATORS:
            cfg = parse_config({"scenario": "active", "estimator": kind, "T": 25,
                                "num_seeds": 1, "output_dir": str(tmp_path / kind)})
            result = run_experiment(cfg)
            assert result.aggregate["seeds_completed"] == 1, kind

    @pytest.mark.parametrize("kind", ESTIMATORS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_accepted_config_runs(self, tmp_path, scenario, kind):
        # at the smallest T each scenario accepts; passive T = 0 is the prior's policy alone
        cfg = parse_config({"scenario": scenario, "estimator": kind,
                            "T": 0 if scenario == "passive" else 1, "contexts": 3,
                            "actions": 3, "num_seeds": 2, "output_dir": str(tmp_path / "out")})
        assert run_experiment(cfg).aggregate["failed"] == []

    def test_workers_do_not_change_metrics(self, tmp_path):
        base = {"scenario": "deploy", "T": 40, "num_seeds": 4}
        r1 = run_experiment(parse_config({**base, "workers": 1,
                                          "output_dir": str(tmp_path / "w1")}))
        r2 = run_experiment(parse_config({**base, "workers": 2,
                                          "output_dir": str(tmp_path / "w2")}))
        m1 = {k: v for k, v in r1.aggregate["metrics"].items() if k != "update_ns_mean"}
        m2 = {k: v for k, v in r2.aggregate["metrics"].items() if k != "update_ns_mean"}
        assert m1 == m2

    def test_workers_do_not_change_lone_seed_runs(self, tmp_path):
        """A kind without a lockstep update runs one seed a call, in a pool worker too."""
        base = {"scenario": "passive", "estimator": "mle", "T": 40, "num_seeds": 4}
        r1 = run_experiment(parse_config({**base, "workers": 1,
                                          "output_dir": str(tmp_path / "w1")}))
        r2 = run_experiment(parse_config({**base, "workers": 2,
                                          "output_dir": str(tmp_path / "w2")}))
        assert [s["seed"] for s in r2.summaries] == r2.config.seeds
        assert list(map(untimed_summary, r1.summaries)) == list(map(untimed_summary, r2.summaries))
        csvs = sorted(p.name for p in (tmp_path / "w1").glob("*.csv"))
        assert len(csvs) == 4
        for name in csvs:
            assert csv_without_wall(tmp_path / "w1" / name) == csv_without_wall(tmp_path / "w2" / name)

    def test_aggregate_permutation_invariant(self):
        rng = np.random.default_rng(0)
        summaries = [
            {"seed": i, "aborted": None, "cum_regret": float(rng.random()),
             "final_est_err_l2": float(rng.random()), "update_ns_mean": 1.0}
            for i in range(7)
        ]
        base = aggregate_summaries(summaries, "deploy")
        shuffled = summaries[::-1]
        assert aggregate_summaries(shuffled, "deploy") == base


TIMING_FIELDS = ("timing_early_ns", "timing_late_ns", "timing_ratio")


def untimed(report):
    return {k: v for k, v in report.items() if k not in TIMING_FIELDS}


def untimed_summary(summary):
    """A seed's summary without its timings, and without the config, which names the output directory."""
    out = {k: v for k, v in summary.items()
           if k not in ("update_ns_total", "update_ns_mean", "config")}
    out["diagnostics"] = untimed(summary["diagnostics"])
    return out


def strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStreamedArtifacts:
    """run_experiment streams the rounds to the CSVs; library calls keep them in memory."""

    @pytest.mark.parametrize("kind", ESTIMATORS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_streamed_artifacts_match_memory_records(self, tmp_path, scenario, kind):
        # one full block of rounds and a partial one
        cfg = parse_config({"scenario": scenario, "estimator": kind, "T": CSV_BLOCK_ROWS + 6,
                            "num_seeds": 2, "output_dir": str(tmp_path / "out")})
        result = run_experiment(cfg)
        recs = runner.run_single(cfg, list(cfg.seeds))
        for rec, summary in zip(recs, result.summaries):
            rec.write_csv(tmp_path / "memory.csv")
            streamed = tmp_path / "out" / f"{scenario}_{kind}_seed{rec.seed}.csv"
            assert csv_without_wall(streamed) == csv_without_wall(tmp_path / "memory.csv")
            assert untimed(summary["diagnostics"]) == untimed(rec.summary["diagnostics"])
        artifacts = sorted((tmp_path / "out").iterdir())
        assert len(artifacts) == 2 * len(cfg.seeds) + 2
        for path in artifacts:
            if path.suffix == ".json":
                strict_json(path)

    def test_seed_failing_mid_stack_ends_its_csv_there(self, tmp_path, monkeypatch):
        """A lockstep seed whose update fails at round k writes k rows; the others go on."""
        k = CSV_BLOCK_ROWS + 6  # past the first block
        cfg = parse_config({"scenario": "deploy", "T": 2 * CSV_BLOCK_ROWS + 22, "num_seeds": 3,
                            "output_dir": str(tmp_path / "out")})
        fail_seed_at(monkeypatch, cfg.seeds[1], k)
        result = run_experiment(cfg)
        assert [s["aborted"] for s in result.summaries] == [None, "synthetic fault", None]
        recs = runner.run_single(cfg, list(cfg.seeds))
        for rec, summary in zip(recs, result.summaries):
            path = tmp_path / "out" / f"deploy_omd_seed{rec.seed}.csv"
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == (k if summary["aborted"] else cfg.T) == summary["completed"]
            assert rows[-1].endswith(",update_failed") == bool(summary["aborted"])
            rec.write_csv(tmp_path / "memory.csv")
            assert csv_without_wall(path) == csv_without_wall(tmp_path / "memory.csv")
            # the aborted seed's timing windows are read back from the rows it wrote
            wall = np.array([int(row.split(",")[1]) for row in rows])
            tenth = len(rows) // 10
            assert summary["diagnostics"]["timing_early_ns"] == float(wall[:tenth].mean())
            assert summary["diagnostics"]["timing_late_ns"] == float(wall[-tenth:].mean())
        assert sorted(p.name for p in (tmp_path / "out").iterdir() if ".part" in p.name) == []

    def test_file_record_len_is_its_completed_rounds(self, tmp_path, monkeypatch):
        """A record whose rows went to a CSV has the length of the rows its seed wrote."""
        k = CSV_BLOCK_ROWS + 6
        cfg = parse_config({"scenario": "deploy", "T": 2 * CSV_BLOCK_ROWS, "num_seeds": 2})
        fail_seed_at(monkeypatch, cfg.seeds[1], k)
        part = str(tmp_path / "seed{}.csv.part")
        results = runner._run_all(cfg, functools.partial(FileSink, part))
        assert [len(rec) for _, rec, _ in results] == [cfg.T, k]

    def test_both_sinks_put_the_same_blocks(self, tmp_path, monkeypatch):
        """Either sink gets a block every CSV_BLOCK_ROWS rounds, at each domination audit
        point, at the end and where a seed stops.

        The stack fails at round k and is thrown away; its seeds run again alone.
        """
        k = CSV_BLOCK_ROWS + 40  # inside the second block
        cfg = parse_config({"scenario": "deploy", "T": 2 * CSV_BLOCK_ROWS + 6, "num_seeds": 3})
        fail_seed_at(monkeypatch, cfg.seeds[1], k)

        def spying(sink):
            calls = []

            class Spy(sink):
                def put(self, hi):
                    calls.append((hi, self.seeds))
                    return super().put(hi)

            return calls, Spy

        memory, spy = spying(MemorySink)
        runner.run_single(cfg, list(cfg.seeds), spy)
        file, spy = spying(FileSink)
        runner.run_single(cfg, list(cfg.seeds), functools.partial(spy, str(tmp_path / "s{}.csv")))
        first, bad, last = cfg.seeds
        audit = DOMINATION_AUDIT_POINTS[0]  # inside the first block
        whole = [audit, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS, cfg.T]
        assert memory == file == [(audit, cfg.seeds), (CSV_BLOCK_ROWS, cfg.seeds)] + [
            (hi, [seed]) for seed, his in ((first, whole), (bad, [audit, CSV_BLOCK_ROWS, k]),
                                           (last, whole)) for hi in his]

    def test_chunk_that_raises_leaves_no_stale_csv(self, tmp_path, monkeypatch):
        """A chunk that raises mid-write reruns by seed; the seed that raises alone keeps no file."""
        cfg = parse_config({"scenario": "deploy", "T": CSV_BLOCK_ROWS + 50, "num_seeds": 3,
                            "output_dir": str(tmp_path / "out")})
        bad = cfg.seeds[1]

        class Breaking(FileSink):
            def put(self, hi):
                cols = super().put(hi)
                if hi > CSV_BLOCK_ROWS and bad in self.seeds:
                    raise RuntimeError("disk gone")
                return cols

        monkeypatch.setattr(runner, "FileSink", Breaking)
        result = run_experiment(cfg)
        assert result.aggregate["failed"] == [{"seed": bad, "error": "RuntimeError: disk gone"}]
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == sorted(["aggregate.json", "config.json"] + [
            f"deploy_omd_seed{seed}{suffix}" for seed in cfg.seeds if seed != bad
            for suffix in (".csv", "_summary.json")])
        for rec in runner.run_single(cfg, list(cfg.seeds)):
            if rec.seed != bad:
                rec.write_csv(tmp_path / "memory.csv")
                assert csv_without_wall(tmp_path / "out" / f"deploy_omd_seed{rec.seed}.csv") \
                    == csv_without_wall(tmp_path / "memory.csv")

    @pytest.mark.parametrize("forks", [True, False], ids=["forked", "inline"])
    def test_writer_error_fails_every_seed_loudly(self, tmp_path, monkeypatch, forks):
        """A block append that raises fails each seed with that error; no CSV, no child is left."""
        monkeypatch.setattr(scenarios, "_forks_writer", lambda workers: forks)
        write_csv = RunRecord.write_csv

        def full(self, path, shared=None, append=False):
            if append:
                raise OSError(28, "No space left on device", str(path))
            write_csv(self, path, shared, append)

        monkeypatch.setattr(RunRecord, "write_csv", full)
        out = tmp_path / "out"
        assert main(["run", "--scenario", "deploy", "--T", str(CSV_BLOCK_ROWS + 50),
                     "--seeds", "3", "--out", str(out)]) == 1
        seeds = json.loads((out / "config.json").read_text())["seeds"]
        assert json.loads((out / "aggregate.json").read_text())["failed"] == [
            {"seed": seed, "error": "OSError: [Errno 28] No space left on device: "
                                    f"'{out / f'deploy_omd_seed{seed}.csv.part'}'"}
            for seed in sorted(seeds)]
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.json", "config.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_inline_and_forked_writes_give_the_same_bytes(self, tmp_path, monkeypatch, scenario):
        """The writer child and the inline write append the same rows, across several blocks."""
        base = {"scenario": scenario, "T": 2 * CSV_BLOCK_ROWS + 22, "num_seeds": 3}
        for forks in (True, False):
            monkeypatch.setattr(scenarios, "_forks_writer", lambda workers: forks)
            run_experiment(parse_config({**base, "output_dir": str(tmp_path / str(forks))}))
        names = sorted(p.name for p in (tmp_path / "True").glob("*.csv"))
        assert len(names) == 3
        for name in names:
            assert (tmp_path / "True" / name).read_text().count("\n") == base["T"] + 1
            assert csv_without_wall(tmp_path / "True" / name) == csv_without_wall(
                tmp_path / "False" / name)

    def test_interrupted_run_leaves_no_writer(self, tmp_path, monkeypatch):
        """A KeyboardInterrupt after a block was put reaches the caller, its writer joined."""
        update = OnePassRewardEstimator.update

        def interrupted(self, z, y):
            if self.t_ == CSV_BLOCK_ROWS + 10:
                raise KeyboardInterrupt
            update(self, z, y)

        monkeypatch.setattr(OnePassRewardEstimator, "update", interrupted)
        cfg = parse_config({"scenario": "deploy", "T": 2 * CSV_BLOCK_ROWS, "num_seeds": 2,
                            "output_dir": str(tmp_path / "out")})
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers, forks", [(2, False), (1, True)])
    def test_writer_forks_only_onto_a_free_cpu(self, tmp_path, monkeypatch, workers, forks):
        """On two CPUs, a run set of two workers forks no CSV writer; one worker still does."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sinks = []  # the sink factory run_experiment hands its workers
        monkeypatch.setattr(runner, "_run_all", lambda cfg, sink: sinks.append(sink) or [])
        run_experiment(parse_config({"scenario": "deploy", "T": 10, "num_seeds": 2,
                                     "workers": workers, "output_dir": str(tmp_path)}))
        sink = sinks[0]("deploy", [runner.make_environment(5, 8, 4, seed=0)], 10, False, None)
        try:
            assert (sink.writer is not None) == forks
        finally:
            sink.join()

    def test_block_cut_short_ends_the_writer_quietly(self):
        """A block the parent stopped sending midway, as on an interrupt, is no writer error."""
        writer = scenarios._Writer(lambda block: None)
        writer.pipe.write((1000).to_bytes(8, "little") + b"cut")
        writer.join()

    def test_failed_fork_closes_its_pipes(self, monkeypatch):
        """A fork that fails raises its error and leaves none of the writer's pipe ends open."""
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            scenarios._Writer(lambda block: None)
        assert set(os.listdir("/proc/self/fd")) == before

    def test_peak_memory_does_not_grow_with_T(self, tmp_path):
        """A 4-seed deploy run set holds one block of rounds: the same peak at T=500 and 5000."""
        import tracemalloc

        def peak(T):
            cfg = parse_config({"scenario": "deploy", "T": T, "num_seeds": 4,
                                "output_dir": str(tmp_path / str(T))})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(70)  # first-call costs stay out of the comparison
        short, long = peak(500), peak(5000)
        assert abs(long - short) < 256 * 1024, (short, long)

    def test_peak_memory_does_not_grow_with_lone_seeds(self, tmp_path):
        """Lone seeds (mle) free their state as each run ends: the same peak at 1 and 4 seeds."""
        import tracemalloc

        def peak(num_seeds):
            cfg = parse_config({"scenario": "passive", "estimator": "mle", "d": 20, "T": 600,
                                "num_seeds": num_seeds, "policy_mode": "greedy_percontext",
                                "output_dir": str(tmp_path / str(num_seeds))})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call costs stay out of the comparison
        one, four = peak(1), peak(4)
        assert abs(four - one) < 128 * 1024, (one, four)


class TestCli:
    def test_import_leaves_multiprocessing_unloaded(self):
        # a one-worker run never starts a process pool, so importing the
        # program must not load one
        src = str(Path(runner.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, duelbandits, duelbandits.cli, duelbandits.runner; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_run_writes_artifacts(self, tmp_path, capsys):
        code = main(["run", "--scenario", "deploy", "--T", "30", "--seeds", "2",
                     "--out", str(tmp_path / "cli")])
        assert code == 0
        assert len(list((tmp_path / "cli").glob("*.csv"))) == 2
        assert "seeds completed" in capsys.readouterr().out

    def test_overflowing_B_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "deploy", "--B", "400", "--T", "50",
                     "--seeds", "1", "--out", str(tmp_path / "big")])
        assert code == 2
        assert "'B'" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()

    def test_failed_seed_exits_nonzero_and_is_listed(self, tmp_path, capsys, monkeypatch):
        seeds = resolve_seeds(0, 3)
        real = runner.make_environment

        # every path builds each seed's environment; the lockstep batch that
        # meets the error reruns its seeds one at a time
        def flaky(*args, seed, **kwargs):
            if seed == seeds[1]:
                raise OverflowError("math range error")
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(runner, "make_environment", flaky)
        code = main(["run", "--scenario", "deploy", "--T", "20", "--seeds", "3",
                     "--out", str(tmp_path / "flaky")])
        assert code != 0
        assert f"seed {seeds[1]} failed: OverflowError" in capsys.readouterr().err
        agg = json.loads((tmp_path / "flaky" / "aggregate.json").read_text())
        assert (agg["seeds_total"], agg["seeds_completed"]) == (3, 2)
        assert agg["failed"] == [{"seed": seeds[1],
                                  "error": "OverflowError: math range error"}]

    def test_active_zero_horizon_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "active", "--T", "0",
                     "--out", str(tmp_path / "active0")])
        assert code == 2
        assert "'T'" in capsys.readouterr().err
        assert not (tmp_path / "active0").exists()

    def test_readme_cli_block_parses(self):
        """Every command in README's CLI block parses, and each run command's config too."""
        section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("duelbandits ")]
        assert commands
        for argv in commands:
            args = PARSER.parse_args(argv)
            if args.command == "run":
                parse_config(cli._collect(args))

    def test_verify_unknown_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--checks", "sigmoid-symetry"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'sigmoid-symetry'" in captured.err
        assert "[PASS]" not in captured.out

    def test_bad_value_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "deploy", "--T", "-5",
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "'T'" in capsys.readouterr().err

    def test_nan_flag_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "deploy", "--c-beta", "nan", "--T", "20",
                     "--seeds", "1", "--out", str(tmp_path / "nan")])
        assert code == 2
        assert "'c_beta'" in capsys.readouterr().err
        assert not (tmp_path / "nan").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "deploy", "T": 55, "num_seeds": 1}))
        code = main(["run", "--config", str(cfg_file), "--T", "20",
                     "--out", str(tmp_path / "cfgout")])
        assert code == 0
        echoed = json.loads((tmp_path / "cfgout" / "config.json").read_text())
        assert echoed["T"] == 20

    def test_verify_subset_passes(self, capsys):
        code = main(["verify", "--checks", "domination-zero-case",
                     "timing-profile-oracle", "sigmoid-symmetry"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_verify_unknown_check_raises(self):
        with pytest.raises(ValueError, match="'sigmoid-symetry'"):
            run_verify(names=["sigmoid-symetry"])

    def test_fault_injected_sherman_morrison_fails(self):
        def corrupted(inv, z, w):
            from duelbandits.linalg import sherman_morrison

            out = sherman_morrison(inv, z, w)
            out[0, 0] *= 1.0 + 1e-5
            return out

        ok, detail = check_sherman_morrison_agreement(0, sm_fn=corrupted)
        assert not ok
        ok, _ = check_sherman_morrison_agreement(0)
        assert ok

    def test_verify_checks_deterministic(self):
        assert check_domination_zero_case(0) == check_domination_zero_case(0)
        assert check_timing_profile_oracle(0)[0]
