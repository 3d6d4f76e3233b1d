import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandits import runner
from duelbandits.cli import main
from duelbandits.config import (DAMPING_FNS, ESTIMATORS, POLICY_MODES, RADIUS_MODES, SCENARIOS,
                                ExperimentConfig, _FIELD_TYPES, _OPTIONAL_FIELDS, mix_seed,
                                parse_config, resolve_seeds)
from duelbandits.exceptions import ConfigError
from duelbandits.runner import aggregate_summaries, bench_windows, run_experiment
from duelbandits.verify import (
    check_sherman_morrison_agreement,
    check_domination_zero_case,
    check_timing_profile_oracle,
)


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
        with pytest.raises(ConfigError, match="'velocity'"):
            parse_config({"scenario": "deploy", "velocity": 3})

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

    def test_echo_roundtrip(self):
        cfg = parse_config({"scenario": "active", "T": 123, "num_seeds": 3,
                            "c_beta": 0.5, "estimator": "hvpcg"})
        echoed = parse_config(json.loads(cfg.echo_json()))
        assert echoed == cfg

    def test_overflowing_kappa_names_B(self):
        # kappa_bound = 3 + exp(2*B*L) overflows a double past 2*B*L ~ 709.78
        with pytest.raises(ConfigError, match="'B'"):
            parse_config({"scenario": "deploy", "B": 400})
        assert parse_config({"scenario": "deploy", "B": 350}).B == 350.0

    def test_explicit_seed_list(self):
        cfg = parse_config({"scenario": "deploy", "seeds": [5, 6, 7]})
        assert cfg.seeds == [5, 6, 7]
        assert cfg.num_seeds == 3


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
    "T": st.integers(0, 10**7),
    "seeds": st.none() | st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    "num_seeds": st.integers(1, 64),
    "base_seed": st.integers(0, 2**32),
    "coverage_skew": st.floats(0.0, 1.0),
    "eta": st.none() | POSITIVE,
    "lam": st.none() | POSITIVE,
    "c_beta": st.floats(0.0, 1e3),
    "radius_mode": st.sampled_from(RADIUS_MODES),
    "delta": st.floats(1e-9, 1.0),
    "explore_coeff": st.floats(0.0, 1e3),
    "K": st.integers(1, 100),
    "lambda0": POSITIVE,
    "damping_fn": st.sampled_from(DAMPING_FNS),
    "cg_tol": st.floats(0.0, 1.0),
    "policy_mode": st.sampled_from(POLICY_MODES),
    "output_dir": st.text(min_size=1, max_size=20),
    "workers": st.integers(1, 8),
    "bench_estimators": st.lists(st.sampled_from(ESTIMATORS), max_size=4),
}
VALID_CONFIGS = st.fixed_dictionaries(
    {"scenario": FIELD_STRATEGIES["scenario"]},
    optional={k: v for k, v in FIELD_STRATEGIES.items() if k != "scenario"},
)


class TestConfigFields:
    def test_field_types_come_from_the_dataclass(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(_FIELD_TYPES) == names
        assert sorted(FIELD_STRATEGIES) == sorted(names)
        assert _OPTIONAL_FIELDS == {"seeds", "eta", "lam"}
        assert _FIELD_TYPES["seeds"] is list and _FIELD_TYPES["bench_estimators"] is list

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
        for kind in ("omd", "mle", "implicit", "hvpcg"):
            cfg = parse_config({"scenario": "active", "estimator": kind, "T": 25,
                                "num_seeds": 1, "output_dir": str(tmp_path / kind)})
            result = run_experiment(cfg)
            assert result.aggregate["seeds_completed"] == 1, kind

    def test_workers_do_not_change_metrics(self, tmp_path):
        base = {"scenario": "deploy", "T": 40, "num_seeds": 4}
        r1 = run_experiment(parse_config({**base, "workers": 1,
                                          "output_dir": str(tmp_path / "w1")}))
        r2 = run_experiment(parse_config({**base, "workers": 2,
                                          "output_dir": str(tmp_path / "w2")}))
        m1 = {k: v for k, v in r1.aggregate["metrics"].items() if k != "update_ns_mean"}
        m2 = {k: v for k, v in r2.aggregate["metrics"].items() if k != "update_ns_mean"}
        assert m1 == m2

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


class TestBench:
    def test_windows(self):
        assert bench_windows(10_000) == ((1000, 2000), (9000, 10000))

    def test_bench_emits_table(self, tmp_path, capsys):
        code = main(["bench", "--T", "300", "--d", "3", "--estimators", "omd,implicit",
                     "--out", str(tmp_path / "bench")])
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "omd" in out and "implicit" in out
        data = json.loads((tmp_path / "bench" / "bench.json").read_text())
        assert set(data["estimators"]) == {"omd", "implicit"}


class TestCli:
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
        real = runner.run_single

        def flaky(cfg, seed, estimator_kind=None):
            if seed == seeds[1]:
                raise OverflowError("math range error")
            return real(cfg, seed, estimator_kind=estimator_kind)

        monkeypatch.setattr(runner, "run_single", flaky)
        code = main(["run", "--scenario", "deploy", "--T", "20", "--seeds", "3",
                     "--out", str(tmp_path / "flaky")])
        assert code != 0
        assert f"seed {seeds[1]} failed: OverflowError" in capsys.readouterr().err
        agg = json.loads((tmp_path / "flaky" / "aggregate.json").read_text())
        assert (agg["seeds_total"], agg["seeds_completed"]) == (3, 2)
        assert agg["failed"] == [{"seed": seeds[1],
                                  "error": "OverflowError: math range error"}]

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
