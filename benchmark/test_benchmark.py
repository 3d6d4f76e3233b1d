"""Self-tests of the benchmark itself (not of the program it measures).

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = run.load_benchmark()
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def wrapped_attributes():
    """Every (owner, attribute) of the program that currently holds a tracing wrapper."""
    found = []
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__bench_layer__", None):
                found.append((module.__name__, attr))
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__bench_layer__", None):
                        found.append((f"{module.__name__}.{attr}", cattr))
    return found


def test_workloads_and_layer_map_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    groups = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["groups"]
    mapped = [name for g in groups for name in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for g in groups:
        assert g["moves"] in e2e | {"correctness", "none"}
        assert set(g["on"]) <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_emits_exactly_the_declared_metrics(name, trace):
    result = run.run_workload(name, seed=1, seconds=1, trace=bool(trace),
                              runsets=workloads.smoke(workloads.WORKLOADS[name]))
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["problems"] == []
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    shown = run.report(result, declared)
    assert all(isinstance(v["value"], (int, float)) for v in shown.values())
    assert result["machine"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """Every workload at smoke size, run in this process under one tracer."""
    config, runner = worker.import_program()
    out = tmp_path_factory.mktemp("traced")
    before = {m.__name__: dict(vars(m)) for m in tracing.package_modules()}
    classes = {(m.__name__, k): dict(vars(v)) for m in tracing.package_modules()
               for k, v in vars(m).items() if isinstance(v, type)}
    tracer = tracing.Tracer()
    cfgs = []
    with tracer:
        for name, runsets in workloads.WORKLOADS.items():
            cfgs += worker.parse_runsets(config, workloads.smoke(runsets), 1, out / name)
            worker.run_round(runner, cfgs[-len(runsets):])
    return tracer, cfgs, before, classes


def test_traced_run_covers_every_layer(traced_smoke):
    tracer, *_ = traced_smoke
    layers = {tracer.layers[i] for i in tracer.span_table()["layer"]}
    # the projection fires only when a step leaves the ball, rare by design
    assert {layer for layer, _ in tracing.TARGETS} - layers <= {"onepass.project"}


def test_self_times_nonnegative_and_children_inside_parent(traced_smoke):
    tracer, *_ = traced_smoke
    tab = tracer.span_table()
    assert (tab["self"] >= 0).all()
    child = tab["parent"] >= 0
    parent = tab["parent"][child]
    assert (tab["start"][child] >= tab["start"][parent]).all()
    assert (tab["end"][child] <= tab["end"][parent]).all()


def test_no_attribute_left_patched(traced_smoke):
    tracer, _, before, classes = traced_smoke
    assert wrapped_attributes() == []
    for module in tracing.package_modules():
        for attr, value in before.get(module.__name__, {}).items():
            assert vars(module)[attr] is value, (module.__name__, attr)
    for (module_name, cls_name), attrs in classes.items():
        cls = vars(sys.modules[module_name])[cls_name]
        for attr, value in attrs.items():
            assert vars(cls)[attr] is value, (cls_name, attr)


def _float_cell(cols):
    for i, v in enumerate(cols["est_err_l2"]):
        if v and float(v) != 0.0:
            return i
    raise AssertionError("no nonzero est_err_l2 cell")


def test_gate_rejects_a_perturbed_csv(traced_smoke, tmp_path):
    _, cfgs, *_ = traced_smoke
    original = sorted(Path(cfgs[0].output_dir).glob("*.csv"))[0]
    ref = gate.sketch(gate.read_columns(original))
    copy = tmp_path / original.name
    shutil.copy(original, copy)
    assert gate.compare_to_reference(gate.read_columns(copy), ref) == []

    cols = gate.read_columns(copy)
    i = _float_cell(cols)
    cols["est_err_l2"][i] = repr(float(cols["est_err_l2"][i]) * (1 + 1e-9))
    assert gate.compare_to_reference(cols, ref)

    cols = gate.read_columns(copy)
    cols["y"][0] = str(1 - int(cols["y"][0]))
    assert gate.compare_to_reference(cols, ref)
    assert gate.content_digest(cols) != gate.content_digest(gate.read_columns(copy))

    lines = copy.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[gate.CSV_HEADER.index("y")] = "2"
    lines[1] = ",".join(fields)
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = {**workloads.smoke(workloads.WORKLOADS[WORKLOAD_NAMES[0]])[0]}
    assert any("y outside" in p for p in gate.structural_problems(gate.read_columns(copy), spec))


def test_gate_counts_a_missing_seed_as_failed(traced_smoke):
    _, cfgs, *_ = traced_smoke
    cfg = cfgs[0]
    spec = workloads.smoke(workloads.WORKLOADS[WORKLOAD_NAMES[0]])[0]
    summary = next(Path(cfg.output_dir).glob("*_summary.json"))
    summary.rename(summary.with_suffix(".moved"))
    try:
        res = gate.check_runset(cfg, spec, None, {})
    finally:
        summary.with_suffix(".moved").rename(summary)
    assert res["failed"] == 1 and res["attempted"] == len(cfg.seeds)


def test_reference_is_pinned_for_the_current_workloads():
    pinned = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(workloads.WORKLOADS)
    for name, runsets in workloads.WORKLOADS.items():
        assert pinned[name]["runsets"] == runsets, name
        assert [len(csvs) for csvs in pinned[name]["csv"]] == [r["num_seeds"] for r in runsets]


def test_speed_probe_samples_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe("small_ops") as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= 2
    assert 0 < speed.reference_seconds(start, end)
