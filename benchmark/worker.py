"""The benchmark's child process: imports the program and runs one workload.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread; nothing here is meant to be run by hand except ``pin``:

    python3 benchmark/worker.py setup         import + parse every workload config
    python3 benchmark/worker.py run '<json>'  run one workload, print a JSON result
    python3 benchmark/worker.py pin           re-pin benchmark/reference.json

A run goes through the program's public entry point, ``runner.run_experiment``,
once per run set, and checks every artifact with ``gate``. Untraced, it
repeats rounds of the same inputs until ``seconds`` is used up and reports the
median rate, in steps per reference-speed second (``probe.py``). Traced, it
runs one untraced round and then one traced round of the same inputs, and
reports per-layer metrics from the traced one.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORCHESTRATION_LAYERS = ("config.parse_config", "runner.run_experiment", "runner.run_single",
                 "scenarios.loop")


def import_program():
    """Import duelbandits from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import duelbandits
    from duelbandits import config, runner

    if Path(duelbandits.__file__).resolve().parent != (src / "duelbandits").resolve():
        raise ImportError(f"duelbandits imported from {duelbandits.__file__}, not {src}")
    return config, runner


def parse_runsets(config, runsets, seed: int, out: Path):
    return [config.parse_config({**spec, "base_seed": seed, "workers": 1,
                                 "output_dir": str(out / str(i))})
            for i, spec in enumerate(runsets)]


def run_round(runner, cfgs):
    """(start, end) perf_counter times of the first run call and the last artifact written."""
    for cfg in cfgs:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
    start = time.perf_counter()
    for cfg in cfgs:
        runner.run_experiment(cfg)
    return start, time.perf_counter()


def check_round(cfgs, runsets, reference, first_round, totals: dict) -> int:
    """Gate one round's artifacts, add its counts to ``totals``, return its steps."""
    steps = 0
    for i, (cfg, spec) in enumerate(zip(cfgs, runsets)):
        res = gate.check_runset(cfg, spec, None if reference is None else reference[i],
                                first_round.setdefault(i, {}))
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        totals["problems"] += res["problems"]
        steps += res["steps"]
    return steps


def load_reference(seed: int, runsets, workload: str):
    """The pinned CSV sketches, when this run is the pinned one, else None."""
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    pinned = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if pinned is None or pinned["runsets"] != runsets:
        return None
    return pinned["csv"]


def machine_record(cfgs) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workers": sorted({cfg.workers for cfg in cfgs}),
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, steps: int, out: Path):
    """Per-layer metrics of one traced round, by their BENCHMARK.json names.

    Also returns the top layers by self time and by inclusive time, the
    latter leaving out the layers that only orchestrate the others.
    """
    import numpy as np

    tab = tracer.span_table()
    ids = {name: i for i, name in enumerate(tracer.layers)}

    def mask(layer):
        return tab["layer"] == ids.get(layer, -1)

    def calls(layer):
        return int(mask(layer).sum())

    def self_s(layer):
        return float(tab["self"][mask(layer)].sum()) / 1e9

    def durations_us(layer):
        return tab["duration"][mask(layer)] / 1e3

    run_starts = np.sort(tab["start"][mask("runner.run_single")])

    def growth(layer):
        m = mask(layer)
        run_of = np.searchsorted(run_starts, tab["start"][m], side="right") - 1
        dur = tab["duration"][m]
        ratios = []
        for run in np.unique(run_of):
            d = dur[run_of == run]
            tenth = len(d) // 10
            if tenth:
                ratios.append(d[-tenth:].mean() / d[:tenth].mean())
        return float(np.median(ratios)) if ratios else 0.0

    def mean_or_zero(values):
        return float(np.mean(values)) if values else 0.0

    out_files = [p for p in out.rglob("*") if p.is_file()]
    m = {}
    for layer in ("onepass.omd.update", "baselines.mle.update", "baselines.implicit.update",
                  "onepass.hvpcg.update", "scenarios.select_deploy_actions",
                  "scenarios.select_most_uncertain"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.us_p50"] = _percentile(durations_us(layer), 50)
    for layer in ("onepass.omd.update", "baselines.mle.update", "baselines.implicit.update"):
        m[f"{layer}.us_p99"] = _percentile(durations_us(layer), 99)
    for layer in ("onepass.omd.update", "baselines.mle.update"):
        m[f"{layer}.growth"] = growth(layer)
    for layer in ("linalg.sherman_morrison", "linalg.cg_solve", "scenarios.pessimistic_policy",
                  "diagnostics.diagnostics_report", "diagnostics.norm_domination_check",
                  "environment.make_environment", "linkmath.bt_sample"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("scenarios.loop", "diagnostics.elliptic_potential_check",
                  "scenarios.write_csv", "runner.run_experiment", "config.parse_config"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["onepass.project.calls"] = calls("onepass.project")
    omd_updates = m["onepass.omd.update.calls"]
    m["onepass.project.fire_frac"] = (
        m["onepass.project.calls"] / omd_updates if omd_updates else 0.0)
    m["scenarios.loop.us_per_step"] = (
        float(tab["duration"][mask("scenarios.loop")].sum()) / 1e3 / steps if steps else 0.0)
    m["scenarios.pessimistic_policy.ms_p50"] = _percentile(
        durations_us("scenarios.pessimistic_policy"), 50) / 1e3
    m["baselines.mle.newton_iters.mean"] = mean_or_zero(
        tracer.iterations.get("baselines.mle.update", []))
    m["baselines.mle.nonconverged"] = tracer.nonconverged.get("baselines.mle.update", 0)
    m["baselines.implicit.inner_iters.mean"] = mean_or_zero(
        tracer.iterations.get("baselines.implicit.update", []))
    m["baselines.implicit.nonconverged"] = tracer.nonconverged.get("baselines.implicit.update", 0)
    m["scenarios.write_csv.bytes"] = sum(p.stat().st_size for p in out_files if p.suffix == ".csv")
    m["runner.artifact_bytes"] = sum(p.stat().st_size for p in out_files)
    m["runner.run_single.calls"] = calls("runner.run_single")
    m["runner.run_single.s_p50"] = _percentile(durations_us("runner.run_single"), 50) / 1e6
    m["linalg.inverse_drift.max"] = max(tracer.inverse_drifts(), default=0.0)
    by_self = sorted(((self_s(layer), layer) for layer in tracer.layers), reverse=True)
    leaves = [layer for layer in tracer.layers if layer not in ORCHESTRATION_LAYERS]
    by_total = sorted(((float(tab["duration"][mask(layer)].sum()) / 1e9, layer)
                       for layer in leaves), reverse=True)
    return m, {"self_s": by_self[:5], "inclusive_s": by_total[:5]}


def run(spec: dict) -> dict:
    config, runner = import_program()
    import probe
    import tracing

    out = Path(spec["out"])
    runsets = spec["runsets"]
    cfgs = parse_runsets(config, runsets, spec["seed"], out)
    reference = load_reference(spec["seed"], runsets, spec["workload"])
    totals = {"attempted": 0, "failed": 0, "problems": []}
    first_round: dict = {}

    # warm-up at smoke size: lazy imports and first-call costs stay untimed
    run_round(runner, parse_runsets(config, workloads.smoke(runsets), spec["seed"],
                                    out / "warmup"))
    shutil.rmtree(out / "warmup")

    kernel = workloads.PROBE_KERNELS[spec["workload"]]
    result = {"reference_checked": reference is not None}
    if spec["trace"]:
        # bracketed by probes rather than sampled, so no probe time lands in a span
        before = probe.bracket_speed(kernel)
        start, end = run_round(runner, cfgs)
        after = probe.bracket_speed(kernel)
        untraced = (end - start) * 0.5 * (before + after)
        check_round(cfgs, runsets, reference, first_round, totals)
        for cfg in cfgs:
            shutil.rmtree(cfg.output_dir, ignore_errors=True)
        tracer = tracing.Tracer()
        with tracer:
            traced_cfgs = parse_runsets(config, runsets, spec["seed"], out)
            start = time.perf_counter()
            for cfg in traced_cfgs:
                runner.run_experiment(cfg)
            end = time.perf_counter()
        traced = (end - start) * 0.5 * (after + probe.bracket_speed(kernel))
        steps = check_round(cfgs, runsets, reference, first_round, totals)
        metrics, top = layer_metrics(tracer, steps, out)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        tracer.write_spans(out / "spans.csv")
        result.update(metrics=metrics, top=top)
    else:
        rates, wall_rates = [], []
        run_start = time.perf_counter()
        with probe.SpeedProbe(kernel) as speed:
            while True:
                start, end = run_round(runner, cfgs)
                steps = check_round(cfgs, runsets, reference, first_round, totals)
                rates.append(steps / speed.reference_seconds(start, end))
                wall_rates.append(steps / (end - start))
                now = time.perf_counter()
                if now - run_start + (now - start) > spec["seconds"]:
                    break
        result["metrics"] = {
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["wall"] = {"steps_per_s": statistics.median(wall_rates),
                          "rounds": len(rates)}
    result.update(totals, machine=machine_record(cfgs))
    return result


def setup() -> None:
    config, _ = import_program()
    for name, runsets in workloads.WORKLOADS.items():
        parse_runsets(config, runsets, REFERENCE_SEED, ROOT / ".bench_out" / name)


def pin() -> None:
    """Write reference.json from one round of every workload at the reference seed."""
    config, runner = import_program()
    pinned = {}
    for name, runsets in workloads.WORKLOADS.items():
        cfgs = parse_runsets(config, runsets, REFERENCE_SEED, ROOT / ".bench_out" / "pin" / name)
        run_round(runner, cfgs)
        totals = {"attempted": 0, "failed": 0, "problems": []}
        check_round(cfgs, runsets, None, {}, totals)
        if totals["failed"] or totals["problems"]:
            raise SystemExit(f"{name}: refusing to pin a failing run: {totals['problems']}")
        pinned[name] = {"runsets": runsets, "csv": [
            {p.name: gate.sketch(gate.read_columns(p))
             for p in sorted(Path(cfg.output_dir).glob("*.csv"))}
            for cfg in cfgs]}
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv) -> None:
    # before numpy is first imported, so OpenBLAS starts with one thread
    os.environ.update({k: "1" for k in BLAS_ENV})
    if argv[:1] == ["setup"]:
        setup()
    elif argv[:1] == ["pin"]:
        pin()
    elif argv[:1] == ["run"] and len(argv) == 2:
        print(json.dumps(run(json.loads(argv[1]))))
    else:
        raise SystemExit("usage: worker.py setup | pin | run '<json spec>'")


if __name__ == "__main__":
    main(sys.argv[1:])
