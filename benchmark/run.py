"""Benchmark of the duelbandits simulator: one workload per call, or all of them.

    python3 benchmark/run.py --workload deploy_default --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:

* ``steps_per_s``: scenario-loop iterations per second, over every seed-run
  of the workload, from the first run call to the last artifact written;
* ``setup_s``: median time of fresh interpreters that import duelbandits and
  parse every workload config;
* ``peak_rss_mb``: peak RSS of the workload's child process.

Both times are in reference-speed seconds: wall seconds scaled by the machine
speed probed around them (``probe.py``). The unscaled wall-clock figures are
printed alongside. With ``--trace 1`` it reports the per-layer metrics
instead, from a traced round; ``layers.json`` says what each one measures and
which end-to-end metric it should move, on which workload.

Every run checks every artifact (``gate.py``); a failed seed-run counts in
``failed`` and in ``seeds_failed_frac``, printed by name. At ``--seed 0`` the
CSVs are also compared with ``reference.json``; a change that is meant to
change outputs re-pins it with ``python3 benchmark/worker.py pin``. The last
line of standard output is the JSON result; each workload's full result, with
the machine record, is also written to ``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(args, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc


def measure_setup(deadline: float):
    """Median seconds of fresh interpreters importing and parsing, one warm-up first.

    Returns (reference-speed seconds, wall seconds). Each sample is scaled by
    the spawn probe run right before and right after it.
    """
    scaled, wall = [], []
    probes = [probe.spawn_seconds()]
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        _worker(["setup"], deadline - time.monotonic())
        wall.append(time.perf_counter() - start)
        probes.append(probe.spawn_seconds())
        scaled.append(wall[-1] * probe.REFERENCE_SPAWN_S / statistics.fmean(probes[-2:]))
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 runsets=None, deadline: float | None = None) -> dict:
    """Run one workload in a child process and return its full result."""
    deadline = deadline or time.monotonic() + DEADLINE_S
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "runsets": runsets or workloads.WORKLOADS[name], "out": str(out)}
    setup = None if trace else measure_setup(deadline)
    proc = _worker(["run", json.dumps(spec)], deadline - time.monotonic())
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"], result["wall"]["setup_s"] = setup
    result["machine"]["git_commit"] = git_commit()
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  runsets=spec["runsets"])
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def report(result: dict, declared: list) -> dict:
    """Print one workload's metrics by name with units; return them as declared."""
    name = result["workload"]
    metrics = {}
    for metric in declared:
        if metric["name"] not in result["metrics"]:
            raise KeyError(f"{name}: metric {metric['name']} was not measured")
        value = result["metrics"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name:<15} {metric['name']:<40} {value:>14.6g} {metric['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{name:<15} {'seeds_failed_frac':<40} {failed_frac:>14.6g} fraction "
          f"({result['failed']}/{result['attempted']} seed-runs; reference "
          f"{'checked' if result['reference_checked'] else 'not pinned for this seed'})")
    for problem in result["problems"][:20]:
        print(f"{name:<15} FAILED {problem}")
    if "wall" in result:
        print(f"{name:<15} wall clock, unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["wall"].items()))
    for kind, top in result.get("top", {}).items():
        print(f"{name:<15} top layers by {kind}: "
              + ", ".join(f"{layer} {s:.3f}" for s, layer in top))
    return metrics


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "duelbandits" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'duelbandits'}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    results, metrics = [], {}
    for name in chosen:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              deadline=deadline)
        results.append(result)
        shown = report(result, declared)
        metrics.update(shown if len(chosen) == 1
                       else {f"{name}.{k}": v for k, v in shown.items()})
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
