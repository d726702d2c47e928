"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py

From the root of a checkout, runs ``perfbench/run.py`` on every workload
of ``BENCHMARK.json`` once per seed 1-10 (end-to-end metrics), twice over:
two sets of the same runs.  For every end-to-end metric and set it prints
the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (third minus first
quartile, as a share of the median), and flags a spread above a third of
the metric's bound, and the same for the wall-clock figures before
scaling to the nominal host speed and for the host speed itself (the
``unscaled`` line ``run.py`` prints).  It then compares the two sets'
medians against the bound.  One traced run per workload (seed 1), made first, gives the
per-layer metrics.  Everything, with the environment, is written to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seeds per set, and sets of the same runs.
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    marker = f"{workload} "
    for line in lines:
        if line.startswith(marker) and line.split()[1] == "unscaled":
            result["unscaled"] = json.loads(line.split(None, 2)[2])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{done.stderr}")
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
        "values": values,
    }


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, RUNS + 1)
    workloads = [w["name"] for w in spec["workloads"]]

    layers = {}
    for workload in workloads:
        traced = run(workload, 1, seconds, 1)
        layers[workload] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }

    sets = []
    for number in range(1, SETS + 1):
        summary = {}
        for workload in workloads:
            values = {}
            unscaled = {}
            for seed in seeds:
                result = run(workload, seed, seconds, 0)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, value in result["unscaled"].items():
                    unscaled.setdefault(name, []).append(value)
            summary[workload] = {
                "unscaled": {
                    name: summarise(series) for name, series in unscaled.items()
                }
            }
            for name, series in values.items():
                stats = summarise(series)
                summary[workload][name] = stats
                flag = "  WIDE" if stats["spread"] > bounds[name] / 3 else ""
                print(f"set {number} {workload:16} {name:24} "
                      f"median {stats['median']:14.4f} q1 {stats['q1']:14.4f} "
                      f"q3 {stats['q3']:14.4f} spread {stats['spread']:7.4f} "
                      f"bound {bounds[name]}{flag}", flush=True)
            for name, stats in summary[workload]["unscaled"].items():
                print(f"set {number} {workload:16} unscaled {name:15} "
                      f"median {stats['median']:14.4f} "
                      f"spread {stats['spread']:7.4f}", flush=True)
        sets.append(summary)

    agreement = {}
    for workload, metrics in sets[0].items():
        agreement[workload] = {}
        for name, first in metrics.items():
            if name == "unscaled":
                continue
            second = sets[1][workload][name]["median"]
            change = abs(second - first["median"]) / first["median"]
            agreement[workload][name] = {
                "medians": [first["median"], second],
                "change": change,
                "within_bound": change <= bounds[name],
            }
            print(f"agree {workload:16} {name:24} change {change:7.4f} "
                  f"bound {bounds[name]}{'' if change <= bounds[name] else '  OUT'}")

    baseline = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": seconds,
            "seeds": [seeds[0], seeds[-1]],
        },
        "end_to_end": sets,
        "agreement": agreement,
        "per_layer_seed": 1,
        "per_layer": layers,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
