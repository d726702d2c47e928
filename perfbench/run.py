"""Wall-clock benchmark of the PIQL simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``perfbench/worker.py``) with ``PYTHONHASHSEED=0`` and ``PYTHONPATH=src``,
one at a time.

``--trace 0`` sets the workload up three times (the median is ``setup_s``)
and measures the closed loop on the last set-up; it reports the
end-to-end metrics.  ``--trace 1`` runs the deterministic prefix twice,
untraced and traced, and reports the per-layer metrics of the traced
pass, with the traced/untraced wall ratio as ``trace.overhead_ratio``.

Output checks (the run reports ``"correct": false`` and lists the problem
on standard error when one fails):

* the workload's own check: Best Sellers against an offline recompute on
  ``tpcw-serve``; every acknowledged insert reads back after recover and
  heal on ``tpcw-lsm-faults``;
* no static-bound violation;
* determinism: every pass that runs the prefix checks its behaviour
  metrics and row digest against the other runs of the same program
  version in this checkout (see ``worker.py``): identical at one seed,
  different between seeds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from layers import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
WORKER_TIMEOUT_S = 170

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("interactions_per_s", "1/s"),
    ("interactions_per_cpu_s", "1/s"),
    ("wall_p50_us", "us"),
    ("wall_p95_us", "us"),
    ("peak_rss_mb", "MB"),
    ("completed_fraction", "ratio"),
    ("sim_mean_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("kv_ops_per_interaction", "count"),
    ("ops_per_bound", "ratio"),
)

WORKLOAD_NAMES = ("tpcw-serve", "tpcw-lsm-faults")


class WorkerFailed(Exception):
    pass


def run_worker(args: argparse.Namespace, mode: str, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} pass timed out after {exc.timeout} s")
    if done.returncode != 0:
        raise WorkerFailed(
            f"{mode} pass exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} pass printed nothing")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace):
    passes = [run_worker(args, "setup", 0) for _ in range(SETUPS - 1)]
    measured = run_worker(args, "measure", 0)
    passes.append(measured)
    unscaled = dict(
        measured["unscaled"],
        setup_s=statistics.median(p["unscaled_setup_s"] for p in passes),
        host_speed=measured["host_speed"],
    )
    print(f"{args.workload:16} unscaled {json.dumps(unscaled)}")
    values = {"setup_s": statistics.median(p["setup_s"] for p in passes)}
    values.update(measured["speed"])
    values.update(measured["behaviour"])
    problems = measured["problems"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return measured, problems, metrics


def per_layer(args: argparse.Namespace):
    plain = run_worker(args, "prefix", 0)
    traced = run_worker(args, "prefix", 1)
    problems = plain["problems"] + traced["problems"]
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["pass_wall_ns"] / plain["pass_wall_ns"]
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in metric_units()
    }
    return traced, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.trace:
            source, problems, metrics = per_layer(args)
        else:
            source, problems, metrics = end_to_end(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:16} {name:58} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": source["attempted"],
        "failed": source["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
