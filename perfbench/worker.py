"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --seconds S --trace 0|1

Modes:

* ``setup``: build the workload's database and report the set-up time.
* ``measure``: set up, then run the closed loop for at least ``--seconds``
  of timed wall time; reports wall-clock and behaviour metrics.
* ``prefix``: set up, then run exactly the deterministic prefix; with
  ``--trace 1`` spans are recorded and the per-layer metrics reported.

Every pass that runs the prefix checks determinism: it looks up the
fingerprint (behaviour metrics and row digest) of earlier passes of the
same program version in ``.bench_out/determinism.json``.  The version is
a hash of the Python sources under ``src/`` and ``perfbench/``, so a
changed program starts a fresh record.  A pass fails the check when an
earlier pass at its seed had another fingerprint, or when one at another
seed returned the same rows.

The last line of standard output is one JSON object.  ``perfbench/run.py``
starts this script; it sets ``PYTHONPATH`` and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

from instrument import Probe, install_tracing
from spans import SpanRecorder
from workloads import WORK_DIR, WORKLOADS, HostSpeed, Meter
import layers

#: Reference-loop runs just before and just after set-up.  Their speed
#: scales ``setup_s`` as the measured pass's own runs scale its wall-clock
#: metrics (see ``workloads.HostSpeed``).
SETUP_REFERENCE_RUNS = 100


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "prefix"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def program_version() -> str:
    """sha256 over the Python sources of the program and the benchmark."""
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    paths = glob.glob(os.path.join("src", "**", "*.py"), recursive=True)
    paths += glob.glob(os.path.join(here, "*.py"))
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def check_determinism(workload: str, seed: int, fingerprint: dict) -> list:
    """Compare ``fingerprint`` with earlier passes of this program version."""
    path = os.path.join(WORK_DIR, "determinism.json")
    store = {}
    if os.path.exists(path):
        with open(path) as handle:
            store = json.load(handle)
    seen = store.setdefault(program_version(), {}).setdefault(workload, {})
    problems = []
    earlier = seen.get(str(seed))
    if earlier is not None and earlier != fingerprint:
        problems.append(
            f"seed {seed} ran differently before: {earlier} vs {fingerprint}"
        )
    for other_seed, record in seen.items():
        if other_seed != str(seed) and record["digest"] == fingerprint["digest"]:
            problems.append(
                f"seeds {other_seed} and {seed} returned identical rows: "
                "the seed does not reach the generator"
            )
    if earlier is None:
        seen[str(seed)] = fingerprint
        temporary = path + ".tmp"
        with open(temporary, "w") as handle:
            json.dump(store, handle, indent=1, sort_keys=True)
        os.replace(temporary, path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program's bulk loads stage spill files in a temporary directory;
    # keep them inside the checkout too.
    tempfile.tempdir = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    os.makedirs(tempfile.tempdir, exist_ok=True)
    bench = WORKLOADS[args.workload](args.seed)
    probe = Probe(track_writes=bench.track_writes)
    probe.install()
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_tracing(recorder)

    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        setup_host = HostSpeed()
        setup_host.sample(SETUP_REFERENCE_RUNS)
        if recorder is not None:
            recorder.begin("setup")
        started = time.perf_counter()
        bench.setup()
        setup_wall_s = time.perf_counter() - started
        if recorder is not None:
            recorder.end()
        setup_host.sample(SETUP_REFERENCE_RUNS)
        out["setup_s"] = setup_wall_s * setup_host.factor
        out["unscaled_setup_s"] = setup_wall_s
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        meter = Meter(
            prefix=bench.prefix,
            warmup=bench.warmup,
            seconds=args.seconds,
            exact=args.mode == "prefix",
            chunk=bench.chunk,
        )

        def prefix_ended() -> None:
            probe.capturing = False

        meter.on_prefix_end = prefix_ended
        if recorder is not None:
            meter.on_start = lambda index: setattr(recorder, "interaction", index)
        probe.capturing = True
        if recorder is not None:
            recorder.begin("pass")
        pass_started = time.perf_counter_ns()
        bench.drive(meter)
        out["pass_wall_ns"] = time.perf_counter_ns() - pass_started
        if recorder is not None:
            recorder.end()
        probe.capturing = False

        problems = bench.check(probe)
        violations = bench.db.auditor.violations
        if violations:
            problems.append(f"{violations} static-bound violations")
        out["problems"] = problems
        out["attempted"] = meter.count
        out["failed"] = meter.failed
        out["behaviour"] = {
            "completed_fraction": (bench.prefix - meter.prefix_failed) / bench.prefix,
            "sim_mean_ms": statistics.fmean(meter.sim_latencies) * 1e3,
            "sim_p99_ms": nearest_rank(meter.sim_latencies, 0.99) * 1e3,
            "kv_ops_per_interaction": meter.prefix_operations / bench.prefix,
            "ops_per_bound": probe.bound_use / probe.audited,
        }
        out["digest"] = probe.digest()
        problems.extend(check_determinism(
            args.workload, args.seed,
            {"behaviour": out["behaviour"], "digest": out["digest"]},
        ))
        out["queries"] = probe.queries
        if args.mode == "measure":
            timed = meter.timed_interactions
            host = meter.host.factor
            unscaled = {
                "interactions_per_s": statistics.median(meter.chunk_rates),
                "interactions_per_cpu_s": timed / meter.timed_cpu_s,
                "wall_p50_us": nearest_rank(meter.wall_ns, 0.50) / 1e3,
                "wall_p95_us": nearest_rank(meter.wall_ns, 0.95) / 1e3,
            }
            out["unscaled"] = unscaled
            out["host_speed"] = host
            out["speed"] = {
                "interactions_per_s": unscaled["interactions_per_s"] / host,
                "interactions_per_cpu_s": unscaled["interactions_per_cpu_s"] / host,
                "wall_p50_us": unscaled["wall_p50_us"] * host,
                "wall_p95_us": unscaled["wall_p95_us"] * host,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            out["timed_interactions"] = timed
            out["chunks"] = len(meter.chunk_rates)
        if recorder is not None:
            setup_region, pass_region = recorder.regions
            problems.extend(recorder.verify())
            out["layers"] = layers.per_layer_metrics(
                setup_region, pass_region, bench.prefix
            )
            # One file per workload: the latest traced pass overwrites it.
            spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl.gz")
            recorder.dump(spans_path)
            out["spans_path"] = spans_path
        print(json.dumps(out))
        return 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
