"""The benchmark's workloads and the closed-loop meter that times them.

Every workload is a closed loop in wall time driven from one thread: the
next interaction starts when the previous one returns.  The first
``prefix`` interactions of a pass are deterministic for a given seed; the
behaviour metrics (simulated latency, k/v operations, bound use,
completion) and the row digest are taken over them.  Wall-clock metrics
are taken after ``warmup`` interactions, for at least ``seconds`` seconds.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Callable, List, Optional

from repro.engine.database import PiqlDatabase
from repro.errors import PiqlError
from repro.kvstore.cluster import ClusterConfig
from repro.obs.flightrec import ForensicsConfig
from repro.resilience.policy import ResilienceConfig
from repro.serving.simulator import ServingConfig, ServingSimulation
from repro.views.maintenance import recompute_top_k, recompute_view
from repro.workloads.base import WorkloadScale
from repro.workloads.tpcw.schema import SUBJECTS
from repro.workloads.tpcw.workload import TpcwWorkload

#: Everything a run writes (spans, determinism records, LSM data) goes
#: under this directory of the checkout.
WORK_DIR = ".bench_out"

#: Throughput is the median rate over chunks of this much wall time, unless
#: the workload chunks by interaction count (``BenchWorkload.chunk``).
CHUNK_NS = 500_000_000

#: Seed of the simulated cluster (latency draws, replica placement) and of
#: the client's retry jitter.  It is part of the program's configuration,
#: not of its input, so it stays fixed while ``--seed`` varies the data and
#: the interaction stream.
CLUSTER_SEED = 7

#: The shared host's cores run faster or slower by a third or more for
#: seconds to minutes at a time, which moves every wall-clock figure
#: together.  A fixed pure-Python loop, run in the measuring process every
#: ``REFERENCE_EVERY`` timed interactions, measures the host's speed at the
#: same moments; the wall-clock metrics are scaled to a host on which the
#: loop runs ``NOMINAL_REFERENCE_RATE`` times a second.  The loop is part of
#: the benchmark, so a change to the program does not move it.
REFERENCE_EVERY = 25
NOMINAL_REFERENCE_RATE = 650.0

_now = time.perf_counter_ns


def reference_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Runs of the reference loop, and the host speed they show."""

    def __init__(self) -> None:
        self.runs = 0
        self.wall_ns = 0
        self.cpu_s = 0.0

    def sample(self, runs: int = 1) -> int:
        """Run the loop ``runs`` times; returns the wall time it took."""
        started = _now()
        cpu_started = time.process_time()
        for _ in range(runs):
            reference_loop()
        elapsed = _now() - started
        self.cpu_s += time.process_time() - cpu_started
        self.wall_ns += elapsed
        self.runs += runs
        return elapsed

    @property
    def factor(self) -> float:
        """Measured loop rate over the nominal one: above 1 on a fast host."""
        return self.runs * 1e9 / self.wall_ns / NOMINAL_REFERENCE_RATE


class Meter:
    """Per-interaction bookkeeping for one pass of a closed loop.

    ``exact=True`` (the prefix passes of the traced run) stops after
    exactly ``prefix`` interactions; otherwise the pass runs at least
    ``prefix`` interactions and at least ``seconds`` of timed wall time
    after ``warmup`` interactions.  A throughput chunk closes after
    ``CHUNK_NS`` of wall time or, when ``chunk`` is set, after ``chunk``
    timed interactions; then the pass also ends on a chunk boundary.
    Outside ``exact`` passes the reference loop runs after every
    ``REFERENCE_EVERY``-th timed interaction, in neither the interaction's
    time nor its chunk's.
    """

    def __init__(self, prefix: int, warmup: int, seconds: float, exact: bool,
                 chunk: Optional[int] = None):
        self.prefix = prefix
        self.warmup = warmup
        self.seconds_ns = int(seconds * 1e9)
        self.exact = exact
        self.chunk = chunk
        #: Called with the interaction index as each interaction starts.
        self.on_start: Optional[Callable[[int], None]] = None
        #: Called once the last prefix interaction has returned.
        self.on_prefix_end: Optional[Callable[[], None]] = None
        self.count = 0
        self.failed = 0
        self.prefix_failed = 0
        self.prefix_operations = 0
        self.sim_latencies: List[float] = []
        self.wall_ns: List[int] = []
        self.chunk_rates: List[float] = []
        self.timed_start_ns: Optional[int] = None
        self.timed_cpu_start = 0.0
        self.timed_cpu_s = 0.0
        self.host = HostSpeed()
        self.last_ns = 0
        self._chunk_start = 0
        self._chunk_count = 0

    def start(self) -> int:
        if self.on_start is not None:
            self.on_start(self.count)
        return _now()

    def finish(self, started_ns: int, result) -> None:
        """Record one interaction; ``result`` is ``None`` when it failed."""
        ended = _now()
        index = self.count
        self.count += 1
        if result is None:
            self.failed += 1
        if index < self.prefix:
            if result is None:
                self.prefix_failed += 1
            else:
                self.sim_latencies.append(result.latency_seconds)
                self.prefix_operations += result.operations
            if index == self.prefix - 1 and self.on_prefix_end is not None:
                self.on_prefix_end()
        if self.exact:
            return
        if index < self.warmup:
            if index == self.warmup - 1:
                self.timed_start_ns = ended
                self.timed_cpu_start = time.process_time()
                self._chunk_start = ended
            return
        self.wall_ns.append(ended - started_ns)
        self._chunk_count += 1
        if (self._chunk_count == self.chunk if self.chunk
                else ended - self._chunk_start >= CHUNK_NS):
            self.chunk_rates.append(
                self._chunk_count * 1e9 / (ended - self._chunk_start)
            )
            self._chunk_start = ended
            self._chunk_count = 0
        self.last_ns = ended
        if len(self.wall_ns) % REFERENCE_EVERY == 0:
            self._chunk_start += self.host.sample()

    def done(self) -> bool:
        if self.count < self.prefix:
            return False
        if self.exact:
            return True
        if self.timed_start_ns is None:
            return False
        if self.last_ns - self.timed_start_ns < self.seconds_ns:
            return False
        if self.chunk and self._chunk_count:
            return False
        self.timed_cpu_s = (
            time.process_time() - self.timed_cpu_start - self.host.cpu_s
        )
        return True

    @property
    def timed_interactions(self) -> int:
        return len(self.wall_ns)


def closed_loop(workload, db: PiqlDatabase, rng: random.Random, meter: Meter,
                stall: Optional[Callable[[int], None]] = None) -> None:
    """Replay interaction plans through one session until the meter stops.

    Plan sampling is outside the timed region.  ``stall(index)`` runs inside
    it, before the plan: work the interaction waits for (fault handling,
    storage maintenance).  An interaction that raises a typed
    :class:`PiqlError` counts as failed; any other exception aborts.
    """
    session = db.session()
    while not meter.done():
        plan = workload.interaction_plan(db, rng)
        started = meter.start()
        try:
            if stall is not None:
                stall(meter.count)
            result = workload.run_plan(db, plan, session=session)
        except PiqlError:
            meter.finish(started, None)
            continue
        meter.finish(started, result)


class BenchWorkload:
    """One workload: how to set it up, drive it and check its outputs."""

    name = ""
    #: Deterministic interactions per pass.
    prefix = 0
    #: Interactions before wall-clock timing starts.
    warmup = 0
    #: Whether acknowledged inserts are recorded for a read-back check.
    track_writes = False
    #: Timed interactions per throughput chunk; ``None`` chunks by wall time.
    chunk: Optional[int] = None

    def __init__(self, seed: int):
        self.seed = seed
        self.db: Optional[PiqlDatabase] = None

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self, meter: Meter) -> None:
        raise NotImplementedError

    def check(self, probe) -> List[str]:
        """Problems with the pass's outputs (empty when correct)."""
        return []

    def close(self) -> None:
        if self.db is not None:
            self.db.cluster.close()


class _MeteredTpcw(TpcwWorkload):
    """TPC-W whose plan replays are timed by a meter.

    The serving tier calls ``interaction_plan`` and then ``run_plan`` for
    each interaction, so timing ``run_plan`` leaves plan sampling out.
    Once the meter is done the event kernel is stopped after the current
    event.
    """

    meter: Meter
    simulation: ServingSimulation

    def run_plan(self, db, plan, session=None):
        meter = self.meter
        started = meter.start()
        try:
            result = super().run_plan(db, plan, session=session)
        except PiqlError:
            meter.finish(started, None)
            self._stop_when_done()
            raise
        meter.finish(started, result)
        self._stop_when_done()
        return result

    def _stop_when_done(self) -> None:
        if self.meter.done():
            self.simulation.sim.stop()


class TpcwServe(BenchWorkload):
    name = "tpcw-serve"
    prefix = 3000
    warmup = 200
    nodes = 10
    users_per_node = 100
    clients = 40
    think_time_seconds = 1.0

    def setup(self) -> None:
        self.db = PiqlDatabase.simulated(
            ClusterConfig(storage_nodes=self.nodes, seed=CLUSTER_SEED)
        )
        self.workload = _MeteredTpcw(materialized_views=True)
        self.workload.setup(
            self.db,
            WorkloadScale(
                storage_nodes=self.nodes,
                users_per_node=self.users_per_node,
                seed=self.seed,
            ),
        )

    def drive(self, meter: Meter) -> None:
        simulation = ServingSimulation(
            self.db,
            self.workload,
            ServingConfig(
                mode="closed",
                clients=self.clients,
                think_time_seconds=self.think_time_seconds,
                # The meter stops the kernel; the horizon is never reached.
                duration_seconds=1e9,
                pipelined=True,
                telemetry_enabled=True,
                forensics=ForensicsConfig(),
                seed=self.seed,
            ),
        )
        self.workload.meter = meter
        self.workload.simulation = simulation
        simulation.run()

    def check(self, probe) -> List[str]:
        """Every subject's Best Sellers page equals an offline recompute."""
        db = self.db
        view = db.catalog.view("best_sellers_by_subject")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        prepared = db.prepare(self.workload.query_sql("best_sellers_wi"))
        problems = []
        for subject in SUBJECTS:
            expected = [
                {"OL_I_ID": row["OL_I_ID"], "total_sold": row["total_sold"]}
                for row in recompute_top_k(view, recomputed, (subject,))
            ]
            actual = prepared.execute(subject=subject).rows
            if actual != expected:
                problems.append(
                    f"best_sellers_wi({subject}) = {actual}, recompute = {expected}"
                )
        return problems


class TpcwLsmFaults(BenchWorkload):
    """Plain TPC-W on the LSM engine under a fault cycle keyed to the
    interaction index."""

    name = "tpcw-lsm-faults"
    prefix = 2000
    warmup = 100
    track_writes = True
    nodes = 10
    users_per_node = 100
    memtable_budget_bytes = 64 << 10
    #: One fault cycle: crash a node, recover it, isolate another, heal.
    #: Any ``cycle`` consecutive interactions hold each fault event once
    #: and ``cycle / maintenance_every`` maintenance calls, so a throughput
    #: chunk of one cycle carries the cost of recovery and maintenance.
    cycle = 400
    chunk = cycle
    crash_at, recover_at, partition_at, heal_at = 40, 140, 200, 300
    maintenance_every = 25

    def setup(self) -> None:
        self.data_dir = os.path.join(WORK_DIR, f"lsm-{os.getpid()}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.db = PiqlDatabase.simulated(
            ClusterConfig(
                storage_nodes=self.nodes,
                replication=3,
                read_quorum=2,
                write_quorum=2,
                seed=CLUSTER_SEED,
                storage_engine="lsm",
                engine_options={
                    "data_dir": self.data_dir,
                    "memtable_budget_bytes": self.memtable_budget_bytes,
                    # Writes reach the OS page cache, not the disk: the
                    # figures measure the engine, not the device.
                    "sync_writes": False,
                },
            ),
            resilience=ResilienceConfig(
                max_attempts=4, breakers_enabled=True, seed=CLUSTER_SEED
            ),
        )
        self.workload = TpcwWorkload()
        self.workload.setup(
            self.db,
            WorkloadScale(
                storage_nodes=self.nodes,
                users_per_node=self.users_per_node,
                seed=self.seed,
            ),
        )

    def _fault_node(self, index: int, salt: int) -> int:
        return (index // self.cycle * 3 + salt) % self.nodes

    def _stall(self, index: int) -> None:
        cluster = self.db.cluster
        phase = index % self.cycle
        if phase == self.crash_at:
            cluster.crash_node(self._fault_node(index, 1))
        elif phase == self.recover_at:
            cluster.recover_node(
                self._fault_node(index, 1), sim_time=self.db.client.clock.now
            )
        elif phase == self.partition_at:
            cluster.network.partition([(self._fault_node(index, 2),)])
        elif phase == self.heal_at:
            cluster.network.heal()
        if index % self.maintenance_every == 0:
            cluster.run_engine_maintenance()

    def drive(self, meter: Meter) -> None:
        closed_loop(
            self.workload, self.db, random.Random(self.seed), meter,
            stall=self._stall,
        )
        # End every fault the cut-off left open: heal, then recover.
        cluster = self.db.cluster
        cluster.network.heal()
        for node in cluster.nodes:
            if not node.up:
                cluster.recover_node(node.node_id)

    def check(self, probe) -> List[str]:
        """Every acknowledged insert reads back after recover and heal."""
        if not probe.acknowledged:
            return ["no insert was acknowledged"]
        return probe.lost_writes(self.db)

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (TpcwServe, TpcwLsmFaults)}
