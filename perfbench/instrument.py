"""Wrappers the benchmark installs around the program's public calls.

Two kinds, both installed by patching class attributes in the worker
process (each pass runs in a fresh interpreter, so nothing leaks between
passes):

* :class:`Probe` is always on.  It keeps what the output checks and the
  behaviour metrics need: the rows every query returned during the
  deterministic prefix, the operations the bound auditor saw against the
  static bounds, and (when asked) the inserts the record manager
  acknowledged.
* :func:`install_tracing` is on only in the traced pass.  It puts a span
  of :class:`spans.SpanRecorder` around each layer boundary and counts the
  per-layer quantities at the same place.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.database import PiqlDatabase
from repro.engine.session import Session
from repro.errors import UnavailableError
from repro.execution.executor import QueryExecutor
from repro.kvstore.client import StorageClient
from repro.kvstore.cluster import KeyValueCluster
from repro.kvstore.engine.lsm import LsmEngine, LsmTree
from repro.kvstore.latency import LatencyModel
from repro.kvstore.memory import OrderedKVMap
from repro.obs.audit import BoundAuditor
from repro.obs.flightrec import FlightRecorder
from repro.obs.telemetry import TelemetryCollector
from repro.optimizer.optimizer import PiqlOptimizer
from repro.replication.manager import ReplicationManager
from repro.replication.store import ReplicaStore
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import ResiliencePolicy
from repro.serving.events import Simulation
from repro.serving.monitor import SLOMonitor
from repro.storage.record_manager import RecordManager
from repro.views.maintenance import ViewMaintenanceEngine
from repro.workloads.base import Workload
from repro.workloads.tpcw.workload import TpcwWorkload

import repro.engine.database as database_module
import repro.optimizer.optimizer as optimizer_module

from spans import SpanRecorder

now_ns = time.perf_counter_ns

#: Storage-client and cluster calls wrapped as ``kvstore.client`` /
#: ``kvstore.cluster`` spans.
KV_CALLS = (
    "get", "put", "multi_get", "get_range", "multi_get_range",
    "count_range", "test_and_set",
)


def _patch(cls: Any, name: str, make) -> None:
    setattr(cls, name, make(getattr(cls, name)))


def _keys_addressed(name: str, args: Tuple[Any, ...]) -> int:
    """Keys (or ranges) one k/v call addresses: ``args`` start after self."""
    if name in ("multi_get", "multi_get_range") and len(args) > 1:
        return len(args[1])
    return 1


def row_digest(rows: List[Dict[str, Any]]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(sorted(row.items())).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class Probe:
    """Always-on capture for output checks and behaviour metrics."""

    def __init__(self, track_writes: bool = False):
        #: Capture rows and bound accounting while true (the prefix).
        self.capturing = False
        self.rows: List[Dict[str, Any]] = []
        self.queries = 0
        #: Audited queries and the sum of their operations/static-bound ratios.
        self.audited = 0
        self.bound_use = 0.0
        #: Last acknowledged row per ``(table, primary key)``; ``None`` once
        #: an acknowledged delete removed it.
        self.acknowledged: Dict[Tuple[str, Tuple[Any, ...]], Optional[Dict[str, Any]]] = {}
        self.track_writes = track_writes

    def install(self) -> None:
        probe = self

        def make_execute(fn):
            def execute(self, *args, **kwargs):
                result = fn(self, *args, **kwargs)
                if probe.capturing:
                    probe.queries += 1
                    probe.rows.extend(result.rows)
                return result
            return execute

        def make_observe(fn):
            def observe_query(self, query, observed_operations, *args, **kwargs):
                if probe.capturing and query.bound is not None and query.bound.max_operations:
                    probe.audited += 1
                    probe.bound_use += observed_operations / query.bound.max_operations
                return fn(self, query, observed_operations, *args, **kwargs)
            return observe_query

        _patch(QueryExecutor, "execute", make_execute)
        _patch(BoundAuditor, "observe_query", make_observe)
        if not self.track_writes:
            return

        def make_insert(fn):
            def insert(self, table_name, row, *args, **kwargs):
                stored = fn(self, table_name, row, *args, **kwargs)
                table = self.catalog.table(table_name)
                pk = tuple(stored[column] for column in table.primary_key)
                probe.acknowledged[(table_name, pk)] = dict(stored)
                return stored
            return insert

        def make_delete(fn):
            def delete(self, table_name, pk_values, *args, **kwargs):
                existed = fn(self, table_name, pk_values, *args, **kwargs)
                probe.acknowledged[(table_name, tuple(pk_values))] = None
                return existed
            return delete

        _patch(RecordManager, "insert", make_insert)
        _patch(RecordManager, "delete", make_delete)

    def digest(self) -> str:
        return row_digest(self.rows)

    def lost_writes(self, db: PiqlDatabase) -> List[str]:
        """Acknowledged inserts (and deletes) that do not read back."""
        problems = []
        for (table, pk), expected in sorted(
            self.acknowledged.items(), key=lambda item: repr(item[0])
        ):
            actual = db.records.get(table, list(pk))
            if expected is None:
                if actual is not None:
                    problems.append(f"{table}{pk}: deleted row reads back")
            elif actual is None:
                problems.append(f"{table}{pk}: acknowledged insert is missing")
            elif any(actual.get(k) != v for k, v in expected.items()):
                problems.append(f"{table}{pk}: reads {actual}, wrote {expected}")
        return problems


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    wrap = recorder.wrap
    count = recorder.count

    def span(cls: Any, name: str, layer: str) -> None:
        _patch(cls, name, lambda fn: wrap(layer, fn))

    # SQL front end, optimizer and the prepared-query cache.  The parser is
    # reached through module-level names, so those names are rebound.
    database_module.parse = wrap("sql.parse", database_module.parse)
    optimizer_module.parse_select = wrap("sql.parse", optimizer_module.parse_select)
    span(PiqlOptimizer, "optimize", "optimizer.optimize")

    def make_prepare(fn):
        def prepare(self, sql):
            # Cache misses are the prepares that reach the optimizer.
            compiled = optimize_calls()
            result = fn(self, sql)
            count("engine.prepare.lookups")
            if optimize_calls() == compiled:
                count("engine.prepare.hits")
            return result
        return wrap("engine.prepare", prepare)

    def optimize_calls() -> int:
        region = recorder.region
        totals = region.layers.get("optimizer.optimize") if region else None
        return totals.calls if totals else 0

    _patch(PiqlDatabase, "prepare", make_prepare)

    # Session API and the executor.
    for name in ("submit", "gather", "execute"):
        span(Session, name, "engine.session")

    def make_executor(fn):
        def execute(self, *args, **kwargs):
            stats = self.client.stats
            rounds = stats.dereference_rounds
            result = fn(self, *args, **kwargs)
            count("execution.executor.execute.rpcs", result.rpcs)
            count(
                "execution.executor.execute.dereference_rounds",
                stats.dereference_rounds - rounds,
            )
            return result
        return wrap("execution.executor.execute", execute)

    _patch(QueryExecutor, "execute", make_executor)

    # Record manager writes.
    def make_write(fn):
        def write(self, *args, **kwargs):
            stats = self.client.stats
            before = stats.operations
            try:
                return fn(self, *args, **kwargs)
            finally:
                count("storage.record_manager.kv_ops", stats.operations - before)
        return wrap("storage.record_manager", write)

    for name in ("insert", "update", "delete"):
        _patch(RecordManager, name, make_write)
    # Set-up's bulk load; its self time includes the workload's row
    # generator, which the loader consumes lazily.
    span(RecordManager, "bulk_load", "storage.record_manager")

    # View maintenance.
    for name in ("on_insert", "on_update", "on_delete"):
        span(ViewMaintenanceEngine, name, "views.maintenance")

    # Storage client and cluster.
    def make_kv(layer: str, name: str):
        def make(fn):
            def call(*args, **kwargs):
                count(f"{layer}.keys", _keys_addressed(name, args))
                if name == "count_range" and recorder.active("views.maintenance"):
                    count("views.maintenance.count_range_calls")
                try:
                    return fn(*args, **kwargs)
                except UnavailableError:
                    count(f"{layer}.unavailable")
                    raise
            return wrap(layer, call)
        return make

    for name in KV_CALLS:
        _patch(StorageClient, name, make_kv("kvstore.client", name))
        _patch(KeyValueCluster, name, make_kv("kvstore.cluster", name))

    # The latency-free load path set-up and view maintenance write through.
    for name in ("load", "load_delete", "bulk_load_many"):
        span(KeyValueCluster, name, "kvstore.cluster")

    def make_peek_range(fn):
        # The latency-free loader counts a view group's rows this way.
        def peek_range(*args, **kwargs):
            if recorder.active("views.maintenance"):
                count("views.maintenance.count_range_calls")
            return fn(*args, **kwargs)
        return peek_range

    _patch(KeyValueCluster, "peek_range", make_peek_range)

    # Replication merge: slices opened per merge and entries scanned.
    def make_merged(fn):
        def merged_range(*args, **kwargs):
            results = fn(*args, **kwargs)
            count("replication.merged_range.returned", len(results))
            return results
        return wrap("replication.merged_range", merged_range)

    _patch(ReplicationManager, "merged_range", make_merged)

    def make_slice(fn):
        def iter_range(*args, **kwargs):
            if recorder.active("replication.merged_range"):
                count("replication.merged_range.slices")
            return fn(*args, **kwargs)
        return iter_range

    _patch(OrderedKVMap, "iter_range", make_slice)
    _patch(LsmTree, "iter_range", make_slice)

    def make_records(fn):
        def iter_range_records(*args, **kwargs):
            for entry in fn(*args, **kwargs):
                count("replication.merged_range.scanned")
                yield entry
        return iter_range_records

    _patch(ReplicaStore, "iter_range_records", make_records)

    # Latency model.
    span(LatencyModel, "sample_seconds", "kvstore.latency.sample_seconds")

    # Storage engine (LSM only; the dict engine has no such boundary).
    def make_tree_put(fn):
        def put(self, key, value):
            count("kvstore.engine.bytes_put", len(key) + len(value))
            return fn(self, key, value)
        return wrap("kvstore.engine", put)

    span(LsmTree, "get", "kvstore.engine")
    _patch(LsmTree, "put", make_tree_put)

    def segment_ids(engine: LsmEngine) -> Dict[int, int]:
        return {
            id(segment): segment.size_bytes
            for namespace in engine.namespaces()
            for segment in engine.map(namespace).segments
        }

    def make_segment_writer(fn):
        # Segment bytes written by flushes and compactions, for the
        # engine's write amplification.
        def write_segments(self, *args, **kwargs):
            before = segment_ids(self)
            flushes, compactions = self.flushes, self.compactions
            result = fn(self, *args, **kwargs)
            written = sum(
                size for ident, size in segment_ids(self).items()
                if ident not in before
            )
            count("kvstore.engine.bytes_written", written)
            count("kvstore.engine.flushes", self.flushes - flushes)
            count("kvstore.engine.compactions", self.compactions - compactions)
            return result
        return write_segments

    _patch(LsmEngine, "flush", make_segment_writer)
    _patch(LsmEngine, "run_maintenance", make_segment_writer)

    def timed(counter: str):
        def make(fn):
            def call(*args, **kwargs):
                start = now_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    count(counter, now_ns() - start)
            return wrap("kvstore.engine", call)
        return make

    _patch(KeyValueCluster, "run_engine_maintenance",
           timed("kvstore.engine.maintenance_ns"))
    _patch(KeyValueCluster, "recover_node", timed("kvstore.engine.recovery_ns"))

    # Resilience layer.
    def make_run(fn):
        def run(self, *args, **kwargs):
            metrics = self.db.client.stats.metrics
            before = metrics.value("resilience.retries")
            try:
                return fn(self, *args, **kwargs)
            finally:
                count(
                    "resilience.policy.retries",
                    metrics.value("resilience.retries") - before,
                )
        return wrap("resilience.policy", run)

    span(ResiliencePolicy, "execute_page", "resilience.policy")
    _patch(ResiliencePolicy, "run", make_run)

    def make_breaker(fn):
        def record_failure(self, now):
            was_open = self.state(now) == "open"
            fn(self, now)
            if not was_open and self.state(now) == "open":
                count("resilience.policy.breaker_opens")
        return record_failure

    _patch(CircuitBreaker, "record_failure", make_breaker)

    # Serving kernel and the observability tier.
    def make_kernel(fn):
        def run(self, *args, **kwargs):
            before = self.events_processed
            try:
                return fn(self, *args, **kwargs)
            finally:
                count("serving.kernel.events", self.events_processed - before)
        return wrap("serving.kernel", run)

    _patch(Simulation, "run", make_kernel)
    span(TelemetryCollector, "scrape", "obs.telemetry.scrape")
    span(SLOMonitor, "record", "obs.slo")
    span(FlightRecorder, "observe_query", "obs.flightrec.observe_query")
    span(BoundAuditor, "observe_query", "obs.audit.observe_query")

    # The workload's own plumbing: plan sampling and plan replay.
    span(Workload, "run_plan", "workloads.run_plan")
    span(TpcwWorkload, "interaction_plan", "workloads.interaction_plan")
