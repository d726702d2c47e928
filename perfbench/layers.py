"""Per-layer metrics of the traced pass, named ``<module>.<boundary>.<quantity>``.

``calls`` and ``self_us`` are per interaction of the traced prefix.  The
extra quantities are ratios measured at the same boundary, per-interaction
counts, or (``recovery_ms``) a total over the pass.  ``setup.*`` covers
the set-up region of the same process, in milliseconds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Every layer boundary a span is recorded at.
LAYERS = (
    "sql.parse",
    "optimizer.optimize",
    "engine.prepare",
    "engine.session",
    "execution.executor.execute",
    "storage.record_manager",
    "views.maintenance",
    "kvstore.client",
    "kvstore.cluster",
    "replication.merged_range",
    "kvstore.latency.sample_seconds",
    "kvstore.engine",
    "resilience.policy",
    "serving.kernel",
    "obs.telemetry.scrape",
    "obs.slo",
    "obs.flightrec.observe_query",
    "obs.audit.observe_query",
    "workloads.interaction_plan",
    "workloads.run_plan",
)

#: Layers whose set-up self time is reported (the ones set-up spends in).
SETUP_LAYERS = (
    "sql.parse",
    "optimizer.optimize",
    "engine.prepare",
    "storage.record_manager",
    "views.maintenance",
    "replication.merged_range",
    "kvstore.cluster",
    "kvstore.engine",
)

#: ``(name, unit)`` of the extra quantities, in report order.
EXTRAS: Tuple[Tuple[str, str], ...] = (
    ("engine.prepare.cache_hit_rate", "ratio"),
    ("execution.executor.execute.rpcs_per_query", "count"),
    ("execution.executor.execute.dereference_rounds_per_query", "count"),
    ("storage.record_manager.kv_ops_per_write", "count"),
    ("views.maintenance.count_range_calls", "count"),
    ("kvstore.client.keys_per_call", "count"),
    ("kvstore.cluster.keys_per_call", "count"),
    ("kvstore.cluster.unavailable", "count"),
    ("replication.merged_range.slices_per_range", "count"),
    ("replication.merged_range.entries_scanned_per_returned", "ratio"),
    ("kvstore.engine.flushes", "count"),
    ("kvstore.engine.compactions", "count"),
    ("kvstore.engine.write_amplification", "ratio"),
    ("kvstore.engine.maintenance_stall_us", "us"),
    ("kvstore.engine.recovery_ms", "ms"),
    ("resilience.policy.retries", "count"),
    ("resilience.policy.breaker_opens", "count"),
    ("serving.kernel.events", "count"),
    ("trace.wall_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_us", "us"))
    names.extend(EXTRAS)
    names.append(("setup.wall_ms", "ms"))
    names.append(("setup.unattributed_ms", "ms"))
    for layer in SETUP_LAYERS:
        names.append((f"setup.{layer}.self_ms", "ms"))
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(setup, traced, interactions: int) -> Dict[str, float]:
    """Metrics of one traced process (``overhead_ratio`` is filled by the
    caller, which also ran the untraced pass)."""
    layers = traced.layers
    counters = traced.counters
    out: Dict[str, float] = {}
    for layer in LAYERS:
        totals = layers.get(layer)
        out[f"{layer}.calls"] = _ratio(totals.calls if totals else 0, interactions)
        out[f"{layer}.self_us"] = _ratio(
            totals.self_ns / 1e3 if totals else 0.0, interactions
        )

    def calls(layer: str) -> int:
        totals = layers.get(layer)
        return totals.calls if totals else 0

    def per_interaction(key: str) -> float:
        return _ratio(counters.get(key, 0.0), interactions)

    out["engine.prepare.cache_hit_rate"] = _ratio(
        counters.get("engine.prepare.hits", 0.0),
        counters.get("engine.prepare.lookups", 0.0),
    )
    executes = calls("execution.executor.execute")
    out["execution.executor.execute.rpcs_per_query"] = _ratio(
        counters.get("execution.executor.execute.rpcs", 0.0), executes
    )
    out["execution.executor.execute.dereference_rounds_per_query"] = _ratio(
        counters.get("execution.executor.execute.dereference_rounds", 0.0),
        executes,
    )
    out["storage.record_manager.kv_ops_per_write"] = _ratio(
        counters.get("storage.record_manager.kv_ops", 0.0),
        calls("storage.record_manager"),
    )
    out["views.maintenance.count_range_calls"] = per_interaction(
        "views.maintenance.count_range_calls"
    )
    for layer in ("kvstore.client", "kvstore.cluster"):
        out[f"{layer}.keys_per_call"] = _ratio(
            counters.get(f"{layer}.keys", 0.0), calls(layer)
        )
    out["kvstore.cluster.unavailable"] = per_interaction("kvstore.cluster.unavailable")
    out["replication.merged_range.slices_per_range"] = _ratio(
        counters.get("replication.merged_range.slices", 0.0),
        calls("replication.merged_range"),
    )
    out["replication.merged_range.entries_scanned_per_returned"] = _ratio(
        counters.get("replication.merged_range.scanned", 0.0),
        counters.get("replication.merged_range.returned", 0.0),
    )
    out["kvstore.engine.flushes"] = per_interaction("kvstore.engine.flushes")
    out["kvstore.engine.compactions"] = per_interaction("kvstore.engine.compactions")
    out["kvstore.engine.write_amplification"] = _ratio(
        counters.get("kvstore.engine.bytes_written", 0.0),
        counters.get("kvstore.engine.bytes_put", 0.0),
    )
    out["kvstore.engine.maintenance_stall_us"] = (
        per_interaction("kvstore.engine.maintenance_ns") / 1e3
    )
    out["kvstore.engine.recovery_ms"] = (
        counters.get("kvstore.engine.recovery_ns", 0.0) / 1e6
    )
    out["resilience.policy.retries"] = per_interaction("resilience.policy.retries")
    out["resilience.policy.breaker_opens"] = per_interaction(
        "resilience.policy.breaker_opens"
    )
    out["serving.kernel.events"] = per_interaction("serving.kernel.events")
    out["trace.wall_us"] = _ratio(traced.wall_ns / 1e3, interactions)
    out["trace.unattributed_us"] = _ratio(traced.unattributed_ns / 1e3, interactions)
    out["trace.overhead_ratio"] = 0.0
    out["setup.wall_ms"] = setup.wall_ns / 1e6
    out["setup.unattributed_ms"] = setup.unattributed_ns / 1e6
    for layer in SETUP_LAYERS:
        totals = setup.layers.get(layer)
        out[f"setup.{layer}.self_ms"] = totals.self_ns / 1e6 if totals else 0.0
    return out
