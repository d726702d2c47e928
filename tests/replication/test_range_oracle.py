"""Paired oracle for the replicated range path.

Replica stores keep tombstones in a map of their own, and
:meth:`ReplicationManager.merged_range` merges only the live maps, checking
each candidate key against the tombstone maps with point lookups.  The
reference below is the all-records merge that path replaced: it heap-merges
every record of every replica, tombstones included, and resolves newest-wins
per key.  Randomized schedules of writes, deletes, re-inserts, crashes,
partitions, node additions and partial rebalances run on the dict and the
LSM engine (with a tiny memtable budget, so flushes and compactions
happen), and after every step the range path must equal the reference.
"""

import heapq
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnavailableError
from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.kvstore.network import CLIENT
from repro.replication import decode_record, record_seq
from repro.replication.manager import ReplicationManager
from repro.replication.store import TOMBSTONE_SUFFIX, is_tombstone

NAMESPACE = "data"
KEYS = [f"k{index:02d}".encode() for index in range(12)]
BOUNDS = [None] + KEYS[::3]


def reference_merged_range(
    manager: ReplicationManager,
    namespace: str,
    node_ids: Sequence[int],
    start: Optional[bytes],
    end: Optional[bytes],
    limit: Optional[int] = None,
    ascending: bool = True,
) -> List[Tuple[bytes, bytes, int]]:
    """The all-records merge, serving-node tag included."""
    streams = [
        (
            (key, record, node_id)
            for key, record in manager.stores[node_id].iter_range_records(
                namespace, start, end, ascending
            )
        )
        for node_id in node_ids
    ]
    merged = heapq.merge(
        *streams, key=lambda entry: entry[0], reverse=not ascending
    )
    results: List[Tuple[bytes, bytes, int]] = []
    current_key: Optional[bytes] = None
    best_seq = -1
    best_record: Optional[bytes] = None
    best_node = -1

    def flush() -> bool:
        if current_key is None or best_record is None:
            return False
        value = decode_record(best_record)[1]
        if value is None:
            return False
        results.append((current_key, value, best_node))
        return limit is not None and len(results) >= limit

    for key, record, node_id in merged:
        if key != current_key:
            if flush():
                return results
            current_key = key
            best_seq, best_record, best_node = -1, None, -1
        seq = record_seq(record)
        if seq > best_seq:
            best_seq, best_record, best_node = seq, record, node_id
    flush()
    return results


def _make_cluster(engine: str) -> KeyValueCluster:
    options = {"memtable_budget_bytes": 512, "fanout": 2} if engine == "lsm" else None
    cluster = KeyValueCluster(
        ClusterConfig(
            storage_nodes=5,
            replication=3,
            read_quorum=2,
            write_quorum=2,
            seed=3,
            storage_engine=engine,
            engine_options=options,
        )
    )
    cluster.create_namespace(NAMESPACE)
    return cluster


def _serving_ids(cluster: KeyValueCluster) -> List[int]:
    return [
        node.node_id
        for node in cluster.nodes
        if node.up and cluster.network.reachable(CLIENT, node.node_id)
    ]


def _apply(cluster: KeyValueCluster, step: Tuple, index: int) -> None:
    op, arg = step[0], step[1]
    node_ids = [node.node_id for node in cluster.nodes]
    node = node_ids[arg % len(node_ids)]
    try:
        if op == "put":
            cluster.put(NAMESPACE, KEYS[arg], f"v{index}".encode())
        elif op == "delete":
            cluster.delete(NAMESPACE, KEYS[arg])
        elif op == "crash":
            if len(cluster.up_node_ids()) > 3:
                cluster.crash_node(node)
        elif op == "recover":
            if not cluster.node(node).up:
                cluster.recover_node(node)
        elif op == "partition":
            cluster.network.partition([[node]])
        elif op == "heal":
            cluster.network.heal()
        elif op == "add_node":
            if len(cluster.nodes) < 7:
                cluster.add_node()
        elif op == "rebalance":
            # Only the chosen target is written to or pruned, so other
            # nodes keep records the ring no longer places on them.
            up = cluster.up_node_ids()
            cluster.replication.rebalance(up, target_ids={node} & set(up))
        elif op == "maintenance":
            cluster.run_engine_maintenance()
    except UnavailableError:
        pass  # a failed write may still have applied on some replicas


def _check_maps_disjoint(cluster: KeyValueCluster) -> None:
    for store in cluster.replication.stores.values():
        live = store.engine.peek(NAMESPACE)
        dead = store.engine.peek(NAMESPACE + TOMBSTONE_SUFFIX)
        live_items = dict(live.iter_items()) if live is not None else {}
        dead_items = dict(dead.iter_items()) if dead is not None else {}
        assert not set(live_items) & set(dead_items)
        assert not any(is_tombstone(record) for record in live_items.values())
        assert all(is_tombstone(record) for record in dead_items.values())


def _check_range_path(cluster: KeyValueCluster, step: Tuple) -> None:
    manager = cluster.replication
    start, end, rotate = step[2], step[3], step[4]
    up = cluster.up_node_ids()
    subset = [node_id for node_id in up if node_id % 2 == rotate % 2]
    rotated = up[rotate % len(up):] + up[: rotate % len(up)] if up else []
    for node_ids in (up, subset, rotated):
        for ascending in (True, False):
            for limit in (None, 1, 3):
                expected = reference_merged_range(
                    manager, NAMESPACE, node_ids, start, end, limit, ascending
                )
                assert manager.merged_range(
                    NAMESPACE, node_ids, start, end, limit, ascending
                ) == expected
        everything = reference_merged_range(manager, NAMESPACE, node_ids, None, None)
        assert list(manager.iter_live(NAMESPACE, node_ids, chunk_keys=2)) == [
            (key, value) for key, value, _ in everything
        ]
    serving = _serving_ids(cluster)
    expected = reference_merged_range(manager, NAMESPACE, serving, start, end)
    try:
        counted = cluster.count_range(NAMESPACE, start, end).value
    except UnavailableError:
        counted = None
    if counted is not None:
        assert counted == len(expected)
    try:
        pairs = cluster.get_range(NAMESPACE, start, end, limit=3).value
    except UnavailableError:
        pairs = None
    if pairs is not None:
        assert pairs == [(key, value) for key, value, _ in expected[:3]]


OPS = st.sampled_from(
    ["put"] * 6 + ["delete"] * 4
    + ["crash", "recover", "partition", "heal", "add_node", "rebalance", "maintenance"]
)
STEPS = st.lists(
    st.tuples(
        OPS,
        st.integers(0, len(KEYS) - 1),
        st.sampled_from(BOUNDS),
        st.sampled_from(BOUNDS),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=40,
)


def _run_schedule(engine: str, steps) -> None:
    cluster = _make_cluster(engine)
    try:
        # Before the random schedule, every key is written, half of them
        # deleted and a quarter re-inserted after the delete.
        prologue = [("put", i) for i in range(len(KEYS))]
        prologue += [("delete", i) for i in range(0, len(KEYS), 2)]
        prologue += [("put", i) for i in range(0, len(KEYS), 4)]
        for index, step in enumerate(prologue):
            _apply(cluster, step, index)
        for index, step in enumerate(steps, start=len(prologue)):
            _apply(cluster, step, index)
            _check_maps_disjoint(cluster)
            _check_range_path(cluster, step)
    finally:
        cluster.close()


class TestRangePathMatchesAllRecordsMerge:
    @given(steps=STEPS)
    @settings(max_examples=30, deadline=None)
    def test_dict_engine(self, steps):
        _run_schedule("dict", steps)

    @given(steps=STEPS)
    @settings(max_examples=20, deadline=None)
    def test_lsm_engine(self, steps):
        _run_schedule("lsm", steps)

    def test_lsm_schedule_flushes_and_compacts(self):
        steps = [("put", i % len(KEYS), None, None, 0) for i in range(60)]
        steps += [("delete", i, None, None, 1) for i in range(len(KEYS))]
        steps += [("maintenance", 0, None, None, 2)]
        cluster = _make_cluster("lsm")
        try:
            for index, step in enumerate(steps):
                _apply(cluster, step, index)
            engines = cluster.engines.values()
            assert sum(engine.flushes for engine in engines) > 0
            assert sum(engine.compactions for engine in engines) > 0
            _check_maps_disjoint(cluster)
            _check_range_path(cluster, steps[-1])
        finally:
            cluster.close()
