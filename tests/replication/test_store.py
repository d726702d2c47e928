"""Unit tests for versioned records and per-node replica stores."""

import pytest

from repro.kvstore.engine import LsmEngine
from repro.replication import (
    MISSING_SEQ,
    ReplicaStore,
    decode_record,
    encode_record,
    record_seq,
)
from repro.replication.store import TOMBSTONE_SUFFIX


class TestRecordEncoding:
    def test_round_trip(self):
        record = encode_record(42, b"payload")
        assert decode_record(record) == (42, b"payload")
        assert record_seq(record) == 42

    def test_tombstone(self):
        record = encode_record(7, None)
        seq, value = decode_record(record)
        assert seq == 7
        assert value is None

    def test_empty_value_is_not_a_tombstone(self):
        seq, value = decode_record(encode_record(1, b""))
        assert value == b""

    def test_missing_seq(self):
        assert record_seq(None) == MISSING_SEQ

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            encode_record(-1, b"x")


class TestReplicaStore:
    def test_newest_wins(self):
        store = ReplicaStore()
        assert store.apply_record("ns", b"k", encode_record(2, b"new"))
        # An older record never overwrites a newer one.
        assert not store.apply_record("ns", b"k", encode_record(1, b"old"))
        assert decode_record(store.get_record("ns", b"k")) == (2, b"new")

    def test_tombstone_supersedes_value(self):
        store = ReplicaStore()
        store.apply_record("ns", b"k", encode_record(1, b"v"))
        store.apply_record("ns", b"k", encode_record(2, None))
        seq, value = decode_record(store.get_record("ns", b"k"))
        assert (seq, value) == (2, None)
        # The tombstone still occupies a slot (needed for propagation).
        assert store.key_count("ns") == 1

    def test_range_records_include_tombstones(self):
        store = ReplicaStore()
        store.apply_record("ns", b"a", encode_record(1, b"v"))
        store.apply_record("ns", b"b", encode_record(2, None))
        keys = [key for key, _ in store.range_records("ns", None, None)]
        assert keys == [b"a", b"b"]

    def test_discard_and_drop_namespace(self):
        store = ReplicaStore()
        store.apply_record("ns", b"k", encode_record(1, b"v"))
        assert store.discard("ns", b"k")
        assert not store.discard("ns", b"k")
        store.apply_record("ns", b"k", encode_record(2, b"v"))
        store.drop_namespace("ns")
        assert store.get_record("ns", b"k") is None
        assert store.seq_of("other", b"k") == MISSING_SEQ


class TestTombstoneMap:
    """Tombstones live in a sibling engine map, live records in their own."""

    @staticmethod
    def _keys(store, name):
        existing = store.engine.peek(name)
        return [key for key, _ in existing.iter_items()] if existing else []

    def test_delete_and_revive_move_the_key_between_maps(self):
        store = ReplicaStore()
        store.apply_record("ns", b"k", encode_record(1, b"v"))
        store.apply_record("ns", b"k", encode_record(2, None))
        assert self._keys(store, "ns") == []
        assert self._keys(store, "ns" + TOMBSTONE_SUFFIX) == [b"k"]
        store.apply_record("ns", b"k", encode_record(3, b"again"))
        assert self._keys(store, "ns") == [b"k"]
        assert self._keys(store, "ns" + TOMBSTONE_SUFFIX) == []
        assert decode_record(store.get_record("ns", b"k")) == (3, b"again")

    def test_older_record_never_crosses_maps(self):
        store = ReplicaStore()
        store.apply_record("ns", b"k", encode_record(5, None))
        assert not store.apply_record("ns", b"k", encode_record(4, b"old"))
        assert self._keys(store, "ns") == []
        assert store.seq_of("ns", b"k") == 5

    def test_live_only_scan_skips_tombstones(self):
        store = ReplicaStore()
        store.apply_record("ns", b"a", encode_record(1, b"v"))
        store.apply_record("ns", b"b", encode_record(2, None))
        store.apply_record("ns", b"c", encode_record(3, b"v"))
        live = store.iter_range_records("ns", None, None, tombstones=False)
        assert [key for key, _ in live] == [b"a", b"c"]
        both = store.iter_range_records("ns", None, None, ascending=False)
        assert [key for key, _ in both] == [b"c", b"b", b"a"]
        assert store.range_records("ns", None, None, limit=2) == [
            (b"a", encode_record(1, b"v")), (b"b", encode_record(2, None)),
        ]

    def test_namespaces_hide_the_tombstone_map(self):
        store = ReplicaStore()
        store.apply_record("gone", b"k", encode_record(1, None))
        store.apply_record("ns", b"k", encode_record(2, b"v"))
        store.apply_record("ns", b"j", encode_record(3, None))
        assert store.namespaces() == ["gone", "ns"]
        assert store.key_count("ns") == 2
        store.drop_namespace("ns")
        assert store.namespaces() == ["gone"]
        assert store.tombstones("ns") is None

    def test_discard_removes_a_tombstone(self):
        store = ReplicaStore()
        store.apply_record("ns", b"k", encode_record(1, None))
        assert store.discard("ns", b"k")
        assert store.get_record("ns", b"k") is None

    def test_bulk_load_drops_the_tombstones_it_supersedes(self, tmp_path):
        engine = LsmEngine(str(tmp_path), memtable_budget_bytes=256)
        store = ReplicaStore(engine)
        store.apply_record("ns", b"a", encode_record(1, None))
        store.apply_record("ns", b"z", encode_record(2, None))
        loaded = store.bulk_load(
            "ns", iter([(b"a", encode_record(3, b"new")), (b"m", encode_record(4, b"m"))])
        )
        assert loaded == 2
        assert self._keys(store, "ns") == [b"a", b"m"]
        assert self._keys(store, "ns" + TOMBSTONE_SUFFIX) == [b"z"]
        engine.close()
