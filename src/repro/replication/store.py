"""Per-node versioned replica storage.

Each :class:`~repro.kvstore.node.StorageNode` now physically owns the data
it is a replica for — one ordered map per namespace, holding **versioned
records**.  A record is the stored value prefixed with an 8-byte write
sequence number and a flag byte::

    record = seq (8 bytes, big endian) | flags (1 byte) | payload

The sequence number is issued by the cluster coordinator at write time and
totally orders all writes, so every conflict-resolution site in the
replication tier — quorum reads, read repair, hinted-handoff replay, and
anti-entropy — applies the same rule: **newest sequence wins**.  Deletes
are tombstones (flag bit set, empty payload) rather than physical removals,
so a delete can propagate to replicas that missed it exactly like any other
write.

The *physical* side — how those per-namespace ordered maps are actually
held — is delegated to a pluggable
:class:`~repro.kvstore.engine.base.StorageEngine` (the in-memory dict
engine by default, or the persistent LSM engine).  Everything logical
(record encoding, newest-wins conflict resolution) lives here and is
engine-independent, which is what keeps query results and operation counts
bit-identical across engines.  Per-node range scans stay byte-ordered
either way, which the scatter-gather range path merges across replicas.

Replicas keep tombstones forever, so a namespace's tombstones live in a
sibling engine map, ``namespace + TOMBSTONE_SUFFIX``, and its live map
holds live records only.  A record that deletes or revives a key moves it
from one map to the other.  Range reads then scan only the live maps and
check a candidate key against the tombstone maps with point lookups, so
their cost follows the live keys they visit rather than how much was ever
deleted in the range.  The tombstone map is an ordinary engine namespace,
so the LSM engine's WAL, segments and recovery cover it unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from ..kvstore.engine import DictEngine
from ..kvstore.engine.base import StorageEngine

_HEADER = struct.Struct(">QB")
_FLAGS_OFFSET = 8
_TOMBSTONE = 0x01

#: Suffix of the engine namespace that holds a namespace's tombstones.
TOMBSTONE_SUFFIX = "\x00tombstones"

#: Sequence number reported for a key a replica has never heard of.
MISSING_SEQ = -1


def encode_record(seq: int, value: Optional[bytes]) -> bytes:
    """Encode one versioned record; ``value=None`` encodes a tombstone."""
    if seq < 0:
        raise ValueError("sequence numbers must be non-negative")
    flags = _TOMBSTONE if value is None else 0
    return _HEADER.pack(seq, flags) + (value or b"")


def decode_record(record: bytes) -> Tuple[int, Optional[bytes]]:
    """Decode a versioned record to ``(seq, value)``; tombstones give ``None``."""
    seq, flags = _HEADER.unpack_from(record)
    return seq, (None if flags & _TOMBSTONE else record[_HEADER.size:])


def record_seq(record: Optional[bytes]) -> int:
    """Sequence number of an encoded record (``MISSING_SEQ`` for ``None``)."""
    if record is None:
        return MISSING_SEQ
    return _HEADER.unpack_from(record)[0]


def is_tombstone(record: bytes) -> bool:
    """Whether an encoded record is a tombstone."""
    return bool(record[_FLAGS_OFFSET] & _TOMBSTONE)


class ReplicaStore:
    """One storage node's replica of every namespace it participates in.

    Each namespace is two engine maps: the live records under the
    namespace's own name and the tombstones under ``namespace +
    TOMBSTONE_SUFFIX``.  A key sits in at most one of them.
    """

    def __init__(self, engine: Optional[StorageEngine] = None) -> None:
        self.engine: StorageEngine = engine if engine is not None else DictEngine()

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------
    def namespaces(self) -> List[str]:
        names = set()
        for name in self.engine.namespaces():
            if name.endswith(TOMBSTONE_SUFFIX):
                name = name[: -len(TOMBSTONE_SUFFIX)]
            names.add(name)
        return sorted(names)

    def drop_namespace(self, namespace: str) -> None:
        self.engine.drop_namespace(namespace)
        self.engine.drop_namespace(namespace + TOMBSTONE_SUFFIX)

    def tombstones(self, namespace: str):
        """The namespace's tombstone map, or ``None`` if it never had one."""
        return self.engine.peek(namespace + TOMBSTONE_SUFFIX)

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def get_record(self, namespace: str, key: bytes) -> Optional[bytes]:
        """The key's record, live or tombstone, or ``None``."""
        live = self.engine.peek(namespace)
        record = live.get(key) if live is not None else None
        if record is None:
            dead = self.tombstones(namespace)
            record = dead.get(key) if dead is not None else None
        return record

    def seq_of(self, namespace: str, key: bytes) -> int:
        return record_seq(self.get_record(namespace, key))

    def apply_record(self, namespace: str, key: bytes, record: bytes) -> bool:
        """Store ``record`` unless a newer version is already present.

        Newest-wins idempotence is what lets read repair, hint replay, and
        anti-entropy all blindly push records at replicas.  A record that
        changes the key between live and deleted moves it from one map to
        the other.  Returns whether the record was applied.
        """
        live = self.engine.peek(namespace)
        dead = self.tombstones(namespace)
        existing = live.get(key) if live is not None else None
        in_live = existing is not None
        if not in_live and dead is not None:
            existing = dead.get(key)
        if record_seq(record) <= record_seq(existing):
            return False
        if is_tombstone(record):
            self.engine.map(namespace + TOMBSTONE_SUFFIX).put(key, record)
            if in_live:
                live.delete(key)
        else:
            self.engine.map(namespace).put(key, record)
            if existing is not None and not in_live:
                dead.delete(key)
        return True

    def discard(self, namespace: str, key: bytes) -> bool:
        """Physically remove a key (the node is no longer a replica for it)."""
        removed = False
        for name in (namespace, namespace + TOMBSTONE_SUFFIX):
            existing = self.engine.peek(name)
            if existing is not None and existing.delete(key):
                removed = True
        return removed

    def bulk_load(self, namespace: str, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Load live records through the engine's bulk path.

        The loaded records are the newest of their keys, so any tombstone
        they supersede is deleted afterwards to keep each key in one map.
        """
        dead = self.tombstones(namespace)
        if dead is None:
            return self.engine.bulk_load(namespace, items)
        superseded: List[bytes] = []

        def note_superseded() -> Iterator[Tuple[bytes, bytes]]:
            for key, record in items:
                if key in dead:
                    superseded.append(key)
                yield key, record

        count = self.engine.bulk_load(namespace, note_superseded())
        for key in superseded:
            dead.delete(key)
        return count

    def range_records(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[Tuple[bytes, bytes]]:
        """This replica's encoded records with ``start <= key < end``.

        Tombstones are *included* — anti-entropy needs them to propagate
        deletes.
        """
        records = self.iter_range_records(namespace, start, end, ascending)
        return list(itertools.islice(records, limit))

    def iter_range_records(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        ascending: bool = True,
        tombstones: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Lazily iterate this replica's records in a key range, so
        limit-honouring merges can stop early.

        Tombstones are included unless ``tombstones=False``, in which case
        only the live map is scanned.
        """
        names = [namespace, namespace + TOMBSTONE_SUFFIX] if tombstones else [namespace]
        slices = [
            existing.iter_range(start, end, ascending)
            for existing in map(self.engine.peek, names)
            if existing is not None
        ]
        if len(slices) == 1:
            return slices[0]
        return heapq.merge(*slices, key=itemgetter(0), reverse=not ascending)

    def key_count(self, namespace: str) -> int:
        """Number of stored records (tombstones included) in a namespace."""
        return sum(
            len(existing)
            for existing in map(
                self.engine.peek, (namespace, namespace + TOMBSTONE_SUFFIX)
            )
            if existing is not None
        )
