"""Unit tests for the in-memory ordered key/value map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.memory import OrderedKVMap


@pytest.fixture
def populated() -> OrderedKVMap:
    store = OrderedKVMap()
    for index in range(10):
        store.put(f"key{index:02d}".encode(), f"value{index}".encode())
    return store


class TestPointOperations:
    def test_get_returns_stored_value(self, populated):
        assert populated.get(b"key03") == b"value3"

    def test_get_missing_returns_none(self, populated):
        assert populated.get(b"missing") is None

    def test_put_overwrites(self, populated):
        populated.put(b"key03", b"new")
        assert populated.get(b"key03") == b"new"
        assert len(populated) == 10

    def test_delete_existing(self, populated):
        assert populated.delete(b"key03") is True
        assert populated.get(b"key03") is None
        assert len(populated) == 9

    def test_delete_missing(self, populated):
        assert populated.delete(b"nope") is False

    def test_contains(self, populated):
        assert b"key00" in populated
        assert b"zzz" not in populated

    def test_rejects_non_bytes_keys(self):
        store = OrderedKVMap()
        with pytest.raises(TypeError):
            store.put("string", b"x")
        with pytest.raises(TypeError):
            store.put(b"x", 42)


class TestTestAndSet:
    def test_insert_if_absent_succeeds(self):
        store = OrderedKVMap()
        assert store.test_and_set(b"a", None, b"1") is True
        assert store.get(b"a") == b"1"

    def test_insert_if_absent_fails_when_present(self, populated):
        assert populated.test_and_set(b"key00", None, b"x") is False
        assert populated.get(b"key00") == b"value0"

    def test_swap_with_expected_value(self, populated):
        assert populated.test_and_set(b"key00", b"value0", b"next") is True
        assert populated.get(b"key00") == b"next"

    def test_swap_with_wrong_expected_value(self, populated):
        assert populated.test_and_set(b"key00", b"wrong", b"next") is False


class TestRangeOperations:
    def test_full_range_in_order(self, populated):
        keys = [k for k, _ in populated.range()]
        assert keys == sorted(keys)
        assert len(keys) == 10

    def test_bounded_range_is_half_open(self, populated):
        pairs = populated.range(b"key02", b"key05")
        assert [k for k, _ in pairs] == [b"key02", b"key03", b"key04"]

    def test_range_with_limit(self, populated):
        pairs = populated.range(b"key02", b"key09", limit=2)
        assert [k for k, _ in pairs] == [b"key02", b"key03"]

    def test_descending_range(self, populated):
        pairs = populated.range(b"key02", b"key05", ascending=False)
        assert [k for k, _ in pairs] == [b"key04", b"key03", b"key02"]

    def test_descending_range_with_limit(self, populated):
        pairs = populated.range(b"key00", b"key09", limit=3, ascending=False)
        assert [k for k, _ in pairs] == [b"key08", b"key07", b"key06"]

    def test_empty_range(self, populated):
        assert populated.range(b"x", b"y") == []

    def test_negative_limit_rejected(self, populated):
        with pytest.raises(ValueError):
            populated.range(limit=-1)

    def test_range_sees_new_writes(self, populated):
        populated.put(b"key035", b"between")
        keys = [k for k, _ in populated.range(b"key03", b"key04")]
        assert keys == [b"key03", b"key035"]

    def test_count_range(self, populated):
        assert populated.count_range(b"key02", b"key05") == 3
        assert populated.count_range() == 10
        assert populated.count_range(b"zzz", None) == 0

    def test_iter_items_sorted(self, populated):
        keys = [k for k, _ in populated.iter_items()]
        assert keys == sorted(keys)

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0
        assert populated.range() == []


#: Few distinct keys, so puts, deletes and re-puts of one key interleave.
_KEYS = st.sampled_from([b"", b"a", b"ab", b"b", b"ba", b"c", b"d\x00", b"d"])
_BOUND = st.one_of(st.none(), _KEYS)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(max_size=3)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("range"), _BOUND, _BOUND, st.one_of(st.none(), st.integers(0, 4)), st.booleans()),
    st.tuples(st.just("iter_range"), _BOUND, _BOUND, st.booleans()),
    st.tuples(st.just("count_range"), _BOUND, _BOUND),
    st.tuples(st.just("clear")),
)


def _oracle_range(oracle, start, end, ascending):
    keys = sorted(
        key for key in oracle
        if (start is None or key >= start) and (end is None or key < end)
    )
    if not ascending:
        keys.reverse()
    return [(key, oracle[key]) for key in keys]


class TestAgainstSortedDictOracle:
    @given(st.lists(_OPS, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_interleaved_operations(self, ops):
        store, oracle = OrderedKVMap(), {}
        for op in ops:
            if op[0] == "put":
                store.put(op[1], op[2])
                oracle[op[1]] = op[2]
            elif op[0] == "delete":
                assert store.delete(op[1]) == (oracle.pop(op[1], None) is not None)
            elif op[0] == "range":
                _, start, end, limit, ascending = op
                expected = _oracle_range(oracle, start, end, ascending)
                assert store.range(start, end, limit, ascending) == expected[:limit]
            elif op[0] == "iter_range":
                _, start, end, ascending = op
                assert list(store.iter_range(start, end, ascending)) == \
                    _oracle_range(oracle, start, end, ascending)
            elif op[0] == "count_range":
                assert store.count_range(op[1], op[2]) == \
                    len(_oracle_range(oracle, op[1], op[2], True))
            else:
                store.clear()
                oracle.clear()
            assert len(store) == len(oracle)
        assert list(store.iter_items()) == _oracle_range(oracle, None, None, True)

    def test_delete_and_reput_of_a_key_added_since_the_last_range(self):
        store = OrderedKVMap()
        store.put(b"b", b"1")
        assert store.range() == [(b"b", b"1")]
        store.put(b"a", b"2")
        store.put(b"c", b"3")
        assert store.delete(b"a")
        store.put(b"a", b"4")
        assert store.delete(b"c")
        assert store.range() == [(b"a", b"4"), (b"b", b"1")]
        assert store.count_range() == 2
