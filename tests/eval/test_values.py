"""Value-domain tests: FMap, Record, sequence helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.eval.values import (FMap, Record, seq_index_of, seq_insert,
                               seq_last_index_of, seq_remove, seq_update)


def test_fmap_basic():
    m = FMap({"a": "x"})
    assert m["a"] == "x"
    assert m.lookup("b") is None
    assert len(m) == 1
    assert "a" in m


def test_fmap_put_is_functional():
    m = FMap()
    m2 = m.put("a", "x")
    assert len(m) == 0
    assert m2.lookup("a") == "x"


def test_fmap_remove():
    m = FMap({"a": "x", "b": "y"})
    m2 = m.remove("a")
    assert "a" not in m2 and "b" in m2
    assert m.remove("zz") is m  # no-op returns self


def test_fmap_equality_and_hash():
    assert FMap({"a": "x"}) == FMap({"a": "x"})
    assert hash(FMap({"a": "x"})) == hash(FMap({"a": "x"}))
    assert FMap({"a": "x"}) != FMap({"a": "y"})


def test_record_fields_and_replace():
    r = Record(contents=frozenset({"a"}), size=1)
    assert r["size"] == 1
    r2 = r.replace(size=2)
    assert r["size"] == 1 and r2["size"] == 2
    assert set(r) == {"contents", "size"}


def test_record_equality_hash():
    a = Record(x=1, y=2)
    b = Record(y=2, x=1)
    assert a == b
    assert hash(a) == hash(b)


# Equality compares the precomputed hashes first; these pin that the
# shortcut never turns an equal pair unequal or the reverse.

def test_record_field_order_is_irrelevant_with_nested_values():
    a = Record(contents=frozenset({"a", "b"}), map=FMap({"k": "v"}), size=2)
    b = Record(size=2, map=FMap({"k": "v"}), contents=frozenset({"b", "a"}))
    assert a == b and not a != b


def test_record_differing_in_one_nested_set_element():
    a = Record(contents=frozenset({"a", "b"}), size=2)
    b = Record(contents=frozenset({"a", "c"}), size=2)
    assert a != b and not a == b


def test_fmap_insertion_order_is_irrelevant():
    a = FMap({"k": frozenset({"a", "b"}), "j": "x"})
    b = FMap({"j": "x", "k": frozenset({"b", "a"})})
    assert a == b and not a != b


def test_fmap_differing_in_one_nested_set_element():
    a = FMap({"k": frozenset({"a", "b"})})
    b = FMap({"k": frozenset({"a", "c"})})
    assert a != b and not a == b


@pytest.mark.parametrize("seq,value,first,last", [
    ((), "a", -1, -1),
    (("a",), "a", 0, 0),
    (("a", "b", "a"), "a", 0, 2),
    (("b", "b"), "a", -1, -1),
])
def test_index_of(seq, value, first, last):
    assert seq_index_of(seq, value) == first
    assert seq_last_index_of(seq, value) == last


def test_insert_remove_update():
    s = ("a", "b", "c")
    assert seq_insert(s, 0, "x") == ("x", "a", "b", "c")
    assert seq_insert(s, 3, "x") == ("a", "b", "c", "x")
    assert seq_remove(s, 1) == ("a", "c")
    assert seq_update(s, 2, "x") == ("a", "b", "x")


# -- property-based invariants ----------------------------------------------

elements = st.sampled_from(("a", "b", "c"))
sequences = st.lists(elements, max_size=6).map(tuple)


@given(sequences, elements, st.integers(0, 6))
def test_insert_then_remove_roundtrip(seq, v, i):
    i = min(i, len(seq))
    assert seq_remove(seq_insert(seq, i, v), i) == seq


@given(sequences, elements)
def test_index_of_agrees_with_membership(seq, v):
    assert (seq_index_of(seq, v) >= 0) == (v in seq)
    if v in seq:
        assert seq[seq_index_of(seq, v)] == v
        assert seq[seq_last_index_of(seq, v)] == v
        assert seq_index_of(seq, v) <= seq_last_index_of(seq, v)


@given(st.dictionaries(st.sampled_from("abc"), st.sampled_from("xyz")))
def test_fmap_mirrors_dict(data):
    m = FMap(data)
    assert dict(m.items()) == data
    for k, v in data.items():
        assert m.lookup(k) == v
