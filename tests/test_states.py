"""Vacuum module: base action, mode action, grading, normal ordering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torva import Session, state_from_json, state_to_json
from torva.axioms import mod_act_elem, sample_toroidal
from torva.states import LRUCache, StateVector

from conftest import sl2_spec


@pytest.fixture(scope="module")
def s():
    return Session(sl2_spec(), 1, 1)


def test_base_action_table(s):
    mod = s.module
    e, f = s.spec.index_of("e"), s.spec.index_of("f")
    assert mod.base_action(e, 0, (0,), f) == s.tail("h")
    assert mod.base_action(e, 1, (5,), f) == s.vacuum()  # <e,f> * level = 1
    assert mod.base_action(e, 2, (0,), f).is_zero()
    assert mod.base_action(e, 3, (0,), None).is_zero()
    with pytest.raises(ValueError):
        mod.base_action(e, -1, (0,), f)


def test_act_creation_on_vacuum(s):
    st_ = s.module.act("h", -1, (0,), s.vacuum())
    assert st_ == s.monomial([(1, "h", (0,))])
    assert st_.degrees() == [1]


def test_act_single_commutation(s):
    w = s.module.act("f", -1, (-1,), s.vacuum())
    out = s.module.act("e", 1, (1,), w)
    assert out == s.vacuum()  # level * <e,f>


def test_act_bracket_mode(s):
    w = s.module.act("f", -2, (1,), s.vacuum())
    out = s.module.act("e", 0, (1,), w)
    assert out == s.monomial([(2, "h", (2,))])


def test_degrees(s):
    assert s.vacuum().degrees() == [0]
    assert s.tail("f").degrees() == [1]
    w = s.parse_state("e(-2;1) f(-1;0) vac")
    assert w.degrees() == [3]


def test_restricted_witness_by_enumeration(s):
    rng = random.Random(0)
    for _ in range(10):
        w = s.parse_state("e(-2;1) f(-1;0) vac")
        n0w = s.module.restricted_witness(0, (0,), w)
        assert n0w == 3
        for a in range(3):
            for n0 in range(n0w + 1, n0w + 4):
                for n in [(-1,), (0,), (2,)]:
                    assert s.module.act(a, n0, n, w).is_zero()


def test_grading_shift(s):
    w = s.parse_state("e(-2;1) f(-1;0) vac")
    for n0 in range(-2, 3):
        img = s.module.act("h", n0, (0,), w)
        if img:
            assert img.degrees() == [3 - n0]


def test_word_confluence_vs_chain(s):
    # building a word through monomial() equals applying its modes in order
    rng = random.Random(1)
    for _ in range(25):
        word = [(rng.randrange(1, 3), rng.choice("efh"), (rng.randrange(-1, 2),))
                for _ in range(rng.randrange(1, 4))]
        tail = rng.choice([None, "e", "f", "h"])
        via_monomial = s.monomial(word, tail)
        st_ = s.tail(tail) if tail else s.vacuum()
        for (k, a, m) in reversed(word):
            st_ = s.module.act(a, -k, m, st_)
        assert st_ == via_monomial


def test_module_law_random(s):
    rng = random.Random(2)
    for _ in range(40):
        x = sample_toroidal(s, rng, 2)
        y = sample_toroidal(s, rng, 2)
        w = s.monomial([(1, "e", (rng.randrange(-1, 2),))]) if rng.random() < 0.5 else s.tail("f")
        lhs = (mod_act_elem(s.module, x, mod_act_elem(s.module, y, w))
               - mod_act_elem(s.module, y, mod_act_elem(s.module, x, w)))
        rhs = mod_act_elem(s.module, s.algebra.bracket(x, y), w)
        assert lhs == rhs


def test_act_elem_rejects_derivations(s):
    from torva import ToroidalElement
    d = ToroidalElement.derivation(1, 0)
    with pytest.raises(ValueError):
        s.module.act_elem(d, s.vacuum())


def test_central_acts_as_level():
    s2 = Session(sl2_spec(), 1, Fraction(-2))
    from torva import ToroidalElement
    c = ToroidalElement.center(1)
    w = s2.tail("e")
    assert s2.module.act_elem(c, w) == w.scaled(-2)


def test_statevector_algebra(s):
    a = s.tail("e")
    b = s.tail("f")
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scaled(Fraction(1, 2)).scaled(2) == a
    assert hash(a + b) == hash(b + a)


def test_serialization_roundtrip(s):
    w = s.parse_state("e(-2;1) f(-1;0) vac") + s.tail("h").scaled(Fraction(3, 7))
    data = state_to_json(s.spec, w)
    again = state_from_json(s.module, data)
    assert again == w
    # deterministic output order
    assert data == state_to_json(s.spec, w)


def test_cache_transparency():
    plain = Session(sl2_spec(), 1, 1, cache_entries=0)
    cached = Session(sl2_spec(), 1, 1, cache_entries=50_000)
    rng = random.Random(3)
    for _ in range(15):
        word = [(rng.randrange(1, 3), rng.choice("efh"), (rng.randrange(-1, 2),))
                for _ in range(2)]
        w_plain = plain.monomial(word)
        w_cached = cached.monomial(word)
        assert w_plain == w_cached
        n0 = rng.randrange(-2, 3)
        assert (plain.module.act("e", n0, (0,), w_plain)
                == cached.module.act("e", n0, (0,), w_cached))


def test_lru_eviction():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)           # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_lru_counters():
    cache = LRUCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1 and cache.get("b") == 2
    cache.put("c", 3)           # evicts a, the least recently used
    assert cache.get("a") is None
    assert (cache.hits, cache.misses, len(cache)) == (2, 2, 2)
    off = LRUCache(0)
    off.put("a", 1)
    assert off.get("a") is None and len(off) == 0


def test_state_json_same_for_int_and_fraction_coefficients(s):
    w = s.parse_state("e(-2;1) f(-1;0) vac") + s.tail("h").scaled(-3)
    as_fraction = StateVector({m: Fraction(c) for m, c in w.terms.items()})
    assert all(type(c) is int for c in w.terms.values())
    assert as_fraction == w and hash(as_fraction) == hash(w)
    assert state_to_json(s.spec, as_fraction) == state_to_json(s.spec, w)
    assert [t["coeff"] for t in state_to_json(s.spec, w)] == ["-3", "1"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2),
                          st.integers(-1, 1)), min_size=0, max_size=3))
def test_monomial_canonical_order(word):
    s = Session(sl2_spec(), 1, 1)
    state = s.monomial([(k, a, (m,)) for (k, a, m) in word])
    for mono in state.terms:
        keys = [(-k, a, m) for (k, a, m) in mono.word]
        assert keys == sorted(keys)
