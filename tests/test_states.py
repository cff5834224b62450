"""Vacuum module: base action, mode action, grading, normal ordering."""

import hashlib
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torva import Session, SessionConfig, echelonize, state_from_json, state_to_json
from torva.axioms import run_suite, sample_state, sample_toroidal
from torva.states import (Memo, PBWMonomial, ShiftedModule, StateVector, VACUUM_MONO, ZERO_STATE,
                          _accumulate, _mode_key)

from conftest import CONFIG_DIR, forget_memos, sl2_spec


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
        n0w = w.max_degree()
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
    for mod in (s.module, ShiftedModule(s.module, (1,))):
        rng = random.Random(2)
        for _ in range(40):
            x = sample_toroidal(s, rng, 2)
            y = sample_toroidal(s, rng, 2)
            w = (s.monomial([(1, "e", (rng.randrange(-1, 2),))]) if rng.random() < 0.5
                 else s.tail("f"))
            lhs = mod.act_elem(x, mod.act_elem(y, w)) - mod.act_elem(y, mod.act_elem(x, w))
            rhs = mod.act_elem(s.algebra.bracket(x, y), w)
            assert lhs == rhs, mod.key


def test_shifted_act_index_is_the_twisted_base_action(s):
    # the twist moves the acting mode only, through the base module's tables
    mod = ShiftedModule(s.module, (1,))
    assert not hasattr(mod, "_act_cache") and not hasattr(mod, "_word_cache")
    states = [s.vacuum(), s.tail("e"), s.parse_state("f(-1;0) vac")]
    for a, label in enumerate(s.spec.basis):
        for n0 in range(-2, 3):
            for n in range(-1, 2):
                for w in states:
                    got = mod.act_index(a, n0, (n,), w)
                    assert got == mod.act(label, n0, [n], w)
                    assert got == s.module.act_index(a, n0, (n + n0,), w)


def test_act_elem_rejects_derivations(s):
    from torva import ToroidalElement
    d = ToroidalElement.derivation(1, 0)
    with pytest.raises(ValueError):
        s.module.act_elem(d, s.vacuum())


def test_central_acts_as_level():
    s2 = Session(sl2_spec(), 1, Fraction(-2))
    from torva import ToroidalElement
    c = ToroidalElement(1, central=1)
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
    plain = forget_memos(Session(sl2_spec(), 1, 1))
    cached = Session(sl2_spec(), 1, 1)
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
    assert len(plain.module._act_cache) == 0 and plain.module._act_cache.misses > 0
    assert len(cached.module._act_cache) > 0


def test_word_table_holds_rewrites_only():
    # a canonical word is its own form and makes no lookup; a rewrite is
    # stored once and hit when read again; the forms of 300 random words
    # hash as they did when every word was stored
    sess = Session(sl2_spec(), 1, 1)
    mod, table = sess.module, sess.module._word_cache
    e, f = sess.spec.index_of("e"), sess.spec.index_of("f")
    canonical = ((2, f, (0,)), (1, e, (1,)), (1, f, (-1,)))
    assert mod._normalize_word(canonical) == {canonical: 1}
    assert (len(table), table.hits, table.misses) == (0, 0, 0)
    rewrite = ((1, f, (0,)), (1, e, (0,)))
    form = mod._normalize_word(rewrite)
    assert rewrite not in form and (len(table), table.hits, table.misses) == (1, 0, 1)
    assert mod._normalize_word(rewrite) is form
    assert (len(table), table.hits, table.misses) == (1, 1, 1)
    rng = random.Random(23)
    blob = []
    for _ in range(300):
        word = tuple((rng.randrange(1, 4), rng.randrange(3), (rng.randrange(-1, 2),))
                     for _ in range(rng.randrange(1, 5)))
        out = mod._normalize_word(word)
        blob.append(repr(word) + ":" + repr(sorted((w, str(c)) for w, c in out.items())))
    assert hashlib.sha256("\n".join(blob).encode()).hexdigest()[:16] == "b12f388e862b3876"
    assert len(table) == 163


def test_memo_counters():
    memo = Memo()
    assert memo.get("a") is None
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1 and memo.get("b") == 2
    memo.empty()                # the entries go, the counters stay
    assert memo.get("a") is None
    memo.put("c", 3)
    assert memo.get("c") == 3
    assert (memo.hits, memo.misses, len(memo)) == (3, 2, 1)


def test_memo_empty_counts_what_it_drops():
    memo = Memo()
    memo.empty()
    assert memo.emptied == 0
    for key in "abc":
        memo.put(key, 1)
    memo.empty()
    memo.put("d", 2)
    memo.empty()
    memo.empty()
    assert (memo.emptied, len(memo), memo.hits, memo.misses) == (4, 0, 0, 0)


def test_act_on_one_term_matches_general_path(s):
    mono, = s.parse_state("e(-2;1) f(-1;0) vac").terms
    e = s.spec.index_of("e")
    for c in (1, -2, Fraction(1, 3)):
        for n0 in range(-2, 4):
            general = {}
            _accumulate(general, s.module._act_mono(e, n0, (1,), mono), c)
            assert s.module.act("e", n0, (1,), StateVector.of(mono, c)) == StateVector(general)


_MONOS = ([PBWMonomial((), t) for t in (None, 0, 1, 2)]
          + [PBWMonomial(((k, a, (m,)),), None)
             for k in (1, 2) for a in range(3) for m in (-1, 0, 1)])
_COEFFS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))
_STATES = st.dictionaries(st.sampled_from(_MONOS), _COEFFS, max_size=6).map(StateVector)


@settings(max_examples=200, deadline=None)
@given(_STATES, _STATES)
def test_subtraction_matches_adding_the_negative(a, b):
    diff = a - b
    assert diff == a + b.scaled(-1)
    assert diff + b == a
    assert a - a == ZERO_STATE
    for state in (diff, diff + b, a + b.scaled(-1), a - a):
        assert all(c != 0 for c in state.terms.values())


def test_adopt_keeps_the_dict(s):
    acc = {}
    _accumulate(acc, s.parse_state("e(-2;1) f(-1;0) vac") + s.tail("h"), Fraction(1, 2))
    state = StateVector.adopt(acc)
    assert state.terms is acc
    assert state == StateVector(dict(acc)) and hash(state) == hash(StateVector(dict(acc)))
    assert state.max_degree() == 3


def test_scaled_fast_paths(s):
    w = s.parse_state("e(-2;1) f(-1;0) vac") + s.tail("h")
    assert w.scaled(1) is w and w.scaled(Fraction(1)) is w
    for c in (-2, Fraction(1, 3)):
        assert w.scaled(c).terms == {m: x * c for m, x in w.terms.items()}
        assert w.scaled(c).scaled(Fraction(1) / c) == w
    # the top degree is the same whether or not it was read before scaling
    before = w.scaled(-2)
    assert w.max_degree() == 3
    assert w.scaled(-2).max_degree() == before.max_degree() == 3
    assert w.scaled(0) is ZERO_STATE


def test_monomials_are_interned(s):
    word = ((2, 0, (1,)), (1, 1, (0,)))
    assert PBWMonomial(word, None) is PBWMonomial(word, None)
    assert PBWMonomial(word, 2) is not PBWMonomial(word, None)
    mono, = s.parse_state("e(-2;1) f(-1;0) vac").terms
    assert mono is PBWMonomial(mono.word, mono.tail)
    # the table is keyed per tail by word: an equal word built apart gives one
    # object for each tail, and the empty word on no tail is the vacuum
    for w in [(), word]:
        monos = [PBWMonomial(w, t) for t in (None, 0, 2)]
        assert all(PBWMonomial(tuple(list(w)), t) is mono and mono.word == w and mono.tail == t
                   for t, mono in zip((None, 0, 2), monos))
        assert len(set(monos)) == 3
    assert PBWMonomial((), None) is VACUUM_MONO
    # equality is identity, so the hash is object's, computed without a Python call
    assert PBWMonomial.__hash__ is object.__hash__ and PBWMonomial.__eq__ is object.__eq__


def test_create_matches_act_index_on_creation_modes():
    # the creation helper is the creation branch of the action, unstored
    rng = random.Random(24)
    s = Session(sl2_spec(), 2, 1)
    mod = s.module

    def mode():
        return rng.randrange(1, 4), rng.randrange(3), (rng.randrange(-1, 2), rng.randrange(-1, 2))

    for _ in range(60):
        word = [mode() for _ in range(rng.randrange(4))]
        for mono in s.monomial(word, rng.choice([None, "e", "f", "h"])).terms:
            k, a, m = new = mode()
            entries = len(mod._act_cache)
            got = mod.create(new, mono)
            assert len(mod._act_cache) == entries
            assert got == mod.act_index(a, -k, m, StateVector.of(mono))


def test_create_returns_a_fresh_state_not_the_stored_unit():
    # a table stores 1·mono as the monomial's one unit state, which the
    # creation read returns; create stores nothing, so a chain state it
    # builds is freed with its holder
    s = Session(sl2_spec(), 1, 1)
    e = s.spec.index_of("e")
    mono = PBWMonomial(((1, e, (0,)),), None)
    stored = Memo().store("key", StateVector.of(mono))
    assert stored is mono.unit
    assert s.module.act_index(e, -1, (0,), s.module.vacuum()) is stored
    fresh = s.module.create((1, e, (0,)), VACUUM_MONO)
    assert fresh == stored and fresh is not mono.unit and mono.unit is stored


def test_memo_tables_store_one_zero_and_one_unit_state_per_monomial(monkeypatch):
    # the six groups of the suite-r2 benchmark, on the r1 config: every value
    # in the five state tables, read after each group and before each
    # emptying, is ZERO_STATE itself when zero and its monomial's one unit
    # state when 1·mono; and no caller changes a shared state's terms
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    tables = [session.module._act_cache, session.fields._mode_cache,
              session.fields._comm_cache, session._vm_cache, session._vm_state_cache]
    units, zeros = {}, [0]

    def check(table):
        for v in table._data.values():
            if not v.terms:
                assert v is ZERO_STATE
                zeros[0] += 1
            elif len(v.terms) == 1:
                (mono, c), = v.terms.items()
                if c == 1:
                    assert v is mono.unit and units.setdefault(mono, v) is v

    empty = Memo.empty

    def checked_empty(self):
        if any(self is t for t in tables):
            check(self)
        empty(self)

    monkeypatch.setattr(Memo, "empty", checked_empty)
    for group in ["table", "locality", "derivative", "transfer", "skew", "module-variant"]:
        assert run_suite(session, win, seed=cfg.seed, checks=[group], samples=cfg.samples).ok
        for table in tables:
            check(table)
    assert zeros[0] and units
    assert ZERO_STATE.terms == {}
    assert all(u.terms == {mono: 1} for mono, u in units.items())
    # echelonize copies a row before it changes it, so shared inputs survive
    some = list(units.values())[:40]
    rows = some + [u + v for u, v in zip(some, some[1:])]
    assert len(echelonize(rows)) == len(some)
    assert all(u.terms == {mono: 1} for mono, u in units.items())


def test_action_table_holds_annihilations_only():
    # the six groups of the suite-r2 benchmark, on the r1 config: the action
    # table stores annihilation results only; a creation is read, a canonical
    # prepend from the intern table (leaving every table and ``unit`` as they
    # were) and a rewrite through create and the word table
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    mod = session.module
    for group in ["table", "locality", "derivative", "transfer", "skew", "module-variant"]:
        assert run_suite(session, win, seed=cfg.seed, checks=[group], samples=cfg.samples).ok
    assert len(mod._act_cache) and all(n0 >= 0 for (_, n0, _, _) in mod._act_cache._data)
    tables = [mod._act_cache, mod._word_cache, session.fields._mode_cache,
              session.fields._comm_cache, session._vm_cache, session._vm_state_cache]
    rng = random.Random(26)
    states = list(win.states) + [sample_state(session, rng, win) for _ in range(20)]
    letters = [(n0, a, n) for n0 in win.m0_values() if n0 <= -1
               for a in range(session.spec.dim) for n in win.m_values()]
    kinds = {True: 0, False: 0}
    for state in states:
        for mono, c in state.terms.items():
            for n0, a, n in letters:
                letter = (-n0, a, n)
                canonical = not mono.word or _mode_key(letter) <= _mode_key(mono.word[0])
                kinds[canonical] += 1
                sizes = [len(t) for t in tables]
                known = PBWMonomial._interned[mono.tail].get((letter,) + mono.word)
                unit = known and known.unit
                got = mod.act_index(a, n0, n, StateVector.of(mono, c))
                if canonical:
                    assert [len(t) for t in tables] == sizes
                    new = PBWMonomial((letter,) + mono.word, mono.tail)
                    assert got.terms == {new: c} and new.unit is unit
                    assert unit is None or c != 1 or got is unit
                assert got == mod.create(letter, mono).scaled(c)
    assert kinds[True] and kinds[False]


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
