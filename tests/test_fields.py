"""Field engine: locality, products, derivatives, the residue oracle."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from torva import (FieldSpace, LocalityError, ModeWindow, Session, SessionConfig, ShiftedModule,
                   SpecFormatError, run_suite)
from torva.axioms import expected_locality
from torva.states import ZERO_STATE

from conftest import CONFIG_DIR, abelian_spec, sl2_spec, small_window


@pytest.fixture(scope="module")
def s():
    return Session(sl2_spec(), 1, 1)


@pytest.fixture(scope="module")
def win(s):
    return small_window(s, extra_states=[s.parse_state("f(-1;0) vac")])


def currents(s):
    return {b: s.fields.current(b) for b in s.spec.basis}


def test_locality_orders_level1(s, win):
    cur = currents(s)
    fs = s.fields
    assert fs.locality_order(cur["e"], cur["f"], win) == 2
    assert fs.locality_order(cur["h"], cur["h"], win) == 2
    assert fs.locality_order(cur["h"], cur["e"], win) == 1
    assert fs.locality_order(cur["e"], cur["e"], win) == 0
    assert fs.locality_order(fs.identity(), cur["f"], win) == 0


def test_locality_orders_level0():
    s0 = Session(sl2_spec(), 1, 0)
    win0 = small_window(s0, extra_states=[s0.parse_state("f(-1;0) vac")])
    cur = currents(s0)
    assert s0.fields.locality_order(cur["e"], cur["f"], win0) <= 1
    assert s0.fields.locality_order(cur["h"], cur["h"], win0) == 0


def test_locality_minimality(s, win):
    # the reported order passes and the one below it fails somewhere
    cur = currents(s)
    fs = s.fields
    k = fs.locality_order(cur["e"], cur["f"], win)
    assert fs.locality_passes_at(cur["e"], cur["f"], k, win) is None
    assert fs.locality_passes_at(cur["e"], cur["f"], k + 1, win) is None
    assert fs.locality_passes_at(cur["e"], cur["f"], k - 1, win) is not None


def test_commutator_table_holds_one_pair():
    # once a pair's order is settled it is read from the locality table, so
    # its commutators are dropped; the lookup counters are kept
    s1 = Session(sl2_spec(), 1, 1)
    w1 = small_window(s1, extra_states=[s1.parse_state("f(-1;0) vac")])
    fs, cur = s1.fields, currents(s1)
    assert fs.locality_order(cur["e"], cur["f"], w1) == 2
    table = fs._comm_cache
    assert len(table) == 0 and table.misses > 0
    misses = table.misses
    assert fs.locality_order(cur["e"], cur["f"], w1) == 2
    assert table.misses == misses


@pytest.mark.parametrize("shifted", [False, True], ids=["vacuum", "shifted"])
def test_derivative_commutators_are_read_from_their_root(shifted):
    # [(D a)(p0,p), b(q0,q)] w read through a's commutator table, scaled and
    # shifted, equals the commutator of the handles' own evaluators at every
    # window tuple, those with p0 = 0 or some p_i = 0 (scale 0) included
    s2 = Session(sl2_spec(), 2, 1)
    mod = ShiftedModule(s2.module, (1, 0)) if shifted else s2.module
    fs = FieldSpace(mod)
    win2 = ModeWindow((-1, 2), [(-1, 1), (0, 1)], [s2.vacuum(), s2.parse_state("f(-1;0,0) vac")])
    a = fs.current("e")
    handles = [fs.derivative(i, a) for i in range(s2.r + 1)]
    handles += [fs.derivative(0, handles[0]), fs.derivative(2, handles[0])]
    assert [h.base for h in handles] == [(a, (0,)), (a, (1,)), (a, (2,)), (a, (0, 0)), (a, (2, 0))]
    nonzero = zero_scale = 0
    for d, b in itertools.product(handles, [fs.current(x) for x in s2.spec.basis]):
        for (p0, p), (q0, q) in itertools.product(win2.modes(), repeat=2):
            for w in win2.states:
                brute = d._eval(p0, p, b._eval(q0, q, w)) - b._eval(q0, q, d._eval(p0, p, w))
                assert fs.commutator(d, b, p0, p, q0, q, w) == brute, (d.label, b.label, p0, p)
                nonzero += bool(brute)
                zero_scale += p0 == 0 or 0 in p
    assert nonzero and zero_scale
    assert len(fs._comm_cache) == fs._comm_cache.misses > 0
    assert all(key[0] == a.key for key in fs._comm_cache._data)  # only the root's entries


def test_derivative_check_shares_one_table_per_pair_and_empties_it(monkeypatch):
    # a pair's derivative scans read the commutators its own scan stored, and
    # the table is empty once the check leaves the pair
    s1 = Session(sl2_spec(), 1, 1)
    fs, table = s1.fields, s1.fields._comm_cache
    at_scan, at_pair = [], []
    scan, derivative = fs.locality_passes_at, fs.derivative

    def counted_scan(a, b, k, window):
        at_scan.append((a.base is not None, len(table)))
        return scan(a, b, k, window)

    def counted_derivative(i, a):
        if i == 0:
            at_pair.append(len(table))
        return derivative(i, a)

    monkeypatch.setattr(fs, "locality_passes_at", counted_scan)
    monkeypatch.setattr(fs, "derivative", counted_derivative)
    assert run_suite(s1, small_window(s1), checks=["derivative"]).ok
    assert at_pair == [0] * 9 and len(table) == 0
    assert all(n > 0 for is_derivative, n in at_scan if is_derivative)
    assert sum(is_derivative for is_derivative, _ in at_scan) > 9


def test_mode_table_holds_product_modes_only():
    # a current's mode is one memoised module action and a derivative's is its
    # base's mode times an integer: neither is stored; a check's read of a
    # product is computed, not stored; a product read as a factor of another
    # product is stored once per mode and then hit
    s1 = Session(sl2_spec(), 1, 1)
    fs, cur, win1 = s1.fields, currents(s1), small_window(s1)
    w = s1.parse_state("f(-1;0) vac")
    table = fs._mode_cache
    assert fs.mode(cur["e"], 0, (0,), w) == s1.parse_state("h(-1;0) vac")
    assert fs.mode(fs.derivative(0, cur["e"]), 2, (0,), w) == s1.vacuum().scaled(-2)
    prod = fs.product(cur["e"], 0, (0,), cur["f"], window=win1)
    for _ in range(2):
        assert fs.mode(prod, -1, (0,), w) == fs.mode(cur["h"], -1, (0,), w)
    assert (len(table), table.hits, table.misses) == (0, 0, 0)
    outer = fs.product(prod, -1, (0,), cur["e"], window=win1)  # locality reads prod
    assert len(table) == table.misses > 0
    first = fs.mode(outer, -2, (0,), w)
    assert first and len(table) == table.misses
    stored, hits = len(table), table.hits
    assert fs.mode(outer, -2, (0,), w) == first
    assert len(table) == table.misses == stored and table.hits > hits
    assert {key[0] for key in table._data} == {prod.key}  # outer's own reads are not stored


def test_a_scan_on_its_own_keeps_the_verdicts_and_settling_empties_the_pair():
    # a scan run on its own gives the verdicts of one run inside
    # locality_order, and settling the order drops the pair's commutators
    s1 = Session(sl2_spec(), 1, 1)
    w1 = small_window(s1, extra_states=[s1.parse_state("f(-1;0) vac")])
    fs, cur = s1.fields, currents(s1)
    assert fs.locality_passes_at(cur["e"], cur["f"], 1, w1) is not None
    assert fs.locality_passes_at(cur["e"], cur["f"], 2, w1) is None
    assert len(fs._comm_cache) > 0
    assert fs.locality_order(cur["e"], cur["f"], w1) == 2
    assert len(fs._comm_cache) == 0


def test_current_mode_takes_any_multidegree_sequence(s):
    # FieldSpace.mode converts a sequence to the rank-r tuple that the
    # evaluators take, and refuses a wrong rank
    e, w = s.fields.current("e"), s.parse_state("f(-1;0) vac")
    for m0 in range(-2, 2):
        for m in range(-1, 2):
            assert s.fields.mode(e, m0, [m], w) == s.fields.mode(e, m0, (m,), w)
    assert s.fields.mode(e, 0, (0,), w) == s.parse_state("h(-1;0) vac")
    for bad in ((0, 0), [0, 0], ()):
        with pytest.raises(SpecFormatError):
            s.fields.mode(e, -1, bad, w)


def test_locality_bound_exceeded_raises(s, win):
    cur = currents(s)
    assert s.fields.locality_order(cur["e"], cur["f"], win, bound=1) is None
    tight = ModeWindow([win.m0_lo, win.m0_hi], win.m_box, win.states, locality_bound=1)
    with pytest.raises(LocalityError):
        s.fields.product(cur["e"], 0, (0,), cur["f"], window=tight)


def test_empty_window_rejected(s):
    from torva import SpecFormatError
    with pytest.raises(SpecFormatError):
        ModeWindow([1, 0], [[-1, 1]], [s.vacuum()])
    with pytest.raises(SpecFormatError):
        ModeWindow([0, 1], [[-1, 1]], [])


def test_product_table_modes(s, win):
    cur = currents(s)
    fs = s.fields
    vac = s.vacuum()
    p0 = fs.product(cur["e"], 0, (1,), cur["f"], window=win)
    # [e,f]-current: on the vacuum its (-1, n) mode creates h(-1, n)
    assert fs.mode(p0, -1, (0,), vac) == s.monomial([(1, "h", (0,))])
    p1 = fs.product(cur["e"], 1, (0,), cur["f"], window=win)
    assert fs.mode(p1, -1, (0,), vac) == vac  # level * <e,f> * identity
    assert fs.mode(p1, 0, (0,), vac).is_zero()
    p2 = fs.product(cur["e"], 2, (0,), cur["f"], window=win)
    for (k0, k) in win.modes():
        for w in win.states:
            assert fs.mode(p2, k0, k, w).is_zero()


def test_identity_products(s, win):
    fs = s.fields
    one = fs.identity()
    b = fs.current("f")
    for (m0, m) in win.modes():
        prod = fs.product(one, m0, m, b, window=win)
        for (k0, k) in win.modes():
            for w in win.states:
                got = fs.mode(prod, k0, k, w)
                want = fs.mode(b, k0, k, w) if (m0, m) == (-1, (0,)) else None
                if want is None:
                    assert got.is_zero()
                else:
                    assert got == want


def test_product_against_identity_vanishes_for_annihilation(s, win):
    fs = s.fields
    one = fs.identity()
    a = fs.current("e")
    for m0 in range(0, 3):
        prod = fs.product(a, m0, (0,), one, window=win)
        for (k0, k) in win.modes():
            for w in win.states:
                assert fs.mode(prod, k0, k, w).is_zero()


def test_oracle_equivalence_generators(s, win):
    fs = s.fields
    cur = currents(s)
    rng = random.Random(4)
    pairs = [(a, b) for a in cur for b in cur]
    for (a, b) in pairs:
        ha, hb = cur[a], cur[b]
        for (m0, m) in win.modes():
            prod = fs.product(ha, m0, m, hb, window=win)
            for (k0, k) in win.modes():
                w = rng.choice(win.states)
                assert fs.mode(prod, k0, k, w) == fs.residue_oracle_mode(ha, m0, m, hb, k0, k, w)


def test_oracle_equivalence_nested(s, win):
    fs = s.fields
    cur = currents(s)
    rng = random.Random(5)
    modes = list(win.modes())
    for _ in range(10):
        a, b, c = (cur[rng.choice("efh")] for _ in range(3))
        (m0, m) = rng.choice(modes)
        inner = fs.product(a, m0, m, b, window=win)
        (p0, p) = rng.choice(modes)
        outer = fs.product(inner, p0, p, c, window=win)
        for _ in range(5):
            (k0, k) = rng.choice(modes)
            w = rng.choice(win.states)
            assert fs.mode(outer, k0, k, w) == fs.residue_oracle_mode(inner, p0, p, c, k0, k, w)


def test_derivative_mode_rules(s, win):
    fs = s.fields
    a = fs.current("e")
    d0 = fs.derivative(0, a)
    d1 = fs.derivative(1, a)
    w = s.parse_state("f(-1;0) vac")
    for (n0, n) in win.modes():
        assert fs.mode(d0, n0, n, w) == fs.mode(a, n0 - 1, n, w).scaled(-n0)
        assert fs.mode(d1, n0, n, w) == fs.mode(a, n0, n, w).scaled(-n[0])
    dd = fs.derivative(0, fs.derivative(0, a))
    for (n0, n) in win.modes():
        assert fs.mode(dd, n0, n, w) == fs.mode(a, n0 - 2, n, w).scaled(n0 * (n0 - 1))


def test_derivative_of_identity_vanishes(s, win):
    fs = s.fields
    for i in (0, 1):
        d = fs.derivative(i, fs.identity())
        for (n0, n) in win.modes():
            for w in win.states:
                assert fs.mode(d, n0, n, w).is_zero()


def test_derivative_out_of_range(s):
    from torva import SpecFormatError
    with pytest.raises(SpecFormatError):
        s.fields.derivative(5, s.fields.current("e"))


def test_derivative_product_shifts(s, win):
    # first-slot rules through the product: (D0 a)_(m0,m) b = -m0 a_(m0-1,m) b
    fs = s.fields
    a, b = fs.current("e"), fs.current("f")
    for (m0, m) in [(0, (0,)), (1, (1,)), (-1, (0,)), (2, (-1,))]:
        lhs = fs.product(fs.derivative(0, a), m0, m, b, window=win)
        ref = fs.product(a, m0 - 1, m, b, window=win)
        for (k0, k) in win.modes():
            for w in win.states:
                assert fs.mode(lhs, k0, k, w) == fs.mode(ref, k0, k, w).scaled(-m0)
        lhs1 = fs.product(fs.derivative(1, a), m0, m, b, window=win)
        ref1 = fs.product(a, m0, m, b, window=win)
        for (k0, k) in win.modes():
            for w in win.states:
                assert fs.mode(lhs1, k0, k, w) == fs.mode(ref1, k0, k, w).scaled(-m[0])


def test_transfer_check_pass_and_fail(s, win):
    fs = s.fields
    a, b = fs.current("e"), fs.current("f")
    c0 = fs.linear_combination([(fs.current("h"), 1)])   # [e,f] = h
    c1 = fs.linear_combination([(fs.identity(), Fraction(1))])   # level * <e,f> = 1
    assert fs.transfer_check(a, b, [c0, c1], (0,), win) == []
    wrong = fs.linear_combination([(fs.identity(), Fraction(2))])
    fails = fs.transfer_check(a, b, [c0, wrong], (0,), win)
    assert fails and all(f["j"] == 1 for f in fails)


def test_transfer_check_abelian_trivial():
    s0 = Session(abelian_spec(), 1, 0)
    win0 = small_window(s0)
    fs = s0.fields
    a = fs.current("a")
    assert fs.transfer_check(a, a, [], (0,), win0) == []


def test_termination_guard():
    from torva import TerminationError
    tiny = Session(sl2_spec(), 1, 1, term_bound=1)
    win_t = small_window(tiny, extra_states=[tiny.parse_state("f(-1;0) e(-1;0) vac")])
    fs = tiny.fields
    prod = fs.product(fs.current("e"), -3, (0,), fs.current("f"), window=win_t)
    with pytest.raises(TerminationError):
        fs.mode(prod, -1, (0,), win_t.states[-1])


def test_generated_products_match_closed_forms(s):
    # at level 1 the (1, 0) product of e and f is the identity field: its
    # mode -1 reads every test state back
    win = ModeWindow([-1, 1], [[0, 0]], [s.vacuum(), s.tail("e"), s.tail("f")])
    cur = currents(s)
    fs = s.fields
    prod = fs.product(cur["e"], 1, (0,), cur["f"], window=win)
    for w in win.states:
        assert fs.mode(prod, -1, (0,), w) == w  # level <e,f> = 1


def test_field_space_over_the_shifted_module(s, win):
    # a field space takes any module of the protocol: over the twist of the
    # vacuum module the current-pair locality orders are the expected ones,
    # and product modes agree with the residue oracle
    fs = FieldSpace(ShiftedModule(s.module, (1,)))
    cur = {b: fs.current(b) for b in s.spec.basis}
    assert fs.locality_order(cur["e"], cur["f"], win) == 2
    for a in s.spec.basis:
        for b in s.spec.basis:
            k = fs.locality_order(cur[a], cur[b], win)
            kind, val = expected_locality(s, a, b)
            assert (k == val) if kind == "exact" else (k <= val), (a, b, k)
    rng = random.Random(5)
    modes = list(win.modes())
    for a, b in (("e", "f"), ("h", "e"), ("f", "h")):
        for _ in range(3):
            (m0, m), (k0, k) = rng.choice(modes), rng.choice(modes)
            w = rng.choice(win.states)
            prod = fs.product(cur[a], m0, m, cur[b], window=win)
            assert (fs.mode(prod, k0, k, w)
                    == fs.residue_oracle_mode(cur[a], m0, m, cur[b], k0, k, w)), (a, b, m0, m, k0, k)


def test_every_handle_kind_keeps_its_witness(s, win):
    # FieldSpace.mode reads a handle's modes straight from its evaluator, so
    # each evaluator returns ZERO_STATE itself past witness(h, w) and on the
    # zero state; inside the witness it agrees with a path of its own
    fs, act = s.fields, s.module.act
    e, f, h, one = fs.current("e"), fs.current("f"), fs.current("h"), fs.identity()
    ef = s.product(s.tail("e"), -1, (0,), s.tail("f"))
    kinds = {
        "current": (e, lambda n0, n, w: act("e", n0, n, w)),
        "identity": (one, lambda n0, n, w: w if (n0, n) == (-1, (0,)) else ZERO_STATE),
        "linear_combination": (
            fs.linear_combination([(e, 2), (one, Fraction(1, 2)), (h, -1)]),
            lambda n0, n, w: (act("e", n0, n, w).scaled(2) - act("h", n0, n, w)
                              + (w.scaled(Fraction(1, 2)) if (n0, n) == (-1, (0,))
                                 else ZERO_STATE))),
        "empty linear_combination": (fs.linear_combination([]), lambda n0, n, w: ZERO_STATE),
        "derivative 0": (fs.derivative(0, e),
                         lambda n0, n, w: act("e", n0 - 1, n, w).scaled(-n0)),
        "derivative 1": (fs.derivative(1, f), lambda n0, n, w: act("f", n0, n, w).scaled(-n[0])),
        "product": (fs.product(e, 0, (1,), f, window=win),
                    lambda n0, n, w: fs.residue_oracle_mode(e, 0, (1,), f, n0, n, w)),
        "field_of a tail sum": (s.field_of(s.tail("e") + s.tail("h").scaled(3)),
                                lambda n0, n, w: act("e", n0, n, w) + act("h", n0, n, w).scaled(3)),
        "field_of a product": (s.field_of(ef),
                               lambda n0, n, w: fs.residue_oracle_mode(e, -1, (0,), f, n0, n, w)),
        "field_of zero": (s.field_of(ZERO_STATE), lambda n0, n, w: ZERO_STATE),
    }
    for kind, (handle, independent) in kinds.items():
        for n in win.m_values():
            for k0 in range(-5, 6):
                assert fs.mode(handle, k0, n, ZERO_STATE) is ZERO_STATE, (kind, k0, n)
            for w in win.states:
                top = fs.witness(handle, w)
                for k0 in range(top + 1, top + 4):
                    assert fs.mode(handle, k0, n, w) is ZERO_STATE, (kind, k0, n)
                for k0 in range(win.m0_lo - 1, top + 1):
                    assert fs.mode(handle, k0, n, w) == independent(k0, n, w), (kind, k0, n)
    # the entry converts a sequence and refuses a wrong rank
    w = s.parse_state("f(-1;0) vac")
    for handle in (e, fs.derivative(0, e)):
        for k0 in range(-2, 2):
            assert fs.mode(handle, k0, [1], w) == fs.mode(handle, k0, (1,), w)
        with pytest.raises(SpecFormatError):
            fs.mode(handle, 1, [0, 0], w)


def test_one_multidegree_rule_at_every_field_entry(s, win):
    # a multidegree is converted and checked once, where it enters the field
    # space, by the config's integer rule; the evaluators take the tuple
    fs = s.fields
    e, f, one = fs.current("e"), fs.current("f"), fs.identity()
    w = s.parse_state("f(-1;0) vac")
    assert fs.mode(one, -1, [0], w) == fs.mode(one, -1, (0,), w) == w
    prod = fs.product(e, 0, (1,), f, window=win)
    for k0 in range(-2, 2):
        assert fs.mode(prod, k0, [1], w) == fs.mode(prod, k0, (1,), w)
    assert fs.mode(e, -1, [1.0], w) == fs.mode(e, -1, (1,), w)
    assert fs.commutator(e, f, 0, [0], 0, [1], w) == fs.commutator(e, f, 0, (0,), 0, (1,), w)
    for bad in ((), [0.5], ["1"], [True]):
        for handle in (e, fs.derivative(0, e), fs.derivative(1, e), prod):
            with pytest.raises(SpecFormatError):
                fs.mode(handle, 1, bad, w)
    wrong_rank = {
        "product": lambda: fs.product(e, 0, (0, 0), f, window=win),
        "residue_oracle_mode m": lambda: fs.residue_oracle_mode(e, 0, (0, 0), f, 0, (0,), w),
        "residue_oracle_mode k": lambda: fs.residue_oracle_mode(e, 0, (0,), f, 0, [0, 0], w),
        "transfer_check": lambda: fs.transfer_check(e, f, [], (0, 0), win),
        "commutator p": lambda: fs.commutator(e, f, 0, (0, 0), 0, (0,), w),
        "commutator q": lambda: fs.commutator(e, f, 0, (0,), 0, [0.5], w),
    }
    tables = (s.module._act_cache, fs._mode_cache, fs._comm_cache)
    for entry, call in wrong_rank.items():
        lookups = [t.hits + t.misses for t in tables]
        with pytest.raises(SpecFormatError):
            call()
        assert [t.hits + t.misses for t in tables] == lookups, entry  # refused at the entry


def test_memo_counters_are_pinned_after_locality_and_derivative():
    # the hot paths read the action, product-mode and other tables in place;
    # every lookup is still counted once, as a hit or a miss; a canonical
    # word and a check's read of a product make no lookup at all; a creation
    # makes no action-table lookup, and its rewrite reads the word table
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    tables = {"act": session.module._act_cache, "word": session.module._word_cache,
              "mode": session.fields._mode_cache, "comm": session.fields._comm_cache,
              "vm": session._vm_cache, "vm_state": session._vm_state_cache}
    want = {
        "locality": {"act": (6208, 1578), "word": (907, 253), "mode": (0, 0),
                     "comm": (1930, 4263), "vm": (0, 0), "vm_state": (0, 0)},
        "derivative": {"act": (55857, 2928), "word": (4077, 506), "mode": (0, 0),
                       "comm": (7739, 9327), "vm": (0, 0), "vm_state": (0, 0)},
    }
    for group, counts in want.items():
        assert run_suite(session, win, seed=cfg.seed, checks=[group],
                         samples=cfg.samples).ok
        assert {name: (t.hits, t.misses) for name, t in tables.items()} == counts, group
