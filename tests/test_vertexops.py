"""Vertex operators on states, the vacuum ideal, one-variable collapse."""

import os
import random
from fractions import Fraction

import pytest

from torva import Session, echelonize, loop_affine_graded_dims
from torva.states import PBWMonomial, ShiftedModule, StateVector

from conftest import CONFIG_DIR, sl2_spec, small_window


@pytest.fixture(scope="module")
def s():
    return Session(sl2_spec(), 1, 1)


@pytest.fixture(scope="module")
def win(s):
    return small_window(s, extra_states=[s.parse_state("f(-1;0) vac")])


def test_vertex_mode_of_cyclic_vector(s, win):
    one = s.vacuum()
    for (n0, n) in win.modes():
        for w in win.states:
            got = s.vertex_mode(one, n0, n, w)
            if (n0, n) == (-1, (0,)):
                assert got == w
            else:
                assert got.is_zero()


def test_vertex_mode_of_tail_is_current(s, win):
    for b in s.spec.basis:
        u = s.tail(b)
        for (n0, n) in win.modes():
            for w in win.states:
                assert s.vertex_mode(u, n0, n, w) == s.module.act(b, n0, n, w)


def test_vertex_mode_depth1_is_shifted_current(s, win):
    # the operator of e(-1,m)1 lives at toroidal degree m and is the current slice
    m = (1,)
    u = s.product(s.tail("e"), -1, m, s.vacuum())
    for (n0, n) in win.modes():
        for w in win.states:
            got = s.vertex_mode(u, n0, n, w)
            if n == m:
                assert got == s.module.act("e", n0, m, w)
            else:
                assert got.is_zero()


def test_vertex_mode_table_stores_word_states_only():
    # a word-less monomial's mode is the identity or the module's action,
    # whose own table holds it; only the modes of word states are stored
    s1 = Session(sl2_spec(), 1, 1)
    w1 = small_window(s1, extra_states=[s1.parse_state("f(-1;0) vac")])
    states = [s1.vacuum(), s1.tail("e"), s1.tail("e") + s1.tail("h").scaled(2),
              s1.parse_state("e(-1;1) f(-1;0) h"), s1.parse_state("h(-2;0) vac")]
    for v in states:
        for (n0, n) in w1.modes():
            for w in w1.states:
                s1.vertex_mode(v, n0, n, w)
    monos = [key[1] for key in s1._vm_cache._data]
    assert monos and all(mono.word for mono in monos)


def test_product_generator_table_all_levels():
    for level in (0, 1, -2):
        s = Session(sl2_spec(), 1, level)
        for a in s.spec.basis:
            for b in s.spec.basis:
                for m in [(-2,), (0,), (1,)]:
                    for m0 in range(0, 5):
                        got = s.product(s.tail(a), m0, m, s.tail(b))
                        assert got == s.expected_generator_product(a, m0, b)


def test_product_annihilates_vacuum(s, win):
    for u in [s.tail("e"), s.parse_state("e(-1;1) f(-2;0) vac")]:
        for k in range(0, 4):
            for m in [(-1,), (0,), (1,)]:
                assert s.product(u, k, m, s.vacuum()).is_zero()


def test_creation_failures_empty(s, win):
    assert s.creation_failures(s.tail("e"), win) == []
    assert s.creation_failures(s.parse_state("e(-2;1) f(-1;0) vac"), win) == []


def test_field_engine_vertexops_agreement(s, win):
    # state-level products match field-level products mode by mode
    fs = s.fields
    rng = random.Random(6)
    for a in s.spec.basis:
        for b in s.spec.basis:
            ha, hb = fs.current(a), fs.current(b)
            for (m0, m) in [(-2, (1,)), (-1, (0,)), (0, (1,)), (1, (0,)), (2, (-1,))]:
                u = s.product(s.tail(a), m0, m, s.tail(b))
                handle = fs.product(ha, m0, m, hb, window=win)
                for _ in range(4):
                    (k0, k) = rng.choice(list(win.modes()))
                    w = rng.choice(win.states)
                    assert s.vertex_mode(u, k0, k, w) == fs.mode(handle, k0, k, w)


def test_nested_products_agree_across_layers(s, win):
    # u = a_(m0,m) b as a state, then u_(p0,p) c, against the corresponding
    # nested field products: the two layers must compute the same modes
    fs = s.fields
    rng = random.Random(10)
    modes = list(win.modes())
    for _ in range(8):
        a, b, c = (rng.choice(s.spec.basis) for _ in range(3))
        (m0, m) = rng.choice(modes)
        (p0, p) = rng.choice(modes)
        u_state = s.product(s.tail(a), m0, m, s.tail(b))
        x_state = s.product(u_state, p0, p, s.tail(c))
        u_handle = fs.product(fs.current(a), m0, m, fs.current(b), window=win)
        x_handle = fs.product(u_handle, p0, p, fs.current(c), window=win)
        for _ in range(5):
            (k0, k) = rng.choice(modes)
            w = rng.choice(win.states)
            assert s.vertex_mode(x_state, k0, k, w) == fs.mode(x_handle, k0, k, w), \
                (a, b, c, m0, m, p0, p, k0, k)


def test_oracle_only_tower_matches_vertex_modes(s, win):
    # evaluate depth-2 states entirely through the brute-force residue oracle
    # (both product levels), never the production recursion, and compare
    from torva.fields import FieldHandle
    fs = s.fields

    def oracle_handle(a, m0, m, b):
        h = FieldHandle(("oracle-prod", a.key, m0, m, b.key),
                        m0 + a.t0_offset + b.t0_offset, None, "oracle")
        h._eval = lambda k0, k, w: fs.residue_oracle_mode(a, m0, m, b, k0, k, w)
        return h

    rng = random.Random(9)
    for _ in range(6):
        a, b = rng.choice(s.spec.basis), rng.choice(s.spec.basis)
        k1, k2 = rng.randrange(1, 3), rng.randrange(1, 3)
        m1 = (rng.randrange(-1, 2),)
        m2 = (rng.randrange(-1, 2),)
        u = s.monomial([(k1, a, m1), (k2, b, m2)])
        inner = oracle_handle(fs.current(b), -k2, m2, fs.identity())
        tower = oracle_handle(fs.current(a), -k1, m1, inner)
        for _ in range(6):
            (n0, n) = rng.choice(list(win.modes()))
            w = rng.choice(win.states)
            assert s.vertex_mode(u, n0, n, w) == fs.mode(tower, n0, n, w), \
                (a, k1, m1, b, k2, m2, n0, n)


def test_vertex_mode_restrictedness(s):
    w = s.parse_state("e(-1;0) f(-1;1) vac")
    u = s.parse_state("h(-2;0) vac")
    hi = w.max_degree() + u.max_degree() - 1  # vertex_mode(u, n0, ., w) = 0 beyond
    for n0 in range(hi + 1, hi + 4):
        for n in [(-1,), (0,), (1,)]:
            assert s.vertex_mode(u, n0, n, w).is_zero()


def test_support_and_ordinary_mode(s, win):
    m = (1,)
    u = s.product(s.tail("e"), -1, m, s.vacuum())
    assert s.support(u) == {m}
    for w in win.states:
        for n0 in range(-2, 3):
            assert s.ordinary_mode(u, n0, w) == s.module.act("e", n0, m, w)
    with pytest.raises(ValueError):
        s.support(s.tail("e"))


def test_support_additivity_depth2(s, win):
    u = s.parse_state("e(-1;1) f(-2;-1) vac")
    assert s.support(u) == {(0,)}
    u2 = s.parse_state("e(-1;1) f(-2;1) vac")
    assert s.support(u2) == {(2,)}
    assert s.homogeneous_support_failures(u2, win) == []


def test_vacuum_monomial_support_is_zero_index(s):
    assert s.support(s.vacuum()) == {(0,)}


def test_ideal_dims_match_independent_count(s):
    win = small_window(s)
    ideal = s.build_vacuum_ideal(3, win)
    box = 3  # m in [-1,1]
    counts = loop_affine_graded_dims(lambda k: 3 * box if k <= 2 else 0, 3)
    for d in range(4):
        assert ideal.graded_dims.get(d, 0) == counts[d]
    assert ideal.tail_free()


def test_ideal_spanning_matches_chains_applied_from_vacuum(s):
    # each chain is built from its suffix; the reference applies every chain
    # from the vacuum, one mode at a time, as the construction did before
    win = small_window(s)
    ideal = s.build_vacuum_ideal(3, win)
    modes = sorted(((-m0, a, m) for m0 in win.m0_values() if m0 <= -1
                    for a in range(s.spec.dim) for m in win.m_values()),
                   key=lambda t: (-t[0], t[1], t[2]))
    chains, ref = [()], [(s.vacuum(), "1")]
    for _ in range(3):
        chains = [c + (mode,) for c in chains
                  for mode in modes[(modes.index(c[-1]) if c else 0):]]
        for chain in chains:
            st = s.vacuum()
            for (k, a, m) in reversed(chain):
                st = s.module.act(a, -k, m, st)
            label = " ".join(f"{s.spec.basis[a]}(-{k};{','.join(map(str, m))})"
                             for (k, a, m) in chain) + " 1"
            ref.append((st, label))
    assert len(ideal.spanning) == len(ref) == 1 + 18 + 171 + 1140
    for i, (st, (want_st, want_label)) in enumerate(zip(ideal.spanning, ref)):
        label = s.chain_label(st)
        assert label == want_label, i
        assert st == want_st, label


def in_span(ideal, *states):
    # the states lie in the echelon span when adding them leaves the rank unchanged
    return len(echelonize(ideal.basis + list(states))) == len(ideal.basis)


def test_ideal_contains_and_tail_exclusion(s):
    win = small_window(s)
    ideal = s.build_vacuum_ideal(2, win)
    assert in_span(ideal, s.vacuum())
    assert in_span(ideal, s.parse_state("e(-1;0) vac"))
    assert in_span(ideal, s.parse_state("e(-1;1) f(-1;0) vac").scaled(Fraction(2, 3)))
    assert not in_span(ideal, s.tail("e"))
    assert not in_span(ideal, s.parse_state("e(-1;0) vac") + s.tail("h"))
    # no tail enters the ideal: every spanning state and every basis lead is tail-free
    assert ideal.tail_free()
    assert all(min(b.terms, key=PBWMonomial.sort_key).tail is None for b in ideal.basis)


def test_ideal_closed_under_window_modes(s):
    win = small_window(s)
    ideal = s.build_vacuum_ideal(3, win)
    rng = random.Random(7)
    members = [st for st in ideal.spanning if st and st.max_degree() <= 2]
    images = []
    for _ in range(20):
        u = rng.choice(members)
        a = rng.choice(s.spec.basis)
        (m0, m) = rng.choice(list(win.modes()))
        img = s.module.act(a, m0, m, u)
        assert img.is_tail_free()
        if img and img.max_degree() <= 3 and all(
                mz[2][0] in range(-1, 2) for mono in img.terms for mz in mono.word):
            images.append(img)
    assert images and in_span(ideal, *images)


def test_echelonize_basics(s):
    a = s.parse_state("e(-1;0) vac")
    b = s.parse_state("f(-1;0) vac")
    rows = echelonize([a, a + b, b, a - b])
    assert len(rows) == 2
    rows2 = echelonize([a.scaled(3), b.scaled(Fraction(1, 2)) + a])
    assert len(rows2) == 2
    lead_coeffs = [min(r.terms.values(), key=abs) for r in rows2]
    for r in rows2:
        lead = min(r.terms, key=lambda mo: mo.sort_key())
        assert r.terms[lead] == 1


def test_echelonize_integer_rows_exact(s):
    a = s.parse_state("e(-1;0) vac")
    b = s.parse_state("f(-1;0) vac")
    c = s.parse_state("e(-1;1) f(-1;0) vac")
    rows = echelonize([a.scaled(3), (b + c).scaled(-2), a.scaled(6) + c.scaled(4)])
    assert len(rows) == 3
    for r in rows:
        lead = min(r.terms, key=lambda mo: mo.sort_key())
        assert r.terms[lead] == 1
        assert all(isinstance(v, (int, Fraction)) for v in r.terms.values())
    # a pivot of 3 divides exactly: (3a + 2b) / 3 keeps the coefficient 2/3
    (row,) = echelonize([a.scaled(3) + b.scaled(2)])
    assert sorted(row.terms.values()) == [Fraction(2, 3), 1]


def _lead_key(st):
    return min(st.terms, key=lambda mo: mo.sort_key()).sort_key()


def test_echelonize_unit_leads_stay_integer(s):
    monos = [s.parse_state(x) for x in ("e(-1;0) vac", "f(-1;0) vac", "h(-1;1) vac",
                                        "e(-1;1) f(-1;0) vac", "e(-2;0) vac")]
    rows = echelonize(monos)
    assert sorted(rows, key=_lead_key) == sorted(monos, key=_lead_key)
    for r in rows:
        assert all(type(v) is int for v in r.terms.values()), r.terms


def test_echelonize_clears_older_leads(s):
    a, b = sorted([s.parse_state("e(-1;0) vac"), s.parse_state("f(-1;0) vac")], key=_lead_key)
    assert echelonize([b, a + b]) == [a, b]


def _rref_reference(rows, cols):
    """Dense Gauss-Jordan over Fraction, pivot columns taken left to right."""
    m = [[Fraction(r.terms.get(c, 0)) for c in cols] for r in rows]
    out, start = [], 0
    for j in range(len(cols)):
        p = next((i for i in range(start, len(m)) if m[i][j]), None)
        if p is None:
            continue
        m[start], m[p] = m[p], m[start]
        m[start] = [v / m[start][j] for v in m[start]]
        for i in range(len(m)):
            if i != start and m[i][j]:
                f = m[i][j]
                m[i] = [v - f * w for v, w in zip(m[i], m[start])]
        start += 1
    return m[:start]


def test_echelonize_matches_dense_reference():
    rng = random.Random(20261018)
    cols = sorted({PBWMonomial(((k, a, (m,)),), None)
                   for k in (1, 2) for a in range(3) for m in (-1, 0)}
                  | {PBWMonomial((), t) for t in (None, 0, 2)}, key=PBWMonomial.sort_key)
    coeffs = [-3, -1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]
    for _ in range(60):
        rows = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.random()
            if rows and kind < 0.2:
                rows.append(rng.choice(rows))                    # duplicate
            elif len(rows) > 1 and kind < 0.4:
                u, v = rng.sample(rows, 2)                       # dependent
                rows.append(u.scaled(rng.choice(coeffs)) + v.scaled(rng.choice(coeffs)))
            else:
                support = rng.sample(cols, rng.randrange(1, 5))
                rows.append(StateVector({mo: rng.choice(coeffs) for mo in support}))
        got = echelonize(rows)
        want = [StateVector(dict(zip(cols, r))) for r in _rref_reference(rows, cols)]
        assert got == want
        for r in got:
            assert all(type(v) in (int, Fraction) for v in r.terms.values())


def test_echelonize_changes_no_input_and_returns_unreduced_rows_themselves():
    # rows with eliminations and leads other than 1 against the dense
    # reference; no input's terms change, and a row that no step changes
    # (its reduced form equals it, and no earlier input holds its lead) is
    # returned as the input state itself
    rng = random.Random(20261020)
    cols = sorted({PBWMonomial(((k, a, (m,)),), None)
                   for k in (1, 2) for a in range(3) for m in (-1, 0)}
                  | {PBWMonomial((), t) for t in (None, 0, 2)}, key=PBWMonomial.sort_key)
    coeffs = [1, 1, 1, -3, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    kept = 0
    for _ in range(400):
        rows = []
        for _ in range(rng.randrange(1, 8)):
            kind = rng.random()
            if rows and kind < 0.15:
                rows.append(rng.choice(rows))                    # duplicate
            elif len(rows) > 1 and kind < 0.35:
                u, v = rng.sample(rows, 2)                       # dependent
                rows.append(u.scaled(rng.choice(coeffs)) + v.scaled(rng.choice(coeffs)))
            else:
                support = rng.sample(cols, rng.randrange(1, 4))
                rows.append(StateVector({mo: rng.choice(coeffs) for mo in support}))
        before = [dict(r.terms) for r in rows]
        got = echelonize(rows)
        assert got == [StateVector(dict(zip(cols, r))) for r in _rref_reference(rows, cols)]
        assert [r.terms for r in rows] == before
        for out in got:
            lead = min(out.terms, key=PBWMonomial.sort_key)
            for i, st in enumerate(rows):
                if st == out and all(lead not in r.terms for r in rows[:i]):
                    assert out is st
                    kept += 1
                    break
    assert kept > 300


def test_vacuum_ideal_basis_shares_the_spanning_states():
    # on the r1 config (`torva v0`) every spanning state is a distinct unit
    # monomial, so each basis row is a spanning state itself; the checks make
    # no product read and the word table holds the rewrites alone
    from torva import SessionConfig
    from torva.cli import _vacuum_ideal_findings
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    ideal = session.build_vacuum_ideal(win.depth, win)
    spanning = {id(st) for st in ideal.spanning}
    assert len(ideal.basis) == 190 and all(id(row) in spanning for row in ideal.basis)
    assert all(f.ok for f in _vacuum_ideal_findings(session, win, random.Random(cfg.seed), {}))
    assert len(session.fields._mode_cache) == 0
    assert len(session.module._word_cache) == 339


def test_building_the_ideal_stores_no_chain_action():
    # each chain is applied once, so the build leaves the action table as it was
    session = Session(sl2_spec(), 1, 1)
    win = small_window(session)
    ideal = session.build_vacuum_ideal(3, win)
    assert len(ideal.spanning) == 1330
    assert len(session.module._act_cache) == 0 and session.module._act_cache.misses == 0


def test_the_ideal_holder_keeps_at_most_twelve_states():
    # after the checks only the dims, the basis size, the support check's
    # states and the labels (when at most 200) stay referenced
    from torva import SessionConfig
    from torva.cli import _vacuum_ideal_findings
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    holder = {}
    assert all(f.ok for f in _vacuum_ideal_findings(session, win, random.Random(cfg.seed), holder))
    assert sorted(holder) == ["basis_size", "graded_dims", "labels", "support_states"]
    held = [x for v in holder.values() for x in (v if isinstance(v, list) else [v])
            if isinstance(x, StateVector)]
    assert len(held) == len(holder["support_states"]) == 12
    assert holder["basis_size"] == 190 and len(holder["labels"]) == 190
    assert all(isinstance(label, str) for label in holder["labels"])
    # the labels are those of the chain states, in chain order
    ideal = session.build_vacuum_ideal(win.depth, win)
    assert holder["labels"] == [session.chain_label(st) for st in ideal.spanning]
    assert holder["support_states"] == ideal.spanning[:12]


def test_reconstruction_from_vacuum_products(s, win):
    rng = random.Random(8)
    samples = [s.tail("h"), s.parse_state("e(-2;1) vac"),
               s.parse_state("e(-1;0) f(-1;1) vac"),
               s.tail("e") + s.parse_state("h(-1;0) vac").scaled(2)]
    vac = s.vacuum()
    for u in samples:
        for (n0, n) in win.modes():
            w = rng.choice(win.states)
            piece = s.product(u, -1, n, vac)
            through = s.ordinary_mode(piece, n0, w) if piece else piece
            assert s.vertex_mode(u, n0, n, w) == through


def test_ordinary_mode_in_shifted_module(s):
    mod = ShiftedModule(s.module, (1,))
    u = s.product(s.tail("e"), -1, (0,), s.vacuum())
    w = s.tail("f")
    for n0 in range(-2, 3):
        assert s.ordinary_mode(u, n0, w, module=mod) == mod.act("e", n0, (0,), w)


@pytest.mark.parametrize("shifted", [False, True])
def test_ordinary_mode_one_and_two_degrees(s, win, shifted):
    mod = ShiftedModule(s.module, (1,)) if shifted else None
    one = s.parse_state("e(-1;0) vac")
    two = one + s.parse_state("f(-1;1) vac")
    assert s.support(two) == {(0,), (1,)}
    for n0 in range(-2, 3):
        for w in win.states:
            # one degree: the operator's mode at that degree
            assert s.ordinary_mode(one, n0, w, module=mod) == s.vertex_mode(one, n0, (0,), w, mod)
            # two degrees: the sum over both
            want = (s.vertex_mode(two, n0, (0,), w, mod) + s.vertex_mode(two, n0, (1,), w, mod))
            assert s.ordinary_mode(two, n0, w, module=mod) == want


def test_vertex_mode_rejects_a_wrong_rank_multidegree(s):
    from torva import SpecFormatError
    for v in (s.tail("e"), s.parse_state("e(-1;0) vac")):
        for module in (None, ShiftedModule(s.module, (1,))):
            with pytest.raises(SpecFormatError):
                s.vertex_mode(v, -1, (0, 0), s.tail("f"), module=module)


def test_parse_state_grammar(s):
    assert s.parse_state("vac") == s.vacuum()
    assert s.parse_state("1") == s.vacuum()
    assert s.parse_state("tail:e") == s.tail("e")
    assert s.parse_state("e") == s.tail("e")
    w = s.parse_state("e(-2;1) f(-1;0) vac")
    assert w == s.monomial([(2, "e", (1,)), (1, "f", (0,))])
    from torva import SpecFormatError
    with pytest.raises(SpecFormatError):
        s.parse_state("e(-2) vac")
    with pytest.raises(SpecFormatError):
        s.parse_state("")
