"""Vertex operators on states, the vacuum ideal, one-variable collapse."""

import random
from fractions import Fraction

import pytest

from torva import Session, echelonize, loop_affine_graded_dims
from torva.states import ShiftedModule

from conftest import sl2_spec, small_window


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
    hi = s.field_witness(u, w)
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


def test_ideal_contains_and_tail_exclusion(s):
    win = small_window(s)
    ideal = s.build_vacuum_ideal(2, win)
    assert ideal.contains(s.vacuum())
    assert ideal.contains(s.parse_state("e(-1;0) vac"))
    assert ideal.contains(s.parse_state("e(-1;1) f(-1;0) vac").scaled(Fraction(2, 3)))
    assert not ideal.contains(s.tail("e"))
    assert not ideal.contains(s.parse_state("e(-1;0) vac") + s.tail("h"))


def test_ideal_closed_under_window_modes(s):
    win = small_window(s)
    ideal = s.build_vacuum_ideal(3, win)
    rng = random.Random(7)
    members = [st for st, _ in ideal.spanning if st and st.max_degree() <= 2]
    for _ in range(20):
        u = rng.choice(members)
        a = rng.choice(s.spec.basis)
        (m0, m) = rng.choice(list(win.modes()))
        img = s.module.act(a, m0, m, u)
        assert img.is_tail_free()
        if img and img.max_degree() <= 3 and all(
                mz[2][0] in range(-1, 2) for mono in img.terms for mz in mono.word):
            assert ideal.contains(img)


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
