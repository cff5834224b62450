"""Axiom checks: the two weak identities, the coefficient form, skew
symmetry, the vacuum-expansion trio, mutation sensitivity."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from torva import ModeWindow, Session, SessionConfig, run_mutation_suite, run_suite
from torva.axioms import (AxiomChecker, _derivative_findings, _vacuum_ideal_findings,
                          check_jacobi, check_skew_symmetry, check_vacuum_expansion,
                          check_weak_commutativity,
                          mutation_catalog, sample_state)

from conftest import CONFIG_DIR, abelian_spec, forget_memos, sl2_spec, small_window


@pytest.fixture(scope="module")
def s():
    return Session(sl2_spec(), 1, 1)


@pytest.fixture(scope="module")
def win(s):
    return small_window(s, extra_states=[s.parse_state("f(-1;0) vac")])


@pytest.fixture(scope="module")
def ch(s):
    return AxiomChecker(s)


def test_weak_commutativity_order_two(s, win):
    fs = s.fields
    e, f = s.field_of(s.tail("e")), s.field_of(s.tail("f"))
    assert fs.locality_passes_at(e, f, 2, win) is None
    assert fs.locality_passes_at(e, f, 3, win) is None
    wtn = fs.locality_passes_at(e, f, 1, win)
    assert wtn is not None  # the derivative-of-delta term survives at level 1
    assert fs.locality_order(e, f, win, 8) == 2


def test_weak_commutativity_identity_trivial(s, win):
    one = s.field_of(s.vacuum())
    assert s.fields.locality_passes_at(one, s.field_of(s.tail("h")), 0, win) is None


def test_weak_associativity_on_cyclic_vector(s, ch, win):
    # generators acting on the cyclic vector satisfy the relation at l = 0
    e, f = s.tail("e"), s.tail("f")
    assert ch.weak_associativity_witness(e, f, s.vacuum(), 0, win) is None


def test_weak_associativity_identity_argument(s, ch, win):
    # the cyclic vector in the first slot needs no exponent at all
    assert ch.weak_associativity_witness(s.vacuum(), s.tail("h"),
                                         s.parse_state("f(-1;0) vac"), 0, win) is None


def test_commutator_slices_depth2(s, ch, win):
    rng = random.Random(7)
    u = s.parse_state("e(-1;1) f(-1;0) vac")
    wtn = ch.commutator_slice_witness(u, s.tail("h"), win, 8, rng)
    assert wtn is None
    wtn = ch.commutator_slice_witness(s.tail("h"), u, win, 8, rng)
    assert wtn is None


def test_weak_associativity_search(s, ch, win):
    u = s.parse_state("e(-1;1) f(-1;0) vac")
    v = s.tail("h")
    w = s.parse_state("f(-1;0) vac")
    l = ch.find_associativity_order(u, v, w, win, 8)
    assert l is not None and l <= 6


def test_weak_associativity_minimality(s, ch):
    # the search returns the least exponent: the one below must fail somewhere
    win = small_window(s)
    u, v = s.tail("e"), s.tail("f")
    w = s.parse_state("f(-2;0) f(-1;0) vac")
    l = ch.find_associativity_order(u, v, w, win, 8)
    assert l is not None
    if l > 0:
        assert ch.weak_associativity_witness(u, v, w, l - 1, win) is not None
    # and a state forcing a strictly positive exponent exists on this window
    assert any(ch.find_associativity_order(s.tail(a), s.tail(b), w, win, 8) > 0
               for a in s.spec.basis for b in s.spec.basis)


def test_jacobi_generator_triples(s, ch, win):
    rng = random.Random(0)
    for a in s.spec.basis:
        for b in s.spec.basis:
            f = check_jacobi(ch, s.tail(a), s.tail(b), s.tail("h"), win, rng=rng)
            assert f.ok, (a, b, f.witness)


def test_jacobi_on_identity_argument(s, ch, win):
    rng = random.Random(1)
    f = check_jacobi(ch, s.vacuum(), s.tail("f"), s.tail("e"), win, rng=rng)
    assert f.ok


def test_jacobi_coefficient_form_consistency(s, ch, win):
    # whenever the two weak identities hold, the single-identity coefficient
    # form holds at random tuples
    rng = random.Random(2)
    modes = list(win.modes())
    u, v = s.tail("e"), s.tail("f")
    w = s.parse_state("f(-1;0) vac")
    for _ in range(10):
        (p0, P) = rng.choice(modes)
        (q0, Q) = rng.choice(modes)
        n = rng.randrange(-2, 3)
        assert ch.jacobi_coefficient_residual(u, v, w, p0, P, q0, Q, n).is_zero()


def test_jacobi_cross_level_mismatch_detected(s, win):
    # one side computed at level 2: the coefficient identity must break
    other = Session(sl2_spec(), 1, 2)
    u, v = s.tail("e"), s.tail("f")
    w = s.vacuum()
    found = False
    for (p0, P) in win.modes():
        for (q0, Q) in win.modes():
            lhs = s.fields.commutator(s.field_of(u), s.field_of(v), p0, P, q0, Q, w)
            rhs = other.fields.commutator(other.field_of(u), other.field_of(v), p0, P, q0, Q, w)
            if lhs != rhs:
                found = True
                break
        if found:
            break
    assert found


def test_skew_symmetry_pairs(s, ch, win):
    for a in ("e", "f"):
        for b in ("f", "h"):
            fnd = check_skew_symmetry(ch, s.tail(a), s.tail(b), win)
            assert fnd.ok, (a, b, fnd.witness)


def test_skew_symmetry_same_argument(s, ch, win):
    fnd = check_skew_symmetry(ch, s.tail("e"), s.tail("e"), win)
    assert fnd.ok


def test_skew_symmetry_depth2(s, ch):
    winS = ModeWindow([-1, 1], [[0, 0]], [s.vacuum(), s.tail("e")])
    u = s.parse_state("e(-1;0) vac")
    fnd = check_skew_symmetry(ch, u, s.tail("f"), winS)
    assert fnd.ok, fnd.witness


def test_vacuum_expansion_trio(s, ch, win):
    for u in [s.tail("e"), s.vacuum(), s.parse_state("e(-2;1) f(-1;0) vac")]:
        fnd = check_vacuum_expansion(ch, u, win)
        assert fnd.ok, fnd.witness


def test_commutator_slices(s, ch, win):
    rng = random.Random(3)
    wtn = ch.commutator_slice_witness(s.tail("e"), s.tail("f"), win, 12, rng)
    assert wtn is None


def test_module_variant_jacobi(s):
    from torva.states import ShiftedModule
    win = small_window(s)
    mod = ShiftedModule(s.module, (1,))
    ch = AxiomChecker(s, module=mod)
    rng = random.Random(4)
    f = check_jacobi(ch, s.tail("e"), s.tail("f"), s.tail("h"), win, rng=rng)
    assert f.ok, f.witness


def test_run_suite_abelian_all_green():
    s0 = Session(abelian_spec(), 1, Fraction(1, 2))
    win = ModeWindow([-2, 2], [[-1, 1]], [s0.vacuum(), s0.tail("a")])
    rep = run_suite(s0, win, seed=1, samples=6)
    assert rep.ok, [f.to_json() for f in rep.findings if not f.ok]


def test_run_suite_rejects_unknown_group(s, win):
    with pytest.raises(ValueError):
        run_suite(s, win, checks=["no-such-group"])


def test_run_suite_subset(s, win):
    rep = run_suite(s, win, seed=2, checks=["lie", "table"])
    assert rep.ok
    laws = {f.law for f in rep.findings}
    assert "generator product table" in laws
    assert "jacobi identity" not in laws


def test_cache_cap_never_changes_a_report():
    # no memo table changes a verdict: the benchmark's suite groups give the
    # same report when all seven session tables store nothing
    base = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    groups = ["table", "locality", "derivative", "transfer", "skew", "module-variant"]
    reports = []
    for forget in (False, True):
        session = base.build_session()
        if forget:
            forget_memos(session)
        win, = base.build_windows(session)
        rep = run_suite(session, win, seed=1, checks=groups, samples=base.samples)
        for f in rep.findings:
            f.wall_ms = 0
        reports.append(rep.to_json())
    assert reports[0]["ok"]
    assert reports[1] == reports[0]
    assert len(session.fields._mode_cache) == 0 and session.fields._mode_cache.misses > 0


def _keys_after(checks):
    """The vertex-mode table keys a fresh session holds after ``checks``, a
    list of (check, labels); each check must pass."""
    sess = Session(sl2_spec(), 1, 1)
    win = small_window(sess)
    checker = AxiomChecker(sess)
    for check, labels in checks:
        states = [sess.tail(x) for x in labels]
        if check is check_jacobi:
            assert check_jacobi(checker, *states, win, rng=random.Random(5)).ok
        else:
            assert check(checker, *states, win).ok
    return set(sess._vm_cache._data) | set(sess._vm_state_cache._data)


@pytest.mark.parametrize("check, first, second", [
    (check_jacobi, ("e", "f", "h"), ("h", "e", "f")),
    (check_skew_symmetry, ("e", "f"), ("f", "h"))])
def test_vertex_mode_tables_hold_one_unit_of_work(check, first, second):
    # a triple's (or pair's) vertex modes are gone once the next one starts
    both = _keys_after([(check, first), (check, second)])
    alone = _keys_after([(check, second)])
    assert both and both <= alone
    assert not _keys_after([(check, first)]) <= alone  # emptying is what keeps it so


def test_finding_serialisation_roundtrip(s, ch, win):
    fnd = check_vacuum_expansion(ch, s.tail("e"), win)
    data = fnd.to_json()
    assert data["identity"] == "vacuum expansion"
    assert data["status"] == "pass"
    assert "window" in data and "wall_ms" in data


def test_mutation_catalog_covers_constants(s):
    names = [name for name, _ in mutation_catalog(s)]
    # 3 stored brackets + 1 diagonal + 9 form entries + cocycle
    assert len(names) == 14
    assert any("cocycle" in n for n in names)


def test_mutation_suite_detects_everything(s):
    win = small_window(s)
    rep = run_mutation_suite(s, win, seed=11)
    assert rep.ok, [f.detail for f in rep.findings if not f.ok]


def test_affine_commutator_catches_mutants():
    # the (p0, q0, w) loop reads hoisted values; a corrupted algebra must
    # still fail at the first offending tuple, with the same witness
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    want = {"cocycle*2": {"pair": ["e", "f"], "m": [-1], "n": [1], "modes": [-2, 2]},
            "form[e,f]+1": {"pair": ["e", "f"], "m": [-1], "n": [1], "modes": [-2, 2]},
            "struct[e,e->e]+1": {"pair": ["e", "e"], "m": [-1], "n": [-1], "modes": [-2, -2]}}
    got = {}
    for name, mutated in mutation_catalog(cfg.build_session()):
        if name not in want:
            continue
        win, = cfg.build_windows(mutated)
        findings = _vacuum_ideal_findings(mutated, win, random.Random(0))
        f, = [f for f in findings if f.law == "vacuum-ideal affine commutators"]
        assert f.status == "fail", name
        got[name] = f.witness
    assert got == want


def test_derivative_check_keeps_one_pair_of_product_modes():
    # a reference product is read again only within its generator pair, so
    # the product-mode table is emptied when the check moves to the next pair
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    f, = _derivative_findings(session, win)
    assert f.status == "pass"

    def pair(key):
        _, a, _, _, b = key[0]  # ("prod", a.key, m0, m, b.key)
        while a[0] == "D":  # ("D", i, base key)
            a = a[2]
        return a, b

    table = session.fields._mode_cache
    assert len(table) > 0
    assert {pair(key) for key in table._data} == {(("cur", 2), ("cur", 2))}


# Skew-group findings of every catalogue mutant on the r1 config window:
# the labels that fail, and a digest of every (label, status, witness).
SKEW_MUTANT_WITNESSES = {
    "cocycle*2": ([], "51f51f6bb4cdc2c0"),
    "form[e,e]+1": (["(e,h)", "(h,e)"], "6e2d442ae7acc326"),
    "form[e,f]+1": (["(e,f)", "(e,h)", "(f,e)", "(h,e)"], "f6fb89048b9b74c4"),
    "form[e,h]+1": (["(e,f)", "(e,h)", "(f,e)", "(h,e)"], "3da4bfc9928682e6"),
    "form[f,e]+1": (["(e,f)", "(f,e)", "(f,h)", "(h,f)"], "1ee187829e7eb923"),
    "form[f,f]+1": (["(f,h)", "(h,f)"], "6aa9ca01e4c42f8f"),
    "form[f,h]+1": (["(e,f)", "(f,e)", "(f,h)", "(h,f)"], "6307f6c14f8eb1f1"),
    "form[h,e]+1": (["(e,f)", "(e,h)", "(f,e)", "(h,e)"], "99a1ebc8eab6ec5f"),
    "form[h,f]+1": (["(e,f)", "(f,e)", "(f,h)", "(h,f)"], "459a016a5056878c"),
    "form[h,h]+1": (["(e,h)", "(f,h)", "(h,e)", "(h,f)"], "f7cc077bd5029ee8"),
    "struct[e,e->e]+1": (["(e,e)", "(e,f)", "(e,h)", "(f,e)", "(h,e)"], "3bb2d2536bc248e3"),
    "struct[e,f->h]+1": (["(e,f)", "(e,h)", "(f,e)", "(h,e)"], "70fe0903170554dc"),
    "struct[e,h->e]+1": (["(e,f)", "(e,h)", "(f,e)", "(h,e)"], "1f805fe313350e00"),
    "struct[f,h->f]+1": (["(e,f)", "(f,e)", "(f,h)", "(h,f)"], "2a7ede877945f9ae"),
}


def test_skew_witnesses_of_mutants_are_fixed():
    # the skew scans read per-call tables; a corrupted algebra must still
    # fail at the same first tuple, with the same two sides
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    got = {}
    for name, mutated in mutation_catalog(cfg.build_session()):
        win, = cfg.build_windows(mutated)
        rep = run_suite(mutated, win, seed=cfg.seed, checks=["skew"])
        rows = [[f.detail["states"], f.status, f.witness] for f in rep.findings]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
        got[name] = (sorted(f.detail["states"] for f in rep.findings if not f.ok), digest)
    assert got == SKEW_MUTANT_WITNESSES


def test_ordinary_jacobi_on_ideal(s, ch, win):
    vac = s.vacuum()
    rng = random.Random(6)
    seeds = [vac,
             s.product(s.tail("e"), -1, (0,), vac),
             s.product(s.tail("f"), -1, (1,), vac),
             s.product(s.tail("h"), -2, (-1,), vac)]
    for _ in range(15):
        u, v = rng.choice(seeds), rng.choice(seeds)
        w = rng.choice(win.states)
        p, q, n = (rng.randrange(-2, 3) for _ in range(3))
        assert ch.ordinary_jacobi_residual(u, v, w, p, q, n).is_zero(), (p, q, n)


def test_ordinary_creation_and_constant_term(s, ch, win):
    vac = s.vacuum()
    for u in [vac, s.product(s.tail("e"), -1, (1,), vac),
              s.product(s.tail("h"), -2, (0,), vac),
              s.parse_state("e(-1;1) f(-1;-1) vac")]:
        assert ch.ordinary_creation_witness(u, win) is None
        assert ch.ordinary_derivative_witness(u, win) is None
    # constant term against the cyclic vector recovers the state
    u = s.parse_state("e(-1;1) f(-1;0) vac")
    assert s.ordinary_mode(u, -1, vac) == u
    assert s.ordinary_mode(vac, -1, s.tail("f")) == s.tail("f")


def test_sample_state_small(s, win):
    # input modes stay in the window box; reordering corrections may merge
    # two of them, so degree is bounded by the word budget
    rng = random.Random(5)
    for _ in range(20):
        st = sample_state(s, rng, win)
        assert not st.is_zero()
        assert st.max_degree() <= 2 * 2 + 1


def test_check_weak_commutativity_reports_the_residual(s, ch, win):
    e, f = s.tail("e"), s.tail("f")
    assert check_weak_commutativity(ch, e, f, 2, win).ok
    fnd = check_weak_commutativity(ch, e, f, 1, win)
    assert fnd.status == "fail"
    assert set(fnd.witness) == {"tuple", "state", "residual"} and fnd.witness["residual"]
