"""Axiom checks: the two weak identities, the coefficient form, skew
symmetry, the vacuum-expansion trio, mutation sensitivity."""

import gc
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from torva import ModeWindow, Session, SessionConfig, run_mutation_suite, run_suite
from torva.axioms import (GROUPS, AxiomChecker, CapExceeded, _derivative_findings, _finding,
                          _vacuum_ideal_findings,
                          check_jacobi, check_skew_symmetry, check_vacuum_expansion,
                          mutation_catalog, sample_state)

from conftest import (CONFIG_DIR, abelian_spec, forget_memos, report_digest, sl2_spec,
                      small_window)


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
        assert ch._residual(ch.vm, s.product, u, v, w, p0, P, q0, Q, n).is_zero()


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
    # no memo table changes a verdict: the benchmark's suite groups, and
    # `oracle`, whose deep pairs read a product as a factor, give the same
    # report when all six session tables store nothing
    base = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    groups = ["table", "locality", "oracle", "derivative", "transfer", "skew", "module-variant"]
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


def test_finding_reads_the_check_result(win):
    # None is a pass, any dict (even an empty one) is a failure's witness,
    # and CapExceeded is a search that hit its cap
    def capped():
        raise CapExceeded({"part": "associativity", "cap": 8})
    got = [(f.status, f.witness) for f in (_finding("law", win, {}, lambda: None),
                                           _finding("law", win, {}, lambda: {}),
                                           _finding("law", win, {}, capped))]
    assert got == [("pass", None), ("fail", {}),
                   ("cap_exceeded", {"part": "associativity", "cap": 8})]


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


def test_the_engine_makes_no_reference_cycles():
    # a command runs with the cyclic collector paused, which is safe only
    # while everything a check group builds is freed by reference counting
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    runs = {name: (lambda session, win, name=name, build=build:
                   build(session, win, random.Random(f"{cfg.seed}:{name}"), cfg.samples))
            for name, build in GROUPS.items()}
    runs["v0 with a holder"] = lambda session, win: _vacuum_ideal_findings(
        session, win, random.Random(cfg.seed), {})
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            session = cfg.build_session()
            win, = cfg.build_windows(session)
            run(session, win)
            del session, win
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_derivative_check_keeps_one_pair_of_product_modes():
    # a reference product is read again only within its generator pair, so
    # its modes live in a table local to the pair; a left side is read once,
    # so the session's product-mode table stores nothing and drops nothing
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    f, = _derivative_findings(session, win)
    assert f.status == "pass"
    table = session.fields._mode_cache
    assert (len(table), table.hits, table.misses, table.emptied) == (0, 0, 0, 0)


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


def _mutant_rows(group):
    """mutant name -> (failing findings, cap_exceeded findings, digest of
    every (law, detail, status, witness)) for one group on the r1 config."""
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    rows = {}
    for name, mutated in mutation_catalog(cfg.build_session()):
        win, = cfg.build_windows(mutated)
        rep = run_suite(mutated, win, seed=cfg.seed, checks=[group], samples=cfg.samples)
        found = [[f.law, f.detail, f.status, f.witness] for f in rep.findings]
        digest = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()[:16]
        rows[name] = (sum(f.status == "fail" for f in rep.findings),
                      sum(f.status == "cap_exceeded" for f in rep.findings), digest)
    return rows


# Findings of every catalogue mutant, per group that fails on some mutant
# (the skew group is pinned above), on the r1 config window and seed.
MUTANT_WITNESSES = {
    "lie": {
        "struct[e,f->h]+1": (2, 0, "878b4d8ef9ac91f1"),
        "struct[e,h->e]+1": (2, 0, "148f8378445b6d26"),
        "struct[f,h->f]+1": (2, 0, "88e87b7fa771d5ad"),
        "struct[e,e->e]+1": (2, 0, "dad9954a6fec20a0"),
        "form[e,e]+1": (1, 0, "a7458c7d66d83bff"),
        "form[e,f]+1": (1, 0, "570f44d92f19d3af"),
        "form[e,h]+1": (1, 0, "62d2ed2c1e781e1d"),
        "form[f,e]+1": (1, 0, "570f44d92f19d3af"),
        "form[f,f]+1": (1, 0, "37777c0c745c663f"),
        "form[f,h]+1": (1, 0, "f13c10c202c064de"),
        "form[h,e]+1": (1, 0, "62d2ed2c1e781e1d"),
        "form[h,f]+1": (2, 0, "d311be4733beb9d5"),
        "form[h,h]+1": (1, 0, "aeed7fc944e7b3ec"),
        "cocycle*2": (0, 0, "da9c5e50349f08ca"),
    },
    "module": {
        "struct[e,f->h]+1": (0, 0, "71621bc2c069dc05"),
        "struct[e,h->e]+1": (1, 0, "cff24d23d0d62a18"),
        "struct[f,h->f]+1": (1, 0, "adac93456c8a6453"),
        "struct[e,e->e]+1": (1, 0, "9249c5663d7384ff"),
        "form[e,e]+1": (0, 0, "71621bc2c069dc05"),
        "form[e,f]+1": (0, 0, "71621bc2c069dc05"),
        "form[e,h]+1": (0, 0, "71621bc2c069dc05"),
        "form[f,e]+1": (0, 0, "71621bc2c069dc05"),
        "form[f,f]+1": (0, 0, "71621bc2c069dc05"),
        "form[f,h]+1": (0, 0, "71621bc2c069dc05"),
        "form[h,e]+1": (0, 0, "71621bc2c069dc05"),
        "form[h,f]+1": (0, 0, "71621bc2c069dc05"),
        "form[h,h]+1": (0, 0, "71621bc2c069dc05"),
        "cocycle*2": (0, 0, "71621bc2c069dc05"),
    },
    "table": {
        "struct[e,f->h]+1": (0, 0, "d9e34ce539559952"),
        "struct[e,h->e]+1": (0, 0, "d9e34ce539559952"),
        "struct[f,h->f]+1": (0, 0, "d9e34ce539559952"),
        "struct[e,e->e]+1": (0, 0, "d9e34ce539559952"),
        "form[e,e]+1": (0, 0, "d9e34ce539559952"),
        "form[e,f]+1": (0, 0, "d9e34ce539559952"),
        "form[e,h]+1": (0, 0, "d9e34ce539559952"),
        "form[f,e]+1": (0, 0, "d9e34ce539559952"),
        "form[f,f]+1": (0, 0, "d9e34ce539559952"),
        "form[f,h]+1": (0, 0, "d9e34ce539559952"),
        "form[h,e]+1": (0, 0, "d9e34ce539559952"),
        "form[h,f]+1": (0, 0, "d9e34ce539559952"),
        "form[h,h]+1": (0, 0, "d9e34ce539559952"),
        "cocycle*2": (1, 0, "7bcd3f2bd30a98b1"),
    },
    "locality": {
        "struct[e,f->h]+1": (1, 0, "4bca4150766f6346"),
        "struct[e,h->e]+1": (1, 0, "4bca4150766f6346"),
        "struct[f,h->f]+1": (1, 0, "4bca4150766f6346"),
        "struct[e,e->e]+1": (1, 0, "f3384d635e97834e"),
        "form[e,e]+1": (1, 0, "768d29569b15392e"),
        "form[e,f]+1": (1, 0, "4bca4150766f6346"),
        "form[e,h]+1": (1, 0, "87772c5eecce3b57"),
        "form[f,e]+1": (1, 0, "4bca4150766f6346"),
        "form[f,f]+1": (1, 0, "66f9eb38d0baf023"),
        "form[f,h]+1": (1, 0, "9209ae2dc0b42b43"),
        "form[h,e]+1": (1, 0, "4bca4150766f6346"),
        "form[h,f]+1": (1, 0, "4bca4150766f6346"),
        "form[h,h]+1": (1, 0, "768d29569b15392e"),
        "cocycle*2": (0, 0, "2e23c7f48a59aa28"),
    },
    "transfer": {
        "struct[e,f->h]+1": (1, 0, "001739641fd9c02c"),
        "struct[e,h->e]+1": (1, 0, "001739641fd9c02c"),
        "struct[f,h->f]+1": (1, 0, "7e774f8846ac652a"),
        "struct[e,e->e]+1": (1, 0, "5c829c6815e90c04"),
        "form[e,e]+1": (1, 0, "3a96590f5051d97a"),
        "form[e,f]+1": (1, 0, "83a021c57cdb3309"),
        "form[e,h]+1": (1, 0, "ee3323d6f88eb8d1"),
        "form[f,e]+1": (1, 0, "e98d0bfe0a230cc9"),
        "form[f,f]+1": (1, 0, "da160dbd87e8ff54"),
        "form[f,h]+1": (1, 0, "387108b43653b157"),
        "form[h,e]+1": (1, 0, "c389b0132631e0ec"),
        "form[h,f]+1": (1, 0, "d98a0184df93cd78"),
        "form[h,h]+1": (1, 0, "83a021c57cdb3309"),
        "cocycle*2": (1, 0, "931a3f27689e2d43"),
    },
    "axioms": {
        "struct[e,f->h]+1": (8, 1, "cf1091dbb74523f3"),
        "struct[e,h->e]+1": (11, 1, "211d4190307ca28e"),
        "struct[f,h->f]+1": (9, 2, "c3d0452af807d7a2"),
        "struct[e,e->e]+1": (6, 1, "c66486b3ceb9fa8b"),
        "form[e,e]+1": (1, 0, "f6afc97b09f8abda"),
        "form[e,f]+1": (2, 1, "0e73e84ac73810af"),
        "form[e,h]+1": (4, 1, "ae0d0d60c3d4a187"),
        "form[f,e]+1": (1, 1, "a73b9010f1e236db"),
        "form[f,f]+1": (1, 1, "ced9151eab8931ad"),
        "form[f,h]+1": (4, 1, "7ff3350749dd5207"),
        "form[h,e]+1": (5, 1, "6f653200876397e9"),
        "form[h,f]+1": (2, 0, "341c4c7d1e0365f3"),
        "form[h,h]+1": (2, 1, "15f5bd244fabde3c"),
        "cocycle*2": (0, 0, "51494425e72f1e98"),
    },
    "ideal": {
        "struct[e,f->h]+1": (1, 0, "8b66f14fa71c17c8"),
        "struct[e,h->e]+1": (1, 0, "1c3da135c25ebc0a"),
        "struct[f,h->f]+1": (2, 0, "b5ca3c4b8abcb8bd"),
        "struct[e,e->e]+1": (1, 0, "fa20e3bdd2c0a6db"),
        "form[e,e]+1": (1, 0, "7ce662b3338836df"),
        "form[e,f]+1": (1, 0, "627a0ff15f2ac9bb"),
        "form[e,h]+1": (1, 0, "53d7747f0cbfdd4c"),
        "form[f,e]+1": (1, 0, "627a0ff15f2ac9bb"),
        "form[f,f]+1": (1, 0, "28b7dcb1b85d2514"),
        "form[f,h]+1": (1, 0, "0523eb74e61b9708"),
        "form[h,e]+1": (1, 0, "0fda118abc19b8df"),
        "form[h,f]+1": (1, 0, "0523eb74e61b9708"),
        "form[h,h]+1": (1, 0, "023fa6399ccc0f75"),
        "cocycle*2": (1, 0, "627a0ff15f2ac9bb"),
    },
    "module-variant": {
        "struct[e,f->h]+1": (1, 0, "421478b1ee5cc4f2"),
        "struct[e,h->e]+1": (2, 0, "1e8a85c03eafd3cd"),
        "struct[f,h->f]+1": (1, 0, "e557c6031566c47d"),
        "struct[e,e->e]+1": (1, 0, "83da93c08a0cd503"),
        "form[e,e]+1": (1, 0, "e2b93511581c422b"),
        "form[e,f]+1": (0, 0, "03da9ea4fe887215"),
        "form[e,h]+1": (0, 0, "03da9ea4fe887215"),
        "form[f,e]+1": (0, 0, "03da9ea4fe887215"),
        "form[f,f]+1": (0, 0, "03da9ea4fe887215"),
        "form[f,h]+1": (0, 0, "03da9ea4fe887215"),
        "form[h,e]+1": (0, 0, "03da9ea4fe887215"),
        "form[h,f]+1": (0, 0, "03da9ea4fe887215"),
        "form[h,h]+1": (0, 0, "03da9ea4fe887215"),
        "cocycle*2": (0, 0, "03da9ea4fe887215"),
    },
}


@pytest.mark.parametrize("group", sorted(MUTANT_WITNESSES))
def test_mutant_witnesses_are_fixed(group):
    # every failing finding keeps its status and its replayable witness
    assert _mutant_rows(group) == MUTANT_WITNESSES[group]


# The passing report of every group on the r1 config; a change that alters a
# report on purpose records the new digest here.
SUITE_R1_DIGEST = "f78ae42bbdda400b7a45e30b0627fcd4e7fc0606a5ad4869d7fb2a1549f2289b"


def test_suite_report_digest_is_pinned():
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    win, = cfg.build_windows(session)
    rep = run_suite(session, win, seed=cfg.seed, samples=cfg.samples)
    assert rep.ok
    assert report_digest(rep.to_json()) == SUITE_R1_DIGEST


def test_ordinary_jacobi_on_ideal(s, ch, win):
    vac = s.vacuum()
    rng = random.Random(6)
    seeds = [vac,
             s.product(s.tail("e"), -1, (0,), vac),
             s.product(s.tail("f"), -1, (1,), vac),
             s.product(s.tail("h"), -2, (-1,), vac)]
    O = lambda x, n0, _, t: s.ordinary_mode(x, n0, t)
    for _ in range(15):
        u, v = rng.choice(seeds), rng.choice(seeds)
        w = rng.choice(win.states)
        p, q, n = (rng.randrange(-2, 3) for _ in range(3))
        assert ch._residual(O, O, u, v, w, p, (), q, (), n).is_zero(), (p, q, n)


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

