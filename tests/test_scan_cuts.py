"""The window scans skip every coefficient tuple whose total t0-index passes
the degree witness.  Each scan must return exactly what its uncut loop
returns: None, or the same first tuple with the same residual or sides.  The
uncut loops are written out here as references, and they run on passing and
on failing inputs (orders below the true one, and the mutated sessions of
``mutation_catalog``)."""

import collections
import functools
import itertools
import random

import pytest

from torva import FieldSpace, ModeWindow, Session, ShiftedModule
from torva.axioms import AxiomChecker, mutation_catalog, sample_state
from torva.fields import component_sum
from torva.liecore import mi_sub
from torva.series import binom
from torva.states import StateVector, _accumulate, state_to_json

from conftest import sl2_spec

CAP = 4


def uncut_locality(fs, a, b, k, window):
    for (p0, p), (q0, q) in itertools.product(window.modes(), repeat=2):
        for si, w in enumerate(window.states):
            acc = {}
            for i in range(k + 1):
                c = binom(k, i) * (-1 if i % 2 else 1)
                _accumulate(acc, fs.commutator(a, b, p0 + k - i, p, q0 + i, q, w), c)
            if acc:
                return (p0, p, q0, q, si, StateVector.adopt(acc))
    return None


def uncut_skew_symmetry(ch, u, v, window):
    Fuv = ch._composite_modes(u, v, window.states)
    Fvu = ch._composite_modes(v, u, window.states)
    bound_vu = u.max_degree() + v.max_degree() - 1
    for (a0, A) in window.modes():
        for (b0, B) in window.modes():
            for si in range(len(window.states)):
                lhs = Fuv(a0, A, b0, B, si)
                rhs = ch._skew_transform(lambda c0, C, d0, D: Fvu(c0, C, d0, D, si),
                                         a0, A, b0, B, max(bound_vu - a0, 0))
                if lhs != rhs:
                    return {"tuple": [a0, list(A), b0, list(B)], "state": si,
                            "lhs": state_to_json(ch.session.spec, lhs),
                            "rhs": state_to_json(ch.session.spec, rhs)}
    return None


def uncut_skew_involution(ch, u, v, window):
    F = ch._composite_modes(u, v, window.states)
    bound = u.max_degree() + v.max_degree() - 1
    TF = functools.cache(lambda c0, C, d0, D, si: ch._skew_transform(
        lambda *args: F(*args, si), c0, C, d0, D, max(bound - c0, 0)))
    for (a0, A) in window.modes():
        for (b0, B) in window.modes():
            for si in range(len(window.states)):
                twice = ch._skew_transform(lambda *args: TF(*args, si),
                                           a0, A, b0, B, max(bound - a0, 0))
                if twice != F(a0, A, b0, B, si):
                    return {"tuple": [a0, list(A), b0, list(B)], "state": si,
                            "part": "involution"}
    return None


def uncut_weak_associativity(ch, u, v, w, l, window):
    sess = ch.session
    A = lambda n0, P, t: ch.vm(u, l + n0, P, t)
    B = functools.partial(ch.vm, v)
    for (a0, aa) in window.modes():
        for (b0, b) in window.modes():
            lhs = ch._product_sum(u, v, a0, l, b0, lambda n0: sess.product(u, n0, aa, v),
                                  lambda x, n0: ch.vm(x, n0, b, w))
            hi = w.max_degree() + v.max_degree() - 1 - b0
            rhs = component_sum(A, aa, B, mi_sub(b, aa), a0, b0, w, hi, -1)
            if lhs != rhs:
                return {"tuple": [a0, list(aa), b0, list(b)],
                        "lhs": state_to_json(sess.spec, StateVector(lhs)),
                        "rhs": state_to_json(sess.spec, StateVector(rhs))}
    return None


class LossyChecker(AxiomChecker):
    """A skew transform one term short: the involution then fails, and its
    scans still keep every t0-index total, so the cut stays sound."""

    def _skew_transform(self, F, a0, A, b0, B, bound):
        return super()._skew_transform(F, a0, A, b0, B, bound - 1)


def window_of(s):
    return ModeWindow((-2, 2), [(-1, 1)], [s.vacuum(), s.tail("e"), s.parse_state("f(-1;0) vac")])


def tally(seen, scan, got):
    seen[scan, "pass" if got is None else "fail"] += 1


def compare_locality(fs, a, b, window, seen):
    order = fs.locality_order(a, b, window, CAP)
    for k in range((CAP if order is None else order) + 1):
        got = fs.locality_passes_at(a, b, k, window)
        assert got == uncut_locality(fs, a, b, k, window), (a.label, b.label, k)
        tally(seen, "locality", got)


def compare_checker_scans(ch, window, seen):
    gens = [ch.session.tail(x) for x in ch.session.spec.basis]
    for u, v in itertools.product(gens, repeat=2):
        Fuv = ch._composite_modes(u, v, window.states)
        got = ch.skew_symmetry_witness(u, v, window, Fuv)
        assert got == uncut_skew_symmetry(ch, u, v, window)
        tally(seen, "skew", got)
        got = ch.skew_involution_witness(u, v, window, Fuv)
        assert got == uncut_skew_involution(ch, u, v, window)
        tally(seen, "involution", got)
        for w, l in zip(window.states, (0, 1, 2)):
            got = ch.weak_associativity_witness(u, v, w, l, window)
            assert got == uncut_weak_associativity(ch, u, v, w, l, window)
            tally(seen, "associativity", got)


@pytest.mark.parametrize("shifted", [False, True], ids=["vacuum", "shifted"])
def test_locality_cut_matches_uncut_scan(shifted):
    s = Session(sl2_spec(), 1, 1)
    win = window_of(s)
    mod = ShiftedModule(s.module, (1,)) if shifted else s.module
    fs = FieldSpace(mod)
    seen = collections.Counter()
    currents = [fs.current(x) for x in s.spec.basis]
    for a, b in itertools.product(currents, repeat=2):
        compare_locality(fs, a, b, win, seen)
    for i in (0, 1):
        for a, b in itertools.product(currents[:2], repeat=2):
            compare_locality(fs, fs.derivative(i, a), b, win, seen)
    rng = random.Random(14)
    sampled = [sample_state(s, rng, win) for _ in range(3)] + [s.tail("f")]
    for u, v in zip(sampled, sampled[1:]):
        compare_locality(fs, s.field_of(u, mod), s.field_of(v, mod), win, seen)
    assert seen["locality", "fail"] and seen["locality", "pass"]


def test_skew_and_weak_associativity_cuts_match_uncut_scans():
    s = Session(sl2_spec(), 1, 1)
    win = window_of(s)
    seen = collections.Counter()
    for mod in (s.module, ShiftedModule(s.module, (1,))):
        compare_checker_scans(AxiomChecker(s, module=mod), win, seen)
    assert seen["associativity", "fail"] and seen["skew", "pass"] and seen["involution", "pass"]
    compare_checker_scans(LossyChecker(s), win, seen)
    assert seen["skew", "fail"] and seen["involution", "fail"]


def test_cut_scans_match_uncut_scans_on_mutated_sessions():
    seen = collections.Counter()
    for _, mutated in mutation_catalog(Session(sl2_spec(), 1, 1)):
        win = ModeWindow((-2, 2), [(-1, 1)], [mutated.vacuum(), mutated.tail("e")])
        fs = mutated.fields
        currents = [fs.current(x) for x in mutated.spec.basis]
        for a, b in itertools.product(currents, repeat=2):
            compare_locality(fs, a, b, win, seen)
        compare_checker_scans(AxiomChecker(mutated), win, seen)
    assert all(seen[scan, "fail"] for scan in ("locality", "skew", "associativity"))
