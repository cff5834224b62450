"""Coefficientwise verification of the axioms and derived identities.

Every check reduces a formal-distribution identity to exact rational
equalities of module elements over a finite window of mode indices and test
states.  A check returns its witness: None on a pass, and on a failure a dict
with the offending coefficient tuple and both side values, enough to
reproduce it; an exponent search that hits its cap raises
:class:`CapExceeded` with its own witness.  :func:`_finding` turns the result
into a machine-readable :class:`Finding`.  A pass certifies the identity on
the window, never beyond.  The check groups are one registry,
:data:`GROUPS`, in report order.

The main identity is checked through its two finite halves, weak
commutativity

    (x0-y0)^k Y(u;x0,x) Y(v;y0,y) = (x0-y0)^k Y(v;y0,y) Y(u;x0,x)

and weak associativity

    (z0+y0)^l Y(Y(u;z0,z)v;y0,y) w = (z0+y0)^l Y(u;z0+y0,zy) Y(v;y0,y) w,

whose exponents are found by upward search under a cap; the single-identity
coefficient form is kept as a randomised spot check of the equivalence.  The
skew and weak-associativity scans skip every coefficient tuple that the degree
witness proves zero on both sides.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .fields import ModeWindow, component_sum
from .liecore import (ToroidalElement, frac, mi_add, mi_sub, mi_zero,
                      validate_lie_spec)
from .series import binom
from .states import ShiftedModule, StateVector, ZERO_STATE, _accumulate, state_to_json
from .vertexops import Session, loop_affine_graded_dims


class Finding:
    """One verified (or refuted) identity instance.

    ``witness`` is None on a pass; on a failure it holds the coefficient
    tuple, the state index, and both side values, so the instance can be
    replayed from the finding alone.
    """

    def __init__(self, law: str, window: dict, status: str, witness: Optional[dict] = None,
                 wall_ms: int = 0, detail: Optional[dict] = None):
        self.law, self.window, self.witness, self.wall_ms = law, window, witness, wall_ms
        self.status = status  # "pass" | "fail" | "cap_exceeded"
        self.detail = {} if detail is None else detail

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"identity": self.law, "window": self.window,
                "status": self.status, "witness": self.witness,
                "wall_ms": self.wall_ms, "detail": self.detail}


class CapExceeded(Exception):
    """An exponent search hit its cap: no verdict, and ``witness`` says which
    search and which cap."""

    def __init__(self, witness: dict):
        super().__init__(witness)
        self.witness = witness


def _finding(law, window, detail, fn) -> Finding:
    """Run the check ``fn``: None is a pass, any dict (even ``{}``) is the
    witness of a failure, and :class:`CapExceeded` is ``cap_exceeded``."""
    t0 = time.perf_counter()
    try:
        witness = fn()
        status = "pass" if witness is None else "fail"
    except CapExceeded as exc:
        status, witness = "cap_exceeded", exc.witness
    ms = int((time.perf_counter() - t0) * 1000)
    return Finding(law, window.describe(), status, witness, ms, detail)


class AxiomChecker:
    """Evaluation context for the identity checks: one session and one module
    (the vacuum module or a twist of it).  Commutators and locality orders of
    vertex operators are the field space's, on :meth:`Session.field_of`
    handles."""

    def __init__(self, session: Session, module=None):
        self.session = session
        self.module = module or session.module

    # -- primitives -------------------------------------------------------------

    def vm(self, v, n0, n, w):
        return self.session.vertex_mode(v, n0, n, w, module=self.module)

    def field(self, v):
        return self.session.field_of(v, self.module)

    def _product_sum(self, u, v, n, p0, q0, prod, mode) -> dict:
        """sum_j C(p0, j) Y(u_(n+j) v)(p0+q0-j) w, the product side of the
        main identity (and with p0 = l of the l-th weak associativity), cut
        where u_(n+j) v vanishes by degree: ``prod(n0)`` is u_(n0) v and
        ``mode(x, n0)`` the n0 mode of x's operator on w."""
        acc = {}
        hj = v.max_degree() + u.max_degree() - 1 - n
        if p0 >= 0:
            hj = min(hj, p0)
        for j in range(hj + 1):
            inner = prod(n + j)
            if inner:
                _accumulate(acc, mode(inner, p0 + q0 - j), binom(p0, j))
        return acc

    # -- weak associativity ----------------------------------------------------------

    def weak_associativity_witness(self, u, v, w, l: int, window: ModeWindow):
        """Compare both sides of the l-th weak associativity relation on every
        window coefficient (a0, aa, b0, b); w is a fixed module state.  Both
        sides vanish by degree once a0 + b0 + l passes the witness ``top``."""
        sess = self.session
        A = lambda n0, P, t: self.vm(u, l + n0, P, t)
        B = functools.partial(self.vm, v)
        top = w.max_degree() + u.max_degree() + v.max_degree() - 2 - l
        for (a0, aa) in window.modes():
            for (b0, b) in window.modes():
                if a0 + b0 > top:
                    continue
                lhs = self._product_sum(u, v, a0, l, b0, lambda n0: sess.product(u, n0, aa, v),
                                        lambda x, n0: self.vm(x, n0, b, w))
                hi = w.max_degree() + v.max_degree() - 1 - b0
                rhs = component_sum(A, aa, B, mi_sub(b, aa), a0, b0, w, hi, -1)
                if lhs != rhs:
                    return {"tuple": [a0, list(aa), b0, list(b)],
                            "lhs": state_to_json(sess.spec, StateVector(lhs)),
                            "rhs": state_to_json(sess.spec, StateVector(rhs))}
        return None

    def find_associativity_order(self, u, v, w, window: ModeWindow, cap: int) -> Optional[int]:
        for l in range(cap + 1):
            if self.weak_associativity_witness(u, v, w, l, window) is None:
                return l
        return None

    # -- the single-identity coefficient form (spot check) ----------------------------

    def _residual(self, mode, product, u, v, w, p0, P, q0, Q, n) -> StateVector:
        """Difference of the two sides of the main identity at one coefficient
        tuple, for the mode map ``mode(x, n0, N, t)`` and the product map
        ``product(x, n0, N, y)``; zero iff the identity holds there.  With
        the vertex modes and products it is the coefficient form; with the
        collapsed one-variable modes of the vacuum ideal and () for the
        multidegrees it is the ordinary Borcherds-style relation."""
        hi1 = w.max_degree() + v.max_degree() - 1 - q0
        hi2 = w.max_degree() + u.max_degree() - 1 - p0
        if n >= 0:
            hi1, hi2 = min(hi1, n), min(hi2, n)
        lhs = component_sum(lambda n0, R, t: mode(u, p0 + n0, R, t), P,
                            functools.partial(mode, v), mi_sub(Q, P), n, q0, w, hi1, hi2)
        rhs = self._product_sum(u, v, n, p0, q0, lambda n0: product(u, n0, P, v),
                                lambda x, n0: mode(x, n0, Q, w))
        return StateVector(lhs) - StateVector(rhs)

    # -- skew symmetry -------------------------------------------------------------------

    def _skew_transform(self, F: Callable, a0, A, b0, B, bound: int) -> StateVector:
        """The composite-level skew map at one coefficient: an exponential
        shift in the first variable and the substitution y -> yz, reduced to
        the index sum (-1)^(a0+1) sum_s C(b0, s) F(a0+s, B-A, b0-s, B)."""
        acc = {}
        BA = mi_sub(B, A)
        sign = -1 if a0 % 2 == 0 else 1  # (-1)^(a0+1)
        for s in range(bound + 1):
            c = binom(b0, s)
            if c:
                _accumulate(acc, F(a0 + s, BA, b0 - s, B), sign * c)
        return StateVector.adopt(acc)

    def _composite_modes(self, x, y, states):
        """F(c0, C, d0, D, si): the (d0, D) mode of the vertex operator of
        x_(c0, C) y on ``states[si]``, with the products and the values held
        in tables local to the caller, so each is computed once while the
        caller holds F."""
        product = functools.cache(lambda c0, C: self.session.product(x, c0, C, y))
        return functools.cache(lambda c0, C, d0, D, si: self.vm(product(c0, C), d0, D, states[si]))

    def skew_symmetry_witness(self, u, v, window: ModeWindow, Fuv):
        """Composite vertex operators of (u, v) against the skew transform of
        those of (v, u), coefficientwise on the window.  ``Fuv`` is
        ``_composite_modes(u, v, window.states)``, which the caller shares
        with :meth:`skew_involution_witness`; the products v_(c0, C) u and
        their modes are held in a table local to this call: a pair has few
        distinct products, and the scan reads each of them many times.  Every
        term at (a0, b0) has t0-index total a0 + b0, so a tuple past the
        witness ``tops`` is skipped."""
        sess = self.session
        Fvu = self._composite_modes(v, u, window.states)
        bound_vu = u.max_degree() + v.max_degree() - 1
        tops = [w.max_degree() + bound_vu - 1 for w in window.states]
        for (a0, A) in window.modes():
            for (b0, B) in window.modes():
                for si in range(len(window.states)):
                    if a0 + b0 > tops[si]:
                        continue
                    lhs = Fuv(a0, A, b0, B, si)
                    rhs = self._skew_transform(
                        lambda c0, C, d0, D: Fvu(c0, C, d0, D, si),
                        a0, A, b0, B, max(bound_vu - a0, 0))
                    if lhs != rhs:
                        return {"tuple": [a0, list(A), b0, list(B)], "state": si,
                                "lhs": state_to_json(sess.spec, lhs),
                                "rhs": state_to_json(sess.spec, rhs)}
        return None

    def skew_involution_witness(self, u, v, window: ModeWindow, F):
        """Applying the skew transform twice must return the original
        composite modes F = ``_composite_modes(u, v, window.states)``
        (binomial telescoping, checked on the window).  The inner transforms
        TF are held in a table local to this call, keyed by their arguments
        and the state index; a tuple past the witness is skipped, as in
        :meth:`skew_symmetry_witness`."""
        bound = u.max_degree() + v.max_degree() - 1
        TF = functools.cache(lambda c0, C, d0, D, si: self._skew_transform(
            lambda *args: F(*args, si), c0, C, d0, D, max(bound - c0, 0)))
        tops = [w.max_degree() + bound - 1 for w in window.states]
        for (a0, A) in window.modes():
            for (b0, B) in window.modes():
                for si in range(len(window.states)):
                    if a0 + b0 > tops[si]:
                        continue
                    twice = self._skew_transform(lambda *args: TF(*args, si),
                                                 a0, A, b0, B, max(bound - a0, 0))
                    if twice != F(a0, A, b0, B, si):
                        return {"tuple": [a0, list(A), b0, list(B)], "state": si,
                                "part": "involution"}
        return None

    # -- vacuum expansion trio ----------------------------------------------------------

    def vacuum_expansion_witness(self, u, window: ModeWindow):
        """Three facts about products against the cyclic vector: annihilation
        products vanish as states; the creation products reproduce derivative
        shifts of the operator of u at a single toroidal degree; and the
        operator of u is recovered slice by slice from its (-1, m) products."""
        sess = self.session
        vac = sess.vacuum()
        for k0 in range(0, window.m0_hi + 1):
            for m in window.m_values():
                st = sess.product(u, k0, m, vac)
                if st:
                    return {"part": "annihilation-product", "mode": [k0, list(m)],
                            "value": state_to_json(sess.spec, st)}
        for k in (0, 1, 2):
            for m in window.m_values():
                st = sess.product(u, -k - 1, m, vac)
                for (n0, n) in window.modes():
                    for si, w in enumerate(window.states):
                        got = self.vm(st, n0, n, w)
                        if n == m:
                            c = binom(n0, k) * (-1 if k % 2 else 1)
                            want = self.vm(u, n0 - k, m, w).scaled(c)
                        else:
                            want = ZERO_STATE
                        if got != want:
                            return {"part": "derivative-shift", "k": k,
                                    "m": list(m), "mode": [n0, list(n)], "state": si,
                                    "lhs": state_to_json(sess.spec, got),
                                    "rhs": state_to_json(sess.spec, want)}
        for (n0, n) in window.modes():
            for si, w in enumerate(window.states):
                direct = self.vm(u, n0, n, w)
                through = self.vm(sess.product(u, -1, n, vac), n0, n, w)
                if direct != through:
                    return {"part": "slice-sum", "mode": [n0, list(n)], "state": si}
        return None

    # -- the collapsed one-variable structure on the vacuum ideal -------------------------

    def ordinary_creation_witness(self, u, window: ModeWindow):
        """Collapsed operators have the full creation property on the ideal:
        nonnegative modes kill the cyclic vector and the constant term of the
        operator applied to it recovers the state itself."""
        sess = self.session
        vac = sess.vacuum()
        for n0 in range(0, window.m0_hi + 1):
            got = sess.ordinary_mode(u, n0, vac)
            if got:
                return {"part": "annihilation", "n0": n0,
                        "value": state_to_json(sess.spec, got)}
        back = sess.ordinary_mode(u, -1, vac)
        if back != u:
            return {"part": "constant-term", "lhs": state_to_json(sess.spec, back),
                    "rhs": state_to_json(sess.spec, u)}
        return None

    def ordinary_derivative_witness(self, u, window: ModeWindow):
        """The canonical derivative of the collapsed structure (the -2 mode
        against the cyclic vector) shifts modes like d/dx0."""
        sess = self.session
        du = sess.ordinary_mode(u, -2, sess.vacuum())
        for n0 in range(window.m0_lo, window.m0_hi + 1):
            for si, w in enumerate(window.states):
                lhs = sess.ordinary_mode(du, n0, w)
                rhs = sess.ordinary_mode(u, n0 - 1, w).scaled(-n0)
                if lhs != rhs:
                    return {"n0": n0, "state": si,
                            "lhs": state_to_json(sess.spec, lhs),
                            "rhs": state_to_json(sess.spec, rhs), "part": "derivative"}
        return None

    # -- mixed-index commutator --------------------------------------------------------

    def commutator_slice_witness(self, u, v, window: ModeWindow, samples, rng):
        """[Y(u; x0, m), Y(v; y0, n)] as a finite sum of products at the
        combined toroidal index, on sampled window tuples."""
        fs, Yu, Yv = self.session.fields, self.field(u), self.field(v)
        tuples = [(p0, p, q0, q) for (p0, p) in window.modes() for (q0, q) in window.modes()]
        rng.shuffle(tuples)
        for (p0, p, q0, q) in tuples[:samples]:
            pq = mi_add(p, q)
            for si, w in enumerate(window.states):
                lhs = fs.commutator(Yu, Yv, p0, p, q0, q, w)
                rhs = self._product_sum(u, v, 0, p0, q0,
                                        lambda n0: self.session.product(u, n0, p, v),
                                        lambda x, n0: self.vm(x, n0, pq, w))
                if lhs != StateVector(rhs):
                    return {"tuple": [p0, list(p), q0, list(q)], "state": si}
        return None


# ---------------------------------------------------------------------------
# Finding-producing wrappers.

def check_jacobi(checker, u, v, w, window, rng=None, spot_checks=10, label="") -> Finding:
    """Main identity via its two finite halves, with exponents found by
    upward search up to 8, plus randomized coefficient-form spot checks."""
    rng = rng or random.Random(0)
    cap = 8

    def run():
        sess = checker.session
        sess.empty_working_sets()  # they hold one triple
        if sess.fields.locality_order(checker.field(u), checker.field(v), window, cap) is None:
            raise CapExceeded({"part": "commutativity", "cap": cap})
        if checker.find_associativity_order(u, v, w, window, cap) is None:
            raise CapExceeded({"part": "associativity", "cap": cap})
        modes = list(window.modes())
        for _ in range(spot_checks):
            (p0, P) = rng.choice(modes)
            (q0, Q) = rng.choice(modes)
            n = rng.randrange(window.m0_lo, window.m0_hi + 1)
            res = checker._residual(checker.vm, sess.product, u, v, w, p0, P, q0, Q, n)
            if res:
                return {"part": "coefficient-form", "tuple": [p0, list(P), q0, list(Q), n],
                        "residual": state_to_json(sess.spec, res)}
        return None

    return _finding("jacobi identity", window, {"cap": cap, "states": label}, run)


def check_skew_symmetry(checker, u, v, window, label="") -> Finding:
    def run():
        checker.session.empty_working_sets()  # they hold one pair
        Fuv = checker._composite_modes(u, v, window.states)  # one table for both witnesses
        wtn = checker.skew_symmetry_witness(u, v, window, Fuv)
        return wtn if wtn is not None else checker.skew_involution_witness(u, v, window, Fuv)
    return _finding("skew symmetry", window, {"states": label}, run)


def check_vacuum_expansion(checker, u, window, label="") -> Finding:
    return _finding("vacuum expansion", window, {"states": label},
                    lambda: checker.vacuum_expansion_witness(u, window))


def check_creation(session, v, window, label="") -> Finding:
    def run():
        bad = session.creation_failures(v, window)
        return {"modes": [[n0, list(n)] for n0, n in bad]} if bad else None
    return _finding("creation property", window, {"states": label}, run)


# ---------------------------------------------------------------------------
# Random sampling of states.

def sample_state(session: Session, rng: random.Random, window: ModeWindow) -> StateVector:
    """A random nonzero state of small degree with modes inside the window box."""
    for _ in range(50):
        word = []
        for _ in range(rng.randrange(0, 3)):
            k = rng.randrange(1, 3)
            a = rng.randrange(session.spec.dim)
            m = tuple(rng.randrange(lo, hi + 1) for lo, hi in window.m_box)
            word.append((k, a, m))
        tail = None
        if rng.random() < 0.4:
            tail = session.spec.basis[rng.randrange(session.spec.dim)]
        st = session.monomial(word, tail)
        if st:
            coeff = frac(rng.choice([1, 1, 2, -1, Fraction(1, 2)]))
            return st.scaled(coeff)
    return session.vacuum()


def sample_toroidal(session: Session, rng: random.Random, bound: int = 3) -> ToroidalElement:
    a = rng.randrange(session.spec.dim)
    m0 = rng.randrange(-bound, bound + 1)
    m = tuple(rng.randrange(-bound, bound + 1) for _ in range(session.r))
    return session.algebra.loop_mode(a, m0, m)


# ---------------------------------------------------------------------------
# The suite.

class SuiteReport:
    def __init__(self, findings: list, config_digest: str = ""):
        self.findings = findings
        self.config_digest = config_digest

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    @property
    def cap_exceeded(self) -> bool:
        return any(f.status == "cap_exceeded" for f in self.findings)

    def to_json(self) -> dict:
        return {"ok": self.ok, "cap_exceeded": self.cap_exceeded,
                "config_digest": self.config_digest,
                "findings": [f.to_json() for f in self.findings]}

    def summary_lines(self):
        for f in self.findings:
            tag = {"pass": "PASS", "fail": "FAIL", "cap_exceeded": "CAP "}[f.status]
            yield f"[{tag}] {f.law} :: {f.detail.get('states', '')} ({f.wall_ms} ms)"


def _lie_findings(session: Session, window: ModeWindow, rng, samples: int) -> list:
    def run_validate():
        rep = validate_lie_spec(session.spec)
        return None if rep.ok else rep.to_json()

    def run_jacobi():
        for t in range(samples):
            x, y, z = (sample_toroidal(session, rng) for _ in range(3))
            br = session.algebra.bracket
            total = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
            if not total.is_zero():
                return {"triple": [repr(x), repr(y), repr(z)], "residual": repr(total)}
        return None

    def run_derivation():
        for t in range(samples // 2 or 1):
            x, y = sample_toroidal(session, rng), sample_toroidal(session, rng)
            for i in range(session.r + 1):
                d = ToroidalElement.derivation(session.r, i)
                br = session.algebra.bracket
                lhs = br(d, br(x, y))
                rhs = br(br(d, x), y) + br(x, br(d, y))
                if lhs != rhs:
                    return {"i": i, "pair": [repr(x), repr(y)]}
        return None

    return [_finding("lie algebra hypotheses", window, {}, run_validate),
            _finding("loop-algebra jacobi", window, {"samples": samples}, run_jacobi),
            _finding("derivation property", window, {"samples": samples // 2 or 1},
                     run_derivation)]


def _module_findings(session: Session, window: ModeWindow, rng, samples: int,
                     module=None, tag="vacuum module") -> list:
    mod = module or session.module

    def run_law():
        for t in range(samples):
            x, y = sample_toroidal(session, rng, 2), sample_toroidal(session, rng, 2)
            w = sample_state(session, rng, window)
            lhs = mod.act_elem(x, mod.act_elem(y, w)) - mod.act_elem(y, mod.act_elem(x, w))
            rhs = mod.act_elem(session.algebra.bracket(x, y), w)
            if lhs != rhs:
                return {"pair": [repr(x), repr(y)], "state": state_to_json(session.spec, w)}
        return None

    def run_grading():
        for t in range(samples):
            w = sample_state(session, rng, window)
            d = w.max_degree()
            a = rng.randrange(session.spec.dim)
            n0 = rng.randrange(window.m0_lo, window.m0_hi + 1)
            n = tuple(rng.randrange(lo, hi + 1) for lo, hi in window.m_box)
            img = mod.act(a, n0, n, w)
            if img and img.degrees() != [d - n0]:
                return {"mode": [n0, list(n)], "degrees": img.degrees(), "expected": d - n0}
        return None

    def run_restricted():
        for st in window.states:
            d = st.max_degree()
            for a in range(session.spec.dim):
                for n in window.m_values():
                    for n0 in range(d + 1, d + 4):
                        if mod.act(a, n0, n, st):
                            return {"mode": [n0, list(n)], "witness": d}
        return None

    return [_finding("module law", window, {"states": tag, "samples": samples}, run_law),
            _finding("grading shift", window, {"states": tag, "samples": samples}, run_grading),
            _finding("restrictedness witness", window, {"states": tag}, run_restricted)]


def _product_table_findings(session: Session, window: ModeWindow,
                            expect_session: Optional[Session] = None) -> list:
    """Generator products against their closed form; expectations may come
    from a pristine session when the acting one is mutated."""
    exp = expect_session or session

    def run():
        for a in session.spec.basis:
            for b in session.spec.basis:
                for m in window.m_values():
                    for m0 in range(0, window.m0_hi + 1):
                        got = session.product(session.tail(a), m0, m, session.tail(b))
                        want = exp.expected_generator_product(a, m0, b)
                        if got != want:
                            return {"pair": [a, b], "mode": [m0, list(m)],
                                    "lhs": state_to_json(session.spec, got),
                                    "rhs": state_to_json(session.spec, want)}
        return None
    return [_finding("generator product table", window, {}, run)]


def expected_locality(session: Session, a, b) -> tuple:
    """(kind, value): ('exact', 2) when the pairing times level is nonzero,
    ('at_most', 1) when that vanishes but the bracket does not, ('exact', 0)
    when both vanish."""
    ai, bi = session.spec.index_of(a), session.spec.index_of(b)
    if session.spec.pairing_basis(ai, bi) * session.level != 0:
        return ("exact", 2)
    if session.spec.bracket_basis(ai, bi):
        return ("at_most", 1)
    return ("exact", 0)


def _locality_findings(session: Session, window: ModeWindow) -> list:
    def run():
        for a in session.spec.basis:
            for b in session.spec.basis:
                ha, hb = session.fields.current(a), session.fields.current(b)
                k = session.fields.locality_order(ha, hb, window)
                kind, val = expected_locality(session, a, b)
                if k is None:
                    return {"pair": [a, b], "order": "exceeds bound"}
                if kind == "exact" and k != val:
                    return {"pair": [a, b], "order": k, "expected": val}
                if kind == "at_most" and k > val:
                    return {"pair": [a, b], "order": k, "expected_at_most": val}
        return None
    return [_finding("generator locality orders", window, {}, run)]


def _oracle_findings(session: Session, window: ModeWindow, rng, pairs: int) -> list:
    """Recursion-vs-residue-oracle agreement for generator pairs on all window
    modes and for sampled deeper pairs."""
    fs = session.fields
    currents = [fs.current(a) for a in session.spec.basis]

    def run_generators():
        for ha in currents:
            for hb in currents:
                for (m0, m) in window.modes():
                    prod = fs.product(ha, m0, m, hb, window=window)
                    for (k0, k) in window.modes():
                        for si, w in enumerate(window.states):
                            got = fs.mode(prod, k0, k, w)
                            want = fs.residue_oracle_mode(ha, m0, m, hb, k0, k, w)
                            if got != want:
                                return {"pair": [ha.label, hb.label],
                                        "product_mode": [m0, list(m)],
                                        "mode": [k0, list(k)], "state": si}
        return None

    def run_deep():
        modes = list(window.modes())
        for t in range(pairs):
            base = rng.sample(currents, k=min(2, len(currents))) if len(currents) >= 2 else currents * 2
            (m0, m) = rng.choice(modes)
            deep = fs.product(base[0], m0, m, base[-1], window=window)
            other = rng.choice(currents + [deep])
            (p0, p) = rng.choice(modes)
            prod = fs.product(deep, p0, p, other, window=window)
            for _ in range(4):
                (k0, k) = rng.choice(modes)
                w = rng.choice(window.states)
                if fs.mode(prod, k0, k, w) != fs.residue_oracle_mode(deep, p0, p, other, k0, k, w):
                    return {"pair": [deep.label, other.label], "mode": [k0, list(k)]}
        return None

    return [_finding("product oracle equivalence", window, {"scope": "generators"}, run_generators),
            _finding("product oracle equivalence", window, {"scope": f"{pairs} deep pairs"}, run_deep)]


def _derivative_findings(session: Session, window: ModeWindow) -> list:
    """Derivative handles against the generating-function shifts: the first
    slot obeys (D0 a)_(m0,m) b = -m0 a_(m0-1,m) b and
    (Di a)_(m0,m) b = -m_i a_(m0,m) b.  A left side's mode is read once; a
    reference product's modes are read again only within their generator
    pair, so they are held in a table local to the pair, as
    :meth:`AxiomChecker._composite_modes` holds a skew pair's.  The locality
    orders of a and of its r + 1 derivatives against b are settled first on
    one commutator table, which the derivative scans read a's entries from
    and which is emptied when the last order is settled
    (:meth:`FieldSpace.locality_orders`)."""
    fs = session.fields
    states = window.states

    def run():
        currents = [fs.current(a) for a in session.spec.basis]
        for ha, hb in itertools.product(currents, repeat=2):
            ref = functools.cache(lambda c0, C: fs.product(ha, c0, C, hb, window=window))
            ref_mode = functools.cache(
                lambda c0, C, k0, k, si: fs.mode(ref(c0, C), k0, k, states[si]))
            derivatives = [fs.derivative(i, ha) for i in range(session.r + 1)]
            fs.locality_orders([ha, *derivatives], hb, window)
            for i, da in enumerate(derivatives):
                for (m0, m) in window.modes():
                    lhs = fs.product(da, m0, m, hb, window=window)
                    c0, scale = (m0 - 1, -m0) if i == 0 else (m0, -m[i - 1])
                    for (k0, k) in window.modes():
                        for si, w in enumerate(states):
                            if fs.mode(lhs, k0, k, w) != ref_mode(c0, m, k0, k, si).scaled(scale):
                                return {"pair": [ha.label, hb.label], "i": i,
                                        "product_mode": [m0, list(m)], "mode": [k0, list(k)]}
        return None
    return [_finding("derivative shift relations", window, {}, run)]


def _transfer_findings(session: Session, window: ModeWindow) -> list:
    """Bracket expansions of generator currents transferred to products: the
    order-0 coefficient is the bracket current, the order-1 coefficient is
    level times the pairing, everything above vanishes."""
    fs = session.fields

    def run():
        one = fs.identity()
        for a in session.spec.basis:
            for b in session.spec.basis:
                ha, hb = fs.current(a), fs.current(b)
                ai, bi = session.spec.index_of(a), session.spec.index_of(b)
                for m in window.m_values():
                    c0 = fs.linear_combination(
                        [(fs.current(k), c) for k, c in sorted(session.spec.bracket_basis(ai, bi).items())])
                    c1coef = session.level * session.spec.pairing_basis(ai, bi)
                    coeffs = [c0, fs.linear_combination([(one, c1coef)])]
                    fails = fs.transfer_check(ha, hb, coeffs, m, window)
                    if fails:
                        return {"pair": [a, b], "m": list(m), "failures": fails[:3]}
        return None
    return [_finding("commutator-to-product transfer", window, {}, run)]


def _axiom_findings(session: Session, window: ModeWindow, rng, samples: int) -> list:
    """The main identity on every generator triple and on sampled triples,
    then the mixed-index commutator on sampled window tuples; each random
    triple is drawn before its check draws its spot checks."""
    checker = AxiomChecker(session)
    gens = [(b, session.tail(b)) for b in session.spec.basis]
    out = [check_jacobi(checker, u, v, w, window, rng=rng, label=f"({la},{lb},{lc})")
           for (la, u), (lb, v), (lc, w) in itertools.product(gens, repeat=3)]
    for t in range(max(2, samples // 4)):
        u, v, w = (sample_state(session, rng, window) for _ in range(3))
        out.append(check_jacobi(checker, u, v, w, window, rng=rng, label=f"random#{t}"))
    first, last = gens[0][1], gens[-1][1]
    out.append(_finding("mixed-index commutator", window, {},
                        lambda: checker.commutator_slice_witness(first, last, window, 10, rng)))
    return out


def _skew_findings(session: Session, window: ModeWindow) -> list:
    checker = AxiomChecker(session)
    gens = [(b, session.tail(b)) for b in session.spec.basis]
    return [check_skew_symmetry(checker, u, v, window, label=f"({la},{lb})")
            for (la, u), (lb, v) in itertools.product(gens, repeat=2)]


def _vacuum_findings(session: Session, window: ModeWindow, rng) -> list:
    """Vacuum expansion and creation for each generator tail and three
    sampled states."""
    checker = AxiomChecker(session)
    states = [(b, session.tail(b)) for b in session.spec.basis]
    states += [(f"random#{t}", sample_state(session, rng, window)) for t in range(3)]
    out = []
    for label, u in states:
        out += [check_vacuum_expansion(checker, u, window, label=label),
                check_creation(session, u, window, label=label)]
    return out


def _vacuum_ideal_findings(session: Session, window: ModeWindow, rng,
                           ideal_holder: Optional[dict] = None) -> list:
    """Findings on the vacuum ideal, built to the window's depth by the first
    check.  It keeps in ``ideal_holder`` (a caller may pass one in) only what
    is read again: ``graded_dims``, ``basis_size``, the first 12 spanning
    states as ``support_states``, and the chain ``labels`` when there are at
    most 200 (else None); the other chain states are freed when it ends."""
    out = []
    ideal_holder = {} if ideal_holder is None else ideal_holder

    def run_dims():
        ideal = session.build_vacuum_ideal(window.depth, window)
        spanning = ideal.spanning
        ideal_holder.update(
            graded_dims=ideal.graded_dims, basis_size=len(ideal.basis),
            support_states=spanning[:12],
            labels=[session.chain_label(st) for st in spanning] if len(spanning) <= 200 else None)
        if not ideal.tail_free():
            return {"part": "tails leaked into the ideal"}
        kmax, box = -window.m0_lo, window.box_size
        counts = loop_affine_graded_dims(
            lambda k: session.spec.dim * box if k <= kmax else 0, window.depth)
        got = {d: ideal.graded_dims.get(d, 0) for d in range(window.depth + 1)}
        want = {d: counts[d] for d in range(window.depth + 1)}
        if got != want:
            return {"got": got, "want": want}
        return None
    out.append(_finding("vacuum-ideal graded dimensions", window, {"depth": window.depth}, run_dims))

    def run_affine_commutator():
        """One-variable modes of depth-1 ideal states satisfy the affinisation
        bracket of the loop algebra, with pairing <a@m, b@n> = <a,b> d(m+n)."""
        vac = session.vacuum()
        labels = session.spec.basis
        boxes = list(window.m_values())
        modes0 = range(window.m0_lo, window.m0_hi + 1)
        tails = [session.tail(x) for x in labels]
        zero = mi_zero(session.r)
        # every value that does not depend on (p0, q0, w) is computed once
        depth1 = {(a, m): session.product(tails[a], -1, m, vac)
                  for a in range(session.spec.dim) for m in boxes}
        inner = {(am, p0, wi): session.ordinary_mode(x, p0, w) for am, x in depth1.items()
                 for p0 in modes0 for wi, w in enumerate(window.states)}
        for a in range(session.spec.dim):
            for b in range(session.spec.dim):
                for m in boxes:
                    br = session.product(tails[a], 0, m, tails[b])
                    for n in boxes:
                        u, v, mn = depth1[a, m], depth1[b, n], mi_add(m, n)
                        brv = session.product(br, -1, mn, vac) if br else None
                        for p0 in modes0:
                            for q0 in modes0:
                                for wi, w in enumerate(window.states):
                                    lhs = (session.ordinary_mode(u, p0, inner[(b, n), q0, wi])
                                           - session.ordinary_mode(v, q0, inner[(a, m), p0, wi]))
                                    rhs = ZERO_STATE
                                    if br:
                                        rhs = session.ordinary_mode(brv, p0 + q0, w)
                                    if mn == zero and p0 + q0 == 0:
                                        c = p0 * session.spec.pairing_basis(a, b) * session.level
                                        rhs = rhs + w.scaled(c)
                                    if lhs != rhs:
                                        return {"pair": [labels[a], labels[b]],
                                                "m": list(m), "n": list(n), "modes": [p0, q0]}
        return None
    out.append(_finding("vacuum-ideal affine commutators", window, {}, run_affine_commutator))

    def run_reconstruction():
        """Every window mode of the operator of u is the matching mode of the
        one-variable operator of its (-1, n) product against the vacuum."""
        vac = session.vacuum()
        samples = [session.tail(b) for b in session.spec.basis]
        samples += [sample_state(session, rng, window) for _ in range(3)]
        for u in samples:
            for (n0, n) in window.modes():
                for w in window.states:
                    direct = session.vertex_mode(u, n0, n, w)
                    piece = session.product(u, -1, n, vac)
                    through = (session.ordinary_mode(piece, n0, w)
                               if piece and piece.is_tail_free() else ZERO_STATE)
                    if piece and not piece.is_tail_free():
                        return {"part": "product against vacuum left the ideal"}
                    if direct != through:
                        return {"mode": [n0, list(n)],
                                "lhs": state_to_json(session.spec, direct),
                                "rhs": state_to_json(session.spec, through)}
        return None
    out.append(_finding("vacuum-ideal reconstruction", window, {}, run_reconstruction))

    def run_support():
        for st in ideal_holder["support_states"]:
            if not st:
                continue
            supp = session.support(st)
            if len(supp) != 1:
                continue
            bad = session.homogeneous_support_failures(st, window)
            if bad:
                return {"state": session.chain_label(st), "offending": bad[:3]}
        return None
    out.append(_finding("vacuum-ideal single-degree support", window, {}, run_support))

    checker = AxiomChecker(session)

    def ideal_samples():
        vac = session.vacuum()
        seeds = [vac]
        for b in session.spec.basis:
            for m in list(window.m_values())[:2]:
                seeds.append(session.product(session.tail(b), -1, m, vac))
        seeds.append(session.product(session.tail(session.spec.basis[0]), -2,
                                     next(iter(window.m_values())), vac))
        return [s for s in seeds if s]

    def run_ordinary_jacobi():
        seeds = ideal_samples()
        O = lambda x, n0, _, t: session.ordinary_mode(x, n0, t)  # no multidegree slot
        for t in range(12):
            u, v = rng.choice(seeds), rng.choice(seeds)
            w = rng.choice(window.states)
            p = rng.randrange(window.m0_lo, window.m0_hi + 1)
            q = rng.randrange(window.m0_lo, window.m0_hi + 1)
            n = rng.randrange(window.m0_lo, window.m0_hi + 1)
            res = checker._residual(O, O, u, v, w, p, (), q, (), n)
            if res:
                return {"tuple": [p, q, n], "residual": state_to_json(session.spec, res)}
        return None
    out.append(_finding("vacuum-ideal one-variable jacobi", window, {}, run_ordinary_jacobi))

    def run_ordinary_creation():
        for u in ideal_samples():
            wtn = checker.ordinary_creation_witness(u, window)
            if wtn is None:
                wtn = checker.ordinary_derivative_witness(u, window)
            if wtn is not None:
                return wtn
        return None
    out.append(_finding("vacuum-ideal creation and derivative", window, {}, run_ordinary_creation))
    return out


def _module_variant_findings(session: Session, window: ModeWindow, rng, samples: int) -> list:
    """The module checks and one Jacobi triple on the vacuum module twisted by
    a unit shift of the first toroidal degree."""
    shift = tuple([1] + [0] * (session.r - 1))
    mod = ShiftedModule(session.module, shift)
    out = _module_findings(session, window, rng, samples, module=mod,
                           tag=f"shifted module {shift}")
    gens = [session.tail(b) for b in session.spec.basis]
    out.append(check_jacobi(AxiomChecker(session, module=mod), gens[0], gens[-1], gens[0],
                            window, rng=rng, label="shifted module"))
    return out


# Check groups in report order: name -> builder(session, window, rng, samples).
GROUPS = {
    "lie": lambda s, win, rng, samples: _lie_findings(s, win, rng, max(samples, 100)),
    "module": _module_findings,
    "table": lambda s, win, rng, samples: _product_table_findings(s, win),
    "locality": lambda s, win, rng, samples: _locality_findings(s, win),
    "oracle": lambda s, win, rng, samples: _oracle_findings(s, win, rng, max(4, samples // 4)),
    "derivative": lambda s, win, rng, samples: _derivative_findings(s, win),
    "transfer": lambda s, win, rng, samples: _transfer_findings(s, win),
    "axioms": _axiom_findings,
    "skew": lambda s, win, rng, samples: _skew_findings(s, win),
    "vacuum": lambda s, win, rng, samples: _vacuum_findings(s, win, rng),
    "ideal": lambda s, win, rng, samples: _vacuum_ideal_findings(s, win, rng),
    "module-variant": _module_variant_findings,
}
CHECK_GROUPS = tuple(GROUPS)


def run_suite(session: Session, window: ModeWindow, seed: int = 0,
              checks: Optional[Sequence[str]] = None, samples: int = 20) -> SuiteReport:
    """Run the check groups named in ``checks`` (default: all) over one window,
    in :data:`GROUPS` order, and aggregate their findings; the vacuum ideal is
    built to ``window.depth``.  Each group draws from its own stream, seeded by
    ``seed`` and the group's name, so its findings do not depend on which other
    groups run or in what order, or in which process: the memo tables a group
    fills never change a result.  That independence is what lets ``torva
    axioms`` run one group per forked worker with the serial run's report."""
    selected = set(GROUPS if checks is None else checks)
    unknown = selected - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown check groups: {sorted(unknown)}")
    findings = []
    for name, build in GROUPS.items():
        if name in selected:
            findings.extend(build(session, window, random.Random(f"{seed}:{name}"), samples))
    return SuiteReport(findings)


# ---------------------------------------------------------------------------
# Mutation testing: every single-constant corruption must trip the suite.

def mutation_catalog(session: Session):
    """(name, mutated-session) pairs: each nonzero structure constant bumped,
    one diagonal bracket, every form entry bumped, and the central cocycle
    rescaled."""
    spec = session.spec

    def remake(new_spec=None, cocycle=1):
        return Session(new_spec or spec, session.r, session.level,
                       cocycle_scale=cocycle)

    for (i, j), row in sorted(spec.brackets.items()):
        if i > j:
            continue
        for k in sorted(row):
            yield (f"struct[{spec.basis[i]},{spec.basis[j]}->{spec.basis[k]}]+1",
                   remake(spec.with_structure_entry(i, j, k, 1)))
    yield (f"struct[{spec.basis[0]},{spec.basis[0]}->{spec.basis[0]}]+1",
           remake(spec.with_structure_entry(0, 0, 0, 1)))
    for i in range(spec.dim):
        for j in range(spec.dim):
            yield (f"form[{spec.basis[i]},{spec.basis[j]}]+1",
                   remake(spec.with_form_entry(i, j, 1)))
    yield ("cocycle*2", remake(cocycle=2))


def detect_mutation(pristine: Session, mutated: Session, window: ModeWindow,
                    rng: random.Random) -> Optional[str]:
    """Name of the first check that catches the corruption, or None."""
    if not validate_lie_spec(mutated.spec).ok:
        return "lie algebra hypotheses"
    # window-level detection first: the product table exercises the actual
    # mode machinery against pristine closed forms
    table = _product_table_findings(mutated, window, expect_session=pristine)
    if not all(f.ok for f in table):
        return "generator product table"
    for _ in range(40):
        a = rng.randrange(pristine.spec.dim)
        b = rng.randrange(pristine.spec.dim)
        m0 = rng.randrange(-2, 3)
        m = tuple(rng.randrange(-1, 2) for _ in range(pristine.r))
        x = pristine.algebra.loop_mode(a, m0, m)
        y = pristine.algebra.loop_mode(b, -m0, tuple(-c for c in m))
        if pristine.algebra.bracket(x, y) != mutated.algebra.bracket(x, y):
            return "loop-algebra bracket table"
    checker = AxiomChecker(mutated)
    gens = [mutated.tail(b) for b in mutated.spec.basis]
    f = check_jacobi(checker, gens[0], gens[-1], gens[0], window, rng=rng)
    if not f.ok:
        return "jacobi identity"
    return None


def run_mutation_suite(session: Session, window: ModeWindow, seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    findings = []
    for name, mutated in mutation_catalog(session):
        detail = {"mutation": name}

        def run():
            caught = detect_mutation(session, mutated, window, rng)
            if caught:
                detail["caught_by"] = caught
                return None
            return {"mutation": name}
        findings.append(_finding("mutation detected", window, detail, run))
    return SuiteReport(findings)
