"""Coefficientwise verification of the axioms and derived identities.

Every check reduces a formal-distribution identity to exact rational
equalities of module elements over a finite window of mode indices and test
states, and returns a machine-readable :class:`Finding`.  A pass certifies
the identity on the window, never beyond; a failure carries the offending
coefficient tuple and both side values, enough to reproduce it.

The main identity is checked through its two finite halves, weak
commutativity

    (x0-y0)^k Y(u;x0,x) Y(v;y0,y) = (x0-y0)^k Y(v;y0,y) Y(u;x0,x)

and weak associativity

    (z0+y0)^l Y(Y(u;z0,z)v;y0,y) w = (z0+y0)^l Y(u;z0+y0,zy) Y(v;y0,y) w,

whose exponents are found by upward search under a cap; the single-identity
coefficient form is kept as a randomised spot check of the equivalence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .fields import ModeWindow
from .liecore import (Rational, ToroidalElement, frac, mi_add, mi_sub, mi_zero,
                      validate_lie_spec)
from .series import binom
from .states import LRUCache, ShiftedModule, StateVector, ZERO_STATE, _accumulate, state_to_json
from .vertexops import Session, loop_affine_graded_dims


@dataclass
class Finding:
    """One verified (or refuted) identity instance.

    ``witness`` is None on a pass; on a failure it holds the coefficient
    tuple, the state index, and both side values, so the instance can be
    replayed from the finding alone.
    """
    law: str
    window: dict
    status: str                      # "pass" | "fail" | "cap_exceeded"
    witness: Optional[dict] = None
    wall_ms: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"identity": self.law, "window": self.window,
                "status": self.status, "witness": self.witness,
                "wall_ms": self.wall_ms, "detail": self.detail}


def _finding(law, window, detail, fn) -> Finding:
    t0 = time.perf_counter()
    status, witness = fn()
    ms = int((time.perf_counter() - t0) * 1000)
    return Finding(law, window.describe(), status, witness, ms, detail)


class AxiomChecker:
    """Evaluation context for the identity checks: one session, one module
    (the vacuum module or a twist of it), shared commutator cache."""

    def __init__(self, session: Session, module=None, cache_entries: int = 200_000):
        self.session = session
        self.module = module or session.module
        self._com = LRUCache(cache_entries)

    # -- primitives -------------------------------------------------------------

    def vm(self, v, n0, n, w):
        return self.session.vertex_mode(v, n0, n, w, module=self.module)

    def com(self, u, v, a0, a, b0, b, w) -> StateVector:
        key = (self.module.key, u, v, a0, a, b0, b, w)
        out = self._com.get(key)
        if out is None:
            out = (self.vm(u, a0, a, self.vm(v, b0, b, w))
                   - self.vm(v, b0, b, self.vm(u, a0, a, w)))
            self._com.put(key, out)
        return out

    # -- weak commutativity --------------------------------------------------------

    def weak_commutativity_witness(self, u, v, k: int, window: ModeWindow):
        """First window tuple violating (x0-y0)^k [Y(u), Y(v)] = 0, or None."""
        for (p0, p) in window.modes():
            for (q0, q) in window.modes():
                for si, w in enumerate(window.states):
                    acc = {}
                    for i in range(k + 1):
                        c = binom(k, i) * (-1 if i % 2 else 1)
                        _accumulate(acc, self.com(u, v, p0 + k - i, p, q0 + i, q, w), c)
                    if acc:
                        return {"tuple": [p0, list(p), q0, list(q)], "state": si,
                                "residual": state_to_json(self.session.spec, StateVector(acc))}
        return None

    def find_commutativity_order(self, u, v, window: ModeWindow, cap: int) -> Optional[int]:
        for k in range(cap + 1):
            if self.weak_commutativity_witness(u, v, k, window) is None:
                return k
        return None

    # -- weak associativity ----------------------------------------------------------

    def weak_associativity_witness(self, u, v, w, l: int, window: ModeWindow):
        """Compare both sides of the l-th weak associativity relation on every
        window coefficient (a0, aa, b0, b); w is a fixed module state."""
        sess = self.session
        for (a0, aa) in window.modes():
            for (b0, b) in window.modes():
                lhs = {}
                for j in range(l + 1):
                    inner = sess.product(u, l - j + a0, aa, v)
                    if inner:
                        _accumulate(lhs, self.vm(inner, j + b0, b, w), binom(l, j))
                rhs = {}
                baa = mi_sub(b, aa)
                hi = self.module.max_degree(w) + v.max_degree() - 1 - b0
                for i in range(hi + 1):
                    t = self.vm(v, b0 + i, baa, w)
                    if t:
                        c = binom(a0, i) * (-1 if i % 2 else 1)
                        _accumulate(rhs, self.vm(u, l + a0 - i, aa, t), c)
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

    def jacobi_coefficient_residual(self, u, v, w, p0, P, q0, Q, n):
        """Difference of the two sides of the main identity at one coefficient
        tuple; zero iff the identity holds there."""
        sess = self.session
        lhs = {}
        QP = mi_sub(Q, P)
        hi1 = self.module.max_degree(w) + v.max_degree() - 1 - q0
        if n >= 0:
            hi1 = min(hi1, n)
        for i in range(hi1 + 1):
            t = self.vm(v, q0 + i, QP, w)
            if t:
                c = binom(n, i) * (-1 if i % 2 else 1)
                _accumulate(lhs, self.vm(u, p0 + n - i, P, t), c)
        sign_n = -1 if n % 2 else 1
        hi2 = self.module.max_degree(w) + u.max_degree() - 1 - p0
        if n >= 0:
            hi2 = min(hi2, n)
        for i in range(hi2 + 1):
            t = self.vm(u, p0 + i, P, w)
            if t:
                c = -sign_n * binom(n, i) * (-1 if i % 2 else 1)
                _accumulate(lhs, self.vm(v, q0 + n - i, QP, t), c)
        rhs = {}
        hj = v.max_degree() + u.max_degree() - 1 - n
        if p0 >= 0:
            hj = min(hj, p0)
        for j in range(hj + 1):
            inner = sess.product(u, n + j, P, v)
            if inner:
                _accumulate(rhs, self.vm(inner, p0 + q0 - j, Q, w), binom(p0, j))
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
        return StateVector(acc)

    def skew_symmetry_witness(self, u, v, window: ModeWindow):
        """Composite vertex operators of (u, v) against the skew transform of
        those of (v, u), coefficientwise on the window."""
        sess = self.session

        def Fuv(c0, C, d0, D, w):
            return self.vm(sess.product(u, c0, C, v), d0, D, w)

        def Fvu(c0, C, d0, D, w):
            return self.vm(sess.product(v, c0, C, u), d0, D, w)

        bound_vu = u.max_degree() + v.max_degree() - 1
        for (a0, A) in window.modes():
            for (b0, B) in window.modes():
                for si, w in enumerate(window.states):
                    lhs = Fuv(a0, A, b0, B, w)
                    rhs = self._skew_transform(
                        lambda c0, C, d0, D: Fvu(c0, C, d0, D, w),
                        a0, A, b0, B, max(bound_vu - a0, 0))
                    if lhs != rhs:
                        return {"tuple": [a0, list(A), b0, list(B)], "state": si,
                                "lhs": state_to_json(sess.spec, lhs),
                                "rhs": state_to_json(sess.spec, rhs)}
        return None

    def skew_involution_witness(self, u, v, window: ModeWindow):
        """Applying the skew transform twice must return the original
        composite modes (binomial telescoping, checked on the window)."""
        sess = self.session
        bound = u.max_degree() + v.max_degree() - 1
        for (a0, A) in window.modes():
            for (b0, B) in window.modes():
                for si, w in enumerate(window.states):
                    def F(c0, C, d0, D):
                        return self.vm(sess.product(u, c0, C, v), d0, D, w)

                    def TF(c0, C, d0, D):
                        return self._skew_transform(F, c0, C, d0, D, max(bound - c0, 0))

                    twice = self._skew_transform(TF, a0, A, b0, B, max(bound - a0, 0))
                    direct = F(a0, A, b0, B)
                    if twice != direct:
                        return {"tuple": [a0, list(A), b0, list(B)], "state": si}
        return None

    # -- vacuum expansion trio ----------------------------------------------------------

    def vacuum_expansion_witness(self, u, window: ModeWindow, shift_orders=(0, 1, 2)):
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
        for k in shift_orders:
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

    def ordinary_jacobi_residual(self, u, v, w, p: int, q: int, n: int) -> StateVector:
        """One-variable coefficient identity for tail-free states u, v applied
        to w: the collapsed modes must satisfy the ordinary Borcherds-style
        relation.  Returns LHS - RHS."""
        sess = self.session
        O = lambda x, n0, t: sess.ordinary_mode(x, n0, t, module=self.module)
        lhs = {}
        hi1 = self.module.max_degree(w) + v.max_degree() - 1 - q
        if n >= 0:
            hi1 = min(hi1, n)
        for i in range(hi1 + 1):
            t = O(v, q + i, w)
            if t:
                c = binom(n, i) * (-1 if i % 2 else 1)
                _accumulate(lhs, O(u, p + n - i, t), c)
        sign_n = -1 if n % 2 else 1
        hi2 = self.module.max_degree(w) + u.max_degree() - 1 - p
        if n >= 0:
            hi2 = min(hi2, n)
        for i in range(hi2 + 1):
            t = O(u, p + i, w)
            if t:
                c = -sign_n * binom(n, i) * (-1 if i % 2 else 1)
                _accumulate(lhs, O(v, q + n - i, t), c)
        rhs = {}
        hj = v.max_degree() + u.max_degree() - 1 - n
        if p >= 0:
            hj = min(hj, p)
        for j in range(hj + 1):
            inner = self.session.ordinary_mode(u, n + j, v)  # stays tail-free
            if inner:
                _accumulate(rhs, O(inner, p + q - j, w), binom(p, j))
        return StateVector(lhs) - StateVector(rhs)

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
                            "rhs": state_to_json(sess.spec, rhs)}
        return None

    # -- mixed-index commutator --------------------------------------------------------

    def commutator_slice_witness(self, u, v, window: ModeWindow, samples, rng):
        """[Y(u; x0, m), Y(v; y0, n)] as a finite sum of products at the
        combined toroidal index, on sampled window tuples."""
        tuples = [(p0, p, q0, q) for (p0, p) in window.modes() for (q0, q) in window.modes()]
        rng.shuffle(tuples)
        for (p0, p, q0, q) in tuples[:samples]:
            for si, w in enumerate(window.states):
                lhs = self.com(u, v, p0, p, q0, q, w)
                acc = {}
                hj = v.max_degree() + u.max_degree() - 1
                if p0 >= 0:
                    hj = min(hj, p0)
                for j in range(hj + 1):
                    inner = self.session.product(u, j, p, v)
                    if inner:
                        _accumulate(acc, self.vm(inner, p0 + q0 - j, mi_add(p, q), w),
                                    binom(p0, j))
                if lhs != StateVector(acc):
                    return {"tuple": [p0, list(p), q0, list(q)], "state": si}
        return None


# ---------------------------------------------------------------------------
# Finding-producing wrappers.

def check_weak_commutativity(checker, u, v, k, window, label="") -> Finding:
    def run():
        wtn = checker.weak_commutativity_witness(u, v, k, window)
        return ("pass", None) if wtn is None else ("fail", wtn)
    return _finding("weak commutativity", window, {"k": k, "states": label}, run)


def check_weak_associativity(checker, u, v, w, l, window, label="") -> Finding:
    def run():
        wtn = checker.weak_associativity_witness(u, v, w, l, window)
        return ("pass", None) if wtn is None else ("fail", wtn)
    return _finding("weak associativity", window, {"l": l, "states": label}, run)


def check_jacobi(checker, u, v, w, window, cap=8, rng=None, spot_checks=10, label="") -> Finding:
    """Main identity via its two finite halves, with exponents found by
    upward search, plus randomized single-identity coefficient spot checks."""
    rng = rng or random.Random(0)

    def run():
        k = checker.find_commutativity_order(u, v, window, cap)
        if k is None:
            return "cap_exceeded", {"part": "commutativity", "cap": cap}
        l = checker.find_associativity_order(u, v, w, window, cap)
        if l is None:
            return "cap_exceeded", {"part": "associativity", "cap": cap}
        modes = list(window.modes())
        for _ in range(spot_checks):
            (p0, P) = rng.choice(modes)
            (q0, Q) = rng.choice(modes)
            n = rng.randrange(window.m0_lo, window.m0_hi + 1)
            res = checker.jacobi_coefficient_residual(u, v, w, p0, P, q0, Q, n)
            if res:
                return "fail", {"part": "coefficient-form",
                                "tuple": [p0, list(P), q0, list(Q), n],
                                "residual": state_to_json(checker.session.spec, res)}
        return "pass", None

    return _finding("jacobi identity", window, {"cap": cap, "states": label}, run)


def check_skew_symmetry(checker, u, v, window, label="") -> Finding:
    def run():
        wtn = checker.skew_symmetry_witness(u, v, window)
        if wtn is not None:
            return "fail", wtn
        wtn = checker.skew_involution_witness(u, v, window)
        if wtn is not None:
            wtn["part"] = "involution"
            return "fail", wtn
        return "pass", None
    return _finding("skew symmetry", window, {"states": label}, run)


def check_vacuum_expansion(checker, u, window, label="") -> Finding:
    def run():
        wtn = checker.vacuum_expansion_witness(u, window)
        return ("pass", None) if wtn is None else ("fail", wtn)
    return _finding("vacuum expansion", window, {"states": label}, run)


def check_creation(session, v, window, label="") -> Finding:
    def run():
        bad = session.creation_failures(v, window)
        if bad:
            return "fail", {"modes": [[n0, list(n)] for n0, n in bad]}
        return "pass", None
    return _finding("creation property", window, {"states": label}, run)


# ---------------------------------------------------------------------------
# Random sampling of states.

def sample_state(session: Session, rng: random.Random, window: ModeWindow,
                 max_word: int = 2, max_k: int = 2, tails=True) -> StateVector:
    """A random nonzero state of small degree with modes inside the window box."""
    for _ in range(50):
        word = []
        for _ in range(rng.randrange(0, max_word + 1)):
            k = rng.randrange(1, max_k + 1)
            a = rng.randrange(session.spec.dim)
            m = tuple(rng.randrange(lo, hi + 1) for lo, hi in window.m_box)
            word.append((k, a, m))
        tail = None
        if tails and rng.random() < 0.4:
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

@dataclass
class SuiteReport:
    findings: list
    config_digest: str = ""

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
    out = []

    def run_validate():
        rep = validate_lie_spec(session.spec)
        return ("pass", None) if rep.ok else ("fail", rep.to_json())
    out.append(_finding("lie algebra hypotheses", window, {}, run_validate))

    def run_jacobi():
        for t in range(samples):
            x, y, z = (sample_toroidal(session, rng) for _ in range(3))
            br = session.algebra.bracket
            total = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
            if not total.is_zero():
                return "fail", {"triple": [repr(x), repr(y), repr(z)], "residual": repr(total)}
        return "pass", None
    out.append(_finding("loop-algebra jacobi", window, {"samples": samples}, run_jacobi))

    def run_derivation():
        for t in range(samples // 2 or 1):
            x, y = sample_toroidal(session, rng), sample_toroidal(session, rng)
            for i in range(session.r + 1):
                d = ToroidalElement.derivation(session.r, i)
                br = session.algebra.bracket
                lhs = br(d, br(x, y))
                rhs = br(br(d, x), y) + br(x, br(d, y))
                if lhs != rhs:
                    return "fail", {"i": i, "pair": [repr(x), repr(y)]}
        return "pass", None
    out.append(_finding("derivation property", window, {"samples": samples // 2 or 1}, run_derivation))
    return out


def _module_findings(session: Session, window: ModeWindow, rng, samples: int,
                     module=None, tag="vacuum module") -> list:
    mod = module or session.module
    out = []

    def run_law():
        for t in range(samples):
            x, y = sample_toroidal(session, rng, 2), sample_toroidal(session, rng, 2)
            w = sample_state(session, rng, window)
            lhs = mod_act_elem(mod, x, mod_act_elem(mod, y, w)) - mod_act_elem(mod, y, mod_act_elem(mod, x, w))
            rhs = mod_act_elem(mod, session.algebra.bracket(x, y), w)
            if lhs != rhs:
                return "fail", {"pair": [repr(x), repr(y)],
                                "state": state_to_json(session.spec, w)}
        return "pass", None
    out.append(_finding("module law", window, {"states": tag, "samples": samples}, run_law))

    def run_grading():
        for t in range(samples):
            w = sample_state(session, rng, window)
            d = w.max_degree()
            a = rng.randrange(session.spec.dim)
            n0 = rng.randrange(window.m0_lo, window.m0_hi + 1)
            n = tuple(rng.randrange(lo, hi + 1) for lo, hi in window.m_box)
            img = mod.act(a, n0, n, w)
            if img and img.degrees() != [d - n0]:
                return "fail", {"mode": [n0, list(n)], "degrees": img.degrees(), "expected": d - n0}
        return "pass", None
    out.append(_finding("grading shift", window, {"states": tag, "samples": samples}, run_grading))

    def run_restricted():
        for st in window.states:
            d = st.max_degree()
            for a in range(session.spec.dim):
                for n in window.m_values():
                    for n0 in range(d + 1, d + 4):
                        if mod.act(a, n0, n, st):
                            return "fail", {"mode": [n0, list(n)], "witness": d}
        return "pass", None
    out.append(_finding("restrictedness witness", window, {"states": tag}, run_restricted))
    return out


def mod_act_elem(mod, x: ToroidalElement, w: StateVector) -> StateVector:
    """Loop+centre action through an arbitrary module's act(); the centre is
    the level scalar."""
    out = {}
    for (a, m0, m), c in x.loop.items():
        _accumulate(out, mod.act(a, m0, m, w), c)
    if x.central:
        _accumulate(out, w, x.central * mod.level)
    return StateVector(out)


def _product_table_findings(session: Session, window: ModeWindow,
                            expect_session: Optional[Session] = None) -> list:
    """Generator products against their closed form; expectations may come
    from a pristine session when the acting one is mutated."""
    exp = expect_session or session
    out = []

    def run():
        for a in session.spec.basis:
            for b in session.spec.basis:
                for m in window.m_values():
                    for m0 in range(0, window.m0_hi + 1):
                        got = session.product(session.tail(a), m0, m, session.tail(b))
                        want = exp.expected_generator_product(a, m0, b)
                        if got != want:
                            return "fail", {"pair": [a, b], "mode": [m0, list(m)],
                                            "lhs": state_to_json(session.spec, got),
                                            "rhs": state_to_json(session.spec, want)}
        return "pass", None
    out.append(_finding("generator product table", window, {}, run))
    return out


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
    out = []

    def run():
        for a in session.spec.basis:
            for b in session.spec.basis:
                ha, hb = session.fields.current(a), session.fields.current(b)
                k = session.fields.locality_order(ha, hb, window)
                kind, val = expected_locality(session, a, b)
                if k is None:
                    return "fail", {"pair": [a, b], "order": "exceeds bound"}
                if kind == "exact" and k != val:
                    return "fail", {"pair": [a, b], "order": k, "expected": val}
                if kind == "at_most" and k > val:
                    return "fail", {"pair": [a, b], "order": k, "expected_at_most": val}
        return "pass", None
    out.append(_finding("generator locality orders", window, {}, run))
    return out


def _oracle_findings(session: Session, window: ModeWindow, rng, pairs: int) -> list:
    """Recursion-vs-residue-oracle agreement for generator pairs on all window
    modes and for sampled deeper pairs."""
    out = []
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
                                return "fail", {"pair": [ha.label, hb.label],
                                                "product_mode": [m0, list(m)],
                                                "mode": [k0, list(k)], "state": si}
        return "pass", None
    out.append(_finding("product oracle equivalence", window, {"scope": "generators"}, run_generators))

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
                    return "fail", {"pair": [deep.label, other.label], "mode": [k0, list(k)]}
        return "pass", None
    out.append(_finding("product oracle equivalence", window, {"scope": f"{pairs} deep pairs"}, run_deep))
    return out


def _derivative_findings(session: Session, window: ModeWindow) -> list:
    """Derivative handles against the generating-function shifts: the first
    slot obeys (D0 a)_(m0,m) b = -m0 a_(m0-1,m) b and
    (Di a)_(m0,m) b = -m_i a_(m0,m) b."""
    fs = session.fields
    out = []

    def run():
        currents = [fs.current(a) for a in session.spec.basis]
        for ha in currents:
            for hb in currents:
                for i in range(session.r + 1):
                    da = fs.derivative(i, ha)
                    for (m0, m) in window.modes():
                        lhs = fs.product(da, m0, m, hb, window=window)
                        if i == 0:
                            ref = fs.product(ha, m0 - 1, m, hb, window=window)
                            scale = -m0
                        else:
                            ref = fs.product(ha, m0, m, hb, window=window)
                            scale = -m[i - 1]
                        for (k0, k) in window.modes():
                            for w in window.states:
                                if fs.mode(lhs, k0, k, w) != fs.mode(ref, k0, k, w).scaled(scale):
                                    return "fail", {"pair": [ha.label, hb.label], "i": i,
                                                    "product_mode": [m0, list(m)],
                                                    "mode": [k0, list(k)]}
        return "pass", None
    out.append(_finding("derivative shift relations", window, {}, run))
    return out


def _transfer_findings(session: Session, window: ModeWindow) -> list:
    """Bracket expansions of generator currents transferred to products: the
    order-0 coefficient is the bracket current, the order-1 coefficient is
    level times the pairing, everything above vanishes."""
    fs = session.fields
    out = []

    def run():
        one = fs.identity()
        for a in session.spec.basis:
            for b in session.spec.basis:
                ha, hb = fs.current(a), fs.current(b)
                ai, bi = session.spec.index_of(a), session.spec.index_of(b)
                for m in window.m_values():
                    c0 = _bracket_current(session, ai, bi)
                    c1coef = session.level * session.spec.pairing_basis(ai, bi)
                    coeffs = [c0, _scaled_identity(fs, c1coef)]
                    ok, fails = fs.transfer_check(ha, hb, coeffs, m, window)
                    if not ok:
                        return "fail", {"pair": [a, b], "m": list(m), "failures": fails[:3]}
        return "pass", None
    out.append(_finding("commutator-to-product transfer", window, {}, run))
    return out


def _bracket_current(session: Session, ai: int, bi: int):
    """The current of [a, b] as a field handle (finite sum of basis currents)."""
    fs = session.fields
    terms = [(k, c) for k, c in sorted(session.spec.bracket_basis(ai, bi).items())]

    from .fields import FieldHandle

    def ev(m0, m, w):
        out = {}
        for k, c in terms:
            _accumulate(out, session.module.act(k, m0, m, w), c)
        return StateVector(out)

    key = ("bracket-current", ai, bi)
    label = f"[{session.spec.basis[ai]},{session.spec.basis[bi]}]"
    return FieldHandle(key, 0, ev, label)


def _scaled_identity(fs, coeff: Rational):
    from .fields import FieldHandle
    one = fs.identity()

    def ev(m0, m, w):
        return fs.mode(one, m0, m, w).scaled(coeff)

    return FieldHandle(("scaled-one", str(coeff)), 1, ev, f"{coeff}*1")


def _vacuum_ideal_findings(session: Session, window: ModeWindow, depth: int, rng) -> list:
    out = []
    ideal_holder = {}

    def run_dims():
        ideal = session.build_vacuum_ideal(depth, window)
        ideal_holder["ideal"] = ideal
        if not ideal.tail_free():
            return "fail", {"part": "tails leaked into the ideal"}
        kmax = -window.m0_lo
        box = 1
        for lo, hi in window.m_box:
            box *= hi - lo + 1
        counts = loop_affine_graded_dims(
            lambda k: session.spec.dim * box if k <= kmax else 0, depth)
        got = {d: ideal.graded_dims.get(d, 0) for d in range(depth + 1)}
        want = {d: counts[d] for d in range(depth + 1)}
        if got != want:
            return "fail", {"got": got, "want": want}
        return "pass", None
    out.append(_finding("vacuum-ideal graded dimensions", window, {"depth": depth}, run_dims))

    def run_affine_commutator():
        """One-variable modes of depth-1 ideal states satisfy the affinisation
        bracket of the loop algebra, with pairing <a@m, b@n> = <a,b> d(m+n)."""
        vac = session.vacuum()
        labels = session.spec.basis
        boxes = list(window.m_values())
        for a in range(session.spec.dim):
            for b in range(session.spec.dim):
                for m in boxes:
                    for n in boxes:
                        u = session.product(session.tail(labels[a]), -1, m, vac)
                        v = session.product(session.tail(labels[b]), -1, n, vac)
                        for p0 in range(window.m0_lo, window.m0_hi + 1):
                            for q0 in range(window.m0_lo, window.m0_hi + 1):
                                for w in window.states:
                                    lhs = (session.ordinary_mode(u, p0, session.ordinary_mode(v, q0, w))
                                           - session.ordinary_mode(v, q0, session.ordinary_mode(u, p0, w)))
                                    br = session.product(session.tail(labels[a]), 0, m, session.tail(labels[b]))
                                    rhs = ZERO_STATE
                                    if br:
                                        rhs = session.ordinary_mode(
                                            session.product(br, -1, mi_add(m, n), vac), p0 + q0, w)
                                    if mi_add(m, n) == mi_zero(session.r) and p0 + q0 == 0:
                                        c = p0 * session.spec.pairing_basis(a, b) * session.level
                                        rhs = rhs + w.scaled(c)
                                    if lhs != rhs:
                                        return "fail", {"pair": [labels[a], labels[b]],
                                                        "m": list(m), "n": list(n),
                                                        "modes": [p0, q0]}
        return "pass", None
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
                        return "fail", {"part": "product against vacuum left the ideal"}
                    if direct != through:
                        return "fail", {"mode": [n0, list(n)],
                                        "lhs": state_to_json(session.spec, direct),
                                        "rhs": state_to_json(session.spec, through)}
        return "pass", None
    out.append(_finding("vacuum-ideal reconstruction", window, {}, run_reconstruction))

    def run_support():
        ideal = ideal_holder.get("ideal") or session.build_vacuum_ideal(depth, window)
        for st, label in ideal.spanning[: 12]:
            if not st:
                continue
            supp = session.support(st)
            if len(supp) != 1:
                continue
            bad = session.homogeneous_support_failures(st, window)
            if bad:
                return "fail", {"state": label, "offending": bad[:3]}
        return "pass", None
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
        for t in range(12):
            u, v = rng.choice(seeds), rng.choice(seeds)
            w = rng.choice(window.states)
            p = rng.randrange(window.m0_lo, window.m0_hi + 1)
            q = rng.randrange(window.m0_lo, window.m0_hi + 1)
            n = rng.randrange(window.m0_lo, window.m0_hi + 1)
            res = checker.ordinary_jacobi_residual(u, v, w, p, q, n)
            if res:
                return "fail", {"tuple": [p, q, n],
                                "residual": state_to_json(session.spec, res)}
        return "pass", None
    out.append(_finding("vacuum-ideal one-variable jacobi", window, {}, run_ordinary_jacobi))

    def run_ordinary_creation():
        for u in ideal_samples():
            wtn = checker.ordinary_creation_witness(u, window)
            if wtn is not None:
                return "fail", wtn
            wtn = checker.ordinary_derivative_witness(u, window)
            if wtn is not None:
                wtn["part"] = "derivative"
                return "fail", wtn
        return "pass", None
    out.append(_finding("vacuum-ideal creation and derivative", window, {}, run_ordinary_creation))
    return out


# Check groups in report order.
CHECK_GROUPS = ("lie", "module", "table", "locality", "oracle", "derivative",
                "transfer", "axioms", "skew", "vacuum", "ideal", "module-variant")


def run_suite(session: Session, window: ModeWindow, seed: int = 0,
              checks: Optional[Sequence[str]] = None, caps: int = 8,
              samples: int = 20, depth: int = 2,
              expect_session: Optional[Session] = None) -> SuiteReport:
    """Execute the configured checks over one window and aggregate findings.

    ``checks`` selects groups by name (default: all).  ``expect_session``
    supplies pristine closed-form expectations when the acting session is a
    deliberate mutation.
    """
    selected = set(CHECK_GROUPS if checks is None else checks)
    unknown = selected - set(CHECK_GROUPS)
    if unknown:
        raise ValueError(f"unknown check groups: {sorted(unknown)}")

    def group_rng(name: str) -> random.Random:
        # one stream per group, so a group's findings do not depend on which
        # other groups run or in what order
        return random.Random(f"{seed}:{name}")

    tasks = []
    if "lie" in selected:
        tasks.append(lambda: _lie_findings(session, window, group_rng("lie"), max(samples, 100)))
    if "module" in selected:
        tasks.append(lambda: _module_findings(session, window, group_rng("module"), samples))
    if "table" in selected:
        tasks.append(lambda: _product_table_findings(session, window, expect_session))
    if "locality" in selected:
        tasks.append(lambda: _locality_findings(session, window))
    if "oracle" in selected:
        tasks.append(lambda: _oracle_findings(session, window, group_rng("oracle"), max(4, samples // 4)))
    if "derivative" in selected:
        tasks.append(lambda: _derivative_findings(session, window))
    if "transfer" in selected:
        tasks.append(lambda: _transfer_findings(session, window))
    if "axioms" in selected:
        def axiom_tasks():
            rng = group_rng("axioms")
            checker = AxiomChecker(session)
            out = []
            gens = [(b, session.tail(b)) for b in session.spec.basis]
            for la, u in gens:
                for lb, v in gens:
                    for lc, w in gens:
                        out.append(check_jacobi(checker, u, v, w, window, cap=caps,
                                                rng=rng, label=f"({la},{lb},{lc})"))
            for t in range(max(2, samples // 4)):
                u = sample_state(session, rng, window)
                v = sample_state(session, rng, window)
                w = sample_state(session, rng, window)
                out.append(check_jacobi(checker, u, v, w, window, cap=caps, rng=rng,
                                        label=f"random#{t}"))
            out.append(_finding("mixed-index commutator", window, {},
                                lambda: (("pass", None)
                                         if checker.commutator_slice_witness(
                                             gens[0][1], gens[-1][1], window, 10, rng) is None
                                         else ("fail", {}))))
            return out
        tasks.append(axiom_tasks)
    if "skew" in selected:
        def skew_tasks():
            checker = AxiomChecker(session)
            out = []
            for la, u in [(b, session.tail(b)) for b in session.spec.basis]:
                for lb, v in [(b, session.tail(b)) for b in session.spec.basis]:
                    out.append(check_skew_symmetry(checker, u, v, window, label=f"({la},{lb})"))
            return out
        tasks.append(skew_tasks)
    if "vacuum" in selected:
        def vacuum_tasks():
            rng = group_rng("vacuum")
            checker = AxiomChecker(session)
            out = []
            for b in session.spec.basis:
                out.append(check_vacuum_expansion(checker, session.tail(b), window, label=b))
                out.append(check_creation(session, session.tail(b), window, label=b))
            for t in range(3):
                u = sample_state(session, rng, window)
                out.append(check_vacuum_expansion(checker, u, window, label=f"random#{t}"))
                out.append(check_creation(session, u, window, label=f"random#{t}"))
            return out
        tasks.append(vacuum_tasks)
    if "ideal" in selected:
        tasks.append(lambda: _vacuum_ideal_findings(session, window, depth, group_rng("ideal")))
    if "module-variant" in selected:
        def variant_tasks():
            rng = group_rng("module-variant")
            shift = tuple([1] + [0] * (session.r - 1))
            mod = ShiftedModule(session.module, shift)
            out = _module_findings(session, window, rng, samples, module=mod,
                                   tag=f"shifted module {shift}")
            checker = AxiomChecker(session, module=mod)
            gens = [session.tail(b) for b in session.spec.basis]
            out.append(check_jacobi(checker, gens[0], gens[-1], gens[0], window,
                                    cap=caps, rng=rng, label="shifted module"))
            return out
        tasks.append(variant_tasks)

    findings = []
    for fn in tasks:
        findings.extend(fn())
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
        t0 = time.perf_counter()
        caught = detect_mutation(session, mutated, window, rng)
        ms = int((time.perf_counter() - t0) * 1000)
        if caught:
            findings.append(Finding("mutation detected", window.describe(), "pass",
                                    None, ms, {"mutation": name, "caught_by": caught}))
        else:
            findings.append(Finding("mutation detected", window.describe(), "fail",
                                    {"mutation": name}, ms, {"mutation": name}))
    return SuiteReport(findings)
