"""Fields as mode oracles over a restricted module.

A field handle is a map (m0, m, state) -> state presenting one multi-variable
vertex operator; handles are built from generator currents and the identity
field by products and the derivative shifts D0 = d/dx0, Di = x_i d/dx_i.
Every handle carries an integer t0-degree offset so that the infinite sums in
the product formula are cut by an exact witness bound, never a tolerance.

The product's modes come from :func:`component_sum`, the one evaluator of the
component (Borcherds) sum, which the vertex operators of states and the axiom
checks share.  It is validated against :func:`residue_oracle_mode`, an
independent evaluator that materialises truncated series and extracts
coefficients generically.

Window checks are sound but window-complete only: a failure disproves an
identity, a pass certifies it on the window alone.  A locality scan skips
every coefficient tuple that the degree witness proves zero.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

from .liecore import SpecFormatError, _integer, _multidegree, mi_sub, mi_zero
from .series import binom, expand_minus_y_plus_x, expand_x_minus_y, series_multiply
from .states import Memo, StateVector, ZERO_STATE, _accumulate


class LocalityError(RuntimeError):
    """A required locality order could not be established within the bound."""


class TerminationError(RuntimeError):
    """A mode sum exceeded the configured hard term bound."""


def component_sum(A, P, B, Q, m0: int, k0: int, w: StateVector, hi1: int, hi2: int) -> dict:
    """The component form of the product of two mutually local operators,

        sum_{i<=hi1} (-1)^i C(m0, i) A(m0-i, P) B(k0+i, Q) w
        - (-1)^m0 sum_{i<=hi2} (-1)^i C(m0, i) B(m0+k0-i, Q) A(i, P) w,

    for mode maps A, B: (n0, multidegree, state) -> state, each sum cut at
    the caller's exact witness bound (a bound of -1 drops the sum).  With A
    and B the modes of fields a and b, P = m and Q = k-m, it is the (k0, k)
    mode of a_(m0,m) b on w.  Returns the accumulator dict."""
    acc = {}
    for i in range(hi1 + 1):
        t = B(k0 + i, Q, w)
        if t.terms:
            _accumulate(acc, A(m0 - i, P, t), binom(m0, i) * (-1 if i % 2 else 1))
    sign = 1 if m0 % 2 else -1  # -(-1)^m0
    for i in range(hi2 + 1):
        t = A(i, P, w)
        if t.terms:
            _accumulate(acc, B(m0 + k0 - i, Q, t), sign * binom(m0, i) * (-1 if i % 2 else 1))
    return acc


class ModeWindow:
    """A finite box of toroidal mode indices, the test states against which
    identities are checked coefficientwise, and the vacuum-ideal depth."""

    def __init__(self, m0_range, m_box, states: Sequence[StateVector],
                 locality_bound: int = 8, depth: int = 2):
        try:
            self.m0_lo, self.m0_hi = _integer("m0", m0_range[0]), _integer("m0", m0_range[1])
            self.m_box = tuple((_integer("m", lo), _integer("m", hi)) for lo, hi in m_box)
            self.locality_bound = _integer("locality_bound", locality_bound)
            self.depth = _integer("depth", depth)
        except (TypeError, ValueError, IndexError) as exc:
            raise SpecFormatError(f"malformed mode window: {exc}") from exc
        self.states = tuple(states)
        if self.m0_lo > self.m0_hi or any(lo > hi for lo, hi in self.m_box):
            raise SpecFormatError("empty mode window")
        if not self.states:
            raise SpecFormatError("mode window needs at least one test state")
        zero = [i for i, w in enumerate(self.states) if not w]
        if zero:
            # every mode maps 0 to 0, so a zero state would read any locality order as 0
            raise SpecFormatError(f"mode window test states {zero} are zero")

    def m0_values(self):
        return range(self.m0_lo, self.m0_hi + 1)

    def m_values(self):
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.m_box))

    def modes(self):
        return itertools.product(self.m0_values(), self.m_values())

    @property
    def box_size(self) -> int:
        """The number of multidegrees m in the box."""
        n = 1
        for lo, hi in self.m_box:
            n *= hi - lo + 1
        return n

    @property
    def size(self) -> int:
        return (self.m0_hi - self.m0_lo + 1) * self.box_size

    def describe(self) -> dict:
        return {"m0": [self.m0_lo, self.m0_hi],
                "m": [list(b) for b in self.m_box],
                "states": len(self.states),
                "locality_bound": self.locality_bound,
                "depth": self.depth}


class FieldHandle:
    """One element of the field space: a mode oracle with provenance.

    ``key`` is the provenance tree (hashable); ``t0_offset`` is the integer s
    with modes (k0, k) sending degree d to degree d - k0 - s, which powers the
    termination witnesses.  The evaluator ``_eval(k0, k, w)`` takes k as a
    tuple of rank r, converted and checked where it entered the field space
    (:meth:`FieldSpace.mode`), and returns ``ZERO_STATE`` itself on a zero w
    or past ``w.max_degree() - t0_offset``.  A product's ``_eval`` stores
    its modes; its ``_compute`` gives the same mode unstored, for a check's
    one-time read (:meth:`FieldSpace.mode`).  Other handles store nothing
    themselves and have no ``_compute``.
    """

    __slots__ = ("key", "t0_offset", "_eval", "_compute", "label")

    def __init__(self, key, t0_offset: int, evaluate: Callable, label: str):
        self.key = key
        self.t0_offset = t0_offset
        self._eval = evaluate
        self._compute = None
        self.label = label

    def __repr__(self):
        return f"Field({self.label})"


class FieldSpace:
    """Factory and evaluation context for field handles over one module.

    :meth:`Session.empty_working_sets` empties its two :class:`Memo` tables:
    ``_mode_cache`` the product modes on (provenance, mode, state) that the
    engine reads again, those of a product read as a factor of another
    product or inside a locality commutator (a check's read, :meth:`mode`,
    stores nothing, and leaves recompute cheaply); ``_comm_cache`` the
    commutators of the one pair whose locality order is being settled
    (currents, or vertex operators of states in the Jacobi checks), also
    emptied as soon as that order is settled.  A commutator's inner
    applications are read from the tables of the handles themselves: for a
    current, the module's action table (annihilation modes) or its intern
    and word tables (creation modes); the session's vertex-mode tables for a
    state; ``_mode_cache`` for a product.
    Locality orders go in an unbounded dict, one per handle pair and window.
    ``term_bound`` caps the terms of any product-mode sum.  Every entry that
    takes a multidegree converts and checks it once, by the config's integer
    rule; the evaluators then take rank-r tuples unchecked.
    """

    def __init__(self, module, term_bound: int = 200_000):
        self.module = module
        self.r = module.r
        self.term_bound = term_bound
        self._mode_cache = Memo()
        self._comm_cache = Memo()
        self._locality_cache = {}

    # -- handle constructors --------------------------------------------------

    def current(self, a) -> FieldHandle:
        idx = self.module.spec.index_of(a)
        # act_index keeps the witness of offset 0
        return FieldHandle(("cur", idx), 0, functools.partial(self.module.act_index, idx),
                           self.module.spec.basis[idx])

    def identity(self) -> FieldHandle:
        zero = mi_zero(self.r)

        def ev(m0, m, w):
            return w if (m0 == -1 and m == zero and w.terms) else ZERO_STATE

        return FieldHandle(("one",), 1, ev, "1")

    def linear_combination(self, terms) -> FieldHandle:
        """The field sum of c * h over the (handle, coeff) pairs in ``terms``;
        an empty list gives the zero field."""
        terms = tuple(terms)
        off = min((h.t0_offset for h, _ in terms), default=0)

        def ev(m0, m, w):
            if not w.terms or m0 > w.max_degree() - off:
                return ZERO_STATE
            acc = {}
            for h, c in terms:
                _accumulate(acc, h._eval(m0, m, w), c)
            return StateVector.adopt(acc)

        key = ("lin",) + tuple((h.key, c) for h, c in terms)
        label = " + ".join(f"{c}*{h.label}" for h, c in terms) or "0"
        return FieldHandle(key, off, ev, label)

    def derivative(self, i: int, a: FieldHandle) -> FieldHandle:
        """D0 = d/dx0 for i = 0, Di = x_i d/dx_i for 1 <= i <= r, at the mode
        level: (D0 a)(n0, n) = -n0 a(n0-1, n), (Di a)(n0, n) = -n_i a(n0, n);
        both keep a's witness, as a zero scales to itself."""
        if not 0 <= i <= self.r:
            raise SpecFormatError(f"derivative index {i} out of range 0..{self.r}")
        inner = a._eval
        if i == 0:
            def ev(n0, n, w):
                if n0 == 0:
                    return ZERO_STATE
                return inner(n0 - 1, n, w).scaled(-n0)
            off = a.t0_offset - 1
        else:
            def ev(n0, n, w):
                if n[i - 1] == 0:
                    return ZERO_STATE
                return inner(n0, n, w).scaled(-n[i - 1])
            off = a.t0_offset
        return FieldHandle(("D", i, a.key), off, ev, f"D{i}({a.label})")

    def product(self, a: FieldHandle, m0: int, m, b: FieldHandle,
                window: ModeWindow) -> FieldHandle:
        """The (m0, m) product field of two handles, once their locality is
        established on the window (LocalityError beyond its bound)."""
        m = _multidegree(m, self.r)
        if self.locality_order(a, b, window) is None:
            raise LocalityError(
                f"locality of ({a.label}, {b.label}) exceeds bound on the window")
        off = m0 + a.t0_offset + b.t0_offset
        label = f"({a.label})_({m0};{','.join(map(str, m))})({b.label})"
        hkey = ("prod", a.key, m0, m, b.key)

        def ev(k0, k, w):
            if not w.terms or k0 > w.max_degree() - off:
                return ZERO_STATE
            key = (hkey, k0, k, w)
            table = self._mode_cache
            out = table._data.get(key)
            if out is None:
                table.misses += 1
                out = table.store(key, self._product_mode(a, m0, m, b, k0, k, w))
            else:
                table.hits += 1
            return out

        def compute(k0, k, w):
            if not w.terms or k0 > w.max_degree() - off:
                return ZERO_STATE
            return self._product_mode(a, m0, m, b, k0, k, w)

        handle = FieldHandle(hkey, off, ev, label)
        handle._compute = compute
        return handle

    # -- evaluation -------------------------------------------------------------

    def witness(self, h: FieldHandle, w: StateVector) -> int:
        """h(k0, k) w = 0 for every k0 beyond this bound."""
        return w.max_degree() - h.t0_offset

    def mode(self, h: FieldHandle, m0: int, m, w: StateVector) -> StateVector:
        """The (m0, m) mode of h applied to w, m a multidegree checked here;
        zero past :meth:`witness`, which the handle's evaluator checks itself.
        A check's read: a product's mode is computed, not stored."""
        return (h._compute or h._eval)(m0, _multidegree(m, self.r), w)

    def _product_mode(self, a, m0, m, b, k0, k, w) -> StateVector:
        top = w.max_degree()
        hi1 = top - b.t0_offset - k0
        hi2 = top - a.t0_offset
        if m0 >= 0:
            hi1, hi2 = min(hi1, m0), min(hi2, m0)
        if hi1 + hi2 + 2 > self.term_bound:
            raise TerminationError(
                f"product mode sum for {a.label},{b.label} needs {hi1 + hi2 + 2} terms "
                f"(bound {self.term_bound}); oracle not restricted enough")
        return StateVector.adopt(component_sum(a._eval, m, b._eval, mi_sub(k, m),
                                               m0, k0, w, hi1, hi2))

    # -- locality -----------------------------------------------------------------

    def commutator(self, a, b, p0, p, q0, q, w) -> StateVector:
        """[a(p0, p), b(q0, q)] w, with p and q multidegrees checked here."""
        p, q = _multidegree(p, self.r), _multidegree(q, self.r)
        key = (a.key, b.key, p0, p, q0, q, w)
        out = self._comm_cache.get(key)
        if out is None:
            out = self._comm_cache.store(
                key, a._eval(p0, p, b._eval(q0, q, w)) - b._eval(q0, q, a._eval(p0, p, w)))
        return out

    def locality_passes_at(self, a, b, k: int, window: ModeWindow):
        """Check (x0-y0)^k [a(x0,x), b(y0,y)] = 0 coefficientwise on the
        window; returns None or the first offending tuple
        (p0, p, q0, q, state index, residual).  Every term of a tuple has
        t0-index total p0 + q0 + k, so a tuple past the witness is skipped."""
        tops = [w.max_degree() - a.t0_offset - b.t0_offset - k for w in window.states]
        for (p0, p), (q0, q) in itertools.product(window.modes(), repeat=2):
            for si, w in enumerate(window.states):
                if p0 + q0 > tops[si]:
                    continue
                acc = {}
                for i in range(k + 1):
                    c = binom(k, i) * (-1 if i % 2 else 1)
                    _accumulate(acc, self.commutator(a, b, p0 + k - i, p, q0 + i, q, w), c)
                if acc:
                    return (p0, p, q0, q, si, StateVector.adopt(acc))
        return None

    def locality_order(self, a: FieldHandle, b: FieldHandle, window: ModeWindow,
                       bound: Optional[int] = None) -> Optional[int]:
        """Least k <= bound annihilating the commutator on the window, or
        None when the bound is exceeded."""
        bound = window.locality_bound if bound is None else bound
        if bound < 0:
            raise SpecFormatError("locality bound must be >= 0")
        ckey = (a.key, b.key, window.m0_lo, window.m0_hi,
                window.m_box, window.states, bound)
        if ckey in self._locality_cache:
            return self._locality_cache[ckey]
        result = None
        for k in range(bound + 1):
            if self.locality_passes_at(a, b, k, window) is None:
                result = k
                break
        self._comm_cache.empty()  # the order is settled; no entry is read again
        self._locality_cache[ckey] = result
        return result

    # -- independent brute-force oracle ---------------------------------------------

    def residue_oracle_mode(self, a: FieldHandle, m0: int, m, b: FieldHandle,
                            k0: int, k, w: StateVector) -> StateVector:
        """Evaluate the (k0, k) mode of the (m0, m) product by generic series
        arithmetic: build truncated operator tables, multiply by the binomial
        expansions, take the x0-residue and read one y0-coefficient.

        Independent of :meth:`_product_mode`'s index bookkeeping by design;
        agreement of the two is the master property of this module.
        """
        m, k = _multidegree(m, self.r), _multidegree(k, self.r)
        km = mi_sub(k, m)
        # term 1: Res_x0 [ (x0-y0)^m0 a(x0, m) b(y0, k-m) w ]
        i_max = max(self.witness(b, w) - k0, -1)
        tbl1 = {}
        for q0 in range(k0, k0 + i_max + 1):
            bw = self.mode(b, q0, km, w)
            if not bw:
                continue
            for p0 in range(m0 - i_max, min(m0, self.witness(a, bw)) + 1):
                aw = self.mode(a, p0, m, bw)
                if aw:
                    tbl1[(-p0 - 1, -q0 - 1)] = aw
        prod1 = series_multiply(expand_x_minus_y(m0, max(i_max, 0)), tbl1)
        # term 2: Res_x0 [ (-y0+x0)^m0 b(y0, k-m) a(x0, m) w ]
        j_max = max(self.witness(a, w), -1)
        tbl2 = {}
        for p0 in range(0, j_max + 1):
            aw = self.mode(a, p0, m, w)
            if not aw:
                continue
            for q0 in range(m0 + k0 - j_max, min(m0 + k0, self.witness(b, aw)) + 1):
                bw = self.mode(b, q0, km, aw)
                if bw:
                    tbl2[(-p0 - 1, -q0 - 1)] = bw
        prod2 = series_multiply(expand_minus_y_plus_x(m0, max(j_max, 0)), tbl2)
        target = (-1, -k0 - 1)  # Res_x0 then the y0^{-k0-1} coefficient
        out = prod1.get(target, ZERO_STATE) - prod2.get(target, ZERO_STATE)
        return out

    # -- bracket-to-product transfer ------------------------------------------------------

    def transfer_check(self, a: FieldHandle, b: FieldHandle, coeffs: Sequence[FieldHandle],
                       m, window: ModeWindow):
        """Verify that the products a_(j,m) b equal the supplied commutator
        expansion coefficients for j = 0..k and vanish for the next two
        values of j.  Returns the failures, empty when every product holds."""
        m = _multidegree(m, self.r)
        failures = []
        k = len(coeffs) - 1
        for j in range(k + 3):
            prod = self.product(a, j, m, b, window=window)
            want = coeffs[j] if j <= k else None
            for (n0, n) in window.modes():
                for si, w in enumerate(window.states):
                    got = self.mode(prod, n0, n, w)
                    expect = self.mode(want, n0, n, w) if want is not None else ZERO_STATE
                    if got != expect:
                        failures.append({"j": j, "mode": [n0, list(n)], "state": si})
        return failures
