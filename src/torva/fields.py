"""Fields as mode oracles over a restricted module.

A field handle is a map (m0, m, state) -> state presenting one multi-variable
vertex operator; handles are built from generator currents and the identity
field by products and the derivative shifts D0 = d/dx0, Di = x_i d/dx_i.
Every handle carries an integer t0-degree offset so that the infinite sums in
the product formula are cut by an exact witness bound, never a tolerance.

The component form of the product of mutually local fields,

    (a_(m0,m) b)(k0, k) w = sum_i (-1)^i C(m0, i) [ a(m0-i, m) b(k0+i, k-m) w
                            - (-1)^m0 b(m0+k0-i, k-m) a(i, m) w ],

is validated against :func:`residue_oracle_mode`, an independent evaluator
that materialises truncated series and extracts coefficients generically.

Window checks are sound but window-complete only: a failure disproves an
identity, a pass certifies it on the window alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .liecore import SpecFormatError, mi_sub, mi_zero
from .series import binom, expand_minus_y_plus_x, expand_x_minus_y, series_multiply
from .states import LRUCache, StateVector, ZERO_STATE, _accumulate


class LocalityError(RuntimeError):
    """A required locality order could not be established within the bound."""


class TerminationError(RuntimeError):
    """A mode sum exceeded the configured hard term bound."""


class ModeWindow:
    """A finite box of toroidal mode indices plus the test states against
    which identities are checked coefficientwise."""

    def __init__(self, m0_range, m_box, states: Sequence[StateVector],
                 locality_bound: int = 8, depth: int = 1):
        try:
            self.m0_lo, self.m0_hi = int(m0_range[0]), int(m0_range[1])
            self.m_box = tuple((int(lo), int(hi)) for lo, hi in m_box)
            self.locality_bound = int(locality_bound)
            self.depth = int(depth)
        except (TypeError, ValueError, IndexError) as exc:
            raise SpecFormatError(f"malformed mode window: {exc}") from exc
        self.states = tuple(states)
        if self.m0_lo > self.m0_hi or any(lo > hi for lo, hi in self.m_box):
            raise SpecFormatError("empty mode window")
        if not self.states:
            raise SpecFormatError("mode window needs at least one test state")

    @property
    def r(self) -> int:
        return len(self.m_box)

    def m0_values(self):
        return range(self.m0_lo, self.m0_hi + 1)

    def m_values(self):
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.m_box))

    def modes(self):
        return itertools.product(self.m0_values(), self.m_values())

    @property
    def size(self) -> int:
        n = self.m0_hi - self.m0_lo + 1
        for lo, hi in self.m_box:
            n *= hi - lo + 1
        return n

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
    termination witnesses.
    """

    __slots__ = ("key", "t0_offset", "_eval", "label")

    def __init__(self, key, t0_offset: int, evaluate: Callable, label: str):
        self.key = key
        self.t0_offset = t0_offset
        self._eval = evaluate
        self.label = label

    def __repr__(self):
        return f"Field({self.label})"


@dataclass
class GeneratedSpace:
    """Result of bounded-depth closure generation: handles with provenance,
    the pairwise locality orders established on the window, and a build log."""
    handles: list
    depth: int
    locality_orders: dict
    log: list = field(default_factory=list)

    def labels(self):
        return [h.label for h in self.handles]


class FieldSpace:
    """Factory and evaluation context for field handles over one module.

    All mode evaluations are memoised on (provenance, mode, state); locality
    orders are cached pairwise.  ``term_bound`` is a hard safety cap on the
    number of terms any single product-mode sum may touch.
    """

    def __init__(self, module, term_bound: int = 200_000, cache_entries: int = 200_000):
        self.module = module
        self.r = module.r
        self.term_bound = term_bound
        self._mode_cache = LRUCache(cache_entries)
        self._comm_cache = LRUCache(cache_entries)
        self._locality_cache = {}

    # -- handle constructors --------------------------------------------------

    def current(self, a) -> FieldHandle:
        idx = self.module.spec.index_of(a)
        label = self.module.spec.basis[idx]

        def ev(m0, m, w):
            return self.module.act(idx, m0, m, w)

        return FieldHandle(("cur", idx), 0, ev, label)

    def identity(self) -> FieldHandle:
        zero = mi_zero(self.r)

        def ev(m0, m, w):
            return w if (m0 == -1 and m == zero) else ZERO_STATE

        return FieldHandle(("one",), 1, ev, "1")

    def derivative(self, i: int, a: FieldHandle) -> FieldHandle:
        """D0 = d/dx0 for i = 0, Di = x_i d/dx_i for 1 <= i <= r, at the mode
        level: (D0 a)(n0, n) = -n0 a(n0-1, n), (Di a)(n0, n) = -n_i a(n0, n)."""
        if not 0 <= i <= self.r:
            raise SpecFormatError(f"derivative index {i} out of range 0..{self.r}")
        if i == 0:
            def ev(n0, n, w):
                if n0 == 0:
                    return ZERO_STATE
                return self.mode(a, n0 - 1, n, w).scaled(-n0)
            off = a.t0_offset - 1
        else:
            def ev(n0, n, w):
                if n[i - 1] == 0:
                    return ZERO_STATE
                return self.mode(a, n0, n, w).scaled(-n[i - 1])
            off = a.t0_offset
        return FieldHandle(("D", i, a.key), off, ev, f"D{i}({a.label})")

    def product(self, a: FieldHandle, m0: int, m, b: FieldHandle,
                window: Optional[ModeWindow] = None, bound: Optional[int] = None) -> FieldHandle:
        """The (m0, m) product field of two mutually local handles.

        When a window is supplied, pairwise locality is established on it
        first (raising LocalityError beyond the bound); without a window the
        caller takes responsibility for locality.
        """
        m = tuple(m)
        if window is not None:
            k = self.locality_order(a, b, window, bound if bound is not None else window.locality_bound)
            if k is None:
                raise LocalityError(
                    f"locality of ({a.label}, {b.label}) exceeds bound on the window")
        off = m0 + a.t0_offset + b.t0_offset
        label = f"({a.label})_({m0};{','.join(map(str, m))})({b.label})"
        handle = FieldHandle(("prod", a.key, m0, m, b.key), off, None, label)

        def ev(k0, k, w):
            return self._product_mode(a, m0, m, b, k0, k, w)

        handle._eval = ev
        return handle

    # -- evaluation -------------------------------------------------------------

    def witness(self, h: FieldHandle, w: StateVector) -> int:
        """h(k0, k) w = 0 for every k0 beyond this bound."""
        return self.module.max_degree(w) - h.t0_offset

    def mode(self, h: FieldHandle, m0: int, m, w: StateVector) -> StateVector:
        if not w or m0 > self.witness(h, w):
            return ZERO_STATE
        key = (h.key, m0, m, w)
        out = self._mode_cache.get(key)
        if out is None:
            out = h._eval(m0, m, w)
            self._mode_cache.put(key, out)
        return out

    def _product_mode(self, a, m0, m, b, k0, k, w) -> StateVector:
        km = mi_sub(k, m)
        acc = {}
        hi1 = self.witness(b, w) - k0
        if m0 >= 0:
            hi1 = min(hi1, m0)
        hi2 = self.witness(a, w)
        if m0 >= 0:
            hi2 = min(hi2, m0)
        if hi1 + hi2 + 2 > self.term_bound:
            raise TerminationError(
                f"product mode sum for {a.label},{b.label} needs {hi1 + hi2 + 2} terms "
                f"(bound {self.term_bound}); oracle not restricted enough")
        sign_m0 = -1 if m0 % 2 else 1
        for i in range(hi1 + 1):
            inner = self.mode(b, k0 + i, km, w)
            if inner:
                c = binom(m0, i) * (-1 if i % 2 else 1)
                _accumulate(acc, self.mode(a, m0 - i, m, inner), c)
        for i in range(hi2 + 1):
            inner = self.mode(a, i, m, w)
            if inner:
                c = -sign_m0 * binom(m0, i) * (-1 if i % 2 else 1)
                _accumulate(acc, self.mode(b, m0 + k0 - i, km, inner), c)
        return StateVector(acc)

    # -- locality -----------------------------------------------------------------

    def commutator(self, a, b, p0, p, q0, q, w) -> StateVector:
        key = (a.key, b.key, p0, p, q0, q, w)
        out = self._comm_cache.get(key)
        if out is None:
            out = (self.mode(a, p0, p, self.mode(b, q0, q, w))
                   - self.mode(b, q0, q, self.mode(a, p0, p, w)))
            self._comm_cache.put(key, out)
        return out

    def locality_passes_at(self, a, b, k: int, window: ModeWindow):
        """Check (x0-y0)^k [a(x0,x), b(y0,y)] = 0 coefficientwise on the
        window; returns None or the first offending tuple."""
        for (p0, p), (q0, q) in itertools.product(window.modes(), repeat=2):
            for si, w in enumerate(window.states):
                acc = {}
                for i in range(k + 1):
                    c = binom(k, i) * (-1 if i % 2 else 1)
                    _accumulate(acc, self.commutator(a, b, p0 + k - i, p, q0 + i, q, w), c)
                if acc:
                    return (p0, p, q0, q, si)
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
        m, k = tuple(m), tuple(k)
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

    # -- closure generation -----------------------------------------------------------

    def generate(self, generators: Sequence[FieldHandle], depth: int,
                 window: ModeWindow) -> GeneratedSpace:
        """All window-mode products of the generators up to the nesting depth.

        New handles are deduplicated by their exact mode fingerprint on the
        window; pairwise locality of everything kept is re-verified and a
        failure is raised, never swallowed.  Products at modes outside the
        window box are not formed (logged once as policy).
        """
        log = [f"mode support restricted to the window box ({window.size} modes); "
               "products at other modes are skipped"]
        one = self.identity()
        seeds = [one] + list(generators)

        def fingerprint(h):
            return tuple(self.mode(h, m0, m, w)
                         for (m0, m) in window.modes() for w in window.states)

        kept = []
        seen = {}
        zero_fp = None
        for h in seeds:
            fp = fingerprint(h)
            if all(s.is_zero() for s in fp):
                zero_fp = fp
            seen[fp] = h
            kept.append(h)
        frontier = list(kept)
        for d in range(1, depth + 1):
            fresh = []
            for left in ([one] + list(generators)):
                for right in frontier:
                    for (m0, m) in window.modes():
                        h = self.product(left, m0, m, right, window=window)
                        fp = fingerprint(h)
                        if all(s.is_zero() for s in fp):
                            continue  # collapsed to zero on the window
                        if fp in seen:
                            log.append(f"{h.label} duplicates {seen[fp].label} on the window")
                            continue
                        seen[fp] = h
                        fresh.append(h)
            log.append(f"depth {d}: {len(fresh)} new handles")
            kept.extend(fresh)
            frontier = fresh
            if not fresh:
                break
        orders = {}
        for i, hi_ in enumerate(kept):
            for hj in kept[i:]:
                ko = self.locality_order(hi_, hj, window)
                if ko is None:
                    raise LocalityError(
                        f"closure element pair ({hi_.label}, {hj.label}) is not local "
                        f"within bound {window.locality_bound} on the window")
                orders[(hi_.label, hj.label)] = ko
        return GeneratedSpace(kept, depth, orders, log)

    # -- bracket-to-product transfer ------------------------------------------------------

    def transfer_check(self, a: FieldHandle, b: FieldHandle, coeffs: Sequence[FieldHandle],
                       m, window: ModeWindow, extra: int = 2):
        """Verify that the products a_(j,m) b equal the supplied commutator
        expansion coefficients for j = 0..k and vanish for the next ``extra``
        values of j.  Returns (ok, failures)."""
        m = tuple(m)
        failures = []
        k = len(coeffs) - 1
        for j in range(k + 1 + extra):
            prod = self.product(a, j, m, b, window=window)
            want = coeffs[j] if j <= k else None
            for (n0, n) in window.modes():
                for si, w in enumerate(window.states):
                    got = self.mode(prod, n0, n, w)
                    expect = self.mode(want, n0, n, w) if want is not None else ZERO_STATE
                    if got != expect:
                        failures.append({"j": j, "mode": [n0, list(n)], "state": si})
        return (not failures, failures)
