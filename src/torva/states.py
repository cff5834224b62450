"""The level-ell vacuum-type module on an explicit ordered-word basis.

The module is spanned by words of creation modes applied to a tail: a word
entry ``(k, a, m)`` stands for the operator attached to basis element a with
t0-exponent -k (k >= 1) and toroidal multidegree m, and the tail is either a
basis element of g or the cyclic vector 1.  Tails are first-class: the module
is *not* generated by 1 alone.

Canonical word order: k descending, then basis index ascending, then m
lexicographic.  Reordering two creation modes emits a single shorter
correction word (their bracket; no central term can arise between two
creation modes), so normalisation terminates.

Mode action, degree bookkeeping and the restrictedness witness all live on
:class:`VacuumModule`; results are memoised in a bounded LRU cache because
closure generation revisits the same states heavily.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .liecore import (LieAlgebraSpec, Scalar, SpecFormatError, ToroidalAlgebra,
                      ToroidalElement, frac, mi_add)

_ZERO = 0
_ONE = 1


def _mode_key(mode):
    # sort key realising: k descending, basis ascending, m lex ascending
    k, a, m = mode
    return (-k, a, m)


class PBWMonomial:
    """An ordered word of creation modes applied to a tail in g + C.

    ``word`` is a tuple of (k, a, m) triples in canonical order; ``tail`` is a
    basis index of g or None for the cyclic vector 1.
    """

    __slots__ = ("word", "tail", "degree", "_hash")

    def __init__(self, word: tuple, tail: Optional[int]):
        self.word = word
        self.tail = tail
        self.degree = sum(k for (k, _, _) in word) + (0 if tail is None else 1)
        self._hash = hash((word, tail))

    def tmultidegree(self) -> tuple:
        """Total toroidal multidegree of the word part."""
        if not self.word:
            return ()
        out = self.word[0][2]
        for (_, _, m) in self.word[1:]:
            out = mi_add(out, m)
        return out

    def sort_key(self):
        return (self.degree, self.word, -1 if self.tail is None else self.tail)

    def __eq__(self, other):
        return (isinstance(other, PBWMonomial)
                and self.word == other.word and self.tail == other.tail)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        modes = " ".join(f"({a};-{k};{','.join(map(str, m))})" for (k, a, m) in self.word)
        t = "1" if self.tail is None else f"g{self.tail}"
        return f"<{modes + ' ' if modes else ''}{t}>"


class StateVector:
    """A finite rational combination of monomials.  Immutable; no zero terms."""

    __slots__ = ("terms", "_hash", "_maxdeg")

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self._hash = None
        self._maxdeg = None

    @classmethod
    def of(cls, mono: PBWMonomial, coeff: Scalar = 1):
        c = frac(coeff)
        return cls({mono: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return StateVector(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c: Scalar):
        c = frac(c)
        if not c:
            return ZERO_STATE
        return StateVector({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, StateVector) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def degrees(self) -> list:
        """Sorted list of homogeneous degrees present."""
        return sorted({m.degree for m in self.terms})

    def max_degree(self) -> int:
        """-1 on the zero state."""
        if self._maxdeg is None:
            self._maxdeg = max((m.degree for m in self.terms), default=-1)
        return self._maxdeg

    def is_tail_free(self) -> bool:
        return all(m.tail is None for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.items_sorted())


ZERO_STATE = StateVector()
VACUUM_MONO = PBWMonomial((), None)


def _accumulate(acc: dict, state: StateVector, coeff):
    # coeff is an int or a Fraction (exact either way)
    if not coeff:
        return
    for m, c in state.terms.items():
        s = acc.get(m, _ZERO) + coeff * c
        if s:
            acc[m] = s
        elif m in acc:
            del acc[m]


_MISS = object()


class LRUCache:
    """Bounded memo table with least-recently-used eviction; max_entries <= 0
    disables caching.

    There is no lock: a table belongs to one session and is used by one
    thread at a time.  ``hits`` and ``misses`` count lookups."""

    __slots__ = ("_data", "_cap", "hits", "misses")

    def __init__(self, max_entries: int = 200_000):
        self._data = OrderedDict()
        self._cap = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if self._cap <= 0:
            return None
        val = self._data.get(key, _MISS)
        if val is _MISS:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return val

    def put(self, key, value):
        if self._cap <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self._cap:
            self._data.popitem(last=False)

    def __len__(self):
        return len(self._data)


class VacuumModule:
    """Level-ell vacuum-type module of the multi-loop algebra.

    The central element acts as the scalar ``level``.  Annihilation modes
    (t0-exponent >= 0) hit the tail through the three-case base action

        a(0,m).b = [a,b],   a(1,m).b = <a,b> ell,   a(k,m).b = 0  (k >= 2),
        a(k,m).1 = 0        (k >= 0),

    creation modes prepend to the word and re-canonicalise.
    """

    def __init__(self, algebra: ToroidalAlgebra, level: Scalar, cache_entries: int = 200_000):
        self.algebra = algebra
        self.spec = algebra.spec
        self.r = algebra.r
        self.level = frac(level)
        self._act_cache = LRUCache(cache_entries)
        self._word_cache = LRUCache(cache_entries)
        # cache keys embed this; a plain string hashes much faster than a
        # tuple holding a Fraction
        self.key = f"vacuum({self.level})"

    # -- state constructors ---------------------------------------------------

    def vacuum(self) -> StateVector:
        return StateVector.of(VACUUM_MONO)

    def tail(self, a) -> StateVector:
        return StateVector.of(PBWMonomial((), self.spec.index_of(a)))

    def monomial(self, word, tail=None) -> StateVector:
        """Build a state from an arbitrary (unordered) creation word."""
        word = tuple((int(k), self.spec.index_of(a), tuple(m)) for (k, a, m) in word)
        for (k, _, m) in word:
            if k < 1:
                raise SpecFormatError(f"creation exponent must be >= 1, got {k}")
            if len(m) != self.r:
                raise SpecFormatError(f"multidegree {m} has rank {len(m)}, expected {self.r}")
        t = None if tail in (None, "1") else self.spec.index_of(tail)
        out = {PBWMonomial(w, t): c for w, c in self._normalize_word(word).items()}
        return StateVector(out)

    # -- degree bookkeeping -----------------------------------------------------

    def max_degree(self, state: StateVector) -> int:
        return state.max_degree()

    def restricted_witness(self, a, n, state: StateVector) -> int:
        """An N0 with a(n0, n) . state = 0 for every n0 > N0.

        The grading gives N0 = max degree of the state, independent of a, n.
        """
        return state.max_degree()

    # -- normal ordering ---------------------------------------------------------

    def _normalize_word(self, word: tuple) -> dict:
        """Canonicalise a creation word; returns {canonical word: coeff}.

        Adjacent transpositions emit bracket corrections one letter shorter,
        so the rewriting terminates (length strictly drops on corrections,
        inversion count on swaps).
        """
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        out = {}
        stack = [(word, _ONE)]
        while stack:
            w, coeff = stack.pop()
            for i in range(len(w) - 1):
                if _mode_key(w[i]) > _mode_key(w[i + 1]):
                    (k1, a1, m1), (k2, a2, m2) = w[i], w[i + 1]
                    stack.append((w[:i] + (w[i + 1], w[i]) + w[i + 2:], coeff))
                    merged0, merged = k1 + k2, mi_add(m1, m2)
                    for b, s in self.spec.bracket_basis(a1, a2).items():
                        stack.append((w[:i] + ((merged0, b, merged),) + w[i + 2:], coeff * s))
                    break
            else:
                s = out.get(w, _ZERO) + coeff
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        self._word_cache.put(word, out)
        return out

    # -- the module action ---------------------------------------------------------

    def base_action(self, a: int, k: int, m, tail: Optional[int]) -> StateVector:
        """Action of a(k, m), k >= 0, on a tail vector."""
        if k < 0:
            raise ValueError("base_action is for annihilation modes only (k >= 0)")
        if tail is None:
            return ZERO_STATE
        if k == 0:
            out = {}
            for b, c in self.spec.bracket_basis(a, tail).items():
                _accumulate(out, StateVector.of(PBWMonomial((), b)), c)
            return StateVector(out)
        if k == 1:
            # the same central cocycle that appears in the bracket
            c = self.spec.pairing_basis(a, tail) * self.level * self.algebra.cocycle_scale
            return StateVector.of(VACUUM_MONO, c) if c else ZERO_STATE
        return ZERO_STATE

    def act(self, a, n0: int, n, state: StateVector) -> StateVector:
        """Apply the mode a(n0, n) to a state; exact."""
        a = self.spec.index_of(a)
        n = tuple(n)
        if len(n) != self.r:
            raise SpecFormatError(f"multidegree {n} has rank {len(n)}, expected {self.r}")
        out = {}
        for mono, c in state.terms.items():
            _accumulate(out, self._act_mono(a, n0, n, mono), c)
        return StateVector(out)

    def _act_mono(self, a: int, n0: int, n, mono: PBWMonomial) -> StateVector:
        if n0 > mono.degree:  # grading: target degree would be negative
            return ZERO_STATE
        key = (a, n0, n, mono)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        if n0 <= -1:
            out = {}
            for w, c in self._normalize_word(((-n0, a, n),) + mono.word).items():
                out[PBWMonomial(w, mono.tail)] = c  # canonical words are distinct
            result = StateVector(out)
        elif not mono.word:
            result = self.base_action(a, n0, n, mono.tail)
        else:
            (k1, b, m1) = mono.word[0]
            rest = PBWMonomial(mono.word[1:], mono.tail)
            out = {}
            # X.Y.rest = Y.(X.rest) + [X,Y].rest
            inner = self._act_mono(a, n0, n, rest)
            if inner:
                _accumulate(out, self.act(b, -k1, m1, inner), _ONE)
            t0, t = n0 - k1, mi_add(n, m1)
            for c, s in self.spec.bracket_basis(a, b).items():
                _accumulate(out, self._act_mono(c, t0, t, rest), s)
            if t0 == 0 and not any(t):
                central = (n0 * self.spec.pairing_basis(a, b)
                           * self.level * self.algebra.cocycle_scale)
                _accumulate(out, StateVector.of(rest), central)
            result = StateVector(out)
        self._act_cache.put(key, result)
        return result

    def act_elem(self, x: ToroidalElement, state: StateVector) -> StateVector:
        """Action of a loop+centre element (centre acts as the level).

        Derivation components have no action on this module and are rejected.
        """
        if any(x.der):
            raise ValueError("derivations do not act on the vacuum-type module")
        out = {}
        for (a, m0, m), c in x.loop.items():
            _accumulate(out, self.act(a, m0, m, state), c)
        if x.central:
            _accumulate(out, state, x.central * self.level)
        return StateVector(out)

    def degrees(self, state: StateVector) -> list:
        return state.degrees()


class ShiftedModule:
    """The vacuum module twisted by the automorphism
    a(m0, m) -> a(m0, m + m0*shift); a second restricted module of the same
    level used to exercise the module-side identities."""

    def __init__(self, base: VacuumModule, shift):
        self.base = base
        self.shift = tuple(shift)
        if len(self.shift) != base.r:
            raise SpecFormatError("shift rank mismatch")
        self.spec = base.spec
        self.algebra = base.algebra
        self.r = base.r
        self.level = base.level
        self.key = f"shifted({base.level};{self.shift})"

    def vacuum(self):
        return self.base.vacuum()

    def tail(self, a):
        return self.base.tail(a)

    def act(self, a, n0, n, state):
        moved = tuple(ni + n0 * si for ni, si in zip(n, self.shift))
        return self.base.act(a, n0, moved, state)

    def max_degree(self, state):
        return state.max_degree()

    def restricted_witness(self, a, n, state):
        return state.max_degree()


# ---------------------------------------------------------------------------
# JSON serialisation of states: deterministic order, rationals as strings.

def state_to_json(spec: LieAlgebraSpec, state: StateVector) -> list:
    out = []
    for mono, c in state.items_sorted():
        out.append({
            "word": [[spec.basis[a], k, *m] for (k, a, m) in mono.word],
            "tail": "1" if mono.tail is None else spec.basis[mono.tail],
            "coeff": str(c),
        })
    return out


def state_from_json(module: VacuumModule, data: list) -> StateVector:
    total = {}
    for item in data:
        word = []
        for entry in item.get("word", []):
            label, k, *m = entry
            word.append((k, label, tuple(m)))
        mono_state = module.monomial(word, item.get("tail", "1"))
        _accumulate(total, mono_state, frac(item.get("coeff", 1)))
    return StateVector(total)
