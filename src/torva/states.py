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

:class:`Module` is the one module protocol.  Mode action and normal ordering
live on :class:`VacuumModule`, which :class:`ShiftedModule` twists; results
are memoised in two :class:`Memo` tables that live with the module, as every
check group rereads them.  A memo table holds each stored state once
(:meth:`Memo.store`): a zero result is ``ZERO_STATE`` itself and 1·mono is the
monomial's one unit state (``PBWMonomial.unit``), which lives as long as the
interned monomial; so states are shared and never changed in place.
:meth:`VacuumModule.create` stores nothing and returns a fresh state.  Degrees
are read off the states themselves (:meth:`StateVector.max_degree`): the
grading gives a(n0, n) . w = 0 for every n0 beyond the top degree of w.
Monomials are interned, so equal monomials are one object and memo lookups
on them hit on identity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .liecore import (LieAlgebraSpec, Scalar, SpecFormatError, ToroidalAlgebra,
                      ToroidalElement, _integer, _multidegree, frac, mi_add)

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

    Instances are interned (hash-consed): constructing the same (word, tail)
    twice returns the same object, so equality is identity and the hash is
    ``object``'s, which dict and tuple hashing compute without a Python call.
    It differs from process to process, so no output may depend on it.  The
    intern table holds one word table per tail, so no key tuple is stored.
    ``unit`` is the monomial's one state 1·mono that memo tables store
    (:meth:`Memo.store`), None until a table first stores it.
    """

    __slots__ = ("word", "tail", "degree", "unit")
    _interned = defaultdict(dict)  # tail -> word -> monomial

    def __new__(cls, word: tuple, tail: Optional[int]):
        table = cls._interned[tail]
        mono = table.get(word)
        if mono is None:
            mono = object.__new__(cls)
            mono.word = word
            mono.tail = tail
            mono.degree = sum(k for (k, _, _) in word) + (0 if tail is None else 1)
            mono.unit = None
            table[word] = mono
        return mono

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
    def adopt(cls, terms: dict):
        """A state over ``terms`` itself, not copied or filtered: for a local
        accumulator that :func:`_accumulate` has cleaned and nothing reuses.
        States are shared (memo tables store ``ZERO_STATE`` and unit states
        once, see :meth:`Memo.store`), so no caller changes a state's
        ``terms``; one that needs a working row copies it first."""
        out = cls.__new__(cls)
        out.terms, out._hash, out._maxdeg = terms, None, None
        return out

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
        out = dict(self.terms)
        _accumulate(out, other, -1)
        return StateVector.adopt(out)

    def scaled(self, c: Scalar):
        """c times this state; a zero state or c = 1 gives the state itself."""
        if type(c) is not int:
            c = frac(c)
        if c == 1 or not self.terms:
            return self
        if not c:
            return ZERO_STATE
        # a nonzero multiple of nonzero exact terms has no zero term to drop
        out = StateVector.__new__(StateVector)
        out.terms = {m: v * c for m, v in self.terms.items()}
        out._hash, out._maxdeg = None, self._maxdeg
        return out

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


class Memo:
    """Memo table: a plain dict, emptied when the work that rereads it ends; a
    value is then recomputed, so no result depends on it.  Stored values are
    never None.  No lock: one session, one thread at a time.  ``hits`` and
    ``misses`` count lookups, ``emptied`` the entries dropped.  A hot caller
    may read ``_data`` itself, counting as :meth:`get` does.  A state is stored
    by :meth:`store`, any other value by :meth:`put`."""

    __slots__ = ("_data", "hits", "misses", "emptied")

    def __init__(self):
        self._data = {}
        self.hits = 0
        self.misses = 0
        self.emptied = 0

    def get(self, key):
        val = self._data.get(key)
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def put(self, key, value):
        self._data[key] = value

    def store(self, key, state: StateVector) -> StateVector:
        """Store a state once and return what is stored: a zero state as
        ``ZERO_STATE`` and 1·mono as the monomial's one unit state (set on
        first store), so equal small results share one object."""
        terms = state.terms
        if len(terms) == 1:
            (mono, c), = terms.items()
            if c == 1:
                unit = mono.unit
                if unit is None:
                    mono.unit = unit = state
                state = unit
        elif not terms:
            state = ZERO_STATE
        self._data[key] = state
        return state

    def empty(self):
        """Drop every entry, counted in ``emptied``; hits and misses stay."""
        self.emptied += len(self._data)
        self._data.clear()

    def __len__(self):
        return len(self._data)


class Module:
    """A restricted module at one level.  A subclass supplies ``act_index``,
    :meth:`act` without its checks; ``key`` names it in cache keys."""

    def __init__(self, algebra: ToroidalAlgebra, level: Scalar, key: str):
        self.algebra = algebra
        self.spec = algebra.spec
        self.r = algebra.r
        self.level = frac(level)
        self.key = key

    def act(self, a, n0: int, n, state: StateVector) -> StateVector:
        """Apply the mode a(n0, n) to a state; exact.  For external callers:
        ``a`` (a label or index) and the multidegree ``n`` are checked, and
        raise :class:`SpecFormatError`."""
        return self.act_index(self.spec.index_of(a), n0, _multidegree(n, self.r), state)

    def act_elem(self, x: ToroidalElement, w: StateVector) -> StateVector:
        """Loop+centre action of x, the centre as the level scalar; a
        derivation component does not act and is rejected."""
        if any(x.der):
            raise ValueError("derivations do not act on the vacuum-type module")
        out = {}
        for (a, m0, m), c in x.loop.items():
            _accumulate(out, self.act(a, m0, m, w), c)
        if x.central:
            _accumulate(out, w, x.central * self.level)
        return StateVector(out)


class VacuumModule(Module):
    """Level-ell vacuum-type module of the multi-loop algebra.

    The central element acts as the scalar ``level``.  Annihilation modes
    (t0-exponent >= 0) hit the tail through the three-case base action

        a(0,m).b = [a,b],   a(1,m).b = <a,b> ell,   a(k,m).b = 0  (k >= 2),
        a(k,m).1 = 0        (k >= 0),

    creation modes prepend to the word and re-canonicalise.
    """

    def __init__(self, algebra: ToroidalAlgebra, level: Scalar):
        # a plain string key hashes much faster than a tuple holding a Fraction
        super().__init__(algebra, level, f"vacuum({frac(level)})")
        self._act_cache = Memo()
        self._word_cache = Memo()

    # -- state constructors ---------------------------------------------------

    def vacuum(self) -> StateVector:
        return StateVector.of(VACUUM_MONO)

    def tail(self, a) -> StateVector:
        return StateVector.of(PBWMonomial((), self.spec.index_of(a)))

    def monomial(self, word, tail=None) -> StateVector:
        """Build a state from an arbitrary (unordered) creation word; each
        exponent k >= 1 and multidegree m is checked by the config's integer rule."""
        word = tuple((_integer("creation exponent", k, 1), self.spec.index_of(a),
                      _multidegree(m, self.r)) for (k, a, m) in word)
        t = None if tail in (None, "1") else self.spec.index_of(tail)
        out = {PBWMonomial(w, t): c for w, c in self._normalize_word(word).items()}
        return StateVector(out)

    # -- normal ordering ---------------------------------------------------------

    def _normalize_word(self, word: tuple) -> dict:
        """Canonicalise a creation word; returns {canonical word: coeff}.

        Adjacent transpositions emit bracket corrections one letter shorter,
        so the rewriting terminates (length strictly drops on corrections,
        inversion count on swaps).  ``_word_cache`` holds rewrites only: a
        canonical word is its own form and is never looked up.
        """
        for i in range(len(word) - 1):
            if _mode_key(word[i]) > _mode_key(word[i + 1]):
                break
        else:
            return {word: _ONE}
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

    def act_index(self, a: int, n0: int, n: tuple, state: StateVector) -> StateVector:
        if len(state.terms) == 1:  # dominant case: a single monomial, its table read here
            (mono, c), = state.terms.items()
            if n0 > mono.degree:
                return ZERO_STATE
            table = self._act_cache
            out = table._data.get((a, n0, n, mono))
            if out is None:
                out = self._act_mono(a, n0, n, mono)  # counts the miss
            else:
                table.hits += 1
            return out if c == 1 else out.scaled(c)
        if not state.terms or n0 > state.max_degree():
            return ZERO_STATE
        out = {}
        for mono, c in state.terms.items():
            _accumulate(out, self._act_mono(a, n0, n, mono), c)
        return StateVector(out)

    def create(self, mode: tuple, mono: PBWMonomial) -> StateVector:
        """The creation mode ``mode`` = (k, a, m), k >= 1, applied to a
        monomial: its word prepended and re-canonicalised.  Not stored, so a
        caller that applies each mode once (the vacuum ideal's chains) leaves
        no table entry; :meth:`_act_mono` stores what it rereads."""
        out = {}
        for w, c in self._normalize_word((mode,) + mono.word).items():
            out[PBWMonomial(w, mono.tail)] = c  # canonical words are distinct
        return StateVector.adopt(out)

    def _act_mono(self, a: int, n0: int, n, mono: PBWMonomial) -> StateVector:
        if n0 > mono.degree:  # grading: target degree would be negative
            return ZERO_STATE
        key = (a, n0, n, mono)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        if n0 <= -1:
            result = self.create((-n0, a, n), mono)
        elif not mono.word:
            result = self.base_action(a, n0, n, mono.tail)
        else:
            (k1, b, m1) = mono.word[0]
            rest = PBWMonomial(mono.word[1:], mono.tail)
            out = {}
            # X.Y.rest = Y.(X.rest) + [X,Y].rest
            inner = self._act_mono(a, n0, n, rest)
            if inner:
                _accumulate(out, self.act_index(b, -k1, m1, inner), _ONE)
            t0, t = n0 - k1, mi_add(n, m1)
            for c, s in self.spec.bracket_basis(a, b).items():
                _accumulate(out, self._act_mono(c, t0, t, rest), s)
            if t0 == 0 and not any(t):
                central = (n0 * self.spec.pairing_basis(a, b)
                           * self.level * self.algebra.cocycle_scale)
                _accumulate(out, StateVector.of(rest), central)
            result = StateVector.adopt(out)
        return self._act_cache.store(key, result)


class ShiftedModule(Module):
    """The vacuum module twisted by the automorphism
    a(m0, m) -> a(m0, m + m0*shift); a second restricted module of the same
    level used to exercise the module-side identities, acting through the
    base module's tables."""

    def __init__(self, base: VacuumModule, shift):
        shift = _multidegree(shift, base.r)
        super().__init__(base.algebra, base.level, f"shifted({base.level};{shift})")
        self.base, self.shift = base, shift

    def act_index(self, a: int, n0: int, n: tuple, state: StateVector) -> StateVector:
        moved = tuple(ni + n0 * si for ni, si in zip(n, self.shift))
        return self.base.act_index(a, n0, moved, state)


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
    """The state of :func:`state_to_json`'s output; malformed input, a float
    coefficient included, raises :class:`SpecFormatError`."""
    total = {}
    try:
        for item in data:
            word = []
            for entry in item.get("word", []):
                label, k, *m = entry
                word.append((k, label, m))
            coeff = item.get("coeff", 1)
            if isinstance(coeff, (float, bool)):
                raise SpecFormatError(f"state coefficient {coeff!r} is a float or bool")
            _accumulate(total, module.monomial(word, item.get("tail", "1")), frac(coeff))
    except SpecFormatError:
        raise
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"malformed state JSON: {exc!r}") from exc
    return StateVector(total)
