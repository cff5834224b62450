"""Vertex-operator structure on the vacuum-type module.

The multi-variable vertex operator attached to a state is computed by
recursion on its word: peel the leftmost creation mode and apply the
component product formula with the generator current on the left.  The
recursion never materialises series; all sums are cut exactly by the degree
witnesses.  States and fields are kept strictly apart: the state-field map
need not be injective, so equality of states is never inferred from equality
of mode tables.

Also here: the left ideal generated by the cyclic vector (every tail-free
state), its reduced-echelon basis and graded dimensions, and the ordinary
one-variable vertex operators obtained by collapsing the toroidal variables
at 1 — well defined on that ideal because each tail-free monomial contributes
a single toroidal degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .fields import FieldSpace, ModeWindow
from .liecore import (LieAlgebraSpec, Scalar, SpecFormatError, ToroidalAlgebra,
                      frac, mi_sub, mi_zero)
from .series import binom
from .states import (LRUCache, PBWMonomial, StateVector, VACUUM_MONO,
                     VacuumModule, ZERO_STATE, _accumulate, state_from_json,
                     state_to_json)

_ZERO = 0
_ONE = 1


class Session:
    """One fully wired instance: algebra, level, module, field space, caches."""

    def __init__(self, spec: LieAlgebraSpec, r: int, level: Scalar,
                 cache_entries: int = 200_000, cocycle_scale: Scalar = 1,
                 term_bound: int = 200_000):
        self.spec = spec
        self.r = r
        self.level = frac(level)
        self.algebra = ToroidalAlgebra(spec, r, cocycle_scale)
        self.module = VacuumModule(self.algebra, self.level, cache_entries)
        self.fields = FieldSpace(self.module, term_bound, cache_entries)
        self._vm_cache = LRUCache(cache_entries)
        self._vm_state_cache = LRUCache(cache_entries)
        self._zero_mi = mi_zero(r)

    # -- states ---------------------------------------------------------------

    def vacuum(self) -> StateVector:
        return self.module.vacuum()

    def tail(self, a) -> StateVector:
        return self.module.tail(a)

    def monomial(self, word, tail=None) -> StateVector:
        return self.module.monomial(word, tail)

    def parse_state(self, ref) -> StateVector:
        """State references: 'vac' / '1', 'tail:x' or a bare basis label, a
        whitespace word of mode applications 'x(n0;m1,...,mr)' ending in a
        tail token (applied right to left), or serialised-state JSON."""
        if isinstance(ref, (list, tuple)):
            return state_from_json(self.module, list(ref))
        if isinstance(ref, dict):
            return state_from_json(self.module, [ref])
        text = str(ref).strip()
        tokens = text.split()
        if not tokens:
            raise SpecFormatError("empty state reference")
        state = self._parse_tail(tokens[-1])
        for tok in reversed(tokens[:-1]):
            a, n0, n = self._parse_mode(tok)
            state = self.module.act(a, n0, n, state)
        return state

    def _parse_tail(self, tok: str) -> StateVector:
        if tok in ("vac", "1"):
            return self.vacuum()
        if tok.startswith("tail:"):
            return self.tail(tok[5:])
        return self.tail(tok)

    def _parse_mode(self, tok: str):
        if "(" not in tok or not tok.endswith(")"):
            raise SpecFormatError(f"bad mode token {tok!r}; expected label(n0;m,...)")
        label, rest = tok.split("(", 1)
        body = rest[:-1]
        parts = body.split(";")
        if len(parts) != 2:
            raise SpecFormatError(f"bad mode token {tok!r}; expected label(n0;m,...)")
        n0 = int(parts[0])
        n = tuple(int(x) for x in parts[1].split(",")) if parts[1] else ()
        if len(n) != self.r:
            raise SpecFormatError(f"mode {tok!r} has rank {len(n)}, session rank is {self.r}")
        return label, n0, n

    def state_json(self, state: StateVector) -> list:
        return state_to_json(self.spec, state)

    def render(self, state: StateVector) -> str:
        if state.is_zero():
            return "0"
        bits = []
        for mono, c in state.items_sorted():
            modes = " ".join(
                f"{self.spec.basis[a]}(-{k};{','.join(map(str, m))})" for (k, a, m) in mono.word)
            t = "|1>" if mono.tail is None else f"|{self.spec.basis[mono.tail]}>"
            body = (modes + " " if modes else "") + t
            bits.append(f"{c}*{body}" if c != 1 else body)
        return " + ".join(bits)

    # -- the vertex operator map ------------------------------------------------

    def vertex_mode(self, v, n0: int, n, w: StateVector, module=None) -> StateVector:
        """The (n0, n) mode of the vertex operator of the state v, applied to
        w in the given restricted module (default: the vacuum module)."""
        mod = module or self.module
        n = tuple(n)
        if isinstance(v, PBWMonomial):
            v = StateVector.of(v)
        terms = v.terms
        if len(terms) == 1:  # dominant case: tails and single monomials
            (mono, c), = terms.items()
            out = self._vm_mono(mod, mono, n0, n, w)
            return out if c == 1 else out.scaled(c)
        key = (mod.key, v, n0, n, w)
        cached = self._vm_state_cache.get(key)
        if cached is None:
            acc = {}
            for mono, c in terms.items():
                _accumulate(acc, self._vm_mono(mod, mono, n0, n, w), c)
            cached = StateVector(acc)
            self._vm_state_cache.put(key, cached)
        return cached

    def _vm_mono(self, mod, mono: PBWMonomial, n0: int, n, w: StateVector) -> StateVector:
        if not w or n0 > mod.max_degree(w) + mono.degree - 1:
            return ZERO_STATE
        key = (mod.key, mono, n0, n, w)
        cached = self._vm_cache.get(key)
        if cached is not None:
            return cached
        if not mono.word:
            if mono.tail is None:
                result = w if (n0 == -1 and n == self._zero_mi) else ZERO_STATE
            else:
                result = mod.act(mono.tail, n0, n, w)
        else:
            (k1, a, m1) = mono.word[0]
            rest = PBWMonomial(mono.word[1:], mono.tail)
            m0 = -k1
            nm = mi_sub(n, m1)
            acc = {}
            hi1 = mod.max_degree(w) + rest.degree - 1 - n0
            for i in range(hi1 + 1):
                t = self._vm_mono(mod, rest, n0 + i, nm, w)
                if t:
                    c = binom(m0, i) * (-1 if i % 2 else 1)
                    _accumulate(acc, mod.act(a, m0 - i, m1, t), c)
            sign_m0 = -1 if m0 % 2 else 1
            for i in range(mod.max_degree(w) + 1):
                t = mod.act(a, i, m1, w)
                if t:
                    c = -sign_m0 * binom(m0, i) * (-1 if i % 2 else 1)
                    _accumulate(acc, self._vm_mono(mod, rest, m0 + n0 - i, nm, t), c)
            result = StateVector(acc)
        self._vm_cache.put(key, result)
        return result

    def product(self, u, m0: int, m, v: StateVector) -> StateVector:
        """The algebra product u_(m0, m) v inside the vacuum module."""
        return self.vertex_mode(u, m0, tuple(m), v)

    def field_witness(self, v, w: StateVector, module=None) -> int:
        """vertex_mode(v, n0, ., w) = 0 for all n0 beyond this bound."""
        mod = module or self.module
        vdeg = v.max_degree() if isinstance(v, StateVector) else v.degree
        return mod.max_degree(w) + vdeg - 1

    # -- creation property -------------------------------------------------------

    def creation_failures(self, v: StateVector, window: ModeWindow) -> list:
        """Tuples (n0, n) in the window with n0 >= 0 where the vertex operator
        of v applied to the cyclic vector fails to vanish."""
        vac = self.vacuum()
        bad = []
        for n0 in window.m0_values():
            if n0 < 0:
                continue
            for n in window.m_values():
                if self.vertex_mode(v, n0, n, vac):
                    bad.append((n0, n))
        return bad

    # -- generator product table ---------------------------------------------------

    def expected_generator_product(self, a, m0: int, b) -> StateVector:
        """Closed form of a_(m0, m) b for generators and m0 >= 0: the bracket
        tail at m0 = 0, level * pairing at m0 = 1, zero beyond."""
        ai, bi = self.spec.index_of(a), self.spec.index_of(b)
        if m0 == 0:
            out = {}
            for k, c in self.spec.bracket_basis(ai, bi).items():
                _accumulate(out, StateVector.of(PBWMonomial((), k)), c)
            return StateVector(out)
        if m0 == 1:
            c = self.level * self.spec.pairing_basis(ai, bi)
            return StateVector.of(VACUUM_MONO, c) if c else ZERO_STATE
        if m0 >= 2:
            return ZERO_STATE
        raise ValueError("closed form only covers m0 >= 0")

    # -- the vacuum ideal and its one-variable structure ----------------------------

    def _tdeg(self, mono: PBWMonomial):
        t = mono.tmultidegree()
        return t if t else self._zero_mi  # empty word: zero multidegree of rank r

    def support(self, u: StateVector) -> set:
        """Toroidal mode support of the vertex operator of a tail-free state:
        one degree per monomial.  Raises on tails, whose support certificate
        does not exist (their currents spread over every degree)."""
        if not u.is_tail_free():
            raise ValueError("finite-support certificate requires a tail-free state")
        return {self._tdeg(mono) for mono in u.terms}

    def ordinary_mode(self, u: StateVector, n0: int, w: StateVector, module=None) -> StateVector:
        """Mode of the one-variable vertex operator: the toroidal variables are
        collapsed at 1, i.e. summed over the (finite) support of u."""
        out = {}
        for n in sorted(self.support(u)):
            _accumulate(out, self.vertex_mode(u, n0, n, w, module=module), _ONE)
        return StateVector(out)

    def homogeneous_support_failures(self, u: StateVector, window: ModeWindow) -> list:
        """For a state of a single toroidal degree, every window mode off that
        degree must vanish.  Returns offending (n0, n, state-index) tuples."""
        supp = self.support(u)
        if len(supp) > 1:
            raise ValueError("state mixes toroidal degrees; restrict to a homogeneous one")
        mu = next(iter(supp)) if supp else None
        bad = []
        for (n0, n) in window.modes():
            if mu is not None and n == mu:
                continue
            for si, w in enumerate(window.states):
                if self.vertex_mode(u, n0, n, w):
                    bad.append((n0, n, si))
        return bad

    def build_vacuum_ideal(self, depth: int, window: ModeWindow) -> "VacuumIdeal":
        """Spanning states of the left ideal generated by the cyclic vector,
        from chains of at most ``depth`` window creation modes applied in
        canonical order (so each chain is a pure basis monomial), echelonised
        over Q."""
        if depth < 1:
            raise SpecFormatError("depth must be >= 1")
        modes = []
        for m0 in window.m0_values():
            if m0 <= -1:
                for a in range(self.spec.dim):
                    for m in window.m_values():
                        modes.append((-m0, a, m))
        modes.sort(key=lambda t: (-t[0], t[1], t[2]))
        chains = [()]
        states = [(self.vacuum(), "1")]
        for _ in range(depth):
            nxt = []
            for chain in chains:
                start = 0 if not chain else modes.index(chain[-1])
                for mode in modes[start:]:
                    nxt.append(chain + (mode,))
            for chain in nxt:
                st = self.vacuum()
                for (k, a, m) in reversed(chain):
                    st = self.module.act(a, -k, m, st)
                label = " ".join(f"{self.spec.basis[a]}(-{k};{','.join(map(str, m))})"
                                 for (k, a, m) in chain) + " 1"
                states.append((st, label))
            chains = nxt
        return VacuumIdeal.from_spanning(self, states)


def _mono_order(mono: PBWMonomial):
    return mono.sort_key()


def echelonize(states: Sequence[StateVector]):
    """Reduced echelon form over Q of a list of states; returns the list of
    pivot rows as StateVectors (pivot coefficient 1, pivots cleared from all
    other rows), in pivot order."""
    pivots = {}  # leading monomial -> row dict
    for st in states:
        row = dict(st.terms)
        while row:
            lead = min(row, key=_mono_order)
            if lead in pivots:
                c = row.pop(lead)
                for mo, v in pivots[lead].items():
                    if mo == lead:
                        continue
                    s = row.get(mo, _ZERO) - c * v
                    if s:
                        row[mo] = s
                    elif mo in row:
                        del row[mo]
            else:
                inv = Fraction(1) / row[lead]  # Fraction division, never int / int
                row = {mo: v * inv for mo, v in row.items()}
                for other in pivots.values():
                    if lead in other:
                        c = other.pop(lead)
                        for mo, v in row.items():
                            if mo == lead:
                                continue
                            s = other.get(mo, _ZERO) - c * v
                            if s:
                                other[mo] = s
                            elif mo in other:
                                del other[mo]
                pivots[lead] = row
                break
    return [StateVector(pivots[lead]) for lead in sorted(pivots, key=_mono_order)]


@dataclass
class VacuumIdeal:
    """Window-restricted picture of the ideal generated by the cyclic vector:
    spanning states with provenance, an echelon basis, graded dimensions."""

    session: Session
    spanning: list                      # (StateVector, provenance label)
    basis: list                         # echelonised StateVectors
    graded_dims: dict                   # degree -> dimension

    @classmethod
    def from_spanning(cls, session: Session, states) -> "VacuumIdeal":
        basis = echelonize([s for s, _ in states if s])
        dims = {}
        for b in basis:
            d = min(b.terms, key=_mono_order).degree
            dims[d] = dims.get(d, 0) + 1
        return cls(session, list(states), basis, dims)

    def contains(self, state: StateVector) -> bool:
        """Exact membership in the echelon span."""
        row = dict(state.terms)
        table = {min(b.terms, key=_mono_order): b for b in self.basis}
        while row:
            lead = min(row, key=_mono_order)
            b = table.get(lead)
            if b is None:
                return False
            c = row[lead]
            for mo, v in b.terms.items():
                s = row.get(mo, _ZERO) - c * v
                if s:
                    row[mo] = s
                elif mo in row:
                    del row[mo]
        return True

    def tail_free(self) -> bool:
        return all(s.is_tail_free() for s, _ in self.spanning)


def loop_affine_graded_dims(mode_count_per_k, max_degree: int) -> dict:
    """Independent count of graded dimensions for the vacuum module of the
    one-variable affinisation of the loop algebra: words are multisets of
    creation modes (k, a, m) with k >= 1 summing to the degree, each k
    offering ``mode_count_per_k(k)`` choices of (a, m).

    Computed by a partition-style dynamic program, deliberately sharing no
    code with the ideal construction.
    """
    from math import comb

    def count_with_min_part(n: int, kmin: int) -> int:
        if n == 0:
            return 1
        total = 0
        for k in range(kmin, n + 1):
            colors = mode_count_per_k(k)
            # j copies of part k, any multiset of the colored modes
            j = 1
            while k * j <= n:
                total += comb(colors + j - 1, j) * count_with_min_part(n - k * j, k + 1)
                j += 1
        return total

    return {n: count_with_min_part(n, 1) for n in range(max_degree + 1)}
