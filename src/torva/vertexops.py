"""Vertex-operator structure on the vacuum-type module.

The multi-variable vertex operator attached to a state is computed by
recursion on its word: peel the leftmost creation mode and apply the
component product formula (:func:`fields.component_sum`) with the generator
current on the left.  The recursion never materialises series; all sums are
cut exactly by the degree witnesses.  States and fields are kept strictly
apart: the state-field map need not be injective, so equality of states is
never inferred from equality of mode tables; :meth:`Session.field_of` wraps
a state's vertex operator as a field handle keyed by the state itself.

Also here: the left ideal generated by the cyclic vector (every tail-free
state), its spanning chain states, reduced-echelon basis and graded
dimensions, a chain's label rendered from its state's word, and the ordinary
one-variable vertex operators obtained by collapsing the toroidal variables
at 1 — well defined on that ideal because each tail-free monomial contributes
a single toroidal degree.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .fields import FieldHandle, FieldSpace, ModeWindow, component_sum
from .liecore import (LieAlgebraSpec, Scalar, SpecFormatError, ToroidalAlgebra,
                      _multidegree, frac, mi_sub, mi_zero)
from .states import (Memo, PBWMonomial, StateVector, VACUUM_MONO, VacuumModule,
                     ZERO_STATE, _accumulate, _mode_key, state_from_json)

_ZERO = 0
_ONE = 1


class Session:
    """One fully wired instance: algebra, level, module, field space, caches."""

    def __init__(self, spec: LieAlgebraSpec, r: int, level: Scalar,
                 cocycle_scale: Scalar = 1, term_bound: int = 200_000):
        self.spec = spec
        self.r = r
        self.level = frac(level)
        self.algebra = ToroidalAlgebra(spec, r, cocycle_scale)
        self.module = VacuumModule(self.algebra, self.level)
        self.fields = FieldSpace(self.module, term_bound)
        self._vm_cache = Memo()
        self._vm_state_cache = Memo()
        self._zero_mi = mi_zero(r)

    def empty_working_sets(self):
        """Empty the session's two vertex-mode tables and the field space's
        two tables; the module's two stay, as every group rereads them."""
        for table in (self._vm_cache, self._vm_state_cache, self.fields._mode_cache,
                      self.fields._comm_cache):
            table.empty()

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
        try:
            n0 = int(parts[0])
            n = tuple(int(x) for x in parts[1].split(",")) if parts[1] else ()
        except ValueError:
            raise SpecFormatError(f"bad mode token {tok!r}; indices must be integers") from None
        if len(n) != self.r:
            raise SpecFormatError(f"mode {tok!r} has rank {len(n)}, session rank is {self.r}")
        return label, n0, n

    def _mode_text(self, mode) -> str:
        k, a, m = mode
        return f"{self.spec.basis[a]}(-{k};{','.join(map(str, m))})"

    def render(self, state: StateVector) -> str:
        if state.is_zero():
            return "0"
        bits = []
        for mono, c in state.items_sorted():
            modes = " ".join(map(self._mode_text, mono.word))
            t = "|1>" if mono.tail is None else f"|{self.spec.basis[mono.tail]}>"
            body = (modes + " " if modes else "") + t
            bits.append(f"{c}*{body}" if c != 1 else body)
        return " + ".join(bits)

    # -- the vertex operator map ------------------------------------------------

    def vertex_mode(self, v, n0: int, n, w: StateVector, module=None) -> StateVector:
        """The (n0, n) mode of the vertex operator of the state v, applied to
        w in the given restricted module (default: the vacuum module)."""
        mod = module or self.module
        n = _multidegree(n, self.r)  # the module is reached through its unchecked act_index
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
            cached = self._vm_state_cache.store(key, StateVector(acc))
        return cached

    def _vm_mono(self, mod, mono: PBWMonomial, n0: int, n, w: StateVector) -> StateVector:
        """The (n0, n) mode of a monomial's vertex operator on w.  A word-less
        monomial's mode is the identity on the vacuum or the module's action
        on a tail, whose table already holds it; so ``_vm_cache`` stores the
        modes of word states only, by recursion on the leftmost letter."""
        if not w or n0 > w.max_degree() + mono.degree - 1:
            return ZERO_STATE
        if not mono.word:
            if mono.tail is None:
                return w if (n0 == -1 and n == self._zero_mi) else ZERO_STATE
            return mod.act_index(mono.tail, n0, n, w)
        key = (mod.key, mono, n0, n, w)
        cached = self._vm_cache.get(key)
        if cached is not None:
            return cached
        (k1, a, m1) = mono.word[0]
        rest = PBWMonomial(mono.word[1:], mono.tail)
        wdeg = w.max_degree()
        result = StateVector.adopt(component_sum(
            functools.partial(mod.act_index, a), m1,
            functools.partial(self._vm_mono, mod, rest), mi_sub(n, m1),
            -k1, n0, w, wdeg + rest.degree - 1 - n0, wdeg))
        return self._vm_cache.store(key, result)

    def product(self, u, m0: int, m, v: StateVector) -> StateVector:
        """The algebra product u_(m0, m) v inside the vacuum module."""
        return self.vertex_mode(u, m0, m, v)

    def field_of(self, v: StateVector, module=None) -> FieldHandle:
        """The vertex operator of v on a restricted module (default: the
        vacuum module) as a field handle.  Its offset 1 - deg v gives the
        witness bound of :meth:`_vm_mono`, which its evaluator checks; its
        label is constant, as rendering a state sorts every term."""
        mod = module or self.module
        off = 1 - v.max_degree()

        def ev(n0, n, w):
            if not w.terms or n0 > w.max_degree() - off:
                return ZERO_STATE
            return self.vertex_mode(v, n0, n, w, mod)

        return FieldHandle(("Y", mod.key, v), off, ev, "Y(state)")

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
        collapsed at 1, i.e. summed over the (finite) support of u.  A support
        of one degree returns ``vertex_mode``'s (memoised) result itself."""
        supp = self.support(u)
        if len(supp) == 1:
            return self.vertex_mode(u, n0, next(iter(supp)), w, module=module)
        out = {}
        for n in sorted(supp):
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
        canonical order, echelonised over Q.  A canonical chain is a pure
        basis monomial, its own word, and its suffix ``word[1:]`` is the
        interned monomial of a chain one mode shorter; so each chain is one
        creation on that monomial, not stored, as no chain is applied twice."""
        if depth < 1:
            raise SpecFormatError("depth must be >= 1")
        modes = sorted(((-m0, a, m) for m0 in window.m0_values() if m0 <= -1
                        for a in range(self.spec.dim) for m in window.m_values()), key=_mode_key)
        pos = {mode: i for i, mode in enumerate(modes)}
        create = self.module.create
        states = [self.vacuum()]
        start = 0
        for _ in range(depth):
            end = len(states)
            for i in range(start, end):
                (mono,) = states[i].terms  # the chain's word
                chain = mono.word
                for mode in modes[pos[chain[-1]] if chain else 0:]:
                    new = chain + (mode,)
                    states.append(create(new[0], PBWMonomial(new[1:], None)))
            start = end
        return VacuumIdeal(states)

    def chain_label(self, state: StateVector) -> str:
        """The label of a chain's state: its modes, left to right, then 1."""
        (mono,) = state.terms
        return " ".join([*map(self._mode_text, mono.word), "1"])


def echelonize(states: Sequence[StateVector]):
    """Reduced row echelon form over Q of a list of states, for the monomial
    order ``PBWMonomial.sort_key``: the pivot rows as StateVectors (pivot
    coefficient 1, every pivot lead cleared from all other rows), in pivot
    order.  A row whose lead coefficient is already 1 is not divided, and a
    row that no step changes is returned as its input state itself; an
    input's terms are copied before a step changes them, never changed.

    Forward elimination reduces each incoming row only at its leading
    monomial, so a stored row may still hold the leads of other rows; one
    back-substitution pass, largest lead first, then removes them.  The work
    follows the fill of the rows, not the square of their number."""
    pivots = {}  # leading monomial -> row dict: reduced at its lead, then fully
    given = {}   # leading monomial -> the input state whose own terms are its row
    for st in states:
        row = st.terms
        while row:
            lead = min(row, key=PBWMonomial.sort_key)
            pivot = pivots.get(lead)
            if pivot is None:
                if row[lead] != 1:  # a unit lead is kept, so integer rows stay integer
                    inv = Fraction(1) / row[lead]  # Fraction division, never int / int
                    row = {mo: v * inv for mo, v in row.items()}
                elif row is st.terms:
                    given[lead] = st
                pivots[lead] = row
                break
            if row is st.terms:
                row = dict(row)
            _subtract(row, row.pop(lead), pivot, lead)
    leads = sorted(pivots, key=PBWMonomial.sort_key)
    for lead in reversed(leads):
        row = pivots[lead]
        # every other term of a row sorts after its lead, so each pivot lead in
        # ``row`` belongs to a row already reduced here: one holding no pivot
        # lead but its own, so subtracting it changes no other lead in ``row``
        found = [mo for mo in row if mo is not lead and mo in pivots]
        if found and given.pop(lead, None) is not None:
            row = pivots[lead] = dict(row)
        for mo in found:
            _subtract(row, row.pop(mo), pivots[mo], mo)
    # every changed row was built here and holds no zero term
    return [given[lead] if lead in given else StateVector.adopt(pivots[lead])
            for lead in leads]


def _subtract(row: dict, c, other: dict, skip) -> None:
    """``row -= c * other`` in place, leaving out ``other``'s ``skip`` entry
    (already removed from ``row`` by the caller) and dropping zeros."""
    for mo, v in other.items():
        if mo == skip:
            continue
        s = row.get(mo, _ZERO) - c * v
        if s:
            row[mo] = s
        elif mo in row:
            del row[mo]


class VacuumIdeal:
    """Window-restricted picture of the ideal generated by the cyclic vector:
    the spanning chain states in chain order (labels by
    :meth:`Session.chain_label`), an echelon basis, graded dimensions."""

    def __init__(self, spanning: list):
        self.spanning = spanning
        self.basis = echelonize([s for s in spanning if s])
        self.graded_dims = {}  # degree -> dimension
        for row in self.basis:
            d = min(row.terms, key=PBWMonomial.sort_key).degree
            self.graded_dims[d] = self.graded_dims.get(d, 0) + 1

    def tail_free(self) -> bool:
        return all(s.is_tail_free() for s in self.spanning)


def loop_affine_graded_dims(mode_count_per_k, max_degree: int) -> dict:
    """Independent count of graded dimensions for the vacuum module of the
    one-variable affinisation of the loop algebra: words are multisets of
    creation modes (k, a, m) with k >= 1 summing to the degree, each k
    offering ``mode_count_per_k(k)`` choices of (a, m).

    Computed by a partition-style dynamic program, deliberately sharing no
    code with the ideal construction: the table is multiplied by one part
    size k at a time, j copies of part k being any multiset of its colours.
    """
    from math import comb

    dims = [int(n == 0) for n in range(max_degree + 1)]
    for k in range(1, max_degree + 1):
        colors = mode_count_per_k(k)
        dims = [dims[n] + sum(comb(colors + j - 1, j) * dims[n - k * j]
                              for j in range(1, n // k + 1))
                for n in range(max_degree + 1)]
    return dict(enumerate(dims))
