"""Exact Lie-algebra layer.

Finite-dimensional Lie algebras are given concretely by structure constants
together with a symmetric invariant bilinear form.  On top of that sits the
(r+1)-loop algebra: formal modes ``a (x) t0^m0 t^m`` for a basis element a,
a one-dimensional centre, and r+1 derivations acting by ``-d/dt0`` and
``-t_i d/dt_i``.  Brackets follow

    [a(m0,m), b(n0,n)] = [a,b](m0+n0, m+n) + m0 <a,b> delta(m0+n0) delta(m+n) c

with c central.  Every coefficient is an exact rational, integer-first: an
``int`` when the value is integral (almost every coefficient the checks meet)
and a `fractions.Fraction` otherwise; the two compare and hash alike.  Nothing
in the engine touches floating point, so all downstream checks are exact
equalities.

All objects here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[int, str, Fraction]
Rational = Union[int, Fraction]


def frac(x: Scalar) -> Rational:
    """Coerce an int / 'p/q' string / Fraction to an exact rational: an int
    when the value is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# Multi-indices.  A full toroidal exponent is a pair (m0, m) with m0 an int
# and m a length-r tuple of ints; m travels around as a plain tuple.

def mi_zero(r: int) -> tuple:
    return (0,) * r


def mi_add(m: tuple, n: tuple) -> tuple:
    return tuple(map(operator.add, m, n))


def mi_sub(m: tuple, n: tuple) -> tuple:
    return tuple(map(operator.sub, m, n))


class SpecFormatError(ValueError):
    """Malformed algebra/config input (shape or parse problems)."""


def _integer(name: str, value, low=None) -> int:
    """``value`` as an int: a JSON integer, or a float with an integral value;
    anything else, or a value below ``low``, is a config error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise SpecFormatError(f"config field {name!r} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise SpecFormatError(f"config field {name!r} must be >= {low}, got {value}")
    return value


def _multidegree(value, r: int) -> tuple:
    """``value`` as a multidegree of rank r.  A tuple of rank r is the engine's
    own form and passes as it is; any other sequence of r entries is converted
    by the :func:`_integer` rule.  Another rank, or an entry that breaks the
    rule, is a :class:`SpecFormatError`."""
    if type(value) is tuple and len(value) == r:
        return value
    if len(value) != r:
        raise SpecFormatError(f"multidegree {value!r} has rank {len(value)}, expected {r}")
    return tuple(_integer("multidegree", x) for x in value)


class LieAlgebraSpec:
    """A finite-dimensional Lie algebra presented by structure constants.

    ``brackets[(i, j)]`` maps a basis index k to the coefficient of basis
    element k in [b_i, b_j]; absent pairs are zero.  ``form`` is the full
    dim x dim matrix of the bilinear pairing.  The constructor only checks
    shapes; the algebraic identities (antisymmetry, Jacobi, symmetry,
    invariance) are the business of :func:`validate_lie_spec` so that broken
    inputs can be loaded and reported on.
    """

    __slots__ = ("dim", "basis", "brackets", "form", "_index")

    def __init__(self, basis, brackets, form):
        self.basis = tuple(str(b) for b in basis)
        self.dim = len(self.basis)
        if len(set(self.basis)) != self.dim:
            raise SpecFormatError("duplicate basis labels")
        self._index = {b: i for i, b in enumerate(self.basis)}
        bk = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise SpecFormatError(f"bracket index out of range: ({i},{j})")
            row = {}
            for k, c in coeffs.items():
                if not 0 <= k < self.dim:
                    raise SpecFormatError(f"structure constant target out of range: {k}")
                c = frac(c)
                if c:
                    row[k] = c
            if row:
                bk[(i, j)] = row
        self.brackets = bk
        form = tuple(tuple(frac(x) for x in row) for row in form)
        if len(form) != self.dim or any(len(row) != self.dim for row in form):
            raise SpecFormatError(
                f"form matrix must be {self.dim}x{self.dim}, got "
                f"{len(form)}x{len(form[0]) if form else 0}")
        self.form = form

    # -- lookups ------------------------------------------------------------

    def index_of(self, label) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.dim:
                raise SpecFormatError(f"basis index out of range: {label}")
            return label
        try:
            return self._index[label]
        except KeyError:
            raise SpecFormatError(f"unknown basis label: {label!r}") from None

    def bracket_basis(self, i: int, j: int) -> dict:
        """[b_i, b_j] as a sparse vector {k: coeff}."""
        return self.brackets.get((i, j), {})

    def pairing_basis(self, i: int, j: int) -> Rational:
        return self.form[i][j]

    # -- mutation-test helpers (return fresh specs; never modify in place) --

    def with_structure_entry(self, i: int, j: int, k: int, delta: Scalar) -> "LieAlgebraSpec":
        bk = {pair: dict(row) for pair, row in self.brackets.items()}
        row = bk.setdefault((i, j), {})
        row[k] = row.get(k, _ZERO) + frac(delta)
        if not row[k]:
            del row[k]
        return LieAlgebraSpec(self.basis, bk, self.form)

    def with_form_entry(self, i: int, j: int, delta: Scalar) -> "LieAlgebraSpec":
        form = [list(row) for row in self.form]
        form[i][j] += frac(delta)
        return LieAlgebraSpec(self.basis, self.brackets, form)

    # -- JSON ----------------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebraSpec":
        try:
            basis = list(data["basis"])
            dim = int(data.get("dim", len(basis)))
        except (KeyError, TypeError) as exc:
            raise SpecFormatError(f"algebra file missing field: {exc}") from exc
        if dim != len(basis):
            raise SpecFormatError(f"dim={dim} but {len(basis)} basis labels")
        index = {b: i for i, b in enumerate(basis)}

        def idx(x):
            if type(x) is int:  # a JSON true is not index 1
                return x
            if x in index:
                return index[x]
            raise SpecFormatError(f"unknown basis reference {x!r}")

        def exact(x):
            # JSON gives a float at its binary value, never the decimal written
            if isinstance(x, (float, bool)):
                raise SpecFormatError(f"algebra entry {x!r} is a float or bool: write an "
                                      f"integer or a 'p/q' string")
            return frac(x)

        brackets = {}
        for entry in data.get("brackets", []):
            i, j = idx(entry["i"]), idx(entry["j"])
            coeffs = {idx(k): exact(v) for k, v in entry.get("coeffs", {}).items()}
            if (i, j) in brackets:
                raise SpecFormatError(f"duplicate bracket entry for ({i},{j})")
            brackets[(i, j)] = coeffs
        # fill the opposite orientation when only one is given; explicitly
        # stated pairs are kept verbatim so that asymmetric (broken) input
        # is representable and gets caught by validation
        for (i, j), coeffs in list(brackets.items()):
            if (j, i) not in brackets:
                brackets[(j, i)] = {k: -c for k, c in coeffs.items()}
        return cls(basis, brackets, [[exact(x) for x in row] for row in data.get("form", [])])

    @classmethod
    def from_file(cls, path) -> "LieAlgebraSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        try:
            return cls.from_json(data)
        except SpecFormatError:
            raise
        except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"{path}: malformed algebra file: {exc!r}") from exc

    def to_json(self) -> dict:
        entries = []
        for (i, j) in sorted(self.brackets):
            if i < j:  # emit one orientation; loader restores the other
                entries.append({
                    "i": self.basis[i], "j": self.basis[j],
                    "coeffs": {self.basis[k]: str(c) for k, c in sorted(self.brackets[(i, j)].items())},
                })
        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "brackets": entries,
            "form": [[str(x) for x in row] for row in self.form],
        }


_ZERO = 0


class LieValidation:
    """Outcome of validating a LieAlgebraSpec: pass, or the first violation."""

    def __init__(self, ok: bool, kind: Optional[str] = None, witness: Optional[tuple] = None,
                 detail: str = ""):
        self.ok, self.detail = ok, detail
        self.kind = kind        # "antisymmetry" | "jacobi" | "form-symmetry" | "invariance"
        self.witness = witness  # offending basis labels

    def to_json(self) -> dict:
        return {"ok": self.ok, "kind": self.kind,
                "witness": list(self.witness) if self.witness else None,
                "detail": self.detail}


def validate_lie_spec(spec: LieAlgebraSpec) -> LieValidation:
    """Check antisymmetry, the Jacobi identity, symmetry of the form, and
    invariance <[a,b],c> = <a,[b,c]> on all basis triples.  Stops at the
    first violation and names the offending triple."""
    dim = spec.dim
    lab = spec.basis
    for i in range(dim):
        for j in range(i, dim):
            fwd = spec.bracket_basis(i, j)
            bwd = spec.bracket_basis(j, i)
            keys = set(fwd) | set(bwd)
            if any(fwd.get(k, _ZERO) != -bwd.get(k, _ZERO) for k in keys):
                return LieValidation(False, "antisymmetry", (lab[i], lab[j]),
                                     f"[{lab[i]},{lab[j]}] != -[{lab[j]},{lab[i]}]")
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                # [[bi,bj],bk] + [[bj,bk],bi] + [[bk,bi],bj]
                acc = {}
                for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = spec.bracket_basis(p, q)
                    for s, c in inner.items():
                        for t, d in spec.bracket_basis(s, r).items():
                            acc[t] = acc.get(t, _ZERO) + c * d
                if any(v for v in acc.values()):
                    return LieValidation(False, "jacobi", (lab[i], lab[j], lab[k]),
                                         "Jacobi sum does not vanish")
    for i in range(dim):
        for j in range(i + 1, dim):
            if spec.form[i][j] != spec.form[j][i]:
                return LieValidation(False, "form-symmetry", (lab[i], lab[j]),
                                     f"<{lab[i]},{lab[j]}> != <{lab[j]},{lab[i]}>")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = sum((c * spec.form[s][k] for s, c in spec.bracket_basis(i, j).items()), _ZERO)
                rhs = sum((c * spec.form[i][s] for s, c in spec.bracket_basis(j, k).items()), _ZERO)
                if lhs != rhs:
                    return LieValidation(False, "invariance", (lab[i], lab[j], lab[k]),
                                         f"<[{lab[i]},{lab[j]}],{lab[k]}> = {lhs} != {rhs} = <{lab[i]},[{lab[j]},{lab[k]}]>")
    return LieValidation(True)


# ---------------------------------------------------------------------------
# The multi-loop algebra with centre and derivations.

class ToroidalElement:
    """A finite rational combination of loop modes a(m0, m), the central
    element, and the r+1 derivations.

    ``loop`` maps (basis index, m0, m) to a nonzero coefficient; ``central``
    and ``der`` hold the centre and derivation coefficients.  Instances are
    immutable; arithmetic returns new elements.
    """

    __slots__ = ("r", "loop", "central", "der", "_hash")

    def __init__(self, r: int, loop=None, central: Scalar = 0, der=None):
        self.r = r
        clean = {}
        for key, c in (loop or {}).items():
            c = frac(c)
            if c:
                a, m0, m = key
                if len(m) != r:
                    raise SpecFormatError(f"mode {key} has rank {len(m)}, expected {r}")
                clean[(a, m0, tuple(m))] = c
        self.loop = clean
        self.central = frac(central)
        der = tuple(frac(x) for x in (der or (0,) * (r + 1)))
        if len(der) != r + 1:
            raise SpecFormatError("derivation vector must have length r+1")
        self.der = der
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def loop_mode(cls, r, a, m0, m, coeff: Scalar = 1):
        return cls(r, {(a, m0, tuple(m)): frac(coeff)})

    @classmethod
    def derivation(cls, r, i, coeff: Scalar = 1):
        if not 0 <= i <= r:
            raise SpecFormatError(f"derivation index {i} out of range 0..{r}")
        der = [_ZERO] * (r + 1)
        der[i] = frac(coeff)
        return cls(r, der=der)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        loop = dict(self.loop)
        for k, c in other.loop.items():
            s = loop.get(k, _ZERO) + c
            if s:
                loop[k] = s
            elif k in loop:
                del loop[k]
        return ToroidalElement(self.r, loop, self.central + other.central,
                               tuple(a + b for a, b in zip(self.der, other.der)))

    def is_zero(self) -> bool:
        return not self.loop and not self.central and not any(self.der)

    def _check(self, other):
        if self.r != other.r:
            raise SpecFormatError(f"rank mismatch: {self.r} vs {other.r}")

    def __eq__(self, other):
        return (isinstance(other, ToroidalElement) and self.r == other.r
                and self.loop == other.loop and self.central == other.central
                and self.der == other.der)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, frozenset(self.loop.items()), self.central, self.der))
        return self._hash

    def __repr__(self):
        parts = [f"{c}*({a};{m0},{m})" for (a, m0, m), c in sorted(self.loop.items())]
        if self.central:
            parts.append(f"{self.central}*c")
        parts += [f"{c}*d{i}" for i, c in enumerate(self.der) if c]
        return " + ".join(parts) if parts else "0"


class ToroidalAlgebra:
    """The centrally extended multi-loop algebra of a LieAlgebraSpec, with its
    derivations.

    ``cocycle_scale`` rescales the central 2-cocycle; anything other than 1
    is only ever used by the mutation-testing harness.
    """

    __slots__ = ("spec", "r", "cocycle_scale")

    def __init__(self, spec: LieAlgebraSpec, r: int, cocycle_scale: Scalar = 1):
        if r < 1:
            raise SpecFormatError("rank r must be >= 1")
        self.spec = spec
        self.r = r
        self.cocycle_scale = frac(cocycle_scale)

    def loop_mode(self, a, m0, m, coeff: Scalar = 1) -> ToroidalElement:
        return ToroidalElement.loop_mode(self.r, self.spec.index_of(a), m0, m, coeff)

    def bracket(self, x: ToroidalElement, y: ToroidalElement) -> ToroidalElement:
        """Full bilinear bracket: loop/loop, derivation/loop, centre central."""
        x._check(y)
        if x.r != self.r:
            raise SpecFormatError(f"element rank {x.r} does not match algebra rank {self.r}")
        loop = {}
        central = _ZERO

        def add_loop(key, c):
            s = loop.get(key, _ZERO) + c
            if s:
                loop[key] = s
            elif key in loop:
                del loop[key]

        for (a, m0, m), ca in x.loop.items():
            for (b, n0, n), cb in y.loop.items():
                c = ca * cb
                tot0, tot = m0 + n0, mi_add(m, n)
                for k, s in self.spec.bracket_basis(a, b).items():
                    add_loop((k, tot0, tot), c * s)
                if tot0 == 0 and not any(tot):
                    central += c * m0 * self.spec.pairing_basis(a, b) * self.cocycle_scale
        # derivations act as [d0, a(m0,m)] = -m0 a(m0-1, m),
        # [di, a(m0,m)] = -m_i a(m0,m); they commute with each other and c
        for i, cd in enumerate(x.der):
            if not cd:
                continue
            for (b, n0, n), cb in y.loop.items():
                if i == 0:
                    if n0:
                        add_loop((b, n0 - 1, n), -cd * cb * n0)
                elif n[i - 1]:
                    add_loop((b, n0, n), -cd * cb * n[i - 1])
        for i, cd in enumerate(y.der):
            if not cd:
                continue
            for (a, m0, m), ca in x.loop.items():
                if i == 0:
                    if m0:
                        add_loop((a, m0 - 1, m), cd * ca * m0)
                elif m[i - 1]:
                    add_loop((a, m0, m), cd * ca * m[i - 1])
        return ToroidalElement(self.r, loop, central)
