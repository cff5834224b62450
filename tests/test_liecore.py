"""Lie layer: validation, brackets, the loop extension and its derivations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torva import (LieAlgebraSpec, SpecFormatError, ToroidalAlgebra,
                   ToroidalElement, validate_lie_spec)
from torva.liecore import frac

from conftest import abelian_spec, sl2_spec


def test_sl2_validates():
    assert validate_lie_spec(sl2_spec()).ok


def test_abelian_validates():
    assert validate_lie_spec(abelian_spec()).ok


def test_frac_is_integer_first():
    for x in (3, "4/2", Fraction(4, 2), "-6", Fraction(0)):
        assert type(frac(x)) is int
    assert frac("4/2") == 2 and frac(Fraction(-6, 3)) == -2
    half = frac("1/2")
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert frac(Fraction(3, 6)) == Fraction(1, 2)
    # sl2's structure constants and form are integral, so they are ints
    spec = sl2_spec()
    assert all(type(c) is int for row in spec.brackets.values() for c in row.values())
    assert all(type(x) is int for row in spec.form for x in row)


def test_invariance_violation_witnessed():
    spec = sl2_spec().with_form_entry(2, 2, 1)  # <h,h>: 2 -> 3
    rep = validate_lie_spec(spec)
    assert not rep.ok
    assert rep.kind == "invariance"
    assert set(rep.witness) == {"e", "f", "h"}


def test_antisymmetry_violation_witnessed():
    spec = sl2_spec().with_structure_entry(0, 1, 2, 1)  # [e,f] -> 2h, [f,e] unchanged
    rep = validate_lie_spec(spec)
    assert not rep.ok
    assert rep.kind == "antisymmetry"


def test_jacobi_violation_detected():
    # keep antisymmetry, break Jacobi: [e,f]=h+e with [f,e]=-h-e
    spec = sl2_spec().with_structure_entry(0, 1, 0, 1).with_structure_entry(1, 0, 0, -1)
    rep = validate_lie_spec(spec)
    assert not rep.ok
    assert rep.kind in ("jacobi", "invariance")


def test_form_shape_checked():
    with pytest.raises(SpecFormatError):
        LieAlgebraSpec(["a", "b"], {}, [[0]])


def test_spec_bracket_table():
    spec = sl2_spec()
    e, f, h = (spec.index_of(b) for b in ("e", "f", "h"))
    assert spec.bracket_basis(e, f) == {h: 1}
    assert spec.bracket_basis(e, e) == {}
    assert spec.bracket_basis(h, e) == {e: 2} and spec.bracket_basis(h, f) == {f: -2}


def test_pairing():
    spec = sl2_spec()
    e, f, h = (spec.index_of(b) for b in ("e", "f", "h"))
    assert spec.pairing_basis(e, f) == spec.pairing_basis(f, e) == 1
    assert spec.pairing_basis(h, h) == 2
    assert spec.pairing_basis(e, e) == spec.pairing_basis(e, h) == 0


def test_json_roundtrip():
    spec = sl2_spec()
    again = LieAlgebraSpec.from_json(spec.to_json())
    assert again.brackets == spec.brackets
    assert again.form == spec.form


def test_loop_bracket_paper_value():
    # [e@t0 t1, f@t0^-1 t1^-1] = h@1 + <e,f> c  at rank 1
    alg = ToroidalAlgebra(sl2_spec(), 1)
    x = alg.loop_mode("e", 1, (1,))
    y = alg.loop_mode("f", -1, (-1,))
    z = alg.bracket(x, y)
    assert z.loop == {(2, 0, (0,)): Fraction(1)}
    assert z.central == 1
    assert not any(z.der)


def test_central_element_commutes():
    alg = ToroidalAlgebra(sl2_spec(), 1)
    c = ToroidalElement(1, central=1)
    x = alg.loop_mode("e", 2, (1,)) + ToroidalElement.derivation(1, 0)
    assert alg.bracket(c, x).is_zero()
    assert alg.bracket(x, c).is_zero()


def test_derivation_bracket_signs():
    alg = ToroidalAlgebra(sl2_spec(), 1)
    d0 = ToroidalElement.derivation(1, 0)
    d1 = ToroidalElement.derivation(1, 1)
    x = alg.loop_mode("e", 3, (2,))
    assert alg.bracket(d0, x) == alg.loop_mode("e", 2, (2,), -3)
    assert alg.bracket(d1, x) == alg.loop_mode("e", 3, (2,), -2)
    assert alg.bracket(d0, d1).is_zero()


def test_rank_mismatch_rejected():
    alg = ToroidalAlgebra(sl2_spec(), 1)
    x = alg.loop_mode("e", 0, (0,))
    y = ToroidalElement.loop_mode(2, 0, 0, (0, 0))
    with pytest.raises(SpecFormatError):
        alg.bracket(x, y)


# -- randomised properties ---------------------------------------------------

def modes(r, bound=3):
    idx = st.integers(min_value=0, max_value=2)
    exp = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(idx, exp, st.tuples(*[exp] * r))


def elements(r, bound=3):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.builds(
        lambda ms, cs, cen, der: ToroidalElement(
            r, {m: c for m, c in zip(ms, cs)}, cen, der),
        st.lists(modes(r, bound), min_size=0, max_size=3),
        st.lists(coeff, min_size=3, max_size=3),
        coeff,
        st.tuples(*[coeff] * (r + 1)))


@settings(max_examples=60, deadline=None)
@given(elements(1), elements(1))
def test_bracket_antisymmetric(x, y):
    alg = ToroidalAlgebra(sl2_spec(), 1)
    assert (alg.bracket(x, y) + alg.bracket(y, x)).is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(1), elements(1), elements(1))
def test_bracket_jacobi(x, y, z):
    alg = ToroidalAlgebra(sl2_spec(), 1)
    br = alg.bracket
    total = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
    assert total.is_zero()


@settings(max_examples=40, deadline=None)
@given(elements(2, 2), elements(2, 2))
def test_bracket_jacobi_rank2_with_derivations(x, y):
    alg = ToroidalAlgebra(sl2_spec(), 2)
    for i in range(3):
        d = ToroidalElement.derivation(2, i)
        lhs = alg.bracket(d, alg.bracket(x, y))
        rhs = alg.bracket(alg.bracket(d, x), y) + alg.bracket(x, alg.bracket(d, y))
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(modes(1), modes(1))
def test_central_term_support(ma, mb):
    # the centre only appears when the total mode is zero
    alg = ToroidalAlgebra(sl2_spec(), 1)
    (a, m0, m), (b, n0, n) = ma, mb
    z = alg.bracket(alg.loop_mode(a, m0, m), alg.loop_mode(b, n0, n))
    if z.central:
        assert m0 + n0 == 0 and tuple(x + y for x, y in zip(m, n)) == (0,)
