"""The residue oracle alone catches corruptions of the component-sum kernel.

Every product mode, vertex-operator mode and coefficient residual is computed
by ``fields.component_sum``; ``residue_oracle_mode`` shares none of its code.
Each mutant below is the real kernel with one change, patched into every
module that binds the name, and the ``oracle`` group must fail on it.
"""

import pytest

import torva.axioms
import torva.fields
import torva.vertexops
from torva import Session, StateVector, run_suite
from torva.fields import component_sum

from conftest import sl2_spec, small_window


def second_sum_sign_flipped(A, P, B, Q, m0, k0, w, hi1, hi2):
    first = component_sum(A, P, B, Q, m0, k0, w, hi1, -1)
    second = component_sum(A, P, B, Q, m0, k0, w, -1, hi2)
    return (StateVector.adopt(first) - StateVector.adopt(second)).terms


def first_sum_one_short(A, P, B, Q, m0, k0, w, hi1, hi2):
    return component_sum(A, P, B, Q, m0, k0, w, hi1 - 1, hi2)


def first_sum_unsigned(A, P, B, Q, m0, k0, w, hi1, hi2):
    # A(m0 - i) scaled by (-1)^i cancels the kernel's own (-1)^i
    unsigned = lambda n0, R, t: A(n0, R, t).scaled(-1 if (m0 - n0) % 2 else 1)
    first = component_sum(unsigned, P, B, Q, m0, k0, w, hi1, -1)
    second = component_sum(A, P, B, Q, m0, k0, w, -1, hi2)
    return (StateVector.adopt(first) + StateVector.adopt(second)).terms


def _oracle_report():
    s = Session(sl2_spec(), 1, 1)
    return run_suite(s, small_window(s), seed=0, checks=["oracle"])


def test_oracle_passes_on_the_real_kernel():
    assert _oracle_report().ok


@pytest.mark.parametrize("mutant", [second_sum_sign_flipped, first_sum_one_short,
                                    first_sum_unsigned], ids=lambda f: f.__name__)
def test_oracle_kills_kernel_mutant(monkeypatch, mutant):
    for module in (torva.fields, torva.vertexops, torva.axioms):
        monkeypatch.setattr(module, "component_sum", mutant)
    failed = [f for f in _oracle_report().findings if not f.ok]
    assert [f.detail for f in failed][:1] == [{"scope": "generators"}]
