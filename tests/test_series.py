"""Binomial conventions and generic series helpers."""

import math

from torva.series import binom, expand_minus_y_plus_x, expand_x_minus_y


def test_binom_matches_comb_for_nonnegative():
    for n in range(8):
        for k in range(10):
            assert binom(n, k) == math.comb(n, k)


def test_binom_negative_upper():
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(-3, 1) == -3
    assert binom(5, -1) == 0


def test_binom_pascal_identity():
    for n in range(-6, 7):
        for k in range(1, 6):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def test_x_minus_y_nonnegative_power_is_polynomial():
    # (x-y)^2 = x^2 - 2xy + y^2 regardless of truncation room
    assert expand_x_minus_y(2, 10) == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_x_minus_y_negative_power_direction():
    # (x-y)^-1 = x^-1 + x^-2 y + x^-3 y^2 + ...
    d = expand_x_minus_y(-1, 3)
    assert d == {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1, (-4, 3): 1}


def test_minus_y_plus_x_negative_power_direction():
    # (-y+x)^-1 = -y^-1 - y^-2 x - y^-3 x^2 - ...
    d = expand_minus_y_plus_x(-1, 2)
    assert d == {(0, -1): -1, (1, -2): -1, (2, -3): -1}


def test_two_expansions_agree_on_polynomials():
    for n in range(4):
        a = expand_x_minus_y(n, 10)
        b = expand_minus_y_plus_x(n, 10)
        assert a == b


def test_formal_inverse():
    # (x-y) * (x-y)^-1 = 1 within the truncation
    inv = expand_x_minus_y(-1, 6)
    lin = expand_x_minus_y(1, 6)
    prod = {}
    for (a1, b1), c1 in lin.items():
        for (a2, b2), c2 in inv.items():
            key = (a1 + a2, b1 + b2)
            prod[key] = prod.get(key, 0) + c1 * c2
    prod = {k: v for k, v in prod.items() if v and k[1] <= 6}
    assert prod == {(0, 0): 1}
