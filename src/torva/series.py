"""Binomial-expansion conventions and small formal-series helpers.

The whole engine fixes one set of expansion directions and every identity is
reduced to coefficients under them:

* ``(x - y)^n`` expands in nonnegative powers of the second variable y,
* ``(-y + x)^n`` expands in nonnegative powers of x,
* ``(z + y)^n`` expands in nonnegative powers of y.

Expansions are returned as {(x-exponent, y-exponent): integer coefficient}
maps so that the brute-force residue oracle can do generic series
multiplication and coefficient extraction without sharing any index
bookkeeping with the production mode formulas.
"""

from __future__ import annotations

from functools import cache


@cache
def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for any integer n, k >= 0."""
    if k < 0:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)  # exact: consecutive binomials are integers
    return out


def expand_x_minus_y(n: int, max_y: int) -> dict:
    """(x - y)^n in nonnegative powers of y, truncated at y^max_y."""
    out = {}
    hi = min(n, max_y) if n >= 0 else max_y
    for i in range(hi + 1):
        c = binom(n, i) * (-1) ** i
        if c:
            out[(n - i, i)] = c
    return out


def expand_minus_y_plus_x(n: int, max_x: int) -> dict:
    """(-y + x)^n in nonnegative powers of x, truncated at x^max_x."""
    out = {}
    hi = min(n, max_x) if n >= 0 else max_x
    for i in range(hi + 1):
        c = binom(n, i) * (-1) ** (n - i)
        if c:
            out[(i, n - i)] = c
    return out


def series_multiply(binomial: dict, table: dict) -> dict:
    """Multiply an exponent->scalar binomial expansion against a bivariate
    exponent->value table; values only need + and scalar *."""
    acc = {}
    for (bx, by), c in binomial.items():
        for (ex, ey), val in table.items():
            key = (bx + ex, by + ey)
            cur = acc.get(key)
            acc[key] = val.scaled(c) if cur is None else cur + val.scaled(c)
    return acc
