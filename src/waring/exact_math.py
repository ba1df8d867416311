"""Exact integer and rational primitives.

Every quantity in the toolkit is either a Python int (arbitrary precision,
so no overflow is possible at any input size) or a fractions.Fraction
(stored in lowest terms with a positive denominator). Floating point is
never used for a comparison; it appears only in report columns explicitly
labeled approximate.
"""

from __future__ import annotations

import math


def binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k) with the vanishing convention.

    Returns 0 when k > m or when either argument is negative. The upper
    bound formulas need this for correction terms like C(d+n-6, n-3),
    which drop out for small n and d instead of erroring.
    """
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b computed exactly on integers. Requires b > 0."""
    if b == 0:
        raise ZeroDivisionError("ceil_div: division by zero")
    if b < 0:
        raise ValueError("ceil_div: divisor must be positive")
    return -(-a // b)

