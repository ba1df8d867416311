import random
from fractions import Fraction

import pytest

from waring.exact_math import binomial, ceil_div


@pytest.mark.parametrize(
    "m, k, expected",
    [
        (4, 2, 6),
        (6, 3, 20),
        (0, 0, 1),
        (7, 0, 1),
        (60, 0, 1),
        (2, 5, 0),
        (5, 5, 1),
    ],
)
def test_binomial_values(m, k, expected):
    assert binomial(m, k) == expected


def test_binomial_out_of_range_vanishes():
    assert binomial(-1, 0) == 0
    assert binomial(-3, 2) == 0
    assert binomial(3, -1) == 0


def test_binomial_matches_independent_pascal_triangle():
    # Build Pascal's triangle by addition only, no library calls.
    row = [1]
    for m in range(61):
        for k, expected in enumerate(row):
            assert binomial(m, k) == expected
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def test_binomial_pascal_recurrence():
    for m in range(1, 61):
        for k in range(m + 1):
            assert binomial(m, k) == binomial(m - 1, k - 1) + binomial(m - 1, k)


@pytest.mark.parametrize(
    "a, b, expected",
    [(20, 4, 5), (21, 3, 7), (10, 3, 4), (0, 5, 0), (1, 1, 1)],
)
def test_ceil_div_values(a, b, expected):
    assert ceil_div(a, b) == expected


def test_ceil_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        ceil_div(5, 0)


def test_ceil_div_negative_divisor():
    with pytest.raises(ValueError):
        ceil_div(5, -2)


def test_ceil_div_matches_add_and_floor():
    rng = random.Random(20240)
    for _ in range(2000):
        a = rng.randrange(0, 10**6)
        b = rng.randrange(1, 1001)
        assert ceil_div(a, b) == (a + b - 1) // b
    for a in (0, 1, 999_999):
        for b in (1, 2, 1000):
            assert ceil_div(a, b) == (a + b - 1) // b


def test_fraction_arithmetic_exact_properties():
    rng = random.Random(77)

    def rand_fraction():
        return Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))

    for _ in range(300):
        a, b, c = rand_fraction(), rand_fraction(), rand_fraction()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_fraction_normalization_idempotent():
    rng = random.Random(78)
    from math import gcd

    for _ in range(300):
        num = rng.randrange(-10**6, 10**6)
        den = rng.randrange(1, 10**6)
        f = Fraction(num, den)
        assert f.denominator > 0
        assert gcd(abs(f.numerator), f.denominator) == 1
        assert Fraction(f.numerator, f.denominator) == f
