"""Independent certificates for the upper bound of the rank formulas.

Every oracle maximises waring_rank or sum_rank, so none of them checks the
product formula itself. Its upper bound has an explicit witness (Carlini,
Catalisano and Geramita, "The solution to the Waring problem for monomials
and the sum of coprime monomials", J. Algebra 2012; Buczynska, Buczynski and
Teitler, "Waring decompositions of monomials", 2013). For x0^a0 * x1^a1 *
... * xk^ak with a0 the smallest exponent, let each e_i range over the
(a_i + 1)-th roots of unity. Then

    sum over e of (prod_i e_i^(-a_i)) * (x0 + e1*x1 + ... + ek*xk)^d

is a nonzero multiple of the monomial, a combination of prod_i (a_i + 1)
d-th powers of distinct linear forms. The tests expand that sum coefficient
by coefficient in Z[zeta_M] = Z[x]/Phi_M, M the lcm of the a_i + 1, with
integers only, and check that exactly the monomial survives. Lower bounds
(and so the three (4, 3) exceptions) are out of reach here: they rest on
apolarity.
"""

import functools
import math
from itertools import product

import pytest

from waring.coprime_sums import enumerate_coprime_sums, sum_rank
from waring.monomials import enumerate_monomials, waring_rank


def divide_monic(num, den):
    """(quotient, remainder) of integer polynomials, coefficients lowest degree first; den is monic."""
    num, top = list(num), len(den) - 1
    quotient = [0] * max(len(num) - top, 0)
    for shift in range(len(num) - 1 - top, -1, -1):
        c = quotient[shift] = num[shift + top]
        for i, coefficient in enumerate(den):
            num[shift + i] -= c * coefficient
    return quotient, num[:top]


@functools.cache
def cyclotomic(m):
    """Phi_m: x^m - 1 divided exactly by Phi_k for every proper divisor k of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            poly, remainder = divide_monic(poly, cyclotomic(k))
            assert not any(remainder)
    return tuple(poly)


def in_cyclotomic_field(counts, m):
    """sum_j counts[j] * zeta_m^j, reduced mod Phi_m: zero exactly when the element is 0."""
    return tuple(divide_monic(counts, cyclotomic(m))[1])


@functools.cache
def certificate(exponents):
    """The linear forms of the roots-of-unity decomposition of x^exponents, checked.

    Each form is a tuple of powers of zeta_M, one per variable (x0 first,
    with coefficient zeta^0 = 1). Asserts that the weighted sum of their
    d-th powers has a nonzero coefficient at the monomial and nowhere else.
    """
    a0, rest = exponents[0], exponents[1:]
    d = a0 + sum(rest)
    m = math.lcm(*(a + 1 for a in rest))
    roots = product(*(range(a + 1) for a in rest))  # e_i = zeta^(t_i * m / (a_i + 1)) for t_i <= a_i
    forms = [(0,) + tuple(t * (m // (a + 1)) for t, a in zip(ts, rest)) for ts in roots]
    weights = [-sum(c * a for c, a in zip(form[1:], rest)) for form in forms]
    reduced = {}
    for b in product(range(d + 1), repeat=len(rest)):
        if sum(b) > d:
            continue
        counts = [0] * m
        for form, weight in zip(forms, weights):
            counts[(weight + sum(c * e for c, e in zip(form[1:], b))) % m] += 1
        key = tuple(counts)
        if key not in reduced:
            reduced[key] = in_cyclotomic_field(key, m)
        multinomial = math.factorial(d) // math.prod(math.factorial(e) for e in (d - sum(b),) + b)
        coefficient = [multinomial * c for c in reduced[key]]
        if b == rest:
            assert coefficient[0] != 0 and not any(coefficient[1:]), exponents
        else:
            assert not any(coefficient), (exponents, b)
    assert len(set(forms)) == len(forms)
    return forms


def catalecticant_bound(exponents):
    """The largest count of degree-k divisors of the monomial, over k: a lower bound for its rank."""
    counts = [1]
    for a in exponents:
        counts = [sum(counts[max(0, k - a):k + 1]) for k in range(len(counts) + a)]
    return max(counts)


def test_every_small_monomial_rank_has_a_certificate():
    # Each monomial with d <= 8 that uses exactly n <= 5 variables.
    monomials = [m for d in range(1, 9) for m in enumerate_monomials(5, d)]
    assert len(monomials) == 59
    for m in monomials:
        rank = waring_rank(m)
        assert len(certificate(m.exponents)) == rank
        assert catalecticant_bound(m.exponents) <= rank


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic(30)) - 1 == 8  # Euler's phi(30)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_coprime_sum_rank_has_a_joined_certificate(d):
    # Blocks live on disjoint variables, so their decompositions join into
    # one for the sum. A joined form is its (variable, power of zeta) pairs:
    # each is supported on one block, and they stay distinct. At d = 1 the
    # sum of the variables is itself one form.
    for f in enumerate_coprime_sums(8, d):
        if d == 1:
            forms = [tuple((var, 0) for var in range(f.vars_used))]
        else:
            forms, first = [], 0
            for block in f.blocks:
                forms += [tuple(enumerate(form, first)) for form in certificate(block.exponents)]
                first += block.nvars
        assert len(set(forms)) == len(forms) == sum_rank(f), f.block_shapes()
