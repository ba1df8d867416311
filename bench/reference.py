"""Reference values the benchmark checks waring's outputs against.

Nothing here imports waring: every count and rank is derived again from the
definitions, so a bug in the package cannot also hide in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The only coprime sums with n >= 4, d >= 3 whose rank reaches the generic
# rank; all sit at (n, d) = (4, 3). Blocks are exponent tuples, largest
# block (most variables) first, exponents ascending within a block.
EXPECTED_COPRIME_SHAPES = frozenset(
    {
        ((1, 1, 1), (3,)),
        ((1, 2), (1, 2)),
        ((1, 2), (3,), (3,)),
    }
)

_SPORADIC_GENERIC = {(3, 4): 6, (4, 4): 10, (5, 3): 8, (5, 4): 15}


def partition_count(d: int, max_parts: int) -> int:
    """Partitions of d into at most max_parts parts.

    Counted as partitions with every part at most max_parts (conjugation),
    by the coin-change recurrence p(t) += p(t - part).
    """
    if d < 0 or max_parts < 0:
        return 0
    ways = [1] + [0] * d
    for part in range(1, max_parts + 1):
        for t in range(part, d + 1):
            ways[t] += ways[t - part]
    return ways[d]


def exact_parts_count(d: int, parts: int) -> int:
    """Partitions of d into exactly `parts` parts: remove 1 from each part."""
    if parts < 1 or parts > d:
        return 0
    return partition_count(d - parts, parts)


def _weight_counts(n: int, d: int) -> list[int]:
    # ways[w] = multisets of block shapes using exactly w variables, where a
    # block shape is a partition of d and its weight is its part count.
    ways = [1] + [0] * n
    for parts in range(1, min(n, d) + 1):
        for _ in range(exact_parts_count(d, parts)):
            for w in range(parts, n + 1):
                ways[w] += ways[w - parts]
    return ways


def coprime_sum_count(n: int, d: int, spanning: bool = False) -> int:
    """Sums of pairwise coprime degree-d monomials in n variables."""
    ways = _weight_counts(n, d)
    return ways[n] if spanning else sum(ways[1:])


def monomial_rank(exponents) -> int:
    """Product of (a+1) over the positive exponents but the smallest."""
    positive = sorted(e for e in exponents if e > 0)
    return math.prod(e + 1 for e in positive[1:])


def partitions(d: int, max_parts: int, max_part: int | None = None):
    """Partitions of d into at most max_parts parts, as nonincreasing tuples."""
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = d if max_part is None else min(d, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(d - first, max_parts - 1, first):
            yield (first,) + rest


def r_max(n: int, d: int) -> int:
    """Maximum monomial rank, by brute force over partitions."""
    return max(monomial_rank(p) for p in partitions(d, n))


def r_max_star(n: int, d: int) -> int:
    """Maximum coprime-sum rank, as an unbounded knapsack over block sizes.

    Blocks on disjoint variables are independent, so the best sum using
    exactly c variables is the best block on k of them plus the best sum
    on the other c - k; unused variables are allowed.
    """
    block = {k: max(monomial_rank(p) for p in partitions(d, k) if len(p) == k)
             for k in range(1, min(n, d) + 1)}
    best = [0] + [-1] * n
    for c in range(1, n + 1):
        for k, rank in block.items():
            if k <= c and best[c - k] >= 0:
                best[c] = max(best[c], best[c - k] + rank)
    return max(best[1:])


def generic_rank(n: int, d: int) -> int:
    """Generic Waring rank with the quadric and four sporadic exceptions."""
    if d == 2:
        return n
    if (n, d) in _SPORADIC_GENERIC:
        return _SPORADIC_GENERIC[(n, d)]
    return -(-math.comb(d + n - 1, n - 1) // n)


def _binomial(m: int, k: int) -> int:
    return math.comb(m, k) if 0 <= k <= m else 0


def upper_bounds(n: int, d: int) -> dict[str, int]:
    """The classical upper bounds on maximum rank, by name."""
    span = _binomial(d + n - 1, n - 1)
    improved = _binomial(d + n - 2, n - 1)
    jelisiejew = improved - _binomial(d + n - 6, n - 3)
    return {
        "span_bound": span,
        "improved_bound": improved,
        "jelisiejew_bound": jelisiejew,
        "ballico_deparis_bound": jelisiejew - _binomial(d + n - 7, n - 3),
        "blekherman_bound": 2 * generic_rank(n, d),
    }


def fixed_n_limit(n: int) -> Fraction:
    """lim_{d -> inf} r_max(n, d) / generic_rank(n, d) = n!/(n-1)^(n-1)."""
    return Fraction(math.factorial(n), (n - 1) ** (n - 1))


def verify_checked_count(claim: str, n_range, d_range) -> int:
    """Objects (or comparisons) `waring verify` checks for a claim and grid."""
    ds = range(d_range[0], d_range[1] + 1)
    if claim == "lemma-slope":
        return sum(d - 1 for d in ds)
    ns = range(n_range[0], n_range[1] + 1)
    if claim == "theorem-monomial":
        return sum(partition_count(d, n) for n in ns for d in ds)
    if claim == "theorem-coprime":
        return sum(coprime_sum_count(n, d) for n in ns for d in ds)
    if claim == "ineq-agm":
        return len(ns) * len(ds)
    if claim == "ineq-pure-power":
        return sum(1 for n in ns for d in ds if n >= d)
    raise ValueError(f"unknown claim {claim!r}")
