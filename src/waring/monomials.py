"""Monomials up to symmetry and their Waring ranks.

A monomial x1^a1 * ... * xk^ak in an ambient space of n >= k variables is
identified by the multiset of its positive exponents; variable labels never
matter. With exponents sorted ascending, 0 < a1 <= ... <= ak, the Waring
rank is the product (a2+1)*...*(ak+1), i.e. every factor except the one for
the smallest exponent. A single-variable power has rank 1 (empty product).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from operator import itemgetter

from ._record import Record
from .errors import DegenerateInputError, DimensionError, UsageError, check_cell

MODE_CLOSED_FORM = "closed_form"
MODE_ORACLE = "oracle"


class Monomial(Record):
    """Canonical monomial: ascending positive exponents plus ambient size."""

    FIELDS = ("exponents", "ambient_vars")

    def __init__(self, exponents: tuple[int, ...], ambient_vars: int) -> None:
        if not exponents:
            raise DegenerateInputError("monomial needs at least one positive exponent")
        if any(e <= 0 for e in exponents):
            raise ValueError(f"exponents must be positive: {exponents}")
        if any(a > b for a, b in zip(exponents, exponents[1:])):
            raise ValueError(f"exponents must be sorted ascending: {exponents}")
        if ambient_vars < 1:
            raise ValueError("ambient_vars must be positive")
        if len(exponents) > ambient_vars:
            raise DimensionError(
                f"{len(exponents)} variables used but only "
                f"{ambient_vars} available"
            )
        self._set(exponents, ambient_vars)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def nvars(self) -> int:
        """Number of variables actually appearing."""
        return len(self.exponents)

    def label(self, first_var: int = 1) -> str:
        """Render as e.g. 'x1*x2^2', numbering variables from first_var."""
        return monomial_label(self.exponents, first_var)


def monomial_label(exponents: Iterable[int], first_var: int = 1) -> str:
    """The label of an exponent tuple, e.g. (1, 2) -> 'x1*x2^2'; variables from first_var."""
    return "*".join(
        f"x{var}" if e == 1 else f"x{var}^{e}" for var, e in enumerate(exponents, first_var)
    )


def canonicalize(raw_exponents: Iterable[int], ambient_vars: int | None = None) -> Monomial:
    """Build the canonical Monomial from raw exponents.

    Zero exponents are dropped and the rest sorted ascending, so inputs
    differing by permutation or zero-padding canonicalize identically.
    ambient_vars defaults to the raw slot count.
    """
    raw = list(raw_exponents)
    if any(e < 0 for e in raw):
        raise ValueError(f"exponents must be nonnegative: {raw}")
    positive = tuple(sorted(e for e in raw if e > 0))
    if not positive:
        raise DegenerateInputError("all exponents are zero")
    if ambient_vars is None:
        ambient_vars = len(raw)
    if len(raw) > ambient_vars:
        raise DimensionError(
            f"{len(raw)} exponent slots exceed ambient_vars={ambient_vars}"
        )
    return Monomial(positive, ambient_vars)


def waring_rank(m: Monomial) -> int:
    """Product of (a_i + 1) over all exponents except the smallest."""
    return math.prod(e + 1 for e in m.exponents[1:])


def _ranked_partitions(d: int, n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The degree-d monomials in n variables as ranked partitions of d.

    Yields (rank, parts) for every partition of d into at most n parts:
    parts is nonincreasing, in descending lexicographic order, e.g. (4),
    (3,1), (2,2), (2,1,1), (1,1,1,1) for d = n = 4, and rank is the
    waring_rank of the monomial with those exponents.

    Iterative: each step lowers the rightmost part that can drop by one
    and still leave room for the parts after it, then refills those
    parts greedily (as many copies of the lowered value as fit, then the
    remainder), which is the next partition in this order. The common
    step splits a 1 off the last part and so multiplies the rank by the
    old last part; any other step recomputes the rank.
    """
    if d == 0:
        yield 1, ()
        return
    if n <= 0:
        return
    parts = [d]
    rank = 1
    while True:
        yield rank, tuple(parts)
        i = len(parts) - 1
        last = parts[i]
        if last > 1 and i + 1 < n:
            parts[i] = last - 1
            parts.append(1)
            rank *= last
            continue
        rest = 0  # sum of the parts right of i
        while True:
            if i < 0:
                return
            lowered = parts[i] - 1
            if lowered and rest < lowered * (n - i - 1):
                break
            rest += parts[i]
            i -= 1
        q, r = divmod(rest + 1, lowered)
        parts[i:] = [lowered] * (q + 1) + ([r] if r else [])
        rank = 1
        for part in parts[:-1]:
            rank *= part + 1


def partitions(d: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d into at most max_parts positive parts, as nonincreasing
    tuples in descending lexicographic order: the parts of _ranked_partitions."""
    return map(itemgetter(1), _ranked_partitions(d, max_parts))


def enumerate_monomials(n: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in ambient n variables, each exactly once.

    One Monomial per partition of d into at most n parts, in descending
    lexicographic partition order.
    """
    check_cell("enumerate_monomials", n, d)
    for _, parts in _ranked_partitions(d, n):
        yield Monomial(parts[::-1], n)


def max_rank_monomial(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> Monomial:
    """A rank-maximizing degree-d monomial in n ambient variables.

    closed_form uses n' = min(n, d) variables (extra variables cannot raise
    monomial rank): one exponent 1 and the remaining d-1 spread as evenly
    as possible over n'-1 variables. With q = (d-1) div (n'-1) and
    s = (d-1) mod (n'-1) the rank is (1+q)^(n'-s-1) * (2+q)^s. oracle
    instead walks every ranked partition in enumerate_monomials order and
    returns the first maximum; only that witness is built and validated.
    """
    check_cell("max_rank_monomial", n, d)
    if mode == MODE_ORACLE:
        _, parts = max(_ranked_partitions(d, n), key=itemgetter(0))
        return Monomial(parts[::-1], n)
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    used = min(n, d)
    if used == 1:
        return Monomial((d,), n)
    q, s = divmod(d - 1, used - 1)
    exponents = (1,) + (q,) * (used - 1 - s) + (q + 1,) * s
    return Monomial(exponents, n)


def r_max(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum Waring rank over degree-d monomials in n variables.

    closed_form evaluates the balanced construction; oracle brute-forces
    the maximum over every partition of d into at most n parts. The two
    always agree.
    """
    check_cell("r_max", n, d)
    return waring_rank(max_rank_monomial(n, d, mode))
