"""Generic ranks, the chain of maximum-rank upper bounds, and known examples.

The generic Waring rank of degree-d forms in n variables is
ceil(C(d+n-1, n-1) / n) except on five exceptional families where it
exceeds the ceiling: the quadrics (n, 2), which have generic rank n, and
the sporadic cases (3,4) -> 6, (4,4) -> 10, (5,3) -> 8, (5,4) -> 15.
"""

from __future__ import annotations

from ._record import Record
from .errors import check_cell
from .exact_math import binomial, ceil_div

# Sporadic exceptional generic ranks; the quadric family (n, 2) -> n is
# handled as a family in generic_rank.
_SPORADIC_GENERIC = {(3, 4): 6, (4, 4): 10, (5, 3): 8, (5, 4): 15}

BOUND_KINDS = (
    "span_bound",
    "improved_bound",
    "jelisiejew_bound",
    "ballico_deparis_bound",
    "blekherman_bound",
)


class RankRecord(Record):
    """One (n, d, kind, value) row of the upper-bound chain."""

    FIELDS = ("n", "d", "kind", "value")

    def __init__(self, n: int, d: int, kind: str, value: int) -> None:
        if value < 1:
            raise ValueError(f"rank quantity must be >= 1, got {value}")
        self._set(n, d, kind, value)


class KnownExample(Record):
    """A registry entry for a form whose rank exceeds the generic rank."""

    FIELDS = ("label", "n", "d", "rank", "source_note")

    def __init__(self, label: str, n: int, d: int, rank: int, source_note: str) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self._set(label, n, d, rank, source_note)


def generic_rank(n: int, d: int) -> int:
    """Generic Waring rank for degree-d forms in n variables."""
    check_cell("generic_rank", n, d)
    if d == 2:
        # Quadratic forms: rank of the corresponding symmetric matrix, so
        # the generic value is n. For n <= 2 this agrees with the ceiling.
        return n
    sporadic = _SPORADIC_GENERIC.get((n, d))
    if sporadic is not None:
        return sporadic
    return ceil_div(binomial(d + n - 1, n - 1), n)


def upper_bounds(n: int, d: int) -> list[RankRecord]:
    """The five classical upper bounds on the maximum rank, largest first.

    span_bound             C(d+n-1, n-1)    (dimension of the space of forms)
    improved_bound         C(d+n-2, n-1)
    jelisiejew_bound       improved - C(d+n-6, n-3)
    ballico_deparis_bound  jelisiejew - C(d+n-7, n-3)
    blekherman_bound       2 * generic_rank(n, d)

    Correction binomials with out-of-range arguments vanish, which keeps
    the chain defined for every n, d >= 1.
    """
    check_cell("upper_bounds", n, d)
    span = binomial(d + n - 1, n - 1)
    improved = binomial(d + n - 2, n - 1)
    jelisiejew = improved - binomial(d + n - 6, n - 3)
    ballico_deparis = jelisiejew - binomial(d + n - 7, n - 3)
    blekherman = 2 * generic_rank(n, d)
    values = (span, improved, jelisiejew, ballico_deparis, blekherman)
    return [RankRecord(n, d, kind, v) for kind, v in zip(BOUND_KINDS, values)]


_KNOWN_EXAMPLES = (
    KnownExample(
        label="x^2*y + y^2*z",
        n=3,
        d=3,
        rank=5,
        source_note="classical plane cubic attaining the maximum rank 5 for (3,3)",
    ),
    KnownExample(
        label="x^2*y^2 + y^3*z",
        n=3,
        d=4,
        rank=7,
        source_note="plane quartic of rank 7, the known maximum for (3,4)",
    ),
    KnownExample(
        label="x^2*y + y^2*z + w^3",
        n=4,
        d=3,
        rank=6,
        source_note="rank-5 plane cubic plus a cube in a fresh variable; "
        "adding a pure power in a new variable raises rank by exactly one",
    ),
)


def known_examples() -> tuple[KnownExample, ...]:
    """Registry of non-monomial forms with rank above the generic rank.

    Ranks are registry data; the toolkit does not compute ranks of
    arbitrary forms.
    """
    return _KNOWN_EXAMPLES
