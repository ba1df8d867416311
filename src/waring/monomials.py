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
    return Monomial._of(positive, ambient_vars)


def waring_rank(m: Monomial) -> int:
    """Product of (a_i + 1) over all exponents except the smallest."""
    return math.prod(e + 1 for e in m.exponents[1:])


class _Table(dict):
    """table[key] is fill(key), made on first use and kept."""

    def __init__(self, fill) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)  # stored once made, so a reader never sees part of it
        return value


def _tail_rows(key: tuple[int, int, int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """_ranked_partitions(s, slots) with parts of at most cap, for key = (s, cap, slots): by its recursion."""
    s, cap, slots = key
    rows = [(1, 0, ())] if s == 0 else []
    for part in range(cap, -(-s // slots) - 1, -1) if slots > 0 else ():  # an empty rest: part is smallest, rank 1
        rest = s - part
        tails = _TAILS[rest, min(part, rest), min(slots - 1, rest)]
        rows += [(r * (part + 1) if k else 1, k + 1, t + (part,)) for r, k, t in tails]
    return rows


# Remainders up to _TAIL are read from _TAILS, keyed (s, cap, slots) with cap, slots <= s: best-of-5
# walks of n 10, d 2..40 took 72, 54 and 40 ms at 8, 10 and 12, for full tables of 0.18, 0.44 and
# 1.43 MB.
_TAIL = 10
_TAILS = _Table(_tail_rows)


def _partition_groups(d: int, n: int) -> Iterator[tuple[int, int, tuple[int, ...], list]]:
    """The walk of _ranked_partitions(d, n), one group per walked prefix.

    Yields (factor, depth, parts, rows): parts are the prefix's parts,
    smallest first (none when d <= _TAIL), and depth their count; they
    leave a rest of at most _TAIL, and rows is _TAILS[rest, cap, slots],
    its completions, with parts of at most cap (the smallest of parts)
    and at most slots of them. The group's partitions are (r * factor,
    depth + u, t + parts) for each (r, u, t) in rows, in that order:
    factor is the product of the parts' (part + 1), all but the
    smallest's when rest is 0.

    Depth first, one lazy range of candidate parts per level, so at most
    n levels whatever d is.
    """
    if d <= _TAIL:
        yield 1, 0, (), _TAILS[d, d, min(n, d)]
        return
    # Per level: parts left to try, the remainder, slots after it, parts above (smallest first), their factors.
    stack = [(iter(range(d, -(-d // n) - 1, -1)), d, n - 1, (), 1)] if n > 0 else []
    while stack:
        parts, s, slots, above, prod = stack[-1]
        for part in parts:
            rest = s - part
            chosen = (part,) + above
            factor = prod * (part + 1) if rest else prod
            key = rest, part if part < rest else rest, slots if slots < rest else rest  # as _TAILS keys it
            if rest > _TAIL:
                stack.append((iter(range(key[1], -(-rest // slots) - 1, -1)), rest, slots - 1, chosen, factor))
                break
            yield factor, len(chosen), chosen, _TAILS[key]
        else:
            stack.pop()


def _ranked_partitions(d: int, n: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The degree-d monomials in n variables as ranked partitions of d.

    Yields (rank, used, exponents) for every partition of d into at most n
    parts: exponents is the partition smallest part first, as Monomial
    stores it, used is its number of parts (the variables it uses), and
    rank is its waring_rank. The order is the recursion's: the largest
    part p runs down from d (or a cap) to ceil(d / n), the least that
    leaves room for the rest, and each p is followed by the partitions of
    d - p into at most n - 1 parts of at most p, in this order. So the
    parts, read largest first, descend lexicographically: (4), (1,3),
    (2,2), (1,1,2), (1,1,1,1) for d = n = 4. The order does not depend on
    n: the walk in n variables, restricted to used <= k, is the walk in k.

    The groups of _partition_groups, expanded: each completion of a
    prefix costs one multiply, add and tuple concatenation. 10 was the
    fastest _TAIL measured whose whole table stays under 0.5 MB.
    """
    for factor, depth, parts, rows in _partition_groups(d, n):
        for rank, used, tail in rows:
            yield rank * factor, depth + used, tail + parts


def _balanced_split(d: int, u: int) -> tuple[int, int]:
    """The top-ranked partition of d into exactly 2 <= u <= d parts, as (q, r).

    One part is 1, and the other u - 1 spread d - 1 as evenly as
    possible: r of them q + 1 and the rest q. This is the paper's
    maximum: even parts maximize the product of (part + 1) by the
    exchange argument, and that product falls as the smallest part grows.
    """
    return divmod(d - 1, u - 1)


def _partition_top(d: int, u: int) -> int:
    """The highest rank among partitions of d into exactly u >= 1 parts; 0 when there are none, u > d."""
    if u > d:
        return 0
    if u == 1:
        return 1
    q, r = _balanced_split(d, u)
    return (q + 2) ** r * (q + 1) ** (u - 1 - r)


def _partition_counts(degrees: Iterable[int], slots: int) -> dict[int, list[int]]:
    """counts[d][k], 0 <= k <= min(slots, d): the number of partitions of d into exactly k parts, for each d in degrees.

    Less one in each part, those are the partitions of d - k into at most
    k parts, or by conjugation into parts of at most k. ways[t] counts the
    partitions of t into parts of at most k; allowing parts of k adds
    ways[t - k] to each ways[t], in increasing t, and then each degree d
    reads its count ways[d - k]. Nothing above top - k, top the largest
    degree, is read after step k, so each step stops there. So one row of
    top counts serves every degree, in O(top * slots) additions, and
    nothing else is kept but the counts asked for.
    """
    counts = {d: [int(d == 0), 1][: min(slots, d) + 1] for d in degrees}  # no parts only for d = 0; one part, d
    top = max(counts)
    ways = [1] * top  # parts of at most 1: one partition of each t < top
    for k in range(2, min(slots, top) + 1):
        for t in range(k, top - k + 1):
            ways[t] += ways[t - k]
        for d, per_k in counts.items():
            if k <= d:
                per_k.append(ways[d - k])
    return counts


def partitions(d: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d into at most max_parts positive parts, as nonincreasing
    tuples in descending lexicographic order: _ranked_partitions reversed."""
    check_cell("partitions", max_parts, d, 0, 0)
    return (exponents[::-1] for _, _, exponents in _ranked_partitions(d, max_parts))


def enumerate_monomials(n: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in ambient n variables, each exactly once.

    One Monomial per partition of d into at most n parts, in descending
    lexicographic partition order.
    """
    check_cell("enumerate_monomials", n, d)
    for _, _, exponents in _ranked_partitions(d, n):
        yield Monomial._of(exponents, n)


def max_rank_monomial(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> Monomial:
    """A rank-maximizing degree-d monomial in n ambient variables.

    closed_form uses n' = min(n, d) variables (extra variables cannot raise
    monomial rank) and _balanced_split(d, n'): one exponent 1 and the
    remaining d-1 spread as evenly as possible over n'-1 variables. With
    q = (d-1) div (n'-1) and r = (d-1) mod (n'-1) the rank is
    (1+q)^(n'-r-1) * (2+q)^r, _partition_top(d, n'). oracle
    instead walks every ranked partition in enumerate_monomials order and
    returns the first maximum; only that witness is built.
    """
    check_cell("max_rank_monomial", n, d)
    if mode == MODE_ORACLE:
        _, _, exponents = max(_ranked_partitions(d, n), key=itemgetter(0))
        return Monomial._of(exponents, n)
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    used = min(n, d)
    if used == 1:
        return Monomial._of((d,), n)
    q, r = _balanced_split(d, used)
    return Monomial._of((1,) + (q,) * (used - 1 - r) + (q + 1,) * r, n)


def r_max(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum Waring rank over degree-d monomials in n variables.

    closed_form evaluates the balanced construction's rank,
    _partition_top(d, min(n, d)), without building it; oracle
    brute-forces the maximum over every partition of d into at most n
    parts. The two always agree.
    """
    check_cell("r_max", n, d)
    if mode == MODE_CLOSED_FORM:
        return _partition_top(d, min(n, d))
    return waring_rank(max_rank_monomial(n, d, mode))
