"""Monomials up to symmetry and their Waring ranks.

A monomial x1^a1 * ... * xk^ak in an ambient space of n >= k variables is
identified by the multiset of its positive exponents; variable labels never
matter. With exponents sorted ascending, 0 < a1 <= ... <= ak, the Waring
rank is the product (a2+1)*...*(ak+1), i.e. every factor except the one for
the smallest exponent. A single-variable power has rank 1 (empty product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DegenerateInputError, DimensionError, UsageError

MODE_CLOSED_FORM = "closed_form"
MODE_ORACLE = "oracle"


@dataclass(frozen=True)
class Monomial:
    """Canonical monomial: ascending positive exponents plus ambient size."""

    exponents: tuple[int, ...]
    ambient_vars: int

    def __post_init__(self) -> None:
        if not self.exponents:
            raise DegenerateInputError("monomial needs at least one positive exponent")
        if any(e <= 0 for e in self.exponents):
            raise ValueError(f"exponents must be positive: {self.exponents}")
        if any(a > b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError(f"exponents must be sorted ascending: {self.exponents}")
        if self.ambient_vars < 1:
            raise ValueError("ambient_vars must be positive")
        if len(self.exponents) > self.ambient_vars:
            raise DimensionError(
                f"{len(self.exponents)} variables used but only "
                f"{self.ambient_vars} available"
            )

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def nvars(self) -> int:
        """Number of variables actually appearing."""
        return len(self.exponents)

    def label(self, first_var: int = 1) -> str:
        """Render as e.g. 'x1*x2^2', numbering variables from first_var."""
        parts = []
        for i, e in enumerate(self.exponents):
            v = f"x{first_var + i}"
            parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts)


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


def partitions(d: int, max_parts: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of d into at most max_parts positive parts.

    Yields nonincreasing part tuples in descending lexicographic order,
    e.g. partitions(4, 4) gives (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    Parts are at most max_part when it is given.

    Iterative: each step lowers the rightmost part that can drop by one
    and still leave room for the parts after it, then refills those
    parts greedily (as many copies of the lowered value as fit, then the
    remainder), which is the next partition in this order.
    """
    if d == 0:
        yield ()
        return
    cap = d if max_part is None else min(max_part, d)
    if max_parts <= 0 or cap * max_parts < d:
        return
    q, r = divmod(d, cap)
    parts = [cap] * q + ([r] if r else [])
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        last = parts[i]
        if last > 1 and i + 1 < max_parts:
            # The common case of the step below: split a 1 off the last part.
            parts[i] = last - 1
            parts.append(1)
            continue
        rest = 0  # sum of the parts right of i
        while True:
            if i < 0:
                return
            lowered = parts[i] - 1
            if lowered and rest < lowered * (max_parts - i - 1):
                break
            rest += parts[i]
            i -= 1
        q, r = divmod(rest + 1, lowered)
        parts[i:] = [lowered] * (q + 1) + ([r] if r else [])


def enumerate_monomials(n: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in ambient n variables, each exactly once.

    One Monomial per partition of d into at most n parts, in descending
    lexicographic partition order.
    """
    if n < 1 or d < 1:
        raise UsageError(f"enumerate_monomials needs n >= 1 and d >= 1, got ({n}, {d})")
    for parts in partitions(d, n):
        yield Monomial(tuple(reversed(parts)), n)


def max_rank_monomial(n: int, d: int) -> Monomial:
    """The rank-maximizing degree-d monomial in n ambient variables.

    Uses n' = min(n, d) variables (extra variables cannot raise monomial
    rank): one exponent 1 and the remaining d-1 spread as evenly as
    possible over n'-1 variables. With q = (d-1) div (n'-1) and
    s = (d-1) mod (n'-1) the rank is (1+q)^(n'-s-1) * (2+q)^s.
    """
    if d < 1:
        raise DegenerateInputError(f"degree must be positive, got {d}")
    if n < 1:
        raise ValueError(f"ambient_vars must be positive, got {n}")
    used = min(n, d)
    if used == 1:
        return Monomial((d,), n)
    q, s = divmod(d - 1, used - 1)
    exponents = (1,) + (q,) * (used - 1 - s) + (q + 1,) * s
    return Monomial(exponents, n)


def r_max(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum Waring rank over degree-d monomials in n variables.

    closed_form evaluates the balanced construction; oracle brute-forces
    the maximum over enumerate_monomials. The two always agree.
    """
    if n < 1 or d < 1:
        raise UsageError(f"r_max needs n >= 1 and d >= 1, got ({n}, {d})")
    if mode == MODE_CLOSED_FORM:
        return waring_rank(max_rank_monomial(n, d))
    if mode == MODE_ORACLE:
        return max(waring_rank(m) for m in enumerate_monomials(n, d))
    raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
