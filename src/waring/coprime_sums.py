"""Sums of pairwise coprime monomials.

A sum F = M1 + ... + Ms whose terms use pairwise disjoint variable sets has
rank r(F) = r(M1) + ... + r(Ms), so a sum is identified by the multiset of
its block exponent-partitions; which concrete variables each block uses is
irrelevant. All blocks share one degree d and the blocks' variable counts
add up to at most the ambient n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionError, UnsupportedRegimeError, UsageError
from .monomials import (
    MODE_CLOSED_FORM,
    MODE_ORACLE,
    Monomial,
    canonicalize,
    max_rank_monomial,
    partitions,
    r_max,
    waring_rank,
)


def _block_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    # Canonical block order: variable count descending, then exponent
    # vector lexicographically descending. Sorting ascending by this key
    # puts the largest block first.
    return (-m.nvars, tuple(-e for e in m.exponents))


def _as_block(m: Monomial) -> Monomial:
    """Strip a monomial to exactly its own variables (block form)."""
    if m.ambient_vars == m.nvars:
        return m
    return Monomial(m.exponents, m.nvars)


@dataclass(frozen=True)
class CoprimeSum:
    """Multiset of equal-degree blocks on disjoint variables, canonically ordered."""

    blocks: tuple[Monomial, ...]
    ambient_vars: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a coprime sum needs at least one block")
        degrees = {b.degree for b in self.blocks}
        if len(degrees) > 1:
            raise ValueError(f"blocks must share one degree, got {sorted(degrees)}")
        if any(b.ambient_vars != b.nvars for b in self.blocks):
            raise ValueError("blocks must live on exactly their own variables")
        if self.vars_used > self.ambient_vars:
            raise DimensionError(
                f"blocks use {self.vars_used} variables but ambient_vars="
                f"{self.ambient_vars}"
            )
        keys = [_block_key(b) for b in self.blocks]
        if keys != sorted(keys):
            raise ValueError("blocks are not in canonical order")

    @property
    def degree(self) -> int:
        return self.blocks[0].degree

    @property
    def vars_used(self) -> int:
        return sum(b.nvars for b in self.blocks)

    def block_shapes(self) -> tuple[tuple[int, ...], ...]:
        """The block exponent-partitions, the identity of the sum."""
        return tuple(b.exponents for b in self.blocks)

    def label(self) -> str:
        """Render as e.g. 'x1*x2^2 + x3*x4^2', numbering variables across blocks."""
        parts = []
        var = 1
        for b in self.blocks:
            parts.append(b.label(first_var=var))
            var += b.nvars
        return " + ".join(parts)


def make_sum(block_exponents: Iterable[Iterable[int]], ambient_vars: int | None = None) -> CoprimeSum:
    """Build a canonical CoprimeSum from per-block exponent lists.

    Each block is canonicalized on its own variables; ambient_vars defaults
    to the total number of exponent slots given (zero slots included).
    """
    raw_blocks = [list(b) for b in block_exponents]
    if not raw_blocks:
        raise ValueError("a coprime sum needs at least one block")
    if ambient_vars is None:
        ambient_vars = sum(len(b) for b in raw_blocks)
    blocks = sorted((_as_block(canonicalize(b)) for b in raw_blocks), key=_block_key)
    return CoprimeSum(tuple(blocks), ambient_vars)


def sum_rank(f: CoprimeSum) -> int:
    """Rank of the sum: ranks add across coprime blocks."""
    return sum(waring_rank(b) for b in f.blocks)


def _block_pool(n: int, d: int) -> list[Monomial]:
    """Every possible block shape for degree d within n variables, canonically ordered."""
    pool = [Monomial(tuple(reversed(p)), len(p)) for p in partitions(d, min(n, d))]
    pool.sort(key=_block_key)
    return pool


def _block_multisets(pool: list[Monomial], n: int, spanning: bool = False) -> Iterator[tuple[int, ...]]:
    """Multisets of pool blocks using at most n variables (exactly n when spanning).

    Each multiset is a nondecreasing tuple of pool indices, i.e. its blocks
    in canonical order. Multisets come depth first: a multiset, then every
    extension of it by blocks at or after its last index, then the next
    choice for its last block. The pool lists blocks by variable count
    descending, so the blocks that fit a budget form a suffix of it.
    """
    sizes = [block.nvars for block in pool]
    count = len(sizes)
    # first_fit[b]: the first pool index whose block fits in b variables.
    first_fit = [next((i for i, s in enumerate(sizes) if s <= b), count) for b in range(n + 1)]
    chosen: list[int] = []
    budgets = [n]  # budgets[j]: variables left before chosen[j] is picked
    i = first_fit[n]
    while True:
        if i < count:
            budget = budgets[-1] - sizes[i]
            chosen.append(i)
            budgets.append(budget)
            if not spanning or not budget:
                yield tuple(chosen)
            i = max(i, first_fit[budget])
        elif chosen:
            # The next index fits too: its block is no larger than the last.
            i = chosen.pop() + 1
            budgets.pop()
        else:
            return


def enumerate_coprime_sums(n: int, d: int, spanning: bool = False) -> Iterator[CoprimeSum]:
    """All sums of pairwise coprime degree-d monomials in n variables.

    Yields one CoprimeSum per multiset of partitions of d whose part counts
    total at most n (exactly n when spanning is true), each exactly once.
    Blocks are chosen in nonincreasing canonical order, which both avoids
    duplicates and fixes a deterministic output order.
    """
    if n < 1 or d < 1:
        raise UsageError(f"enumerate_coprime_sums needs n >= 1 and d >= 1, got ({n}, {d})")
    pool = _block_pool(n, d)
    for picked in _block_multisets(pool, n, spanning):
        yield CoprimeSum(tuple(pool[i] for i in picked), n)


def r_max_star(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum rank over sums of pairwise coprime degree-d monomials in n variables.

    oracle brute-forces the maximum over enumerate_coprime_sums (unused
    variables allowed). closed_form is available in two regimes: for d >= n
    the maximum is attained by a single monomial, so it equals r_max(n, d);
    for d = 3 it is 3n/2 for even n and (3n-1)/2 for odd n, attained by a
    pile of x*y^2 blocks (plus one z^3 when n is odd). No closed form is
    known for n > d >= 4.
    """
    if n < 1 or d < 1:
        raise UsageError(f"r_max_star needs n >= 1 and d >= 1, got ({n}, {d})")
    if mode == MODE_ORACLE:
        return max(sum_rank(f) for f in enumerate_coprime_sums(n, d))
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    if d >= n:
        return r_max(n, d)
    if d == 3:
        return 3 * n // 2 if n % 2 == 0 else (3 * n - 1) // 2
    raise UnsupportedRegimeError(
        f"no closed form for r_max_star with n > d >= 4 (got n={n}, d={d}); "
        "use oracle mode"
    )


def max_rank_sum(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> CoprimeSum:
    """A witness sum attaining r_max_star(n, d).

    In oracle mode the first maximum in enumeration order is returned, so
    the witness is deterministic.
    """
    if n < 1 or d < 1:
        raise UsageError(f"max_rank_sum needs n >= 1 and d >= 1, got ({n}, {d})")
    if mode == MODE_ORACLE:
        best = None
        best_rank = -1
        for f in enumerate_coprime_sums(n, d):
            r = sum_rank(f)
            if r > best_rank:
                best, best_rank = f, r
        assert best is not None
        return best
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    if d >= n:
        return CoprimeSum((_as_block(max_rank_monomial(n, d)),), n)
    if d == 3:
        blocks = [Monomial((1, 2), 2)] * (n // 2)
        if n % 2 == 1:
            blocks.append(Monomial((3,), 1))
        return CoprimeSum(tuple(sorted(blocks, key=_block_key)), n)
    raise UnsupportedRegimeError(
        f"no closed form for r_max_star with n > d >= 4 (got n={n}, d={d}); "
        "use oracle mode"
    )


def greedy_construction(n: int, d: int) -> CoprimeSum:
    """The greedy high-rank sum: squarefree blocks of d variables, remainder packed.

    Takes floor(n/d) blocks that are products of d distinct variables and,
    if r = n mod d > 0, one rank-maximal degree-d monomial on the leftover
    r variables. Not always rank-maximal.
    """
    if n < 1:
        raise UsageError(f"greedy_construction needs n >= 1, got {n}")
    if d < 2:
        raise UsageError(f"greedy_construction needs d >= 2, got {d}")
    blocks = [Monomial((1,) * d, d) for _ in range(n // d)]
    remainder = n % d
    if remainder:
        blocks.append(_as_block(max_rank_monomial(remainder, d)))
    blocks.sort(key=_block_key)
    return CoprimeSum(tuple(blocks), n)
