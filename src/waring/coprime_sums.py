"""Sums of pairwise coprime monomials.

A sum F = M1 + ... + Ms whose terms use pairwise disjoint variable sets has
rank r(F) = r(M1) + ... + r(Ms) (at d = 1 it is one linear form, of rank 1),
so a sum is identified by the multiset of its block exponent-partitions;
which concrete variables each block uses is irrelevant. All blocks share
one degree d and the blocks' variable counts add up to at most the ambient n.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

from ._record import Record
from .errors import DimensionError, UsageError, check_cell
from .monomials import (
    MODE_CLOSED_FORM,
    MODE_ORACLE,
    Monomial,
    _ranked_partitions,
    canonicalize,
    max_rank_monomial,
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


class CoprimeSum(Record):
    """Multiset of equal-degree blocks on disjoint variables, canonically ordered."""

    FIELDS = ("blocks", "ambient_vars")

    def __init__(self, blocks: tuple[Monomial, ...], ambient_vars: int) -> None:
        if not blocks:
            raise ValueError("a coprime sum needs at least one block")
        degrees = {b.degree for b in blocks}
        if len(degrees) > 1:
            raise ValueError(f"blocks must share one degree, got {sorted(degrees)}")
        if any(b.ambient_vars != b.nvars for b in blocks):
            raise ValueError("blocks must live on exactly their own variables")
        vars_used = sum(b.nvars for b in blocks)
        if vars_used > ambient_vars:
            raise DimensionError(
                f"blocks use {vars_used} variables but ambient_vars="
                f"{ambient_vars}"
            )
        keys = [_block_key(b) for b in blocks]
        if keys != sorted(keys):
            raise ValueError("blocks are not in canonical order")
        self._set(blocks, ambient_vars)

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
        return sum_label(parts)


def sum_label(block_labels: Iterable[str]) -> str:
    """Join block labels, each numbered from its block's first variable."""
    return " + ".join(block_labels)


def make_sum(block_exponents: Iterable[Iterable[int]], ambient_vars: int | None = None) -> CoprimeSum:
    """Build a canonical CoprimeSum from per-block exponent lists.

    Each block is canonicalized on its own variables; ambient_vars defaults
    to the total number of exponent slots given (zero slots included).
    """
    raw_blocks = [list(b) for b in block_exponents]
    if ambient_vars is None:
        ambient_vars = sum(len(b) for b in raw_blocks)
    blocks = sorted((_as_block(canonicalize(b)) for b in raw_blocks), key=_block_key)
    return CoprimeSum(tuple(blocks), ambient_vars)


def sum_rank(f: CoprimeSum) -> int:
    """Rank of the sum: ranks add across coprime blocks, but at d = 1 a sum
    of variables is one linear form, of rank 1."""
    return 1 if f.degree == 1 else sum(waring_rank(b) for b in f.blocks)


def _block_pool(n: int, d: int) -> list[Monomial]:
    """Every possible block shape for degree d within n variables, canonically ordered."""
    pool = [Monomial(exponents, used) for _, used, exponents in _ranked_partitions(d, min(n, d))]
    pool.sort(key=_block_key)
    return pool


def _block_multisets(
    pool: list[Monomial], n: int, spanning: bool = False
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Ranked multisets of pool blocks using at most n variables (exactly n when spanning).

    Yields (rank, used, picked): picked is a nondecreasing tuple of pool
    indices, i.e. its blocks in canonical order, used is the number of
    variables its blocks use, and rank is sum_rank of their sum, both
    carried down the walk rather than re-summed per multiset. Ranks add
    across coprime blocks; at d = 1 the one block, x1, adds nothing to a
    base rank of 1. Multisets come depth first: a multiset, then
    every extension of it by blocks at or after its last index, then the
    next choice for its last block. The pool lists blocks by variable count
    descending, so the blocks that fit a budget form a suffix of it: the
    walk over _block_pool(n, d), restricted to used <= k, is the walk over
    _block_pool(k, d), in the same order and with the same blocks.
    """
    sizes = [block.nvars for block in pool]
    linear = pool[0].degree == 1
    ranks = [0 if linear else waring_rank(block) for block in pool]
    count = len(sizes)
    # first_fit[b]: the first pool index whose block fits in b variables.
    first_fit = [next((i for i, s in enumerate(sizes) if s <= b), count) for b in range(n + 1)]
    stack = []  # (budget, rank, picked) of each shorter prefix of picked
    budget, rank, picked = n, int(linear), ()  # budget: variables left
    i = first_fit[n]
    while True:
        if i < count:
            stack.append((budget, rank, picked))
            budget -= sizes[i]
            rank += ranks[i]
            picked += (i,)
            if not spanning or not budget:
                yield rank, n - budget, picked
            i = max(i, first_fit[budget])
        elif stack:
            # The next index fits too: its block is no larger than the last.
            i = picked[-1] + 1
            budget, rank, picked = stack.pop()
        else:
            return


def enumerate_coprime_sums(n: int, d: int, spanning: bool = False) -> Iterator[CoprimeSum]:
    """All sums of pairwise coprime degree-d monomials in n variables.

    Yields one CoprimeSum per multiset of partitions of d whose part counts
    total at most n (exactly n when spanning is true), each exactly once.
    Blocks are chosen in nonincreasing canonical order, which both avoids
    duplicates and fixes a deterministic output order.
    """
    check_cell("enumerate_coprime_sums", n, d)
    pool = _block_pool(n, d)
    for _, _, picked in _block_multisets(pool, n, spanning):
        yield CoprimeSum(tuple(pool[i] for i in picked), n)


def _knapsack(n: int, d: int) -> tuple[list[Monomial | None], list[int], list[int]]:
    """The best block of each size and the maximum rank for each variable budget.

    Returns (blocks, ranks, best): blocks[k] is max_rank_monomial(k, d) on
    its own k variables and ranks[k] = r_max(k, d) for 1 <= k <= min(n, d)
    (index 0 unused); best[b] is the maximum rank of a coprime sum in b
    variables for 0 <= b <= n. Ranks add across coprime blocks and only a
    rank-maximal block of a size can appear in a maximum, so best is an
    unbounded knapsack over block sizes, O(n * min(n, d)). At d = 1 every
    sum is one linear form, so best[b] = 1 for every b >= 1.
    """
    blocks: list[Monomial | None] = [None]
    ranks = [0]
    for k in range(1, min(n, d) + 1):
        blocks.append(max_rank_monomial(k, d))
        ranks.append(waring_rank(blocks[k]))
    if d == 1:
        return blocks, ranks, [0] + [1] * n
    best = [0]
    for b in range(1, n + 1):
        best.append(max(ranks[k] + best[b - k] for k in range(1, min(b, d) + 1)))
    return blocks, ranks, best


def r_max_star(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum rank over sums of pairwise coprime degree-d monomials in n variables.

    closed_form reads the maximum from the block-size knapsack, an exact
    algorithm for every (n, d). Its values have closed forms, matched to
    the table on every 2 <= d <= 40 and n <= d^2 + 2d: n for d = 2;
    3n div 2 for d = 3; (n div d) * 2^(d-1) + r_max(n mod d, d) for d >= 4,
    where r_max(0, d) means 0, plus 1 for d = 4, 5 when n = 1 (mod d) and
    n > d. So it equals r_max(n, d) for d >= n. oracle is the rank of
    max_rank_sum's brute-force witness.
    """
    check_cell("r_max_star", n, d)
    if mode == MODE_CLOSED_FORM:
        return _knapsack(n, d)[2][n]
    return sum_rank(max_rank_sum(n, d, mode))


def max_rank_sum(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> CoprimeSum:
    """A witness sum attaining r_max_star(n, d): the first maximum in
    enumerate_coprime_sums order, in both modes.

    oracle ranks every multiset of blocks, in enumerate_coprime_sums order,
    and returns the first maximum; only that witness is built and validated.
    closed_form backtracks the knapsack table, taking at each step the
    largest block size that still leads to a maximum. Every maximum uses
    the best block of each size and the pool lists larger blocks first, so
    this is the same sum. At d = 1 every sum has rank 1, and the first one
    listed is the one-block sum x1.
    """
    check_cell("max_rank_sum", n, d)
    if mode == MODE_ORACLE:
        pool = _block_pool(n, d)
        _, _, best = max(_block_multisets(pool, n), key=itemgetter(0))
        return CoprimeSum(tuple(pool[i] for i in best), n)
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    blocks, ranks, best = _knapsack(n, d)
    if d == 1:
        return CoprimeSum((blocks[1],), n)
    picked = []
    b = n
    while b:
        k = max(k for k in range(1, min(b, d) + 1) if ranks[k] + best[b - k] == best[b])
        picked.append(blocks[k])
        b -= k
    return CoprimeSum(tuple(picked), n)


def greedy_construction(n: int, d: int) -> CoprimeSum:
    """The greedy high-rank sum: squarefree blocks of d variables, remainder packed.

    Takes floor(n/d) blocks that are products of d distinct variables and,
    if r = n mod d > 0, one rank-maximal degree-d monomial on the leftover
    r variables. Not always rank-maximal.
    """
    check_cell("greedy_construction", n, d, min_d=2)
    blocks = [Monomial((1,) * d, d) for _ in range(n // d)]
    remainder = n % d
    if remainder:
        blocks.append(max_rank_monomial(remainder, d))
    blocks.sort(key=_block_key)
    return CoprimeSum(tuple(blocks), n)
