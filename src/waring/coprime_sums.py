"""Sums of pairwise coprime monomials.

A sum F = M1 + ... + Ms whose terms use pairwise disjoint variable sets has
rank r(F) = r(M1) + ... + r(Ms) (at d = 1 it is one linear form, of rank 1),
so a sum is identified by the multiset of its block exponent-partitions;
which concrete variables each block uses is irrelevant. All blocks share
one degree d and the blocks' variable counts add up to at most the ambient n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from operator import add, itemgetter

from ._record import Record
from .errors import DimensionError, UsageError, check_cell
from .monomials import (
    MODE_CLOSED_FORM,
    MODE_ORACLE,
    Monomial,
    _Table,
    _partition_top,
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
    blocks = sorted((Monomial._of(m.exponents, m.nvars) for m in map(canonicalize, raw_blocks)), key=_block_key)
    return CoprimeSum(tuple(blocks), ambient_vars)


def sum_rank(f: CoprimeSum) -> int:
    """Rank of the sum: ranks add across coprime blocks, but at d = 1 a sum
    of variables is one linear form, of rank 1."""
    return 1 if f.degree == 1 else sum(waring_rank(b) for b in f.blocks)


def _block_pool(n: int, d: int) -> list[Monomial]:
    """Every possible block shape for degree d within n variables, canonically ordered."""
    pool = [Monomial._of(exponents, used) for _, used, exponents in _ranked_partitions(d, min(n, d))]
    pool.sort(key=_block_key)
    return pool


def _block_ranks(pool: list[Monomial]) -> tuple[list[int], list[int], int]:
    """(sizes, ranks, base): each pool block's variable count and rank, and the rank of a sum of none.

    A sum ranks base plus its blocks' ranks: at d = 1, where a sum of
    variables is one linear form, base is 1 and every block adds 0.
    """
    linear = pool[0].degree == 1
    return [block.nvars for block in pool], [0 if linear else waring_rank(block) for block in pool], int(linear)


# Budgets up to _TAIL come from each walk's table, which holds only multisets the walk yields too:
# 6 is the fastest of 4..8 whose table stays under 0.1 MB on the coprime acceptance grid (0.04 MB).
_TAIL = 6


def _block_groups(
    pool: list[Monomial], n: int, spanning: bool = False
) -> Iterator[tuple[int, int, tuple[int, ...], list]]:
    """The walk of _block_multisets(pool, n, spanning), up to two groups per walked prefix.

    Yields (rank, used, picked, rows) for the prefix alone, with rows
    [(0, 0, ())], and then, if 1 to _TAIL variables are left, for its
    completions, with rows full[rest][starts[rest][j]:], j its last pick.
    With spanning, only multisets on all n variables are kept: a prefix
    alone if used == n, the rows with u == rest, no group left empty.
    The group's multisets are (rank + r, used + u, picked + p) for each
    (r, u, p) in rows, in that order. full[b] is the walk in b variables
    less the base rank, built once per call by the recursion for the
    pool, and starts[b][j] is where its part whose first index is j or
    more begins. Depth first, a lazy range of pool indices per level.
    """
    sizes, ranks, base = _block_ranks(pool)
    count = len(sizes)
    full, starts = [[]], [[0] * count]
    for b in range(1, min(n - 1, _TAIL) + 1):  # every prefix holds a block, so b < n
        full.append([(ranks[j] + r, size + u, (j,) + p) for j, size in enumerate(sizes) if size <= b
                     for r, u, p in [(0, 0, ())] + full[b - size][starts[b - size][j]:]])
        starts.append([bisect_left(full[b], j, key=lambda multiset: multiset[2][0]) for j in range(count)])
    first_fit = [next((i for i, s in enumerate(sizes) if s <= b), count) for b in range(n + 1)]
    alone = [(0, 0, ())]
    # Per level: indices left to try, from the first that fits, and the prefix's rank, used and picked.
    stack = [(iter(range(first_fit[n], count)), base, 0, ())]
    while stack:
        indices, rank, used, picked = stack[-1]
        for j in indices:
            rank_j, used_j, picked_j = rank + ranks[j], used + sizes[j], picked + (j,)
            rest = n - used_j
            if not (spanning and rest):
                yield rank_j, used_j, picked_j, alone
            if not rest:
                continue
            if rest > _TAIL:
                stack.append((iter(range(max(j, first_fit[rest]), count)), rank_j, used_j, picked_j))
                break
            rows = full[rest][starts[rest][j]:]
            if spanning:
                rows = [row for row in rows if row[1] == rest]
            if rows:
                yield rank_j, used_j, picked_j, rows
        else:
            stack.pop()


def _block_multisets(
    pool: list[Monomial], n: int, spanning: bool = False
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Ranked multisets of pool blocks using at most n variables (exactly n when spanning).

    Yields (rank, used, picked): picked, nondecreasing pool indices, lists
    its blocks in canonical order, used counts their variables and rank is
    sum_rank of their sum, both carried down the walk; at d = 1 the one
    block, x1, adds nothing to a base rank of 1. The order is the
    recursion's: for each pool index j that fits, ascending, (j,) and then
    (j,) followed by each multiset of blocks from j on in the variables
    left. Blocks come by variable count descending, so those that fit a
    budget are a suffix of the pool: the walk over _block_pool(n, d),
    restricted to used <= k, is the walk over _block_pool(k, d).

    The groups of _block_groups, expanded: with at most _TAIL variables
    left, each completion costs two adds and a tuple concatenation. With
    spanning, only the rows its filter keeps are expanded.
    """
    for rank, used, picked, rows in _block_groups(pool, n, spanning):
        for r, u, p in rows:
            yield rank + r, used + u, picked + p


def _multiset_counts(shapes: list[int], n: int) -> list[int]:
    """counts[u], u <= n: the number of multisets of block shapes on u variables in all.

    shapes[k] is the number of shapes on k variables: for degree d, the
    partitions of d into exactly k parts (_partition_counts). The counts
    are the coefficients of prod_k (1 - x^k)^(-shapes[k]) up to x^n, one
    factor per k. A factor with few shapes, p <= n // k, is p passes of
    counts[u] += counts[u - k], u ascending. One with more is one
    convolution with its series, whose x^(jk) coefficient is
    C(p + j - 1, j): n // k shifted multiply-adds of the counts in place
    of p passes. counts[0] = 1 is the empty multiset.
    """
    counts = [1] + [0] * n
    for k, p in enumerate(shapes[1:n + 1], 1):
        if p <= n // k:
            for _ in range(p):
                for u in range(k, n + 1):
                    counts[u] += counts[u - k]
            continue
        before, coefficient = counts[:], 1
        for j in range(1, n // k + 1):
            coefficient = coefficient * (p + j - 1) // j
            shift = j * k
            counts[shift:] = map(add, counts[shift:], map(coefficient.__mul__, before[:n + 1 - shift]))
    return counts


def _sum_walk(n: int, d: int, spanning: bool = False) -> tuple[Iterator[tuple[int, int, tuple[int, ...]]], Callable]:
    """(ranked, build): _block_multisets over _block_pool(n, d), and build(picked, m), the
    CoprimeSum in m variables of the pool blocks that picked indexes, in canonical order."""
    pool = _block_pool(n, d)
    ranked = _block_multisets(pool, n, spanning)
    return ranked, lambda picked, m: CoprimeSum._of(tuple(map(pool.__getitem__, picked)), m)


def enumerate_coprime_sums(n: int, d: int, spanning: bool = False) -> Iterator[CoprimeSum]:
    """All sums of pairwise coprime degree-d monomials in n variables.

    Yields one CoprimeSum per multiset of partitions of d whose part counts
    total at most n (exactly n when spanning is true), each exactly once.
    Blocks are chosen in nonincreasing canonical order, which both avoids
    duplicates and fixes a deterministic output order.
    """
    check_cell("enumerate_coprime_sums", n, d)
    ranked, build = _sum_walk(n, d, spanning)
    for _, _, picked in ranked:
        yield build(picked, n)


def _knapsack(n: int, d: int) -> tuple[list[int], Callable[[int], int], Callable[[int], int]]:
    """The best rank of each block size, the maximum rank for each variable budget, and its first block.

    Returns (ranks, best, pick): ranks[k] = r_max(k, d) for 1 <= k <= m = min(n, d)
    (index 0 unused), the rank of max_rank_monomial(k, d) read from
    _partition_top(d, k) without building it; best(b) is the maximum
    rank of a coprime sum in b <= n variables: ranks add across coprime
    blocks and a maximum uses only rank-maximal blocks, so best is an
    unbounded knapsack over block sizes.
    Let k have the most rank per variable (the largest on ties). Among any k
    other blocks some add up to a multiple of k variables (two of their k + 1
    prefix sums agree mod k), and copies of the k block there rank no lower.
    So some maximum has fewer than k other blocks, on at most (k - 1) * m
    variables: beyond that best(b) = best(b - k) + ranks[k], so the table
    stops there, O(m^3) time for any n. At d = 1, best(b) = 1 for b >= 1.
    pick(b) is the first maximum's first block size: the largest j with
    ranks[j] + best(b - j) == best(b) (1, for x1, at d = 1). Past top + d,
    best(b) and each best(b - j) exceed their values at b - k by ranks[k],
    so pick(b) = pick(b - k).
    """
    m = min(n, d)
    ranks = [0] + [_partition_top(d, k) for k in range(1, m + 1)]
    if d == 1:
        return ranks, lambda b: min(b, 1), lambda b: 1
    step = 1
    for k in range(2, m + 1):
        if ranks[k] * step >= ranks[step] * k:
            step = k
    top = min(n, (step - 1) * m)
    table = [0]
    for b in range(1, top + 1):
        table.append(max(ranks[k] + table[b - k] for k in range(1, min(b, d) + 1)))

    def best(b: int) -> int:
        steps = max(0, -(-(b - top) // step))
        return table[b - steps * step] + steps * ranks[step]

    picks = _Table(lambda b: max(k for k in range(1, min(b, d) + 1) if ranks[k] + best(b - k) == best(b)))
    # Each budget is read in the window of step budgets past top + d, and decided once there.
    return ranks, best, lambda b: picks[b - max(0, -(-(b - top - d - step) // step)) * step]


def r_max_star(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> int:
    """Maximum rank over sums of pairwise coprime degree-d monomials in n variables.

    closed_form reads the maximum from the block-size knapsack, an exact
    algorithm for every (n, d). Its values have closed forms, matched to
    the knapsack on every 2 <= d <= 40 and n <= d^2 + 2d: n for d = 2;
    3n div 2 for d = 3; (n div d) * 2^(d-1) + r_max(n mod d, d) for d >= 4,
    where r_max(0, d) means 0, plus 1 for d = 4, 5 when n = 1 (mod d) and
    n > d. So it equals r_max(n, d) for d >= n. oracle is the rank of
    max_rank_sum's brute-force witness.
    """
    check_cell("r_max_star", n, d)
    if mode == MODE_CLOSED_FORM:
        return _knapsack(n, d)[1](n)
    return sum_rank(max_rank_sum(n, d, mode))


def max_rank_sum(n: int, d: int, mode: str = MODE_CLOSED_FORM) -> CoprimeSum:
    """A witness sum attaining r_max_star(n, d): the first maximum in
    enumerate_coprime_sums order, in both modes.

    oracle ranks every multiset of blocks, in enumerate_coprime_sums order,
    and returns the first maximum; only that witness is built.
    closed_form backtracks the knapsack by its pick: at each step the
    largest block size that still leads to a maximum. Every maximum uses
    the best block of each size and the pool lists larger blocks first, so
    this is the same sum. At d = 1 every sum has rank 1, and the first one
    listed is the one-block sum x1.
    """
    check_cell("max_rank_sum", n, d)
    if mode == MODE_ORACLE:
        ranked, build = _sum_walk(n, d)
        return build(max(ranked, key=itemgetter(0))[2], n)
    if mode != MODE_CLOSED_FORM:
        raise UsageError(f"unknown mode {mode!r}; expected closed_form or oracle")
    if d == 1:
        return CoprimeSum._of((max_rank_monomial(1, 1),), n)
    pick = _knapsack(n, d)[2]
    sizes, b = [], n
    while b:
        sizes.append(pick(b))
        b -= sizes[-1]
    blocks = {k: max_rank_monomial(k, d) for k in set(sizes)}
    return CoprimeSum._of(tuple(map(blocks.get, sizes)), n)


def greedy_construction(n: int, d: int) -> CoprimeSum:
    """The greedy high-rank sum: squarefree blocks of d variables, remainder packed.

    Takes floor(n/d) blocks that are products of d distinct variables and,
    if r = n mod d > 0, one rank-maximal degree-d monomial on the leftover
    r variables. Not always rank-maximal.
    """
    check_cell("greedy_construction", n, d, min_d=2)
    rest = (max_rank_monomial(n % d, d),) if n % d else ()  # on fewer than d variables: last in canonical order
    return CoprimeSum._of((Monomial._of((1,) * d, d),) * (n // d) + rest, n)
