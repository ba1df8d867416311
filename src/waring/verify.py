"""Exhaustive verification of the rank theorems, lemmas, and inequalities.

Each claim is checked over an inclusive (n, d) grid by pure enumeration and
exact integer comparison; divisions are cleared by cross-multiplication
first, so strict inequalities never depend on rounding. Grid cells are
independent, which allows optional fan-out to worker processes; results
merge in (n, d) order, so the report does not depend on the worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .coprime_sums import CoprimeSum, _block_multisets, _block_pool, r_max_star
from .errors import UsageError
from .exact_math import binomial
from .monomials import (
    MODE_CLOSED_FORM,
    MODE_ORACLE,
    Monomial,
    partitions,
    r_max,
    waring_rank,
)
from .rank_tables import generic_rank

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_PASS_WITH_EXPECTED = "pass_with_expected_exceptions"

CLAIM_IDS = (
    "theorem-monomial",
    "theorem-coprime",
    "lemma-slope",
    "ineq-agm",
    "ineq-pure-power",
)

# The only coprime sums in n >= 4 variables, d >= 3, whose rank reaches the
# generic rank: all at (n, d) = (4, 3), identified by block exponent
# multisets in canonical order.
EXPECTED_COPRIME_EXCEPTIONS = (
    ((1, 1, 1), (3,)),
    ((1, 2), (1, 2)),
    ((1, 2), (3,), (3,)),
)


@dataclass(frozen=True)
class Violation:
    """One failed (or non-strict) comparison, recomputable from (n, d, witness)."""

    n: int
    d: int
    witness: Monomial | CoprimeSum | None
    lhs: int | Fraction
    rhs: int | Fraction


@dataclass
class VerificationReport:
    claim_id: str
    grid: tuple[int, int, int, int]  # (n_min, n_max, d_min, d_max)
    checked_count: int
    violations: list[Violation] = field(default_factory=list)
    status: str = STATUS_PASS
    expected_exceptions_matched: bool = True
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status in (STATUS_PASS, STATUS_PASS_WITH_EXPECTED)


def _check_range(name: str, rng: tuple[int, int], minimum: int) -> None:
    lo, hi = rng
    if lo > hi:
        raise UsageError(f"{name} range {lo}:{hi} is empty")
    if lo < minimum:
        raise UsageError(f"{name} range must start at {minimum} or above, got {lo}")


def _pool_size(workers: int, cells: int) -> int:
    """Worker processes to start: never more than the cells or the CPUs."""
    return min(workers, cells, os.cpu_count() or 1)


def _run_cells(fn, cells, workers: int):
    workers = _pool_size(workers, len(cells))
    if workers <= 1:
        return [fn(c) for c in cells]
    chunk = max(1, len(cells) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells, chunksize=chunk))


# The two theorem cells visit the same objects, in the same order, as
# enumerate_monomials and enumerate_coprime_sums, but walk the raw
# partitions and block-index multisets and build a Monomial or CoprimeSum
# only for a reported violation.


def _monomial_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    gen = generic_rank(n, d)
    checked = 0
    bad = []
    for parts in partitions(d, n):
        checked += 1
        # waring_rank of the raw descending parts: every factor but the
        # one for the last (smallest) part.
        rank = 1
        for part in parts[:-1]:
            rank *= part + 1
        if rank >= gen:
            bad.append(Violation(n, d, Monomial(tuple(reversed(parts)), n), rank, gen))
    return checked, bad


def _coprime_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    gen = generic_rank(n, d)
    pool = _block_pool(n, d)
    block_rank = [waring_rank(block) for block in pool].__getitem__
    checked = 0
    nonstrict = []
    for picked in _block_multisets(pool, n):
        checked += 1
        rank = sum(map(block_rank, picked))
        if rank >= gen:
            f = CoprimeSum(tuple(pool[i] for i in picked), n)
            nonstrict.append(Violation(n, d, f, rank, gen))
    return checked, nonstrict


def _slope_cell(d: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for n in range(2, d + 1):
        checked += 1
        lhs = (n - 1) * r_max(n, d)
        rhs = n * r_max(n - 1, d)
        if lhs < rhs:
            bad.append(Violation(n, d, None, lhs, rhs))
    return checked, bad


def _agm_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    lhs = n * (d + n - 2) ** (n - 1)
    rhs = (n - 1) ** (n - 1) * binomial(d + n - 1, n - 1)
    if lhs >= rhs:
        return 1, [Violation(n, d, None, lhs, rhs)]
    return 1, []


def _pure_power_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    lhs = d * binomial(d + n - 1, n - 1)
    rhs = n * n * 2 ** (d - 1)
    if lhs <= rhs:
        return 1, [Violation(n, d, None, lhs, rhs)]
    return 1, []


def _collect(claim_id, grid, cells, fn, workers, expected=()):
    """Run per-cell checks, merge deterministically, and classify the outcome.

    expected is a collection of (n, d, block_shapes) triples that are
    allowed (and required, when their cell lies inside the grid) to appear
    as non-strict cases. Anything else found is an unexpected violation.
    """
    start = time.perf_counter()
    results = _run_cells(fn, cells, workers)
    checked = 0
    found: list[Violation] = []
    for cell_checked, cell_bad in results:
        checked += cell_checked
        found.extend(cell_bad)

    in_grid = set()
    for n, d, shapes in expected:
        n_min, n_max, d_min, d_max = grid
        if n_min <= n <= n_max and d_min <= d <= d_max:
            in_grid.add((n, d, shapes))
    found_keys = set()
    for v in found:
        shapes = v.witness.block_shapes() if isinstance(v.witness, CoprimeSum) else None
        found_keys.add((v.n, v.d, shapes))

    matched = found_keys == in_grid
    if not matched:
        status = STATUS_FAIL
    elif found:
        status = STATUS_PASS_WITH_EXPECTED
    else:
        status = STATUS_PASS
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(
        claim_id=claim_id,
        grid=grid,
        checked_count=checked,
        violations=found,
        status=status,
        expected_exceptions_matched=matched,
        elapsed_ms=elapsed_ms,
    )


def verify_theorem_monomial(
    n_range: tuple[int, int], d_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """Every monomial in n >= 4 variables of degree d > 1 has below-generic rank."""
    _check_range("n", n_range, 4)
    _check_range("d", d_range, 2)
    grid = (n_range[0], n_range[1], d_range[0], d_range[1])
    cells = [
        (n, d)
        for n in range(n_range[0], n_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
    ]
    return _collect("theorem-monomial", grid, cells, _monomial_cell, workers)


def verify_theorem_coprime(
    n_range: tuple[int, int], d_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """Coprime sums in n >= 4 variables, d >= 3, stay below the generic rank,
    except for three known cases at (4, 3) which meet or exceed it."""
    _check_range("n", n_range, 4)
    _check_range("d", d_range, 3)
    grid = (n_range[0], n_range[1], d_range[0], d_range[1])
    cells = [
        (n, d)
        for n in range(n_range[0], n_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
    ]
    expected = [(4, 3, shapes) for shapes in EXPECTED_COPRIME_EXCEPTIONS]
    return _collect("theorem-coprime", grid, cells, _coprime_cell, workers, expected)


def verify_lemma_slope(d_range: tuple[int, int], workers: int = 1) -> VerificationReport:
    """r_max(n, d)/n is nondecreasing in n for 2 <= n <= d, d >= 4 (cross-multiplied)."""
    _check_range("d", d_range, 4)
    grid = (2, d_range[1], d_range[0], d_range[1])
    cells = list(range(d_range[0], d_range[1] + 1))
    return _collect("lemma-slope", grid, cells, _slope_cell, workers)


def verify_inequality_agm(
    n_range: tuple[int, int], d_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """((d+n-2)/(n-1))^(n-1) < C(d+n-1, n-1)/n for n >= 4, checked on integers."""
    _check_range("n", n_range, 4)
    _check_range("d", d_range, 2)
    grid = (n_range[0], n_range[1], d_range[0], d_range[1])
    cells = [
        (n, d)
        for n in range(n_range[0], n_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
    ]
    return _collect("ineq-agm", grid, cells, _agm_cell, workers)


def verify_inequality_pure_power(
    d_range: tuple[int, int], n_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """C(d+n-1, n-1)/n^2 > 2^(d-1)/d for n >= d >= 4, checked on integers.

    Cells with n < d fall outside the claim and are skipped.
    """
    _check_range("d", d_range, 4)
    _check_range("n", n_range, 4)
    grid = (n_range[0], n_range[1], d_range[0], d_range[1])
    cells = [
        (n, d)
        for n in range(n_range[0], n_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
        if n >= d
    ]
    if not cells:
        raise UsageError("no grid cell satisfies n >= d >= 4")
    return _collect("ineq-pure-power", grid, cells, _pure_power_cell, workers)


@dataclass(frozen=True)
class RatioPoint:
    """Exact ratio of a maximum rank to the generic rank, with its exact limit.

    bound_only marks rows where the numerator is the linear upper bound
    n*2^(d-1)/d rather than the exact maximum (used when the brute-force
    search would be infeasible and no closed form exists).
    """

    n: int
    d: int
    ratio: Fraction
    limit: Fraction
    gap: Fraction
    bound_only: bool = False

    def __post_init__(self) -> None:
        if self.ratio <= 0:
            raise ValueError("ratio must be positive")
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")


def _fixed_n_limit(n: int) -> Fraction:
    # d -> infinity: max rank ~ d^(n-1)/(n-1)^(n-1), generic ~ d^(n-1)/n!.
    return Fraction(math.factorial(n), (n - 1) ** (n - 1))


def ratio_to_generic(n: int, d: int, which: str = "monomial") -> RatioPoint:
    """Exact ratio r_max(n,d)/r_gen(n,d) (or the coprime-sum analogue).

    The limit column is the exact d -> infinity value n!/(n-1)^(n-1)
    (equal to 3/2 at n = 3), and the gap is the exact distance to it.
    """
    if n < 2 or d < 2:
        raise UsageError(f"ratio_to_generic needs n >= 2 and d >= 2, got ({n}, {d})")
    if which == "monomial":
        value = r_max(n, d)
    elif which == "coprime":
        if d >= n or d == 3:
            value = r_max_star(n, d, MODE_CLOSED_FORM)
        else:
            value = r_max_star(n, d, MODE_ORACLE)
    else:
        raise UsageError(f"unknown ratio kind {which!r}; expected monomial or coprime")
    ratio = Fraction(value, generic_rank(n, d))
    limit = _fixed_n_limit(n)
    return RatioPoint(n, d, ratio, limit, abs(ratio - limit))


def ratio_decay_fixed_d(d: int, n_max: int, oracle_limit: int = 12) -> list[RatioPoint]:
    """Exact ratios r_max_star(n, d)/r_gen(n, d) for n = d..n_max at fixed d.

    The limit as n grows is 0: the numerator is bounded by a linear
    function of n while the generic rank grows like n^(d-1). Where neither
    closed form applies and n exceeds oracle_limit, the row reports the
    linear bound n*2^(d-1)/d instead, flagged bound_only.
    """
    if d < 3:
        raise UsageError(f"ratio_decay_fixed_d needs d >= 3, got {d}")
    if n_max < d:
        raise UsageError(f"n_max must be at least d, got n_max={n_max} < d={d}")
    zero = Fraction(0)
    points = []
    for n in range(d, n_max + 1):
        gen = generic_rank(n, d)
        if d == 3 or d >= n:
            ratio = Fraction(r_max_star(n, d, MODE_CLOSED_FORM), gen)
            bound_only = False
        elif n <= oracle_limit:
            ratio = Fraction(r_max_star(n, d, MODE_ORACLE), gen)
            bound_only = False
        else:
            ratio = Fraction(n * 2 ** (d - 1), d * gen)
            bound_only = True
        points.append(RatioPoint(n, d, ratio, zero, ratio, bound_only))
    return points
