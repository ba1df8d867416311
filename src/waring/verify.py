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
from fractions import Fraction

from ._record import Record
from .coprime_sums import CoprimeSum, _block_multisets, _block_pool, _knapsack, r_max_star
from .errors import UsageError, check_cell
from .exact_math import binomial
from .monomials import Monomial, _ranked_partitions, r_max
from .rank_tables import generic_rank

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_PASS_WITH_EXPECTED = "pass_with_expected_exceptions"

# The only coprime sums in n >= 4 variables, d >= 3, whose rank reaches the
# generic rank: all at (n, d) = (4, 3), identified by block exponent
# multisets in canonical order.
EXPECTED_COPRIME_EXCEPTIONS = (
    ((1, 1, 1), (3,)),
    ((1, 2), (1, 2)),
    ((1, 2), (3,), (3,)),
)


class Violation(Record):
    """One failed (or non-strict) comparison, recomputable from (n, d, witness).

    expected marks one of its claim's expected exceptions.
    """

    FIELDS = ("n", "d", "witness", "lhs", "rhs", "expected")

    def __init__(
        self,
        n: int,
        d: int,
        witness: Monomial | CoprimeSum | None,
        lhs: int | Fraction,
        rhs: int | Fraction,
        expected: bool = False,
    ) -> None:
        self._set(n, d, witness, lhs, rhs, expected)


class VerificationReport(Record):
    """The outcome of one claim over grid = (n_min, n_max, d_min, d_max)."""

    FIELDS = (
        "claim_id", "grid", "checked_count", "violations", "status",
        "expected_exceptions_matched", "elapsed_ms",
    )

    def __init__(
        self,
        claim_id: str,
        grid: tuple[int, int, int, int],
        checked_count: int,
        violations: list[Violation],
        status: str,
        expected_exceptions_matched: bool,
        elapsed_ms: int,
    ) -> None:
        self._set(
            claim_id, grid, checked_count, violations, status, expected_exceptions_matched,
            elapsed_ms,
        )

    @property
    def passed(self) -> bool:
        return self.status in (STATUS_PASS, STATUS_PASS_WITH_EXPECTED)


def _check_range(name: str, rng: tuple[int, int], minimum: int) -> tuple[int, int]:
    """rng as (lo, hi); anything but a nonempty pair from minimum up is a usage error."""
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise UsageError(f"{name} range must be a pair (first, last), got {rng!r}") from None
    if lo > hi:
        raise UsageError(f"{name} range {lo}:{hi} is empty")
    if lo < minimum:
        raise UsageError(f"{name} range must start at {minimum} or above, got {lo}")
    return lo, hi


def _pool_size(workers: int, cells: int) -> int:
    """Worker processes to start: never more than the cells or the CPUs."""
    return min(workers, cells, os.cpu_count() or 1)


def _run_cells(fn, cells, workers: int):
    workers = _pool_size(workers, len(cells))
    if workers <= 1:
        return [fn(c) for c in cells]
    # Imported here: it pulls in multiprocessing, logging, subprocess and
    # socket, which every other command would pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(cells) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells, chunksize=chunk))


def _theorem_cell(n: int, d: int, ranked, build) -> tuple[int, list[Violation]]:
    """Count a ranked walk's (rank, raw) pairs; each rank at or above
    generic_rank(n, d) is a violation with witness build(raw).

    The theorem cells walk the raw partitions or block-index multisets, in
    enumerate_monomials or enumerate_coprime_sums order, with each rank
    carried down the walk, so only a violation builds its object.
    """
    gen = generic_rank(n, d)
    checked = 0
    bad = []
    for rank, raw in ranked:
        checked += 1
        if rank >= gen:
            bad.append(Violation(n, d, build(raw), rank, gen))
    return checked, bad


def _monomial_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    return _theorem_cell(n, d, _ranked_partitions(d, n), lambda parts: Monomial(parts[::-1], n))


def _coprime_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    n, d = cell
    pool = _block_pool(n, d)
    return _theorem_cell(
        n, d, _block_multisets(pool, n), lambda picked: CoprimeSum(tuple(pool[i] for i in picked), n)
    )


def _slope_cell(d: int) -> tuple[int, list[Violation]]:
    """r_max(n, d)/n is nondecreasing in n for 2 <= n <= d (cross-multiplied)."""
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
    """((d+n-2)/(n-1))^(n-1) < C(d+n-1, n-1)/n, checked on integers."""
    n, d = cell
    lhs = n * (d + n - 2) ** (n - 1)
    rhs = (n - 1) ** (n - 1) * binomial(d + n - 1, n - 1)
    if lhs >= rhs:
        return 1, [Violation(n, d, None, lhs, rhs)]
    return 1, []


def _pure_power_cell(cell: tuple[int, int]) -> tuple[int, list[Violation]]:
    """C(d+n-1, n-1)/n^2 > 2^(d-1)/d, checked on integers."""
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
    as non-strict cases; the violations they match come back flagged
    expected. Anything else found is an unexpected violation.
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
    for i, v in enumerate(found):
        shapes = v.witness.block_shapes() if isinstance(v.witness, CoprimeSum) else None
        key = (v.n, v.d, shapes)
        found_keys.add(key)
        if key in in_grid:
            found[i] = Violation(v.n, v.d, v.witness, v.lhs, v.rhs, True)

    matched = found_keys == in_grid
    if not matched:
        status = STATUS_FAIL
    elif found:
        status = STATUS_PASS_WITH_EXPECTED
    else:
        status = STATUS_PASS
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(claim_id, grid, checked, found, status, matched, elapsed_ms)


class Claim(Record):
    """One checkable claim: its cell check, preconditions and default grid.

    A claim without an n range (default_n is None) takes one cell per d and
    ranges over 2 <= n <= d inside the cell. n_at_least_d drops the cells
    with n < d, which fall outside the claim. expected lists the
    (n, d, block_shapes) cases that must appear.
    """

    FIELDS = ("cell", "min_n", "min_d", "default_n", "default_d", "n_at_least_d", "expected")

    def __init__(
        self,
        cell,
        min_n: int | None,
        min_d: int,
        default_n: tuple[int, int] | None,
        default_d: tuple[int, int],
        n_at_least_d: bool = False,
        expected: tuple = (),
    ) -> None:
        self._set(cell, min_n, min_d, default_n, default_d, n_at_least_d, expected)


CLAIMS: dict[str, Claim] = {
    "theorem-monomial": Claim(_monomial_cell, 4, 2, (4, 8), (2, 20)),
    "theorem-coprime": Claim(
        _coprime_cell,
        4,
        3,
        (4, 8),
        (3, 10),
        expected=tuple((4, 3, shapes) for shapes in EXPECTED_COPRIME_EXCEPTIONS),
    ),
    "lemma-slope": Claim(_slope_cell, None, 4, None, (4, 20)),
    "ineq-agm": Claim(_agm_cell, 4, 2, (4, 8), (2, 20)),
    "ineq-pure-power": Claim(_pure_power_cell, 4, 4, (4, 14), (4, 14), n_at_least_d=True),
}

CLAIM_IDS = tuple(CLAIMS)


def get_claim(claim_id: str) -> Claim:
    """The CLAIMS entry for claim_id; an unknown id is a usage error."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise UsageError(f"unknown claim {claim_id!r}; expected one of {CLAIM_IDS}")
    return claim


def check_n_range(claim_id: str, n_range: object) -> None:
    """Reject an n range (anything but None) for a claim that ranges over n internally."""
    if n_range is not None and get_claim(claim_id).default_n is None:
        raise UsageError(f"{claim_id} ranges over n internally; pass only --d-range")


def verify_claim(
    claim_id: str,
    n_range: tuple[int, int] | None = None,
    d_range: tuple[int, int] | None = None,
    workers: int = 1,
) -> VerificationReport:
    """Check one claim of CLAIMS over an inclusive grid.

    A range left as None takes the claim's default; any other range must be
    a (first, last) pair, validated against the claim's minimum n and d, n
    first. workers must be at least 1.
    """
    claim = get_claim(claim_id)
    if workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    check_n_range(claim_id, n_range)
    if d_range is None:
        d_range = claim.default_d
    if claim.default_n is None:
        d_lo, d_hi = _check_range("d", d_range, claim.min_d)
        grid = (2, d_hi, d_lo, d_hi)
        cells = list(range(d_lo, d_hi + 1))
    else:
        n_lo, n_hi = _check_range("n", claim.default_n if n_range is None else n_range, claim.min_n)
        d_lo, d_hi = _check_range("d", d_range, claim.min_d)
        grid = (n_lo, n_hi, d_lo, d_hi)
        cells = [
            (n, d)
            for n in range(n_lo, n_hi + 1)
            for d in range(d_lo, d_hi + 1)
            if n >= d or not claim.n_at_least_d
        ]
        if not cells:
            raise UsageError(f"no grid cell satisfies n >= d >= {claim.min_d}")
    return _collect(claim_id, grid, cells, claim.cell, workers, claim.expected)


def verify_theorem_monomial(
    n_range: tuple[int, int], d_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """Every monomial in n >= 4 variables of degree d > 1 has below-generic rank."""
    return verify_claim("theorem-monomial", n_range, d_range, workers)


def verify_theorem_coprime(
    n_range: tuple[int, int], d_range: tuple[int, int], workers: int = 1
) -> VerificationReport:
    """Coprime sums in n >= 4 variables, d >= 3, stay below the generic rank,
    except for three known cases at (4, 3) which meet or exceed it."""
    return verify_claim("theorem-coprime", n_range, d_range, workers)


class RatioPoint(Record):
    """Exact ratio of a maximum rank to the generic rank, with its exact limit."""

    FIELDS = ("n", "d", "ratio", "limit", "gap")

    def __init__(self, n: int, d: int, ratio: Fraction, limit: Fraction, gap: Fraction) -> None:
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        if gap < 0:
            raise ValueError("gap must be nonnegative")
        self._set(n, d, ratio, limit, gap)


def _fixed_n_limit(n: int) -> Fraction:
    # d -> infinity: max rank ~ d^(n-1)/(n-1)^(n-1), generic ~ d^(n-1)/n!.
    return Fraction(math.factorial(n), (n - 1) ** (n - 1))


def ratio_to_generic(n: int, d: int, which: str = "monomial") -> RatioPoint:
    """Exact ratio r_max(n,d)/r_gen(n,d) (or the coprime-sum analogue).

    The limit column is the exact d -> infinity value n!/(n-1)^(n-1)
    (equal to 3/2 at n = 3), and the gap is the exact distance to it.
    """
    check_cell("ratio_to_generic", n, d, 2, 2)
    if which == "monomial":
        value = r_max(n, d)
    elif which == "coprime":
        value = r_max_star(n, d)
    else:
        raise UsageError(f"unknown ratio kind {which!r}; expected monomial or coprime")
    ratio = Fraction(value, generic_rank(n, d))
    limit = _fixed_n_limit(n)
    return RatioPoint(n, d, ratio, limit, abs(ratio - limit))


def ratio_decay_fixed_d(d: int, n_max: int) -> list[RatioPoint]:
    """Exact ratios r_max_star(n, d)/r_gen(n, d) for n = d..n_max at fixed d.

    The limit as n grows is 0: the numerator grows linearly in n (3n/2 at
    d = 3, at most n*2^(d-1)/d for d >= 4) while the generic rank grows
    like n^(d-1). Every numerator comes from one knapsack table up to n_max.
    """
    if d < 3:
        raise UsageError(f"ratio_decay_fixed_d needs d >= 3, got {d}")
    if n_max < d:
        raise UsageError(f"n_max must be at least d, got n_max={n_max} < d={d}")
    best = _knapsack(n_max, d)[2]
    zero = Fraction(0)
    points = []
    for n in range(d, n_max + 1):
        ratio = Fraction(best[n], generic_rank(n, d))
        points.append(RatioPoint(n, d, ratio, zero, ratio))
    return points
