"""Exhaustive verification of the rank theorems, lemmas, and inequalities.

Each claim is checked over an inclusive (n, d) grid by exhaustive, exact
integer comparison; divisions are cleared by cross-multiplication first, so
strict inequalities never depend on rounding. The unit of work is one
degree column, the grid's cells with one d, and columns run in this
process, in order; one pass sums their cells' counts and sorts only the
cells with violations into (n, d) order. The theorem claims count
each degree's objects for all its cells at once, per variable count: one
partition-count recurrence serves every column of the grid, and a coprime
column multiplies its block-shape counts into one series per variable
count. A column is decided at its root, cell by cell as the paper
states its theorems: the maximum rank in n variables against the generic
rank, all of whose values in the column come from one stepped binomial.
The maximum is r_max from the paper's construction for monomials, which
closes every root in n >= 4 variables, and r_max_star from the
block-size knapsack for coprime sums, which stays below the generic rank
in every cell with n >= 4 and d >= 3 but (4, 3). A cell is open when its
maximum reaches its generic rank; a column with an open cell walks once,
in its largest open cell's n (coprime_sums._sum_walk, for sums), and only
the objects that reach a generic rank are built. So every object is
counted and compared exactly, without being enumerated.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate
from operator import ge, gt, itemgetter, lt

from ._record import Record
from .coprime_sums import CoprimeSum, _knapsack, _multiset_counts, _sum_walk, make_sum, r_max_star
from .errors import UsageError, check_cell
from .exact_math import binomial
from .monomials import Monomial, _partition_counts, _partition_top, _ranked_partitions, r_max
from .rank_tables import generic_rank, generic_ranks

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterator
    from fractions import Fraction

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


def _theorem_column(d: int, ns: range, counts, tops, walk) -> list[tuple[int, list[Violation]]]:
    """One (checked, violations) pair per cell (n, d) for n in ns, from one count per variable count.

    counts[k], k >= 1, is the number of degree-d objects in max(ns)
    variables that use k of them; entries past max(ns) are ignored.
    tops[i] is the highest rank of an object in ns[i] variables, so only
    an open cell, one whose top reaches its generic rank, can hold a
    violation: unless one does, nothing is walked. walk(n) gives (ranked,
    build): ranked is the kind's walk in n variables, _ranked_partitions
    or _sum_walk's block multisets, yielding (rank, used, raw) in walk
    order, and build(raw, m) makes the object raw stands for in m
    variables. The walk runs once, in the largest open cell's n, and keeps
    the objects ranked at least the smallest generic rank of the open cells.
    Restricted to used <= m, it is cell m's own walk, so cell m's
    violations are the kept objects on at most m variables that reach
    its generic rank, in walk order, and only they are built.
    """
    per_k = list(counts[1:]) + [0] * (ns[-1] + 1 - len(counts))
    checked = list(accumulate(per_k, initial=0))[ns[0] :]  # checked[i]: the objects on at most ns[i] variables
    gens = generic_ranks(ns, d)
    opened = [(n, gen) for n, top, gen in zip(ns, tops, gens) if top >= gen]
    if not opened:
        return [(cell_checked, []) for cell_checked in checked]
    floor = min(gen for _, gen in opened)
    ranked, build = walk(opened[-1][0])
    kept = [(rank, k, raw) for rank, k, raw in ranked if rank >= floor]
    return [
        (cell_checked, [Violation(n, d, build(raw, n), rank, gen) for rank, k, raw in kept if k <= n and rank >= gen])
        for n, gen, cell_checked in zip(ns, gens, checked)
    ]


def _grid_partition_counts(columns) -> dict[int, list[int]]:
    """_partition_counts for every column's degree, up to the grid's largest n: one recurrence per grid."""
    return _partition_counts([d for d, _ in columns], max(ns[-1] for _, ns in columns))


def _monomial_columns(columns) -> Iterator[list[tuple[int, list[Violation]]]]:
    counts = _grid_partition_counts(columns)
    for d, ns in columns:
        tops = [_partition_top(d, n if n < d else d) for n in ns]  # r_max(n, d)
        yield _theorem_column(d, ns, counts[d], tops, lambda n: (_ranked_partitions(d, n), Monomial._of))


def _coprime_columns(columns) -> Iterator[list[tuple[int, list[Violation]]]]:
    counts = _grid_partition_counts(columns)
    for d, ns in columns:
        tops = list(map(_knapsack(ns[-1], d)[1], ns))  # r_max_star(n, d)
        yield _theorem_column(d, ns, _multiset_counts(counts[d], ns[-1]), tops, lambda n: _sum_walk(n, d))


def _inequality(n: int, d: int, lhs: int, rhs: int, holds) -> tuple[int, list[Violation]]:
    """One checked cell: a violation unless holds(lhs, rhs)."""
    return 1, [] if holds(lhs, rhs) else [Violation(n, d, None, lhs, rhs)]


def _slope_columns(columns) -> Iterator[list[tuple[int, list[Violation]]]]:
    """r_max(n, d)/n >= r_max(n - 1, d)/(n - 1) for each cell (cross-multiplied)."""
    for d, ns in columns:
        ranks = {n: r_max(n, d) for n in range(ns[0] - 1, ns[-1] + 1)}  # each once, for the two cells it is in
        yield [_inequality(n, d, (n - 1) * ranks[n], n * ranks[n - 1], ge) for n in ns]


def _agm_columns(columns) -> Iterator[list[tuple[int, list[Violation]]]]:
    """((d+n-2)/(n-1))^(n-1) < C(d+n-1, n-1)/n, checked on integers."""
    for d, ns in columns:
        yield [
            _inequality(n, d, n * (d + n - 2) ** (n - 1), (n - 1) ** (n - 1) * binomial(d + n - 1, n - 1), lt)
            for n in ns
        ]


def _pure_power_columns(columns) -> Iterator[list[tuple[int, list[Violation]]]]:
    """C(d+n-1, n-1)/n^2 > 2^(d-1)/d, checked on integers."""
    for d, ns in columns:
        yield [_inequality(n, d, d * binomial(d + n - 1, n - 1), n * n * 2 ** (d - 1), gt) for n in ns]


def _collect(claim_id, grid, columns, check, expected=()):
    """Run the column checks, merge their cells in (n, d) order, and classify the outcome.

    columns lists (d, ns) pairs; check(columns) gives, for each column in
    order, one (checked, violations) pair per n of its ns. expected is a
    collection of (n, d, witness) triples that are allowed (and required,
    when their cell lies inside the grid) to appear as non-strict cases; a
    violation matches one when its own (n, d, witness) is equal, and comes
    back flagged expected. Anything else found is an unexpected violation.
    """
    start = time.perf_counter()
    checked, bad = 0, []
    for (d, ns), column in zip(columns, check(columns)):
        for n, (cell_checked, cell_bad) in zip(ns, column):
            checked += cell_checked
            if cell_bad:
                bad.append(((n, d), cell_bad))
    found = [v for _, cell_bad in sorted(bad, key=itemgetter(0)) for v in cell_bad]

    n_min, n_max, d_min, d_max = grid
    in_grid = {(n, d, w) for n, d, w in expected if n_min <= n <= n_max and d_min <= d <= d_max}
    keys = [(v.n, v.d, v.witness) for v in found]
    found = [Violation(*key, v.lhs, v.rhs, True) if key in in_grid else v for key, v in zip(keys, found)]
    matched = set(keys) == in_grid
    status = STATUS_FAIL if not matched else STATUS_PASS_WITH_EXPECTED if found else STATUS_PASS
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(claim_id, grid, checked, found, status, matched, elapsed_ms)


class Claim(Record):
    """One checkable claim: its column check, preconditions and default grid.

    columns(columns), given the grid's (d, ns) pairs, checks the cells
    (n, d) for n in ns of each, giving one list of (checked, violations)
    pairs per column, one pair per n, in order. So a check may share work
    across the grid's columns. A claim without an n range
    (default_n is None) takes the cells 2 <= n <= d of each column.
    n_at_least_d drops the cells with n < d, which fall outside the claim.
    expected lists the (n, d, witness) violations that must appear.
    """

    FIELDS = ("columns", "min_n", "min_d", "default_n", "default_d", "n_at_least_d", "expected")

    def __init__(
        self,
        columns,
        min_n: int | None,
        min_d: int,
        default_n: tuple[int, int] | None,
        default_d: tuple[int, int],
        n_at_least_d: bool = False,
        expected: tuple = (),
    ) -> None:
        self._set(columns, min_n, min_d, default_n, default_d, n_at_least_d, expected)


CLAIMS: dict[str, Claim] = {
    "theorem-monomial": Claim(_monomial_columns, 4, 2, (4, 8), (2, 20)),
    "theorem-coprime": Claim(
        _coprime_columns,
        4,
        3,
        (4, 8),
        (3, 10),
        expected=tuple((4, 3, make_sum(shapes, 4)) for shapes in EXPECTED_COPRIME_EXCEPTIONS),
    ),
    "lemma-slope": Claim(_slope_columns, None, 4, None, (4, 20)),
    "ineq-agm": Claim(_agm_columns, 4, 2, (4, 8), (2, 20)),
    "ineq-pure-power": Claim(_pure_power_columns, 4, 4, (4, 14), (4, 14), n_at_least_d=True),
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
    first. workers must be at least 1; every column runs in this process.
    """
    claim = get_claim(claim_id)
    if workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    check_n_range(claim_id, n_range)
    if claim.default_n is not None:
        n_lo, n_hi = _check_range("n", claim.default_n if n_range is None else n_range, claim.min_n)
    d_lo, d_hi = _check_range("d", claim.default_d if d_range is None else d_range, claim.min_d)
    if claim.default_n is None:
        n_lo, n_hi = 2, d_hi
    columns = []
    for d in range(d_lo, d_hi + 1):
        first = max(n_lo, d) if claim.n_at_least_d else n_lo
        last = d if claim.default_n is None else n_hi
        if first <= last:
            columns.append((d, range(first, last + 1)))
    if not columns:
        raise UsageError(f"no grid cell satisfies n >= d >= {claim.min_d}")
    return _collect(claim_id, (n_lo, n_hi, d_lo, d_hi), columns, claim.columns, claim.expected)


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
    from fractions import Fraction  # here, not at the top: it loads decimal, which no verify call needs

    return Fraction(math.factorial(n), (n - 1) ** (n - 1))


def ratio_to_generic(n: int, d: int, which: str = "monomial") -> RatioPoint:
    """Exact ratio r_max(n,d)/r_gen(n,d) (or the coprime-sum analogue).

    The limit column is the exact d -> infinity value n!/(n-1)^(n-1)
    (equal to 3/2 at n = 3), and the gap is the exact distance to it.
    """
    from fractions import Fraction

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
    like n^(d-1). Every numerator comes from one knapsack.
    """
    from fractions import Fraction

    if d < 3:
        raise UsageError(f"ratio_decay_fixed_d needs d >= 3, got {d}")
    if n_max < d:
        raise UsageError(f"n_max must be at least d, got n_max={n_max} < d={d}")
    best = _knapsack(n_max, d)[1]
    ns = range(d, n_max + 1)
    zero = Fraction(0)
    points = []
    for n, gen in zip(ns, generic_ranks(ns, d)):
        ratio = Fraction(best(n), gen)
        points.append(RatioPoint(n, d, ratio, zero, ratio))
    return points
