import math

import pytest

from waring.coprime_sums import r_max_star
from waring.monomials import r_max
from waring.rank_tables import (
    BOUND_KINDS,
    KnownExample,
    RankRecord,
    generic_rank,
    known_examples,
    upper_bounds,
)


def ceiling_formula(n, d):
    return -(-math.comb(d + n - 1, n - 1) // n)


# ---------------------------------------------------------------------------
# generic rank


@pytest.mark.parametrize(
    "n, d, expected",
    [
        (3, 3, 4),
        (4, 3, 5),
        (3, 4, 6),
        (4, 4, 10),
        (5, 3, 8),
        (5, 4, 15),
        (2, 5, 3),     # ceil(6/2)
        (4, 5, 14),    # ceil(56/4)
        (1, 9, 1),
        (100, 3, 1717),
    ],
)
def test_generic_rank_values(n, d, expected):
    assert generic_rank(n, d) == expected


def test_generic_rank_quadric_family():
    for n in range(1, 30):
        assert generic_rank(n, 2) == n


def test_generic_rank_exceeds_ceiling_exactly_on_exceptions():
    sporadic = {(3, 4), (4, 4), (5, 3), (5, 4)}
    for n in range(1, 21):
        for d in range(1, 41):
            value = generic_rank(n, d)
            ceiling = ceiling_formula(n, d)
            assert value >= ceiling
            strict = (d == 2 and n >= 3) or (n, d) in sporadic
            assert (value > ceiling) == strict


def test_generic_rank_monotone_on_grid():
    for n in range(1, 21):
        for d in range(1, 40):
            assert generic_rank(n, d + 1) >= generic_rank(n, d)
    for d in range(1, 41):
        for n in range(1, 20):
            assert generic_rank(n + 1, d) >= generic_rank(n, d)


def test_generic_rank_rejects_bad_args():
    with pytest.raises(ValueError):
        generic_rank(0, 3)
    with pytest.raises(ValueError):
        generic_rank(3, 0)


# ---------------------------------------------------------------------------
# upper-bound chain


def test_upper_bounds_kinds_and_order():
    for n in range(1, 41):
        for d in range(1, 41):
            records = upper_bounds(n, d)
            assert tuple(r.kind for r in records) == BOUND_KINDS, (n, d)
            assert all(r.n == n and r.d == d for r in records), (n, d)


def test_upper_bounds_literature_values():
    by_kind = {r.kind: r.value for r in upper_bounds(3, 4)}
    assert by_kind["jelisiejew_bound"] == 9
    assert by_kind["ballico_deparis_bound"] == 8
    assert by_kind["blekherman_bound"] == 12

    by_kind = {r.kind: r.value for r in upper_bounds(3, 3)}
    assert by_kind["jelisiejew_bound"] == 5
    assert by_kind["ballico_deparis_bound"] == 5  # correction vanishes at (3,3)


def test_upper_bounds_match_direct_formulas():
    def comb0(m, k):
        return math.comb(m, k) if 0 <= k <= m else 0

    for n in range(1, 10):
        for d in range(1, 16):
            by_kind = {r.kind: r.value for r in upper_bounds(n, d)}
            assert by_kind["span_bound"] == comb0(d + n - 1, n - 1)
            assert by_kind["improved_bound"] == comb0(d + n - 2, n - 1)
            assert by_kind["jelisiejew_bound"] == comb0(d + n - 2, n - 1) - comb0(
                d + n - 6, n - 3
            )
            assert by_kind["ballico_deparis_bound"] == comb0(d + n - 2, n - 1) - comb0(
                d + n - 6, n - 3
            ) - comb0(d + n - 7, n - 3)
            assert by_kind["blekherman_bound"] == 2 * generic_rank(n, d)


def test_bound_chain_descends_to_generic():
    for n in range(3, 13):
        for d in range(3, 31):
            values = [r.value for r in upper_bounds(n, d)]
            span, improved, jelisiejew, ballico, _ = values
            assert span >= improved >= jelisiejew >= ballico >= generic_rank(n, d)


def test_maximum_ranks_stay_within_every_upper_bound():
    # Every form's rank is at most every bound of the chain, so the maxima
    # over monomials and over coprime sums are too.
    for n in range(1, 41):
        for d in range(1, 41):
            lowest = min(r.value for r in upper_bounds(n, d))
            assert r_max(n, d) <= lowest, (n, d)
            assert r_max_star(n, d) <= lowest, (n, d)


# ---------------------------------------------------------------------------
# the registry


def test_known_examples_registry():
    examples = known_examples()
    assert len(examples) == 3
    by_label = {ex.label: ex for ex in examples}
    assert by_label["x^2*y + y^2*z"].rank == 5
    assert by_label["x^2*y + y^2*z"].n == 3
    assert by_label["x^2*y + y^2*z"].d == 3
    assert by_label["x^2*y^2 + y^3*z"].rank == 7
    assert by_label["x^2*y^2 + y^3*z"].d == 4
    assert by_label["x^2*y + y^2*z + w^3"].rank == 6
    assert by_label["x^2*y + y^2*z + w^3"].n == 4


def test_known_examples_exceed_generic_rank():
    for ex in known_examples():
        assert ex.rank > generic_rank(ex.n, ex.d)


def test_registry_consistent_with_pure_power_rule():
    base = next(ex for ex in known_examples() if ex.label == "x^2*y + y^2*z")
    extended = next(ex for ex in known_examples() if ex.label == "x^2*y + y^2*z + w^3")
    # Adding a pure power in a fresh variable raises the rank by exactly one.
    assert base.rank + 1 == extended.rank


# ---------------------------------------------------------------------------
# record validation


def test_rank_record_rejects_mismatches():
    with pytest.raises(ValueError):
        RankRecord(4, 4, "span_bound", 0)


def test_known_example_requires_positive_rank():
    with pytest.raises(ValueError):
        KnownExample("junk", 2, 2, 0, "")
