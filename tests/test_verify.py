import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from waring.coprime_sums import CoprimeSum, enumerate_coprime_sums, sum_rank
from waring.errors import UsageError
from waring.exact_math import ceil_div
from waring.monomials import (
    Monomial,
    enumerate_monomials,
    max_rank_monomial,
    r_max,
    waring_rank,
)
from waring.rank_tables import generic_rank
from waring.verify import (
    EXPECTED_COPRIME_EXCEPTIONS,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_PASS_WITH_EXPECTED,
    Violation,
    _agm_cell,
    _collect,
    _coprime_cell,
    _monomial_cell,
    _pool_size,
    _pure_power_cell,
    ratio_decay_fixed_d,
    ratio_to_generic,
    verify_inequality_agm,
    verify_inequality_pure_power,
    verify_lemma_slope,
    verify_theorem_coprime,
    verify_theorem_monomial,
)


# ---------------------------------------------------------------------------
# theorem: monomials in four or more variables


def test_theorem_monomial_moderate_grid_passes():
    report = verify_theorem_monomial((4, 6), (2, 12))
    assert report.status == STATUS_PASS
    assert report.violations == []
    assert report.expected_exceptions_matched
    assert report.grid == (4, 6, 2, 12)
    assert report.passed


def test_theorem_monomial_single_cell_counts():
    report = verify_theorem_monomial((4, 4), (4, 4))
    assert report.status == STATUS_PASS
    assert report.checked_count == 5  # one per monomial shape at (4,4)


def test_theorem_monomial_margin_at_4_4():
    ranks = [waring_rank(m) for m in enumerate_monomials(4, 4)]
    assert max(ranks) == 8
    assert generic_rank(4, 4) == 10


def test_theorem_monomial_rejects_small_n_or_d():
    with pytest.raises(UsageError):
        verify_theorem_monomial((3, 5), (2, 10))
    with pytest.raises(UsageError):
        verify_theorem_monomial((4, 5), (1, 10))
    with pytest.raises(UsageError):
        verify_theorem_monomial((5, 4), (2, 10))  # empty range


def test_theorem_monomial_workers_agree():
    solo = verify_theorem_monomial((4, 5), (2, 10))
    fanned = verify_theorem_monomial((4, 5), (2, 10), workers=2)
    assert solo.status == fanned.status
    assert solo.checked_count == fanned.checked_count
    assert solo.violations == fanned.violations


def object_path_cell(n, d, objects, rank):
    """Reference cell: rank-compare every enumerated object."""
    gen = generic_rank(n, d)
    checked, bad = 0, []
    for obj in objects:
        checked += 1
        value = rank(obj)
        if value >= gen:
            bad.append(Violation(n, d, obj, value, gen))
    return checked, bad


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 24))
@example(n=2, d=7)
@example(n=3, d=4)
@example(n=4, d=3)
def test_monomial_cell_matches_object_path(n, d):
    expected = object_path_cell(n, d, enumerate_monomials(n, d), waring_rank)
    assert _monomial_cell((n, d)) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 7))
@example(n=2, d=3)
@example(n=3, d=3)
@example(n=4, d=3)
def test_coprime_cell_matches_object_path(n, d):
    expected = object_path_cell(n, d, enumerate_coprime_sums(n, d), sum_rank)
    assert _coprime_cell((n, d)) == expected


def test_theorem_cells_find_violations_below_four_variables():
    for cell in ((2, 7), (3, 4)):
        assert _monomial_cell(cell)[1]
    assert _coprime_cell((3, 3))[1]
    assert len(_coprime_cell((4, 3))[1]) == 3


def test_pool_size_never_exceeds_cells_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(1, 100) == 1
    assert _pool_size(2, 100) == 2
    assert _pool_size(64, 3) == 3
    assert _pool_size(10**9, 10**9) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1


# ---------------------------------------------------------------------------
# theorem: coprime sums


def test_theorem_coprime_finds_exactly_the_three_exceptions():
    report = verify_theorem_coprime((4, 6), (3, 8))
    assert report.status == STATUS_PASS_WITH_EXPECTED
    assert report.expected_exceptions_matched
    assert len(report.violations) == 3
    found = {(v.n, v.d, v.witness.block_shapes()) for v in report.violations}
    assert found == {(4, 3, shapes) for shapes in EXPECTED_COPRIME_EXCEPTIONS}
    ranks = sorted(v.lhs for v in report.violations)
    assert ranks == [5, 5, 6]
    assert all(v.rhs == 5 for v in report.violations)


def test_theorem_coprime_violations_recomputable():
    report = verify_theorem_coprime((4, 5), (3, 6))
    for v in report.violations:
        assert isinstance(v.witness, CoprimeSum)
        assert sum_rank(v.witness) == v.lhs
        assert generic_rank(v.n, v.d) == v.rhs


def test_theorem_coprime_clean_grid_passes():
    report = verify_theorem_coprime((5, 5), (3, 3))
    assert report.status == STATUS_PASS
    assert report.violations == []
    # margin quoted for this cell: max sum rank 7 below generic 8
    assert generic_rank(5, 3) == 8

    report = verify_theorem_coprime((6, 6), (3, 3))
    assert report.status == STATUS_PASS
    assert generic_rank(6, 3) == 10


def test_theorem_coprime_rejects_bad_ranges():
    with pytest.raises(UsageError):
        verify_theorem_coprime((3, 6), (3, 8))
    with pytest.raises(UsageError):
        verify_theorem_coprime((4, 6), (2, 8))


# ---------------------------------------------------------------------------
# status classification machinery


def _fake_cell_factory(violations_by_cell):
    def cell(c):
        return 1, list(violations_by_cell.get(c, ()))

    return cell


def test_collect_status_fail_on_unexpected_violation():
    bad = Violation(4, 4, None, 10, 10)
    report = _collect(
        "stub", (4, 4, 4, 4), [(4, 4)], _fake_cell_factory({(4, 4): [bad]}), 1
    )
    assert report.status == STATUS_FAIL
    assert not report.expected_exceptions_matched
    assert not report.passed


def test_collect_status_fail_when_expected_exception_missing():
    expected = [(4, 3, ((1, 2), (1, 2)))]
    report = _collect(
        "stub", (4, 4, 3, 3), [(4, 3)], _fake_cell_factory({}), 1, expected
    )
    assert report.status == STATUS_FAIL


def test_collect_status_pass_when_expected_cell_outside_grid():
    expected = [(4, 3, ((1, 2), (1, 2)))]
    report = _collect(
        "stub", (5, 6, 3, 3), [(5, 3), (6, 3)], _fake_cell_factory({}), 1, expected
    )
    assert report.status == STATUS_PASS
    assert report.expected_exceptions_matched


# ---------------------------------------------------------------------------
# lemma: normalized max rank grows with n


def test_lemma_slope_full_grid():
    report = verify_lemma_slope((4, 40))
    assert report.status == STATUS_PASS
    assert report.checked_count == sum(d - 1 for d in range(4, 41))


def test_lemma_slope_documented_edge_cases():
    # n = 2: d >= 2 against rank one in a single variable
    assert r_max(2, 5) == 5
    assert r_max(1, 5) == 1
    assert 1 * r_max(2, 5) >= 2 * r_max(1, 5)
    # n = d: ranks 2^(d-1) versus 3 * 2^(d-3)
    for d in range(4, 12):
        assert r_max(d, d) == 2 ** (d - 1)
        assert r_max(d - 1, d) == 3 * 2 ** (d - 3)
        assert (d - 1) * r_max(d, d) >= d * r_max(d - 1, d)


def test_lemma_slope_rejects_small_d():
    with pytest.raises(UsageError):
        verify_lemma_slope((3, 10))


# ---------------------------------------------------------------------------
# inequality suites


def test_agm_inequality_grid():
    report = verify_inequality_agm((4, 12), (2, 40))
    assert report.status == STATUS_PASS
    assert report.checked_count == 9 * 39


def test_agm_cell_4_4_values():
    checked, bad = _agm_cell((4, 4))
    assert checked == 1 and bad == []
    assert 4 * 6**3 == 864
    assert 27 * 35 == 945  # (n-1)^(n-1) * C(7,3)


def test_agm_rejects_n_below_4():
    with pytest.raises(UsageError):
        verify_inequality_agm((3, 6), (2, 10))


def test_pure_power_inequality_grid():
    report = verify_inequality_pure_power((4, 14), (4, 14))
    assert report.status == STATUS_PASS
    assert report.checked_count == sum(1 for d in range(4, 15) for n in range(d, 15))


def test_pure_power_cell_base_case():
    checked, bad = _pure_power_cell((4, 4))
    assert checked == 1 and bad == []
    assert 4 * 35 == 140
    assert 16 * 8 == 128


def test_pure_power_rejects_d_below_4():
    with pytest.raises(UsageError):
        verify_inequality_pure_power((3, 10), (4, 10))


# ---------------------------------------------------------------------------
# exponent-shift step used by the slope lemma


def test_moving_unit_exponent_scales_rank_exactly():
    # Start from the max-rank monomial in n-1 variables, move one unit of
    # its top exponent onto a fresh variable: rank scales by 2a/(a+1).
    for d in range(5, 31):
        for n in range(4, d):
            m = max_rank_monomial(n - 1, d)
            a = ceil_div(d - 1, n - 2)
            assert m.exponents[-1] == a > 1
            moved = tuple(sorted(m.exponents[:-1] + (a - 1, 1)))
            m_prime = Monomial(moved, n)
            assert m_prime.degree == d
            assert waring_rank(m_prime) * (a + 1) == waring_rank(m) * 2 * a


# ---------------------------------------------------------------------------
# asymptotic ratios


def test_ratio_to_generic_limits():
    assert ratio_to_generic(3, 5).limit == Fraction(3, 2)
    assert ratio_to_generic(4, 5).limit == Fraction(8, 9)
    assert ratio_to_generic(5, 5).limit == Fraction(120, 256)


def test_ratio_to_generic_4_4():
    point = ratio_to_generic(4, 4)
    assert point.ratio == Fraction(4, 5)  # 8 over 10
    assert point.gap == abs(Fraction(4, 5) - Fraction(8, 9))


def test_ratio_to_generic_coprime_routes():
    assert ratio_to_generic(4, 3, "coprime").ratio == Fraction(6, 5)
    # n > d >= 4 has no closed form; the oracle value 10 over generic 15
    assert ratio_to_generic(5, 4, "coprime").ratio == Fraction(2, 3)


def test_ratio_to_generic_rejects_bad_args():
    with pytest.raises(UsageError):
        ratio_to_generic(1, 5)
    with pytest.raises(UsageError):
        ratio_to_generic(4, 4, "nonsense")


def test_ratio_decay_d3_exact_endpoint():
    points = ratio_decay_fixed_d(3, 100)
    assert points[0].n == 3 and points[-1].n == 100
    last = points[-1]
    assert last.ratio == Fraction(150, 1717)
    assert last.ratio < Fraction(1, 10)
    assert not any(p.bound_only for p in points)
    assert all(p.limit == 0 and p.gap == p.ratio for p in points)


def test_ratio_decay_d3_strictly_decreasing_from_6():
    points = {p.n: p.ratio for p in ratio_decay_fixed_d(3, 100)}
    for n in range(6, 100):
        assert points[n + 1] < points[n]


def test_ratio_decay_uses_bound_beyond_oracle_limit():
    points = ratio_decay_fixed_d(4, 20, oracle_limit=12)
    by_n = {p.n: p for p in points}
    for n in range(4, 13):
        assert not by_n[n].bound_only
    for n in range(13, 21):
        assert by_n[n].bound_only
        assert by_n[n].ratio == Fraction(n * 8, 4 * generic_rank(n, 4))
    # where both are available the bound dominates the exact value
    exact = Fraction(10, generic_rank(5, 4))
    assert by_n[5].ratio == exact
    assert Fraction(5 * 8, 4 * generic_rank(5, 4)) >= exact


def test_ratio_decay_rejects_bad_args():
    with pytest.raises(UsageError):
        ratio_decay_fixed_d(2, 10)
    with pytest.raises(UsageError):
        ratio_decay_fixed_d(4, 3)
