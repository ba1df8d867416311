import functools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import waring
from waring.coprime_sums import (
    CoprimeSum,
    _block_multisets,
    _block_pool,
    enumerate_coprime_sums,
    make_sum,
    max_rank_sum,
    r_max_star,
    sum_rank,
)
from waring.errors import UsageError
from waring.exact_math import ceil_div
from waring.monomials import (
    Monomial,
    _ranked_partitions,
    enumerate_monomials,
    max_rank_monomial,
    r_max,
    waring_rank,
)
from waring.rank_tables import generic_rank
from waring.verify import (
    CLAIMS,
    EXPECTED_COPRIME_EXCEPTIONS,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_PASS_WITH_EXPECTED,
    Violation,
    _agm_column,
    _collect,
    _pool_size,
    _pure_power_column,
    ratio_decay_fixed_d,
    ratio_to_generic,
    verify_claim,
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


@pytest.mark.parametrize("workers", [0, -1])
def test_verify_claim_rejects_fewer_than_one_worker(workers):
    message = f"workers must be at least 1, got {workers}"
    for claim_id in CLAIMS:
        with pytest.raises(UsageError) as exc:
            verify_claim(claim_id, workers=workers)
        assert str(exc.value) == message
    with pytest.raises(UsageError):
        verify_claim("lemma-slope", None, (4, 5), workers)


@pytest.mark.parametrize("bad", [(), (4,), (4, 5, 6), 4, "4:5"], ids=["empty", "one", "three", "int", "str"])
def test_verify_claim_rejects_a_range_that_is_not_a_pair(monkeypatch, bad):
    # Only None takes the default grid; nothing may be checked at all.
    monkeypatch.setattr("waring.verify._run_columns", lambda *args: pytest.fail("a grid was checked"))
    for n_range, d_range in ((bad, (2, 3)), ((4, 5), bad), (bad, bad)):
        with pytest.raises(UsageError, match="range must be a pair"):
            verify_claim("ineq-agm", n_range, d_range)
    with pytest.raises(UsageError, match="d range must be a pair"):
        verify_claim("lemma-slope", None, bad)


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


@functools.cache
def cell_walk(claim_id, n, d):
    """Reference cell: walk the cell's own ranked objects and build only
    those that reach the generic rank; kept across tests."""
    if claim_id == "theorem-monomial":
        ranked, build = _ranked_partitions(d, n), lambda exponents: Monomial(exponents, n)
    else:
        pool = _block_pool(n, d)
        ranked, build = _block_multisets(pool, n), lambda picked: CoprimeSum(tuple(pool[i] for i in picked), n)
    gen = generic_rank(n, d)
    checked, bad = 0, []
    for rank, _, raw in ranked:
        checked += 1
        if rank >= gen:
            bad.append(Violation(n, d, build(raw), rank, gen))
    return checked, bad


THEOREMS = ("theorem-coprime", "theorem-monomial")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 24))
@example(n=2, d=7)
@example(n=3, d=4)
@example(n=4, d=3)
def test_monomial_cell_matches_object_path(n, d):
    expected = object_path_cell(n, d, enumerate_monomials(n, d), waring_rank)
    assert cell_walk("theorem-monomial", n, d) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 7))
@example(n=2, d=3)
@example(n=3, d=3)
@example(n=4, d=3)
def test_coprime_cell_matches_object_path(n, d):
    expected = object_path_cell(n, d, enumerate_coprime_sums(n, d), sum_rank)
    assert cell_walk("theorem-coprime", n, d) == expected


def test_theorem_cells_find_violations_below_four_variables():
    for n, d in ((2, 7), (3, 4)):
        assert cell_walk("theorem-monomial", n, d)[1]
    assert cell_walk("theorem-coprime", 3, 3)[1]
    assert len(cell_walk("theorem-coprime", 4, 3)[1]) == 3


def assert_report_equals_cell_walks(report, claim_id, n_range, d_range):
    """The report counts and lists what the cells walked one by one find, in (n, d) order."""
    cells = [
        cell_walk(claim_id, n, d)
        for n in range(n_range[0], n_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
    ]
    assert report.checked_count == sum(checked for checked, _ in cells)
    found = [Violation(v.n, v.d, v.witness, v.lhs, v.rhs) for v in report.violations]
    assert found == [v for _, bad in cells for v in bad]


# The default grids, then the grids the benchmark runs.
@pytest.mark.parametrize(
    "claim_id, n_range, d_range",
    [
        ("theorem-monomial", (4, 8), (2, 20)),
        ("theorem-coprime", (4, 8), (3, 10)),
        ("theorem-monomial", (4, 10), (2, 40)),
        ("theorem-coprime", (4, 12), (3, 12)),
    ],
)
def test_theorem_columns_equal_the_cell_walks(monkeypatch, claim_id, n_range, d_range):
    ns = range(n_range[0], n_range[1] + 1)
    column = CLAIMS[claim_id].column
    for d in range(d_range[0], d_range[1] + 1):
        assert column((d, ns)) == [cell_walk(claim_id, n, d) for n in ns], d
    # Two CPUs on any host, so workers=2 really starts a two-process pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        report = verify_claim(claim_id, n_range, d_range, workers)
        assert_report_equals_cell_walks(report, claim_id, n_range, d_range)


@settings(max_examples=30, deadline=None)
@given(
    claim_id=st.sampled_from(THEOREMS),
    n_range=st.lists(st.integers(4, 12), min_size=2, max_size=2).map(sorted),
    d_range=st.lists(st.integers(2, 14), min_size=2, max_size=2).map(sorted),
)
@example(claim_id="theorem-coprime", n_range=[4, 5], d_range=[3, 4])
def test_theorem_reports_equal_the_cell_walks_on_any_subgrid(claim_id, n_range, d_range):
    d_lo = max(d_range[0], CLAIMS[claim_id].min_d)
    d_range = (d_lo, max(d_range[1], d_lo))
    report = verify_claim(claim_id, tuple(n_range), d_range)
    assert_report_equals_cell_walks(report, claim_id, n_range, d_range)


@settings(max_examples=80, deadline=None)
@given(claim_id=st.sampled_from(THEOREMS), k=st.integers(1, 9), n=st.integers(1, 9), d=st.integers(1, 8))
@example(claim_id="theorem-monomial", k=1, n=2, d=1)
@example(claim_id="theorem-coprime", k=1, n=4, d=3)
@example(claim_id="theorem-monomial", k=3, n=4, d=1)
@example(claim_id="theorem-coprime", k=4, n=5, d=3)
def test_theorem_columns_equal_the_cell_walks_below_four_variables(claim_id, k, n, d):
    # Here cells reach the generic rank through objects on fewer than n
    # variables, e.g. x1 at (2, 1). Objects on fewer than k variables lie
    # in every cell of the column, so they are kept against the smallest
    # generic rank of all its cells.
    ns = range(min(k, n), n + 1)
    assert CLAIMS[claim_id].column((d, ns)) == [cell_walk(claim_id, m, d) for m in ns]


def count_calls(monkeypatch, name):
    """The argument tuples of every call verify makes to its name from here on."""
    calls = []
    original = getattr(waring.verify, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(waring.verify, name, counted)
    return calls


def test_each_degree_is_walked_once(monkeypatch):
    # Only violations are built: none on the monomial grid.
    walks = count_calls(monkeypatch, "_ranked_partitions")
    built = count_calls(monkeypatch, "Monomial")
    assert verify_claim("theorem-monomial", (4, 10), (2, 40)).status == STATUS_PASS
    assert walks == [(d, 10) for d in range(40, 1, -1)]
    assert built == []

    # One walk per degree, in 12 variables: (4, 3)'s witnesses come from it
    # too, and they are the only sums built.
    walks = count_calls(monkeypatch, "_block_multisets")
    built = count_calls(monkeypatch, "CoprimeSum")
    report = verify_claim("theorem-coprime", (4, 12), (3, 12))
    assert report.status == STATUS_PASS_WITH_EXPECTED
    assert [(pool[0].degree, n) for pool, n in walks] == [(d, 12) for d in range(12, 2, -1)]
    assert len(built) == len(EXPECTED_COPRIME_EXCEPTIONS) == len(report.violations)
    assert [v.witness for v in report.violations] == [CoprimeSum(*args) for args in built]


def test_pool_size_never_exceeds_cells_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(1, 100) == 1
    assert _pool_size(2, 100) == 2
    assert _pool_size(64, 3) == 3
    assert _pool_size(10**9, 10**9) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1


@pytest.mark.parametrize("module", ["waring", "waring.cli"])
def test_import_loads_no_process_pool(module):
    # A fresh interpreter: this one has loaded the pool for other tests.
    src = str(Path(waring.__file__).resolve().parents[1])
    code = (
        f"import sys, {module}; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert run.stdout == "[]\n"


def _fresh_modules(code: str) -> set[str]:
    """The names in sys.modules after running code in a fresh interpreter."""
    src = str(Path(waring.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(run.stdout.split())


def test_import_waring_loads_no_submodule():
    assert sorted(m for m in _fresh_modules("import waring") if m.startswith("waring.")) == []


def test_rank_call_loads_no_verify_tables_dataclasses_fractions_or_csv():
    code = (
        "import os, waring.cli\n"
        "waring.cli.main(['rank', '--monomial', '1,2,2', '--deterministic', '--out', os.devnull])"
    )
    heavy = {"waring.verify", "waring.rank_tables", "dataclasses", "fractions", "csv"}
    assert sorted(_fresh_modules(code) & heavy) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--claim", "theorem-coprime", "--n-range", "4:4", "--d-range", "3:3"],
        ["asymptotics", "--mode", "d-limit", "--n", "4", "--d-samples", "10"],
        ["asymptotics", "--mode", "n-limit", "--d", "4", "--n-max", "8"],
    ],
)
def test_verify_and_asymptotics_load_no_dataclasses(argv):
    modules = _fresh_modules(f"import os, waring.cli\nwaring.cli.main({argv!r} + ['--out', os.devnull])")
    assert "waring.verify" in modules
    assert sorted(modules & {"dataclasses", "inspect"}) == []


def test_verify_handler_loads_verify():
    # Not before the handler runs: the CLI itself does not import it.
    code = (
        "import os, sys, waring.cli\n"
        "assert 'waring.verify' not in sys.modules\n"
        "waring.cli.main(['verify', '--claim', 'ineq-agm', '--n-range', '4:4', '--d-range', '2:2',"
        " '--out', os.devnull])"
    )
    assert "waring.verify" in _fresh_modules(code)


def test_every_claim_reports_the_same_on_two_workers(monkeypatch):
    # Two CPUs on any host, so workers=2 really starts a two-process pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for claim_id, claim in CLAIMS.items():
        n_range = None if claim.default_n is None else (claim.min_n, claim.min_n + 2)
        d_range = (claim.min_d, claim.min_d + 2)
        solo = verify_claim(claim_id, n_range, d_range, workers=1)
        pooled = verify_claim(claim_id, n_range, d_range, workers=2)
        assert {**vars(pooled), "elapsed_ms": 0} == {**vars(solo), "elapsed_ms": 0}


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


def _fake_column_factory(violations_by_cell):
    def column(c):
        d, ns = c
        return [(1, list(violations_by_cell.get((n, d), ()))) for n in ns]

    return column


def test_collect_status_fail_on_unexpected_violation():
    bad = Violation(4, 4, None, 10, 10)
    report = _collect(
        "stub", (4, 4, 4, 4), [(4, (4,))], _fake_column_factory({(4, 4): [bad]}), 1
    )
    assert report.status == STATUS_FAIL
    assert not report.expected_exceptions_matched
    assert not report.passed


def test_collect_merges_cells_in_n_then_d_order():
    # Columns come largest d first; the report lists cells n first, then d.
    cells = {(n, d): [Violation(n, d, None, 1, 1)] for n in (4, 5) for d in (4, 5)}
    columns = [(5, (4, 5)), (4, (4, 5))]
    report = _collect("stub", (4, 5, 4, 5), columns, _fake_column_factory(cells), 1)
    assert report.checked_count == 4
    assert [(v.n, v.d) for v in report.violations] == [(4, 4), (4, 5), (5, 4), (5, 5)]


def test_collect_status_fail_when_expected_exception_missing():
    expected = [(4, 3, make_sum([[1, 2], [1, 2]], 4))]
    report = _collect(
        "stub", (4, 4, 3, 3), [(3, (4,))], _fake_column_factory({}), 1, expected
    )
    assert report.status == STATUS_FAIL


def test_collect_status_pass_when_expected_cell_outside_grid():
    expected = [(4, 3, make_sum([[1, 2], [1, 2]], 4))]
    report = _collect(
        "stub", (5, 6, 3, 3), [(3, (5, 6))], _fake_column_factory({}), 1, expected
    )
    assert report.status == STATUS_PASS
    assert report.expected_exceptions_matched


def test_violation_expected_flags_exactly_the_three_exceptions():
    report = verify_theorem_coprime((4, 5), (3, 5))
    flagged = sorted(v.witness.block_shapes() for v in report.violations if v.expected)
    assert flagged == sorted(EXPECTED_COPRIME_EXCEPTIONS)
    assert all(v.expected for v in report.violations)

    expected = [(4, 3, make_sum([[1, 2], [1, 2]], 4))]
    match = Violation(4, 3, make_sum([[1, 2], [1, 2]]), 6, 5)
    other = Violation(4, 3, make_sum([[1, 1, 1], [3]]), 5, 5)
    plain = Violation(4, 3, None, 5, 5)
    column = _fake_column_factory({(4, 3): [match, other, plain]})
    report = _collect("stub", (4, 4, 3, 3), [(3, (4,))], column, 1, expected)
    assert [v.expected for v in report.violations] == [True, False, False]
    assert report.status == STATUS_FAIL


# ---------------------------------------------------------------------------
# lemma: normalized max rank grows with n


def test_lemma_slope_full_grid():
    report = verify_claim("lemma-slope", None, (4, 40))
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
        verify_claim("lemma-slope", None, (3, 10))


# ---------------------------------------------------------------------------
# inequality suites


def test_agm_inequality_grid():
    report = verify_claim("ineq-agm", (4, 12), (2, 40))
    assert report.status == STATUS_PASS
    assert report.checked_count == 9 * 39


def test_agm_cell_4_4_values():
    assert _agm_column((4, (4,))) == [(1, [])]
    assert 4 * 6**3 == 864
    assert 27 * 35 == 945  # (n-1)^(n-1) * C(7,3)


def test_agm_rejects_n_below_4():
    with pytest.raises(UsageError):
        verify_claim("ineq-agm", (3, 6), (2, 10))


def test_pure_power_inequality_grid():
    report = verify_claim("ineq-pure-power", (4, 14), (4, 14))
    assert report.status == STATUS_PASS
    assert report.checked_count == sum(1 for d in range(4, 15) for n in range(d, 15))


def test_pure_power_cell_base_case():
    assert _pure_power_column((4, (4,))) == [(1, [])]
    assert 4 * 35 == 140
    assert 16 * 8 == 128


def test_pure_power_rejects_d_below_4():
    with pytest.raises(UsageError):
        verify_claim("ineq-pure-power", (4, 10), (3, 10))


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
    # n > d >= 4: (5 div 4) * 2^3 + r_max(1, 4), plus 1 as 5 = 1 (mod 4), is 10 over generic 15
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
    assert all(p.limit == 0 and p.gap == p.ratio for p in points)


def test_ratio_decay_d3_strictly_decreasing_from_6():
    points = {p.n: p.ratio for p in ratio_decay_fixed_d(3, 100)}
    for n in range(6, 100):
        assert points[n + 1] < points[n]


def test_ratio_decay_uses_bound_beyond_oracle_limit():
    # Every row is the exact maximum, equal to the brute force.
    points = ratio_decay_fixed_d(4, 20)
    assert [p.n for p in points] == list(range(4, 21))
    for p in points:
        assert p.ratio == Fraction(r_max_star(p.n, 4, "oracle"), generic_rank(p.n, 4))
        # the linear bound dominates the exact value
        assert Fraction(p.n * 8, 4 * generic_rank(p.n, 4)) >= p.ratio


def test_exact_coprime_maxima_far_beyond_brute_force():
    # Hundreds of millions of sums at (30, 12); the knapsack takes milliseconds.
    start = time.perf_counter()
    point = ratio_to_generic(30, 12, "coprime")
    witness = max_rank_sum(40, 12)
    assert time.perf_counter() - start < 1
    assert point.ratio == Fraction(4420, generic_rank(30, 12))
    assert sum_rank(witness) == r_max_star(40, 12) == 6244
    assert witness.vars_used == 40
    # both stay within the linear bound n * 2^(d-1) / d
    assert 4420 * 12 <= 30 * 2**11 and 6244 * 12 <= 40 * 2**11


def test_ratio_decay_rejects_bad_args():
    with pytest.raises(UsageError):
        ratio_decay_fixed_d(2, 10)
    with pytest.raises(UsageError):
        ratio_decay_fixed_d(4, 3)
