"""Acceptance suite: one test per headline criterion, each printing a
pass line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every comparison is exact; the time budgets are
generous (the whole suite finishes in well under a minute on a laptop).
"""

import json
import time
from fractions import Fraction

from waring.cli import main as cli_main
from waring.coprime_sums import greedy_construction, r_max_star, sum_rank
from waring.monomials import r_max
from waring.rank_tables import generic_rank
from waring.verify import (
    EXPECTED_COPRIME_EXCEPTIONS,
    STATUS_PASS,
    STATUS_PASS_WITH_EXPECTED,
    verify_claim,
    verify_theorem_coprime,
    verify_theorem_monomial,
)


def _pass_line(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s budget"
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def _run_cli_json(capsys, *args):
    code = cli_main([*args, "--format", "json", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_exceptional_table_reproduction(capsys):
    start = time.perf_counter()
    doc = _run_cli_json(capsys, "table", "--name", "exceptional-44-53")
    rows = doc["rows"]
    assert len(rows) == 8
    expected = [
        ("4", "4", "x1*x2*x3*x4", "8", "10"),
        ("4", "4", "x1*x2*x3^2", "6", "10"),
        ("4", "4", "x1*x2^3", "4", "10"),
        ("4", "4", "x1^2*x2^2", "3", "10"),
        ("4", "4", "x1^4", "1", "10"),
        ("5", "3", "x1*x2*x3", "4", "8"),
        ("5", "3", "x1*x2^2", "3", "8"),
        ("5", "3", "x1^3", "1", "8"),
    ]
    got = [(r["n"], r["d"], r["label"], r["value"], r["generic_rank"]) for r in rows]
    assert got == expected
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _pass_line("exceptional-44-53 table", "8 rows exact", elapsed, 1.0)


def test_coprime_43_classification(capsys):
    start = time.perf_counter()
    doc = _run_cli_json(capsys, "table", "--name", "coprime-43")
    rows = doc["rows"]
    assert len(rows) == 4
    assert [r["value"] for r in rows] == ["4", "5", "5", "6"]
    labels = {r["label"] for r in rows}
    assert labels == {
        "x1^3 + x2^3 + x3^3 + x4^3",
        "x1*x2^2 + x3^3 + x4^3",
        "x1*x2*x3 + x4^3",
        "x1*x2^2 + x3*x4^2",
    }
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _pass_line("coprime-43 table", "4 spanning sums, ranks 4/5/5/6", elapsed, 1.0)


def test_theorem_monomial_exhaustive(capsys):
    start = time.perf_counter()
    report = verify_theorem_monomial((4, 10), (2, 40))
    elapsed = time.perf_counter() - start
    assert report.status == STATUS_PASS
    assert report.violations == []
    assert report.checked_count > 100_000
    with capsys.disabled():
        _pass_line(
            "theorem-monomial n 4..10, d 2..40",
            f"{report.checked_count} monomials, 0 violations",
            elapsed,
            60.0,
        )


def test_theorem_coprime_exhaustive(capsys):
    start = time.perf_counter()
    report = verify_theorem_coprime((4, 8), (3, 10))
    elapsed = time.perf_counter() - start
    assert report.status == STATUS_PASS_WITH_EXPECTED
    assert report.expected_exceptions_matched
    assert len(report.violations) == 3
    found = {(v.n, v.d, v.witness.block_shapes(), v.lhs) for v in report.violations}
    assert found == {
        (4, 3, ((1, 2), (1, 2)), 6),
        (4, 3, ((1, 1, 1), (3,)), 5),
        (4, 3, ((1, 2), (3,), (3,)), 5),
    }
    assert {s for _, _, s, _ in found} == set(EXPECTED_COPRIME_EXCEPTIONS)
    with capsys.disabled():
        _pass_line(
            "theorem-coprime n 4..8, d 3..10",
            f"{report.checked_count} sums, exactly 3 expected exceptions at (4,3)",
            elapsed,
            60.0,
        )


def test_lemma_slope_exhaustive(capsys):
    start = time.perf_counter()
    report = verify_claim("lemma-slope", None, (4, 40))
    elapsed = time.perf_counter() - start
    assert report.status == STATUS_PASS
    assert report.violations == []
    for d in range(4, 41):
        for n in range(2, d + 1):
            assert (n - 1) * r_max(n, d) >= n * r_max(n - 1, d)
    with capsys.disabled():
        _pass_line(
            "lemma-slope d 4..40",
            f"{report.checked_count} pairs, 0 violations",
            elapsed,
            10.0,
        )


def test_oracle_equivalence(capsys):
    start = time.perf_counter()
    for n in range(1, 7):
        for d in range(2, 21):
            assert r_max(n, d, "closed_form") == r_max(n, d, "oracle")
    for n in range(1, 13):
        assert r_max_star(n, 3, "closed_form") == r_max_star(n, 3, "oracle")
    for n in range(4, 13):
        for d in range(n, 13):
            assert r_max_star(n, d, "closed_form") == r_max_star(n, d, "oracle")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _pass_line(
            "oracle equivalence",
            "r_max on n<=6,d<=20; r_max* on d=3,n<=12 and 4<=n<=d<=12",
            elapsed,
            60.0,
        )


def test_inequality_suites(capsys):
    start = time.perf_counter()
    agm = verify_claim("ineq-agm", (4, 12), (2, 40))
    pure = verify_claim("ineq-pure-power", (4, 14), (4, 14))
    elapsed = time.perf_counter() - start
    assert agm.status == STATUS_PASS and agm.violations == []
    assert pure.status == STATUS_PASS and pure.violations == []
    with capsys.disabled():
        _pass_line(
            "inequality suites",
            f"agm {agm.checked_count} cells, pure-power {pure.checked_count} cells",
            elapsed,
            10.0,
        )


def test_asymptotics_exact_gaps(capsys):
    start = time.perf_counter()
    limit = Fraction(8, 9)
    gaps = []
    for d in (64, 128, 256, 512, 1024, 2048):
        ratio = Fraction(r_max(4, d), generic_rank(4, d))
        gaps.append(abs(ratio - limit))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < Fraction(2, 100)

    ratio_100 = Fraction(r_max_star(100, 3), generic_rank(100, 3))
    assert ratio_100 == Fraction(150, 1717)
    assert ratio_100 < Fraction(1, 10)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _pass_line(
            "asymptotics",
            f"gap to 8/9 nonincreasing, {gaps[-1]} at d=2048; (100,3) ratio 150/1717",
            elapsed,
            5.0,
        )


def test_greedy_comparisons(capsys):
    start = time.perf_counter()
    cases = (((4, 3), 5, 6), ((5, 4), 9, 10), ((6, 5), 17, 18))
    for (n, d), greedy_rank, oracle_rank in cases:
        assert sum_rank(greedy_construction(n, d)) == greedy_rank
        assert r_max_star(n, d, "oracle") == oracle_rank
        assert greedy_rank < oracle_rank
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _pass_line(
            "greedy comparisons",
            "greedy 5/9/17 vs maxima 6/10/18 at (4,3)/(5,4)/(6,5)",
            elapsed,
            30.0,
        )
