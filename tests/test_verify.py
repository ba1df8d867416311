import functools
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

import pytest
from concurrent import futures
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
    _balanced_split,
    _partition_counts,
    _partition_top,
    _ranked_partitions,
    enumerate_monomials,
    max_rank_monomial,
    r_max,
    waring_rank,
)
from waring.rank_tables import generic_rank, generic_ranks
from waring.verify import (
    CLAIMS,
    EXPECTED_COPRIME_EXCEPTIONS,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_PASS_WITH_EXPECTED,
    Violation,
    _agm_columns,
    _collect,
    _coprime_columns,
    _monomial_columns,
    _pure_power_columns,
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


def two_cpus(monkeypatch):
    """This process may run on two CPUs, whatever the host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_theorem_monomial_workers_agree(monkeypatch):
    two_cpus(monkeypatch)
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
    monkeypatch.setattr("waring.verify._collect", lambda *args: pytest.fail("a grid was checked"))
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
def cell_walk(claim_id, n, d, cut=0):
    """Reference cell: walk the cell's own ranked objects and build only
    those that reach the generic rank less cut; kept across tests."""
    if claim_id == "theorem-monomial":
        ranked, build = _ranked_partitions(d, n), lambda exponents: Monomial(exponents, n)
    else:
        pool = _block_pool(n, d)
        ranked, build = _block_multisets(pool, n), lambda picked: CoprimeSum(tuple(pool[i] for i in picked), n)
    gen = generic_rank(n, d) - cut
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
    columns = CLAIMS[claim_id].columns
    for d in range(d_range[0], d_range[1] + 1):
        assert list(columns([(d, ns)])) == [[cell_walk(claim_id, n, d) for n in ns]], d
    two_cpus(monkeypatch)
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
@given(
    claim_id=st.sampled_from(THEOREMS),
    k=st.integers(1, 9),
    n=st.integers(1, 9),
    d=st.integers(1, 8),
    cut=st.sampled_from([0, 0, 1, 2, 6, 40]),
)
@example(claim_id="theorem-monomial", k=1, n=2, d=1, cut=0)
@example(claim_id="theorem-coprime", k=1, n=4, d=3, cut=0)
@example(claim_id="theorem-monomial", k=3, n=4, d=1, cut=0)
@example(claim_id="theorem-coprime", k=4, n=5, d=3, cut=0)
# One prefix group holds violators on two variable counts, the larger
# first in walk order: x1*x2*x3^4 (rank 10) before x1^3*x2^3 (rank 4), and
# x1*x2^2 + x3*x4^2 (rank 6) before x1*x2^2 + x3^3 (rank 4).
@example(claim_id="theorem-monomial", k=3, n=3, d=6, cut=6)
@example(claim_id="theorem-coprime", k=4, n=4, d=3, cut=1)
def test_theorem_columns_equal_the_cell_walks_below_four_variables(claim_id, k, n, d, cut):
    # Here cells reach the generic rank through objects on fewer than n
    # variables, e.g. x1 at (2, 1). Objects on fewer than k variables lie
    # in every cell of the column, and the one walk, in the largest open
    # cell's n, serves every open cell. Generic ranks lowered by cut make
    # violators on several variable counts at once, which the true ranks
    # never do within one cell.
    ns = range(min(k, n), n + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waring.verify, "generic_ranks", lambda ms, e: [g - cut for g in generic_ranks(ms, e)])
        [column] = CLAIMS[claim_id].columns([(d, ns)])
    assert column == [cell_walk(claim_id, m, d, cut) for m in ns]


def root_decisions(claim_id, columns, cut=0):
    """(tops, walked) per column of the claim's check: the per-cell tops its
    root was decided by, and the n of each walk it asked for, with every
    generic rank lowered by cut. No walk runs."""
    decisions = []
    check = waring.verify._theorem_column

    def recording(d, ns, counts, tops, walk):
        walked = []
        check(d, ns, counts, tops, lambda n: walked.append(n) or ((), None))
        decisions.append((tops, walked))
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waring.verify, "_theorem_column", recording)
        patch.setattr(waring.verify, "generic_ranks", lambda ms, e: [g - cut for g in generic_ranks(ms, e)])
        list(CLAIMS[claim_id].columns(columns))
    return decisions


def suffix_minimum_root_opens(top, gens, ns):
    """The reference root rule: some k has top(k), the top rank on k
    variables, at least low[k], the smallest generic rank of the cells
    with n >= k (all of them for k < ns[0])."""
    low = list(accumulate(reversed(gens), min))[::-1]
    low = low[:1] * ns[0] + low
    return any(top(k) >= low[k] for k in range(1, ns[-1] + 1))


@settings(max_examples=300, deadline=None)
@given(
    claim_id=st.sampled_from(THEOREMS),
    first=st.integers(1, 12),
    width=st.integers(0, 12),
    d=st.integers(1, 30),
    cut=st.sampled_from([0, 0, 1, 2, 6, 40, 1000]),
)
@example(claim_id="theorem-coprime", first=4, width=8, d=3, cut=0)
@example(claim_id="theorem-monomial", first=1, width=3, d=5, cut=0)
def test_the_per_cell_root_rule_is_the_suffix_minimum_rule(claim_id, first, width, d, cut):
    # A cell's top is the most any k <= n reaches, so some cell's top meets
    # its generic rank exactly when some top(k) meets the smallest generic
    # rank at or past k. Lowered generic ranks open roots on any kind. An
    # open root is walked once, in its largest open cell's n.
    ns = range(first, first + width + 1)
    [(_, walked)] = root_decisions(claim_id, [(d, ns)], cut)
    if claim_id == "theorem-monomial":
        top = functools.partial(_partition_top, d)  # exactly k parts
    else:
        top = lambda k: r_max_star(k, d)  # at most k variables
    gens = [g - cut for g in generic_ranks(ns, d)]
    opened = [n for n, gen in zip(ns, gens) if max(map(top, range(1, n + 1))) >= gen]
    assert walked == opened[-1:]
    assert bool(walked) == suffix_minimum_root_opens(top, gens, ns)


@pytest.mark.parametrize("claim_id", THEOREMS)
def test_each_cell_top_is_the_walks_maximum_on_at_most_n_variables(claim_id):
    ns = range(1, 10)
    columns = [(d, ns) for d in range(9, 0, -1)]
    for (d, _), (tops, _) in zip(columns, root_decisions(claim_id, columns)):
        if claim_id == "theorem-monomial":
            walks = [_ranked_partitions(d, n) for n in ns]
        else:
            walks = [_block_multisets(_block_pool(n, d), n) for n in ns]
        assert tops == [max(rank for rank, _, _ in walk) for walk in walks], d


def count_calls(monkeypatch, name):
    """The positional argument tuples of every call verify makes to its name from here on."""
    calls = []
    original = getattr(waring.verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(waring.verify, name, counted)
    return calls


def count_sum_walks(monkeypatch):
    """(walked, built): the arguments of every call verify makes to _sum_walk from here on, and the sums
    each call's build returns."""
    walked, built = [], []
    original = waring.verify._sum_walk

    def counted(*args):
        walked.append(args)
        ranked, build = original(*args)

        def counted_build(*build_args):
            built.append(build(*build_args))
            return built[-1]

        return ranked, counted_build

    monkeypatch.setattr(waring.verify, "_sum_walk", counted)
    return walked, built


def test_each_degree_is_walked_once(monkeypatch):
    # One partition count for the whole grid; every root closes, so no
    # partition is walked and no monomial built.
    counted = count_calls(monkeypatch, "_partition_counts")
    walked = count_calls(monkeypatch, "_ranked_partitions")
    built = count_calls(monkeypatch, "Monomial")
    assert verify_claim("theorem-monomial", (4, 10), (2, 40)).status == STATUS_PASS
    assert [(list(degrees), slots) for degrees, slots in counted] == [(list(range(2, 41)), 10)]
    assert walked == []
    assert built == []

    # One partition count for the whole grid, in 12 variables, and one
    # series per degree made from it. Only (4, 3) opens, so one walk runs,
    # in 4 variables: (4, 3)'s witnesses come from it, and they are the only
    # sums built.
    counted = count_calls(monkeypatch, "_partition_counts")
    series = count_calls(monkeypatch, "_multiset_counts")
    walked, built = count_sum_walks(monkeypatch)
    report = verify_claim("theorem-coprime", (4, 12), (3, 12))
    assert report.status == STATUS_PASS_WITH_EXPECTED
    assert [(list(degrees), slots) for degrees, slots in counted] == [(list(range(3, 13)), 12)]
    grid_counts = _partition_counts(range(3, 13), 12)
    assert series == [(grid_counts[d], 12) for d in range(3, 13)]
    assert walked == [(4, 3)]
    assert len(built) == len(EXPECTED_COPRIME_EXCEPTIONS) == len(report.violations)
    assert [v.witness for v in report.violations] == built

    # The walk does not grow with the grid's largest n.
    walked, built = count_sum_walks(monkeypatch)
    assert verify_claim("theorem-coprime", (4, 400), (3, 3)).status == STATUS_PASS_WITH_EXPECTED
    assert walked == [(4, 3)]
    assert len(built) == len(EXPECTED_COPRIME_EXCEPTIONS)

    # verify reaches the block walk only through _sum_walk.
    for name in ("coprime_sums", "_block_pool", "_block_groups", "_block_multisets", "_sum_of"):
        assert not hasattr(waring.verify, name), name


def test_monomial_roots_close_without_a_walk(monkeypatch):
    # In n >= 4 variables the paper's construction, the top rank on each
    # variable count, stays below the generic rank, so every monomial column
    # is decided at its root: no walk runs and no tail table row is made.
    def refuse(*args):
        raise AssertionError("a partition walk ran")

    monkeypatch.setattr(waring.verify, "_ranked_partitions", refuse)
    monkeypatch.setattr(waring.monomials, "_TAILS", waring.monomials._Table(waring.monomials._tail_rows))
    for n_range, d_range in (((4, 10), (2, 40)), ((4, 40), (2, 400))):
        assert verify_claim("theorem-monomial", n_range, d_range).status == STATUS_PASS
    assert waring.monomials._TAILS == {}


def test_only_the_cell_4_3_opens():
    # Why a theorem walk stays small: in n >= 4 variables the only cell whose
    # top reaches its generic rank is the coprime (4, 3), so a walk runs only
    # in the d = 3 column, in 4 variables. The tops are the closed forms.
    ns = range(4, 61)
    opened = []
    for d in range(2, 61):
        gens = generic_ranks(ns, d)
        assert all(_partition_top(d, min(n, d)) < gen for n, gen in zip(ns, gens)), d
        if d >= 3:
            opened += [(n, d) for n, gen in zip(ns, gens) if r_max_star(n, d) >= gen]
    assert opened == [(4, 3)]


def test_a_closed_root_builds_no_violation(monkeypatch):
    # A column whose root closes returns its cells without building any
    # Violation; on the coprime grid only (4, 3)'s three exceptions are
    # built, once by their column and once more flagged expected.
    built = []
    init = Violation.__init__

    def counting_init(self, n, d, witness, lhs, rhs, expected=False):
        built.append((n, d, witness, expected))
        init(self, n, d, witness, lhs, rhs, expected)

    monkeypatch.setattr(Violation, "__init__", counting_init)
    for n_range, d_range in (((4, 10), (2, 40)), ((4, 40), (2, 400))):
        assert verify_claim("theorem-monomial", n_range, d_range).status == STATUS_PASS
    assert built == []
    report = verify_claim("theorem-coprime", (4, 12), (3, 12))
    assert report.status == STATUS_PASS_WITH_EXPECTED
    found = [(v.n, v.d, v.witness) for v in report.violations]
    assert set(found) == {(4, 3, make_sum(shapes, 4)) for shapes in EXPECTED_COPRIME_EXCEPTIONS}
    assert built == [(*key, False) for key in found] + [(*key, True) for key in found]


def test_coprime_columns_build_the_block_pool_only_when_the_root_opens(monkeypatch):
    # Past (4, 3), no sum in the claim's domain reaches a generic rank, so
    # r_max_star closes the root of every column with d >= 4, and the
    # d = 3 column builds only (4, 3)'s pool.
    built = []
    original = waring.coprime_sums._block_pool

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(waring.coprime_sums, "_block_pool", counted)
    assert verify_claim("theorem-coprime", (4, 40), (40, 40)).status == STATUS_PASS
    assert built == []
    assert verify_claim("theorem-coprime", (4, 12), (3, 12)).status == STATUS_PASS_WITH_EXPECTED
    assert built == [(4, 3)]


@functools.cache
def walked_partition_summary(s, slots):
    """(counts, tops) per used, taken from the walk of _ranked_partitions(s, slots)."""
    counts, tops = [0] * (slots + 1), [0] * (slots + 1)
    for rank, used, _ in _ranked_partitions(s, slots):
        counts[used] += 1
        tops[used] = max(tops[used], rank)
    return counts, tops


def assert_partition_tops_equal_the_walk(keys):
    """_partition_top(s, u) for each key (s, u): the walk's top rank with u parts, 0 for u > s."""
    assert keys
    for s, u in keys:
        assert _partition_top(s, u) == (walked_partition_summary(s, s)[1][u] if u <= s else 0), (s, u)


def test_tail_summaries_count_and_top_each_used(monkeypatch):
    # Every count and top the monomial acceptance grid reads: each is that of
    # the walk, the counts of each column and the tops its root is decided by,
    # one per cell, r_max(n, d) = _partition_top(d, min(n, d)).
    tops = []
    monkeypatch.setattr(waring.verify, "_partition_top", lambda *key: tops.append(key) or _partition_top(*key))
    list(_monomial_columns([(d, range(4, 11)) for d in range(40, 1, -1)]))
    counts = _partition_counts(range(40, 1, -1), 10)
    for d in range(40, 1, -1):
        assert counts[d] == walked_partition_summary(d, min(d, 10))[0], d
    assert sorted(tops) == sorted((d, min(n, d)) for d in range(2, 41) for n in range(4, 11))
    assert_partition_tops_equal_the_walk(set(tops))


def test_summaries_of_any_tail_key_equal_the_walk():
    # Every (s, u) with s <= 30: the closed form's top, 0 where no partition
    # fits, is the walk's.
    assert_partition_tops_equal_the_walk([(s, u) for s in range(1, 31) for u in range(1, s + 2)])


def test_partition_counts_per_used_equal_the_walk():
    for d in range(0, 31):
        for slots in range(0, min(d, 16) + 1):
            by_used = [0] * (slots + 1)
            for _, used, _ in _ranked_partitions(d, slots):
                by_used[used] += 1
            assert _partition_counts([d], slots)[d] == by_used, (d, slots)


@functools.cache
def best_partition_rank(s, u, cap):
    """The highest rank among partitions of s into exactly u parts of at most
    cap, by recursion on the largest part; 0 when there are none."""
    if u == 1:
        return int(1 <= s <= cap)
    return max(((p + 1) * best_partition_rank(s - p, u - 1, p) for p in range(1, min(cap, s) + 1)), default=0)


@settings(max_examples=100, deadline=None)
@given(s=st.integers(1, 60), u=st.integers(1, 60))
@example(s=60, u=1)
@example(s=60, u=60)
@example(s=60, u=7)
@example(s=59, u=2)
@example(s=7, u=8)
def test_partition_top_is_the_best_partition_and_the_balanced_split_reaches_it(s, u):
    top = _partition_top(s, u)
    assert top == best_partition_rank(s, u, s)
    if top and u > 1:
        q, r = _balanced_split(s, u)
        parts = (1,) + (q,) * (u - 1 - r) + (q + 1,) * r
        assert sum(parts) == s
        assert waring_rank(Monomial(parts, u)) == top


def test_a_huge_degree_column_needs_no_memory():
    tracemalloc.start()
    try:
        [column] = _monomial_columns([(1200, range(4, 5))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column == [(12_150_601, [])]
    assert peak < 1_000_000


def test_a_wide_coprime_column_needs_no_memory():
    # Counts by the block-shape recurrence and the closed-form tops take O(n)
    # memory beyond the pool, whatever the number of sums (2.4e17 in 30 variables).
    tracemalloc.start()
    try:
        [column] = _coprime_columns([(30, range(4, 31))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [checked for checked, _ in column[:3]] == [525, 2_444, 11_515]
    assert column[-1][0] == 240_656_794_017_777_158
    assert all(bad == [] for _, bad in column)
    assert peak < 5_000_000


def test_root_summaries_top_out_at_the_closed_forms():
    for n in range(1, 17):
        for d in range(1, 61):
            assert max(_partition_top(d, u) for u in range(1, min(n, d) + 1)) == r_max(n, d), (n, d)
    # r_max_star tops every coprime cell: r_max_star(u, d) is the walk's highest
    # rank on at most u variables, the base rank of 1 at d = 1 included.
    for n in range(1, 15):
        for d in range(1, 15):
            tops = [0] * (n + 1)
            for rank, used, _ in _block_multisets(_block_pool(n, d), n):
                tops[used] = max(tops[used], rank)
            assert [0] + [r_max_star(u, d) for u in range(1, n + 1)] == list(accumulate(tops, max)), (n, d)


def test_enumerate_walks_build_no_summary(monkeypatch):
    def refuse(*args):
        raise AssertionError("a summary was built")

    monkeypatch.setattr(waring.verify, "_partition_counts", refuse)
    monkeypatch.setattr(waring.monomials, "_partition_top", refuse)
    monkeypatch.setattr(waring.verify, "_multiset_counts", refuse)
    pool = _block_pool(10, 12)
    assert len(list(_block_multisets(pool, 10))) == 19_614
    assert len(list(_ranked_partitions(40, 10))) == 16_928
    for columns in (_monomial_columns, _coprime_columns):
        with pytest.raises(AssertionError, match="a summary was built"):
            list(columns([(12, range(4, 11))]))


def test_theorem_columns_have_no_depth_limit_on_d():
    # Summaries made by recursion on the cap, or on the pool index, would pass
    # the interpreter's recursion limit here. The figures are those of the walks.
    [monomials] = _monomial_columns([(1500, range(1, 3))])
    assert [(checked, len(bad)) for checked, bad in monomials] == [(1, 1), (751, 750)]
    assert [v.witness.exponents for v in monomials[1][1][::749]] == [(1, 1499), (750, 750)]
    assert sum(v.lhs for v in monomials[1][1]) == 844_125
    [sums] = _coprime_columns([(2000, range(1, 3))])
    assert [(checked, len(bad)) for checked, bad in sums] == [(1, 1), (1002, 1000)]
    assert [v.witness.block_shapes() for v in sums[1][1][::999]] == [((1000, 1000),), ((1, 1999),)]
    assert sum(v.lhs for v in sums[1][1]) == 1_500_500


def test_acceptance_grid_starts_no_pool_on_two_workers(monkeypatch):
    two_cpus(monkeypatch)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
    report = verify_claim("theorem-coprime", (4, 12), (3, 12), workers=2)
    assert report.status == STATUS_PASS_WITH_EXPECTED


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


def _fresh_modules(code: str, site: bool = True) -> set[str]:
    """The names in sys.modules after running code in a fresh interpreter, without site (-S) unless site."""
    src = str(Path(waring.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", code + "\nimport sys; print(*sys.modules)"],
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


VERIFY_AND_ASYMPTOTICS = [
    ["verify", "--claim", "theorem-coprime", "--n-range", "4:4", "--d-range", "3:3"],
    ["asymptotics", "--mode", "d-limit", "--n", "4", "--d-samples", "10"],
    ["asymptotics", "--mode", "n-limit", "--d", "4", "--n-max", "8"],
]


@pytest.mark.parametrize("argv", VERIFY_AND_ASYMPTOTICS)
def test_verify_and_asymptotics_load_no_dataclasses(argv):
    modules = _fresh_modules(f"import os, waring.cli\nwaring.cli.main({argv!r} + ['--out', os.devnull])")
    assert "waring.verify" in modules
    assert sorted(modules & {"dataclasses", "inspect"}) == []


@pytest.mark.parametrize("argv", VERIFY_AND_ASYMPTOTICS)
def test_verify_and_asymptotics_load_no_typing(argv):
    # Without site: a .pth hook run by site may load typing first, which
    # would hide an import of it here.
    modules = _fresh_modules(f"import os, waring.cli\nwaring.cli.main({argv!r} + ['--out', os.devnull])", site=False)
    assert "waring.verify" in modules
    assert "typing" not in modules


@pytest.mark.parametrize("claim_id", ["theorem-monomial", "theorem-coprime"])
def test_verify_call_loads_no_fractions_or_decimal(claim_id):
    # Only the ratio functions need fractions, and it loads decimal.
    argv = ["verify", "--claim", claim_id, "--n-range", "4:5", "--d-range", "3:4", "--format", "json"]
    modules = _fresh_modules(f"import os, waring.cli\nwaring.cli.main({argv!r} + ['--out', os.devnull])")
    assert "waring.verify" in modules
    assert sorted(modules & {"fractions", "decimal"}) == []


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
    two_cpus(monkeypatch)
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
    def columns(grid):
        return [[(1, list(violations_by_cell.get((n, d), ()))) for n in ns] for d, ns in grid]

    return columns


def test_collect_status_fail_on_unexpected_violation():
    bad = Violation(4, 4, None, 10, 10)
    report = _collect("stub", (4, 4, 4, 4), [(4, (4,))], _fake_column_factory({(4, 4): [bad]}))
    assert report.status == STATUS_FAIL
    assert not report.expected_exceptions_matched
    assert not report.passed


def test_collect_merges_cells_in_n_then_d_order():
    # Columns come largest d first; the report lists cells n first, then d.
    cells = {(n, d): [Violation(n, d, None, 1, 1)] for n in (4, 5) for d in (4, 5)}
    columns = [(5, (4, 5)), (4, (4, 5))]
    report = _collect("stub", (4, 5, 4, 5), columns, _fake_column_factory(cells))
    assert report.checked_count == 4
    assert [(v.n, v.d) for v in report.violations] == [(4, 4), (4, 5), (5, 4), (5, 5)]


def test_collect_status_fail_when_expected_exception_missing():
    expected = [(4, 3, make_sum([[1, 2], [1, 2]], 4))]
    report = _collect("stub", (4, 4, 3, 3), [(3, (4,))], _fake_column_factory({}), expected)
    assert report.status == STATUS_FAIL


def test_collect_status_pass_when_expected_cell_outside_grid():
    expected = [(4, 3, make_sum([[1, 2], [1, 2]], 4))]
    report = _collect("stub", (5, 6, 3, 3), [(3, (5, 6))], _fake_column_factory({}), expected)
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
    report = _collect("stub", (4, 4, 3, 3), [(3, (4,))], column, expected)
    assert [v.expected for v in report.violations] == [True, False, False]
    assert report.status == STATUS_FAIL


def sort_every_cell_collect(grid, columns, outputs, expected=()):
    """The reference merge: every cell sorted by (n, d), then classified as _collect does."""
    cells = [((n, d), cell) for (d, ns), column in zip(columns, outputs) for n, cell in zip(ns, column)]
    merged = [cell for _, cell in sorted(cells, key=itemgetter(0))]
    checked = sum(cell_checked for cell_checked, _ in merged)
    found = [v for _, cell_bad in merged for v in cell_bad]
    n_min, n_max, d_min, d_max = grid
    in_grid = {(n, d, w) for n, d, w in expected if n_min <= n <= n_max and d_min <= d <= d_max}
    keys = [(v.n, v.d, v.witness) for v in found]
    found = [Violation(*key, v.lhs, v.rhs, True) if key in in_grid else v for key, v in zip(keys, found)]
    matched = set(keys) == in_grid
    status = STATUS_FAIL if not matched else STATUS_PASS_WITH_EXPECTED if found else STATUS_PASS
    return checked, found, status, matched


FAKE_WITNESSES = (None, make_sum([[1, 2], [1, 2]], 4), make_sum([[1, 1, 1], [3]], 4), Monomial((1, 2), 4))


@st.composite
def fake_column_outputs(draw):
    """(grid, columns, outputs, expected): random cells, some empty and some with several violations."""
    degrees = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4, unique=True))
    degrees = sorted(degrees, reverse=True) if draw(st.booleans()) else draw(st.permutations(degrees))
    n_lo = draw(st.integers(2, 6))
    ns = range(n_lo, draw(st.integers(n_lo, n_lo + 3)) + 1)
    columns = [(d, ns) for d in degrees]
    witnesses = st.lists(st.sampled_from(FAKE_WITNESSES), max_size=3)
    outputs = [
        [(draw(st.integers(0, 9)), [Violation(n, d, w, 5, 5) for w in draw(witnesses)]) for n in ns]
        for d, ns in columns
    ]
    found = [(v.n, v.d, v.witness) for column in outputs for _, cell_bad in column for v in cell_bad]
    expected = draw(st.lists(st.sampled_from(found), unique=True)) if found else []
    elsewhere = st.tuples(st.integers(1, 11), st.integers(1, 9), st.sampled_from(FAKE_WITNESSES))
    expected += draw(st.lists(elsewhere, max_size=2))
    return (ns[0], ns[-1], min(degrees), max(degrees)), columns, outputs, expected


@settings(max_examples=300, deadline=None)
@given(fake_column_outputs())
def test_collect_merges_as_the_sort_of_every_cell(case):
    # Only the cells with violations are sorted; the report is the one the
    # merge of every cell gives, violation for violation.
    grid, columns, outputs, expected = case
    report = _collect("stub", grid, columns, lambda grid_columns: outputs, expected)
    checked, found, status, matched = sort_every_cell_collect(grid, columns, outputs, expected)
    assert report.checked_count == checked
    assert report.violations == found
    assert [v.expected for v in report.violations] == [v.expected for v in found]
    assert (report.status, report.expected_exceptions_matched) == (status, matched)


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


def test_r_max_builds_no_monomial(monkeypatch):
    # The closed form reads the balanced construction's rank from
    # _partition_top, so neither r_max nor the slope lemma builds one.
    built = []
    bind = Monomial._set

    def counting_set(self, *values):  # both the checked and the trusted route bind with _set
        built.append(values)
        bind(self, *values)

    monkeypatch.setattr(Monomial, "_set", counting_set)
    value = r_max(30, 10**200)
    assert verify_claim("lemma-slope", None, (4, 40)).status == STATUS_PASS
    assert built == []
    monkeypatch.undo()
    assert value == waring_rank(max_rank_monomial(30, 10**200))


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
    assert list(_agm_columns([(4, (4,))])) == [[(1, [])]]
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
    assert list(_pure_power_columns([(4, (4,))])) == [[(1, [])]]
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
    # Hundreds of millions of sums at (30, 12); the closed form walks none of them.
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
