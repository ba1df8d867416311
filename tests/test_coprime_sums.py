import pickle
import time
import tracemalloc
from collections.abc import Callable
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from waring import coprime_sums
from waring.coprime_sums import (
    _TAIL,
    CoprimeSum,
    _block_groups,
    _block_multisets,
    _block_pool,
    _multiset_counts,
    _top_sizes,
    enumerate_coprime_sums,
    greedy_construction,
    make_sum,
    max_rank_sum,
    r_max_star,
    sum_rank,
)
from waring.errors import DimensionError, UsageError
from waring.monomials import (
    Monomial,
    _Table,
    _partition_counts,
    _partition_top,
    canonicalize,
    enumerate_monomials,
    max_rank_monomial,
    partitions,
    r_max,
    waring_rank,
)
from waring.rank_tables import generic_rank
from waring.verify import STATUS_PASS_WITH_EXPECTED, ratio_decay_fixed_d, verify_claim


def multiset_counts(d, n):
    """_multiset_counts in n variables at degree d, its shape counts read from _partition_counts."""
    return _multiset_counts(_partition_counts([d], min(n, d))[d], n)


def predicted_walk(d, n):
    """The nonempty multisets _block_multisets walks over _block_pool(n, d), counted by the shape recurrence."""
    return sum(multiset_counts(d, n)) - 1


def multiset_count(n, d, spanning):
    """Independent count of multisets of partitions of d with total part
    count <= n (== n when spanning), by multiplicity choice per shape."""
    shapes = [len(p) for p in partitions(d, min(n, d))]

    def go(idx, budget):
        if idx == len(shapes):
            return 1 if (budget == 0 or not spanning) else 0
        total = 0
        size = shapes[idx]
        copies = 0
        while copies * size <= budget:
            total += go(idx + 1, budget - copies * size)
            copies += 1
        return total

    return go(0, n) - (1 if not spanning else 0)  # drop the empty sum


def shape_multiset_counts(n, d):
    """coeffs[m]: multisets of block shapes of degree d on exactly m variables.

    The coefficients of prod_k (1 - x^k)^(-p_k(d)) up to x^n, where p_k(d),
    the partitions of d into exactly k parts, comes from the recurrence
    p_k(d) = p_(k-1)(d-1) + p_k(d-k); each factor 1/(1 - x^k) is one pass
    of coeffs[m] += coeffs[m - k].
    """
    exact = [[1] + [0] * d] + [[0] * (d + 1) for _ in range(d)]  # exact[k][t]
    for k in range(1, d + 1):
        for t in range(k, d + 1):
            exact[k][t] = exact[k - 1][t - 1] + exact[k][t - k]
    coeffs = [1] + [0] * n
    for k in range(1, d + 1):
        for _ in range(exact[k][d]):
            for m in range(k, n + 1):
                coeffs[m] += coeffs[m - k]
    return coeffs


# ---------------------------------------------------------------------------
# construction and additivity


def test_sum_rank_paper_examples():
    assert sum_rank(make_sum([[1, 2], [1, 2]])) == 6
    assert sum_rank(make_sum([[1, 1, 1], [3]])) == 5
    assert sum_rank(make_sum([[3], [3], [3], [3]])) == 4


def test_single_block_sum_equals_monomial_rank():
    for exps in ([2, 3], [1, 1, 1], [4]):
        f = make_sum([exps])
        assert sum_rank(f) == waring_rank(f.blocks[0])


def test_make_sum_defaults_ambient_to_slot_count():
    f = make_sum([[1, 2], [1, 2]])
    assert f.ambient_vars == 4
    assert f.degree == 3
    assert f.vars_used == 4


def test_make_sum_zero_slots_count_toward_ambient():
    f = make_sum([[1, 2], [0, 3]])
    assert f.ambient_vars == 4
    assert f.vars_used == 3
    assert f.block_shapes() == ((1, 2), (3,))


def test_make_sum_canonical_block_order():
    f = make_sum([[3], [1, 2], [1, 1, 1]], ambient_vars=6)
    assert f.block_shapes() == ((1, 1, 1), (1, 2), (3,))


def test_sum_invariants_enforced():
    with pytest.raises(ValueError):
        make_sum([[1, 2], [4]])  # mixed degree
    with pytest.raises(DimensionError):
        make_sum([[1, 2], [1, 2]], ambient_vars=3)
    with pytest.raises(ValueError):
        CoprimeSum((Monomial((3,), 1), Monomial((1, 1, 1), 3)), 4)  # order
    with pytest.raises(ValueError):
        CoprimeSum((Monomial((1, 2), 4),), 4)  # block not on own variables
    with pytest.raises(ValueError, match="^a coprime sum needs at least one block$"):
        CoprimeSum((), 1)


def test_additivity_across_enumerations():
    for n in range(1, 9):
        for d in range(2, 9):
            for f in enumerate_coprime_sums(n, d):
                assert sum_rank(f) == sum(waring_rank(b) for b in f.blocks)


def test_degree_one_sums_are_one_linear_form_of_rank_one():
    for n in range(1, 9):
        assert [sum_rank(f) for f in enumerate_coprime_sums(n, 1)] == [1] * n
        assert r_max_star(n, 1) == r_max_star(n, 1, "oracle") == 1
        assert max_rank_sum(n, 1) == max_rank_sum(n, 1, "oracle") == make_sum([[1]], n)
    assert sum_rank(make_sum([[1], [0, 1], [1]])) == 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_spanning_4_3_golden():
    sums = list(enumerate_coprime_sums(4, 3, spanning=True))
    assert [f.block_shapes() for f in sums] == [
        ((1, 1, 1), (3,)),
        ((1, 2), (1, 2)),
        ((1, 2), (3,), (3,)),
        ((3,), (3,), (3,), (3,)),
    ]
    assert sorted(sum_rank(f) for f in sums) == [4, 5, 5, 6]


def test_enumerate_single_variable():
    for d in (1, 3, 6):
        for spanning in (False, True):
            sums = list(enumerate_coprime_sums(1, d, spanning=spanning))
            assert len(sums) == 1
            assert sums[0].block_shapes() == ((d,),)


def test_enumerate_no_duplicates_and_counts():
    for n in range(1, 8):
        for d in range(1, 8):
            for spanning in (False, True):
                sums = list(enumerate_coprime_sums(n, d, spanning=spanning))
                shapes = [f.block_shapes() for f in sums]
                assert len(set(shapes)) == len(shapes)
                assert len(sums) == multiset_count(n, d, spanning)
                if spanning:
                    assert all(f.vars_used == n for f in sums)
                else:
                    assert all(f.vars_used <= n for f in sums)


def recursive_multisets(sizes, n, spanning):
    """Reference order: depth-first recursion over nondecreasing pool
    indices, skipping blocks that do not fit the variables left."""
    out = []

    def extend(start, budget, chosen):
        for i in range(start, len(sizes)):
            if sizes[i] > budget:
                continue
            picked = chosen + (i,)
            if not spanning or sizes[i] == budget:
                out.append(picked)
            extend(i, budget - sizes[i], picked)

    extend(0, n, ())
    return out


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 8), spanning=st.booleans())
@example(n=1, d=1, spanning=False)
@example(n=6, d=1, spanning=False)
@example(n=4, d=1, spanning=True)
@example(n=_TAIL + 1, d=1, spanning=False)  # base rank 1, block ranks 0, past the table
@example(n=_TAIL, d=4, spanning=False)
@example(n=_TAIL, d=5, spanning=True)
@example(n=_TAIL + 1, d=4, spanning=True)
@example(n=_TAIL + 1, d=6, spanning=False)
@example(n=2 * _TAIL + 2, d=5, spanning=False)
@example(n=2 * _TAIL + 2, d=5, spanning=True)
def test_block_multisets_match_reference_and_enumeration(n, d, spanning):
    pool = _block_pool(n, d)
    reference = recursive_multisets([b.nvars for b in pool], n, spanning)
    # Ranks add across coprime blocks, except that a sum of variables is one
    # linear form, of rank 1.
    expected = [
        (1 if d == 1 else sum(waring_rank(pool[i]) for i in p), sum(pool[i].nvars for i in p), p) for p in reference
    ]
    # Every table size: none, budgets of 1, the whole walk and more than it.
    with pytest.MonkeyPatch.context() as patch:
        for tail in (0, 1, n, n + 1, _TAIL):
            patch.setattr(coprime_sums, "_TAIL", tail)
            assert list(_block_multisets(pool, n, spanning)) == expected, tail
            groups = list(_block_groups(pool, n, spanning=True))
            assert all(rows and all(used + u == n for _, u, _ in rows) for _, used, _, rows in groups), tail
    sums = list(enumerate_coprime_sums(n, d, spanning=spanning))
    assert [tuple(pool[i] for i in p) for p in reference] == [f.blocks for f in sums]


def test_block_walk_streams_and_its_table_stays_bounded():
    pool = _block_pool(20, 12)
    assert predicted_walk(12, 20) == 26_776_805
    tracemalloc.start()
    try:
        head = list(islice(_block_multisets(pool, 20), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[0] == (2 ** 11, 12, (0,)) and len(head) == 1000
    assert peak < 1_000_000


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), d=st.integers(1, 8))
def test_block_multiset_counts_match_generating_function(n, d):
    coeffs = shape_multiset_counts(n, d)
    pool = _block_pool(n, d)
    assert sum(1 for _ in _block_multisets(pool, n, spanning=True)) == coeffs[n]
    assert sum(1 for _ in _block_multisets(pool, n)) == sum(coeffs[1:])
    assert predicted_walk(d, n) == sum(coeffs[1:])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 8))
@example(n=4, d=3)
def test_block_walk_is_one_walk_under_any_table_size(n, d):
    pool = _block_pool(n, d)
    walk = list(_block_multisets(pool, n))
    spanning = list(_block_multisets(pool, n, spanning=True))
    assert spanning == [multiset for multiset in walk if multiset[1] == n]
    for tail in (0, 1, n, n + 1):  # every prefix's completions read from its table, none, and between
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coprime_sums, "_TAIL", tail)
            assert list(_block_multisets(pool, n)) == walk, tail
            assert list(_block_multisets(pool, n, spanning=True)) == spanning, tail
            # No spanning group is empty, and every row uses exactly the variables its prefix leaves.
            groups = list(_block_groups(pool, n, spanning=True))
            assert all(rows and all(used + u == n for _, u, _ in rows) for _, used, _, rows in groups), tail
    # Restricted to used <= k, the walk is the walk in k variables, sum for sum.
    for k in range(1, n + 1):
        small = _block_pool(k, d)
        assert [(rank, used, [pool[i] for i in picked]) for rank, used, picked in walk if used <= k] == [
            (rank, used, [small[i] for i in picked]) for rank, used, picked in _block_multisets(small, k)
        ], k
    per_used = [1] + [0] * n
    for _, used, _ in walk:
        per_used[used] += 1
    assert multiset_counts(d, n) == shape_multiset_counts(n, d) == per_used


def filtered_spanning_groups(pool, n):
    """The spanning groups as a filter of the full walk's: each group keeps its rows on all n
    variables, a prefix alone only if it uses them all, and an emptied group is dropped."""
    groups = []
    for rank, used, picked, rows in _block_groups(pool, n):
        rows = [row for row in rows if row[1] == n - used]
        if rows:
            groups.append((rank, used, picked, rows))
    return groups


def test_spanning_groups_are_the_filtered_full_groups_under_any_table_size():
    # The spanning table holds only completions on exactly the variables
    # left, so its groups are the full walk's with every other row dropped:
    # the same prefixes, rows and order, with no table, budgets of 1, the
    # whole walk and more than it.
    for n in range(1, 16):
        for d in range(1, 10):
            pool = _block_pool(n, d)
            for tail in (0, 1, n, n + 1):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(coprime_sums, "_TAIL", tail)
                    assert list(_block_groups(pool, n, spanning=True)) == filtered_spanning_groups(pool, n), (n, d, tail)


def test_multiset_counts_equal_the_per_shape_passes():
    # Both ways of multiplying in one variable count's shapes run here:
    # passes where shapes[k] <= n // k, as at k = 1, and the series where
    # there are more, as at (n, d) = (12, 12), k = 3 (12 shapes).
    branches = set()
    for d in range(1, 13):
        for n in range(1, 41):
            shapes = _partition_counts([d], min(n, d))[d]
            branches |= {p > n // k for k, p in enumerate(shapes[1:], 1)}
            assert _multiset_counts(shapes, n) == shape_multiset_counts(n, d), (n, d)
    assert branches == {False, True}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), d=st.integers(1, 8))
def test_multiset_counts_equal_the_per_shape_passes_in_many_variables(n, d):
    assert multiset_counts(d, n) == shape_multiset_counts(n, d)


def test_wide_multiset_counts_take_well_under_a_second():
    # One pass per shape, 966,467 of them at d = 60, took 2.4 s on 2 shared vCPUs (Python 3.11).
    start = time.perf_counter()
    counts = multiset_counts(60, 60)
    assert time.perf_counter() - start < 1.0
    # x^60; 30 shapes on two variables, or two blocks x^60; 300 + 30 * 1 + 1 on three.
    assert counts[:4] == [1, 1, 31, 331]


@pytest.mark.parametrize("d", [3, 4])
def test_narrow_multiset_counts_in_many_variables_stay_fast(d):
    # Few shapes, many variables: one pass per shape took about 2 ms on 2
    # shared vCPUs (Python 3.11), where the Euler transform took about 0.7 s.
    shapes = _partition_counts([d], d)[d]
    start = time.perf_counter()
    counts = _multiset_counts(shapes, 3000)
    assert time.perf_counter() - start < 0.25
    assert counts == shape_multiset_counts(3000, d)


def test_enumerate_rejects_bad_args():
    with pytest.raises(UsageError):
        list(enumerate_coprime_sums(0, 3))


# ---------------------------------------------------------------------------
# maxima


@pytest.mark.parametrize("n, d, expected", [(4, 3, 6), (5, 3, 7), (6, 3, 9)])
def test_r_max_star_closed_form_values(n, d, expected):
    assert r_max_star(n, d) == expected
    assert r_max_star(n, d, "oracle") == expected


def test_r_max_star_oracle_5_4():
    assert r_max_star(5, 4, "oracle") == 10
    witness = max_rank_sum(5, 4, "oracle")
    assert witness.block_shapes() == ((1, 1, 2), (1, 3))
    assert sum_rank(witness) == 10


def test_r_max_star_past_d_matches_the_oracle():
    # n > d >= 4, where the closed forms below take one block of d variables per d.
    for (n, d), expected in (((5, 4), 10), ((6, 4), 12), ((10, 5), 32)):
        assert r_max_star(n, d) == r_max_star(n, d, "oracle") == expected
        assert max_rank_sum(n, d) == max_rank_sum(n, d, "oracle")


def test_r_max_star_modes_agree_where_both_apply():
    for n in range(1, 15):
        for d in range(1, 9):
            witness = max_rank_sum(n, d)
            assert witness == max_rank_sum(n, d, "oracle")
            assert r_max_star(n, d) == r_max_star(n, d, "oracle") == sum_rank(witness)


def test_r_max_star_builds_no_monomial(monkeypatch):
    # r_max_star reads each block's rank from its closed form. A size with
    # no copies at (30, 10^200) would still evaluate 2^(10^200 - 1).
    assert _top_sizes(30, 10**200) == {30: 1}
    cells = [(1, 1), (6, 1), (9, 4), (40, 12), (30, 10**200)]
    # At (30, 10^200), d >= n, so r_max_star is r_max.
    assert closed_form_r_max_star(30, 10**200) == r_max(30, 10**200)
    expected = [closed_form_r_max_star(n, d) if d > 1 else 1 for n, d in cells]
    built = []
    bind = Monomial._set

    def counting_set(self, *values):  # both the checked and the trusted route bind with _set
        built.append(values)
        bind(self, *values)

    monkeypatch.setattr(Monomial, "_set", counting_set)
    assert [r_max_star(n, d) for n, d in cells] == expected
    assert built == []


def test_r_max_star_keeps_the_known_closed_forms():
    # d >= n: a single monomial is best; d = 3: a pile of x*y^2 (and one z^3).
    for d in range(1, 41):
        for n in range(1, d + 1):
            assert r_max_star(n, d) == r_max(n, d)
    for n in range(2, 201):
        assert r_max_star(n, 3) == 3 * n // 2


def closed_form_r_max_star(n, d):
    """r_max_star(n, d) for d >= 2, as the r_max_star docstring states it."""
    if d == 2:
        return n
    if d == 3:
        return 3 * n // 2
    q, r = divmod(n, d)
    value = (q * 2 ** (d - 1) if q else 0) + (r_max(r, d) if r else 0)  # 2^(d - 1) only when it counts
    return value + 1 if d in (4, 5) and r == 1 and n > d else value


def test_r_max_star_matches_its_closed_forms():
    # best(b) does not depend on n, so one knapsack per d gives
    # _knapsack(n, d)[1](n) for every n up to d^2 + 2d.
    for d in range(2, 41):
        ns = range(1, d * d + 2 * d + 1)
        best = _knapsack(ns[-1], d)[1]
        assert [r_max_star(n, d) for n in ns] == [closed_form_r_max_star(n, d) for n in ns] == list(map(best, ns)), d
    assert r_max_star(9, 4) == closed_form_r_max_star(9, 4) == 2 * 8 + 1 + 1


# The block-size knapsack, the exact algorithm that r_max_star and max_rank_sum
# ran before _top_sizes: the oracle that the rule is compared against.
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


def full_knapsack(n, d):
    """The whole knapsack table: best[b] for every b <= n."""
    ranks = [0] + [r_max(k, d) for k in range(1, min(n, d) + 1)]
    best = [0]
    for b in range(1, n + 1):
        best.append(max(ranks[k] + best[b - k] for k in range(1, min(b, d) + 1)))
    return ranks, best


def test_knapsack_steps_down_to_the_full_table():
    # The table stops at (k - 1) * min(n, d); beyond it best steps down by k.
    for d in range(2, 41):
        top = 3 * d * d
        best = _knapsack(top, d)[1]
        assert [best(b) for b in range(top + 1)] == full_knapsack(top, d)[1], d
    # The witness is the full table's backtrack: the largest size that still leads to a maximum.
    for d in (2, 3, 4, 5, 6, 9, 16):
        ranks, best = full_knapsack(300, d)
        for n in range(1, 301):
            sizes, b = [], n
            while b:
                sizes.append(max(k for k in range(1, min(b, d) + 1) if ranks[k] + best[b - k] == best[b]))
                b -= sizes[-1]
            assert [block.nvars for block in max_rank_sum(n, d).blocks] == sizes, (n, d)
    assert r_max_star(10**9, 40) == closed_form_r_max_star(10**9, 40)


def backtrack_pick(ranks, best, d, b):
    """The largest block size that still leads to a maximum in b variables, trying every size."""
    return max(k for k in range(1, min(b, d) + 1) if ranks[k] + best(b - k) == best(b))


def backtrack_sizes(n, d):
    """The witness's block sizes by backtracking the knapsack one block at a time: the oracle for pick."""
    ranks, best, _ = _knapsack(n, d)
    sizes, b = [], n
    while b:
        sizes.append(backtrack_pick(ranks, best, d, b))
        b -= sizes[-1]
    return sizes


def test_knapsack_pick_is_the_backtrack_on_every_budget():
    # pick repeats with period step past top + d + step, where top = (step - 1) * d
    # and step <= d: budgets up to d^2 + 3d cross that window by at least a period.
    for d in range(2, 41):
        n = d * d + 3 * d
        ranks, best, pick = _knapsack(n, d)
        assert [pick(b) for b in range(1, n + 1)] == [backtrack_pick(ranks, best, d, b) for b in range(1, n + 1)], d
    # Budgets below d: the knapsack holds only min(n, d) block sizes.
    for n in range(1, 12):
        ranks, best, pick = _knapsack(n, 12)
        assert [pick(b) for b in range(1, n + 1)] == [backtrack_pick(ranks, best, 12, b) for b in range(1, n + 1)]


def flat_sizes(n, d):
    """_top_sizes(n, d) as one size per block, largest first."""
    return [k for k, copies in _top_sizes(n, d).items() for _ in range(copies)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(2, 60))
@example(10**5, 7)
@example(10**5, 40)
@example(10**5, 97)
@example(10**5, 200)
def test_max_rank_sum_is_the_knapsack_backtrack(n, d):
    sizes = backtrack_sizes(n, d)
    assert flat_sizes(n, d) == sizes
    witness = max_rank_sum(n, d)
    assert [block.nvars for block in witness.blocks] == sizes
    assert sum_rank(witness) == r_max_star(n, d) == sum(_partition_top(d, k) for k in sizes)


def test_top_sizes_at_d_3_4_5_are_the_knapsack_backtrack():
    # Both gain one block of step variables per step variables past the
    # knapsack's first step * (d + 1) budgets, so these budgets decide every n.
    for d in (3, 4, 5):
        for n in range(1, 3 * d * d + 2 * d + 1):
            assert flat_sizes(n, d) == backtrack_sizes(n, d), (n, d)


def test_top_sizes_list_no_size_without_copies():
    # A size listed with no copies still costs its rank: 2^(d - 1) for a block of d.
    for d in range(1, 13):
        for n in range(1, 100):
            sizes = _top_sizes(n, d)
            assert all(copies > 0 for copies in sizes.values()), (n, d)
            assert list(sizes) == sorted(sizes, reverse=True)
            assert sum(k * copies for k, copies in sizes.items()) == (1 if d == 1 else n)
    assert _top_sizes(3, 10**200) == {3: 1}


def block_ranks(d):
    """r[k] = _partition_top(d, k), the rank of the best block on k variables, with r[0] = 0."""
    return [0] + [_partition_top(d, k) for k in range(1, d + 1)]


def exchange_failures(d):
    """Which of _top_sizes' conditions (0), (i) and (ii) fail at degree d, each checked on every pair."""
    r = block_ranks(d)
    failed = set()
    if any(r[k] > r[k + 1] for k in range(d)):
        failed.add("0")
    if any(r[a] + r[b] > r[a + b] for a in range(1, d) for b in range(1, min(a, d - a) + 1)):
        failed.add("i")
    if any(r[a] + r[b] > r[d] + r[a + b - d] for a in range(1, d) for b in range(d - a + 1, a + 1)):
        failed.add("ii")
    return failed


def test_the_exchange_conditions_fail_only_at_d_3_4_5():
    # The proof covers d >= 11; these cells are what it leans on for d <= 10.
    assert {d: exchange_failures(d) for d in range(2, 11)} == {
        d: {"ii"} if d in (3, 4, 5) else set() for d in range(2, 11)
    }
    assert [d for d in range(2, 201) if exchange_failures(d)] == [3, 4, 5]


def test_block_ranks_grow_by_a_third_and_are_powers_of_three_quarters_past_half():
    for d in range(2, 201):
        r = block_ranks(d)
        assert all(3 * r[k + 1] >= 4 * r[k] for k in range(1, d)), d  # L1
        for k in range(-(-(d + 1) // 2), d + 1):  # L2: 2k >= d + 1
            assert r[k] * 4 ** (d - k) == 2 ** (d - 1) * 3 ** (d - k), (k, d)


def test_max_rank_sum_builds_a_wide_witness_fast():
    # Backtracking 25,000 blocks, each trying 40 sizes, took 0.9 s on 2 shared vCPUs (Python 3.11).
    start = time.perf_counter()
    witness = max_rank_sum(10**6, 40)
    assert time.perf_counter() - start < 0.5
    assert len(witness.blocks) == 25_000


def test_r_max_star_oracle_dominates_r_max():
    for n in range(1, 9):
        for d in range(1, 9):
            assert r_max_star(n, d, "oracle") >= r_max(n, d)


def test_max_rank_sum_rejects_an_unknown_mode():
    with pytest.raises(UsageError, match="^unknown mode 'bogus'; expected closed_form or oracle$"):
        max_rank_sum(4, 3, "bogus")


def test_max_rank_sum_witness_matches_value():
    for n, d in ((4, 3), (5, 3), (8, 3), (4, 4), (6, 6), (5, 4), (6, 5)):
        witness = max_rank_sum(n, d)
        assert witness.ambient_vars == n
        assert sum_rank(witness) == r_max_star(n, d)
    assert max_rank_sum(6, 6).block_shapes() == ((1, 1, 1, 1, 1, 1),)
    assert max_rank_sum(6, 3).block_shapes() == ((1, 2), (1, 2), (1, 2))
    # The first maximum takes the larger block x*y*z before the x*y^2 pile.
    assert max_rank_sum(7, 3).block_shapes() == ((1, 1, 1), (1, 2), (1, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 7))
def test_max_rank_sum_oracle_is_first_maximum(n, d):
    listed = list(enumerate_coprime_sums(n, d))
    ranks = [sum_rank(f) for f in listed]
    witness = max_rank_sum(n, d, "oracle")
    assert witness == listed[ranks.index(max(ranks))]
    assert max_rank_sum(n, d) == witness
    assert sum_rank(witness) == r_max_star(n, d, "oracle")


def test_cube_block_normalization_preserves_rank_and_vars():
    # A product of three variables can be traded for x*y^2 + z^3: 4 = 3 + 1.
    before = make_sum([[1, 1, 1], [1, 1, 1]], ambient_vars=6)
    after = make_sum([[1, 1, 1], [1, 2], [3]], ambient_vars=6)
    assert sum_rank(before) == sum_rank(after) == 8
    assert before.vars_used == after.vars_used == 6
    assert waring_rank(Monomial((1, 1, 1), 3)) == sum_rank(make_sum([[1, 2], [3]]))


def test_linear_bound_for_n_above_d():
    # The n-limit argument: r_max_star(n, d) <= n * 2^(d-1) / d for d >= 4.
    for d in range(4, 41):
        for point in ratio_decay_fixed_d(d, 300)[1:]:
            assert point.ratio * generic_rank(point.n, d) * d <= point.n * 2 ** (d - 1)
    # It needs d >= 4: x*y^2 has rank 3 > 2 * 2^2 / 3.
    assert r_max_star(2, 3) * 3 > 2 * 2 ** 2


# ---------------------------------------------------------------------------
# greedy construction


def test_greedy_paper_examples():
    g = greedy_construction(4, 3)
    assert g.block_shapes() == ((1, 1, 1), (3,))
    assert sum_rank(g) == 5

    g = greedy_construction(5, 4)
    assert g.block_shapes() == ((1, 1, 1, 1), (4,))
    assert sum_rank(g) == 9

    g = greedy_construction(6, 5)
    assert g.block_shapes() == ((1, 1, 1, 1, 1), (5,))
    assert sum_rank(g) == 17


def test_greedy_suboptimal_at_cited_cases():
    for (n, d), greedy_rank, best in (((4, 3), 5, 6), ((5, 4), 9, 10), ((6, 5), 17, 18)):
        assert sum_rank(greedy_construction(n, d)) == greedy_rank
        assert r_max_star(n, d, "oracle") == best
        assert greedy_rank < best


def test_greedy_non_greedy_witness_6_5():
    best = max_rank_sum(6, 5, "oracle")
    assert best.block_shapes() == ((1, 2, 2), (1, 2, 2))
    assert sum_rank(best) == 18


def test_greedy_optimal_when_d_at_least_n():
    for n in range(1, 7):
        for d in range(max(n, 2), 9):
            assert sum_rank(greedy_construction(n, d)) == r_max_star(n, d)


def test_greedy_can_be_suboptimal_beyond_cited_cases():
    # (6, 3): two products of three variables give 8, but 3n/2 = 9.
    assert sum_rank(greedy_construction(6, 3)) == 8
    assert r_max_star(6, 3) == 9
    # (8, 4): two squarefree blocks meet the linear bound, so greedy is best.
    assert sum_rank(greedy_construction(8, 4)) == 16
    assert r_max_star(8, 4, "oracle") == 16


def test_greedy_is_the_maximum_but_at_d_3_and_one_past_a_multiple_at_d_4_5():
    for d in range(2, 13):
        for n in range(1, 200):
            short = d == 3 and n not in (1, 2, 3, 5) or d in (4, 5) and n % d == 1 and n > d
            greedy = greedy_construction(n, d)
            assert (greedy != max_rank_sum(n, d)) == (sum_rank(greedy) < r_max_star(n, d)) == short, (n, d)


def test_greedy_rejects_bad_args():
    with pytest.raises(UsageError):
        greedy_construction(0, 3)
    with pytest.raises(UsageError):
        greedy_construction(4, 1)


def test_greedy_is_its_shapes_made_canonical():
    # The squarefree blocks come first and the remainder, on fewer than d
    # variables, last: already canonical, so no sort is needed.
    for n in range(1, 80):
        for d in range(2, 14):
            g = greedy_construction(n, d)
            shapes = [(1,) * d] * (n // d) + ([max_rank_monomial(n % d, d).exponents] if n % d else [])
            assert g == make_sum(shapes, n) == CoprimeSum(g.blocks, n)


# ---------------------------------------------------------------------------
# trusted construction: waring's own walks build past the public checks


def rechecked(obj):
    """obj passed again through the public constructors, every check run."""
    if isinstance(obj, Monomial):
        return Monomial(obj.exponents, obj.ambient_vars)
    return CoprimeSum(tuple(Monomial(b.exponents, b.nvars) for b in obj.blocks), obj.ambient_vars)


def assert_as_if_checked(objects):
    """Each object equals its rechecked self, with the same fields, hash, repr and pickle round trip."""
    count = 0
    for obj in objects:
        checked = rechecked(obj)
        assert checked == obj
        assert list(vars(checked).items()) == list(vars(obj).items())
        assert hash(checked) == hash(obj)
        assert repr(checked) == repr(obj)
        assert pickle.loads(pickle.dumps(obj)) == obj == pickle.loads(pickle.dumps(checked))
        if isinstance(obj, Monomial):
            assert pickle.dumps(obj) == pickle.dumps(checked)
        count += 1
    assert count


def test_every_trusted_route_builds_what_the_public_constructors_accept():
    for n in range(1, 9):
        for d in range(1, 9):
            monomials = list(enumerate_monomials(n, d))
            assert_as_if_checked(monomials)
            assert_as_if_checked(canonicalize(m.exponents[::-1] + (0,) * (n - m.nvars), n) for m in monomials)
            assert_as_if_checked(max_rank_monomial(n, d, mode) for mode in ("closed_form", "oracle"))
            for spanning in (False, True):
                sums = list(enumerate_coprime_sums(n, d, spanning))
                if sums:
                    assert_as_if_checked(sums)
                    assert_as_if_checked(make_sum([b.exponents[::-1] for b in f.blocks[::-1]], n) for f in sums)
            assert_as_if_checked(max_rank_sum(n, d, mode) for mode in ("closed_form", "oracle"))
            if d >= 2:
                assert_as_if_checked([greedy_construction(n, d)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 40))
@example(10**5, 40)
@example(79, 13)
def test_trusted_witnesses_in_many_variables_pass_the_public_constructors(n, d):
    witnesses = [max_rank_monomial(n, d), max_rank_sum(n, d)]
    if d >= 2:
        witnesses.append(greedy_construction(n, d))
    assert_as_if_checked(witnesses)


def test_waring_builds_through_the_public_constructors_only_for_user_input(monkeypatch):
    checked = []
    for cls in (Monomial, CoprimeSum):
        def counting_init(self, *args, _init=cls.__init__):
            checked.append(args)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    assert len(list(enumerate_monomials(6, 8))) == 20
    assert len(list(enumerate_coprime_sums(6, 4))) == predicted_walk(4, 6)
    assert max_rank_sum(10**5, 40).vars_used == 10**5
    assert greedy_construction(50, 7).vars_used == 50
    report = verify_claim("theorem-coprime", (4, 6), (3, 4))
    assert report.status == STATUS_PASS_WITH_EXPECTED and report.violations
    assert checked == []
    make_sum([[1, 2], [3]])
    assert checked
