import pytest
from hypothesis import given, settings, strategies as st

from waring.coprime_sums import (
    CoprimeSum,
    _block_multisets,
    _block_pool,
    enumerate_coprime_sums,
    greedy_construction,
    make_sum,
    max_rank_sum,
    r_max_star,
    sum_rank,
)
from waring.errors import DimensionError, UnsupportedRegimeError, UsageError
from waring.monomials import Monomial, partitions, r_max, waring_rank


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


def test_additivity_across_enumerations():
    for n in range(1, 9):
        for d in range(1, 9):
            for f in enumerate_coprime_sums(n, d):
                assert sum_rank(f) == sum(waring_rank(b) for b in f.blocks)


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
def test_block_multisets_match_reference_and_enumeration(n, d, spanning):
    pool = _block_pool(n, d)
    picked = list(_block_multisets(pool, n, spanning))
    assert picked == recursive_multisets([b.nvars for b in pool], n, spanning)
    sums = list(enumerate_coprime_sums(n, d, spanning=spanning))
    assert [tuple(pool[i] for i in p) for p in picked] == [f.blocks for f in sums]


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


def test_r_max_star_closed_form_unsupported_regime():
    for n, d in ((5, 4), (6, 4), (10, 5)):
        with pytest.raises(UnsupportedRegimeError, match="oracle"):
            r_max_star(n, d)
        with pytest.raises(UnsupportedRegimeError, match="oracle"):
            max_rank_sum(n, d)


def test_r_max_star_modes_agree_where_both_apply():
    for n in range(1, 13):
        assert r_max_star(n, 3) == r_max_star(n, 3, "oracle")
    for n in range(4, 13):
        for d in range(n, 13):
            assert r_max_star(n, d) == r_max_star(n, d, "oracle")


def test_r_max_star_oracle_dominates_r_max():
    for n in range(1, 9):
        for d in range(1, 9):
            assert r_max_star(n, d, "oracle") >= r_max(n, d)


def test_max_rank_sum_witness_matches_value():
    for n, d in ((4, 3), (5, 3), (8, 3), (4, 4), (6, 6), (5, 4), (6, 5)):
        mode = "oracle" if (n > d >= 4) else "closed_form"
        witness = max_rank_sum(n, d, mode)
        assert witness.ambient_vars == n
        assert sum_rank(witness) == r_max_star(n, d, mode)
    # closed-form witnesses in both regimes
    assert max_rank_sum(6, 6).block_shapes() == ((1, 1, 1, 1, 1, 1),)
    assert max_rank_sum(6, 3).block_shapes() == ((1, 2), (1, 2), (1, 2))
    assert max_rank_sum(7, 3).block_shapes() == ((1, 2), (1, 2), (1, 2), (3,))


def test_cube_block_normalization_preserves_rank_and_vars():
    # A product of three variables can be traded for x*y^2 + z^3: 4 = 3 + 1.
    before = make_sum([[1, 1, 1], [1, 1, 1]], ambient_vars=6)
    after = make_sum([[1, 1, 1], [1, 2], [3]], ambient_vars=6)
    assert sum_rank(before) == sum_rank(after) == 8
    assert before.vars_used == after.vars_used == 6
    assert waring_rank(Monomial((1, 1, 1), 3)) == sum_rank(make_sum([[1, 2], [3]]))


def test_linear_bound_for_n_above_d():
    for d in range(4, 12):
        for n in range(d + 1, 13):
            assert r_max_star(n, d, "oracle") * d <= n * 2 ** (d - 1)


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


def test_greedy_rejects_bad_args():
    with pytest.raises(UsageError):
        greedy_construction(0, 3)
    with pytest.raises(UsageError):
        greedy_construction(4, 1)
