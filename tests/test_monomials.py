import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from waring import monomials
from waring.errors import DegenerateInputError, DimensionError, UsageError
from waring.monomials import (
    _TAIL,
    _TAILS,
    Monomial,
    _partition_counts,
    _ranked_partitions,
    canonicalize,
    enumerate_monomials,
    max_rank_monomial,
    partitions,
    r_max,
    waring_rank,
)


def predicted_walk(d, n):
    """The partitions _ranked_partitions(d, n) walks, counted per number of parts, without walking."""
    return sum(_partition_counts([d], min(n, d))[d])


def column_partition_counts(d, slots):
    """counts[k], 0 <= k <= slots <= d: the partitions of d into exactly k parts, one degree at a time.

    Less one in each part, those are the partitions of d - k into at most
    k parts, or by conjugation into parts of at most k: ways[t] counts the
    partitions of t into parts of at most k, and allowing parts of k adds
    ways[t - k] to each ways[t], in increasing t.
    """
    ways = [1] * d  # parts of at most 1: one partition of each t < d
    counts = [int(d == 0), 1][: slots + 1]  # no parts only for d = 0; one part, d itself
    for k in range(2, slots + 1):
        for t in range(k, d - k + 1):
            ways[t] += ways[t - k]
        counts.append(ways[d - k])
    return counts


def brute_partitions(d, max_parts):
    """Independent recursive partition enumeration (nonincreasing tuples)."""
    result = set()

    def go(remaining, cap, acc):
        if remaining == 0:
            result.add(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for part in range(min(cap, remaining), 0, -1):
            go(remaining - part, part, acc + [part])

    go(d, d, [])
    return result


def partition_count(d, n):
    """Independent count of partitions of d into at most n parts,
    via the recurrence p(d, n) = p(d-n, n) + p(d, n-1)."""
    cache = {}

    def p(d_, n_):
        if d_ == 0:
            return 1
        if d_ < 0 or n_ == 0:
            return 0
        key = (d_, n_)
        if key not in cache:
            cache[key] = p(d_ - n_, n_) + p(d_, n_ - 1)
        return cache[key]

    return p(d, n)


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_drops_zeros_and_sorts():
    m = canonicalize([0, 2, 1, 0], 4)
    assert m.exponents == (1, 2)
    assert m.ambient_vars == 4
    assert m.degree == 3
    assert m.nvars == 2


def test_canonicalize_already_canonical():
    m = canonicalize([1, 1, 1, 1], 4)
    assert m.exponents == (1, 1, 1, 1)


def test_canonicalize_permutation_and_padding_agree():
    assert canonicalize([3, 1], 4) == canonicalize([1, 0, 3, 0], 4)


def test_canonicalize_default_ambient_is_slot_count():
    assert canonicalize([0, 2, 1, 0]).ambient_vars == 4


def test_canonicalize_rejects_all_zero():
    with pytest.raises(DegenerateInputError):
        canonicalize([0, 0], 2)


def test_canonicalize_rejects_too_many_slots():
    with pytest.raises(DimensionError):
        canonicalize([1, 1, 1], 2)


def test_canonicalize_rejects_negative():
    with pytest.raises(ValueError):
        canonicalize([2, -1], 2)


def test_monomial_invariants_enforced():
    with pytest.raises(ValueError):
        Monomial((2, 1), 2)  # not ascending
    with pytest.raises(DimensionError):
        Monomial((1, 1, 1), 2)
    with pytest.raises(DegenerateInputError):
        Monomial((), 2)


def test_permutation_invariance_randomized():
    rng = random.Random(424)
    for _ in range(200):
        k = rng.randrange(1, 6)
        exps = [rng.randrange(1, 7) for _ in range(k)]
        n = k + rng.randrange(0, 4)
        padded = exps + [0] * (n - k)
        rng.shuffle(padded)
        m = canonicalize(padded, n)
        assert m == canonicalize(exps, n)
        assert waring_rank(m) == waring_rank(canonicalize(sorted(exps), n))


# ---------------------------------------------------------------------------
# rank formula


@pytest.mark.parametrize(
    "exponents, rank",
    [
        ((1, 1), 2),      # xy
        ((1, 1, 1), 4),   # xyz
        ((1, 1, 2), 6),
        ((1, 3), 4),
        ((2, 2), 3),
        ((4,), 1),
        ((1, 2), 3),
        ((1, 2, 2), 9),
    ],
)
def test_waring_rank_values(exponents, rank):
    assert waring_rank(Monomial(exponents, len(exponents))) == rank


def test_waring_rank_ignores_ambient_padding():
    assert waring_rank(Monomial((1, 1, 1), 5)) == 4


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts_for_table_cells():
    assert len(list(enumerate_monomials(4, 4))) == 5
    assert len(list(enumerate_monomials(5, 3))) == 3


def test_enumerate_small_golden_order():
    got = [m.exponents for m in enumerate_monomials(2, 3)]
    assert got == [(3,), (1, 2)]
    got = [m.exponents for m in enumerate_monomials(4, 4)]
    assert got == [(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]


def test_enumerate_matches_independent_partition_set():
    for n in range(1, 7):
        for d in range(1, 13):
            got = {m.exponents for m in enumerate_monomials(n, d)}
            expected = {tuple(reversed(p)) for p in brute_partitions(d, n)}
            assert got == expected


def test_enumerate_count_matches_recurrence():
    for n in range(1, 9):
        for d in range(1, 21):
            assert len(list(enumerate_monomials(n, d))) == partition_count(d, n) == predicted_walk(d, n)


def test_grid_partition_counts_equal_the_per_column_recurrence():
    for slots in range(0, 26):
        counts = _partition_counts(range(61), slots)
        assert counts == {d: column_partition_counts(d, min(slots, d)) for d in range(61)}, slots


@settings(max_examples=60, deadline=None)
@given(degrees=st.sets(st.integers(0, 300), min_size=1, max_size=8), slots=st.integers(0, 60))
def test_grid_partition_counts_hold_each_degree_of_any_grid(degrees, slots):
    counts = _partition_counts(sorted(degrees, reverse=True), slots)
    assert counts == {d: column_partition_counts(d, min(slots, d)) for d in degrees}


def test_partitions_descending_lex_order():
    for d, k in ((6, 6), (9, 4), (12, 3)):
        parts = list(partitions(d, k))
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(0, 18), max_parts=st.integers(0, 8))
# Around _TAIL: read whole from the table, one level above it, and levels
# two or more deep; max_parts 1 ends every prefix on a remainder of 0.
@example(d=_TAIL, max_parts=12)
@example(d=_TAIL + 1, max_parts=1)
@example(d=_TAIL + 1, max_parts=12)
@example(d=2 * _TAIL + 1, max_parts=2)
@example(d=2 * _TAIL + 1, max_parts=3)
@example(d=3 * _TAIL + 2, max_parts=3)
@example(d=3 * _TAIL + 2, max_parts=12)
def test_partitions_equal_brute_force_in_descending_lex_order(d, max_parts):
    got = list(partitions(d, max_parts))
    assert got == sorted(brute_partitions(d, max_parts), reverse=True)
    assert len(got) == partition_count(d, max_parts) == predicted_walk(d, max_parts)
    ranked = list(_ranked_partitions(d, max_parts))
    # The walk yields the same partitions in the same order, smallest part first.
    assert [exponents[::-1] for _, _, exponents in ranked] == got
    for rank, used, exponents in ranked:
        assert used == len(exponents)
        assert list(exponents) == sorted(exponents)
        if exponents:
            assert rank == waring_rank(Monomial(exponents, max_parts))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 24), n=st.integers(1, 10))
@example(d=6, n=3)
@example(d=40, n=10)  # the monomial acceptance grid's widest column
def test_partition_walk_is_the_same_for_every_tail_table(d, n):
    walk = list(_ranked_partitions(d, n))
    # Rests read whole from the tail table, never, and around n and d, in a
    # table of their own.
    for tail in (0, 1, n, n + 1, d):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monomials, "_TAIL", tail)
            patch.setattr(monomials, "_TAILS", monomials._Table(monomials._tail_rows))
            assert list(_ranked_partitions(d, n)) == walk, tail


def test_walk_streams_and_its_tail_table_stays_bounded():
    tracemalloc.start()
    try:
        head = list(islice(_ranked_partitions(10**6, 3), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[0] == (1, 1, (10**6,)) and len(head) == 1000
    assert peak < 1_000_000
    for d in range(2, 41):  # the walks of the monomial acceptance grid
        for _ in _ranked_partitions(d, 10):
            pass
    assert all(s <= _TAIL and cap <= s and slots <= s for s, cap, slots in _TAILS)


def test_enumerate_rejects_bad_args():
    with pytest.raises(UsageError):
        list(enumerate_monomials(0, 3))
    with pytest.raises(UsageError):
        list(enumerate_monomials(3, 0))
    for d, max_parts in ((-1, 3), (-5, 2), (0, -2)):
        with pytest.raises(UsageError, match="partitions"):
            partitions(d, max_parts)


# ---------------------------------------------------------------------------
# max-rank construction


def test_max_rank_monomial_examples():
    m = max_rank_monomial(4, 4)
    assert m.exponents == (1, 1, 1, 1)
    assert waring_rank(m) == 8

    m = max_rank_monomial(3, 5)
    assert m.exponents == (1, 2, 2)
    assert waring_rank(m) == 9

    m = max_rank_monomial(5, 3)
    assert m.exponents == (1, 1, 1)
    assert m.ambient_vars == 5
    assert waring_rank(m) == 4


def test_max_rank_monomial_square_case_all_ones():
    for d in range(2, 13):
        m = max_rank_monomial(d, d)
        assert m.exponents == (1,) * d
        assert waring_rank(m) == 2 ** (d - 1)


def test_max_rank_monomial_single_variable():
    assert max_rank_monomial(1, 7).exponents == (7,)
    assert max_rank_monomial(4, 1).exponents == (1,)


def test_max_rank_monomial_rejects_degenerate():
    with pytest.raises(UsageError):
        max_rank_monomial(3, 0)
    with pytest.raises(UsageError):
        max_rank_monomial(0, 3)


def test_max_rank_witness_has_unit_exponent():
    for n in range(2, 21):
        for d in range(2, 21):
            assert max_rank_monomial(n, d).exponents[0] == 1


def test_r_max_modes_agree_on_grid():
    for n in range(1, 7):
        for d in range(2, 21):
            assert r_max(n, d) == r_max(n, d, "oracle")


@pytest.mark.parametrize(
    "n, d, expected",
    [(4, 4, 8), (4, 3, 4), (3, 5, 9), (6, 5, 16), (5, 3, 4)],
)
def test_r_max_values(n, d, expected):
    assert r_max(n, d) == expected
    assert r_max(n, d, "oracle") == expected


def test_r_max_against_independent_brute_force():
    def block_rank(parts):  # nonincreasing tuple; drop the smallest factor
        r = 1
        for p in parts[:-1]:
            r *= p + 1
        return r

    for n in range(1, 6):
        for d in range(2, 13):
            expected = max(block_rank(p) for p in brute_partitions(d, n))
            assert r_max(n, d) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 14))
def test_max_rank_monomial_oracle_is_first_maximum(n, d):
    listed = list(enumerate_monomials(n, d))
    ranks = [waring_rank(m) for m in listed]
    witness = max_rank_monomial(n, d, "oracle")
    assert witness == listed[ranks.index(max(ranks))]
    assert waring_rank(witness) == r_max(n, d)


def test_r_max_rejects_bad_mode():
    with pytest.raises(UsageError):
        r_max(3, 3, "guess")


# ---------------------------------------------------------------------------
# arithmetic-geometric mean bound


def test_agm_bound_on_every_enumerated_monomial():
    for n in range(2, 7):
        for d in range(2, 13):
            bound = (d + n - 2) ** (n - 1)
            for m in enumerate_monomials(n, d):
                assert waring_rank(m) * (n - 1) ** (n - 1) <= bound


def test_label_rendering():
    assert Monomial((1, 1, 2), 4).label() == "x1*x2*x3^2"
    assert Monomial((3,), 1).label() == "x1^3"
    assert Monomial((1, 2), 2).label(first_var=3) == "x3*x4^2"
