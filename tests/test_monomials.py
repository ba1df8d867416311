import random

import pytest
from hypothesis import given, settings, strategies as st

from waring.errors import DegenerateInputError, DimensionError, UsageError
from waring.monomials import (
    Monomial,
    canonicalize,
    enumerate_monomials,
    max_rank_monomial,
    partitions,
    r_max,
    waring_rank,
)


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
            assert len(list(enumerate_monomials(n, d))) == partition_count(d, n)


def test_partitions_descending_lex_order():
    for d, k in ((6, 6), (9, 4), (12, 3)):
        parts = list(partitions(d, k))
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(0, 18),
    max_parts=st.integers(0, 8),
    max_part=st.none() | st.integers(0, 20),
)
def test_partitions_equal_brute_force_in_descending_lex_order(d, max_parts, max_part):
    got = list(partitions(d, max_parts, max_part))
    cap = d if max_part is None else max_part
    expected = sorted(
        (p for p in brute_partitions(d, max_parts) if not p or p[0] <= cap),
        reverse=True,
    )
    assert got == expected
    if max_part is None:
        assert len(got) == partition_count(d, max_parts)


def test_enumerate_rejects_bad_args():
    with pytest.raises(UsageError):
        list(enumerate_monomials(0, 3))
    with pytest.raises(UsageError):
        list(enumerate_monomials(3, 0))


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
    with pytest.raises(DegenerateInputError):
        max_rank_monomial(3, 0)
    with pytest.raises(ValueError):
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
