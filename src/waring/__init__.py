"""Exact Waring ranks of monomials and sums of pairwise coprime monomials.

Everything is computed in exact integer or rational arithmetic: monomial
ranks via the product formula over exponents, generic ranks with the five
exceptional families, maximum-rank constructions with brute-force oracles,
and exhaustive verification of the rank theorems over (n, d) grids.
"""

from .coprime_sums import (
    CoprimeSum,
    enumerate_coprime_sums,
    greedy_construction,
    make_sum,
    max_rank_sum,
    r_max_star,
    sum_rank,
)
from .errors import DegenerateInputError, DimensionError, UsageError
from .exact_math import EQUAL, GREATER, LESS, binomial, ceil_div, ratio_compare
from .monomials import (
    MODE_CLOSED_FORM,
    MODE_ORACLE,
    Monomial,
    canonicalize,
    enumerate_monomials,
    max_rank_monomial,
    partitions,
    r_max,
    waring_rank,
)
from .rank_tables import (
    BOUND_KINDS,
    KnownExample,
    RankRecord,
    generic_rank,
    known_examples,
    upper_bounds,
)
from .verify import (
    CLAIM_IDS,
    CLAIMS,
    EXPECTED_COPRIME_EXCEPTIONS,
    RatioPoint,
    VerificationReport,
    Violation,
    ratio_decay_fixed_d,
    ratio_to_generic,
    verify_claim,
    verify_inequality_agm,
    verify_inequality_pure_power,
    verify_lemma_slope,
    verify_theorem_coprime,
    verify_theorem_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_KINDS",
    "CLAIMS",
    "CLAIM_IDS",
    "CoprimeSum",
    "DegenerateInputError",
    "DimensionError",
    "EQUAL",
    "EXPECTED_COPRIME_EXCEPTIONS",
    "GREATER",
    "KnownExample",
    "LESS",
    "MODE_CLOSED_FORM",
    "MODE_ORACLE",
    "Monomial",
    "RankRecord",
    "RatioPoint",
    "UsageError",
    "VerificationReport",
    "Violation",
    "binomial",
    "canonicalize",
    "ceil_div",
    "enumerate_coprime_sums",
    "enumerate_monomials",
    "generic_rank",
    "greedy_construction",
    "known_examples",
    "make_sum",
    "max_rank_monomial",
    "max_rank_sum",
    "partitions",
    "r_max",
    "r_max_star",
    "ratio_compare",
    "ratio_decay_fixed_d",
    "ratio_to_generic",
    "sum_rank",
    "upper_bounds",
    "verify_claim",
    "verify_inequality_agm",
    "verify_inequality_pure_power",
    "verify_lemma_slope",
    "verify_theorem_coprime",
    "verify_theorem_monomial",
    "waring_rank",
]
