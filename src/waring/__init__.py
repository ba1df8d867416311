"""Exact Waring ranks of monomials and sums of pairwise coprime monomials.

Everything is computed in exact integer or rational arithmetic: monomial
ranks via the product formula over exponents, generic ranks with the five
exceptional families, maximum-rank constructions with brute-force oracles,
and exhaustive verification of the rank theorems over (n, d) grids.

Submodules load on first use of one of their names (PEP 562), so a caller
that needs only monomial ranks never imports the verification machinery.
"""

__version__ = "0.1.0"

# Each public name, listed once, under the submodule that defines it.
_EXPORTS = {
    "coprime_sums": (
        "CoprimeSum", "enumerate_coprime_sums", "greedy_construction", "make_sum",
        "max_rank_sum", "r_max_star", "sum_rank",
    ),
    "errors": ("DegenerateInputError", "DimensionError", "UsageError"),
    "exact_math": ("binomial", "ceil_div"),
    "monomials": (
        "MODE_CLOSED_FORM", "MODE_ORACLE", "Monomial", "canonicalize", "enumerate_monomials",
        "max_rank_monomial", "partitions", "r_max", "waring_rank",
    ),
    "rank_tables": (
        "BOUND_KINDS", "KnownExample", "RankRecord", "generic_rank", "known_examples",
        "upper_bounds",
    ),
    "verify": (
        "CLAIM_IDS", "CLAIMS", "EXPECTED_COPRIME_EXCEPTIONS", "RatioPoint",
        "VerificationReport", "Violation", "ratio_decay_fixed_d", "ratio_to_generic",
        "verify_claim", "verify_theorem_coprime", "verify_theorem_monomial",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the submodule that defines a public name, and cache the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
