"""Exception types shared across the toolkit, and its one (n, d) domain check.

All of these subclass ValueError so callers that do not care about the
distinction can catch one thing; the CLI maps any of them to exit code 2.
"""


class DegenerateInputError(ValueError):
    """Input denotes no monomial at all (for example, every exponent is zero)."""


class DimensionError(ValueError):
    """More variables are used than the ambient space provides."""


class UsageError(ValueError):
    """Malformed argument or a range violating an operation's precondition."""


def check_cell(caller: str, n: int, d: int, min_n: int = 1, min_d: int = 1) -> None:
    """Reject n < min_n or d < min_d with a usage error that names the caller."""
    if n < min_n or d < min_d:
        raise UsageError(f"{caller} needs n >= {min_n} and d >= {min_d}, got ({n}, {d})")
