"""Exception types shared across the toolkit.

All of these subclass ValueError so callers that do not care about the
distinction can catch one thing; the CLI maps any of them to exit code 2.
"""


class DegenerateInputError(ValueError):
    """Input denotes no monomial at all (for example, every exponent is zero)."""


class DimensionError(ValueError):
    """More variables are used than the ambient space provides."""


class UsageError(ValueError):
    """Malformed argument or a range violating an operation's precondition."""
