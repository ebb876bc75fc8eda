"""Resource guards shared by the library and the command line.

This module imports nothing, so the command line can refuse an input
before it loads any of the mathematics.
"""

__all__ = ['DimensionLimitExceeded']


class DimensionLimitExceeded(ValueError):
    """Raised when n^r exceeds the configured size guard."""


def _check_limit(n: int, r: int, limit: int) -> None:
    """Refuse more than limit basis vectors in V tensor r, or, since each
    has r letters, an r above limit (which only n = 1 would admit)."""
    if r > limit:
        raise DimensionLimitExceeded(f'r = {r} exceeds limit {limit}')
    # n >= 2 and r past the bit length of limit mean n^r > limit; n^r is
    # then not formed, since it may have billions of digits
    if n >= 2 and r > limit.bit_length():
        raise DimensionLimitExceeded(f'n^r = {n}^{r} exceeds limit {limit}')
    if n ** r > limit:
        raise DimensionLimitExceeded(f'n^r = {n ** r} exceeds limit {limit}')
