"""Gaussian binomials and multinomials, and the tensor space dimension.

The Gaussian multinomial for a composition lambda of n is the quotient
[n]_q! / prod [lambda_i]_q!, a polynomial in q that counts the cosets
of a parabolic subgroup weighted by length.  It is built here from the
Pascal style recurrence for Gaussian binomials, so no division ever
happens; at q = 1 it degenerates to the ordinary multinomial.

Summing hook multinomials weighted by Stirling numbers gives the
dimension of the span of the tensor action image; at q = 1 the sum
collapses to n^r, which the acceptance tests check.
"""

from __future__ import annotations

from functools import cache
from operator import add

from .coeff import LaurentPoly, ONE, Q, _normal
from .symcomb import Composition, stirling2

__all__ = ['gaussian_binomial', 'gaussian_multinomial', 'tq_dimension']


@cache
def gaussian_binomial(m: int, k: int) -> LaurentPoly:
    """The q-binomial coefficient [m choose k]_q.

    Built Pascal row by row, [j choose i] = [j-1 choose i-1] + q^i [j-1
    choose i], on integer coefficient lists, keeping of row j only the i
    that row m still needs, so the work is O(m k) list additions and no
    recursion depth grows with m.

    >>> print(gaussian_binomial(4, 2))
    1 + q + 2*q^2 + q^3 + q^4
    """
    if k < 0 or k > m:
        return LaurentPoly()
    k = min(k, m - k)  # [m choose k] = [m choose m-k]
    low, row = 0, [[1]]  # row j holds [j choose i] for i = low .. min(j, k)
    for j in range(1, m + 1):
        new_low = max(0, j - (m - k))
        new = []
        for i in range(new_low, min(j, k) + 1):
            left = row[i - 1 - low] if i > low else []  # [j-1 choose i-1]
            right = row[i - low] if i < j else []  # [j-1 choose i]
            out = left + [0] * (i + len(right) - len(left))
            out[i:i + len(right)] = map(add, out[i:i + len(right)], right)
            new.append(out)
        low, row = new_low, new
    return _normal(0, row[-1], 1)


def gaussian_multinomial(lam: Composition) -> LaurentPoly:
    """The q-multinomial [n; lambda]_q as an iterated product of q-binomials.

    Zero parts contribute a factor [m choose 0]_q = 1 and are harmless.
    """
    out = ONE
    total = 0
    for p in lam.parts:
        total += p
        out = out * gaussian_binomial(total, p)
    return out


def tq_dimension(n: int, r: int) -> LaurentPoly:
    """Sum of hook multinomials weighted by orbit counts.

    Equals sum_k s(r, k) [n; (n-k, 1^k)]_q over the hooks that fit; at
    q = 1 every orbit contributes its size and the total is n^r.
    """
    if n < 1 or r < 1:
        raise ValueError('need n >= 1 and r >= 1')
    out = LaurentPoly()
    for k in range(1, min(n, r) + 1):
        s = stirling2(r, k)
        if s:
            out = out + gaussian_multinomial(Composition.hook(n, k)) * s
    return out
