"""Exact Laurent polynomials in one variable q over the rationals.

Everything downstream works over Z[q, q^-1] tensored with Q, so the
coefficient type has to support negative exponents (q is a unit) and
exact arithmetic.  A LaurentPoly is stored as q^lo (c_0 + c_1 q + ... +
c_k q^k) / den: a shift lo, a tuple c of ints with c_0 and c_k nonzero,
and a denominator den > 0 with gcd(den, c_0, ..., c_k) = 1 (the zero
polynomial is lo = 0, c = (), den = 1).  That form is canonical, so ==
and hash compare it field by field, and all arithmetic is on ints: a
product is one integer convolution and a gcd with the denominator, a
sum aligns the shifts over a common denominator, and evaluate is an
integer Horner scheme with one Fraction at the end.  The tuple is dense,
so memory and time grow with the span of the exponents, not with the
number of terms.  Floats are refused.  The public view, terms, is
built on demand: sorted (exponent, coefficient) pairs, a coefficient an
`int` when integral and a `fractions.Fraction` otherwise.

>>> p = Q + 1
>>> p * p
LaurentPoly({0: Fraction(1, 1), 1: Fraction(2, 1), 2: Fraction(1, 1)})
>>> (Q ** -1 * p).evaluate(Fraction(2))
Fraction(3, 2)
>>> LaurentPoly({-1: Fraction(1, 2), 1: 3}).integer_form()
(-1, (1, 0, 6), 2)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, index
from typing import Iterable, Mapping, Union

__all__ = [
    'LaurentPoly',
    'ZeroSpecialization',
    'Q',
    'ONE',
    'ZERO',
    'lp',
]

Scalar = Union[int, Fraction]

# The most consecutive exponents LaurentPoly.from_json accepts.
JSON_SPAN_LIMIT = 1 << 16


class ZeroSpecialization(ValueError):
    """Raised when a Laurent polynomial is evaluated at q = 0.

    q must specialize to a unit of the base ring; 0 never qualifies.
    """


def _exact(c: Scalar, what: str = 'Laurent coefficients') -> Scalar:
    """c as an int when integral, else as a Fraction; other types, floats
    among them, are refused with a TypeError naming what c is."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f'{what} are int or Fraction, not {type(c).__name__}')


def _exponent(e: int) -> int:
    """e as an int; an exponent of another type raises TypeError."""
    try:
        return index(e)
    except TypeError:
        raise TypeError(f'Laurent exponents are int, not {type(e).__name__}') from None


class LaurentPoly:
    """Immutable Laurent polynomial q^lo (c_0 + ... + c_k q^k) / den over Q,
    in the canonical form of the module docstring.

    c holds every exponent from the lowest to the highest, zeros
    included: q^0 + q^(10^6) stores a million ints.  from_json refuses
    such spans; the library itself only builds polynomials whose degrees
    are bounded by permutation lengths and Gaussian-binomial degrees.
    """

    __slots__ = ('_lo', '_c', '_den', '_hash')

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if hasattr(terms, 'items') else terms
        values: dict[int, Scalar] = {}
        for e, c in items:
            if type(c) is not int:
                c = _exact(c)
            if type(e) is not int:
                e = _exponent(e)
            if c:
                values[e] = values[e] + c if e in values else c
        if 0 in values.values():  # terms that cancelled
            values = {e: c for e, c in values.items() if c}
        self._hash = None
        if not values:
            self._lo, self._c, self._den = 0, (), 1
            return
        # den is the lcm of the reduced denominators: for each prime power
        # p^a exactly dividing den some coefficient has p^a in its
        # denominator, and its scaled numerator is prime to p, so the
        # content is coprime to den
        lo = min(values)
        den = lcm(*[c.denominator for c in values.values()])
        c = [0] * (max(values) - lo + 1)
        for e, x in values.items():
            c[e - lo] = x.numerator * (den // x.denominator)
        self._lo, self._c, self._den = lo, tuple(c), den

    def integer_form(self) -> tuple[int, tuple[int, ...], int]:
        """The canonical (lo, c, den) with self = q^lo sum_i c_i q^i / den:
        c a tuple of ints with both ends nonzero, den > 0 coprime to the
        content of c; (0, (), 1) for the zero polynomial."""
        return self._lo, self._c, self._den

    @property
    def terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Sorted (exponent, coefficient) pairs, no zero coefficients.

        A coefficient is an `int` when integral and a `Fraction` otherwise.
        """
        den = self._den
        if den == 1:
            return tuple([(e, x) for e, x in enumerate(self._c, self._lo) if x])
        return tuple([(e, x // den if not x % den else Fraction(x, den))
                      for e, x in enumerate(self._c, self._lo) if x])

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c and self._lo == other._lo and self._den == other._den
        if isinstance(other, (int, Fraction)):
            other = _exact(other)
            if not other:
                return not self._c
            return (self._lo == 0 and len(self._c) == 1 and self._c[0] == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._lo, self._c, self._den))
        return self._hash

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _constant(other)
        if not self._c:
            return other
        if not other._c:
            return self
        a, la, da = self._c, self._lo, self._den
        b, lb, db = other._c, other._lo, other._den
        den = da
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
            if sa != 1:
                a = [x * sa for x in a]
            if sb != 1:
                b = [x * sb for x in b]
        if la > lb:
            a, la, b, lb = b, lb, a, la
        off = lb - la
        out = [*a, *[0] * (off + len(b) - len(a))]
        out[off:off + len(b)] = map(add, out[off:off + len(b)], b)
        return _normal(la, out, den)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _make(self._lo, tuple([-x for x in self._c]), self._den)

    def __sub__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> LaurentPoly:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _constant(other)
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) > 1:
            c = _convolve(a, b)
        elif a[0] == 1:
            c = b
        else:
            x = a[0]
            c = [x * y for y in b]
        # the end coefficients are products of nonzero ints: no zero to strip
        return _coprime(self._lo + other._lo, c, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int):
            return NotImplemented
        if len(self._c) == 1:
            # a negative power goes through Fraction, never a float
            x = Fraction(self._c[0], self._den) ** k
            return _make(self._lo * k, (x.numerator,), x.denominator)
        if k < 0:
            raise ValueError('negative power of a non-monomial Laurent polynomial')
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, q0: Scalar) -> Fraction:
        """Specialize q to the nonzero rational q0, an int or a Fraction.

        >>> (Q**2 - 1).evaluate(Fraction(7, 5))
        Fraction(24, 25)
        """
        q0 = Fraction(_exact(q0, 'q values'))
        if not q0:
            raise ZeroSpecialization('q must specialize to a unit, got 0')
        c = self._c
        if not c:
            return Fraction(0)
        # Horner in p/s over the ints: num / s^k = sum_i c_i (p/s)^i
        p, s = q0.numerator, q0.denominator
        num, den = c[-1], self._den
        if s == 1:
            for x in c[-2::-1]:
                num = num * p + x
        else:
            t = 1
            for x in c[-2::-1]:
                t *= s
                num = num * p + x * t
            den *= t
        lo = self._lo
        if lo > 0:
            num *= p ** lo
            den *= s ** lo
        elif lo < 0:
            num *= s ** -lo
            den *= p ** -lo
        return Fraction(num, den)

    def min_exponent(self) -> int:
        if not self._c:
            raise ValueError('zero polynomial has no exponents')
        return self._lo

    def max_exponent(self) -> int:
        if not self._c:
            raise ValueError('zero polynomial has no exponents')
        return self._lo + len(self._c) - 1

    def coefficient(self, e: int) -> Fraction:
        i = e - self._lo
        if 0 <= i < len(self._c):
            return Fraction(self._c[i], self._den)
        return Fraction(0)

    def to_json(self) -> list[list]:
        """Encode as [[exponent, "num", "den"], ...] sorted by exponent."""
        return [[e, str(c.numerator), str(c.denominator)] for e, c in self.terms]

    @classmethod
    def from_json(cls, data: Iterable[Iterable]) -> LaurentPoly:
        """Decode the to_json form.

        The stored tuple is as long as the span of the exponents, so
        nonzero terms spanning more than JSON_SPAN_LIMIT exponents raise
        ValueError rather than allocating the gap.
        """
        terms = [(int(e), Fraction(int(num), int(den))) for e, num, den in data]
        exponents = [e for e, c in terms if c]
        if exponents and max(exponents) - min(exponents) >= JSON_SPAN_LIMIT:
            raise ValueError(f'Laurent polynomial spans exponents {min(exponents)} to '
                             f'{max(exponents)}, more than {JSON_SPAN_LIMIT} in a row')
        return cls(terms)

    def __repr__(self) -> str:
        return f'LaurentPoly({ {e: Fraction(c) for e, c in self.terms}!r})'

    def __str__(self) -> str:
        return _terms_str(self.terms)


_new = object.__new__


def _make(lo: int, c: tuple[int, ...], den: int) -> LaurentPoly:
    """Wrap a (lo, c, den) that is already canonical."""
    p = _new(LaurentPoly)
    p._lo, p._c, p._den, p._hash = lo, c, den, None
    return p


def _normal(lo: int, c: list[int], den: int) -> LaurentPoly:
    """q^lo c / den for any ints c and den > 0, brought to canonical form."""
    i, k = 0, len(c)
    while k and not c[k - 1]:
        k -= 1
    if not k:
        return ZERO
    while not c[i]:
        i += 1
    return _coprime(lo + i, c[i:k] if i or k < len(c) else c, den)


def _coprime(lo: int, c: list[int], den: int) -> LaurentPoly:
    """q^lo c / den for ints c with nonzero ends and den > 0, in canonical form."""
    if den != 1:
        g = gcd(den, *c)
        if g != 1:
            den //= g
            c = [x // g for x in c]
    return _make(lo, tuple(c), den)


def _constant(c: Scalar) -> LaurentPoly:
    c = _exact(c)
    return _make(0, (c.numerator,), c.denominator) if c else ZERO


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The coefficients of the product of the int polynomials a and b
    (constant first, len(a) <= len(b)), by the schoolbook double loop;
    a zero of a costs one test, so a gap in a is not multiplied out."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def lp(c: Scalar, e: int = 0) -> LaurentPoly:
    """Monomial c * q^e."""
    return LaurentPoly({e: c})


Q = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})
ZERO = LaurentPoly()


def _terms_str(terms: Iterable[tuple[int, Scalar]]) -> str:
    """Terms (e, c), in the order given, as 'c*q^e + ...'; '0' if there are none."""
    parts = []
    for e, c in terms:
        var = 'q' if e == 1 else f'q^{e}'
        parts.append(str(c) if e == 0 else var if c == 1 else f'-{var}' if c == -1 else f'{c}*{var}')
    return ' + '.join(parts).replace('+ -', '- ') if parts else '0'

