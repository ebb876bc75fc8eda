"""Exact Laurent polynomials in one variable q over the rationals, and Q(q).

Everything downstream works over Z[q, q^-1] tensored with Q, so the
coefficient type has to support negative exponents (q is a unit) and
exact arithmetic.  A coefficient is stored as a Python `int` when it is
integral and as a `fractions.Fraction` otherwise, so the common integral
case never pays for `Fraction` arithmetic; either way it is exact, and
floats are refused.  Terms with coefficient zero are never stored.

The same type, with no negative exponents, holds the polynomials in q:
division with remainder and the gcd are written once here, and
RationalFunction, the field Q(q) of the symbolic commutant, is a
reduced fraction of two of them.

>>> p = Q + 1
>>> p * p
LaurentPoly({0: Fraction(1, 1), 1: Fraction(2, 1), 2: Fraction(1, 1)})
>>> (Q ** -1 * p).evaluate(Fraction(2))
Fraction(3, 2)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    'LaurentPoly',
    'ZeroSpecialization',
    'Q',
    'ONE',
    'ZERO',
    'lp',
    'RationalFunction',
]

Scalar = Union[int, Fraction]


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


def _demote(c: Scalar) -> Scalar:
    """A nonzero result of exact arithmetic, with an integral Fraction made an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class LaurentPoly:
    """Immutable sparse Laurent polynomial sum_e c_e q^e with c_e in Q."""

    __slots__ = ('_terms', '_hash')

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if hasattr(terms, 'items') else terms
        acc: dict[int, Scalar] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + _exact(c)
        self._terms = _normal_terms(acc)
        self._hash = None

    @classmethod
    def _make(cls, terms: tuple[tuple[int, Scalar], ...]) -> LaurentPoly:
        """Wrap terms that are already sorted, nonzero and int-when-integral."""
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @property
    def terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Sorted (exponent, coefficient) pairs, no zero coefficients.

        A coefficient is an `int` when integral and a `Fraction` otherwise.
        """
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == _constant_terms(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._terms)
        return self._hash

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            terms = other._terms
        elif isinstance(other, (int, Fraction)):
            terms = _constant_terms(other)
        else:
            return NotImplemented
        if not self._terms:
            return other if isinstance(other, LaurentPoly) else LaurentPoly._make(terms)
        if not terms:
            return self
        acc = dict(self._terms)
        for e, c in terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._make(_normal_terms(acc))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make(tuple([(e, -c) for e, c in self._terms]))

    def __sub__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> LaurentPoly:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            a, b = self._terms, other._terms
        elif isinstance(other, (int, Fraction)):
            a, b = self._terms, _constant_terms(other)
        else:
            return NotImplemented
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        if len(a) == 1:
            # a monomial: no cancellation, and the order of b is kept
            e1, c1 = a[0]
            if c1 == 1:
                return LaurentPoly._make(tuple([(e1 + e2, c2) for e2, c2 in b]))
            return LaurentPoly._make(tuple([(e1 + e2, _demote(c1 * c2)) for e2, c2 in b]))
        acc: dict[int, Scalar] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly._make(_normal_terms(acc))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int):
            return NotImplemented
        if len(self._terms) == 1:
            e, c = self._terms[0]
            # a negative power of an int would be a float: go through Fraction
            return LaurentPoly._make(((e * k, _demote(Fraction(c) ** k if k < 0 else c ** k)),))
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
        out = Fraction(0)
        for e, c in self._terms:
            out += c * q0 ** e
        return out

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError('zero polynomial has no exponents')
        return self._terms[0][0]

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError('zero polynomial has no exponents')
        return self._terms[-1][0]

    def coefficient(self, e: int) -> Fraction:
        for e1, c in self._terms:
            if e1 == e:
                return Fraction(c)
        return Fraction(0)

    def to_json(self) -> list[list]:
        """Encode as [[exponent, "num", "den"], ...] sorted by exponent."""
        return [[e, str(c.numerator), str(c.denominator)] for e, c in self._terms]

    @classmethod
    def from_json(cls, data: Iterable[Iterable]) -> LaurentPoly:
        return cls([(int(e), Fraction(int(num), int(den))) for e, num, den in data])

    def __repr__(self) -> str:
        return f'LaurentPoly({ {e: Fraction(c) for e, c in self._terms}!r})'

    def __str__(self) -> str:
        return _terms_str(self._terms)


def _normal_terms(acc: dict[int, Scalar]) -> tuple[tuple[int, Scalar], ...]:
    """Sorted nonzero terms of an exact accumulator, integral values as ints."""
    return tuple([(e, _demote(c)) for e, c in sorted(acc.items()) if c])


def _constant_terms(c: Scalar) -> tuple[tuple[int, Scalar], ...]:
    c = _exact(c)
    return ((0, c),) if c else ()


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


# ---------------------------------------------------------------------------
# polynomials in q (no negative exponents) and the field Q(q)

def _div(c: Scalar, d: Scalar) -> Scalar:
    """The exact quotient c / d for d != 0, an int when integral."""
    if type(c) is int and type(d) is int:
        return c // d if not c % d else Fraction(c, d)
    return _demote(Fraction(c) / d)


def _divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder of polynomials in q: a = quo b + rem, deg rem < deg b."""
    if not b:
        raise ZeroDivisionError('polynomial division by zero')
    *low, (eb, cb) = b._terms
    rem = dict(a._terms)
    quo = {}
    for e in range(a._terms[-1][0] if a else -1, eb - 1, -1):
        c = rem.pop(e, 0)
        if c:
            k = quo[e - eb] = _div(c, cb)
            for e2, c2 in low:
                rem[e - eb + e2] = rem.get(e - eb + e2, 0) - k * c2
    return LaurentPoly._make(_normal_terms(quo)), LaurentPoly._make(_normal_terms(rem))


def _gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The monic gcd of polynomials in q, zero if both are zero (Euclid's
    algorithm; Knuth, TAOCP vol. 2, 4.6.1)."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return a * _div(1, a._terms[-1][1]) if a else a


class RationalFunction:
    """An element of Q(q): num/den for polynomials num and den in q with no
    common factor and den monic, so equal elements have equal (num, den).

    The constructor takes coefficients, constant term first:
    RationalFunction((-1, 0, 1), (-1, 1)) is (q^2 - 1)/(q - 1) = q + 1.
    """

    __slots__ = ('num', 'den')

    def __init__(self, num: Iterable[Scalar], den: Iterable[Scalar] = (1,)):
        f = self._reduced(LaurentPoly(enumerate(num)), LaurentPoly(enumerate(den)))
        self.num, self.den = f.num, f.den

    @classmethod
    def _make(cls, num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
        """Wrap num/den that is already in lowest terms with den monic."""
        f = object.__new__(cls)
        f.num, f.den = num, den
        return f

    @classmethod
    def _reduced(cls, num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
        """num/den for polynomials num and den in q, brought to lowest terms."""
        if not den:
            raise ZeroDivisionError('zero denominator in Q(q)')
        if not num:
            return cls._make(ZERO, ONE)
        if den._terms[-1][0]:  # else den is a unit and num/den is reduced
            g = _gcd(num, den)
            num, den = _divmod(num, g)[0], _divmod(den, g)[0]
        lead = den._terms[-1][1]
        if lead != 1:
            inv = _div(1, lead)
            num, den = num * inv, den * inv
        return cls._make(num, den)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> RationalFunction:
        """p as num/q^k, k the order of its pole at 0 (so q does not divide num)."""
        shift = lp(1, max(0, -p.min_exponent()) if p else 0)
        return cls._make(p * shift, shift)

    @classmethod
    def constant(cls, c: Scalar) -> RationalFunction:
        return cls((c,))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == ONE and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: RationalFunction | Scalar) -> RationalFunction:
        other = self._coerce(other)
        return self._reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return self._make(-self.num, self.den)

    def __sub__(self, other: RationalFunction | Scalar) -> RationalFunction:
        return self + -self._coerce(other)

    def __rsub__(self, other: Scalar) -> RationalFunction:
        return self._coerce(other) - self

    def __mul__(self, other: RationalFunction | Scalar) -> RationalFunction:
        other = self._coerce(other)
        return self._reduced(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Scalar) -> RationalFunction:
        other = self._coerce(other)
        return self._reduced(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Scalar) -> RationalFunction:
        return self._coerce(other) / self

    @staticmethod
    def _coerce(x) -> RationalFunction:
        """x as an element of Q(q); a scalar that is not int or Fraction raises TypeError."""
        return x if isinstance(x, RationalFunction) else RationalFunction.constant(x)

    def __str__(self) -> str:
        top = _terms_str(reversed(self.num.terms))
        if self.den == ONE:
            return top
        bot = _terms_str(reversed(self.den.terms))
        if ' ' in top:
            top = f'({top})'
        if ' ' in bot or '/' in bot:
            bot = f'({bot})'
        return f'{top}/{bot}'

    def __repr__(self) -> str:
        return f'RationalFunction({self})'
