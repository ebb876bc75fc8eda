"""Ref, the dense Fraction model of Q(q) that the tests use as a field.

The library works over Z[q, q^-1] (coeff.LaurentPoly) and never divides
polynomials.  The tests that need the field Q(q), the symbolic
root-loop elimination on test_linalg.FieldEchelon among them, run on Ref:
num/den as dense tuples of Fraction coefficients, constant term first,
in lowest terms with den monic, with its own division, gcd and printer.
Ref shares no code with LaurentPoly, so each is checked against the
other here: from_laurent is a ring map into Q(q), Ref's division and gcd
are exact by LaurentPoly products, and the text the CLI prints for a
Laurent polynomial as an element of Q(q) is str of its Ref.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpartition.cli import _q_fraction
from qpartition.coeff import LaurentPoly


# ---------------------------------------------------------------------------
# the dense Fraction reference

def _field(c):
    """c as a Fraction; only int and Fraction are exact, so others raise TypeError."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise TypeError(f'Q(q) coefficients are int or Fraction, not {type(c).__name__}')


def _poly_trim(t):
    while t and not t[-1]:
        t.pop()
    return tuple(t)


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _poly_trim(out)


def _poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError('polynomial division by zero')
    a = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for top in range(len(a) - 1, len(b) - 2, -1):
        c = a[top] * inv
        if c:
            quo[top - len(b) + 1] = c
            for j, d in enumerate(b):
                a[top - len(b) + 1 + j] -= c * d
    return _poly_trim(quo), _poly_trim(a)


def _poly_gcd(a, b):
    while b:
        _, a = _poly_divmod(a, b)
        a, b = b, a
    if a:
        inv = 1 / a[-1]
        a = tuple(c * inv for c in a)
    return a


def _poly_str(p):
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = '' if c == 1 else '-' if c == -1 else f'{c}*'
            parts.append(f'{head}q' if e == 1 else f'{head}q^{e}')
    return ' + '.join(parts).replace('+ -', '- ') if parts else '0'


class Ref:
    """num/den as dense Fraction tuples in lowest terms, den monic.

    Scalars (int or Fraction) mix with it as constants, and compare equal
    to the constant they are.
    """

    def __init__(self, num, den=(1,)):
        num = _poly_trim([_field(c) for c in num])
        den = _poly_trim([_field(c) for c in den])
        if not den:
            raise ZeroDivisionError('zero denominator in Q(q)')
        g = _poly_gcd(num, den)
        if g and g != (Fraction(1),):
            num, _ = _poly_divmod(num, g)
            den, _ = _poly_divmod(den, g)
        inv = 1 / den[-1]
        self.num = tuple(c * inv for c in num)
        self.den = tuple(c * inv for c in den)

    @classmethod
    def from_laurent(cls, p):
        if p.is_zero():
            return cls(())
        shift = max(0, -p.min_exponent())
        coeffs = [Fraction(0)] * (p.max_exponent() + shift + 1)
        for e, c in p.terms:
            coeffs[e + shift] = c
        return cls(coeffs, [Fraction(0)] * shift + [Fraction(1)])

    @staticmethod
    def _coerce(o):
        return o if isinstance(o, Ref) else Ref((o,))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, o):
        o = self._coerce(o)
        return Ref(_poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
                   _poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Ref(tuple(-c for c in self.num), self.den)

    def __sub__(self, o):
        return self + -self._coerce(o)

    def __rsub__(self, o):
        return self._coerce(o) - self

    def __mul__(self, o):
        o = self._coerce(o)
        return Ref(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._coerce(o)
        return Ref(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __rtruediv__(self, o):
        return self._coerce(o) / self

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = Ref((o,))
        elif not isinstance(o, Ref):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __str__(self):
        top = _poly_str(self.num)
        if self.den == (Fraction(1),):
            return top
        bot = _poly_str(self.den)
        if ' ' in top:
            top = f'({top})'
        if ' ' in bot or '/' in bot:
            bot = f'({bot})'
        return f'{top}/{bot}'


def dense(p: LaurentPoly) -> tuple:
    """A polynomial in q as the reference's dense Fraction tuple."""
    out = [Fraction(0)] * (p.max_exponent() + 1 if p else 0)
    for e, c in p.terms:
        out[e] = Fraction(c)
    return tuple(out)


def poly(t) -> LaurentPoly:
    """A dense tuple, constant term first, as a LaurentPoly."""
    return LaurentPoly(enumerate(t))


# ---------------------------------------------------------------------------
# strategies: int, Fraction and zero coefficients, so gaps are common

scalars = st.one_of(st.integers(-4, 4), st.just(0),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))
coeffs = st.lists(scalars, max_size=5).map(tuple)
nonzero = coeffs.filter(any)
pairs = st.tuples(coeffs, nonzero)
laurents = st.dictionaries(st.integers(-4, 4), scalars, max_size=4).map(LaurentPoly)
polys = coeffs.map(poly)


@given(pairs)
@settings(max_examples=120, deadline=None)
def test_constructor_matches_reference(pair):
    # Ref(num, den) is num/den, by LaurentPoly cross-multiplication, in
    # lowest terms with a monic denominator
    num, den = pair
    x = Ref(num, den)
    assert poly(x.num) * poly(den) == poly(num) * poly(x.den)
    assert x.den[-1] == 1
    assert _poly_gcd(x.num, x.den) == (Fraction(1),) or not x.num and x.den == (1,)
    assert bool(x) == any(num)


@given(laurents, laurents)
@settings(max_examples=120, deadline=None)
def test_field_operations_match_reference(a, b):
    # from_laurent is a ring map from Z[q, q^-1] tensored with Q into Q(q)
    x, y = Ref.from_laurent(a), Ref.from_laurent(b)
    assert Ref.from_laurent(a + b) == x + y
    assert Ref.from_laurent(a - b) == x - y
    assert Ref.from_laurent(a * b) == x * y
    assert Ref.from_laurent(-a) == -x
    assert (x == y) == (a == b)
    if b:
        assert (x / y) * y == x
        assert Ref.from_laurent(a * b ** 2) / y == Ref.from_laurent(a * b)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(laurents, scalars)
@settings(max_examples=100, deadline=None)
def test_scalar_operands_match_reference(a, c):
    x = Ref.from_laurent(a)
    assert Ref.from_laurent(a + c) == x + c == c + x
    assert Ref.from_laurent(c - a) == c - x
    assert Ref.from_laurent(a * c) == x * c == c * x
    if c:
        assert Ref.from_laurent(a * (1 / Fraction(c))) == x / c
    if a:
        assert c / x * x == c
    assert (x == c) == (a == c)


@given(laurents.filter(bool))
@settings(max_examples=120, deadline=None)
def test_from_laurent_matches_reference(p):
    # the CLI's text of a Laurent polynomial as an element of Q(q)
    f = Ref.from_laurent(p)
    assert _q_fraction(p) == str(f)
    # the denominator is q^k, and q^k p is the numerator
    k = len(f.den) - 1
    assert f.den == (0,) * k + (1,) and poly(f.num) == p * LaurentPoly({k: 1})


# ---------------------------------------------------------------------------
# the reference's division with remainder and gcd, checked by products

@given(polys, polys.filter(bool))
@settings(max_examples=120, deadline=None)
def test_divmod_is_division_with_remainder(a, b):
    quo, rem = _poly_divmod(dense(a), dense(b))
    assert a == poly(quo) * b + poly(rem)
    assert len(rem) < len(dense(b))


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_gcd_is_monic_and_divides_both(a, b):
    g = _poly_gcd(dense(a), dense(b))
    if not (a or b):
        assert g == ()
        return
    assert g[-1] == 1
    for p in (a, b):
        assert p == poly(_poly_divmod(dense(p), g)[0]) * poly(g)


@given(polys.filter(bool), polys.filter(bool), polys.filter(bool))
@settings(max_examples=100, deadline=None)
def test_gcd_finds_a_common_factor(a, b, c):
    assert not _poly_divmod(_poly_gcd(dense(a * c), dense(b * c)), dense(c))[1]


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _poly_divmod((Fraction(1),), ())


def test_integral_coefficients_stay_int():
    x = Ref((-2, 0, 2), (-4, 4))  # (2q^2 - 2)/(4q - 4) = (q + 1)/2
    assert x.num == (Fraction(1, 2), Fraction(1, 2)) and x.den == (1,)
    y = x * 2
    assert [type(c) for _, c in poly(y.num).terms] == [int, int]


# ---------------------------------------------------------------------------
# boundary

@pytest.mark.parametrize('call', [
    lambda: Ref((0.1,)),
    lambda: Ref.from_laurent(LaurentPoly({0: 1})) * 0.5,
    lambda: Ref((1,), (0.5,)),
    lambda: Ref(('1',)),
    lambda: Ref((1,)) + 0.5,
])
def test_floats_and_strings_are_refused(call):
    with pytest.raises(TypeError):
        call()


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Ref((1,), (0, 0))
    with pytest.raises(ZeroDivisionError):
        Ref((1,)) / Ref(())
