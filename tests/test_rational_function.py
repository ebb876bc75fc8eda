"""Q(q) on LaurentPoly against a dense Fraction reference.

coeff.RationalFunction keeps num/den as sparse LaurentPoly polynomials
with int coefficients where integral.  The reference below is the
earlier, independent representation: dense tuples of Fraction
coefficients, constant term first, with its own division, gcd and
printer.  Both reduce to lowest terms with a monic denominator, so
every operation must give the same polynomials and the same strings.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpartition
from qpartition import centralizer
from qpartition.coeff import ONE, ZERO, LaurentPoly, RationalFunction, _divmod, _gcd, lp


# ---------------------------------------------------------------------------
# the dense Fraction reference

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
    """num/den as dense Fraction tuples in lowest terms, den monic."""

    def __init__(self, num, den=(Fraction(1),)):
        num = _poly_trim([Fraction(c) for c in num])
        den = _poly_trim([Fraction(c) for c in den])
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

    def __add__(self, o):
        return Ref(_poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
                   _poly_mul(self.den, o.den))

    def __neg__(self):
        return Ref(tuple(-c for c in self.num), self.den)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        return Ref(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    def __truediv__(self, o):
        return Ref(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __eq__(self, o):
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


def assert_same(f: RationalFunction, ref: Ref):
    assert (dense(f.num), dense(f.den)) == (ref.num, ref.den)
    assert str(f) == str(ref)
    assert repr(f) == f'RationalFunction({ref})'
    assert bool(f) == bool(ref.num)


# ---------------------------------------------------------------------------
# strategies: int, Fraction and zero coefficients, so gaps are common

scalars = st.one_of(st.integers(-4, 4), st.just(0),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))
coeffs = st.lists(scalars, max_size=5).map(tuple)
nonzero = coeffs.filter(any)
pairs = st.tuples(coeffs, nonzero)
laurents = st.dictionaries(st.integers(-4, 4), scalars, max_size=4).map(LaurentPoly)
polys = coeffs.map(lambda cs: LaurentPoly(enumerate(cs)))


def both(pair):
    return RationalFunction(*pair), Ref(*pair)


@given(pairs)
@settings(max_examples=120, deadline=None)
def test_constructor_matches_reference(pair):
    assert_same(*both(pair))


@given(pairs, pairs)
@settings(max_examples=120, deadline=None)
def test_field_operations_match_reference(a, b):
    (x, rx), (y, ry) = both(a), both(b)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert_same(-x, -rx)
    if ry.num:
        assert_same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)


@given(pairs, scalars)
@settings(max_examples=100, deadline=None)
def test_scalar_operands_match_reference(a, c):
    x, rx = both(a)
    rc = Ref((c,))
    assert_same(x + c, rx + rc)
    assert_same(c + x, rx + rc)
    assert_same(c - x, rc - rx)
    assert_same(x * c, rx * rc)
    if c:
        assert_same(x / c, rx / rc)
    if rx.num:
        assert_same(c / x, rc / rx)
    assert (x == c) == (rx == rc)


@given(laurents)
@settings(max_examples=120, deadline=None)
def test_from_laurent_matches_reference(p):
    f = RationalFunction.from_laurent(p)
    assert_same(f, Ref.from_laurent(p))
    # the denominator is q^k, and q^k f is p again
    k = f.den.max_exponent()
    assert f.den == lp(1, k) and f.num == p * lp(1, k)


# ---------------------------------------------------------------------------
# division with remainder and the gcd, written once in coeff

@given(polys, polys.filter(bool))
@settings(max_examples=120, deadline=None)
def test_divmod_is_division_with_remainder(a, b):
    quo, rem = _divmod(a, b)
    assert a == quo * b + rem
    assert not rem or rem.max_exponent() < b.max_exponent()
    assert (dense(quo), dense(rem)) == _poly_divmod(dense(a), dense(b))


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_gcd_is_monic_and_divides_both(a, b):
    g = _gcd(a, b)
    assert dense(g) == _poly_gcd(dense(a), dense(b))
    if not (a or b):
        assert g == ZERO
        return
    assert g.terms[-1][1] == 1
    assert not _divmod(a, g)[1] and not _divmod(b, g)[1]


@given(polys.filter(bool), polys.filter(bool), polys.filter(bool))
@settings(max_examples=100, deadline=None)
def test_gcd_finds_a_common_factor(a, b, c):
    assert not _divmod(_gcd(a * c, b * c), c)[1]


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _divmod(ONE, ZERO)


def test_integral_coefficients_stay_int():
    x = RationalFunction((-2, 0, 2), (-4, 4))  # (2q^2 - 2)/(4q - 4) = (q + 1)/2
    assert x.num.terms == ((0, Fraction(1, 2)), (1, Fraction(1, 2))) and x.den == ONE
    y = x * 2
    assert [type(c) for _, c in y.num.terms] == [int, int]


# ---------------------------------------------------------------------------
# boundary and identity

@pytest.mark.parametrize('call', [
    lambda: RationalFunction((0.1,)),
    lambda: RationalFunction.constant(0.5),
    lambda: RationalFunction((1,), (0.5,)),
    lambda: RationalFunction(('1',)),
    lambda: RationalFunction((1,)) + 0.5,
])
def test_floats_and_strings_are_refused(call):
    with pytest.raises(TypeError):
        call()


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), (0, 0))


def test_one_class_importable_from_every_module():
    assert qpartition.RationalFunction is centralizer.RationalFunction is RationalFunction
