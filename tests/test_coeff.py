"""Laurent coefficient ring: axioms, evaluation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpartition.coeff import LaurentPoly, ONE, Q, ZERO, ZeroSpecialization, lp

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)

polys = st.builds(
    lambda terms: LaurentPoly(terms),
    st.dictionaries(st.integers(-6, 6), rationals, max_size=5))


def test_constants():
    assert ZERO.is_zero()
    assert str(ONE) == '1'
    assert str(Q) == 'q'
    assert Q == lp(1, 1)


def test_basic_arithmetic():
    p = (Q + 1) * (Q - 1)
    assert p == Q * Q - 1
    assert p.coefficient(2) == 1
    assert p.coefficient(0) == -1
    assert p.coefficient(1) == 0


def test_negative_exponents():
    inv = lp(1, -1)
    assert inv * Q == ONE
    assert inv.min_exponent() == -1
    assert (inv + Q).max_exponent() == 1


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys, st.sampled_from([Fraction(1), Fraction(2), Fraction(-3, 7)]))
def test_evaluate_is_ring_homomorphism(a, b, q0):
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)


def test_evaluate_rejects_zero():
    # q is a unit everywhere downstream, so 0 is refused outright
    with pytest.raises(ZeroSpecialization):
        lp(1, -1).evaluate(Fraction(0))
    with pytest.raises(ZeroSpecialization):
        (Q + 1).evaluate(Fraction(0))


@given(polys)
def test_json_round_trip(a):
    assert LaurentPoly.from_json(a.to_json()) == a


@given(polys, st.integers(0, 4))
def test_power_matches_repeated_multiplication(a, k):
    expect = ONE
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect


def test_json_shape_is_sorted_triples():
    p = lp(Fraction(3, 2), 2) + lp(-1, -1)
    assert p.to_json() == [[-1, '-1', '1'], [2, '3', '2']]


# ---------------------------------------------------------------------------
# int-when-integral coefficients, checked against a Fraction-only reference

class RefLaurent:
    """The Fraction-only Laurent polynomial the int kernel replaced."""

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for e, c in items:
            c = Fraction(c)
            if c:
                acc[e] = acc.get(e, Fraction(0)) + c
                if not acc[e]:
                    del acc[e]
        self.terms = tuple(sorted(acc.items()))

    def __add__(self, other):
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return RefLaurent(acc)

    def __neg__(self):
        return RefLaurent([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefLaurent([(e, c * Fraction(other)) for e, c in self.terms])
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, Fraction(0)) + c1 * c2
        return RefLaurent(acc)

    def __pow__(self, k):
        if len(self.terms) == 1:
            e, c = self.terms[0]
            return RefLaurent({e * k: c ** k})
        out = RefLaurent({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, q0):
        return sum((c * Fraction(q0) ** e for e, c in self.terms), Fraction(0))

    def coefficient(self, e):
        return dict(self.terms).get(e, Fraction(0))

    def to_json(self):
        return [[e, str(c.numerator), str(c.denominator)] for e, c in self.terms]


# ints, non-integral Fractions and integral Fractions such as 4/2
scalars = st.one_of(
    st.integers(-20, 20),
    rationals,
    st.builds(lambda a, b: Fraction(a * b, b), st.integers(-9, 9), st.integers(1, 9)),
)
term_dicts = st.dictionaries(st.integers(-6, 6), scalars, max_size=5)
monomials = st.builds(lambda e, c: {e: c}, st.integers(-4, 4), scalars.filter(bool))


def agrees(p, ref):
    """Same polynomial, and every stored coefficient is int-when-integral."""
    for _, c in p.terms:
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
    assert p.terms == ref.terms
    assert p.to_json() == ref.to_json()
    return True


@given(term_dicts, term_dicts)
def test_ring_operations_match_fraction_reference(a, b):
    p, q = LaurentPoly(a), LaurentPoly(b)
    ra, rb = RefLaurent(a), RefLaurent(b)
    assert agrees(p, ra) and agrees(q, rb)
    assert agrees(p + q, ra + rb)
    assert agrees(p - q, ra - rb)
    assert agrees(p * q, ra * rb)
    assert agrees(-p, -ra)


@given(term_dicts, scalars)
def test_scalar_operations_match_fraction_reference(a, s):
    p, ra = LaurentPoly(a), RefLaurent(a)
    rs = RefLaurent({0: s})
    assert agrees(p * s, ra * s)
    assert agrees(s * p, ra * s)
    assert agrees(p + s, ra + rs)
    assert agrees(s + p, ra + rs)
    assert agrees(p - s, ra - rs)
    assert agrees(s - p, rs - ra)


@given(term_dicts, st.integers(0, 4))
def test_power_matches_fraction_reference(a, k):
    assert agrees(LaurentPoly(a) ** k, RefLaurent(a) ** k)


@given(monomials, st.integers(-4, 4))
def test_monomial_power_matches_fraction_reference(a, k):
    assert agrees(LaurentPoly(a) ** k, RefLaurent(a) ** k)


@given(term_dicts, st.integers(-8, 8), st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(-3, 7), Fraction(7, 5), -1, 3]))
def test_evaluate_and_coefficient_match_fraction_reference(a, e, q0):
    p, ra = LaurentPoly(a), RefLaurent(a)
    value = p.evaluate(q0)
    assert type(value) is Fraction and value == ra.evaluate(q0)
    c = p.coefficient(e)
    assert type(c) is Fraction and c == ra.coefficient(e)


@given(st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5))
def test_int_and_fraction_built_polynomials_are_equal(a):
    p = LaurentPoly(a)
    f = LaurentPoly({e: Fraction(c) for e, c in a.items()})
    assert p == f and hash(p) == hash(f)
    assert p.terms == f.terms and repr(p) == repr(f) and str(p) == str(f)


@given(st.integers(-20, 20))
def test_constants_equal_their_scalars(c):
    p = LaurentPoly({0: c})
    assert p == c and p == Fraction(c)
    assert hash(p) == hash(LaurentPoly({0: Fraction(c)}))


def test_integral_results_are_stored_as_int():
    half = lp(Fraction(1, 2))
    assert (half + half).terms == ((0, 1),)
    assert type((half + half).terms[0][1]) is int
    assert type((lp(Fraction(2, 3), 1) * 3).terms[0][1]) is int
    assert type((lp(Fraction(2, 3), 1) * lp(Fraction(3, 2), -1)).terms[0][1]) is int
    assert type(LaurentPoly({0: Fraction(4, 2)}).terms[0][1]) is int
    assert type((lp(Fraction(1, 2)) ** -1).terms[0][1]) is int
    assert half + half == ONE and hash(half + half) == hash(ONE)


def test_negative_powers_are_exact():
    third = lp(Fraction(1, 3), -1)
    assert (3 * Q) ** -1 == third
    assert ((3 * Q) ** -1).terms == ((-1, Fraction(1, 3)),)
    assert lp(3, 1) ** -2 == lp(Fraction(1, 9), -2)
    assert (lp(3, 1) ** -2).coefficient(-2) == Fraction(1, 9)
    assert (lp(-2, 2) ** -3).terms == ((-6, Fraction(-1, 8)),)


@pytest.mark.parametrize('bad', [0.1, 1.0, float('nan'), complex(1, 0), '1', None])
def test_non_exact_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        LaurentPoly({0: bad})
    with pytest.raises(TypeError):
        LaurentPoly([(1, bad)])
    with pytest.raises(TypeError):
        lp(bad, 2)


@pytest.mark.parametrize('bad', [0.5, 2.0])
def test_float_arithmetic_is_rejected(bad):
    p = Q + 1
    for op in (lambda: p + bad, lambda: bad + p, lambda: p - bad, lambda: bad - p,
               lambda: p * bad, lambda: bad * p):
        with pytest.raises(TypeError):
            op()
