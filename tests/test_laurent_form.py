"""The (lo, c, den) LaurentPoly against the sparse class it replaced.

coeff.LaurentPoly is stored as q^lo (c_0, ..., c_k) / den over the ints.
The class below is the earlier representation, kept verbatim as the
reference (renamed DictLaurent): a sorted tuple of (exponent,
coefficient) pairs, each coefficient an int or a Fraction, with one
Fraction product per pair of terms.  Every public operation must agree
with it, down to the types in terms and the text of repr, str and
to_json, on short operands and on long ones with large coefficients
and mixed denominators.
Then the canonical form itself, and the pinned public strings.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qpartition import coeff
from qpartition.cli import _q_fraction
from qpartition.coeff import ONE, Q, ZERO, LaurentPoly, ZeroSpecialization, lp
from qpartition.hecke import HeckeElement


# ---------------------------------------------------------------------------
# the earlier definition

def _exact(c, what='Laurent coefficients'):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f'{what} are int or Fraction, not {type(c).__name__}')


def _demote(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class DictLaurent:
    """Immutable sparse Laurent polynomial sum_e c_e q^e with c_e in Q."""

    __slots__ = ('_terms', '_hash')

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, 'items') else terms
        acc = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + _exact(c)
        self._terms = _normal_terms(acc)
        self._hash = None

    @classmethod
    def _make(cls, terms):
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @property
    def terms(self):
        return self._terms

    def __eq__(self, other):
        if isinstance(other, DictLaurent):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == _constant_terms(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._terms)
        return self._hash

    def __add__(self, other):
        if isinstance(other, DictLaurent):
            terms = other._terms
        elif isinstance(other, (int, Fraction)):
            terms = _constant_terms(other)
        else:
            return NotImplemented
        if not self._terms:
            return other if isinstance(other, DictLaurent) else DictLaurent._make(terms)
        if not terms:
            return self
        acc = dict(self._terms)
        for e, c in terms:
            acc[e] = acc.get(e, 0) + c
        return DictLaurent._make(_normal_terms(acc))

    __radd__ = __add__

    def __neg__(self):
        return DictLaurent._make(tuple([(e, -c) for e, c in self._terms]))

    def __sub__(self, other):
        if not isinstance(other, (DictLaurent, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, DictLaurent):
            a, b = self._terms, other._terms
        elif isinstance(other, (int, Fraction)):
            a, b = self._terms, _constant_terms(other)
        else:
            return NotImplemented
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return DICT_ZERO
        if len(a) == 1:
            e1, c1 = a[0]
            if c1 == 1:
                return DictLaurent._make(tuple([(e1 + e2, c2) for e2, c2 in b]))
            return DictLaurent._make(tuple([(e1 + e2, _demote(c1 * c2)) for e2, c2 in b]))
        acc = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return DictLaurent._make(_normal_terms(acc))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if len(self._terms) == 1:
            e, c = self._terms[0]
            return DictLaurent._make(((e * k, _demote(Fraction(c) ** k if k < 0 else c ** k)),))
        if k < 0:
            raise ValueError('negative power of a non-monomial Laurent polynomial')
        out = DICT_ONE
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, q0):
        q0 = Fraction(_exact(q0, 'q values'))
        if not q0:
            raise ZeroSpecialization('q must specialize to a unit, got 0')
        out = Fraction(0)
        for e, c in self._terms:
            out += c * q0 ** e
        return out

    def coefficient(self, e):
        for e1, c in self._terms:
            if e1 == e:
                return Fraction(c)
        return Fraction(0)

    def to_json(self):
        return [[e, str(c.numerator), str(c.denominator)] for e, c in self._terms]

    def __repr__(self):
        return f'LaurentPoly({ {e: Fraction(c) for e, c in self._terms}!r})'

    def __str__(self):
        return _terms_str(self._terms)


def _normal_terms(acc):
    return tuple([(e, _demote(c)) for e, c in sorted(acc.items()) if c])


def _constant_terms(c):
    c = _exact(c)
    return ((0, c),) if c else ()


def _terms_str(terms):
    parts = []
    for e, c in terms:
        var = 'q' if e == 1 else f'q^{e}'
        parts.append(str(c) if e == 0 else var if c == 1 else f'-{var}' if c == -1 else f'{c}*{var}')
    return ' + '.join(parts).replace('+ -', '- ') if parts else '0'


DICT_ONE = DictLaurent({0: 1})
DICT_ZERO = DictLaurent()


# ---------------------------------------------------------------------------
# differential tests

small = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(lambda a, b: Fraction(a * b, b), st.integers(-9, 9), st.integers(1, 9)),
)
# large negative and positive numerators over mixed denominators
large = st.one_of(
    st.integers(-10 ** 40, 10 ** 40),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6)),
    st.sampled_from([-(2 ** 64), 2 ** 64 - 1, -(2 ** 63) + 1, Fraction(-(2 ** 70), 3)]),
)
short_terms = st.dictionaries(st.integers(-6, 6), small, max_size=5)


@st.composite
def long_terms(draw):
    """A dense run of 14 to 40 exponents, some of them zero."""
    lo = draw(st.integers(-25, 10))
    size = draw(st.integers(14, 40))
    coeffs = draw(st.lists(st.one_of(large, small), min_size=size, max_size=size))
    return dict(enumerate(coeffs, lo))


any_terms = st.one_of(short_terms, long_terms())
scalars = st.one_of(small, large)
q_values = st.one_of(
    st.sampled_from([1, -1, 2, 3, Fraction(7, 5), Fraction(-3, 7), Fraction(1, 2), Fraction(-9, 4)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
)


def agrees(p, ref):
    """p and the reference hold the same polynomial and print it the same way."""
    assert type(p) is LaurentPoly
    assert p.terms == ref.terms
    assert [type(c) for _, c in p.terms] == [type(c) for _, c in ref.terms]
    assert repr(p) == repr(ref) and str(p) == str(ref) and p.to_json() == ref.to_json()
    assert bool(p) == bool(ref._terms)
    return True


@given(any_terms, any_terms)
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_dict_reference(a, b):
    p, q = LaurentPoly(a), LaurentPoly(b)
    ra, rb = DictLaurent(a), DictLaurent(b)
    assert agrees(p, ra) and agrees(q, rb)
    assert agrees(p + q, ra + rb)
    assert agrees(p - q, ra - rb)
    assert agrees(p * q, ra * rb)
    assert agrees(-p, -ra)
    assert (p == q) == (ra == rb) and (p * q == q * p)


@given(any_terms, scalars)
@settings(max_examples=120, deadline=None)
def test_scalar_operations_match_dict_reference(a, s):
    p, ra = LaurentPoly(a), DictLaurent(a)
    assert agrees(p * s, ra * s) and agrees(s * p, s * ra)
    assert agrees(p + s, ra + s) and agrees(s + p, s + ra)
    assert agrees(p - s, ra - s) and agrees(s - p, s - ra)


@given(st.one_of(short_terms, st.dictionaries(st.integers(-3, 3), large, max_size=3)), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_power_matches_dict_reference(a, k):
    assert agrees(LaurentPoly(a) ** k, DictLaurent(a) ** k)


@given(st.integers(-8, 8), scalars.filter(bool), st.integers(-5, 5))
def test_monomial_power_matches_dict_reference(e, c, k):
    assert agrees(LaurentPoly({e: c}) ** k, DictLaurent({e: c}) ** k)


@given(any_terms, q_values, st.integers(-30, 50))
@settings(max_examples=150, deadline=None)
def test_evaluate_and_coefficient_match_dict_reference(a, q0, e):
    p, ra = LaurentPoly(a), DictLaurent(a)
    value = p.evaluate(q0)
    assert type(value) is Fraction and value == ra.evaluate(q0)
    c = p.coefficient(e)
    assert type(c) is Fraction and c == ra.coefficient(e)


@given(any_terms)
@settings(max_examples=80, deadline=None)
def test_json_round_trip_matches_dict_reference(a):
    p, ra = LaurentPoly(a), DictLaurent(a)
    back = LaurentPoly.from_json(ra.to_json())
    assert back == p and hash(back) == hash(p) and agrees(back, ra)


@given(any_terms, scalars)
def test_equality_with_scalars_matches_dict_reference(a, s):
    p, ra = LaurentPoly(a), DictLaurent(a)
    for x in (s, Fraction(s), 0, Fraction(0), 1):
        assert (p == x) == (ra == x)
    assert (LaurentPoly({0: s}) == s) and (LaurentPoly({0: s}) == Fraction(s))


def test_wide_exponent_gaps():
    # the dense form stores the gap, but a product skips its zeros and
    # from_json refuses a gap of JSON_SPAN_LIMIT or more
    gap = coeff.JSON_SPAN_LIMIT - 1
    p = LaurentPoly({0: 1, gap: Fraction(-1, 3)})
    assert agrees(p * p, DictLaurent({0: 1, gap: Fraction(-1, 3)}) ** 2)
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json([[-gap, '1', '1'], [gap, '0', '1'], [0, '2', '1']]) == lp(1, -gap) + 2
    for data in ([[0, '1', '1'], [gap + 1, '1', '2']], [[-9, '1', '1'], [gap - 8, '-3', '1']]):
        with pytest.raises(ValueError, match=f'more than {coeff.JSON_SPAN_LIMIT} in a row'):
            LaurentPoly.from_json(data)
    with pytest.raises(ValueError, match='spans exponents 0 to 1000000000'):
        HeckeElement.from_json(2, [{'perm': [2, 1], 'coeff': [[0, '1', '1'], [10 ** 9, '1', '1']]}])


# ---------------------------------------------------------------------------
# the canonical form

def check_canonical(p):
    lo, c, den = p.integer_form()
    assert type(lo) is int and type(c) is tuple and type(den) is int
    assert all(type(x) is int for x in c)
    if not c:
        assert (lo, den) == (0, 1)
        return
    assert den > 0 and gcd(den, *c) == 1
    assert c[0] and c[-1]


@given(any_terms, any_terms, scalars)
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_are_canonical(a, b, s):
    p, q = LaurentPoly(a), LaurentPoly(b)
    for x in (p, q, p + q, p - q, p - p, p * q, p * s, p + s, -p, p * 0):
        check_canonical(x)


def test_equal_values_by_different_routes_have_one_form():
    half = Fraction(1, 2)
    routes = [
        LaurentPoly({-1: half, 0: 0, 2: Fraction(-3, 4)}),
        LaurentPoly([(2, Fraction(-6, 8)), (-1, 1), (-1, -half), (5, 0)]),
        lp(half, -1) + lp(Fraction(-3, 4), 2),
        LaurentPoly.from_json([[-1, '2', '4'], [2, '-3', '4']]),
        LaurentPoly.from_json(lp(half, -1).to_json()) - lp(Fraction(3, 4), 2),
        (lp(2, 1) - lp(3, 4)) * lp(Fraction(1, 4), -2),
        (Q ** -1 * (ONE * 2 - Q ** 3 * 3)) * Fraction(1, 4),
        (lp(Fraction(1, 3), -1) - lp(Fraction(1, 2), 2)) * Fraction(3, 2),
    ]
    form = (-1, (2, 0, 0, -3), 4)
    for p in routes:
        check_canonical(p)
        assert p.integer_form() == form
        assert p == routes[0] and hash(p) == hash(routes[0])


def test_zero_has_one_form():
    for z in (ZERO, LaurentPoly({3: 0}), lp(Fraction(0), -2), Q - Q, (Q + 1) * 0,
              LaurentPoly.from_json([]), lp(Fraction(1, 3)) - Fraction(1, 3)):
        assert z.integer_form() == (0, (), 1) and z == ZERO == 0 and hash(z) == hash(ZERO)


@pytest.mark.parametrize('bad', [1.0, 0.5, '1', None])
def test_non_int_exponents_are_refused(bad):
    with pytest.raises(TypeError, match='Laurent exponents are int'):
        LaurentPoly({bad: 1})


# ---------------------------------------------------------------------------
# the public text and JSON forms, pinned from the sparse class

PINNED = [
    (ZERO, 'LaurentPoly({})', '0', []),
    (ONE, 'LaurentPoly({0: Fraction(1, 1)})', '1', [[0, '1', '1']]),
    (Q, 'LaurentPoly({1: Fraction(1, 1)})', 'q', [[1, '1', '1']]),
    (lp(-1, -1), 'LaurentPoly({-1: Fraction(-1, 1)})', '-q^-1', [[-1, '-1', '1']]),
    (lp(-7), 'LaurentPoly({0: Fraction(-7, 1)})', '-7', [[0, '-7', '1']]),
    (lp(Fraction(3, 4)), 'LaurentPoly({0: Fraction(3, 4)})', '3/4', [[0, '3', '4']]),
    (lp(5, 3), 'LaurentPoly({3: Fraction(5, 1)})', '5*q^3', [[3, '5', '1']]),
    (lp(Fraction(-2, 3), -2), 'LaurentPoly({-2: Fraction(-2, 3)})', '-2/3*q^-2', [[-2, '-2', '3']]),
    ((Q + 1) * (Q - 1) * Q ** -2, 'LaurentPoly({-2: Fraction(-1, 1), 0: Fraction(1, 1)})',
     '-q^-2 + 1', [[-2, '-1', '1'], [0, '1', '1']]),
    (LaurentPoly({-3: Fraction(1, 2), 0: -1, 2: Fraction(-5, 6), 4: 3}),
     'LaurentPoly({-3: Fraction(1, 2), 0: Fraction(-1, 1), 2: Fraction(-5, 6), 4: Fraction(3, 1)})',
     '1/2*q^-3 - 1 - 5/6*q^2 + 3*q^4', [[-3, '1', '2'], [0, '-1', '1'], [2, '-5', '6'], [4, '3', '1']]),
    (LaurentPoly({-5: 2, -1: Fraction(-1, 7)}), 'LaurentPoly({-5: Fraction(2, 1), -1: Fraction(-1, 7)})',
     '2*q^-5 - 1/7*q^-1', [[-5, '2', '1'], [-1, '-1', '7']]),
    (LaurentPoly({0: 10 ** 20 + 1, 1: -(10 ** 19)}),
     'LaurentPoly({0: Fraction(100000000000000000001, 1), 1: Fraction(-10000000000000000000, 1)})',
     '100000000000000000001 - 10000000000000000000*q',
     [[0, '100000000000000000001', '1'], [1, '-10000000000000000000', '1']]),
]


@pytest.mark.parametrize('p, text_repr, text, data', PINNED)
def test_public_forms_are_pinned(p, text_repr, text, data):
    assert (repr(p), str(p), p.to_json()) == (text_repr, text, data)


def test_rational_function_text_is_pinned():
    # a Laurent polynomial printed as the element of Q(q) it is, as the
    # CLI writes a symbolic basis entry
    assert _q_fraction(lp(1, -1)) == '1/q'
    assert _q_fraction(lp(1, -1) - 1) == '(-q + 1)/q'
    assert _q_fraction(lp(1, -1) - lp(1, -2)) == '(q - 1)/q^2'
    assert _q_fraction(lp(-1, -3)) == '-1/q^3'
    assert _q_fraction(LaurentPoly({-2: Fraction(1, 2), 1: -3})) == '(-3*q^3 + 1/2)/q^2'
    assert _q_fraction(Q ** 2 * 2 - 1) == '2*q^2 - 1'
    assert _q_fraction(ONE) == '1'


ERRORS = [
    (lambda: LaurentPoly({0: 0.5}), TypeError, 'Laurent coefficients are int or Fraction, not float'),
    (lambda: lp('1', 2), TypeError, 'Laurent coefficients are int or Fraction, not str'),
    (lambda: (Q + 1).evaluate(0.5), TypeError, 'q values are int or Fraction, not float'),
    (lambda: (Q + 1).evaluate(0), ZeroSpecialization, 'q must specialize to a unit, got 0'),
    (lambda: (Q + 1) ** -1, ValueError, 'negative power of a non-monomial Laurent polynomial'),
    (lambda: ZERO.min_exponent(), ValueError, 'zero polynomial has no exponents'),
    (lambda: ZERO.max_exponent(), ValueError, 'zero polynomial has no exponents'),
    (lambda: Q + 0.5, TypeError, "unsupported operand type(s) for +: 'LaurentPoly' and 'float'"),
    (lambda: 0.5 * Q, TypeError, "unsupported operand type(s) for *: 'float' and 'LaurentPoly'"),
    (lambda: Q - 0.5, TypeError, "unsupported operand type(s) for -: 'LaurentPoly' and 'float'"),
    (lambda: LaurentPoly({0: None}), TypeError, 'Laurent coefficients are int or Fraction, not NoneType'),
]


@pytest.mark.parametrize('call, kind, message', ERRORS)
def test_error_messages_are_pinned(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message
