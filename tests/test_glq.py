"""Gaussian binomials and the dimension polynomial of the GL side."""

from fractions import Fraction
from math import comb, factorial

import pytest

from qpartition.coeff import LaurentPoly, ONE
from qpartition.glq import gaussian_binomial, gaussian_multinomial, tq_dimension
from qpartition.symcomb import Composition, coset_reps, stirling2


def test_small_binomials():
    assert gaussian_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gaussian_binomial(3, 0) == ONE
    assert gaussian_binomial(3, 3) == ONE
    assert gaussian_binomial(2, 5) == LaurentPoly()


def test_symmetry():
    for m in range(0, 9):
        for k in range(0, m + 1):
            assert gaussian_binomial(m, k) == gaussian_binomial(m, m - k)


def test_q_one_degeneration_to_binomials():
    for m in range(0, 9):
        for k in range(0, m + 1):
            assert gaussian_binomial(m, k).evaluate(Fraction(1)) == comb(m, k)


def test_binomials_count_young_cosets():
    # [n choose k]_q at q = 1 counts cosets of Y_(k, n-k)
    for n in range(2, 6):
        for k in range(1, n):
            lam = Composition((k, n - k))
            value = gaussian_binomial(n, k).evaluate(Fraction(1))
            assert value == len(coset_reps(lam))


def test_coefficients_are_nonnegative_integers():
    for m in range(0, 10):
        for k in range(0, m + 1):
            for _, c in gaussian_binomial(m, k).terms:
                assert c.denominator == 1 and c >= 0


def test_binomials_satisfy_the_other_pascal_rule():
    # [m choose k] = q^(m-k) [m-1 choose k-1] + [m-1 choose k], the mirror
    # of the rule the rows are built by
    for m in range(1, 16):
        for k in range(0, m + 1):
            want = LaurentPoly({m - k: 1}) * gaussian_binomial(m - 1, k - 1) + \
                gaussian_binomial(m - 1, k)
            assert gaussian_binomial(m, k) == want, (m, k)


def test_deep_binomial_is_built_without_recursion():
    assert gaussian_binomial(1999, 1) == LaurentPoly({e: 1 for e in range(1999)})
    assert gaussian_binomial(1999, 1998) == gaussian_binomial(1999, 1)
    assert gaussian_binomial(60, 3).evaluate(Fraction(1)) == comb(60, 3)


def test_multinomial_of_two_parts_is_binomial():
    assert gaussian_multinomial(Composition((3, 2))) == gaussian_binomial(5, 3)


def test_multinomial_degeneration():
    lam = Composition((2, 2, 1))
    expect = factorial(5) // (2 * 2 * 1)
    assert gaussian_multinomial(lam).evaluate(Fraction(1)) == expect
    # zero parts do not change anything
    assert gaussian_multinomial(Composition((2, 0, 2, 1))) == gaussian_multinomial(lam)


def test_tq_dimension_q_one_is_tensor_dimension():
    for n in range(1, 7):
        for r in range(1, 7):
            assert tq_dimension(n, r).evaluate(Fraction(1)) == n ** r


def test_tq_dimension_structure():
    # sum over hooks of stirling multiples of multinomials
    n, r = 4, 3
    expect = LaurentPoly()
    for k in range(1, min(n, r) + 1):
        term = gaussian_multinomial(Composition.hook(n, k)) * stirling2(r, k)
        expect = expect + term
    assert tq_dimension(n, r) == expect


def test_tq_dimension_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tq_dimension(0, 1)
