"""q-permutation modules: action, hom bases, multiplicity transfer.

The module action defined through tableau rows is checked against an
independent route: multiply out T_i T_d inside the Hecke algebra and
rewrite T_w x_lambda = q^len(y) T_e x_lambda via the coset
factorization w = e y.  Agreement of the two routes is what makes the
basis elements actually live inside the left ideal.
"""

import itertools
from fractions import Fraction

import pytest

from qpartition.coeff import LaurentPoly, ONE, Q, lp
from qpartition.hecke import t_w
from qpartition.linalg import Echelon
from qpartition.qperm import (
    QPermElement,
    apply,
    apply_generator,
    apply_generator_to_basis,
    half_hom_dim,
    half_qpartition_dim,
    hom_basis,
    hom_dim,
    hom_matrix,
    indres_step,
    qpartition_dim,
    restrict_multiplicities,
    tensor_multiplicities,
)
from qpartition.symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
    bell,
    coset_reps,
    double_coset_reps,
    stirling2,
)


def hooks(n):
    return [Composition.hook(n, k) for k in range(n)]


def module_action_via_hecke(i, shape, d):
    """T_i T_d x_lambda expanded by generic Hecke multiplication."""
    young = set(shape.young_subgroup())
    reps = coset_reps(shape)
    product = t_w(Permutation.simple(shape.n, i)) * t_w(d)
    acc = {}
    for w, c in product.terms:
        # unique e with w in e Y_lambda and additive lengths
        matches = [e for e in reps if e.inverse() * w in young]
        assert len(matches) == 1
        e = matches[0]
        y = e.inverse() * w
        assert w.length() == e.length() + y.length()
        coeff = c * lp(1, y.length())
        acc[e] = acc.get(e, LaurentPoly()) + coeff
    return {e: c for e, c in acc.items() if c}


@pytest.mark.parametrize('n', [3, 4])
def test_generator_action_matches_hecke_route(n):
    for shape in hooks(n):
        for d in coset_reps(shape):
            for i in range(1, n):
                fast = apply_generator_to_basis(i, shape, d)
                slow = module_action_via_hecke(i, shape, d)
                assert fast == slow, (shape, d, i)


def test_build_rejects_non_representatives():
    shape = Composition((2, 1))
    with pytest.raises(NotDistinguished):
        QPermElement.build(shape, {Permutation((2, 1, 3)): ONE})


def test_quadratic_relation_in_module():
    shape = Composition.hook(4, 2)
    for d in coset_reps(shape):
        v = QPermElement.basis_vector(shape, d)
        for i in range(1, 4):
            twice = apply_generator(i, apply_generator(i, v))
            assert twice == apply_generator(i, v).scale(Q - 1) + v.scale(Q)


def test_apply_whole_algebra_element():
    shape = Composition((2, 1))
    v = QPermElement.basis_vector(shape, Permutation.identity(3))
    w = Permutation((3, 1, 2))
    expect = v
    for i in reversed(w.reduced_word()):
        expect = apply_generator(i, expect)
    assert apply(t_w(w), v) == expect


# ---------------------------------------------------------------------------
# hom bases

def test_identity_map_is_a_basis_element():
    shape = Composition.hook(3, 1)
    phi = hom_matrix(shape, shape, Permutation.identity(3))
    reps = coset_reps(shape)
    for a, col in enumerate(phi.columns):
        assert col == tuple(ONE if b == a else LaurentPoly() for b in range(len(reps)))


def test_base_image_is_double_coset_indicator():
    # the image of the cyclic generator has coefficient 1 exactly on the
    # representatives lying inside the double coset of d
    mu, lam = Composition((2, 1, 1)), Composition((3, 1))
    young_mu = set(mu.young_subgroup())
    young_lam = set(lam.young_subgroup())
    reps = coset_reps(lam)
    src = coset_reps(mu)
    for d in double_coset_reps(mu, lam):
        coset = {y1 * d * y2 for y1 in young_mu for y2 in young_lam}
        phi = hom_matrix(mu, lam, d)
        col = phi.columns[src.index(Permutation.identity(4))]
        for e, c in zip(reps, col):
            assert c == (ONE if e in coset else LaurentPoly())


@pytest.mark.parametrize('n', [3, 4])
def test_hom_basis_equivariance(n):
    for mu, lam in itertools.product(hooks(n), repeat=2):
        reps_mu, reps_lam = coset_reps(mu), coset_reps(lam)
        for phi in hom_basis(mu, lam):
            for i in range(1, n):
                for a, d in enumerate(reps_mu):
                    # push then act
                    acted = {}
                    for b, c in enumerate(phi.columns[a]):
                        if not c:
                            continue
                        for e, c2 in apply_generator_to_basis(i, lam, reps_lam[b]).items():
                            key = reps_lam.index(e)
                            acted[key] = acted.get(key, LaurentPoly()) + c * c2
                    # act then push
                    pushed = {}
                    for d2, c in apply_generator_to_basis(i, mu, d).items():
                        col = phi.columns[reps_mu.index(d2)]
                        for b, c2 in enumerate(col):
                            if c2:
                                pushed[b] = pushed.get(b, LaurentPoly()) + c * c2
                    acted = {k: v for k, v in acted.items() if v}
                    pushed = {k: v for k, v in pushed.items() if v}
                    assert acted == pushed, (mu, lam, i, d)


@pytest.mark.parametrize('n', [3, 4])
def test_hom_basis_independent_with_double_coset_count(n):
    for mu, lam in itertools.product(hooks(n), repeat=2):
        maps = hom_basis(mu, lam)
        assert len(maps) == hom_dim(mu, lam) == len(double_coset_reps(mu, lam))
        width = len(coset_reps(mu)) * len(coset_reps(lam))
        ech = Echelon(width, Fraction(1))
        for phi in maps:
            row = {}
            pos = 0
            for col in phi.columns:
                for c in col:
                    if not c.is_zero():
                        row[pos] = c.evaluate(Fraction(2))
                    pos += 1
            assert ech.add(row) is not None


def test_hom_composition_stays_in_hom_basis_span():
    # compose basis maps for hooks of S_3 and test them against the basis
    # of the composite hom space, at a generic specialization
    n, q0 = 3, Fraction(2)
    for mu, lam, nu in itertools.product(hooks(n), repeat=3):
        first = hom_basis(mu, lam)
        second = hom_basis(lam, nu)
        target = hom_basis(mu, nu)
        width = len(coset_reps(mu)) * len(coset_reps(nu))
        ech = Echelon(width, Fraction(1))
        for phi in target:
            ech.add(_vectorize(phi, q0))
        for phi, psi in itertools.product(first, second):
            composite = _compose(psi, phi, q0)
            assert ech.add(composite) is None, (mu, lam, nu)


def _vectorize(phi, q0):
    row = {}
    pos = 0
    for col in phi.columns:
        for c in col:
            if not c.is_zero():
                row[pos] = c.evaluate(q0)
            pos += 1
    return row


def _compose(psi, phi, q0):
    """Columns of psi after phi, vectorized at q0."""
    rows_psi = len(psi.columns[0])
    row = {}
    for a, col_phi in enumerate(phi.columns):
        acc = [Fraction(0)] * rows_psi
        for b, c in enumerate(col_phi):
            if c.is_zero():
                continue
            cb = c.evaluate(q0)
            for t, c2 in enumerate(psi.columns[b]):
                if not c2.is_zero():
                    acc[t] += cb * c2.evaluate(q0)
        for t, value in enumerate(acc):
            if value:
                row[a * rows_psi + t] = value
    return row


def test_image_of_matches_columns():
    mu, lam = Composition((2, 1, 1)), Composition((3, 1))
    d = Permutation((1, 2, 4, 3))
    phi = hom_matrix(mu, lam, d)
    src = coset_reps(mu)
    v = QPermElement.basis_vector(mu, src[3]).scale(Q - 1)
    image = phi.image_of(v)
    expect = {}
    for e, c in zip(coset_reps(lam), phi.columns[3]):
        if c:
            expect[e] = c * (Q - 1)
    assert dict(image.terms) == expect


# ---------------------------------------------------------------------------
# multiplicity transfer

def test_multiplicities_without_ceiling_are_stirling():
    for r in range(1, 10):
        for n in (r, r + 1, 2 * r):
            expect = {k: stirling2(r, k) for k in range(1, r + 1)}
            assert tensor_multiplicities(n, r) == expect


def test_multiplicities_with_ceiling_truncate():
    assert tensor_multiplicities(3, 4) == {1: 1, 2: 7, 3: 6}
    assert tensor_multiplicities(2, 4) == {1: 1, 2: 7}
    assert tensor_multiplicities(1, 4) == {1: 1}


def test_indres_step_matches_stirling_recurrence():
    mults = {1: 1}
    n = 9
    for r in range(2, 9):
        mults = indres_step(mults, n)
        assert mults == {k: stirling2(r, k) for k in range(1, r + 1)}


def test_restriction_shifts_one_stirling_row():
    for r in range(1, 8):
        n = r + 1
        restricted = restrict_multiplicities(tensor_multiplicities(n, r), n)
        assert restricted == {k: stirling2(r + 1, k) for k in range(1, r + 2)}


# ---------------------------------------------------------------------------
# dimension formulas

def test_qpartition_dim_pinned_values():
    assert qpartition_dim(2, 2) == 8
    assert qpartition_dim(4, 2) == 15
    assert qpartition_dim(3, 2) == 14


def test_qpartition_dim_stabilizes_at_bell():
    for r in (1, 2, 3):
        values = [qpartition_dim(n, r) for n in range(1, 2 * r + 3)]
        assert values[-1] == values[-2] == bell(2 * r)
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_half_qpartition_dim_pinned_values():
    assert half_qpartition_dim(2, 1) == 4
    assert half_qpartition_dim(5, 2) == 52
    assert half_qpartition_dim(3, 1) == bell(3)


def test_half_qpartition_dim_stabilizes_at_odd_bell():
    for r in (1, 2, 3):
        values = [half_qpartition_dim(n, r) for n in range(2, 2 * r + 4)]
        assert values[-1] == values[-2] == bell(2 * r + 1)


def test_half_qpartition_dim_is_the_sum_of_half_hom_dims():
    for n in range(2, 10):
        for r in range(1, 5):
            mults = restrict_multiplicities(tensor_multiplicities(n, r), n)
            assert half_qpartition_dim(n, r) == sum(
                mk * ml * half_hom_dim(n, k, l)
                for k, mk in mults.items() for l, ml in mults.items())


def test_dim_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qpartition_dim(0, 2)
    with pytest.raises(ValueError):
        half_qpartition_dim(1, 2)
