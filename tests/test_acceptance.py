"""End-to-end acceptance checks.

Each test is one headline claim about the implementation, exercised
over its full advertised range, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per claim.  Everything here is exact; there
are no tolerances anywhere.
"""

import itertools
from fractions import Fraction

from qpartition.centralizer import (
    DEFAULT_Q_VALUES,
    commutant_basis,
    double_centralizer_check,
    half_commutant_basis,
)
from qpartition.coeff import LaurentPoly
from qpartition.glq import tq_dimension
from qpartition.linalg import Echelon
from qpartition.qperm import (
    apply_generator_to_basis,
    half_qpartition_dim,
    hom_basis,
    qpartition_dim,
    restrict_multiplicities,
    tensor_multiplicities,
)
from qpartition.symcomb import (
    Composition,
    bell,
    coset_reps,
    count_double_cosets,
    double_coset_reps,
    stirling2,
)
from qpartition.tensoract import (
    all_indices,
    generator_matrix,
    orbit_correspondence,
    orbits,
    set_partitions,
    verify_relations,
)

RELATION_RANGE = [
    (n, r)
    for n in range(1, 6)
    for r in range(1, 5)
    if n ** r <= 1024
]

# every (n, r) with n^r <= 256 inside the desk-scale box n <= 16, r <= 8
COMMUTANT_GRID = [
    (n, r)
    for n in range(1, 17)
    for r in range(1, 9)
    if n ** r <= 256
]


def test_01_relation_suite():
    """Generator matrices satisfy the quadratic, braid and commuting
    relations symbolically, with zero residual, for n <= 5, r <= 4."""
    for n, r in RELATION_RANGE:
        report = verify_relations(n, r)
        assert report.passed, (n, r, report.failures)


def test_02_q_one_degeneration():
    """At q = 1 every generator matrix is the 0/1 permutation matrix of
    the letter transposition, over the same range."""
    for n, r in RELATION_RANGE:
        for i in range(1, n):
            cols = generator_matrix(n, r, i)
            for j in all_indices(n, r):
                swapped = tuple(
                    i + 1 if x == i else i if x == i + 1 else x for x in j)
                col = {}
                for j2, c in cols[j].items():
                    value = c.evaluate(Fraction(1))
                    if value:
                        col[j2] = value
                assert col == {swapped: Fraction(1)}, (n, r, i, j)


def test_03_orbit_census():
    """Basis orbits are counted by Stirling numbers and their sizes
    exhaust the basis, for all n, r <= 6."""
    for n in range(1, 7):
        for r in range(1, 7):
            obs = orbits(n, r)
            expected = sum(stirling2(r, k) for k in range(1, min(n, r) + 1))
            assert len(obs) == expected, (n, r)
            assert sum(len(o.members) for o in obs) == n ** r, (n, r)


def test_04_decomposition_isomorphism():
    """Every orbit carries a basis matching that intertwines the tensor
    action with the q-permutation module of its hook shape."""
    for n, r in [(2, 2), (3, 2), (3, 3), (4, 2), (2, 4)]:
        for partition in set_partitions(r, min(n, r)):
            res = orbit_correspondence(n, r, partition)
            assert res.equivariant, (n, r, partition, res.failures)


def test_05_induction_restriction_multiplicities():
    """The multiplicity transfer reproduces Stirling rows: r steps from
    the trivial module give {k: s(r,k)} whenever n >= r, and one
    restriction step shifts to {k: s(r+1,k)} whenever n > r."""
    for r in range(1, 13):
        full_row = {k: stirling2(r, k) for k in range(1, r + 1)}
        for n in (r, r + 1, r + 4):
            assert tensor_multiplicities(n, r) == full_row, (n, r)
        next_row = {k: stirling2(r + 1, k) for k in range(1, r + 2)}
        for n in (r + 1, r + 4):
            restricted = restrict_multiplicities(tensor_multiplicities(n, r), n)
            assert restricted == next_row, (n, r)


def test_06_commutant_dimension_identity():
    """The brute-force commutant dimension equals the double-coset
    dimension formula on the whole n^r <= 256 grid, cross-checked at
    three generic rational values of q and at the non-generic q = 1 and
    q = -1."""
    assert len(DEFAULT_Q_VALUES) >= 3
    for n, r in COMMUTANT_GRID:
        report = commutant_basis(n, r, DEFAULT_Q_VALUES + (1, -1))
        assert report.agree, (n, r, report.dims)
        assert report.dim == qpartition_dim(n, r), (n, r, report.dim)
    pinned = commutant_basis(4, 2)
    assert pinned.dim == 15
    assert commutant_basis(2, 2).dim == 8


def test_07_classical_limit_bell_numbers():
    """Once n >= 2r the dimension is the Bell number B(2r); the
    half-integer variant reaches B(2r+1) once n >= 2r+1."""
    assert qpartition_dim(4, 2) == bell(4) == 15
    assert half_qpartition_dim(5, 2) == bell(5) == 52
    for r in range(1, 7):
        for n in range(2 * r, 2 * r + 4):
            assert qpartition_dim(n, r) == bell(2 * r), (n, r)
        for n in range(2 * r + 1, 2 * r + 4):
            assert half_qpartition_dim(n, r) == bell(2 * r + 1), (n, r)
    # the half oracle agrees with the half formula where the oracle runs
    for n, r in [(2, 1), (5, 2), (3, 2)]:
        report = half_commutant_basis(n, r)
        assert report.agree and report.dim == half_qpartition_dim(n, r)


def test_08_double_centralizer():
    """The span of the T_w action matrices is exactly the commutant of
    the commutant, at q = 1, 2, 7/5 and -1."""
    for n, r in [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (2, 6), (2, 7), (2, 8), (3, 4)]:
        for q0 in (Fraction(1), Fraction(2), Fraction(7, 5), Fraction(-1)):
            report = double_centralizer_check(n, r, q0)
            assert report.holds, (n, r, q0, report)
            assert report.dim_commutant == qpartition_dim(n, r)


def test_09_hom_bases():
    """For every pair of hook shapes with n <= 4 the hom maps commute
    with all generators, are linearly independent, and are counted by
    distinguished double cosets; maps into the almost-trivial hook are
    counted by k + 1."""
    for n in (2, 3, 4):
        hook_shapes = [Composition.hook(n, k) for k in range(n)]
        for mu, lam in itertools.product(hook_shapes, repeat=2):
            maps = hom_basis(mu, lam)
            assert len(maps) == len(double_coset_reps(mu, lam))
            reps_mu, reps_lam = coset_reps(mu), coset_reps(lam)
            pos_lam = {d: t for t, d in enumerate(reps_lam)}
            pos_mu = {d: t for t, d in enumerate(reps_mu)}
            width = len(reps_mu) * len(reps_lam)
            ech = Echelon(width, Fraction(1))
            for phi in maps:
                for i in range(1, n):
                    for a, d in enumerate(reps_mu):
                        acted = {}
                        for b, c in enumerate(phi.columns[a]):
                            if c.is_zero():
                                continue
                            moved = apply_generator_to_basis(i, lam, reps_lam[b])
                            for e, c2 in moved.items():
                                key = pos_lam[e]
                                acted[key] = acted.get(key, LaurentPoly()) + c * c2
                        pushed = {}
                        for d2, c in apply_generator_to_basis(i, mu, d).items():
                            for b, c2 in enumerate(phi.columns[pos_mu[d2]]):
                                if not c2.is_zero():
                                    pushed[b] = pushed.get(b, LaurentPoly()) + c * c2
                        acted = {k: v for k, v in acted.items() if v}
                        pushed = {k: v for k, v in pushed.items() if v}
                        assert acted == pushed, (mu, lam, i, d)
                row = {}
                pos = 0
                for col in phi.columns:
                    for c in col:
                        if not c.is_zero():
                            row[pos] = c.evaluate(Fraction(2))
                        pos += 1
                assert ech.add(row) is not None, (mu, lam)
    for n in range(2, 8):
        for k in range(n):
            assert count_double_cosets(
                Composition.hook(n, k), Composition.hook(n, 1)) == k + 1


def test_10_gl_dimension_degeneration():
    """The Gaussian dimension polynomial specializes at q = 1 to the
    plain tensor space dimension n^r, for all n, r <= 6."""
    for n in range(1, 7):
        for r in range(1, 7):
            assert tq_dimension(n, r).evaluate(Fraction(1)) == n ** r, (n, r)
