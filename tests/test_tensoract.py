"""The tensor space action: cases, orbits, relations, degenerations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpartition.coeff import LaurentPoly, ONE, Q, lp
from qpartition.hecke import t_w
from qpartition.symcomb import Composition, Permutation, stirling2
from qpartition.tensoract import (
    ColoredSetPartition,
    GeneratorOutOfRange,
    TensorVector,
    all_indices,
    apply,
    apply_generator,
    colored_partition,
    first_occurrence,
    generator_matrix,
    hook_tableau,
    index_of_partition,
    orbit_correspondence,
    orbits,
    set_partitions,
    verify_relations,
)

indices = st.tuples(st.integers(2, 4), st.integers(1, 4)).flatmap(
    lambda nr: st.tuples(
        st.just(nr[0]),
        st.lists(st.integers(1, nr[0]), min_size=nr[1], max_size=nr[1]).map(tuple)))


def basis(n, r, j):
    return TensorVector.basis_vector(n, r, j)


# ---------------------------------------------------------------------------
# the three cases

def test_case_both_absent():
    v = apply_generator(2, basis(3, 2, (1, 1)))
    assert v == basis(3, 2, (1, 1)).scale(Q)


def test_case_lower_letter_first():
    v = apply_generator(1, basis(2, 1, (2,)))
    assert v == basis(2, 1, (1,))
    v = apply_generator(1, basis(3, 3, (1, 3, 2)))
    assert v == basis(3, 3, (2, 3, 1))


def test_case_higher_letter_first():
    v = apply_generator(1, basis(2, 1, (1,)))
    assert v == basis(2, 1, (2,)).scale(Q) + basis(2, 1, (1,)).scale(Q - 1)
    # i present, i+1 absent also lands here
    v = apply_generator(2, basis(3, 2, (2, 2)))
    assert v == basis(3, 2, (3, 3)).scale(Q) + basis(3, 2, (2, 2)).scale(Q - 1)


def test_first_occurrence_absent_is_zero():
    assert first_occurrence((2, 2, 4), 3) == 0
    assert first_occurrence((2, 2, 4), 2) == 1


def test_generator_range_guard():
    with pytest.raises(GeneratorOutOfRange):
        apply_generator(2, basis(2, 2, (1, 1)))
    with pytest.raises(GeneratorOutOfRange):
        generator_matrix(3, 2, 0)


# ---------------------------------------------------------------------------
# orbits and colored partitions

@given(indices)
def test_colored_partition_round_trip(ni):
    n, j = ni
    csp = colored_partition(j)
    assert index_of_partition(csp) == j
    # same letter exactly at positions of the same block
    for block, color in zip(csp.blocks, csp.colors):
        assert all(j[p - 1] == color for p in block)


def test_colored_partition_validation():
    with pytest.raises(ValueError):
        ColoredSetPartition(((1, 2), (2, 3)), (1, 2))
    with pytest.raises(ValueError):
        ColoredSetPartition(((2,), (1,)), (1, 2))
    with pytest.raises(ValueError):
        ColoredSetPartition(((1,), (2,)), (1, 1))


def test_colored_partition_fields_are_normalised_to_tuples_of_ints():
    listed = ColoredSetPartition([[1, 3], [2]], [5, 2])
    built = colored_partition((5, 2, 5))
    assert listed.blocks == ((1, 3), (2,)) and listed.colors == (5, 2)
    assert type(listed.blocks[0]) is tuple and type(listed.colors) is tuple
    assert listed == built and hash(listed) == hash(built)
    assert ColoredSetPartition([[True, 3], [2]], [5, 2]) == built
    with pytest.raises(TypeError, match='block positions are int, not str'):
        ColoredSetPartition([['1'], [2]], [1, 2])
    with pytest.raises(TypeError, match='colors are int, not float'):
        ColoredSetPartition([[1], [2]], [1.0, 2])


def test_set_partition_census():
    for r in range(1, 8):
        for max_blocks in range(1, r + 1):
            count = sum(1 for _ in set_partitions(r, max_blocks))
            assert count == sum(stirling2(r, k) for k in range(1, max_blocks + 1))


def test_set_partitions_deterministic_and_sorted():
    parts = list(set_partitions(4, 3))
    assert parts == list(set_partitions(4, 3))
    for p in parts:
        assert [min(b) for b in p] == sorted(min(b) for b in p)


def test_orbit_sizes_partition_the_basis():
    for n, r in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        obs = orbits(n, r)
        members = [j for o in obs for j in o.members]
        assert sorted(members) == list(all_indices(n, r))
        for o in obs:
            size = 1
            for t in range(o.k):
                size *= n - t
            assert len(o.members) == size


def test_hook_tableau_shape():
    # one row of unused letters, then one singleton row per block
    j = (2, 1, 2)
    tab = hook_tableau(j, 4)
    assert tab.rows == ((3, 4), (2,), (1,))
    assert tab.permutation() == Permutation((3, 4, 2, 1))


# ---------------------------------------------------------------------------
# the action extends the Hecke relations

@pytest.mark.parametrize('n,r', [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_relations_hold(n, r):
    report = verify_relations(n, r)
    assert report.passed, report.failures
    assert not report.failures


def test_quadratic_relation_on_vectors():
    n, r = 3, 3
    for j in all_indices(n, r):
        for i in range(1, n):
            v = basis(n, r, j)
            twice = apply_generator(i, apply_generator(i, v))
            assert twice == apply_generator(i, v).scale(Q - 1) + v.scale(Q)


@given(st.tuples(
    st.permutations(range(1, 4)),
    st.permutations(range(1, 4)),
    st.lists(st.integers(1, 3), min_size=2, max_size=2)))
@settings(max_examples=40, deadline=None)
def test_module_axiom_on_products(data):
    images_w, images_v, j = data
    w, v = Permutation(tuple(images_w)), Permutation(tuple(images_v))
    vec = basis(3, 2, tuple(j))
    assert apply(t_w(w) * t_w(v), vec) == apply(t_w(w), apply(t_w(v), vec))


def test_q_one_degeneration_is_letter_permutation():
    # at q = 1 each T_i matrix is the 0/1 matrix of the transposition
    for n, r in [(2, 2), (3, 2), (3, 3)]:
        idxs = all_indices(n, r)
        for i in range(1, n):
            cols = generator_matrix(n, r, i)
            for j in idxs:
                swapped = tuple(i + 1 if x == i else i if x == i + 1 else x for x in j)
                col = {j2: c.evaluate(Fraction(1)) for j2, c in cols[j].items()}
                col = {j2: c for j2, c in col.items() if c}
                assert col == {swapped: Fraction(1)}


# ---------------------------------------------------------------------------
# orbit/module matching

@pytest.mark.parametrize('n,r', [(3, 3), (4, 2)])
def test_orbit_correspondence_equivariant(n, r):
    for p in set_partitions(r, min(n, r)):
        res = orbit_correspondence(n, r, p)
        assert res.equivariant, res.failures
        assert res.shape == Composition.hook(n, len(p))
        # the matching is a bijection onto coset representatives
        assert len(set(res.mapping.values())) == len(res.mapping)


def test_orbit_correspondence_generator_subset():
    res = orbit_correspondence(3, 2, ((1,), (2,)), generators=(1,))
    assert res.equivariant
