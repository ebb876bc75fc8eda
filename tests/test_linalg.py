"""Incremental exact row reduction: add, rank, kernel and nullspace."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qpartition import coeff
from qpartition.linalg import Echelon, nullspace, rank

ONE = Fraction(1)

matrices = st.integers(1, 5).flatmap(
    lambda width: st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=width, max_size=width),
        min_size=0, max_size=6).map(lambda rows: (width, rows)))


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def mat_vec(rows, vec):
    return [sum(c * x for c, x in zip(row, vec)) for row in rows]


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rank_nullity(case):
    width, rows = case
    assert rank(rows, width, ONE) + len(nullspace(rows, width, ONE)) == width


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_vectors_annihilate(case):
    width, rows = case
    for vec in nullspace(rows, width, ONE):
        assert all(v == 0 for v in mat_vec(rows, vec))


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_independent(case):
    width, rows = case
    basis = nullspace(rows, width, ONE)
    ech = Echelon(width, ONE)
    for vec in basis:
        assert ech.add(sparse(vec)) is not None


def test_reduce_residual_is_zero_for_members():
    # add returns None exactly when the residual is zero
    ech = Echelon(4, ONE)
    ech.add(sparse([1, 2, 0, 1]))
    ech.add(sparse([0, 1, 1, 0]))
    member = [2, 5, 1, 2]  # 2 * first + second
    assert ech.add(sparse(member)) is None
    assert ech.rank == 2
    assert ech.add(sparse([0, 0, 0, 1])) is not None
    assert ech.rank == 3


def test_duplicate_rows_do_not_raise_rank():
    ech = Echelon(3, ONE)
    assert ech.add(sparse([1, 2, 3])) is not None
    assert ech.add(sparse([2, 4, 6])) is None
    assert ech.rank == 1


def test_fully_reduced_invariant():
    # stored rows only touch their own pivot among pivot columns
    rng = random.Random(3)
    ech = Echelon(8, ONE)
    for _ in range(12):
        row = {c: Fraction(rng.randint(-3, 3)) for c in rng.sample(range(8), 4)}
        ech.add(row)
    for p, row in ech.rows.items():
        for p2 in ech.rows:
            if p2 != p:
                assert p2 not in row
        assert row.get(p) == ONE


# ---------------------------------------------------------------------------
# the fraction-free echelon against plain elimination over the field

class FieldEchelon:
    """Reference: reduced row echelon form by elimination over the field,
    pivots normalised to one, every operation on field values."""

    def __init__(self, width, one):
        self.width, self.one, self.zero = width, one, one - one
        self.rows, self.tags = {}, {}

    def reduce(self, row, tag_row=None):
        res = {c: v for c, v in row.items() if v}
        combo = dict(tag_row) if tag_row is not None else {}
        for p in sorted(res):
            if p in self.rows and res.get(p):
                factor = res[p]
                for c, v in self.rows[p].items():
                    res[c] = res.get(c, self.zero) - factor * v
                for t, v in self.tags.get(p, {}).items():
                    combo[t] = combo.get(t, self.zero) - factor * v
        return ({c: v for c, v in res.items() if v},
                {t: v for t, v in combo.items() if v})

    def add(self, row, tag=None):
        res, combo = self.reduce(row, {tag: self.one} if tag is not None else None)
        if not res:
            return None
        p = min(res)
        inv = self.one / res[p]
        new_row = {c: inv * v for c, v in res.items()}
        new_tags = {t: inv * v for t, v in combo.items()}
        for p2, row2 in self.rows.items():
            factor = row2.get(p)
            if factor:
                for c, v in new_row.items():
                    row2[c] = row2.get(c, self.zero) - factor * v
                self.rows[p2] = {c: v for c, v in row2.items() if v}
                t2 = self.tags.setdefault(p2, {})
                for t, v in new_tags.items():
                    t2[t] = t2.get(t, self.zero) - factor * v
                self.tags[p2] = {t: v for t, v in t2.items() if v}
        self.rows[p] = new_row
        self.tags[p] = new_tags
        return p

    def nullspace(self):
        basis = []
        for f in (c for c in range(self.width) if c not in self.rows):
            vec = [self.zero] * self.width
            vec[f] = self.one
            for p, row in self.rows.items():
                if f in row:
                    vec[p] = self.zero - row[f]
            basis.append(vec)
        return basis


BIG = 10 ** 12
entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
raw_rows = st.integers(1, 7).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8),
    st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width),
             min_size=1, max_size=3)))


@st.composite
def differential_cases(draw):
    """A matrix with integer, huge and fractional entries, some zero rows,
    duplicates and scaled copies, plus probe rows (half of them members)."""
    width, rows, coeffs = draw(raw_rows)
    rows = [row if draw(st.booleans()) else [Fraction(v) for v in row] for row in rows]
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(['none', 'copy', 'scaled', 'zero']))
        if kind == 'copy':
            extra.append(list(row))
        elif kind == 'scaled':
            extra.append([Fraction(-7, 3) * v for v in row])
        elif kind == 'zero':
            extra.append([0] * width)
    rows = rows + extra
    probes = [[sum(c * row[col] for c, row in zip(cs, rows)) for col in range(width)]
              for cs in coeffs] + [draw(st.lists(entries, min_size=width, max_size=width))]
    return width, draw(st.permutations(rows)), probes


def is_member(rows, width, probe):
    """Whether add on a fresh Echelon holding rows refuses probe."""
    ech = Echelon(width, ONE)
    for row in rows:
        ech.add(sparse(row))
    return ech.add(sparse(probe)) is None


@given(differential_cases())
@settings(max_examples=100, deadline=None)
def test_fraction_free_echelon_matches_field_elimination(case):
    width, rows, probes = case
    ech, ref = Echelon(width, ONE), FieldEchelon(width, ONE)
    for row in rows:
        assert ech.add(sparse(row)) == ref.add(sparse(row))
    assert ech.rank == len(ref.rows)
    assert ech.rows == ref.rows
    assert ech.nullspace() == ref.nullspace()
    for probe in probes:
        assert is_member(rows, width, probe) == (not ref.reduce(sparse(probe))[0])


@given(differential_cases())
@settings(max_examples=60, deadline=None)
def test_fraction_free_echelon_untagged_matches_field_elimination(case):
    # the path the solvers take: integer or fractional rows
    width, rows, probes = case
    ech, ref = Echelon(width, ONE), FieldEchelon(width, ONE)
    for row in rows:
        assert ech.add(sparse(row)) == ref.add(sparse(row))
    assert ech.rows == ref.rows
    assert nullspace(rows, width, ONE) == ref.nullspace()
    for probe in probes:
        assert is_member(rows, width, probe) == (not ref.reduce(sparse(probe))[0])


def test_stored_rows_are_primitive_integers():
    ech = Echelon(3, ONE)
    ech.add({0: Fraction(-2, 3), 1: Fraction(-4, 9), 2: Fraction(8, 3)})
    ech.add({1: -6, 2: -10})
    for p, row in ech._rows.items():
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
    assert ech.rows == {0: {0: 1, 2: Fraction(-4) - Fraction(2, 3) * Fraction(5, 3)},
                        1: {1: 1, 2: Fraction(5, 3)}}


# ---------------------------------------------------------------------------
# the kernel: integral vectors with their scales

@given(differential_cases())
@settings(max_examples=60, deadline=None)
def test_kernel_is_the_nullspace_up_to_scale(case):
    width, rows, _ = case
    ech = Echelon(width, ONE)
    for row in rows:
        ech.add(sparse(row))
    kernel = ech.kernel()
    assert [[Fraction(v, L) for v in x] for L, x in kernel] == ech.nullspace()
    for L, x in kernel:
        # integral, with L the least positive scale that makes it so
        assert all(type(v) is int for v in x) and L > 0
        assert L == lcm(*(Fraction(v, L).denominator for v in x))


def test_entries_outside_the_ring_raise_type_error():
    with pytest.raises(TypeError):
        rank([[0.5, 1]], 2, ONE)  # a float over Z
    with pytest.raises(TypeError):
        rank([{0: coeff.Q, 1: 1}], 2, ONE)  # a LaurentPoly over Z
    # bools are ints and stay accepted, with or without Fractions beside them
    assert rank([[True, 2], [Fraction(1, 2), False]], 2, ONE) == 2
    assert rank([[True, False], [2, 0]], 2, ONE) == 1


@pytest.mark.parametrize('one', [coeff.ONE, 1.0, '1'], ids=['LaurentPoly', 'float', 'str'])
def test_one_outside_the_ring_raises_type_error(one):
    # one only types the zeros of nullspace; a LaurentPoly one was once
    # taken for Z and mixed its zeros with Fraction entries
    with pytest.raises(TypeError, match='one is an int or Fraction'):
        Echelon(3, one)


def test_int_and_fraction_ones_are_accepted():
    assert Echelon(2, 1).nullspace() == Echelon(2, ONE).nullspace() == [[1, 0], [0, 1]]
