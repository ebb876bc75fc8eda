"""Permutations, compositions, coset representatives, Stirling numbers.

The coset and double coset machinery is checked against brute force
over the whole symmetric group for small n; the matrix-margin count is
checked against the enumeration it replaces.
"""

import itertools
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from qpartition.symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
    RowStandardTableau,
    all_permutations,
    bell,
    coset_reps,
    count_double_cosets,
    double_coset_reps,
    intersect_composition,
    is_distinguished,
    row_standard_tableaux,
    stirling2,
)

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(
    lambda images: Permutation(tuple(images)))


def compositions(n):
    out = []
    def rec(rest, acc):
        if rest == 0:
            out.append(Composition(tuple(acc)))
            return
        for p in range(1, rest + 1):
            rec(rest - p, acc + [p])
    rec(n, [])
    return out


# ---------------------------------------------------------------------------
# permutations

def test_identity_and_simple():
    e = Permutation.identity(4)
    s2 = Permutation.simple(4, 2)
    assert e.length() == 0
    assert s2.images == (1, 3, 2, 4)
    assert s2 * s2 == e


@given(perms)
def test_length_is_inversion_count(w):
    inv = sum(
        1
        for a, b in itertools.combinations(range(1, w.n + 1), 2)
        if w(a) > w(b))
    assert w.length() == inv
    assert w.inverse().length() == w.length()


@given(perms)
def test_reduced_word_round_trip(w):
    word = w.reduced_word()
    assert len(word) == w.length()
    assert Permutation.from_word(w.n, word) == w


@given(perms, perms)
def test_composition_law(w, v):
    if w.n != v.n:
        return
    u = w * v
    for a in range(1, w.n + 1):
        assert u(a) == w(v(a))


def test_all_permutations_counts():
    for n in range(1, 6):
        group = all_permutations(n)
        assert len(group) == factorial(n)
        assert len(set(group)) == factorial(n)


# ---------------------------------------------------------------------------
# compositions and tableaux

def test_blocks_and_block_index():
    lam = Composition((3, 0, 2))
    assert lam.n == 5
    assert lam.blocks() == ((1, 2, 3), (), (4, 5))
    assert lam.block_index(2) == 1
    assert lam.block_index(4) == 3
    with pytest.raises(ValueError):
        lam.block_index(6)


def test_hook():
    assert Composition.hook(5, 2).parts == (3, 1, 1)
    assert Composition.hook(4, 0).parts == (4,)
    assert Composition.hook(3, 3).parts == (0, 1, 1, 1)
    with pytest.raises(ValueError):
        Composition.hook(3, 4)


def test_young_subgroup_order():
    lam = Composition((2, 1, 3))
    group = lam.young_subgroup()
    assert len(group) == factorial(2) * factorial(1) * factorial(3)
    # closed under product
    members = set(group)
    assert all(y1 * y2 in members for y1 in group for y2 in group)


def test_row_standard_tableaux_count():
    lam = Composition((2, 2))
    tabs = list(row_standard_tableaux(lam))
    assert len(tabs) == 6
    assert all(all(r == tuple(sorted(r)) for r in t.rows) for t in tabs)


def test_initial_tableau_permutation_is_identity():
    lam = Composition((3, 1, 2))
    assert RowStandardTableau.initial(lam).permutation() == Permutation.identity(6)


def test_tableau_rows_are_normalised_to_tuples_of_ints():
    listed = RowStandardTableau([[1, 2], [3]])
    built = RowStandardTableau(((1, 2), (3,)))
    assert listed.rows == ((1, 2), (3,)) and type(listed.rows[0]) is tuple
    assert listed == built and hash(listed) == hash(built)
    assert RowStandardTableau(([True, 2], range(3, 4))) == built
    assert [type(x) for row in RowStandardTableau([[True, 2], [3]]).rows for x in row] == [int] * 3
    with pytest.raises(TypeError, match='tableau entries are int, not float'):
        RowStandardTableau([[1.0, 2], [3]])


# ---------------------------------------------------------------------------
# cosets: brute force oracle

def brute_coset_reps(lam):
    """Minimal length element in each left coset w Y_lam."""
    young = set(lam.young_subgroup())
    seen = set()
    reps = []
    for w in all_permutations(lam.n):
        if w in seen:
            continue
        coset = sorted((w * y for y in young), key=lambda u: (u.length(), u.images))
        reps.append(coset[0])
        seen.update(coset)
    return sorted(reps)


@pytest.mark.parametrize('n', range(1, 6))
def test_coset_reps_against_brute_force(n):
    for lam in compositions(n):
        reps = coset_reps(lam)
        assert list(reps) == brute_coset_reps(lam)


def test_unique_factorization_with_additive_length():
    lam = Composition((2, 2, 1))
    young = lam.young_subgroup()
    reps = coset_reps(lam)
    factored = {}
    for y in young:
        for d in reps:
            w = d * y
            assert w not in factored
            factored[w] = (d, y)
            assert w.length() == d.length() + y.length()
    assert len(factored) == factorial(5)


@pytest.mark.parametrize('n', range(2, 6))
def test_double_coset_reps_against_brute_force(n):
    for mu, lam in itertools.product(compositions(n), repeat=2):
        young_mu = set(mu.young_subgroup())
        young_lam = set(lam.young_subgroup())
        seen = set()
        count = 0
        for w in all_permutations(n):
            if w in seen:
                continue
            count += 1
            seen.update(y1 * w * y2 for y1 in young_mu for y2 in young_lam)
        reps = double_coset_reps(mu, lam)
        assert len(reps) == count
        assert all(is_distinguished(mu, d, lam) for d in reps)


@pytest.mark.parametrize('n', range(1, 7))
def test_count_double_cosets_matches_enumeration(n):
    for mu, lam in itertools.product(compositions(n), repeat=2):
        assert count_double_cosets(mu, lam) == len(double_coset_reps(mu, lam))


def test_count_double_cosets_matches_margin_matrices():
    # independent route: enumerate nonnegative matrices with given margins
    mu = Composition((2, 2, 1))
    lam = Composition((3, 2))
    rows, cols = mu.parts, lam.parts
    count = 0
    for fill in itertools.product(*(range(min(a, b) + 1) for a in rows for b in cols)):
        mat = [fill[i * len(cols):(i + 1) * len(cols)] for i in range(len(rows))]
        if all(sum(row) == a for row, a in zip(mat, rows)) and all(
                sum(mat[i][j] for i in range(len(rows))) == b for j, b in enumerate(cols)):
            count += 1
    assert count_double_cosets(mu, lam) == count


def column_by_column_count(mu, lam):
    """The contingency-table count that filled every row column by column.

    Rows smallest first, each enumerating its fills one column at a
    time, the largest forced last; this is the count that the one-pass
    treatment of the singleton rows replaced, kept as the reference.
    """
    rows = tuple(sorted(p for p in mu.parts if p))
    cols = tuple(sorted(p for p in lam.parts if p))

    def fills(target, caps):
        if not caps:
            if target == 0:
                yield ()
            return
        for x in range(min(target, caps[0]) + 1):
            for rest in fills(target - x, caps[1:]):
                yield (x,) + rest

    @cache
    def count(i, rem):
        if i == len(rows) - 1:
            # last row is forced to absorb whatever remains
            return 1 if sum(rem) == rows[i] else 0
        return sum(
            count(i + 1, tuple(sorted(r - x for r, x in zip(rem, fill))))
            for fill in fills(rows[i], rem))

    if not rows:
        return 1 if not cols else 0
    return count(0, cols)


@cache
def reference_count(rows, cols):
    """column_by_column_count on sorted nonzero parts, once per pair of them."""
    return column_by_column_count(Composition(rows), Composition(cols))


def check_against_reference(mu, lam):
    key = tuple(sorted(p for p in mu.parts if p)), tuple(sorted(p for p in lam.parts if p))
    assert count_double_cosets(mu, lam) == reference_count(*key), (mu, lam)


def with_one_zero_part(parts):
    """The composition itself and each way of putting one zero part into it."""
    return [parts] + [parts[:i] + (0,) + parts[i:] for i in range(len(parts) + 1)]


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


@pytest.mark.parametrize('n', range(0, 7))
def test_count_double_cosets_matches_reference_with_zero_parts(n):
    shapes = [Composition(parts) for lam in compositions(n)
              for parts in with_one_zero_part(lam.parts)]
    for mu, lam in itertools.product(shapes, repeat=2):
        check_against_reference(mu, lam)


@pytest.mark.parametrize('n', range(0, 11))
def test_count_double_cosets_matches_reference_on_partitions(n):
    shapes = [Composition(parts) for parts in partitions(n)]
    for mu, lam in itertools.product(shapes, repeat=2):
        check_against_reference(mu, lam)


weak_composition_pairs = st.integers(0, 12).flatmap(lambda n: st.tuples(*(
    st.lists(st.integers(0, n), max_size=n + 2).map(
        lambda cuts, n=n: tuple(b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [n])))
    for _ in range(2))))


@given(weak_composition_pairs)
def test_count_double_cosets_matches_reference_on_random_compositions(pair):
    mu, lam = map(Composition, pair)
    assert mu.n == lam.n
    assert count_double_cosets(mu, lam) == column_by_column_count(mu, lam)


def test_hook_pairs_match_the_closed_form():
    # |D_{hook k, hook l}|: j singleton rows meet singleton columns, matched
    # in C(k, j) C(l, j) j! ways; the hook arms take the rest, which needs
    # k - j + l - j <= n - j letters outside the matching
    for n in range(25):
        for k in range(min(n, 12) + 1):
            for l in range(min(n, 12) + 1):
                closed = sum(comb(k, j) * comb(l, j) * factorial(j)
                             for j in range(max(0, k + l - n), min(k, l) + 1))
                assert count_double_cosets(Composition.hook(n, k), Composition.hook(n, l)) == closed


def test_count_double_cosets_edge_cases():
    empty = Composition(())
    assert count_double_cosets(empty, empty) == 1
    assert count_double_cosets(Composition((0, 0)), empty) == 1
    for n in range(1, 7):
        # first part 0: every row a singleton, one of them forced last
        full = Composition.hook(n, n)
        assert full.parts[0] == 0
        assert count_double_cosets(full, full) == factorial(n)
        for lam in compositions(n):
            ways = factorial(n)
            for p in lam.parts:
                ways //= factorial(p)
            # all-singleton mu: one double coset per coset of Y_lam
            assert count_double_cosets(full, lam) == count_double_cosets(lam, full) == ways
            assert count_double_cosets(Composition((1,) * n), lam) == ways
    with pytest.raises(ValueError):
        count_double_cosets(Composition((2,)), Composition((1,)))


def test_hook_double_coset_count_is_k_plus_one():
    # hom spaces from a hook to the one-row-one-box shape are k+1 dimensional
    for n in range(2, 8):
        for k in range(0, n):
            mu = Composition.hook(n, k)
            lam = Composition.hook(n, 1)
            assert count_double_cosets(mu, lam) == k + 1


def test_intersect_composition_against_set_intersections():
    mu = Composition((2, 2))
    lam = Composition((2, 1, 1))
    for d in double_coset_reps(mu, lam):
        tau = intersect_composition(mu, d, lam)
        sizes = []
        for lam_block in lam.blocks():
            for mu_block in mu.blocks():
                size = len({d.inverse()(a) for a in mu_block} & set(lam_block))
                if size:
                    sizes.append(size)
        assert sorted(tau.parts) == sorted(sizes)
        assert tau.n == 4


def test_intersect_composition_rejects_non_distinguished():
    mu = Composition((2, 1, 1))
    lam = Composition((3, 1))
    with pytest.raises(NotDistinguished):
        intersect_composition(mu, Permutation((2, 1, 3, 4)), lam)


# ---------------------------------------------------------------------------
# Stirling and Bell

def test_stirling_table():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0


def test_stirling_recurrence():
    for r in range(1, 10):
        for k in range(1, r + 1):
            assert stirling2(r, k) == k * stirling2(r - 1, k) + stirling2(r - 1, k - 1)


def test_bell_numbers():
    assert [bell(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert bell(2 * 2) == 15
    assert bell(2 * 2 + 1) == 52
