"""Objects built by construction against the validated path they replace.

Coset and double coset representatives, orbit members, the orbit-module
matching and hom-basis columns are built inside the library without
re-validation.  Each is compared here with a test-local copy of the
validated route: every tableau through RowStandardTableau, every
permutation through the public Permutation constructor, every orbit
member through ColoredSetPartition, every module vector through
QPermElement.build and the public, checking apply_generator_to_basis.
The public constructors and functions that still validate are checked
to refuse bad input with raised errors.
"""

import functools
import itertools

import pytest

from qpartition.coeff import ONE, ZERO
from qpartition.hecke import act_by_words, t_w
from qpartition.qperm import (
    QPermElement,
    apply_generator_to_basis,
    hom_basis,
    hom_matrix,
)
from qpartition.symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
    RowStandardTableau,
    _double_coset_members,
    all_permutations,
    coset_reps,
    double_coset_reps,
    intersect_composition,
    is_distinguished,
    row_standard_tableaux,
)
from qpartition.tensoract import (
    ColoredSetPartition,
    hook_tableau,
    index_of_partition,
    orbit_correspondence,
    orbits,
    set_partitions,
)


def compositions(n):
    """Compositions of n without zero parts."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(1, n + 1) for rest in compositions(n - p)]


def weak_compositions(n):
    """Compositions of n, and each with one zero part inserted anywhere."""
    out = set()
    for c in compositions(n):
        out.add(c)
        for at in range(len(c) + 1):
            out.add(c[:at] + (0,) + c[at:])
    return [Composition(c) for c in sorted(out)]


def hook_pairs(n):
    return [(Composition.hook(n, k), Composition.hook(n, l))
            for k in range(n + 1) for l in range(n + 1)]


# ---------------------------------------------------------------------------
# the validated route, test-local

@functools.cache
def ref_blocks(shape):
    out, start = [], 1
    for p in shape.parts:
        out.append(tuple(range(start, start + p)))
        start += p
    return out


def ref_inverse(w):
    return Permutation(tuple(sorted(range(1, w.n + 1), key=w)))


def ref_increasing(w, shape):
    return all(w(a) < w(b) for block in ref_blocks(shape) for a, b in zip(block, block[1:]))


@functools.cache
def ref_coset_reps(shape):
    """Every row-standard tableau, validated, read off and sorted."""
    def fill(remaining, parts):
        if not parts:
            yield ()
            return
        for chosen in itertools.combinations(sorted(remaining), parts[0]):
            for rest in fill(remaining - set(chosen), parts[1:]):
                yield (chosen,) + rest

    tableaux = [RowStandardTableau(rows) for rows in fill(frozenset(range(1, shape.n + 1)), shape.parts)]
    return tuple(sorted(Permutation(tuple(x for row in t.rows for x in row)) for t in tableaux))


@functools.cache
def ref_inverses(lam):
    return [(d, ref_inverse(d)) for d in ref_coset_reps(lam)]


def ref_double_coset_reps(mu, lam):
    return tuple(d for d, dinv in ref_inverses(lam) if ref_increasing(dinv, mu))


def ref_transpose(w, a, b, left):
    im = list(w.images)
    if left:
        im = [b if x == a else a if x == b else x for x in im]
    else:
        im[a - 1], im[b - 1] = im[b - 1], im[a - 1]
    return Permutation(tuple(im))


def ref_double_rep(mu, lam, e):
    """The minimal element of Y_mu e Y_lambda by greedy descent."""
    w, changed = e, True
    while changed:
        changed = False
        for block in ref_blocks(mu):
            for a, b in zip(block, block[1:]):
                if ref_inverse(w)(a) > ref_inverse(w)(b):
                    w, changed = ref_transpose(w, a, b, left=True), True
        for block in ref_blocks(lam):
            for a, b in zip(block, block[1:]):
                if w(a) > w(b):
                    w, changed = ref_transpose(w, a, b, left=False), True
    return w


def ref_apply_generator(i, v):
    acc = {}
    for d, c in v.terms:
        for d2, c2 in apply_generator_to_basis(i, v.shape, d).items():
            acc[d2] = acc.get(d2, ZERO) + c * c2
    return QPermElement.build(v.shape, acc)


def assert_valid_copy(w):
    """w is what the public constructor would build from its images."""
    assert type(w.images) is tuple and all(type(x) is int for x in w.images)
    checked = Permutation(w.images)
    assert checked == w and hash(checked) == hash(w)


# ---------------------------------------------------------------------------
# coset and double coset representatives

@pytest.mark.parametrize('n', range(0, 6))
def test_coset_and_double_coset_reps_match_validated_route(n):
    shapes = weak_compositions(n)
    for lam in shapes:
        reps = coset_reps(lam)
        assert reps == ref_coset_reps(lam)
        assert [t.permutation() for t in row_standard_tableaux(lam)] == list(reps)
        for mu in shapes:
            assert double_coset_reps(mu, lam) == ref_double_coset_reps(mu, lam), (mu, lam)


@pytest.mark.parametrize('n', range(1, 8))
def test_hook_reps_match_validated_route(n):
    for mu, lam in hook_pairs(n):
        assert coset_reps(lam) == ref_coset_reps(lam)
        dcr = double_coset_reps(mu, lam)
        assert dcr == ref_double_coset_reps(mu, lam)
        for d in dcr:
            assert_valid_copy(d)


@pytest.mark.parametrize('n', range(1, 6))
def test_double_coset_grouping_matches_greedy_descent(n):
    shapes = weak_compositions(n) if n <= 3 else []
    for mu, lam in hook_pairs(n) + list(itertools.product(shapes, repeat=2)):
        members = _double_coset_members(mu, lam)
        assert list(members) == list(double_coset_reps(mu, lam))
        expect = {}
        for e in ref_coset_reps(lam):
            expect.setdefault(ref_double_rep(mu, lam, e), []).append(e)
        assert members == expect, (mu, lam)


# ---------------------------------------------------------------------------
# orbits and the orbit-module matching

@pytest.mark.parametrize('n', range(1, 6))
def test_orbit_members_match_colored_partitions(n):
    for r in range(1, 6):
        found = orbits(n, r)
        assert [o.partition for o in found] == list(set_partitions(r, min(n, r)))
        for orbit in found:
            k = len(orbit.partition)
            assert orbit.members == tuple(
                index_of_partition(ColoredSetPartition(orbit.partition, colors))
                for colors in itertools.permutations(range(1, n + 1), k))


@pytest.mark.parametrize('n', range(1, 6))
def test_orbit_correspondence_mapping_matches_hook_tableaux(n):
    for r in range(1, 6):
        for orbit in orbits(n, r):
            res = orbit_correspondence(n, r, orbit.partition, generators=())
            assert list(res.mapping) == list(orbit.members)
            for j, d in res.mapping.items():
                assert d == hook_tableau(j, n).permutation()
                assert_valid_copy(d)


def test_orbit_correspondence_checks_its_partition():
    for bad in [((1,), (1,)), ((2,), (1,)), ((1, 3),), ((1,), (2, 2))]:
        with pytest.raises(ValueError):
            orbit_correspondence(3, 2, bad)


# ---------------------------------------------------------------------------
# hom bases

HOM_PAIRS = [pair for n in range(1, 5) for pair in hook_pairs(n)] + [
    (Composition.hook(5, k), Composition.hook(5, l))
    for k in range(6) for l in range(6) if k + l <= 5]


@pytest.mark.parametrize('mu,lam', HOM_PAIRS, ids=lambda c: ''.join(map(str, c.parts)))
def test_hom_columns_match_validated_route(mu, lam):
    src, tgt = ref_coset_reps(mu), ref_coset_reps(lam)
    groups = {}
    for e in tgt:
        groups.setdefault(ref_double_rep(mu, lam, e), []).append(e)
    basis = hom_basis(mu, lam)
    assert len(basis) == len(groups)
    for d, phi in zip(ref_double_coset_reps(mu, lam), basis):
        base = QPermElement.build(lam, {e: ONE for e in groups[d]})
        images = act_by_words(src, base, ref_apply_generator)
        assert phi.columns == tuple(
            tuple(images[c].coefficient(e) for e in tgt) for c in src)
        assert hom_matrix(mu, lam, d).columns == phi.columns


# ---------------------------------------------------------------------------
# unchecked permutations are ordinary permutations

def test_unchecked_permutations_equal_validated_ones():
    for n in range(0, 5):
        group = all_permutations(n)
        for w in group:
            assert_valid_copy(w)
            assert_valid_copy(w.inverse())
            for v in group[:6]:
                assert_valid_copy(w * v)
        for i in range(1, n):
            assert_valid_copy(Permutation.simple(n, i))
        assert_valid_copy(Permutation.identity(n))
        for lam in weak_compositions(n):
            for y in lam.young_subgroup():
                assert_valid_copy(y)
    assert {Permutation((2, 1, 3)): 1}[Permutation.from_word(3, (1,))] == 1


# ---------------------------------------------------------------------------
# the public boundary still validates

def test_permutation_constructor_normalises_and_refuses_non_int_letters():
    w = Permutation([2, 1])
    assert type(w.images) is tuple
    assert w == Permutation((2, 1)) and hash(w) == hash(Permutation((2, 1)))
    assert t_w(w) == t_w(Permutation((2, 1)))
    for bad in [(1.0, 2), (1, 2.0), ('1',), (None,), (1, 2, 3.5)]:
        with pytest.raises(TypeError):
            Permutation(bad)
    for bad in [(1, 1), (0, 1), (2, 3), (1, 3)]:
        with pytest.raises(ValueError):
            Permutation(bad)


def test_composition_constructor_normalises_and_refuses_non_int_parts():
    lam = Composition([2, 0, 1])
    assert lam == Composition((2, 0, 1)) and hash(lam) == hash(Composition((2, 0, 1)))
    assert lam.blocks() == ((1, 2), (), (3,))
    assert [lam.block_index(x) for x in (1, 2, 3)] == [1, 1, 3]
    for bad in [(1.5, 0.5), ('a',), (2.0,), (None, 1)]:
        with pytest.raises(TypeError):
            Composition(bad)
    with pytest.raises(ValueError):
        Composition((2, -1))
    for bad_letter in (0, 4):
        with pytest.raises(ValueError):
            lam.block_index(bad_letter)


def test_mismatched_sizes_are_refused():
    two, three = Composition((2,)), Composition((3,))
    w = Permutation((1, 2, 3))
    with pytest.raises(ValueError, match='compositions of different n'):
        is_distinguished(two, w, three)
    with pytest.raises(ValueError, match='compositions of different n'):
        intersect_composition(two, w, three)
    with pytest.raises(ValueError, match='compositions of different n'):
        double_coset_reps(two, three)
    with pytest.raises(ValueError):
        is_distinguished(three, Permutation((1, 2)), three)


def test_generator_rule_refuses_non_distinguished_reps():
    lam = Composition((2, 1))
    with pytest.raises(NotDistinguished):
        apply_generator_to_basis(1, lam, Permutation((2, 1, 3)))
    with pytest.raises(NotDistinguished):
        apply_generator_to_basis(1, lam, Permutation((1, 2)))
    with pytest.raises(NotDistinguished):
        QPermElement.build(lam, {Permutation((1, 2, 3, 4)): ONE})
    with pytest.raises(NotDistinguished):
        hom_matrix(lam, lam, Permutation((2, 1, 3)))
