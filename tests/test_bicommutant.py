"""The double centralizer check against the full-feed reference.

double_centralizer_check checks containment of the action image on the
generators, then deletes the image's pivot coordinates from the
bicommutant rows and stops feeding them once their rank reaches
width - dim(image) (centralizer._bicommutant).  The reference here is
the earlier full-feed check, kept as it was: every row of Y X - X Y
for every commutant basis element X goes into one echelon, the
bicommutant is its dense nullspace, and every T_w is reduced against a
second echelon built from that nullspace.  It shares no shortcut with
the check: no generator containment, no pinned coordinates, no early
stop, no row order.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qpartition
from qpartition import centralizer
from qpartition.centralizer import (
    DoubleCentralizerReport,
    SolverInvariantError,
    _apply,
    _bicommutant,
    _component_classes,
    _integral,
    _scaled_generator,
    commutant_basis,
    double_centralizer_check,
)
from qpartition.hecke import act_by_words
from qpartition.linalg import Echelon
from qpartition.symcomb import all_permutations
from qpartition.tensoract import _classify, all_indices

Q_VALUES = [Fraction(1), Fraction(2), Fraction(7, 5), Fraction(-3, 2), Fraction(-1),
            Fraction(9, 7)]
# every (n, r) with n^r <= 64 whose image, spanned by the n! matrices T_w,
# the reference enumerates in under a second or so: n <= 5
CELLS = [(1, 1), (1, 3)] + [(2, r) for r in range(1, 7)] + [(3, r) for r in range(1, 4)] + \
    [(4, r) for r in range(1, 4)] + [(5, 1), (5, 2)]


def _var_map(comps):
    """Unknown index of entry (row, column) of a block diagonal matrix, and
    the number of unknowns."""
    comp_of = {g: blk for blk, C in enumerate(comps) for g in C}
    local = [{g: t for t, g in enumerate(C)} for C in comps]
    offsets, off = [], 0
    for C in comps:
        offsets.append(off)
        off += len(C) * len(C)

    def var(rg, cg):
        blk = comp_of[rg]
        assert comp_of[cg] == blk
        return offsets[blk] + local[blk][rg] * len(comps[blk]) + local[blk][cg]
    return var, comp_of, off


def reference_bicommutant(comps, basis):
    """Every row of Y X - X Y fed, in basis order: (echelon of the
    bicommutant's nullspace basis, its dimension, the rows fed)."""
    var, comp_of, width = _var_map(comps)
    ech = Echelon(width, Fraction(1))
    fed = 0
    for X in basis:
        rows_of, cols_of = {}, {}
        for (rg, cg), v in X.items():
            rows_of.setdefault(rg, []).append((cg, v))
            cols_of.setdefault(cg, []).append((rg, v))
        bp = comp_of[next(iter(X))[0]]
        bc = comp_of[next(iter(X))[1]]
        for rho in comps[bp]:
            for c in comps[bc]:
                row = {}
                for m, v in cols_of.get(c, ()):
                    key = var(rho, m)
                    row[key] = row.get(key, 0) + v
                for m, v in rows_of.get(rho, ()):
                    key = var(m, c)
                    cur = row.get(key, 0) - v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
                if row:
                    fed += 1
                    ech.add(row)
    bicommutant = ech.nullspace()
    bic_ech = Echelon(width, Fraction(1))
    for y in bicommutant:
        bic_ech.add({t: v for t, v in enumerate(y) if v})
    return bic_ech, len(bicommutant), fed


def setup(n, r, q0):
    """The components, the scaled generators b T_i and the image vectors
    b^l(w) T_w (as {(row, column): value}) at q0 = a/b."""
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    comps = [C for Cs in _component_classes(n, r, range(1, n)).values() for C in Cs]
    gens = {i: _scaled_generator([(case, gid[j2]) for case, j2 in
                                  (_classify(i, j) for j in idxs)], q0.numerator,
                                 q0.denominator)
            for i in range(1, n)}
    identity = {t: {t: 1} for t in range(len(idxs))}
    walk = act_by_words(all_permutations(n), identity,
                        lambda i, cols: {c0: _apply(gens[i], col) for c0, col in cols.items()})
    images = [{(rg, c0): v for c0, col in cols.items() for rg, v in col.items()}
              for cols in walk.values()]
    return comps, list(gens.values()), images


def reference_counts(comps, basis, images):
    """(dim_image, dim_bicommutant, image_contained, rows fed, the pivot
    coordinates (row, column) of the image echelon) by full feed,
    containment checked on every T_w."""
    var, _, width = _var_map(comps)
    img = Echelon(width, Fraction(1))
    coords = {var(rg, cg): (rg, cg) for T in images for rg, cg in T}
    vectors = [{var(rg, cg): v for (rg, cg), v in T.items()} for T in images]
    pivots = [coords[p] for p in map(img.add, vectors) if p is not None]
    bic_ech, dim, fed = reference_bicommutant(comps, basis)
    contained = all(bic_ech.add(vec) is None for vec in vectors)  # stops at an outsider
    return img.rank, dim, contained, fed, pivots


def reference_check(n, r, q0):
    report = commutant_basis(n, r, (q0,), with_basis=True)
    comps, _, images = setup(n, r, q0)
    basis = [_integral(X)[0] for X in report.basis]
    dim_image, dim_bic, contained, _, _ = reference_counts(comps, basis, images)
    return DoubleCentralizerReport(n, r, q0, report.dim, dim_image, dim_bic, contained)


@pytest.mark.parametrize('q0', Q_VALUES, ids=str)
@pytest.mark.parametrize('n,r', CELLS)
def test_report_equals_full_feed_reference(n, r, q0):
    got = double_centralizer_check(n, r, q0)
    want = reference_check(n, r, q0)
    assert got == want
    assert repr(got) == repr(want)
    assert got.holds


# cells whose table classes have many members, where the check runs on
# far fewer components than the reference
MANY_MEMBERS = [(3, 4), (2, 7), (2, 8)]


@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-1)], ids=str)
@pytest.mark.parametrize('n,r', MANY_MEMBERS)
def test_representatives_equal_full_feed_reference(n, r, q0):
    classes = _component_classes(n, r, range(1, n))
    assert max(map(len, classes.values())) >= 6
    got = double_centralizer_check(n, r, q0)
    want = reference_check(n, r, q0)
    assert repr(got) == repr(want)
    assert got.holds


def _multi_member_pair(n, r):
    """(C[0], C[0]) for the first component C of the first table class
    with more than one member."""
    Cs = next(Cs for Cs in _component_classes(n, r, range(1, n)).values() if len(Cs) > 1)
    return Cs[0][0], Cs[0][0]


def _lossy_solve(pair):
    """_PairSolver.solve, except that the pair solve of pair loses the
    block holding its root entry (0, 0): the identity block."""
    solve = centralizer._PairSolver.solve

    def lossy(self, with_basis):
        dim, blocks = solve(self, with_basis)
        if self.pair == pair:
            blocks = [X for X in blocks if (0, 0) not in X]
        return dim, blocks
    return lossy


def _shifted_identity_solve(pair):
    """_PairSolver.solve, except that the pair solve of pair replaces the
    identity block, the one holding (0, 0), by its sum with another block
    of the pair: the span and the count stay, but the identity is no
    longer one of the blocks."""
    solve = centralizer._PairSolver.solve

    def shifted(self, with_basis):
        dim, blocks = solve(self, with_basis)
        if self.pair == pair:
            t = next(t for t, X in enumerate(blocks) if (0, 0) in X)
            other = blocks[t - 1]
            X = dict(blocks[t])
            for key, v in other.items():
                X[key] = X.get(key, 0) + v
            blocks = blocks[:t] + [X] + blocks[t + 1:]
        return dim, blocks
    return shifted


def test_a_lost_block_raises(monkeypatch):
    # a solve that returns fewer blocks than its dimension
    pair = _multi_member_pair(3, 3)
    monkeypatch.setattr(centralizer._PairSolver, 'solve', _lossy_solve(pair))
    with pytest.raises(SolverInvariantError) as info:
        double_centralizer_check(3, 3, Fraction(7, 5))
    assert 'basis blocks for dimension' in str(info.value)
    assert info.value.pair == pair


def test_a_lost_identity_block_raises(monkeypatch):
    pair = _multi_member_pair(3, 3)
    monkeypatch.setattr(centralizer._PairSolver, 'solve', _shifted_identity_solve(pair))
    with pytest.raises(SolverInvariantError) as info:
        double_centralizer_check(3, 3, Fraction(7, 5))
    assert 'identity' in str(info.value)
    assert info.value.pair == pair


def _inputs(n, r, q0):
    report = commutant_basis(n, r, (q0,), with_basis=True)
    comps, gens, images = setup(n, r, q0)
    return comps, gens, [_integral(X)[0] for X in report.basis], images


@pytest.mark.parametrize('cut,dim', [(2, 154), (5, 70)])
def test_cut_basis_feeds_every_row(cut, dim):
    # fewer commutant elements: the bicommutant is larger than the image,
    # so the target rank width - 23 is never reached
    comps, gens, basis, images = _inputs(4, 2, Fraction(7, 5))
    dim_image, ref_dim, ref_contained, ref_fed, pivots = \
        reference_counts(comps, basis[:cut], images)
    assert (dim_image, ref_dim, ref_contained) == (23, dim, True)
    assert _bicommutant(comps, gens, basis[:cut], dim_image, pivots) == (dim, True, ref_fed)


@pytest.mark.parametrize('cut', [2, 5])
@pytest.mark.parametrize('q0', [Fraction(1), Fraction(-1)], ids=str)
def test_cut_basis_under_pinning_equals_full_feed(q0, cut):
    # B is larger than I, so the pinned coordinates leave a nonzero K and
    # every row is fed, at the two degenerate q values
    comps, gens, basis, images = _inputs(4, 2, q0)
    dim_image, ref_dim, ref_contained, ref_fed, pivots = \
        reference_counts(comps, basis[:cut], images)
    assert ref_contained and ref_dim > dim_image
    assert _bicommutant(comps, gens, basis[:cut], dim_image, pivots) == \
        (ref_dim, True, ref_fed)


def test_corrupted_element_feeds_every_row():
    comps, gens, basis, images = _inputs(4, 2, Fraction(7, 5))
    t = next(t for t, X in enumerate(basis) if len(X) > 1)
    key = next(iter(basis[t]))
    basis[t] = {**basis[t], key: basis[t][key] + 1}
    dim_image, ref_dim, ref_contained, ref_fed, pivots = reference_counts(comps, basis, images)
    assert dim_image == 23 and not ref_contained
    assert _bicommutant(comps, gens, basis, dim_image, pivots) == (ref_dim, False, ref_fed)


@pytest.mark.parametrize('n,r', [(3, 3), (4, 2)])
def test_early_stop_fires(n, r):
    q0 = Fraction(7, 5)
    comps, gens, basis, images = _inputs(n, r, q0)
    dim_image, ref_dim, _, ref_fed, pivots = reference_counts(comps, basis, images)
    dim, contained, fed = _bicommutant(comps, gens, basis, dim_image, pivots)
    assert (dim, contained) == (ref_dim, True) == (dim_image, True)
    assert 3 * fed < ref_fed


def _pinning(replace):
    """_bicommutant, except that its pivots are replace(comps, pivots)."""
    bicommutant = centralizer._bicommutant

    def pinning(comps, gens, basis, dim_image, pivots):
        return bicommutant(comps, gens, basis, dim_image, replace(comps, pivots))
    return pinning


def _cross_block(comps, pivots):
    # the last pivot moved to a coordinate between two blocks, where every
    # image element vanishes
    return pivots[:-1] + [(comps[0][0], comps[1][0])]


def test_a_pin_where_the_image_vanishes_is_caught(monkeypatch):
    q0 = Fraction(7, 5)
    want = reference_check(4, 2, q0)
    monkeypatch.setattr(centralizer, '_bicommutant', _pinning(_cross_block))
    try:
        got = double_centralizer_check(4, 2, q0)
    except SolverInvariantError as exc:
        assert 'outside one representative block' in str(exc)
    else:
        assert repr(got) != repr(want)


def test_a_pin_off_the_pivots_is_caught(monkeypatch):
    # the last pivot p of the reference image echelon replaced by an
    # in-block coordinate z where the echelon row of p vanishes: that row
    # then vanishes on every pinned coordinate, so it is a nonzero element
    # of K, and the check reports B one larger than it is
    q0 = Fraction(7, 5)
    want = reference_check(4, 2, q0)
    comps, _, images = setup(4, 2, q0)
    var, _, width = _var_map(comps)
    img = Echelon(width, Fraction(1))
    for T in images:
        img.add({var(rg, cg): v for (rg, cg), v in T.items()})
    coords = {var(rg, cg): (rg, cg) for C in comps for rg in C for cg in C}
    *kept, p = sorted(img.rows)
    z = next(t for t in coords if t not in img.rows and t not in img.rows[p])
    pinned = [coords[t] for t in kept + [z]]
    monkeypatch.setattr(centralizer, '_bicommutant', _pinning(lambda comps, pivots: pinned))
    got = double_centralizer_check(4, 2, q0)
    assert got.dim_bicommutant == want.dim_bicommutant + 1 and not got.holds


def test_a_pinning_premise_that_fails_raises():
    comps, gens, basis, images = _inputs(4, 2, Fraction(7, 5))
    dim_image, _, _, _, pivots = reference_counts(comps, basis, images)
    with pytest.raises(SolverInvariantError) as info:
        _bicommutant(comps, gens, basis, dim_image, pivots[:-1])
    assert f'{dim_image - 1} pinned coordinates' in str(info.value)
    with pytest.raises(SolverInvariantError) as info:
        _bicommutant(comps, gens, basis, dim_image, _cross_block(comps, pivots))
    assert 'outside one representative block' in str(info.value)
    assert info.value.pair == (comps[0][0], comps[1][0])


def _two_pair_element():
    # (2,2): the components {11, 22} and {12, 21}; the first entry lies in
    # the pair of the first component with itself, the second in the pair
    # of the second with itself, so neither row nor column of the second
    # is in the pair of the first
    comps = [C for Cs in _component_classes(2, 2, (1,)).values() for C in Cs]
    (g, _), (h, h2) = comps
    return comps, {(g, g): 1, (h, h2): 1}


def test_element_across_two_pairs_raises():
    comps, X = _two_pair_element()
    with pytest.raises(SolverInvariantError) as info:
        _bicommutant(comps, [], [X], 1, [(comps[0][0], comps[0][0])])
    assert 'outside one component pair' in str(info.value)
    assert info.value.pair == (comps[0][0], comps[0][0])


OPTIMISED_CHECK = """
import sys
sys.path.insert(0, {tests!r})
from test_bicommutant import _two_pair_element
from qpartition.centralizer import SolverInvariantError, _bicommutant
if __debug__:
    raise SystemExit('not running under python -O')
comps, X = _two_pair_element()
try:
    _bicommutant(comps, [], [X], 1, [(comps[0][0], comps[0][0])])
    print('accepted')
except SolverInvariantError as exc:
    print('raised:', 'outside one component pair' in str(exc))

# the block count and the premise of the relabellings, on two mutant solves
from fractions import Fraction
from test_bicommutant import _lossy_solve, _multi_member_pair, _shifted_identity_solve
from qpartition import centralizer
pair = _multi_member_pair(3, 3)
solve = centralizer._PairSolver.solve
for mutant, words in ((_lossy_solve, 'basis blocks for dimension'),
                      (_shifted_identity_solve, 'identity')):
    centralizer._PairSolver.solve = mutant(pair)
    try:
        centralizer.double_centralizer_check(3, 3, Fraction(7, 5))
        raise SystemExit('a mutant solve was accepted')
    except SolverInvariantError as exc:
        if exc.pair != pair or words not in str(exc):
            raise SystemExit('a mutant solve raised ' + str(exc))
    print('raised:', words)
    centralizer._PairSolver.solve = solve

# the two premises of the pinning
from test_bicommutant import _cross_block, _inputs, reference_counts
comps, gens, basis, images = _inputs(4, 2, Fraction(7, 5))
dim_image, _, _, _, pivots = reference_counts(comps, basis, images)
for pins, words in ((pivots[:-1], 'pinned coordinates for'),
                    (_cross_block(comps, pivots), 'outside one representative block')):
    try:
        _bicommutant(comps, gens, basis, dim_image, pins)
        raise SystemExit('a failed pinning premise was accepted')
    except SolverInvariantError as exc:
        if words not in str(exc):
            raise SystemExit('a failed pinning premise raised ' + str(exc))
    print('raised:', words)
"""


def test_element_across_two_pairs_raises_under_python_O():
    src = str(Path(qpartition.__file__).resolve().parents[1])
    env = {**os.environ, 'PYTHONPATH': src + os.pathsep + os.environ.get('PYTHONPATH', '')}
    code = OPTIMISED_CHECK.format(tests=str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, '-O', '-c', code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ['raised: True', 'raised: basis blocks for dimension',
                                        'raised: identity', 'raised: pinned coordinates for',
                                        'raised: outside one representative block']
