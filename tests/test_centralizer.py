"""Commutant oracle: dimensions, bases, bicommutant, multiplication table.

The oracle never consults the double coset combinatorics; agreement
with qpartition_dim over a grid of (n, r) is therefore a genuine
two-route check of the dimension formula.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qpartition
from qpartition import centralizer
from qpartition.centralizer import (
    DEFAULT_Q_VALUES,
    DimensionLimitExceeded,
    SYMBOLIC_LIMIT,
    SolverInvariantError,
    _ColumnPlan,
    _PairSolver,
    _RowState,
    _apply,
    _bfs,
    _commuting,
    _component_classes,
    _scaled_generator,
    _shifted,
    _total_dim,
    _unpack,
    commutant_basis,
    double_centralizer_check,
    half_commutant_basis,
    structure_constants,
)
from qpartition.coeff import ONE, Q, ZERO, LaurentPoly, ZeroSpecialization, lp
from qpartition.linalg import Echelon
from qpartition.qperm import half_qpartition_dim, qpartition_dim
from qpartition.tensoract import (
    _classify,
    _compose_columns,
    _swap_letters,
    all_indices,
    generator_matrix,
)
from test_linalg import FieldEchelon
from test_rational_function import Ref

# one and q in Q(q)
REF_ONE = Ref((1,))
REF_Q = Ref((0, 1))

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
rfuncs = st.lists(rationals, min_size=1, max_size=3).flatmap(
    lambda num: st.lists(rationals, min_size=1, max_size=3).map(
        lambda den: (tuple(num), tuple(den))))


def specialized_generator(n, r, i, q0):
    cols = generator_matrix(n, r, i)
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    out = {}
    for j, col in cols.items():
        for j2, c in col.items():
            value = c.evaluate(q0)
            if value:
                out[(gid[j2], gid[j])] = value
    return out


def commutes(A, X):
    prod_ax = {}
    prod_xa = {}
    a_rows = {}
    for (i, j), v in A.items():
        a_rows.setdefault(j, []).append((i, v))
    x_rows = {}
    for (i, j), v in X.items():
        x_rows.setdefault(j, []).append((i, v))
    for (k, j), v in X.items():
        for i, w in a_rows.get(k, ()):
            prod_ax[(i, j)] = prod_ax.get((i, j), Fraction(0)) + w * v
    for (k, j), v in A.items():
        for i, w in x_rows.get(k, ()):
            prod_xa[(i, j)] = prod_xa.get((i, j), Fraction(0)) + w * v
    prod_ax = {k: v for k, v in prod_ax.items() if v}
    prod_xa = {k: v for k, v in prod_xa.items() if v}
    return prod_ax == prod_xa


# ---------------------------------------------------------------------------
# the rational function field of the references

@given(rfuncs, rfuncs)
@settings(max_examples=80, deadline=None)
def test_rational_function_field_axioms(a, b):
    num_a, den_a = a
    num_b, den_b = b
    if not any(den_a) or not any(den_b):
        return
    x = Ref(num_a, den_a)
    y = Ref(num_b, den_b)
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == Ref(())
    if y:
        assert (x / y) * y == x


def test_rational_function_reduction():
    # (q^2 - 1)/(q - 1) reduces to q + 1
    x = Ref((-1, 0, 1), (-1, 1))
    assert x == REF_Q + 1
    assert str(x) == 'q + 1'


def test_rational_function_from_laurent():
    x = Ref.from_laurent(lp(1, -2) + Q)
    assert x == (REF_Q * REF_Q * REF_Q + 1) / (REF_Q * REF_Q)
    assert str(x) == '(q^3 + 1)/q^2'


def test_rational_function_strings():
    assert str(REF_ONE - REF_ONE) == '0'
    assert str(-REF_Q) == '-q'
    assert str(REF_ONE / (REF_Q + 1)) == '1/(q + 1)'


# ---------------------------------------------------------------------------
# oracle dimension vs formula

@pytest.mark.parametrize('n,r', [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (5, 2)])
def test_oracle_matches_formula(n, r):
    report = commutant_basis(n, r)
    assert report.agree
    assert len(report.q_values) == len(DEFAULT_Q_VALUES) == 3
    assert report.dim == qpartition_dim(n, r)


def test_no_generators_gives_full_matrix_algebra():
    report = commutant_basis(1, 3)
    assert report.dim == 1
    report = commutant_basis(1, 2, with_basis=True)
    assert report.dim == 1 and len(report.basis) == 1


@pytest.mark.parametrize('n,r', [(3, 2), (2, 3)])
def test_basis_matrices_commute_with_generators(n, r):
    q0 = DEFAULT_Q_VALUES[0]
    report = commutant_basis(n, r, with_basis=True)
    assert len(report.basis) == report.dim
    gens = [specialized_generator(n, r, i, q0) for i in range(1, n)]
    for X in report.basis:
        X = {k: Fraction(v) for k, v in X.items()}
        for A in gens:
            assert commutes(A, X)


def test_basis_matrices_independent():
    n, r = 3, 2
    N = n ** r
    report = commutant_basis(n, r, with_basis=True)
    ech = Echelon(N * N, Fraction(1))
    for X in report.basis:
        row = {i * N + j: Fraction(v) for (i, j), v in X.items()}
        assert ech.add(row) is not None


def test_symbolic_mode_agrees():
    for n, r in [(2, 2), (3, 2), (2, 3)]:
        sym = commutant_basis(n, r, symbolic=True)
        assert sym.mode == 'symbolic'
        assert sym.dim == commutant_basis(n, r).dim


# every cell symbolic mode admits, up to n = 16 and r = 6
SYMBOLIC_GRID = [(n, r) for n in range(1, 17) for r in range(1, 7) if n ** r <= SYMBOLIC_LIMIT]


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_symbolic_dimension_matches_formula(n, r):
    # a dimension over Q(q) itself, not at a few rational points
    assert commutant_basis(n, r, symbolic=True).dim == qpartition_dim(n, r)


@pytest.mark.parametrize('n,r', [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_symbolic_basis_commutes_over_laurent_ring(n, r):
    # the products are taken in Z[q, q^-1] itself: no field is needed
    report = commutant_basis(n, r, symbolic=True, with_basis=True)
    assert len(report.basis) == report.dim
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}

    def mul(P, X):
        rows = {}
        for (i, j), v in P.items():
            rows.setdefault(j, []).append((i, v))
        out = {}
        for (k, j), v in X.items():
            for i, w in rows.get(k, ()):
                out[(i, j)] = out.get((i, j), ZERO) + w * v
        return {k: v for k, v in out.items() if v}

    for i in range(1, n):
        A = {(gid[j2], gid[j]): c
             for j, col in generator_matrix(n, r, i).items() for j2, c in col.items()}
        for X in report.basis:
            assert mul(A, X) == mul(X, A)


# ---------------------------------------------------------------------------
# half variant

@pytest.mark.parametrize('n,r', [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3)])
def test_half_oracle_matches_half_formula(n, r):
    report = half_commutant_basis(n, r)
    assert report.agree
    assert report.dim == half_qpartition_dim(n, r)


def test_half_is_strictly_bigger():
    assert half_commutant_basis(2, 2).dim == 16 > commutant_basis(2, 2).dim == 8


# ---------------------------------------------------------------------------
# guards

def test_limit_guard():
    with pytest.raises(DimensionLimitExceeded):
        commutant_basis(2, 13)
    with pytest.raises(DimensionLimitExceeded):
        commutant_basis(3, 4, symbolic=True)


def test_zero_q_guard():
    with pytest.raises(ZeroSpecialization):
        commutant_basis(2, 2, q_values=(Fraction(0),))
    with pytest.raises(ZeroSpecialization):  # symbolic mode checks them too
        commutant_basis(2, 2, q_values=(Fraction(0),), symbolic=True)


def test_bad_arguments():
    with pytest.raises(ValueError):
        commutant_basis(0, 2)
    with pytest.raises(ValueError):
        commutant_basis(2, 2, q_values=())
    with pytest.raises(ValueError):  # symbolic mode checks them too
        commutant_basis(2, 2, q_values=(), symbolic=True)
    with pytest.raises(ValueError):
        commutant_basis(2, 2, generators=(5,))


@pytest.mark.parametrize('generators', [[1.5], ['1'], [1, 2.0]])
def test_non_int_generators_are_refused(generators):
    # 1.5 fixes every tensor, so it once gave the commutant of nothing
    with pytest.raises(TypeError, match='generators are int'):
        commutant_basis(3, 2, generators=generators)


@pytest.mark.parametrize('call', [
    lambda: commutant_basis(3, 2, (0.1,)),
    lambda: commutant_basis(2, 2, (0.1,), symbolic=True),
    lambda: commutant_basis(3, 2, (Fraction(2), 0.5)),
    lambda: commutant_basis(3, 2, ('2',)),
    lambda: half_commutant_basis(3, 2, (1.5,)),
    lambda: double_centralizer_check(2, 2, 0.5),
    lambda: structure_constants(2, 2, 0.5),
    lambda: (Q + 1).evaluate(0.1),
])
def test_float_q_values_are_refused(call):
    with pytest.raises(TypeError, match='q values are int or Fraction'):
        call()


def test_int_q_values_are_accepted():
    assert commutant_basis(3, 2, (2,)).q_values == (Fraction(2),)
    assert double_centralizer_check(2, 2, 2) == double_centralizer_check(2, 2, Fraction(2))
    assert (Q + 1).evaluate(2) == 3
    with pytest.raises(ZeroSpecialization):
        double_centralizer_check(2, 2, 0)


# ---------------------------------------------------------------------------
# bicommutant and multiplication table

@pytest.mark.parametrize('q0', [Fraction(1), Fraction(7, 5)])
def test_double_centralizer_small(q0):
    for n, r in [(2, 2), (3, 2)]:
        report = double_centralizer_check(n, r, q0)
        assert report.holds
        assert report.dim_commutant == qpartition_dim(n, r)
        assert report.dim_image == report.dim_bicommutant
        assert report.image_contained


def _matmul(A, B):
    rows_of = {}
    for (k, j), w in B.items():
        rows_of.setdefault(k, []).append((j, w))
    out = {}
    for (i, k), v in A.items():
        for j, w in rows_of.get(k, ()):
            out[i, j] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v}


def reference_table(basis):
    """(table, closed) by tagged elimination over Q: every product of the
    integral elements s_t X_t reduced on a FieldEchelon that holds them,
    its coordinates read off the tags."""
    scaled = [centralizer._integral(X) for X in basis]
    ref = FieldEchelon(None, Fraction(1))  # add and reduce never read the width
    for t, (X, _) in enumerate(scaled):
        assert ref.add(X, tag=t) is not None
    table, closed = {}, True
    for (a, (A, sa)), (b, (B, sb)) in itertools.product(enumerate(scaled), repeat=2):
        res, combo = ref.reduce(_matmul(A, B), {})
        closed = closed and not res
        table[a, b] = {} if res else {t: -c * scaled[t][1] / (sa * sb) for t, c in combo.items()}
    return table, closed


def associative(table, dim):
    """(e_a e_b) e_c == e_a (e_b e_c) for all a, b, c, summed sparsely: for
    each (a, b), over the c with some nonzero term on either side.  Both
    sides are quadratic in the table, so it is scaled to integers first."""
    D = math.lcm(*(v.denominator for coords in table.values() for v in coords.values()))
    rows = [{c: {t: v.numerator * (D // v.denominator) for t, v in table[a, c].items()}
             for c in range(dim) if table[a, c]} for a in range(dim)]
    for a, b in itertools.product(range(dim), repeat=2):
        left, right = {}, {}
        row_a = rows[a]
        for m, x in row_a.get(b, {}).items():
            for c, coords in rows[m].items():
                for t, y in coords.items():
                    left[c, t] = left.get((c, t), 0) + x * y
        for c, coords in rows[b].items():
            for m, x in coords.items():
                for t, y in row_a.get(m, {}).items():
                    right[c, t] = right.get((c, t), 0) + x * y
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            return False
    return True


@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(1), Fraction(-1)], ids=str)
@pytest.mark.parametrize('n, r', [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4)])
def test_structure_constants_closed(n, r, q0):
    sc = structure_constants(n, r, q0)
    assert sc.closed
    assert sc.dim == qpartition_dim(n, r)
    assert (sc.table, sc.closed) == reference_table(commutant_basis(n, r, (q0,), with_basis=True).basis)
    assert associative(sc.table, sc.dim)


def _patched_basis(monkeypatch, change):
    real = centralizer._commutant

    def patched(*args, **kwargs):
        report, comps = real(*args, **kwargs)
        report.basis = change(report.basis)
        return report, comps
    monkeypatch.setattr(centralizer, '_commutant', patched)


def test_structure_constants_refuse_an_element_without_its_own_entry(monkeypatch):
    _patched_basis(monkeypatch, lambda basis: basis + [dict(basis[0])])
    with pytest.raises(SolverInvariantError, match='no entry of its own'):
        structure_constants(2, 2, Fraction(7, 5))


def test_structure_constants_see_a_product_outside_the_span(monkeypatch):
    def perturb(basis):
        # one entry of X_0 that X_0 shares with another element, plus one
        shared = {key for X in basis[1:] for key in X}
        key = next(key for key in basis[0] if key in shared)
        return [{**basis[0], key: basis[0][key] + 1}] + basis[1:]
    _patched_basis(monkeypatch, perturb)
    sc = structure_constants(2, 2, Fraction(7, 5))
    assert sc.closed is False
    assert (sc.table, sc.closed) == reference_table(centralizer.commutant_basis(
        2, 2, (Fraction(7, 5),), with_basis=True).basis)


# ---------------------------------------------------------------------------
# the pair-class memo against solving every pair on its own

def _components(n, r, gens):
    """Reference: the orbit components by union-find on the matrix supports,
    each sorted, in the order of their smallest index."""
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    parent = list(range(len(idxs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in idxs:
        for i in gens:
            j2 = _swap_letters(j, i)
            if j2 != j:
                a, b = find(gid[j]), find(gid[j2])
                if a != b:
                    parent[a] = b
    groups = {}
    for t in range(len(idxs)):
        groups.setdefault(find(t), []).append(t)
    return [sorted(g) for g in sorted(groups.values())]


def _table(C, idxs, gid_map, gens):
    """Reference: the generator table of component C in the labelling given
    by its order; entry [v][k] is (case, position in C of the target)."""
    pos = {g: t for t, g in enumerate(C)}
    return tuple(
        tuple((case, pos[gid_map[swapped]])
              for case, swapped in (_classify(i, idxs[g]) for i in gens))
        for g in C)


def unmemoised(n, r, q0, gens=None, with_basis=False):
    """Sum over every ordered component pair, each solved in sorted-index
    labels by a solver of its own; q0 is a rational, or coeff.Q."""
    gens = tuple(range(1, n)) if gens is None else tuple(gens)
    q0 = q0 if q0 is Q else Fraction(q0)
    idxs = all_indices(n, r)
    gid_map = {j: t for t, j in enumerate(idxs)}
    comps = _components(n, r, gens)
    tables = [_table(C, idxs, gid_map, gens) for C in comps]
    total, basis = 0, []
    for C, table in zip(comps, tables):
        for Cp, table_p in zip(comps, tables):
            solver = _PairSolver(table, table_p, q0, (C[0], Cp[0]))
            dim, blocks = solver.solve(with_basis)
            total += dim
            basis.extend({(Cp[a], C[b]): v for (a, b), v in X.items()} for X in blocks)
    return total, basis


SMALL_GRID = [(n, r) for n in range(1, 17) for r in range(1, 9) if n ** r <= 81]


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_memo_matches_unmemoised_dimension(n, r):
    q0 = Fraction(7, 5)
    assert commutant_basis(n, r, (q0,)).dim == unmemoised(n, r, q0)[0]


@pytest.mark.parametrize('n,r', [(2, 4), (3, 3), (2, 5)])
def test_memo_basis_spans_unmemoised_space(n, r):
    q0 = DEFAULT_Q_VALUES[0]
    N = n ** r
    report = commutant_basis(n, r, (q0,), with_basis=True)
    want, reference = unmemoised(n, r, q0, with_basis=True)
    gens = [specialized_generator(n, r, i, q0) for i in range(1, n)]
    ech = Echelon(N * N, Fraction(1))
    for X in report.basis:
        X = {k: Fraction(v) for k, v in X.items()}
        assert all(commutes(A, X) for A in gens)
        ech.add({i * N + j: v for (i, j), v in X.items()})
    assert ech.rank == len(report.basis) == want
    # same space, not necessarily the same basis
    assert all(ech.add({i * N + j: v for (i, j), v in X.items()}) is None for X in reference)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3),
    st.sets(st.integers(1, n - 1), min_size=1).map(sorted))))
@settings(max_examples=40, deadline=None)
def test_memo_matches_unmemoised_on_generator_subsets(case):
    n, r, gens = case
    q0 = Fraction(3)
    report = commutant_basis(n, r, (q0,), generators=gens)
    assert report.dim == unmemoised(n, r, q0, gens)[0]


def canonical(basis):
    """A basis as a sorted list of the reprs of its sorted elements."""
    return sorted(repr(sorted(X.items())) for X in basis)


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_shared_plans_and_row_states_leak_nothing(n, r):
    # one set of plans and row states across three q values, and Q(q), in
    # that order: every basis equals that of fresh solvers, pair by pair
    classes = _component_classes(n, r, tuple(range(1, n)))
    shared = [None] * len(classes), [None] * len(classes)
    symbolic = (Q,) if n ** r <= SYMBOLIC_LIMIT else ()
    for q0 in (Fraction(7, 5), Fraction(-1), Fraction(1)) + symbolic:
        dim, basis = _total_dim(classes, q0, True, *shared)
        want, reference = unmemoised(n, r, q0, with_basis=True)
        assert dim == want == len(basis)
        assert canonical(basis) == canonical(reference)
    assert None not in shared[0] + shared[1]


def count_built(monkeypatch):
    """Patch _ColumnPlan and _RowState to record the table each is built on."""
    built = {_ColumnPlan: [], _RowState: []}
    for cls, tables in built.items():
        def counted(self, table, *args, init=cls.__init__, tables=tables):
            tables.append(table)
            init(self, table, *args)
        monkeypatch.setattr(cls, '__init__', counted)
    return built


@pytest.mark.parametrize('n,r,members', [(5, 3, [1, 3, 1]), (3, 4, [1, 7, 6])])
def test_one_plan_per_column_table_and_one_row_state_per_row_table(n, r, members,
                                                                   monkeypatch):
    # within one call, across all three q values: each table gets one plan
    # and one row state, in the order of the classes
    classes = _component_classes(n, r, tuple(range(1, n)))
    assert [len(Cs) for Cs in classes.values()] == members
    built = count_built(monkeypatch)
    report = commutant_basis(n, r, DEFAULT_Q_VALUES)
    assert report.agree and report.dim == qpartition_dim(n, r)
    assert built[_ColumnPlan] == built[_RowState] == list(classes)


# ---------------------------------------------------------------------------
# the one walk against the union-find components and their sorted tables

def check_walk(n, r, gens):
    idxs = all_indices(n, r)
    gid_map = {j: t for t, j in enumerate(idxs)}
    classes = _component_classes(n, r, gens)
    walked = [C for Cs in classes.values() for C in Cs]
    assert sorted(map(sorted, walked)) == _components(n, r, gens)
    for key, Cs in classes.items():
        # within a class, the components come by their smallest index
        assert [C[0] for C in Cs] == sorted(C[0] for C in Cs)
        for C in Cs:
            assert C[0] == min(C)
            assert key == _table(C, idxs, gid_map, gens)
            assert _bfs(key)[0] == list(range(len(C)))


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_walk_matches_union_find_and_sorted_tables(n, r):
    check_walk(n, r, tuple(range(1, n)))


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3),
    st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True))))
@settings(max_examples=40, deadline=None)
def test_walk_matches_union_find_on_generator_subsets(case):
    # generator subsets in any order: the walk takes them as given
    check_walk(*case)


def test_pair_counts_reported():
    report = commutant_basis(2, 8, (Fraction(2),))
    assert report.components == 128
    assert report.pairs == 128 ** 2 == 16384
    # two kinds of orbit: one letter only, or both letters
    assert report.pair_classes == 4


# ---------------------------------------------------------------------------
# solver invariants are raised errors, so they hold under python -O

def drop_root_cycles(self, real_classes=_PairSolver._classes):
    """A mutant _PairSolver._classes whose union misses the first 2-cycle of
    each loop at the root; the checks still read every 2-cycle."""
    real_cycles = _PairSolver._cycles
    self._cycles = lambda i: real_cycles(self, i)[1:]  # seen by the union alone
    try:
        return real_classes(self)
    finally:
        del self._cycles


@pytest.mark.parametrize('symbolic', [False, True], ids=['7/5', 'Q(q)'])
def test_a_broken_event_raises_and_names_itself(symbolic, monkeypatch):
    # the first pair class of (3, 2), the orbit of e_11 with itself, has one
    # loop at the root, T_2, with one 2-cycle on the rows: without it the
    # classes split, and that loop breaks
    solvers = []

    def mutant(self):
        solvers.append(self)
        return drop_root_cycles(self)

    monkeypatch.setattr(_PairSolver, '_classes', mutant)
    with pytest.raises(SolverInvariantError) as info:
        if symbolic:
            commutant_basis(3, 2, symbolic=True)
        else:
            commutant_basis(3, 2, (Fraction(7, 5),))
    (solver,) = solvers
    assert info.value.pair == solver.pair == (0, 0)
    assert info.value.event == (1, 0, 0, 1) and len(solver._cycles(1)) == 1
    assert 'root-loop classes break an equation' in str(info.value)


def test_disconnected_component_raises():
    # two vertices, one generator acting diagonally on both: no edge joins them
    table = (((1, 0),), ((1, 1),))
    with pytest.raises(SolverInvariantError) as info:
        _PairSolver(table, table, Fraction(2), (0, 0))
    assert info.value.pair == (0, 0)


# row tables in which generator position 0 is not a product of 2-cycles:
# a case 2 row sent to a row that moves on, one sent to a case 3 row that
# goes back elsewhere, and a case 1 row with another target
MALFORMED_ROW_TABLES = [(((2, 1),), ((2, 0),)),
                        (((2, 1),), ((3, 1),)),
                        (((1, 1),), ((1, 0),))]


@pytest.mark.parametrize('table_p', MALFORMED_ROW_TABLES)
def test_malformed_two_cycle_raises(table_p):
    # a one-vertex column component fixed by T_1: its loop is the root loop
    # whose 2-cycles on the row table the classes join
    solver = _PairSolver((((1, 0),),), table_p, Fraction(2), (0, 3))
    with pytest.raises(SolverInvariantError) as info:
        solver.solve(with_basis=False)
    assert info.value.pair == (0, 3)
    assert 'generator position 0' in str(info.value)


# column tables in which generator position 0 is not a product of 2-cycles,
# each connected from vertex 0: a case 2 column sent to one that comes back
# in case 2, one sent to a case 3 column that stays put, a case 1 column
# with another target, and a three-cycle
MALFORMED_COLUMN_TABLES = [(((2, 1),), ((2, 0),)),
                           (((2, 1),), ((3, 1),)),
                           (((2, 1),), ((1, 0),)),
                           (((2, 1),), ((3, 2),), ((3, 0),))]
TWO_CYCLE = (((2, 1),), ((3, 0),))


@pytest.mark.parametrize('table', MALFORMED_COLUMN_TABLES)
def test_malformed_column_two_cycle_raises(table):
    # the quadratic relation that lets one equation of a 2-cycle stand for
    # both needs the 2-cycle shape on the columns too
    with pytest.raises(SolverInvariantError) as info:
        _PairSolver(table, TWO_CYCLE, Fraction(2), (0, 3))
    assert info.value.pair == (0, 3)
    assert 'generator position 0 neither fixes column' in str(info.value)


# T_1 fixes both columns and both rows; T_2 swaps the columns in a 2-cycle
# and makes no loop, but swaps the rows in case 2 both ways
MOVING_COLUMN_TABLE = (((1, 0), (2, 1)), ((1, 1), (3, 0)))
ROW_TABLE_MALFORMED_AT_MOVING = (((1, 0), (2, 1)), ((1, 1), (2, 0)))


def test_malformed_row_table_of_a_moving_generator_raises():
    # no loop reads the 2-cycles of T_2, but the partner it drops does
    with pytest.raises(SolverInvariantError) as info:
        _PairSolver(MOVING_COLUMN_TABLE, ROW_TABLE_MALFORMED_AT_MOVING, Fraction(2), (0, 3))
    assert info.value.pair == (0, 3)
    assert 'generator position 1 neither fixes row' in str(info.value)


OPTIMISED_CHECKS = """
from fractions import Fraction
import qpartition
from qpartition.centralizer import (SolverInvariantError, _PairSolver, _component_classes,
                                   commutant_basis)
if __debug__:
    raise SystemExit('not running under python -O')
table = (((1, 0),), ((1, 1),))
try:
    _PairSolver(table, table, Fraction(2), (0, 0))
except SolverInvariantError:
    print('disconnected table raised')
moving_on = (((2, 1),), ((2, 0),))
try:
    _PairSolver((((1, 0),),), moving_on, Fraction(2), (0, 0)).solve(with_basis=False)
except SolverInvariantError as exc:
    print('malformed 2-cycle raised:', 'generator position 0' in str(exc))
try:
    _PairSolver((((2, 1),), ((2, 0),)), (((2, 1),), ((3, 0),)), Fraction(2), (0, 0))
except SolverInvariantError as exc:
    print('malformed column raised:', 'neither fixes column' in str(exc))
try:
    _PairSolver((((1, 0), (2, 1)), ((1, 1), (3, 0))), (((1, 0), (2, 1)), ((1, 1), (2, 0))),
                Fraction(2), (0, 0))
except SolverInvariantError as exc:
    print('malformed moving row raised:', 'generator position 1 neither fixes row' in str(exc))
# a loop that a commuting square drops, made a case 2 entry to itself
big = max(_component_classes(4, 2, (1, 2, 3)), key=len)
events = _PairSolver(big, big, Fraction(2), (0, 0)).events
k, c = next((k, c) for c, entries in enumerate(big) for k, entry in enumerate(entries)
            if entry == (1, c) and (k, c, c, 1) not in events)
bad = tuple(tuple((2, c) if (w, i) == (c, k) else e for i, e in enumerate(entries))
            for w, entries in enumerate(big))
for table, table_p in ((bad, big), (big, bad)):
    try:
        _PairSolver(table, table_p, Fraction(2), (0, 0)).solve(with_basis=False)
    except SolverInvariantError as exc:
        print('malformed table under squares raised:', 'neither fixes' in str(exc))
real_classes, real_cycles = _PairSolver._classes, _PairSolver._cycles


def drop_root_cycles(self):
    self._cycles = lambda i: real_cycles(self, i)[1:]
    try:
        return real_classes(self)
    finally:
        del self._cycles


_PairSolver._classes = drop_root_cycles
try:
    commutant_basis(3, 2, (Fraction(2),))
except SolverInvariantError as exc:
    print('broken event raised:', exc.pair, exc.event)
"""


def run_optimised(code):
    """Run code in a python -O child process; returns its stdout lines."""
    src = str(Path(qpartition.__file__).resolve().parents[1])
    env = {**os.environ, 'PYTHONPATH': src + os.pathsep + os.environ.get('PYTHONPATH', '')}
    proc = subprocess.run([sys.executable, '-O', '-c', code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_solver_invariants_raise_under_python_O():
    # asserts vanish under -O; the invariants must not
    assert run_optimised(OPTIMISED_CHECKS) == ['disconnected table raised',
                                               'malformed 2-cycle raised: True',
                                               'malformed column raised: True',
                                               'malformed moving row raised: True',
                                               'malformed table under squares raised: True',
                                               'malformed table under squares raised: True',
                                               'broken event raised: (0, 0) (1, 0, 0, 1)']


BOUNDARY_CHECKS = """
from qpartition.centralizer import commutant_basis
from qpartition.coeff import ONE, LaurentPoly
from qpartition.hecke import HeckeElement, RankMismatch
from qpartition.qperm import apply_generator_to_basis
from qpartition.symcomb import Composition, NotDistinguished, Permutation, is_distinguished
from qpartition.tensoract import TensorVector
if __debug__:
    raise SystemExit('not running under python -O')
checks = [
    (TypeError, lambda: Permutation((1.0, 2))),
    (TypeError, lambda: Composition((1.5, 0.5))),
    (TypeError, lambda: Composition(('a',))),
    (ValueError, lambda: is_distinguished(Composition((2,)), Permutation((1, 2, 3)), Composition((3,)))),
    (NotDistinguished, lambda: apply_generator_to_basis(1, Composition((2, 1)), Permutation((2, 1, 3)))),
    (TypeError, lambda: HeckeElement.build(2, {Permutation((2, 1)): 0.5})),
    (TypeError, lambda: TensorVector.build(2, 2, {(1.0, 2): ONE})),
    (RankMismatch, lambda: HeckeElement.from_json(3, [{'perm': [2, 1], 'coeff': []}])),
    (TypeError, lambda: LaurentPoly({0: 0.1})),
    (TypeError, lambda: commutant_basis(3, 2, generators=[1.5])),
    (TypeError, lambda: commutant_basis(3, 2, generators=['1'])),
    (TypeError, lambda: commutant_basis(3, 2, (0.1,))),
    (TypeError, lambda: commutant_basis(2, 2, (0.1,), symbolic=True)),
    (ValueError, lambda: commutant_basis(2, 2, (), symbolic=True)),
]
for error, call in checks:
    try:
        call()
        print('accepted')
    except error:
        print(error.__name__)
print(Permutation([2, 1]) == Permutation((2, 1)))
"""


def test_boundary_checks_raise_under_python_O():
    # the public constructors validate with raised errors, not asserts
    assert run_optimised(BOUNDARY_CHECKS) == [
        'TypeError', 'TypeError', 'TypeError', 'ValueError', 'NotDistinguished',
        'TypeError', 'TypeError', 'RankMismatch', 'TypeError', 'TypeError', 'TypeError',
        'TypeError', 'TypeError', 'ValueError', 'True']


# ---------------------------------------------------------------------------
# the fraction-free propagation and verification

HARD_Q = (Fraction(-3, 2), Fraction(101, 7), Fraction(1, 9))


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_integer_path_matches_formula_at_hard_q(n, r):
    # a negative numerator gives negative scales; 101/7 and 1/9 large a, b
    report = commutant_basis(n, r, HARD_Q)
    assert report.dims == (qpartition_dim(n, r),) * len(HARD_Q)


@given(st.integers(1, 50), st.integers(1, 50), st.booleans(),
       st.sampled_from([(3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2)]))
@settings(max_examples=40, deadline=None)
def test_integer_path_matches_formula_at_random_q(a, b, negative, cell):
    q0 = Fraction(-a if negative else a, b)
    assume(q0 not in (1, -1))
    assert commutant_basis(*cell, (q0,)).dim == qpartition_dim(*cell)


@pytest.mark.parametrize('n,r', [(3, 3), (4, 2), (2, 4)])
def test_integer_path_basis_commutes_at_negative_q(n, r):
    q0 = Fraction(-3, 2)
    N = n ** r
    report = commutant_basis(n, r, (q0,), with_basis=True)
    gens = [specialized_generator(n, r, i, q0) for i in range(1, n)]
    ech = Echelon(N * N, Fraction(1))
    for X in report.basis:
        assert all(type(v) is Fraction for v in X.values())
        assert all(commutes(A, X) for A in gens)
        ech.add({i * N + j: v for (i, j), v in X.items()})
    assert ech.rank == len(report.basis) == report.dim == qpartition_dim(n, r)


@functools.cache
def symbolic_dim(n, r):
    return commutant_basis(n, r, symbolic=True).dim


@given(st.integers(1, 40), st.integers(1, 40), st.booleans(),
       st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]))
@settings(max_examples=30, deadline=None)
def test_symbolic_matches_specialised_at_random_q(a, b, negative, cell):
    # the root-loop classes are shared by the integer path (q = a/b) and
    # the Q(q) path, and so are the propagation and the verification, which
    # Q(q) runs on integers at q = 2^K
    q0 = Fraction(-a if negative else a, b)
    assume(q0 not in (1, -1))
    assert symbolic_dim(*cell) == commutant_basis(*cell, (q0,)).dim == qpartition_dim(*cell)


# ---------------------------------------------------------------------------
# the packed check against the per-root path it replaced

class Reference:
    """The per-root verification over Q: each root a column of its own,
    propagated in sparse dict columns with their own scales, every event
    cross-multiplied by the scales of its two columns.  The maps are built
    from the row table afresh, not taken from the solver.  Given q0 =
    coeff.Q rather than a Fraction, it runs over Z[q] at a = q and b = 1
    (see SymbolicReference)."""

    def __init__(self, table_p, q0):
        if isinstance(q0, Fraction):
            a, b, self.one = q0.numerator, q0.denominator, 1
        else:
            a, b, self.one = q0, ONE, ONE
        self.a = a
        self.factor = {1: a, 2: b, 3: a}
        self.images = [], []
        for k in range(len(table_p[0])):
            op = _scaled_generator([entries[k] for entries in table_p], a, b)
            self.images[0].append(op)
            self.images[1].append(_shifted(op, a - b))

    def clear(self, root):
        """A dense root over Q (or Z[q]) as the root column (u, s)."""
        return {rl: self.one * v for rl, v in enumerate(root) if v}, self.one

    def image(self, i, case, u):
        return _apply(self.images[case == 3][i], u)

    def loop_rows(self, i):
        """The m rows of the loop b A_i - a, zero rows left out: column cl
        of b A_i holds coef[cl] at to[cl] and diag[cl] at cl."""
        to, coef, diag = self.images[0][i]
        rows = {}
        for cl, t in enumerate(to):
            rows.setdefault(t, {})[cl] = coef[cl]
        for cl in range(len(to)):
            rows[cl][cl] = rows[cl].get(cl, 0) + diag.get(cl, 0) - self.a
        return [row for row in ({cl: v for cl, v in row.items() if v} for row in rows.values())
                if row]

    def propagate(self, solver, root):
        """Columns c -> (u_c, s_c) from the root (u_0, s_0): x_c = u_c / s_c."""
        cols = {0: root}
        for c in solver.order[1:]:
            p, i, case = solver.par[c]
            u, s = cols[p]
            cols[c] = self.image(i, case, u), self.factor[case] * s
        return cols

    def largest(self, solver, cols):
        """The largest |value| in any column and on either side of any event
        but a loop, the sides taken with the common part of their scales
        divided out: ml N u_c and mr u_c2, ml = s_c2 / g and mr = factor s_c
        / g for g = gcd(s_c2, factor s_c).  A loop compares two entries of
        one column, so the pack forms no side of it."""
        def size(u):
            return max(map(abs, u.values()), default=0)

        out = max(size(u) for u, _ in cols.values())
        for i, c, c2, case in solver.events:
            if case == 1:
                continue
            (u, s), (u2, s2) = cols[c], cols[c2]
            g = math.gcd(s2, self.factor[case] * s)
            out = max(out, abs(s2 // g) * size(self.image(i, case, u)),
                      abs(self.factor[case] * s // g) * size(u2))
        return out

    def residuals(self, solver, cols, events=None):
        """Per event (of solver.events, or of events), its two sides on the
        columns, image s_c2 - factor s_c u_c2, exactly, zeros left out."""
        out = []
        for i, c, c2, case in solver.events if events is None else events:
            (u, s), (u2, s2) = cols[c], cols[c2]
            res = {rl: v * s2 for rl, v in self.image(i, case, u).items()}
            for rl, v in u2.items():
                res[rl] = res.get(rl, 0) - self.factor[case] * s * v
            out.append({rl: v for rl, v in res.items() if v})
        return out

    def violations(self, solver, cols, events=None):
        """The positions of every event (of solver.events, or of events) that
        the columns break."""
        return [pos for pos, res in enumerate(self.residuals(solver, cols, events)) if res]


def class_roots(classes):
    """The dense 0/1 roots of a partition, classes[rl] the class of row rl."""
    return [[int(k == cls) for cls in classes] for k in range(max(classes) + 1)]


def packed_partitions(table, table_p, q0):
    """Check the 0/1 roots of two partitions of the rows of one pair as solve
    checks its root-loop classes: per partition, yield the solver, the
    roots, their pack, its columns and every event it breaks.  The
    singleton partition spans the whole root space, which breaks a loop
    at the root wherever that loop moves a row; the root-loop classes come
    second and break nothing.  q0 is a Fraction, or coeff.Q for the
    symbolic mode."""
    solver = _PairSolver(table, table_p, q0, (0, 0))
    for classes in (list(range(solver.m)), solver._classes()):
        pack = solver._pack_roots(classes)
        bad, cols = solver._verify(pack, keep=True, limit=None)
        yield solver, class_roots(classes), pack, cols, bad


def pair_classes(n, r, gens=None):
    classes = _component_classes(n, r, tuple(range(1, n)) if gens is None else gens)
    return [(table, table_p) for table in classes for table_p in classes]


def flagged_by_reference(ref, solver, roots, events=None):
    """The events (of solver.events, or of events) that some root breaks
    on the reference path."""
    flagged = set()
    for y in roots:
        flagged.update(ref.violations(solver, ref.propagate(solver, ref.clear(y)), events))
    return flagged


PACK_Q = DEFAULT_Q_VALUES + HARD_Q


def check_packed_against_reference(n, r, q0, ref_class):
    """The pack of each partition fails an event exactly when some root
    does on the reference path, and fails one whenever some root breaks
    any incidence, an equation the solve leaves out included; solve, which
    stops at the first, is handed the first in the order checked.  Returns
    how many packs failed."""
    failing = 0
    for table, table_p in pair_classes(n, r):
        ref = ref_class(table_p, q0)
        for solver, roots, pack, _, bad in packed_partitions(table, table_p, q0):
            failing += bool(bad)
            full = incidences(solver)
            broken = {full[pos] for pos in flagged_by_reference(ref, solver, roots, full)}
            assert sorted(bad) == [pos for pos, e in enumerate(solver.events) if e in broken]
            assert bool(bad) == bool(broken)
            first, left = solver._verify(pack)
            assert first == bad[:1]
            if not bad:  # a full pass drops each column after its last use
                assert left == [None] * len(left)
        assert not bad  # the root-loop classes, checked last, break nothing
    return failing


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_packed_check_matches_per_candidate_reference(n, r):
    failing = sum(check_packed_against_reference(n, r, q0, Reference) for q0 in PACK_Q)
    # at n <= 2, T_1 moves every tensor: there is no loop, and even the
    # singletons pass
    assert failing or n <= 2


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_packed_width_covers_every_field(n, r):
    for q0 in PACK_Q:
        for table, table_p in pair_classes(n, r):
            ref = Reference(table_p, q0)
            for solver, roots, pack, cols, _ in packed_partitions(table, table_p, q0):
                _, W, d = pack
                assert d == len(roots)
                fields = [[_unpack(v, W, d) for v in u] for u in cols]
                largest = 0
                for k, y in enumerate(roots):
                    ref_cols = ref.propagate(solver, ref.clear(y))
                    for c, (u, _) in ref_cols.items():
                        # the packed column holds root k's column as field k
                        assert [f[k] for f in fields[c]] == [u.get(rl, 0) for rl in range(solver.m)]
                    largest = max(largest, ref.largest(solver, ref_cols))
                assert largest < 2 ** (W - 1)


class SymbolicReference(Reference):
    """The Q(q) path without packing: each root propagated on its own in
    sparse columns of integer polynomials at a = q and b = 1, and every
    event checked over Z[q], which holds it exactly when Q(q) does."""

    def __init__(self, table_p, q0=Q):
        super().__init__(table_p, q0)

    def largest(self, solver, cols):
        """The largest |coefficient| in any column and on either side of any
        event but a loop (see Reference.largest); the multipliers are powers
        of q, which leave coefficients as they are."""
        def size(u):
            return max((abs(x) for v in u.values() for _, x in v.terms), default=0)

        out = max(size(u) for u, _ in cols.values())
        for i, c, c2, case in solver.events:
            if case != 1:
                out = max(out, size(self.image(i, case, cols[c][0])), size(cols[c2][0]))
        return out


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_packed_check_over_q_of_q_matches_sparse_reference(n, r):
    # the integer check at q = 2^K fails an event exactly when some root
    # fails it over Q(q)
    assert check_packed_against_reference(n, r, Q, SymbolicReference) or n <= 2


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_packed_width_over_q_of_q_covers_every_coefficient(n, r):
    for table, table_p in pair_classes(n, r):
        ref = SymbolicReference(table_p)
        for solver, roots, pack, cols, _ in packed_partitions(table, table_p, Q):
            _, W, d = pack
            K = solver.K
            assert (solver.a, solver.b) == (1 << K, 1) and d == len(roots)
            ref_int = Reference(table_p, Fraction(solver.a))
            fields = [[_unpack(v, W, d) for v in u] for u in cols]
            largest = largest_int = 0
            for k, y in enumerate(roots):
                ref_cols = ref.propagate(solver, ref.clear(y))
                for c, (u, _) in ref_cols.items():
                    for rl in range(solver.m):
                        # field k of the packed column is the polynomial
                        # column's entry at q = 2^K, and its base-2^K digits
                        # are that entry's coefficients
                        f = fields[c][rl][k]
                        digits = _unpack(f, K, f.bit_length() // K + 2)
                        assert LaurentPoly(enumerate(digits)) == u.get(rl, ZERO)
                largest = max(largest, ref.largest(solver, ref_cols))
                # and the integer fields stay within the width W at q = 2^K
                ref_int_cols = ref_int.propagate(solver, ref_int.clear(y))
                largest_int = max(largest_int, ref_int.largest(solver, ref_int_cols))
            assert largest < 2 ** (K - 1)
            assert largest_int < 2 ** (W - 1)


# ---------------------------------------------------------------------------
# the root-loop classes against elimination of the root loops' full rows

def root_loop_elimination(solver, ref):
    """Pivot-one elimination of the m rows b A_i - a of every loop at the
    root, from ref's maps: (rows, nullspace) over Q by linalg.Echelon,
    over Q(q) by the test helper FieldEchelon on Ref."""
    rows = [row for i, c, c2, _ in solver.events if c == c2 == 0 for row in ref.loop_rows(i)]
    if isinstance(ref, SymbolicReference):
        field = FieldEchelon(solver.m, REF_ONE)
        for row in rows:
            field.add({cl: Ref.from_laurent(v) for cl, v in row.items()})
        return field.rows, field.nullspace()
    ech = Echelon(solver.m, Fraction(1))
    for row in rows:
        ech.add(row)
    return ech.rows, ech.nullspace()


def check_root_classes(table, table_p, q0):
    """The root-loop classes are the reduced echelon form of the root loops:
    a pivot row x_rl - x_top for each row rl below the top (largest row) of
    its class, and the class roots, in order, its nullspace."""
    solver = _PairSolver(table, table_p, q0, (0, 0))
    ref = Reference(table_p, q0) if isinstance(q0, Fraction) else SymbolicReference(table_p, q0)
    classes = solver._classes()
    rows, null = root_loop_elimination(solver, ref)
    top = {k: rl for rl, k in enumerate(classes)}  # the last row of each class
    assert rows == {rl: {rl: 1, top[k]: -1} for rl, k in enumerate(classes) if rl != top[k]}
    assert null == class_roots(classes)


# five q values: generic, negative, and the two roots of unity of order <= 2
ROOT_Q = (Fraction(7, 5), Fraction(2), Fraction(-3, 2), Fraction(1), Fraction(-1))


def generator_subsets(n):
    """Every ordered subset of the generators 1 .. n-1, the empty one
    included, and the repeated generator (1, 1)."""
    return [gens for k in range(n) for gens in itertools.permutations(range(1, n), k)] + [(1, 1)]


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_root_classes_span_the_root_loops_nullspace(n, r):
    for q0 in ROOT_Q:
        for table, table_p in pair_classes(n, r):
            check_root_classes(table, table_p, q0)


@pytest.mark.parametrize('n', [2, 3, 4])
def test_root_classes_span_the_root_loops_nullspace_on_generator_subsets(n):
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 81, itertools.count(1)):
            for table, table_p in pair_classes(n, r, gens):
                for q0 in ROOT_Q:
                    check_root_classes(table, table_p, q0)


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_symbolic_echelon_matches_field_elimination(n, r):
    # over Q(q) the echelon of the root loops is the root-loop classes too:
    # elimination over the field Q(q) gives the same pivot rows and nullspace
    for table, table_p in pair_classes(n, r):
        check_root_classes(table, table_p, Q)


def test_verification_rejects_a_perturbed_root():
    # a row split off its class into a class of its own leaves two roots
    # outside the solutions: the pack flags exactly the events the
    # per-root reference flags for them, while merged classes still pass
    # (3, 2): columns on the orbit of e_11, rows on the orbit of e_12,
    # where the solution space is a proper subspace of the root columns
    n, r, gens = 3, 2, (1, 2)
    idxs = all_indices(n, r)
    gid_map = {j: t for t, j in enumerate(idxs)}
    C, Cp = _components(n, r, gens)
    table_p = _table(Cp, idxs, gid_map, gens)
    for q0 in (Fraction(-3, 2), Fraction(7, 5)):
        solver = _PairSolver(_table(C, idxs, gid_map, gens), table_p, q0, (C[0], Cp[0]))
        ref = Reference(table_p, q0)
        classes = solver._classes()
        d = max(classes) + 1
        assert 1 < d < solver.m

        def packed_violations(partition):
            pack = solver._pack_roots(partition)
            assert pack[2] == max(partition) + 1
            return sorted(solver._verify(pack, limit=None)[0])

        assert packed_violations(classes) == []
        assert packed_violations([min(k, d - 2) for k in classes]) == []
        split = 0
        for rl, k in enumerate(classes):
            if classes.count(k) > 1:
                perturbed = classes[:rl] + [d] + classes[rl + 1:]
                alone = flagged_by_reference(ref, solver, class_roots(perturbed))
                assert alone
                assert packed_violations(perturbed) == sorted(alone)
                split += 1
        assert split


def test_a_dropped_two_cycle_is_caught(monkeypatch):
    # a mutant that forgets one 2-cycle of each generator checks its loops
    # on too few rows and joins too few rows into classes: the per-root
    # reference flags events the packed check passes, and the classes no
    # longer give the root loops' nullspace
    cycles = _PairSolver._cycles
    monkeypatch.setattr(_PairSolver, '_cycles', lambda self, i: cycles(self, i)[1:])
    q0 = Fraction(7, 5)
    missed = widened = 0
    for table, table_p in pair_classes(4, 2):
        ref = Reference(table_p, q0)
        for solver, roots, _, _, bad in packed_partitions(table, table_p, q0):
            missed += sorted(bad) != sorted(flagged_by_reference(ref, solver, roots))
        widened += class_roots(solver._classes()) != root_loop_elimination(solver, ref)[1]
    assert missed and widened


def reference_solve(solver, with_basis):
    """A solve that shares no step with _PairSolver.solve: the nullspace of
    the root loops' full rows (root_loop_elimination), each vector
    propagated on its own on the reference path, which must break no
    event; over Z[q] in the symbolic mode, where the scale s, a power of
    q, is a unit of Z[q, q^-1] and is divided out as a shift."""
    if solver.over_q:
        ref = Reference(solver.table_p, Fraction(solver.a, solver.b))
        roots = root_loop_elimination(solver, ref)[1]

        def quotient(v, s):
            return Fraction(v, s)
    else:
        ref = SymbolicReference(solver.table_p)
        null = root_loop_elimination(solver, ref)[1]
        assert all(v.den == REF_ONE.den for y in null for v in y)
        roots = [[LaurentPoly(enumerate(v.num)) for v in y] for y in null]

        def quotient(v, s):
            return v * s ** -1
    all_cols = [ref.propagate(solver, ref.clear(y)) for y in roots]
    assert not any(ref.violations(solver, cols) for cols in all_cols)
    return len(roots), [
        {(rl, c): quotient(v, s) for c, (u, s) in cols.items() for rl, v in u.items()}
        for cols in all_cols] if with_basis else []


@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-3, 2)])
@pytest.mark.parametrize('n,r', [(3, 3), (4, 2), (2, 4)])
def test_unpacked_basis_equals_reference_basis(n, r, q0, monkeypatch):
    packed = commutant_basis(n, r, (q0,), with_basis=True).basis
    monkeypatch.setattr(_PairSolver, 'solve', reference_solve)
    reference = commutant_basis(n, r, (q0,), with_basis=True).basis
    assert len(packed) == len(reference) == qpartition_dim(n, r)
    for X, Y in zip(packed, reference):
        assert X == Y
        assert all(type(v) is Fraction for v in X.values())


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_unpacked_symbolic_basis_equals_reference_basis(n, r, monkeypatch):
    # the base-2^K unpacking against per-root propagation over Z[q],
    # shifted by the unit q^-ea; every entry lies in Z[q, q^-1]
    packed = commutant_basis(n, r, symbolic=True, with_basis=True).basis
    monkeypatch.setattr(_PairSolver, 'solve', reference_solve)
    reference = commutant_basis(n, r, symbolic=True, with_basis=True).basis
    assert len(packed) == len(reference) == qpartition_dim(n, r)
    assert packed == reference
    for X in packed:
        for v in X.values():
            assert type(v) is LaurentPoly and v.integer_form()[2] == 1


# ---------------------------------------------------------------------------
# one equation per 2-cycle off the tree, and none that a commuting square
# implies: the equations a solve leaves out, against every incidence

def incidences(solver):
    """Every incidence (i, c, c2, case) of the column table that is not a
    tree edge: the loops, both ends of each 2-cycle off the tree, and the
    partner end of each tree edge.  solver may be a _ColumnPlan too."""
    tree = {(k, p): c for c, (p, k, _) in solver.par.items()}
    return [(k, c, c2, case) for c, entries in enumerate(solver.table)
            for k, (case, c2) in enumerate(entries) if tree.get((k, c)) != c2]


def partner(incidence):
    """The other end of an incidence's 2-cycle."""
    i, c, c2, case = incidence
    return i, c2, c, 5 - case


def candidates(full):
    """Of the incidences full, those that one equation per 2-cycle leaves:
    every loop, and the case 2 end of each 2-cycle whose partner is in
    full too, that is whose 2-cycle holds no tree edge."""
    present = set(full)
    return [e for e in full if e[3] == 1 or e[3] == 2 and partner(e) in present]


def commuting_pairs(table):
    """Reference for _commuting, vertex by vertex: the pairs {k, l} of
    distinct positions with s_k s_l v == s_l s_k v at every vertex v, and
    the case of each position the same at v and at the other's target."""
    def holds(k, l):
        for entries in table:
            (case_k, tk), (case_l, tl) = entries[k], entries[l]
            if (table[tl][k][1] != table[tk][l][1] or table[tl][k][0] != case_k
                    or table[tk][l][0] != case_l):
                return False
        return True
    return {frozenset(kl) for kl in itertools.combinations(range(len(table[0])), 2) if holds(*kl)}


def as_pairs(masks):
    """The pairs {k, l} of a tuple of commuting bitmasks (see _commuting)."""
    return {frozenset((k, l)) for l, mask in enumerate(masks)
            for k in range(len(masks)) if mask >> k & 1}


def square_deduction(plan, both, premises=(0, 1, 2)):
    """Reference for the events of a solve, on sets of equations: walk the
    candidates in order and drop E(l, c), unless it is a loop at the root,
    when a position k that moves c, with {k, l} in both, has the premises
    E(l, p), E(k, p) and E(k, s_l p) known, p = s_k c; known are the tree
    edges, the candidates walked, and the other end of the 2-cycle of each.
    premises picks the premises asked for, by their place in that list."""
    table = plan.table
    known = set()

    def learn(k, c):
        known.update({(k, c), (k, table[c][k][1])})

    for p, k, _ in plan.par.values():
        learn(k, p)
    events = []
    for l, c, c2, case in candidates(incidences(plan)):
        implied = (c or case != 1) and any(
            all(((l, p), (k, p), (k, table[p][l][1]))[x] in known for x in premises)
            for k, (case_k, p) in enumerate(table[c])
            if case_k != 1 and frozenset((k, l)) in both)
        if not implied:
            events.append((l, c, c2, case))
        learn(l, c)
    return events


def both_tables(solver):
    return commuting_pairs(solver.table) & commuting_pairs(solver.table_p)


def single_root_packs(solver, classes):
    """Each 0/1 root of a partition as a pack of its own, at the width of
    the partition's pack (the width depends on the pair alone)."""
    _, W, d = solver._pack_roots(classes)
    return [([int(k == j) for k in classes], W, 1) for j in range(d)]


def unflagged_breaks(solver, ref, classes):
    """The 0/1 roots of a partition, one at a time, against every
    incidence on the reference path: (broken, unflagged), the incidences
    some root breaks, and the roots that break one while the packed check
    of that root alone flags no event.  Per root, a 2-cycle's two ends
    break together, an end whose partner is a tree edge holds, and each
    event flagged is an incidence that the root breaks."""
    full = incidences(solver)
    broken, unflagged = set(), []
    for j, (y, pack) in enumerate(zip(class_roots(classes), single_root_packs(solver, classes))):
        cols = ref.propagate(solver, ref.clear(y))
        now = {full[pos] for pos in ref.violations(solver, cols, full)}
        assert all((e in now) == (partner(e) in now) for e in full if e[3] != 1)
        flagged = {solver.events[pos] for pos in solver._verify(pack, limit=None)[0]}
        assert flagged <= now
        broken |= now
        if now and not flagged:
            unflagged.append(j)
    return broken, unflagged


def escaped_breaks(solver, ref):
    """The incidences broken by some root that satisfies every event the
    solve checks: a kernel vector of the events, as linear forms in the
    root read off the unit roots on the reference path.  Empty exactly
    when the events cut out the solutions of every incidence, over Q."""
    m, forms = solver.m, {}
    for j in range(m):
        cols = ref.propagate(solver, ref.clear([int(k == j) for k in range(m)]))
        for pos, res in enumerate(ref.residuals(solver, cols)):
            for rl, v in res.items():
                forms.setdefault((pos, rl), {})[j] = v
    ech = Echelon(m, Fraction(1))
    for form in forms.values():
        ech.add(form)
    full = incidences(solver)
    return {full[pos] for _, y in ech.kernel()
            for pos in ref.violations(solver, ref.propagate(solver, ref.clear(y)), full)}


def kept_events_stand_for_all(solver, ref):
    """For the singleton partition, which spans every root, and for the
    root-loop classes: each root that breaks any incidence breaks a kept
    event; over Q, no root that the events leave breaks one either.
    Returns the incidences each partition breaks."""
    found = []
    for classes in (list(range(solver.m)), solver._classes()):
        broken, unflagged = unflagged_breaks(solver, ref, classes)
        assert unflagged == []
        found.append(broken)
    if solver.over_q:
        assert escaped_breaks(solver, ref) == set()
    return found


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_one_equation_per_two_cycle_stands_for_both(n, r):
    # a dropped partner and an equation a commuting square implies are
    # broken only by roots that break a kept event; the root-loop classes
    # break nothing
    for q0 in ROOT_Q:
        for table, table_p in pair_classes(n, r):
            solver = _PairSolver(table, table_p, q0, (0, 0))
            assert kept_events_stand_for_all(solver, Reference(table_p, q0))[1] == set()


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_one_equation_per_two_cycle_stands_for_both_over_q_of_q(n, r):
    for table, table_p in pair_classes(n, r):
        solver = _PairSolver(table, table_p, Q, (0, 0))
        assert kept_events_stand_for_all(solver, SymbolicReference(table_p))[1] == set()


@pytest.mark.parametrize('n', [2, 3, 4])
def test_one_equation_per_square_stands_for_all_on_generator_subsets(n):
    # every ordered generator subset, the repeated generator (1, 1) among
    # them, whose equal positions fail the commuting criterion
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 64, itertools.count(1)):
            for table, table_p in pair_classes(n, r, gens):
                for q0 in (Fraction(7, 5), Fraction(-1)):
                    solver = _PairSolver(table, table_p, q0, (0, 0))
                    assert kept_events_stand_for_all(solver, Reference(table_p, q0))[1] == set()


def mismatched_pair_classes(n, r):
    """Column tables of the generators 1, ..., n-1 against row tables of
    2, 1, 3, ..., n-1, n >= 4: every table has the 2-cycle shape, but
    positions 1 and 2 braid on the columns and commute on the rows, and
    positions 0 and 2 commute on the columns and braid on the rows, so
    the roots break 2-cycle equations, not just loops, and the squares of
    0 and 2 imply nothing."""
    gens_p = (2, 1) + tuple(range(3, n))
    return [(table, table_p) for table in _component_classes(n, r, tuple(range(1, n)))
            for table_p in _component_classes(n, r, gens_p)]


MISMATCHED_GRID = [(n, 2) for n in range(4, 10)] + [(4, 3)]


@pytest.mark.parametrize('n,r', MISMATCHED_GRID)
def test_one_equation_per_two_cycle_stands_for_both_where_they_break(n, r):
    broken = unused = 0
    for q0 in ROOT_Q:
        for table, table_p in mismatched_pair_classes(n, r):
            solver = _PairSolver(table, table_p, q0, (0, 0))
            found = kept_events_stand_for_all(solver, Reference(table_p, q0))
            broken += any(e[3] != 1 for e in found[0] | found[1])
            unused += frozenset((0, 2)) in commuting_pairs(table) - both_tables(solver)
    assert broken and unused


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_one_event_per_two_cycle_off_the_tree(n, r):
    # the candidates: the loops, and one case 2 event for each 2-cycle of C
    # but the |C| - 1 that hold a tree edge; the events: those the
    # reference deduction keeps of them, every loop at the root among them
    for table, table_p in pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        cases = [case for entries in table for case, _ in entries]
        full = candidates(incidences(solver))
        moving = [e for e in full if e[3] != 1]
        assert {e[3] for e in moving} <= {2}
        assert len(moving) == cases.count(2) - (len(table) - 1)
        assert len(full) - len(moving) == cases.count(1)
        assert solver.events == square_deduction(solver.plan, both_tables(solver))
        assert {(i, 0, 0, 1) for i in solver.plan.roots} <= set(solver.events)


@pytest.mark.parametrize('n,r', MISMATCHED_GRID)
def test_events_match_the_reference_deduction_where_the_tables_differ(n, r):
    for table, table_p in mismatched_pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        assert solver.events == square_deduction(solver.plan, both_tables(solver))


@pytest.mark.parametrize('n', [2, 3, 4])
def test_events_match_the_reference_deduction_on_generator_subsets(n):
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 81, itertools.count(1)):
            for table, table_p in pair_classes(n, r, gens):
                solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
                assert solver.events == square_deduction(solver.plan, both_tables(solver))


# per column table of the cell, in the order of the classes, against itself
# as the row table: (|C|, candidates, events kept, columns propagated when
# counting); the work, pinned without timing
KEPT_EVENTS = {
    (4, 2): [(4, 6, 4, 4), (12, 10, 6, 12)],
    (4, 3): [(4, 6, 4, 4), (12, 10, 6, 12), (24, 13, 7, 24)],
    (6, 2): [(6, 20, 8, 6), (30, 76, 16, 24)],
    (10, 2): [(10, 72, 16, 10), (90, 568, 36, 48)],
    (12, 2): [(12, 110, 20, 12), (132, 1090, 46, 60)],
    (5, 3): [(5, 12, 6, 5), (20, 33, 11, 18), (60, 73, 24, 57)],
}


@pytest.mark.parametrize('n,r', list(KEPT_EVENTS))
def test_kept_events_are_pinned(n, r):
    got = []
    for table in _component_classes(n, r, tuple(range(1, n))):
        solver = _PairSolver(table, table, Fraction(7, 5), (0, 0))
        got.append((len(table), len(candidates(incidences(solver))), len(solver.events),
                    len(solver.steps)))
    assert got == KEPT_EVENTS[n, r]


def schedule_faults(solver):
    """What the counting pass gets wrong: a step whose parent is not
    propagated before it, a check that reads a column not yet propagated,
    an event due twice or never, and a step that no check needs (neither
    read by a check nor an ancestor of a column that is)."""
    faults, propagated, ran = [], set(), []
    for c, due, _ in solver.steps:
        if c and solver.par[c][0] not in propagated:
            faults.append(('parent', c))
        propagated.add(c)
        for pos in due:
            ran.append(pos)
            faults += [('read', pos, v) for v in solver.events[pos][1:3] if v not in propagated]
    if sorted(ran) != list(range(len(solver.events))):
        faults.append(('due', sorted(ran)))
    needed = {0} | {v for _, c, c2, _ in solver.events for v in (c, c2)}
    for c in reversed(solver.order[1:]):
        if c in needed:
            needed.add(solver.par[c][0])
    faults += [('extra', c) for c in propagated - needed]
    if solver.rest != [c for c in solver.order if c not in propagated]:
        faults.append(('rest', solver.rest))
    return faults


@pytest.mark.parametrize('n,r', SMALL_GRID + [(10, 2), (12, 2), (5, 3)])
def test_counting_propagates_only_the_columns_a_check_reads(n, r):
    # counting propagates the columns the kept checks read and their tree
    # ancestors, and drops each after its last use; with the basis every
    # column is propagated
    for table, table_p in pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        assert schedule_faults(solver) == []
        pack = solver._pack_roots(solver._classes())
        assert solver._verify(pack) == ([], [None] * len(table))
        bad, cols = solver._verify(pack, keep=True)
        assert bad == [] and None not in cols


def unchecked_events(self, commuting):
    """A mutant _ColumnPlan._collect_events: the candidates, with neither
    table's 2-cycle shape checked and no square used."""
    self.moving = set()
    return candidates(incidences(self))


@pytest.mark.parametrize('table, table_p', [(MALFORMED_COLUMN_TABLES[0], TWO_CYCLE),
                                            (MOVING_COLUMN_TABLE, ROW_TABLE_MALFORMED_AT_MOVING)],
                         ids=['column', 'row'])
def test_unchecked_shapes_certify_a_broken_equation(table, table_p, monkeypatch):
    # without the shape checks a malformed table solves, and its root-loop
    # classes break an incidence whose partner the pruning dropped
    monkeypatch.setattr(_ColumnPlan, '_collect_events', unchecked_events)
    q0 = Fraction(2)
    solver = _PairSolver(table, table_p, q0, (0, 3))
    assert solver.solve(with_basis=False)[0] == 2
    ref = Reference(table_p, q0)
    full = incidences(solver)
    broken = {full[pos] for y in class_roots(solver._classes())
              for pos in ref.violations(solver, ref.propagate(solver, ref.clear(y)), full)}
    assert broken and not broken & set(solver.events)


def corrupted(table, v, k, entry):
    """table with entry [v][k] replaced."""
    return tuple(tuple(entry if (w, i) == (v, k) else e for i, e in enumerate(entries))
                 for w, entries in enumerate(table))


def test_malformed_tables_raise_with_the_squares_in_use():
    # the big table of (4, 2), where positions 0 and 2 commute: each
    # equation that a square drops, its entry made malformed on the
    # columns or on the rows, still raises
    table = max(_component_classes(4, 2, (1, 2, 3)), key=len)
    solver = _PairSolver(table, table, Fraction(2), (0, 3))
    dropped = [e for e in candidates(incidences(solver)) if e not in solver.events]
    assert solver.plan.commuting[0] == 1 << 2 and dropped
    for k, c, c2, case in dropped:
        bad = corrupted(table, c, k, (2, c2)) if case == 1 else corrupted(table, c2, k, (2, c))
        with pytest.raises(SolverInvariantError, match='neither fixes column'):
            _PairSolver(bad, table, Fraction(2), (0, 3))
        with pytest.raises(SolverInvariantError, match='neither fixes row'):
            _PairSolver(table, bad, Fraction(2), (0, 3)).solve(with_basis=False)


# small tables of the 2-cycle shape, far from any letter action: there the
# module theory does not make every equation but the root loops redundant,
# so an event dropped without a proof lets roots through

@functools.cache
def small_table_pairs(count=2000, seed=0):
    """count seeded pairs (table, table_p) of tables with two or three
    positions, each position a 2-cycle-shaped column (two_cycle_columns):
    a connected column table on three to five vertices, a row table on two
    to four."""
    rng = random.Random(seed)
    columns = {m: list(two_cycle_columns(m)) for m in range(2, 6)}
    pairs = []
    while len(pairs) < count:
        k, m, m_p = rng.randint(2, 3), rng.randint(3, 5), rng.randint(2, 4)
        table = tuple(zip(*(rng.choice(columns[m]) for _ in range(k))))
        if len(_bfs(table)[0]) == m:
            pairs.append((table, tuple(zip(*(rng.choice(columns[m_p]) for _ in range(k))))))
    return pairs


@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-1), Fraction(1)], ids=str)
def test_kept_events_cut_out_the_solutions_on_small_tables(q0):
    for table, table_p in small_table_pairs():
        solver = _PairSolver(table, table_p, q0, (0, 0))
        assert solver.events == square_deduction(solver.plan, both_tables(solver))
        kept_events_stand_for_all(solver, Reference(table_p, q0))


def count_escaped(q0=Fraction(7, 5)):
    """How many small table pairs have a root that satisfies every event
    the solve checks and breaks some incidence."""
    return sum(bool(escaped_breaks(_PairSolver(table, table_p, q0, (0, 0)),
                                   Reference(table_p, q0)))
               for table, table_p in small_table_pairs())


# mutants of the reduction, each caught by the checks above

def test_dropped_two_cycle_events_are_caught(monkeypatch):
    # a mutant that checks the loops alone lets roots through
    collect = _ColumnPlan._collect_events
    monkeypatch.setattr(_ColumnPlan, '_collect_events', lambda self, commuting: [
        e for e in collect(self, commuting) if e[3] == 1])
    assert count_escaped()


def test_ignoring_the_row_tables_squares_is_caught(monkeypatch):
    # a mutant that takes the squares of the column table alone
    init = _RowState.__init__

    def all_commute(self, table_p):
        init(self, table_p)
        self.commuting = (-1,) * len(self.commuting)
    monkeypatch.setattr(_RowState, '__init__', all_commute)
    assert count_escaped()


def test_a_dropped_square_premise_is_caught(monkeypatch):
    # a mutant that does not ask for E(k, s_l p)
    monkeypatch.setattr(_ColumnPlan, '_collect_events', lambda self, commuting: square_deduction(
        self, as_pairs(commuting), premises=(0, 1)))
    assert count_escaped()


def test_a_dropped_root_loop_is_caught(monkeypatch):
    collect = _ColumnPlan._collect_events
    monkeypatch.setattr(_ColumnPlan, '_collect_events', lambda self, commuting: [
        e for e in collect(self, commuting) if e[1:] != (0, 0, 1)])
    assert count_escaped()


def test_a_skipped_column_is_caught(monkeypatch):
    # a mutant schedule that propagates only the first column of each check
    schedule = _ColumnPlan._schedule
    monkeypatch.setattr(_ColumnPlan, '_schedule', lambda self, events: schedule(
        self, [(i, c, c, case) for i, c, _, case in events]))
    faults = []
    for table, table_p in pair_classes(4, 2):
        faults += schedule_faults(_PairSolver(table, table_p, Fraction(7, 5), (0, 0)))
    assert any(fault[0] == 'read' for fault in faults)


# ---------------------------------------------------------------------------
# the commuting criterion against the matrices

def table_matrix(table, k):
    """The matrix of position k of a table over Z[q, q^-1], as sparse
    columns v -> {row: coefficient}: q e_v in case 1, e_t in case 2, and
    q e_t + (q - 1) e_v in case 3."""
    cols = {}
    for v, entries in enumerate(table):
        case, t = entries[k]
        cols[v] = {v: Q} if case == 1 else {t: ONE} if case == 2 else {t: Q, v: Q - ONE}
    return cols


def two_cycle_columns(m):
    """Every generator column of the 2-cycle shape on m vertices: each
    matching, each of its 2-cycles either way round."""
    def matchings(vs):
        if not vs:
            yield []
            return
        v, rest = vs[0], vs[1:]
        yield from matchings(rest)
        for t in rest:
            for more in matchings([w for w in rest if w != t]):
                yield [(v, t)] + more
    for matching in matchings(list(range(m))):
        for turns in itertools.product((False, True), repeat=len(matching)):
            column = [(1, v) for v in range(m)]
            for (v, t), turn in zip(matching, turns):
                v, t = (t, v) if turn else (v, t)
                column[v], column[t] = (2, t), (3, v)
            yield tuple(column)


def test_commuting_criterion_implies_commuting_matrices_on_every_small_table():
    # every two-position table of the 2-cycle shape on up to five vertices
    found = 0
    for m in range(1, 6):
        columns = list(two_cycle_columns(m))
        for first, second in itertools.product(columns, repeat=2):
            table = tuple(zip(first, second))
            masks = _commuting(table)
            assert as_pairs(masks) == commuting_pairs(table)
            if masks[0]:
                found += 1
                A, B = table_matrix(table, 0), table_matrix(table, 1)
                assert _compose_columns(A, B) == _compose_columns(B, A)
    assert found


@pytest.mark.parametrize('n,r', [(n, r) for n in range(2, 6) for r in range(1, 4)
                                 if n ** r <= 125])
def test_commuting_criterion_against_generator_products(n, r):
    # a pair the criterion finds commutes on the component as the products
    # of the generator matrices over Z[q, q^-1] say; every pair of
    # generators two or more apart is found
    gens = tuple(range(1, n))
    idxs = all_indices(n, r)
    mats = [generator_matrix(n, r, i) for i in gens]
    for table, comps in _component_classes(n, r, gens).items():
        pairs = commuting_pairs(table)
        assert as_pairs(_commuting(table)) == pairs
        C = [idxs[g] for g in comps[0]]
        for k, l in itertools.combinations(range(len(gens)), 2):
            if gens[l] - gens[k] >= 2:
                assert frozenset((k, l)) in pairs
            if frozenset((k, l)) in pairs:
                assert (_compose_columns(mats[k], {j: mats[l][j] for j in C})
                        == _compose_columns(mats[l], {j: mats[k][j] for j in C}))


# ---------------------------------------------------------------------------
# the traffic: one verify round per pair class, passing

def verify_rounds(monkeypatch):
    """Patch _PairSolver._verify to record, per call, whether it flagged an
    event."""
    verify = _PairSolver._verify
    flagged = []

    def counted(self, pack, *args, **kwargs):
        bad, cols = verify(self, pack, *args, **kwargs)
        flagged.append(bool(bad))
        return bad, cols

    monkeypatch.setattr(_PairSolver, '_verify', counted)
    return flagged


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_every_pair_class_passes_in_one_round(n, r, monkeypatch):
    # each pair class is verified once per q value, and passes
    flagged = verify_rounds(monkeypatch)
    for q0 in DEFAULT_Q_VALUES + (Fraction(1), Fraction(-1)):
        flagged.clear()
        report = commutant_basis(n, r, (q0,))
        assert report.dim == qpartition_dim(n, r)
        assert flagged == [False] * report.pair_classes, q0


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_every_symbolic_pair_class_passes_in_one_round(n, r, monkeypatch):
    flagged = verify_rounds(monkeypatch)
    report = commutant_basis(n, r, symbolic=True)
    assert report.dim == qpartition_dim(n, r)
    assert flagged == [False] * report.pair_classes


@pytest.mark.parametrize('n', [2, 3, 4])
def test_every_generator_subset_certifies(n):
    # solve raises if an event breaks on the root-loop classes; none does
    # on any ordered generator subset, specialised or over Q(q)
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 64, itertools.count(1)):
            report = commutant_basis(n, r, (Fraction(7, 5), Fraction(-1), Fraction(1)),
                                     generators=gens)
            assert report.agree, (gens, r)
            assert commutant_basis(n, r, symbolic=True, generators=gens).dim == report.dim
