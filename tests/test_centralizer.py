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
    _braids,
    _commuting,
    _component_classes,
    _scaled_generator,
    _shifted,
    _total_dim,
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
# a loop off the root, which the relations drop, made a case 2 entry to itself
big = max(_component_classes(4, 2, (1, 2, 3)), key=len)
k, c = next((k, c) for c, entries in enumerate(big) for k, entry in enumerate(entries)
            if entry == (1, c) and c)
bad = tuple(tuple((2, c) if (w, i) == (c, k) else e for i, e in enumerate(entries))
            for w, entries in enumerate(big))
for table, table_p in ((bad, big), (big, bad)):
    try:
        _PairSolver(table, table_p, Fraction(2), (0, 0)).solve(with_basis=False)
    except SolverInvariantError as exc:
        print('malformed table under the relations raised:', 'neither fixes' in str(exc))
# a row table malformed at a position that moves no column, read by the
# braid reader as that position fails to commute with the other
try:
    _PairSolver((((2, 1), (1, 0)), ((3, 0), (1, 1))), (((2, 1), (2, 1)), ((3, 0), (2, 0))),
                Fraction(2), (0, 0))
except SolverInvariantError as exc:
    print('malformed table at the braid reader raised:', 'position 1 neither fixes row' in str(exc))
# a column table of the generators 1, 2, 3 against a row table of 2, 1, 3:
# the relations leave equations, and the classes break the first
mismatched = [tuple(_component_classes(4, 2, gens))[0] for gens in ((1, 2, 3), (2, 1, 3))]
try:
    _PairSolver(*mismatched, Fraction(2), (0, 0)).solve(with_basis=False)
except SolverInvariantError as exc:
    print('broken leftover raised:', exc.pair, exc.event)
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
    print('broken root-loop class raised:', exc.pair, exc.event)
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
                                               'malformed table under the relations raised: True',
                                               'malformed table under the relations raised: True',
                                               'malformed table at the braid reader raised: True',
                                               'broken leftover raised: (0, 0) (2, 1, 1, 1)',
                                               'broken root-loop class raised: (0, 0) (1, 0, 0, 1)']


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
# the solve's checks and basis propagation against the per-root path

class Reference:
    """The per-root path over Q: each root a column of its own, propagated
    in sparse dict columns with their own scales, every equation
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

    def residuals(self, solver, cols, events):
        """Per equation of events, its two sides on the columns, image s_c2 -
        factor s_c u_c2, exactly, zeros left out."""
        out = []
        for i, c, c2, case in events:
            (u, s), (u2, s2) = cols[c], cols[c2]
            res = {rl: v * s2 for rl, v in self.image(i, case, u).items()}
            for rl, v in u2.items():
                res[rl] = res.get(rl, 0) - self.factor[case] * s * v
            out.append({rl: v for rl, v in res.items() if v})
        return out

    def violations(self, solver, cols, events):
        """The positions of every equation of events that the columns break."""
        return [pos for pos, res in enumerate(self.residuals(solver, cols, events)) if res]


def root_loops(solver):
    """The loops at the root, which the root-loop classes hold."""
    return [(i, 0, 0, 1) for i in solver.plan.roots]


def checked(solver):
    """The equations a solve checks: the root loops, on the classes, and
    the events that the relations leave."""
    return root_loops(solver) + solver.events


def class_roots(classes):
    """The dense 0/1 roots of a partition, classes[rl] the class of row rl."""
    return [[int(k == cls) for cls in classes] for k in range(max(classes) + 1)]


def pair_classes(n, r, gens=None):
    classes = _component_classes(n, r, tuple(range(1, n)) if gens is None else gens)
    return [(table, table_p) for table in classes for table_p in classes]


def broken_by_reference(ref, solver, roots):
    """The incidences that some root breaks on the reference path."""
    full = incidences(solver)
    return {full[pos] for y in roots
            for pos in ref.violations(solver, ref.propagate(solver, ref.clear(y)), full)}


def solve_on(solver, classes, with_basis=False):
    """solve with its root-loop classes replaced by a partition of the rows:
    the event it raises, or None with the blocks."""
    solver._classes = lambda: classes
    try:
        return None, solver.solve(with_basis)[1]
    except SolverInvariantError as exc:
        return exc.event, None
    finally:
        del solver._classes


PACK_Q = DEFAULT_Q_VALUES + HARD_Q


def check_packed_against_reference(n, r, q0, ref_class):
    """On the singleton partition, which spans every root, and on the
    root-loop classes, the solve's checks fail exactly when some root of
    the partition breaks an incidence on the reference path, and the
    event they name is one of those; the classes break nothing.  Returns
    how many partitions failed."""
    failing = 0
    for table, table_p in pair_classes(n, r):
        ref = ref_class(table_p, q0)
        solver = _PairSolver(table, table_p, q0, (0, 0))
        for classes in (list(range(solver.m)), solver._classes()):
            broken = broken_by_reference(ref, solver, class_roots(classes))
            raised, _ = solve_on(solver, classes, with_basis=True)
            assert (raised is None) != bool(broken) and raised in broken | {None}
            failing += raised is not None
        assert not broken  # the root-loop classes, checked last
    return failing


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_packed_check_matches_per_candidate_reference(n, r):
    failing = sum(check_packed_against_reference(n, r, q0, Reference) for q0 in PACK_Q)
    # at n <= 2, T_1 moves every tensor: there is no loop, and even the
    # singletons pass
    assert failing or n <= 2


def reference_blocks(ref, solver, classes, quotient):
    """The blocks of a partition's roots on the reference path, each entry
    quotient(u_c[rl], s_c)."""
    return [{(rl, c): quotient(v, s) for c, (u, s) in ref.propagate(solver, ref.clear(y)).items()
             for rl, v in u.items()}
            for y in class_roots(classes)]


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_packed_width_covers_every_field(n, r):
    # each root's basis block is its reference column divided by the scales
    for q0 in PACK_Q:
        for table, table_p in pair_classes(n, r):
            ref = Reference(table_p, q0)
            solver = _PairSolver(table, table_p, q0, (0, 0))
            for classes in (list(range(solver.m)), solver._classes()):
                assert solver._basis(classes) == reference_blocks(ref, solver, classes, Fraction)


class SymbolicReference(Reference):
    """The Q(q) path without packing: each root propagated on its own in
    sparse columns of integer polynomials at a = q and b = 1, and every
    equation checked over Z[q], which holds it exactly when Q(q) does."""

    def __init__(self, table_p, q0=Q):
        super().__init__(table_p, q0)


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_packed_check_over_q_of_q_matches_sparse_reference(n, r):
    # the checks over Q(q) fail exactly when some root fails an incidence
    # there, made in Z[q]
    assert check_packed_against_reference(n, r, Q, SymbolicReference) or n <= 2


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_packed_width_over_q_of_q_covers_every_coefficient(n, r):
    # over Z[q], each root's block is its reference column shifted down by
    # the unit s_c = q^ea, so every entry lies in Z[q, q^-1]
    for table, table_p in pair_classes(n, r):
        ref = SymbolicReference(table_p)
        solver = _PairSolver(table, table_p, Q, (0, 0))
        assert (solver.a, solver.b) == (Q, ONE)
        for classes in (list(range(solver.m)), solver._classes()):
            assert solver._basis(classes) == reference_blocks(ref, solver, classes,
                                                              lambda v, s: v * s ** -1)


# ---------------------------------------------------------------------------
# the root-loop classes against elimination of the root loops' full rows

def root_loop_elimination(solver, ref):
    """Pivot-one elimination of the m rows b A_i - a of every loop at the
    root, from ref's maps: (rows, nullspace) over Q by linalg.Echelon,
    over Q(q) by the test helper FieldEchelon on Ref."""
    rows = [row for i, _, _, _ in root_loops(solver) for row in ref.loop_rows(i)]
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
    # outside the solutions: the solve's checks reject exactly the
    # partitions whose roots the reference finds breaking an incidence,
    # while merged classes still pass
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
        assert solve_on(solver, classes)[0] is None
        assert solve_on(solver, [min(k, d - 2) for k in classes])[0] is None
        split = 0
        for rl, k in enumerate(classes):
            if classes.count(k) > 1:
                perturbed = classes[:rl] + [d] + classes[rl + 1:]
                broken = broken_by_reference(ref, solver, class_roots(perturbed))
                assert broken and solve_on(solver, perturbed)[0] in broken
                split += 1
        assert split


def test_a_dropped_two_cycle_is_caught(monkeypatch):
    # a mutant that forgets one 2-cycle of each generator checks the root
    # loops on too few rows and joins too few rows into classes: the
    # checks pass roots that the reference finds breaking an incidence,
    # and the classes no longer give the root loops' nullspace
    cycles = _PairSolver._cycles
    monkeypatch.setattr(_PairSolver, '_cycles', lambda self, i: cycles(self, i)[1:])
    q0 = Fraction(7, 5)
    missed = widened = 0
    for table, table_p in pair_classes(4, 2):
        ref = Reference(table_p, q0)
        solver = _PairSolver(table, table_p, q0, (0, 0))
        for classes in (list(range(solver.m)), solver._classes()):
            broken = broken_by_reference(ref, solver, class_roots(classes))
            missed += bool(broken) and solve_on(solver, classes)[0] is None
        widened += class_roots(solver._classes()) != root_loop_elimination(solver, ref)[1]
    assert missed and widened


def reference_solve(solver, with_basis):
    """A solve that shares no step with _PairSolver.solve: the nullspace of
    the root loops' full rows (root_loop_elimination), each vector
    propagated on its own on the reference path, which must break no
    incidence; over Z[q] in the symbolic mode, where the scale s, a power
    of q, is a unit of Z[q, q^-1] and is divided out as a shift."""
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
    assert not any(ref.violations(solver, cols, incidences(solver)) for cols in all_cols)
    return len(roots), [
        {(rl, c): quotient(v, s) for c, (u, s) in cols.items() for rl, v in u.items()}
        for cols in all_cols] if with_basis else []


# q = 1, where b T_i has no diagonal part, and q = -1, the non-generic point
@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-3, 2), Fraction(1), Fraction(-1),
                                Fraction(2)])
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
    # the basis against per-root propagation over Z[q], shifted by the
    # unit q^-ea; every entry lies in Z[q, q^-1]
    packed = commutant_basis(n, r, symbolic=True, with_basis=True).basis
    monkeypatch.setattr(_PairSolver, 'solve', reference_solve)
    reference = commutant_basis(n, r, symbolic=True, with_basis=True).basis
    assert len(packed) == len(reference) == qpartition_dim(n, r)
    assert packed == reference
    for X in packed:
        for v in X.values():
            assert type(v) is LaurentPoly and v.integer_form()[2] == 1


# ---------------------------------------------------------------------------
# one equation per 2-cycle off the tree, and none that a square or a
# hexagon implies: the equations a solve leaves out, against every incidence

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
    """The pairs {k, l} of a tuple of bitmasks (see _commuting)."""
    return {frozenset((k, l)) for l, mask in enumerate(masks)
            for k in range(len(masks)) if mask >> k & 1}


def table_matrix(table, k):
    """The matrix of position k of a table over Z[q, q^-1], as sparse
    columns v -> {row: coefficient}: q e_v in case 1, e_t in case 2, and
    q e_t + (q - 1) e_v in case 3."""
    cols = {}
    for v, entries in enumerate(table):
        case, t = entries[k]
        cols[v] = {v: Q} if case == 1 else {t: ONE} if case == 2 else {t: Q, v: Q - ONE}
    return cols


def braid_holds(table, k, l):
    """Reference for _braids: A_k A_l A_k == A_l A_k A_l as matrix products
    over Z[q, q^-1]."""
    A, B = table_matrix(table, k), table_matrix(table, l)
    return (_compose_columns(A, _compose_columns(B, A))
            == _compose_columns(B, _compose_columns(A, B)))


def braiding_pairs(solver):
    """The pairs {k, l} that do not commute on both tables (by the
    criterion) and braid on both (by the matrices)."""
    both = commuting_pairs(solver.table) & commuting_pairs(solver.table_p)
    return {frozenset(kl) for kl in itertools.combinations(range(len(solver.table[0])), 2)
            if frozenset(kl) not in both and braid_holds(solver.table, *kl)
            and braid_holds(solver.table_p, *kl)}


def hexagon_terms(table, k, l, p):
    """Reference for the hexagon of positions k and l at vertex p: the
    terms {(w, j, v): c} of c A'_w R_j e_v, from the matrices over
    Z[q, q^-1], zeros dropped."""
    mats = {k: table_matrix(table, k), l: table_matrix(table, l)}
    terms = {}
    for sign, x, y in ((1, k, l), (-1, l, k)):
        ax = mats[x][p]
        ayax = {}
        for v, c in ax.items():
            for t, c2 in mats[y][v].items():
                ayax[t] = ayax.get(t, ZERO) + c * c2
        for w, j, u in (((), x, ayax), ((x,), y, ax), ((x, y), x, {p: ONE})):
            for v, c in u.items():
                terms[w, j, v] = terms.get((w, j, v), ZERO) + c * sign
    return {key: c for key, c in terms.items() if c}


def orbit_of(table, k, l, c):
    """The vertices that the target maps of positions k and l reach from c."""
    seen = [c]
    for v in seen:
        seen += [t for t in (table[v][k][1], table[v][l][1]) if t not in seen]
    return seen


def relation_deduction(solver, square_premises=(0, 1, 2), hexagon_drops=lambda w: False):
    """Reference for the events of a solve, on sets of equations: walk the
    candidates in order and drop E(l, c) when a square of l and a position
    k that moves c, with {k, l} commuting on both tables, has the premises
    E(l, p), E(k, p) and E(k, s_l p) known, p = s_k c; or when a hexagon of
    l and a position k braiding with it on both tables, at a vertex of the
    orbit of c, has E(l, c) or its partner as its only unknown term, with
    coefficient +-q^e.  Known are the tree edges, the loops at the root,
    the loops of the positions that fix every row, the candidates walked,
    and the other end of the 2-cycle of each.  square_premises picks the
    square's premises asked for, by their place in that list;
    hexagon_drops(w) says whether hexagon terms of the word w count as
    known."""
    table, table_p = solver.table, solver.table_p
    both = commuting_pairs(table) & commuting_pairs(table_p)
    braid = braiding_pairs(solver)
    known = set()

    def learn(k, c):
        known.update({(k, c), (k, table[c][k][1])})

    for p, k, _ in solver.par.values():
        learn(k, p)
    for k in range(len(table[0])):
        if all(entries[k] == (1, v) for v, entries in enumerate(table_p)):
            known.update((k, c) for c, entries in enumerate(table) if entries[k] == (1, c))
        if table[0][k] == (1, 0):
            learn(k, 0)

    def hexagon(l, c, c2):
        for k in range(len(table[0])):
            if frozenset((k, l)) not in braid:
                continue
            for p in orbit_of(table, k, l, c):
                unknown = [(j, v, coef) for (w, j, v), coef in hexagon_terms(table, k, l, p).items()
                           if (j, v) not in known and not hexagon_drops(w)]
                if (len(unknown) == 1 and unknown[0][:2] in ((l, c), (l, c2))
                        and len(unknown[0][2].terms) == 1 and abs(unknown[0][2].terms[0][1]) == 1):
                    return True
        return False

    events = []
    for l, c, c2, case in candidates(incidences(solver)):
        if (l, c) in known:
            continue
        implied = any(
            all(((l, p), (k, p), (k, table[p][l][1]))[x] in known for x in square_premises)
            for k, (case_k, p) in enumerate(table[c])
            if case_k != 1 and frozenset((k, l)) in both) or hexagon(l, c, c2)
        if not implied:
            events.append((l, c, c2, case))
        learn(l, c)
    return events


def both_tables(solver):
    return commuting_pairs(solver.table) & commuting_pairs(solver.table_p)


def unflagged_breaks(solver, ref, classes):
    """The 0/1 roots of a partition, one at a time, against every
    incidence on the reference path: (broken, unflagged), the incidences
    some root breaks, and the roots that break one while they break no
    equation the solve checks (checked).  Per root, a 2-cycle's two ends
    break together, and an end whose partner is a tree edge holds."""
    full = incidences(solver)
    broken, unflagged = set(), []
    for j, y in enumerate(class_roots(classes)):
        cols = ref.propagate(solver, ref.clear(y))
        now = {full[pos] for pos in ref.violations(solver, cols, full)}
        assert all((e in now) == (partner(e) in now) for e in full if e[3] != 1)
        flagged = ref.violations(solver, cols, checked(solver))
        broken |= now
        if now and not flagged:
            unflagged.append(j)
    return broken, unflagged


def escaped_breaks(solver, ref):
    """The incidences broken by some root that satisfies every equation the
    solve checks: a kernel vector of those equations, as linear forms in
    the root read off the unit roots on the reference path.  Empty exactly
    when they cut out the solutions of every incidence, over Q."""
    m, forms = solver.m, {}
    for j in range(m):
        cols = ref.propagate(solver, ref.clear([int(k == j) for k in range(m)]))
        for pos, res in enumerate(ref.residuals(solver, cols, checked(solver))):
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
    root-loop classes: each root that breaks any incidence breaks an
    equation the solve checks; over Q, no root in the kernel of those
    equations breaks one either.  Returns the incidences each partition
    breaks."""
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
    # a dropped partner and an equation that a square or a hexagon implies
    # are broken only by roots that break a checked equation; the
    # root-loop classes break nothing
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
    # reference deduction keeps of them, none on these tables, and never
    # a loop at the root, which the classes hold
    for table, table_p in pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        cases = [case for entries in table for case, _ in entries]
        full = candidates(incidences(solver))
        moving = [e for e in full if e[3] != 1]
        assert {e[3] for e in moving} <= {2}
        assert len(moving) == cases.count(2) - (len(table) - 1)
        assert len(full) - len(moving) == cases.count(1)
        assert solver.events == relation_deduction(solver) == []
        assert set(root_loops(solver)) <= set(full)


@pytest.mark.parametrize('n,r', MISMATCHED_GRID)
def test_events_match_the_reference_deduction_where_the_tables_differ(n, r):
    for table, table_p in mismatched_pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        assert solver.events == relation_deduction(solver)


@pytest.mark.parametrize('n', [2, 3, 4])
def test_events_match_the_reference_deduction_on_generator_subsets(n):
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 81, itertools.count(1)):
            for table, table_p in pair_classes(n, r, gens):
                solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
                assert solver.events == relation_deduction(solver)
                # an ordered subset leaves no equation; the repeated (1, 1) may
                assert not solver.events or gens == (1, 1)


# per column table of the cell, in the order of the classes, against itself
# as the row table: (|C|, candidates, events kept); the relations leave no
# equation, so counting propagates no column
KEPT_EVENTS = {
    (4, 2): [(4, 6, 0), (12, 10, 0)],
    (4, 3): [(4, 6, 0), (12, 10, 0), (24, 13, 0)],
    (6, 2): [(6, 20, 0), (30, 76, 0)],
    (10, 2): [(10, 72, 0), (90, 568, 0)],
    (12, 2): [(12, 110, 0), (132, 1090, 0)],
    (5, 3): [(5, 12, 0), (20, 33, 0), (60, 73, 0)],
    (8, 4): [(8, 42, 0), (56, 246, 0), (336, 1261, 0), (1680, 5461, 0)],
    (16, 3): [(16, 210, 0), (240, 2926, 0), (3360, 38221, 0)],
}


@pytest.mark.parametrize('n,r', list(KEPT_EVENTS))
def test_kept_events_are_pinned(n, r):
    got = []
    for table in _component_classes(n, r, tuple(range(1, n))):
        solver = _PairSolver(table, table, Fraction(7, 5), (0, 0))
        got.append((len(table), len(candidates(incidences(solver))), len(solver.events)))
    assert got == KEPT_EVENTS[n, r]


@pytest.mark.parametrize('n,r', SMALL_GRID + [(10, 2), (12, 2), (5, 3)])
def test_counting_propagates_only_the_columns_a_check_reads(n, r, monkeypatch):
    # no equation is left for a check to read, so counting propagates no
    # column; with the basis every column is propagated
    basis, calls = _PairSolver._basis, []
    monkeypatch.setattr(_PairSolver, '_basis',
                        lambda self, classes: calls.append(self.pair) or basis(self, classes))
    for table, table_p in pair_classes(n, r):
        solver = _PairSolver(table, table_p, Fraction(7, 5), (0, 0))
        assert solver.events == []
        assert solver.solve(with_basis=False) == (max(solver._classes()) + 1, []) and calls == []
        solver.solve(with_basis=True)
        assert calls == [(0, 0)]
        calls.clear()
        assert all({c for _, c in X} == set(range(len(table)))
                   for X in basis(solver, solver._classes()))


def unchecked_two_cycles(column, i, pair, what):
    """A mutant _two_cycles: the case 2 entries, the shape unchecked."""
    return [(v, t) for v, (case, t) in enumerate(column) if case == 2]


@pytest.mark.parametrize('table, table_p', [(MALFORMED_COLUMN_TABLES[0], TWO_CYCLE),
                                            (MOVING_COLUMN_TABLE, ROW_TABLE_MALFORMED_AT_MOVING)],
                         ids=['column', 'row'])
def test_unchecked_shapes_certify_a_broken_equation(table, table_p, monkeypatch):
    # without the shape checks a malformed table solves, and its root-loop
    # classes break an incidence whose partner the pruning dropped
    monkeypatch.setattr(centralizer, '_two_cycles', unchecked_two_cycles)
    q0 = Fraction(2)
    solver = _PairSolver(table, table_p, q0, (0, 3))
    assert solver.solve(with_basis=False)[0] == 2
    broken = broken_by_reference(Reference(table_p, q0), solver, class_roots(solver._classes()))
    assert broken and not broken & set(checked(solver))


def corrupted(table, v, k, entry):
    """table with entry [v][k] replaced."""
    return tuple(tuple(entry if (w, i) == (v, k) else e for i, e in enumerate(entries))
                 for w, entries in enumerate(table))


def test_malformed_tables_raise_with_the_squares_in_use():
    # the big table of (4, 2), where positions 0 and 2 commute: each
    # equation that the relations drop, its entry made malformed on the
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


def wrong_outcomes(q0=Fraction(7, 5)):
    """How many small table pairs the solve gets wrong: it must raise
    exactly when some root of the root-loop classes breaks an incidence on
    the reference path, naming an equation that one breaks, and otherwise
    give the reference basis of those roots."""
    wrong = 0
    for table, table_p in small_table_pairs():
        solver = _PairSolver(table, table_p, q0, (0, 0))
        ref, classes = Reference(table_p, q0), solver._classes()
        broken = broken_by_reference(ref, solver, class_roots(classes))
        raised, blocks = solve_on(solver, classes, with_basis=True)
        if raised is None:
            want = [{(rl, c): Fraction(v, s) for c, (u, s) in
                     ref.propagate(solver, ref.clear(y)).items() for rl, v in u.items()}
                    for y in class_roots(classes)]
            wrong += bool(broken) or blocks != want
        else:
            wrong += raised not in broken
    return wrong


@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-1), Fraction(1)], ids=str)
def test_kept_events_cut_out_the_solutions_on_small_tables(q0):
    left = 0
    for table, table_p in small_table_pairs():
        solver = _PairSolver(table, table_p, q0, (0, 0))
        assert solver.events == relation_deduction(solver)
        kept_events_stand_for_all(solver, Reference(table_p, q0))
        left += bool(solver.events)
    assert left and wrong_outcomes(q0) == 0


def count_escaped(q0=Fraction(7, 5)):
    """How many small table pairs have a root that satisfies every equation
    the solve checks and breaks some incidence."""
    return sum(bool(escaped_breaks(_PairSolver(table, table_p, q0, (0, 0)),
                                   Reference(table_p, q0)))
               for table, table_p in small_table_pairs())


# mutants of the reduction, each caught by the checks above

def test_dropped_two_cycle_events_are_caught(monkeypatch):
    # a mutant that checks the loops alone lets roots through
    collect = _ColumnPlan._collect_events
    monkeypatch.setattr(_ColumnPlan, '_collect_events', lambda self, *relations: [
        e for e in collect(self, *relations) if e[3] == 1])
    assert count_escaped()


def test_ignoring_the_row_tables_squares_is_caught(monkeypatch):
    # a mutant that takes the squares of the column table alone
    init = _RowState.__init__

    def all_commute(self, table_p):
        init(self, table_p)
        self.commuting = (-1,) * len(self.commuting)
    monkeypatch.setattr(_RowState, '__init__', all_commute)
    assert count_escaped()


def test_ignoring_the_row_tables_braids_is_caught(monkeypatch):
    # a mutant that takes the hexagons of the column table alone, applied
    # where the rows do not braid
    monkeypatch.setattr(_PairSolver, '_braids',
                        lambda self, k, l: centralizer._braids(self.table, {}, k, l))
    assert count_escaped()


def mutant_events(monkeypatch, **kwargs):
    """Patch _PairSolver to take its events from relation_deduction(**kwargs)."""
    init = _PairSolver.__init__

    def mutant(self, *args, **kw):
        init(self, *args, **kw)
        self.events = relation_deduction(self, **kwargs)
    monkeypatch.setattr(_PairSolver, '__init__', mutant)


def test_a_dropped_square_premise_is_caught(monkeypatch):
    # a mutant that does not ask for E(k, s_l p)
    mutant_events(monkeypatch, square_premises=(0, 1))
    assert count_escaped()


def test_a_dropped_hexagon_premise_is_caught(monkeypatch):
    # a mutant that counts the term A'_x A'_y R_x e_p of each side as known
    mutant_events(monkeypatch, hexagon_drops=lambda w: len(w) == 2)
    assert count_escaped()


def test_a_dropped_root_loop_is_caught(monkeypatch):
    # a mutant whose classes leave out the first loop at the root: the
    # classes split a 2-cycle of that loop, and the solve names it
    classes = _PairSolver._classes

    def mutant(self):
        roots = self.plan.roots
        self.plan.roots = roots[1:]
        try:
            return classes(self)
        finally:
            self.plan.roots = roots
    monkeypatch.setattr(_PairSolver, '_classes', mutant)
    with pytest.raises(SolverInvariantError, match='root-loop classes') as info:
        commutant_basis(3, 2, (Fraction(7, 5),))
    assert info.value.event == (1, 0, 0, 1)


def test_a_skipped_leftover_check_is_caught(monkeypatch):
    # a mutant that never checks the events the relations leave
    monkeypatch.setattr(_PairSolver, '_check', lambda self, blocks: None)
    assert wrong_outcomes()


def test_a_skipped_column_is_caught(monkeypatch):
    # a mutant propagation that leaves the last column of each pair empty
    basis = _PairSolver._basis

    def skipping(self, classes):
        last = len(self.table) - 1
        return [{key: v for key, v in X.items() if key[1] != last} for X in basis(self, classes)]
    monkeypatch.setattr(_PairSolver, '_basis', skipping)
    assert wrong_outcomes()


# ---------------------------------------------------------------------------
# the commuting and braid criteria against the matrices

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


def test_braid_reader_matches_the_matrices_on_every_small_table():
    # every two-position table of the 2-cycle shape on up to five vertices:
    # the reader says braid exactly when the matrices do
    found = 0
    memo = {}  # shared, so each orbit table is read once
    for m in range(1, 6):
        columns = list(two_cycle_columns(m))
        for first, second in itertools.product(columns, repeat=2):
            table = tuple(zip(first, second))
            memo.pop((0, 1), None)
            holds = _braids(table, memo, 0, 1)
            assert holds == braid_holds(table, 0, 1)
            found += holds and first != second
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


@pytest.mark.parametrize('n,r', [(n, r) for n in range(2, 6) for r in range(1, 4)
                                 if n ** r <= 125])
def test_braid_reader_against_generator_products(n, r):
    # the reader agrees with the products of the generator matrices over
    # Z[q, q^-1] on each component, and finds every adjacent pair
    gens = tuple(range(1, n))
    idxs = all_indices(n, r)
    mats = [generator_matrix(n, r, i) for i in gens]
    for table, comps in _component_classes(n, r, gens).items():
        C = [idxs[g] for g in comps[0]]
        for k, l in itertools.combinations(range(len(gens)), 2):
            A, B = ({j: M[j] for j in C} for M in (mats[k], mats[l]))
            want = (_compose_columns(mats[k], _compose_columns(mats[l], A))
                    == _compose_columns(mats[l], _compose_columns(mats[k], B)))
            assert _braids(table, {}, k, l) == want
            assert want or gens[l] - gens[k] != 1


# ---------------------------------------------------------------------------
# the traffic: one solve per pair class, leaving no equation

def solve_counts(monkeypatch):
    """Patch _PairSolver.solve to record, per call, the events left."""
    solve = _PairSolver.solve
    left = []

    def counted(self, with_basis):
        left.append(len(self.events))
        return solve(self, with_basis)

    monkeypatch.setattr(_PairSolver, 'solve', counted)
    return left


@pytest.mark.parametrize('n,r', SMALL_GRID)
def test_every_pair_class_passes_in_one_round(n, r, monkeypatch):
    # each pair class is solved once per q value, and no pair class leaves
    # an equation, full or half
    left = solve_counts(monkeypatch)
    for q0 in DEFAULT_Q_VALUES + (Fraction(1), Fraction(-1)):
        left.clear()
        report = commutant_basis(n, r, (q0,))
        assert report.dim == qpartition_dim(n, r)
        assert left == [0] * report.pair_classes, q0
    if n >= 2:  # and the half commutant
        left.clear()
        report = half_commutant_basis(n, r, (Fraction(7, 5),))
        assert report.dim == half_qpartition_dim(n, r)
        assert left == [0] * report.pair_classes


@pytest.mark.parametrize('n,r', SYMBOLIC_GRID)
def test_every_symbolic_pair_class_passes_in_one_round(n, r, monkeypatch):
    left = solve_counts(monkeypatch)
    report = commutant_basis(n, r, symbolic=True)
    assert report.dim == qpartition_dim(n, r)
    assert left == [0] * report.pair_classes


@pytest.mark.parametrize('n', [2, 3, 4])
def test_every_generator_subset_certifies(n):
    # solve raises if an equation breaks on the root-loop classes; none does
    # on any ordered generator subset, specialised or over Q(q)
    for gens in generator_subsets(n):
        for r in itertools.takewhile(lambda r: n ** r <= 64, itertools.count(1)):
            report = commutant_basis(n, r, (Fraction(7, 5), Fraction(-1), Fraction(1)),
                                     generators=gens)
            assert report.agree, (gens, r)
            assert commutant_basis(n, r, symbolic=True, generators=gens).dim == report.dim
