"""The one three-case T_i rule against the per-module rules it replaced.

H(S_n), V tensor r and the q-permutation modules each used to write the
formula q b / swap / q swap + (q-1) b out in full, and the commutant
oracle wrote its integer form b T_i twice more.  The functions below
are those earlier rules, kept verbatim as references: the letter rule
on basis tensors, the tableau-row rule on coset reps, the length rule
on T_w (left and right multiplication) and the integer columns of
b T_i at q = a/b.  The shared rule (hecke._column fed by each module's
classifier, and centralizer._scaled_generator) must agree with them on
every basis label of the small cases.
"""

from fractions import Fraction

import pytest

from qpartition import qperm
from qpartition.centralizer import _apply, _scaled_generator, _shifted
from qpartition.coeff import ONE, Q, LaurentPoly
from qpartition.hecke import (
    HeckeElement,
    RankMismatch,
    generator_times,
    t_w,
    t_w_inverse,
)
from qpartition.qperm import QPermElement, apply_generator_to_basis
from qpartition.symcomb import Composition, NotDistinguished, Permutation, all_permutations, coset_reps
from qpartition.tensoract import (
    GeneratorOutOfRange,
    TensorVector,
    _classify,
    _swap_letters,
    all_indices,
    apply_generator,
    first_occurrence,
    generator_matrix,
)

_Q_MINUS_ONE = Q - 1


# ---------------------------------------------------------------------------
# the earlier rules, one per basis type


def ref_act_gen_basis(n, i, index):
    """T_i e_j as a sparse column by the first-occurrence rule."""
    fi = first_occurrence(index, i)
    fi1 = first_occurrence(index, i + 1)
    if fi == 0 and fi1 == 0:
        return {index: Q}
    swapped = _swap_letters(index, i)
    if fi < fi1:
        return {swapped: ONE}
    return {swapped: Q, index: _Q_MINUS_ONE}


def ref_generator_on_basis(i, shape, d):
    """T_i (T_d x_lambda) by the rows of i and i+1 in the tableau of d."""
    im = d.images
    pos_i, pos_i1 = im.index(i), im.index(i + 1)
    row_i, row_i1 = shape.block_index(pos_i + 1), shape.block_index(pos_i1 + 1)
    if row_i == row_i1:
        return {d: Q}
    swapped = list(im)
    swapped[pos_i], swapped[pos_i1] = i + 1, i
    sd = Permutation(tuple(swapped))
    if row_i < row_i1:
        return {sd: ONE}
    return {sd: Q, d: _Q_MINUS_ONE}


def _bumped(n, acc):
    return HeckeElement.build(n, {w: c for w, c in acc.items() if c})


def ref_generator_times(i, h):
    """T_i h by the length rule on the left."""
    s = Permutation.simple(h.n, i)
    acc = {}
    for w, c in h.terms:
        sw = s * w
        if w.images.index(i) < w.images.index(i + 1):
            acc[sw] = acc.get(sw, LaurentPoly()) + c
        else:
            acc[sw] = acc.get(sw, LaurentPoly()) + Q * c
            acc[w] = acc.get(w, LaurentPoly()) + _Q_MINUS_ONE * c
    return _bumped(h.n, acc)


def ref_times_generator(h, i):
    """h T_i by the length rule on the right."""
    s = Permutation.simple(h.n, i)
    acc = {}
    for w, c in h.terms:
        ws = w * s
        if w(i) < w(i + 1):
            acc[ws] = acc.get(ws, LaurentPoly()) + c
        else:
            acc[ws] = acc.get(ws, LaurentPoly()) + Q * c
            acc[w] = acc.get(w, LaurentPoly()) + _Q_MINUS_ONE * c
    return _bumped(h.n, acc)


def ref_t_w_inverse(w):
    """T_w^-1 through right multiplication, reduced word read backwards."""
    out = HeckeElement.one(w.n)
    q_inv = LaurentPoly({-1: 1})
    for i in reversed(w.reduced_word()):
        out = ref_times_generator(out, i).scale(q_inv) + out.scale(q_inv - 1)
    return out


def ref_spec_cols(n, r, i, a, b):
    """Columns of b T_i at q = a/b on V tensor r: ((row, coef), ...) per basis index."""
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    cols = []
    for j in idxs:
        column = ref_act_gen_basis(n, i, j)
        if column == {j: Q}:
            cols.append(((gid[j], a),))
        elif len(column) == 1:
            (swapped,) = column
            cols.append(((gid[swapped], b),))
        else:
            swapped = next(k for k in column if k != j)
            cols.append(((gid[swapped], a), (gid[j], a - b)))
    return cols


def ref_pair_images(entries, a, b):
    """The pair solver's two maps b A_i and b A_i - (a - b), built case by case."""
    tgt, coef, coef3, diag, diag3 = [], [], [], {}, {}
    for cl, (case, rl) in enumerate(entries):
        tgt.append(rl)
        if case == 1:
            coef.append(a)
            coef3.append(b)
        elif case == 2:
            coef.append(b)
            coef3.append(b)
            diag3[cl] = b - a
        else:
            coef.append(a)
            coef3.append(a)
            diag[cl] = a - b
    if a == b:
        diag = diag3 = {}
    return (tgt, coef, diag), (tgt, coef3, diag3)


# ---------------------------------------------------------------------------
# the shared rule against them

TENSOR_CELLS = [(n, r) for n in range(2, 5) for r in range(1, 4)]


@pytest.mark.parametrize('n,r', TENSOR_CELLS)
def test_letter_rule_matches_the_earlier_tensor_rule(n, r):
    for i in range(1, n):
        matrix = generator_matrix(n, r, i)
        for j in all_indices(n, r):
            expect = ref_act_gen_basis(n, i, j)
            assert dict(apply_generator(i, TensorVector.basis_vector(n, r, j)).terms) == expect
            assert matrix[j] == expect


def compositions(n):
    """Compositions of n without zero parts."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(1, n + 1) for rest in compositions(n - p)]


def shapes(n):
    """Every composition of n, and each with one zero part inserted anywhere."""
    out = set()
    for c in compositions(n):
        out.add(c)
        out.update(c[:at] + (0,) + c[at:] for at in range(len(c) + 1))
    return [Composition(c) for c in sorted(out)]


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_row_rule_matches_the_earlier_module_rule(n):
    for shape in shapes(n):
        for d in coset_reps(shape):
            v = QPermElement.basis_vector(shape, d)
            for i in range(1, n):
                expect = ref_generator_on_basis(i, shape, d)
                assert apply_generator_to_basis(i, shape, d) == expect
                assert dict(qperm.apply_generator(i, v).terms) == expect


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_length_rule_matches_the_earlier_hecke_rule(n):
    for w in all_permutations(n):
        h = t_w(w).scale(Q + 2)
        for i in range(1, n):
            assert generator_times(i, h) == ref_generator_times(i, h)
            assert t_w(Permutation.simple(n, i)) * h == ref_generator_times(i, h)


@pytest.mark.parametrize('n', [1, 2, 3, 4])
def test_left_inverse_walk_matches_the_right_multiplication(n):
    for w in all_permutations(n):
        assert t_w_inverse(w) == ref_t_w_inverse(w)


INTEGER_Q = [Fraction(7, 5), Fraction(-3, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize('n,r', TENSOR_CELLS)
@pytest.mark.parametrize('q0', INTEGER_Q)
def test_integer_map_matches_the_earlier_columns(n, r, q0):
    a, b = q0.numerator, q0.denominator
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    for i in range(1, n):
        entries = [(case, gid[j2]) for case, j2 in (_classify(i, j) for j in idxs)]
        op = _scaled_generator(entries, a, b)
        for t, column in enumerate(ref_spec_cols(n, r, i, a, b)):
            expect = {}
            for rg, coef in column:
                expect[rg] = expect.get(rg, 0) + coef
            assert _apply(op, {t: 1}) == {k: v for k, v in expect.items() if v}
        assert (op, _shifted(op, a - b)) == ref_pair_images(entries, a, b)


def test_shifted_map_over_q_of_q_matches_the_earlier_build():
    n, r = 3, 2
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    for i in range(1, n):
        entries = [(case, gid[j2]) for case, j2 in (_classify(i, j) for j in idxs)]
        op = _scaled_generator(entries, Q, ONE)
        assert (op, _shifted(op, Q - ONE)) == ref_pair_images(entries, Q, ONE)


# ---------------------------------------------------------------------------
# the checked constructor: coefficients and labels at the boundary


def test_build_refuses_float_coefficients():
    with pytest.raises(TypeError):
        HeckeElement.build(2, {Permutation((2, 1)): 0.5})
    with pytest.raises(TypeError):
        TensorVector.build(2, 2, {(1, 2): 0.5})
    with pytest.raises(TypeError):
        QPermElement.build(Composition((1, 1)), {Permutation((2, 1)): 0.5})


def test_build_coerces_exact_coefficients():
    h = HeckeElement.build(2, {Permutation((2, 1)): 3, Permutation((1, 2)): Fraction(1, 2)})
    assert h == HeckeElement.build(2, {Permutation((2, 1)): LaurentPoly({0: 3}),
                                       Permutation((1, 2)): LaurentPoly({0: Fraction(1, 2)})})
    assert h.to_json() == [{'perm': [1, 2], 'coeff': [[0, '1', '2']]},
                           {'perm': [2, 1], 'coeff': [[0, '3', '1']]}]
    assert TensorVector.build(2, 1, {(1,): 0, (2,): True}).terms == (((2,), ONE),)


def test_multi_index_letters_are_ints():
    with pytest.raises(TypeError):
        TensorVector.build(2, 2, {(1.0, 2): ONE})
    with pytest.raises(TypeError):
        TensorVector.basis_vector(2, 2, ('a', 2))
    v = TensorVector.basis_vector(2, 2, (True, 2))
    assert v == TensorVector.basis_vector(2, 2, (1, 2))
    assert [type(x) for x in v.terms[0][0]] == [int, int]
    assert repr(v) == repr(TensorVector.basis_vector(2, 2, (1, 2)))


def test_labels_are_checked_before_zero_terms_drop():
    with pytest.raises(RankMismatch):
        HeckeElement.from_json(3, [{'perm': [2, 1], 'coeff': []}])
    with pytest.raises(ValueError):
        TensorVector.build(2, 2, {(1, 3): LaurentPoly()})
    with pytest.raises(TypeError):
        HeckeElement.build(2, {(2, 1): LaurentPoly()})
    with pytest.raises(NotDistinguished):
        QPermElement.build(Composition((2,)), {Permutation((2, 1)): 0})


def test_t_w_and_basis_vector_check_their_label():
    # t_w gives build's TypeError, not an AttributeError on the label
    for w in ((2, 1), [2, 1], None):
        with pytest.raises(TypeError, match='labelled by a Permutation'):
            t_w(w)
    with pytest.raises(RankMismatch):
        HeckeElement.build(2, {Permutation((2, 1, 3)): ONE})
    assert t_w(Permutation([2, 1])) == HeckeElement.build(2, {Permutation((2, 1)): ONE})
    # a list index is normalised like any other, as Permutation([2, 1]) is
    v = TensorVector.basis_vector(2, 2, [1, 2])
    assert v == TensorVector.basis_vector(2, 2, (1, 2))
    assert repr(v) == repr(TensorVector.basis_vector(2, 2, (1, 2)))
    with pytest.raises(ValueError):
        TensorVector.basis_vector(2, 2, [1, 3])
    with pytest.raises(TypeError):
        TensorVector.basis_vector(2, 2, [1.0, 2])


def test_shared_arithmetic_keeps_each_module_error():
    v = QPermElement.basis_vector(Composition((1, 1)), Permutation((1, 2)))
    with pytest.raises(RankMismatch):
        qperm.apply_generator(2, v)
    with pytest.raises(RankMismatch):
        qperm.apply(t_w(Permutation((1, 2, 3))), v)
    with pytest.raises(RankMismatch):
        v + QPermElement.basis_vector(Composition((2,)), Permutation((1, 2)))
    with pytest.raises(GeneratorOutOfRange):
        apply_generator(2, TensorVector.basis_vector(2, 1, (1,)))
    with pytest.raises(RankMismatch):
        TensorVector.basis_vector(2, 1, (1,)) + TensorVector.basis_vector(2, 2, (1, 1))
    with pytest.raises(TypeError):
        t_w(Permutation((2, 1))) * TensorVector.basis_vector(2, 1, (1,))
