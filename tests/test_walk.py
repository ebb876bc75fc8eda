"""The shared reduced-word walk (hecke.act_by_words) against a word-by-word loop.

Every place that acts with T_w through a reduced word goes through the
walk: Hecke products, the tensor action, the q-permutation action, the
hom-basis columns and the T_w matrices of the double centralizer check.
Each is compared here with the plain loop that applies the letters of
reversed(w.reduced_word()) one at a time and shares nothing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpartition import qperm, tensoract
from qpartition.centralizer import double_centralizer_check
from qpartition.coeff import LaurentPoly
from qpartition.hecke import HeckeElement, act_by_words, generator_times
from qpartition.linalg import rank
from qpartition.qperm import QPermElement, hom_basis, hom_matrix, qpartition_dim
from qpartition.symcomb import (
    Composition,
    Permutation,
    all_permutations,
    coset_reps,
    double_coset_reps,
)
from qpartition.tensoract import TensorVector, all_indices, generator_matrix


def word_by_word(h, v, step, zero):
    """sum_w c_w T_w v with each T_w applied letter by letter."""
    out = zero
    for w, c in h.terms:
        piece = v
        for i in reversed(w.reduced_word()):
            piece = step(i, piece)
        out = out + piece.scale(c)
    return out


coeffs = st.builds(
    lambda d: LaurentPoly(d),
    st.dictionaries(st.integers(-2, 2),
                    st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)),
                    min_size=1, max_size=3))


def hecke_elements(n):
    return st.builds(
        lambda d: HeckeElement.build(n, d),
        st.dictionaries(st.permutations(range(1, n + 1)).map(lambda p: Permutation(tuple(p))),
                        coeffs, max_size=6))


def test_walk_visits_each_element_once_and_reaches_w():
    # step = left multiplication by s_i, starting from the identity, gives w back
    for n in range(1, 6):
        calls = []

        def step(i, u):
            calls.append(Permutation.simple(n, i) * u)
            return calls[-1]

        ws = all_permutations(n)
        out = act_by_words(ws, Permutation.identity(n), step)
        assert list(out) == ws
        assert all(out[w] == w for w in ws)
        # each non-identity element is computed exactly once
        assert sorted(calls) == ws[1:]


def test_walk_uses_the_first_letter_of_the_reduced_word():
    # a step that records its letters spells out each reduced word
    for n in range(2, 5):
        out = act_by_words(all_permutations(n), (), lambda i, word: (i,) + word)
        assert all(word == w.reduced_word() for w, word in out.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(hecke_elements(n), hecke_elements(n))))
def test_hecke_product_matches_word_by_word(pair):
    h1, h2 = pair
    assert h1 * h2 == word_by_word(h1, h2, generator_times, HeckeElement.zero(h1.n))


@st.composite
def hecke_and_tensor(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(1, n)] * r)
    v = TensorVector.build(n, r, draw(st.dictionaries(index, coeffs, min_size=1, max_size=4)))
    return draw(hecke_elements(n)), v


@settings(max_examples=40, deadline=None)
@given(hecke_and_tensor())
def test_tensor_action_matches_word_by_word(data):
    h, v = data
    expect = word_by_word(h, v, tensoract.apply_generator, TensorVector.build(v.n, v.r, {}))
    assert tensoract.apply(h, v) == expect


@st.composite
def hecke_and_module(draw):
    n = draw(st.integers(2, 4))
    parts = draw(st.lists(st.integers(0, n), min_size=1, max_size=n)
                 .filter(lambda p: sum(p) <= n).map(lambda p: tuple(p) + (n - sum(p),)))
    shape = Composition(parts)
    reps = st.sampled_from(coset_reps(shape))
    v = QPermElement.build(shape, draw(st.dictionaries(reps, coeffs, min_size=1, max_size=4)))
    return draw(hecke_elements(n)), v


@settings(max_examples=40, deadline=None)
@given(hecke_and_module())
def test_module_action_matches_word_by_word(data):
    h, v = data
    expect = word_by_word(h, v, qperm.apply_generator, QPermElement.build(v.shape, {}))
    assert qperm.apply(h, v) == expect


def hook_pairs(n):
    return [(Composition.hook(n, k), Composition.hook(n, l))
            for k in range(n + 1) for l in range(n + 1)]


@pytest.mark.parametrize('n', [2, 3, 4])
def test_hom_columns_match_word_by_word(n):
    for mu, lam in hook_pairs(n):
        basis = hom_basis(mu, lam)
        reps = double_coset_reps(mu, lam)
        assert len(basis) == len(reps)
        for d, phi in zip(reps, basis):
            double_coset = {y * d * z for y in mu.young_subgroup() for z in lam.young_subgroup()}
            base = QPermElement.build(lam, {e: LaurentPoly({0: 1})
                                            for e in coset_reps(lam) if e in double_coset})
            expect = []
            for c in coset_reps(mu):
                image = base
                for i in reversed(c.reduced_word()):
                    image = qperm.apply_generator(i, image)
                expect.append(tuple(image.coefficient(e) for e in coset_reps(lam)))
            assert phi.columns == tuple(expect)
            assert hom_matrix(mu, lam, d).columns == phi.columns


def image_dim(n, r, q0):
    """dim of the span of all T_w on V^r at q0, T_w multiplied out letter by letter."""
    idxs = all_indices(n, r)
    gids = {j: t for t, j in enumerate(idxs)}
    gens = {i: {gids[j]: {gids[j2]: c.evaluate(q0) for j2, c in col.items()}
                for j, col in generator_matrix(n, r, i).items()}
            for i in range(1, n)}
    vectors = []
    for w in all_permutations(n):
        cols = {t: {t: Fraction(1)} for t in range(len(idxs))}
        for i in reversed(w.reduced_word()):
            new = {}
            for c0, col in cols.items():
                acc = {}
                for mid, v in col.items():
                    for rg, a in gens[i][mid].items():
                        acc[rg] = acc.get(rg, 0) + a * v
                new[c0] = acc
            cols = new
        vectors.append({rg * len(idxs) + c0: v
                        for c0, col in cols.items() for rg, v in col.items() if v})
    return rank(vectors, len(idxs) ** 2, Fraction(1))


@pytest.mark.parametrize('n,r', [(3, 2), (4, 2)])
@pytest.mark.parametrize('q0', [Fraction(7, 5), Fraction(-3, 2)])
def test_double_centralizer_report_matches_word_by_word(n, r, q0):
    rep = double_centralizer_check(n, r, q0)
    dim = image_dim(n, r, q0)
    assert (rep.dim_commutant, rep.dim_image, rep.dim_bicommutant, rep.image_contained) == \
        (qpartition_dim(n, r), dim, dim, True)
    assert rep.holds
