"""q-permutation modules, their homomorphisms, and dimension bookkeeping.

M_q^lambda is the left ideal generated by the Young subgroup sum
x_lambda; its basis is {T_d x_lambda} over the distinguished coset
representatives d.  A generator T_i moves a basis vector by the rows of
i and i+1 in the row-standard tableau d applied to the initial tableau
(the row rule _row_rule; the formula itself is hecke._column):

    same row:            q T_d
    row(i) < row(i+1):   T_{s_i d}
    row(i) > row(i+1):   q T_{s_i d} + (q-1) T_d

Homomorphisms between two such modules are spanned by maps indexed by
distinguished double coset representatives, so Hom dimensions reduce to
counting double cosets, and the centralizer dimension of the tensor
action becomes a sum of products of Stirling numbers and double coset
counts (qpartition_dim).  Restriction to the subalgebra generated by all
but the last generator shifts the orbit multiplicities by one Stirling
step; iterating gives the transfer rules implemented at the bottom.
"""

from __future__ import annotations

from functools import cache

from ._record import FrozenRecord
from .coeff import LaurentPoly, ONE, ZERO
from .hecke import HeckeElement, RankMismatch, _Sparse, _images, act, act_by_words
from .symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
    _double_coset_members,
    _is_coset_rep,
    _perm,
    coset_reps,
    count_double_cosets,
    double_coset_reps,
    is_distinguished,
    stirling2,
)

__all__ = [
    'QPermElement',
    'apply_generator_to_basis',
    'apply_generator',
    'apply',
    'HomMatrix',
    'hom_matrix',
    'hom_basis',
    'hom_dim',
    'qpartition_dim',
    'indres_step',
    'restrict_multiplicities',
    'tensor_multiplicities',
    'half_hom_dim',
    'half_qpartition_dim',
]

def _row_rule(i: int, shape: Composition, d: Permutation) -> tuple[int, Permutation]:
    """The tableau-row rule: (case, target) of T_i on T_d x_lambda, d in D_lambda.

    The rows of i and i+1 in the tableau d applied to the initial
    tableau are the block indices of d^-1(i) and d^-1(i+1); d^-1(i) is
    the position of the letter i in d's one-line notation, and s_i d
    swaps the letters i and i+1 there.
    """
    im = d.images
    pos_i, pos_i1 = im.index(i), im.index(i + 1)
    row_i, row_i1 = shape.block_index(pos_i + 1), shape.block_index(pos_i1 + 1)
    if row_i == row_i1:
        return 1, d
    swapped = list(im)
    swapped[pos_i], swapped[pos_i1] = i + 1, i
    return (2 if row_i < row_i1 else 3), _perm(tuple(swapped))


class QPermElement(_Sparse):
    """A vector in M_q^lambda in the distinguished basis {T_d x_lambda}."""

    __slots__ = ('shape', 'terms')
    _key = staticmethod(_images)

    def __init__(self, shape: Composition, terms: tuple[tuple[Permutation, LaurentPoly], ...]):
        object.__setattr__(self, 'shape', shape)
        object.__setattr__(self, 'terms', terms)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def _space(self) -> tuple[Composition]:
        return (self.shape,)

    @staticmethod
    def _label(space, d: Permutation) -> Permutation:
        if not _is_coset_rep(space[0], d):
            raise NotDistinguished(f'{d} is not a distinguished coset rep for {space[0]}')
        return d

    def _rule(self, i: int, d: Permutation) -> tuple[int, Permutation]:
        return _row_rule(i, self.shape, d)

    @classmethod
    def basis_vector(cls, shape: Composition, d: Permutation) -> QPermElement:
        return cls.build(shape, {d: ONE})


def apply_generator_to_basis(i: int, shape: Composition, d: Permutation) -> dict[Permutation, LaurentPoly]:
    """T_i (T_d x_lambda) as a sparse combination of basis vectors."""
    return dict(QPermElement.basis_vector(shape, d).generator_step(i).terms)


def apply_generator(i: int, v: QPermElement) -> QPermElement:
    return v.generator_step(i)


def apply(h: HeckeElement, v: QPermElement) -> QPermElement:
    """A Hecke algebra element acting on a module element."""
    return act(h, v)


class HomMatrix(FrozenRecord):
    """A module homomorphism M_q^mu -> M_q^lambda in distinguished bases.

    columns[c] lists the image of the c-th basis vector of the source as
    a dense tuple of coefficients over the target basis.  Basis order is
    the sorted order of coset_reps.
    """

    __slots__ = ('source', 'target', 'columns')

    def __init__(self, source: Composition, target: Composition,
                 columns: tuple[tuple[LaurentPoly, ...], ...]):
        object.__setattr__(self, 'source', source)
        object.__setattr__(self, 'target', target)
        object.__setattr__(self, 'columns', columns)

    def image_of(self, v: QPermElement) -> QPermElement:
        if v.shape != self.source:
            raise RankMismatch('vector not in the source module')
        src = coset_reps(self.source)
        tgt = coset_reps(self.target)
        acc: dict[Permutation, LaurentPoly] = {}
        for d, c in v.terms:
            col = self.columns[src.index(d)]
            for e, ce in zip(tgt, col):
                if ce:
                    acc[e] = acc.get(e, ZERO) + c * ce
        return QPermElement._make((self.target,), acc)


def hom_matrix(mu: Composition, lam: Composition, d: Permutation) -> HomMatrix:
    """The homomorphism sending x_mu to the double coset sum over Y_mu d Y_lambda.

    The double coset is a union of full left cosets e Y_lambda, so the
    image of x_mu has coefficient 1 exactly on the distinguished reps e
    lying in Y_mu d Y_lambda; for d the identity and mu = lambda this is
    the identity map.  Images of the other basis vectors T_c x_mu follow
    by linearity: act with T_c on the image of x_mu.
    """
    if not is_distinguished(mu, d, lam):
        raise NotDistinguished(f'{d} is not in D_{mu.parts},{lam.parts}')
    return _hom_matrix(mu, lam, _double_coset_members(mu, lam)[d])


def _hom_matrix(mu: Composition, lam: Composition, members: list[Permutation]) -> HomMatrix:
    """The map sending x_mu to the sum of T_e x_lambda over members."""
    src = coset_reps(mu)
    tgt = coset_reps(lam)
    base = QPermElement._make((lam,), {e: ONE for e in members})
    images = act_by_words(src, base, apply_generator)
    columns = []
    for c in src:
        tgt_coeffs = dict(images[c].terms)
        columns.append(tuple(tgt_coeffs.get(e, ZERO) for e in tgt))
    return HomMatrix(mu, lam, tuple(columns))


def hom_basis(mu: Composition, lam: Composition) -> list[HomMatrix]:
    """The standard basis of Hom(M_q^mu, M_q^lambda), one map per double coset."""
    members = _double_coset_members(mu, lam)
    return [_hom_matrix(mu, lam, members[d]) for d in double_coset_reps(mu, lam)]


def hom_dim(mu: Composition, lam: Composition) -> int:
    """dim Hom(M_q^mu, M_q^lambda) = number of double cosets."""
    return count_double_cosets(mu, lam)


@cache
def tensor_multiplicities(n: int, r: int) -> dict[int, int]:
    """Multiplicity of each hook module inside V tensor r.

    Starting from the trivial module and applying the induction
    restriction transfer r times gives {k: s(r, k)} as long as no hook
    runs into the k = n ceiling; with the ceiling the truncated rule
    applies verbatim.
    """
    mults = {0: 1}
    for _ in range(r):
        mults = indres_step(mults, n)
    return mults


def indres_step(mults: dict[int, int], n: int) -> dict[int, int]:
    """One restriction induction round on hook multiplicities.

    Each M for the hook (n-k, 1^k) turns into k copies of itself plus
    one copy of the next hook; the next hook does not exist when k = n.
    """
    out: dict[int, int] = {}
    for k, m in mults.items():
        if not 0 <= k <= n:
            raise ValueError(f'hook parameter {k} out of range for n={n}')
        if m == 0:
            continue
        if k:
            out[k] = out.get(k, 0) + k * m
        if k + 1 <= n:
            out[k + 1] = out.get(k + 1, 0) + m
    return {k: m for k, m in sorted(out.items()) if m}


def restrict_multiplicities(mults: dict[int, int], n: int) -> dict[int, int]:
    """Hook multiplicities after restricting to the subalgebra on 1..n-1.

    Restriction of a hook module decomposes by exactly the same transfer
    rule as a full induction restriction round, because inducing back up
    preserves multiplicities.  Applied to the multiplicities of V tensor
    r this yields {k: s(r+1, k)} whenever n exceeds r.
    """
    return indres_step(mults, n)


def qpartition_dim(n: int, r: int) -> int:
    """Dimension of the centralizer of the Hecke action on V tensor r.

    Sum over hook pairs of s(r,k) s(r,l) |D_{hook k, hook l}|; equals
    the Bell number B(2r) once n >= 2r.
    """
    if n < 1 or r < 1:
        raise ValueError('need n >= 1 and r >= 1')
    mults = tensor_multiplicities(n, r)
    hooks = {k: Composition.hook(n, k) for k in mults}
    total = 0
    for k, mk in mults.items():
        for l, ml in mults.items():
            total += mk * ml * hom_dim(hooks[k], hooks[l])
    return total


def _drop_last_singleton(n: int, k: int) -> Composition:
    """Reindex the hook (n-k, 1^k) of n as a composition of n-1.

    The Young subgroup of the hook fixes the letter n (k >= 1), so
    inside S_{n-1} it is the Young subgroup of (n-k, 1^(k-1)).
    """
    if k < 1:
        raise ValueError('restricted hooks need k >= 1')
    return Composition((n - k,) + (1,) * (k - 1))


def half_hom_dim(n: int, k: int, l: int) -> int:
    """Hom dimension between restricted hook modules, inside S_{n-1}."""
    return hom_dim(_drop_last_singleton(n, k), _drop_last_singleton(n, l))


def half_qpartition_dim(n: int, r: int) -> int:
    """Dimension of the centralizer of the restricted action on V tensor r.

    The subalgebra generated by T_1..T_{n-2} sees V tensor r with hook
    multiplicities shifted one Stirling step; the dimension is the same
    double coset sum computed inside S_{n-1}.  Equals B(2r+1) once
    n >= 2r + 1.
    """
    if n < 2 or r < 1:
        raise ValueError('need n >= 2 and r >= 1')
    mults = restrict_multiplicities(tensor_multiplicities(n, r), n)
    hooks = {k: _drop_last_singleton(n, k) for k in mults}
    total = 0
    for k, mk in mults.items():
        for l, ml in mults.items():
            total += mk * ml * hom_dim(hooks[k], hooks[l])
    return total
