"""q-permutation modules, their homomorphisms, and dimension bookkeeping.

M_q^lambda is the left ideal generated by the Young subgroup sum
x_lambda; its basis is {T_d x_lambda} over the distinguished coset
representatives d.  A generator T_i moves a basis vector by the rows of
i and i+1 in the row-standard tableau d applied to the initial tableau:

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

from dataclasses import dataclass
from functools import cache

from .coeff import LaurentPoly, ONE, Q, ZERO
from .hecke import HeckeElement, RankMismatch, act_by_words
from .symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
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

_Q_MINUS_ONE = Q - 1


@dataclass(frozen=True)
class QPermElement:
    """A vector in M_q^lambda in the distinguished basis {T_d x_lambda}."""

    shape: Composition
    terms: tuple[tuple[Permutation, LaurentPoly], ...]

    @classmethod
    def build(cls, shape: Composition, data: dict[Permutation, LaurentPoly]) -> QPermElement:
        reps = set(coset_reps(shape))
        for d in data:
            if d not in reps:
                raise NotDistinguished(f'{d} is not a distinguished coset rep for {shape}')
        return cls(shape, tuple(sorted((d, c) for d, c in data.items() if c)))

    @classmethod
    def basis_vector(cls, shape: Composition, d: Permutation) -> QPermElement:
        return cls.build(shape, {d: ONE})

    def coefficient(self, d: Permutation) -> LaurentPoly:
        for e, c in self.terms:
            if e == d:
                return c
        return LaurentPoly()

    def __add__(self, other: QPermElement) -> QPermElement:
        if self.shape != other.shape:
            raise RankMismatch('different shapes')
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc.get(d, ZERO) + c
        return QPermElement.build(self.shape, acc)

    def scale(self, c: LaurentPoly | int) -> QPermElement:
        c = c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})
        return QPermElement.build(self.shape, {d: c * cd for d, cd in self.terms})

    def __sub__(self, other: QPermElement) -> QPermElement:
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return not self.terms


def apply_generator_to_basis(i: int, shape: Composition, d: Permutation) -> dict[Permutation, LaurentPoly]:
    """T_i (T_d x_lambda) as a sparse combination of basis vectors.

    The rows of i and i+1 in the tableau d applied to the initial
    tableau are the block indices of d^-1(i) and d^-1(i+1).
    """
    n = shape.n
    if not 1 <= i <= n - 1:
        raise RankMismatch(f'T_{i} does not exist for S_{n}')
    dinv = d.inverse()
    row_i = shape.block_index(dinv(i))
    row_i1 = shape.block_index(dinv(i + 1))
    if row_i == row_i1:
        return {d: Q}
    sd = Permutation.simple(n, i) * d
    if row_i < row_i1:
        return {sd: ONE}
    return {sd: Q, d: _Q_MINUS_ONE}


def apply_generator(i: int, v: QPermElement) -> QPermElement:
    acc: dict[Permutation, LaurentPoly] = {}
    for d, c in v.terms:
        for d2, c2 in apply_generator_to_basis(i, v.shape, d).items():
            acc[d2] = acc.get(d2, ZERO) + c * c2
    return QPermElement.build(v.shape, acc)


def apply(h: HeckeElement, v: QPermElement) -> QPermElement:
    """A Hecke algebra element acting on a module element."""
    if h.n != v.shape.n:
        raise RankMismatch('algebra and module over different symmetric groups')
    pieces = act_by_words(h.support(), v, apply_generator)
    out = QPermElement.build(v.shape, {})
    for w, c in h.terms:
        out = out + pieces[w].scale(c)
    return out


@dataclass(frozen=True)
class HomMatrix:
    """A module homomorphism M_q^mu -> M_q^lambda in distinguished bases.

    columns[c] lists the image of the c-th basis vector of the source as
    a dense tuple of coefficients over the target basis.  Basis order is
    the sorted order of coset_reps.
    """

    source: Composition
    target: Composition
    columns: tuple[tuple[LaurentPoly, ...], ...]

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
        return QPermElement.build(self.target, acc)


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


def _double_coset_members(mu: Composition, lam: Composition) -> dict[Permutation, list[Permutation]]:
    """The distinguished reps e of lambda's left cosets, grouped by the
    distinguished rep of their double coset Y_mu e Y_lambda."""
    members: dict[Permutation, list[Permutation]] = {}
    for e in coset_reps(lam):
        members.setdefault(_double_rep(mu, lam, e), []).append(e)
    return members


def _double_rep(mu: Composition, lam: Composition, e: Permutation) -> Permutation:
    """The minimal length element of Y_mu e Y_lambda, found by greedy descent."""
    w = e
    changed = True
    while changed:
        changed = False
        for s_block in mu.blocks():
            for a, b in zip(s_block, s_block[1:]):
                if w.inverse()(a) > w.inverse()(b):
                    w = _transpose(w, a, b, left=True)
                    changed = True
        for s_block in lam.blocks():
            for a, b in zip(s_block, s_block[1:]):
                if w(a) > w(b):
                    w = _transpose(w, a, b, left=False)
                    changed = True
    return w


def _hom_matrix(mu: Composition, lam: Composition, members: list[Permutation]) -> HomMatrix:
    """The map sending x_mu to the sum of T_e x_lambda over members."""
    src = coset_reps(mu)
    tgt = coset_reps(lam)
    base = QPermElement.build(lam, {e: ONE for e in members})
    images = act_by_words(src, base, apply_generator)
    columns = []
    for c in src:
        tgt_coeffs = dict(images[c].terms)
        columns.append(tuple(tgt_coeffs.get(e, ZERO) for e in tgt))
    return HomMatrix(mu, lam, tuple(columns))


def _transpose(w: Permutation, a: int, b: int, left: bool) -> Permutation:
    """Multiply w by the transposition (a b) on the chosen side."""
    im = list(w.images)
    if left:
        for idx, x in enumerate(im):
            if x == a:
                im[idx] = b
            elif x == b:
                im[idx] = a
    else:
        im[a - 1], im[b - 1] = im[b - 1], im[a - 1]
    return Permutation(tuple(im))


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
    total = 0
    for k, mk in mults.items():
        for l, ml in mults.items():
            total += mk * ml * hom_dim(Composition.hook(n, k), Composition.hook(n, l))
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
    total = 0
    for k, mk in mults.items():
        for l, ml in mults.items():
            total += mk * ml * half_hom_dim(n, k, l)
    return total
