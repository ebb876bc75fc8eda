"""The Iwahori-Hecke algebra of the symmetric group over Q[q, q^-1].

Elements are sparse linear combinations of the standard basis {T_w}.
The defining relations on the generators T_i = T_{s_i} are

    T_i T_j = T_j T_i               for |i - j| >= 2,
    T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1},
    T_i^2 = q + (q - 1) T_i,

and products against the basis follow the length rule: T_s T_w equals
T_{sw} if the length goes up, and q T_{sw} + (q-1) T_w if it goes down.

The same three-case rule gives T_i on V tensor r and on the q-permutation
modules, so HeckeElement and the module vectors share one sparse element
type, _Sparse; each supplies its classifier, the (case, target) of T_i.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, TypeVar, Union

from ._record import FrozenRecord
from .coeff import LaurentPoly, ONE, Q, ZERO, lp
from .symcomb import Composition, Permutation

__all__ = [
    'HeckeElement',
    'RankMismatch',
    'act_by_words',
    't_w',
    't_w_inverse',
    'generator_inverse',
    'young_sum',
    'signed_young_sum',
]

Scalar = Union[int, Fraction, LaurentPoly]
V = TypeVar('V')
S = TypeVar('S', bound='_Sparse')

_Q_MINUS_ONE = Q - 1
_Q_INVERSE = lp(1, -1)


class RankMismatch(ValueError):
    """Raised when combining elements living over different symmetric groups."""


def _as_poly(c: Scalar) -> LaurentPoly:
    return c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})


def _images(term: tuple[Permutation, LaurentPoly]) -> tuple[int, ...]:
    return term[0].images


def _column(b: Hashable, case: int, t: Hashable) -> dict[Hashable, LaurentPoly]:
    """T_i b as {label: coefficient}, from the (case, target t) of T_i on b:
    q b (case 1), the plain swap t (case 2), or q t + (q - 1) b (case 3)."""
    if case == 1:
        return {b: Q}
    if case == 2:
        return {t: ONE}
    return {t: Q, b: _Q_MINUS_ONE}


class _Sparse(FrozenRecord):
    """A finite sum of terms coeff * b over the basis labels b of one module.

    A subclass is a frozen record whose __slots__ are the fields of its
    _space, then terms, the (label, nonzero LaurentPoly) pairs sorted by
    _key; its __init__ takes them in that order.  It supplies n (H(S_n)
    acts), the label check _label(space, b) and the classifier
    _rule(i, b) -> (case, target) of T_i (see _column).
    """

    __slots__ = ()
    _key = staticmethod(itemgetter(0))
    _range_error = RankMismatch

    # FrozenRecord's == and hash, field by field without the generic tuple
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._space == other._space and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((*self._space, self.terms))

    @classmethod
    def build(cls: type[S], *args) -> S:
        """build(*space, data): checks and normalises every label, zero terms
        included, and makes every coefficient a LaurentPoly (floats raise)."""
        *space, data = args
        acc: dict = {}
        for b, c in data.items():
            b = cls._label(space, b)
            acc[b] = acc.get(b, ZERO) + _as_poly(c)
        return cls._make(space, acc)

    @classmethod
    def _make(cls: type[S], space, data: Mapping) -> S:
        """build for labels valid by construction and LaurentPoly coefficients."""
        return cls(*space, tuple(sorted([(b, c) for b, c in data.items() if c], key=cls._key)))

    def coefficient(self, b) -> LaurentPoly:
        for v, c in self.terms:
            if v == b:
                return c
        return LaurentPoly()

    def support(self) -> tuple:
        return tuple(b for b, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self: S, other: S) -> S:
        if self._space != other._space:
            raise RankMismatch(f'cannot combine elements over {self._space} and {other._space}')
        acc = dict(self.terms)
        for b, c in other.terms:
            acc[b] = acc.get(b, ZERO) + c
        return self._make(self._space, acc)

    def __sub__(self: S, other: S) -> S:
        return self + other.scale(-1)

    def scale(self: S, c: Scalar) -> S:
        c = _as_poly(c)
        return self._make(self._space, {b: c * cb for b, cb in self.terms})

    def generator_step(self: S, i: int) -> S:
        """T_i times this vector, by the three-case rule on each label."""
        n = self.n
        if not 1 <= i <= n - 1:
            raise self._range_error(f'T_{i} does not exist for S_{n}')
        acc: dict = {}
        for b, c in self.terms:
            for b2, c2 in _column(b, *self._rule(i, b)).items():
                acc[b2] = acc.get(b2, ZERO) + c2 * c
        return self._make(self._space, acc)


def act(h: HeckeElement, v: S) -> S:
    """h v for a module element v: each T_w through act_by_words, then the sum."""
    if h.n != v.n:
        raise RankMismatch(f'element of H(S_{h.n}) cannot act on letters 1..{v.n}')
    pieces = act_by_words(h.support(), v, generator_times)
    acc: dict = {}
    for w, c in h.terms:
        for b, cb in pieces[w].terms:
            acc[b] = acc.get(b, ZERO) + c * cb
    return v._make(v._space, acc)


class HeckeElement(_Sparse):
    """A finite sum of terms coeff * T_w, all w in the same S_n."""

    __slots__ = ('n', 'terms')
    _key = staticmethod(_images)

    def __init__(self, n: int, terms: tuple[tuple[Permutation, LaurentPoly], ...]):
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'terms', terms)

    @property
    def _space(self) -> tuple[int]:
        return (self.n,)

    @staticmethod
    def _label(space, w: Permutation) -> Permutation:
        if not isinstance(w, Permutation):
            raise TypeError(f'T_w is labelled by a Permutation, not {type(w).__name__}')
        if w.n != space[0]:
            raise RankMismatch(f'{w} does not live in S_{space[0]}')
        return w

    @staticmethod
    def _rule(i: int, w: Permutation) -> tuple[int, Permutation]:
        """The length rule: T_i T_w = T_{s_i w} (case 2) when the length goes
        up, that is when i comes before i+1 in w's one-line notation."""
        im = w.images
        return (2 if im.index(i) < im.index(i + 1) else 3), Permutation.simple(w.n, i) * w

    @classmethod
    def zero(cls, n: int) -> HeckeElement:
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> HeckeElement:
        return cls._make((n,), {Permutation.identity(n): ONE})

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        """Product in the algebra, expanding the left factor into generators."""
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return act(self, other)

    def to_json(self) -> list[dict]:
        return [{'perm': list(w.images), 'coeff': c.to_json()} for w, c in self.terms]

    @classmethod
    def from_json(cls, n: int, data: list[dict]) -> HeckeElement:
        return cls.build(n, {
            Permutation(tuple(item['perm'])): LaurentPoly.from_json(item['coeff'])
            for item in data
        })

    def __repr__(self) -> str:
        if not self.terms:
            return f'HeckeElement({self.n}, 0)'
        body = ' + '.join(f'({c})*T{w.images}' for w, c in self.terms)
        return f'HeckeElement({self.n}, {body})'


def act_by_words(ws: Iterable[Permutation], v: V, step: Callable[[int, V], V]) -> dict[Permutation, V]:
    """{w: T_w v} for every w in ws, each T_w acting through a reduced word.

    T_w v = step(i, T_{s_i w} v) with i the first letter of
    w.reduced_word(), so T_w is applied letter by letter from the right
    end of the word; step(i, u) must compute T_i u.  Every shorter
    element met on the way is computed once and shared, which is what
    makes acting with many T_w (a whole Hecke element, or all coset
    representatives) cheaper than walking each word separately.
    """
    memo: dict[Permutation, V] = {}
    out: dict[Permutation, V] = {}
    for w in ws:
        path = []
        u = w
        while u not in memo:
            if u.is_identity():
                memo[u] = v
                break
            i = u.reduced_word()[0]
            su = Permutation.simple(u.n, i) * u
            path.append((u, i, su))
            u = su
        for u, i, su in reversed(path):
            memo[u] = step(i, memo[su])
        out[w] = memo[w]
    return out


def t_w(w: Permutation) -> HeckeElement:
    """The basis element T_w; w is checked as build checks its labels."""
    space = (getattr(w, 'n', 0),)
    return HeckeElement._make(space, {HeckeElement._label(space, w): ONE})


def generator_times(i: int, h: S) -> S:
    """Left multiplication T_i * h, by the length rule on H(S_n) and by
    its module's own rule on a module element."""
    return h.generator_step(i)


def generator_inverse(n: int, i: int) -> HeckeElement:
    """T_i^-1 = (q^-1 - 1) + q^-1 T_i, from the quadratic relation."""
    return HeckeElement._make((n,), {
        Permutation.identity(n): _Q_INVERSE - 1,
        Permutation.simple(n, i): _Q_INVERSE,
    })


def t_w_inverse(w: Permutation) -> HeckeElement:
    """T_w^-1 via a reduced word: T_i^-1 = q^-1 T_i + (q^-1 - 1), applied
    on the left letter by letter, so the inverses come out in reverse order."""
    out = HeckeElement.one(w.n)
    for i in w.reduced_word():
        out = out.generator_step(i).scale(_Q_INVERSE) + out.scale(_Q_INVERSE - 1)
    return out


def young_sum(lam: Composition) -> HeckeElement:
    """x_lambda = sum of T_w over the Young subgroup Y_lambda.

    Satisfies T_w x_lambda = q^l(w) x_lambda = x_lambda T_w for w in Y_lambda.
    """
    return HeckeElement._make((lam.n,), {w: ONE for w in lam.young_subgroup()})


def signed_young_sum(lam: Composition) -> HeckeElement:
    """y_lambda = sum of (-q)^(-l(w)) T_w over Y_lambda.

    Satisfies T_w y_lambda = (-1)^l(w) y_lambda for w in Y_lambda.
    """
    return HeckeElement._make((lam.n,), {
        w: lp(Fraction((-1) ** w.length()), -w.length()) for w in lam.young_subgroup()
    })
