"""The Iwahori-Hecke algebra of the symmetric group over Q[q, q^-1].

Elements are sparse linear combinations of the standard basis {T_w}.
The defining relations on the generators T_i = T_{s_i} are

    T_i T_j = T_j T_i               for |i - j| >= 2,
    T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1},
    T_i^2 = q + (q - 1) T_i,

and products against the basis follow the length rule: T_s T_w equals
T_{sw} if the length goes up, and q T_{sw} + (q-1) T_w if it goes down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, TypeVar, Union

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

_Q_MINUS_ONE = Q - 1


class RankMismatch(ValueError):
    """Raised when combining elements living over different symmetric groups."""


def _as_poly(c: Scalar) -> LaurentPoly:
    return c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})


@dataclass(frozen=True)
class HeckeElement:
    """A finite sum of terms coeff * T_w, all w in the same S_n."""

    n: int
    terms: tuple[tuple[Permutation, LaurentPoly], ...]

    @classmethod
    def build(cls, n: int, data: Mapping[Permutation, LaurentPoly]) -> HeckeElement:
        clean = sorted((w, c) for w, c in data.items() if c)
        for w, _ in clean:
            if w.n != n:
                raise RankMismatch(f'{w} does not live in S_{n}')
        return cls(n, tuple(clean))

    @classmethod
    def zero(cls, n: int) -> HeckeElement:
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> HeckeElement:
        return cls.build(n, {Permutation.identity(n): ONE})

    def coefficient(self, w: Permutation) -> LaurentPoly:
        for v, c in self.terms:
            if v == w:
                return c
        return LaurentPoly()

    def support(self) -> tuple[Permutation, ...]:
        return tuple(w for w, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: HeckeElement) -> None:
        if self.n != other.n:
            raise RankMismatch(f'cannot combine S_{self.n} and S_{other.n} elements')

    def __add__(self, other: HeckeElement) -> HeckeElement:
        self._check(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, ZERO) + c
        return HeckeElement.build(self.n, acc)

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> HeckeElement:
        c = _as_poly(c)
        return HeckeElement.build(self.n, {w: c * cw for w, cw in self.terms})

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        """Product in the algebra, expanding the left factor into generators."""
        self._check(other)
        pieces = act_by_words(self.support(), other, generator_times)
        acc: dict[Permutation, LaurentPoly] = {}
        for w, c in self.terms:
            for v, cv in pieces[w].terms:
                acc[v] = acc.get(v, ZERO) + c * cv
        return HeckeElement.build(self.n, acc)

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
    """The basis element T_w."""
    return HeckeElement.build(w.n, {w: ONE})


def generator_times(i: int, h: HeckeElement) -> HeckeElement:
    """Left multiplication T_i * h using the length rule."""
    n = h.n
    if not 1 <= i <= n - 1:
        raise RankMismatch(f'T_{i} does not exist for S_{n}')
    s = Permutation.simple(n, i)
    acc: dict[Permutation, LaurentPoly] = {}

    def bump(w: Permutation, c: LaurentPoly) -> None:
        acc[w] = acc.get(w, ZERO) + c

    for w, c in h.terms:
        sw = s * w
        if w.images.index(i) < w.images.index(i + 1):
            # l(sw) = l(w) + 1
            bump(sw, c)
        else:
            bump(sw, Q * c)
            bump(w, _Q_MINUS_ONE * c)
    return HeckeElement.build(n, acc)


def times_generator(h: HeckeElement, i: int) -> HeckeElement:
    """Right multiplication h * T_i."""
    n = h.n
    if not 1 <= i <= n - 1:
        raise RankMismatch(f'T_{i} does not exist for S_{n}')
    s = Permutation.simple(n, i)
    acc: dict[Permutation, LaurentPoly] = {}

    def bump(w: Permutation, c: LaurentPoly) -> None:
        acc[w] = acc.get(w, ZERO) + c

    for w, c in h.terms:
        ws = w * s
        if w(i) < w(i + 1):
            bump(ws, c)
        else:
            bump(ws, Q * c)
            bump(w, _Q_MINUS_ONE * c)
    return HeckeElement.build(n, acc)


def generator_inverse(n: int, i: int) -> HeckeElement:
    """T_i^-1 = (q^-1 - 1) + q^-1 T_i, from the quadratic relation."""
    return HeckeElement.build(n, {
        Permutation.identity(n): lp(1, -1) - 1,
        Permutation.simple(n, i): lp(1, -1),
    })


def t_w_inverse(w: Permutation) -> HeckeElement:
    """T_w^-1 via a reduced word: invert the generators in reverse order."""
    n = w.n
    out = HeckeElement.one(n)
    for i in reversed(w.reduced_word()):
        out = times_generator(out, i).scale(lp(1, -1)) + out.scale(lp(1, -1) - 1)
    return out


def young_sum(lam: Composition) -> HeckeElement:
    """x_lambda = sum of T_w over the Young subgroup Y_lambda.

    Satisfies T_w x_lambda = q^l(w) x_lambda = x_lambda T_w for w in Y_lambda.
    """
    return HeckeElement.build(lam.n, {w: ONE for w in lam.young_subgroup()})


def signed_young_sum(lam: Composition) -> HeckeElement:
    """y_lambda = sum of (-q)^(-l(w)) T_w over Y_lambda.

    Satisfies T_w y_lambda = (-1)^l(w) y_lambda for w in Y_lambda.
    """
    return HeckeElement.build(lam.n, {
        w: lp(Fraction((-1) ** w.length()), -w.length()) for w in lam.young_subgroup()
    })
