"""Exact fraction-free Gaussian elimination over Z or over Z[q].

The Echelon class keeps a reduced row echelon form incrementally, which
is what the constraint-streaming solvers want: add rows as they are
generated (add returns None for a row already in the span, and then
stores nothing), watch the rank, read the kernel at the end.

The ring is Z when one is an int or a fractions.Fraction (a row is cleared
of denominators on entry; the rows view and nullspace, the kernel divided
by its scales, answer over Q), and Z[q] when one is a coeff.LaurentPoly
and the rows hold integer Laurent polynomials.  Any other entry raises
TypeError.  As in Bareiss (1968), a stored row is primitive and stands for
(row / d_p), d_p its pivot entry: over Z its entries have gcd 1 and d_p > 0;
over Z[q] its coefficients have gcd 1, its lowest power of q is q^0 and d_p
leads positive.  A factor of higher degree stays, since it only scales the
row:

>>> from qpartition.coeff import ONE, Q
>>> ech = Echelon(2, ONE)
>>> ech.add({0: 2 * Q * (Q + 1), 1: 4 * Q * (Q + 1)})
0
>>> [(str(L), [str(v) for v in x]) for L, x in ech.kernel()]
[('1 + q', ['-2 - 2*q', '1 + q'])]

Eliminating column p from a row res is the step res = d_p res - res[p]
row_p (over Z, d_p and res[p] first divided by their gcd), then res loses
its content; the same step keeps the stored rows fully reduced.  Nothing
is rounded anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping

from .coeff import LaurentPoly, _divmod, lp

__all__ = ['Echelon', 'rank', 'nullspace']


class Echelon:
    """Incremental reduced row echelon form with sparse dict rows."""

    def __init__(self, width: int, one):
        self.width = width
        self.one = one
        self.zero = one - one
        self._poly = isinstance(one, LaurentPoly)  # Z[q], else Z
        self._rzero = self.zero if self._poly else 0  # zero of the stored rows
        self._rows: dict[int, dict[int, object]] = {}  # pivot column -> primitive row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, pivot one, over Q."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    def _enter(self, row: Mapping[int, object]) -> dict:
        """row as stored-row values: over Z times the lcm of its denominators."""
        res = {c: v for c, v in row.items() if v}
        if self._poly:
            if not all(isinstance(v, LaurentPoly) for v in res.values()):
                raise TypeError('rows over Z[q] hold LaurentPoly entries')
            return res
        if all(type(v) is int for v in res.values()):
            return res
        if not all(isinstance(v, (int, Fraction)) for v in res.values()):
            raise TypeError('rows over Z hold int or Fraction entries')
        m = lcm(*(v.denominator for v in res.values()))
        return {c: v.numerator * (m // v.denominator) for c, v in res.items()}

    def _step(self, res: dict, p: int):
        """Eliminate column p from res with the stored row of pivot p.

        In place: res = d res - f row_p, with f = res[p] and d = d_p, over Z
        first divided by their gcd; returns the multiplier d (1 whenever d_p
        divides res[p] over Z).
        """
        row = self._rows[p]
        f, d = res[p], row[p]
        if d != 1:
            if not self._poly:
                g = gcd(f, d)
                f, d = f // g, d // g
            if d != 1:
                for c in res:
                    res[c] *= d
        zero = self._rzero
        for c, v in row.items():
            nv = res.get(c, zero) - f * v
            if nv:
                res[c] = nv
            else:
                del res[c]
        return d

    def _content(self, res: dict):
        """Divide res by the content of its entries (over Z[q] signed to make
        res lead positive at its smallest column)."""
        if self._poly:
            forms = [v.integer_form() for v in res.values()]
            if any(den != 1 for _, _, den in forms):
                raise ValueError('rows over Z[q] hold integer polynomials')
            g = gcd(*(x for _, cs, _ in forms for x in cs))
            g = -g if res[min(res)].integer_form()[1][-1] < 0 else g
            k = min(lo for lo, _, _ in forms)
            if g != 1 or k:
                scale = lp(Fraction(1, g), -k)
                res.update({c: v * scale for c, v in res.items()})
            return
        g = gcd(*res.values())
        if g > 1:
            for c in res:
                res[c] //= g

    def add(self, row: Mapping[int, object]) -> int | None:
        """Insert a row; returns the new pivot column or None if dependent
        (then nothing is stored)."""
        res = self._enter(row)
        for p in sorted(res.keys() & self._rows.keys()):
            if self._step(res, p) != 1 and res:
                self._content(res)
        if not res:
            return None
        p = min(res)
        self._content(res)  # over Z[q] this also fixes the sign of res[p]
        if not self._poly and res[p] < 0:
            res = {c: -v for c, v in res.items()}
        # keep the form fully reduced: clear column p from the other rows
        self._rows[p] = res
        for p2, row2 in self._rows.items():
            if p2 != p and p in row2:
                self._step(row2, p)
                self._content(row2)
        return p

    def kernel(self) -> list[tuple[object, list]]:
        """The nullspace in the ring: per free column f, in order, (L, x), x dense
        with x[f] = L and x / L the nullspace vector; L is the least making x
        integral over Z, over Z[q] the product of the distinct pivots d_p of
        the rows holding f, with x[p] = -row_p[f] (L / d_p) exactly."""
        out = []
        for f in (c for c in range(self.width) if c not in self._rows):
            col = [(p, row[f], row[p]) for p, row in self._rows.items() if f in row]
            if self._poly:
                L = prod(dict.fromkeys(d for _, _, d in col), start=self.one)
                x = {p: -v * _exact_quotient(L, d) for p, v, d in col}
            else:
                L = lcm(*(d // gcd(v, d) for _, v, d in col))
                x = {p: -v * L // d for p, v, d in col}
            out.append((L, [L if c == f else x.get(c, self._rzero) for c in range(self.width)]))
        return out

    def nullspace(self) -> list[list]:
        """Dense basis of the solution space of (this matrix) x = 0, over Q."""
        return [[Fraction(v, L) if v else self.zero for v in x] for L, x in self.kernel()]


def _exact_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b, raising ArithmeticError unless b divides a in Z[q]."""
    quo, rem = _divmod(a, b)
    if rem or quo.integer_form()[2] != 1:
        raise ArithmeticError(f'{b} does not divide {a} in Z[q]')
    return quo


def _echelon(rows: Iterable[Mapping[int, object] | list], width: int, one) -> Echelon:
    ech = Echelon(width, one)
    for row in rows:
        ech.add({c: v for c, v in enumerate(row) if v} if isinstance(row, list) else row)
    return ech


def rank(rows: Iterable[Mapping[int, object] | list], width: int, one) -> int:
    return _echelon(rows, width, one).rank


def nullspace(rows: Iterable[Mapping[int, object] | list], width: int, one) -> list[list]:
    return _echelon(rows, width, one).nullspace()
