"""Exact fraction-free Gaussian elimination over Z.

The Echelon class keeps a reduced row echelon form incrementally, which
is what the constraint-streaming solvers want: add rows as they are
generated (add returns None for a row already in the span, and then
stores nothing), watch the rank, read the kernel at the end.

Rows hold ints or fractions.Fraction (a row is cleared of denominators on
entry; the rows view and nullspace, the kernel divided by its scales,
answer over Q); any other entry raises TypeError, and so does a one
argument (it types the zeros of nullspace) that is not an int or
Fraction.  As in Bareiss (1968), a stored row is primitive and stands
for (row / d_p), d_p its pivot entry: its entries have gcd 1 and
d_p > 0.

>>> from fractions import Fraction
>>> ech = Echelon(3, Fraction(1))
>>> ech.add({0: 4, 1: 6, 2: Fraction(2, 3)})
0
>>> ech.kernel()
[(2, [-3, 2, 0]), (6, [-1, 0, 6])]
>>> [[str(v) for v in x] for x in ech.nullspace()]
[['-3/2', '1', '0'], ['-1/6', '0', '1']]

Eliminating column p from a row res is the step res = d_p res - res[p]
row_p, d_p and res[p] first divided by their gcd, then res loses its
content; the same step keeps the stored rows fully reduced.  Nothing is
rounded anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

__all__ = ['Echelon', 'rank', 'nullspace']


class Echelon:
    """Incremental reduced row echelon form with sparse dict rows."""

    def __init__(self, width: int, one):
        if not isinstance(one, (int, Fraction)):
            raise TypeError(f'Echelon works over Z: one is an int or Fraction, got {one!r}')
        self.width = width
        self.one = one
        self.zero = one - one
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> primitive row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, pivot one, over Q."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    def _enter(self, row: Mapping[int, object]) -> dict[int, int]:
        """row times the lcm of its denominators, as ints."""
        res = {c: v for c, v in row.items() if v}
        if all(type(v) is int for v in res.values()):
            return res
        if not all(isinstance(v, (int, Fraction)) for v in res.values()):
            raise TypeError('rows over Z hold int or Fraction entries')
        m = lcm(*(v.denominator for v in res.values()))
        return {c: v.numerator * (m // v.denominator) for c, v in res.items()}

    def _step(self, res: dict[int, int], p: int) -> int:
        """Eliminate column p from res with the stored row of pivot p.

        In place: res = d res - f row_p, with f = res[p] and d = d_p first
        divided by their gcd; returns the multiplier d (1 whenever d_p
        divides res[p]).
        """
        row = self._rows[p]
        f, d = res[p], row[p]
        if d != 1:
            g = gcd(f, d)
            f, d = f // g, d // g
            if d != 1:
                for c in res:
                    res[c] *= d
        for c, v in row.items():
            nv = res.get(c, 0) - f * v
            if nv:
                res[c] = nv
            else:
                del res[c]
        return d

    def _content(self, res: dict[int, int]):
        """Divide res by the gcd of its entries."""
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
        self._content(res)
        if res[p] < 0:
            res = {c: -v for c, v in res.items()}
        # keep the form fully reduced: clear column p from the other rows
        self._rows[p] = res
        for p2, row2 in self._rows.items():
            if p2 != p and p in row2:
                self._step(row2, p)
                self._content(row2)
        return p

    def kernel(self) -> list[tuple[int, list[int]]]:
        """The nullspace in integers: per free column f, in order, (L, x), x
        dense with x[f] = L and x / L the nullspace vector, L the least
        making x integral."""
        out = []
        for f in (c for c in range(self.width) if c not in self._rows):
            col = [(p, row[f], row[p]) for p, row in self._rows.items() if f in row]
            L = lcm(*(d // gcd(v, d) for _, v, d in col))
            x = {p: -v * L // d for p, v, d in col}
            out.append((L, [L if c == f else x.get(c, 0) for c in range(self.width)]))
        return out

    def nullspace(self) -> list[list]:
        """Dense basis of the solution space of (this matrix) x = 0, over Q."""
        return [[Fraction(v, L) if v else self.zero for v in x] for L, x in self.kernel()]


def _echelon(rows: Iterable[Mapping[int, object] | list], width: int, one) -> Echelon:
    ech = Echelon(width, one)
    for row in rows:
        ech.add({c: v for c, v in enumerate(row) if v} if isinstance(row, list) else row)
    return ech


def rank(rows: Iterable[Mapping[int, object] | list], width: int, one) -> int:
    return _echelon(rows, width, one).rank


def nullspace(rows: Iterable[Mapping[int, object] | list], width: int, one) -> list[list]:
    return _echelon(rows, width, one).nullspace()
