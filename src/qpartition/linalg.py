"""Exact Gaussian elimination over Q, fraction-free, or over any field.

The Echelon class keeps a reduced row echelon form incrementally, which
is what the constraint-streaming commutant solver wants: feed rows as
they are generated, watch the rank, pull a nullspace basis at the end.

Over Q (the field's one is an int or a fractions.Fraction) the rows are
kept fraction-free, in the manner of Bareiss: each stored row is a
primitive integer vector (the gcd of its entries is 1) with a positive
pivot d_p, and it stands for the reduced row (row / d_p).  An incoming
row has its denominators cleared once, on entry; integer rows are taken
as they are.  Eliminating column p from a row res is then the integer
step res = d_p res - res[p] row_p, with d_p and res[p] first divided
by their gcd, followed by removing the content of res.  The same step
keeps the stored rows fully reduced and carries the tag combinations.

Over any other field (such as Q(q), coeff.RationalFunction) field
elements only need +, -, *, /, == and truthiness
(zero is falsy).  Each stored row is normalised to pivot one, so d_p is
one and the step above is ordinary elimination.

Either way no rounding happens anywhere: a row reduces to zero or it
does not, and the results (rank, pivots, residuals, combinations, the
reduced rows and the nullspace, as field values) do not depend on the
representation, since the reduced row echelon form is unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

__all__ = ['Echelon', 'rank', 'nullspace']


class Echelon:
    """Incremental reduced row echelon form with sparse dict rows."""

    def __init__(self, width: int, one):
        self.width = width
        self.one = one
        self.zero = one - one
        self._over_z = isinstance(one, (int, Fraction))
        self._rzero = 0 if self._over_z else self.zero  # zero of the stored rows
        # pivot column -> stored row (primitive integer over Q, pivot one
        # otherwise) and the combination of tagged input rows equal to it
        self._rows: dict[int, dict[int, object]] = {}
        self._tags: dict[int, dict[object, object]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, object]]:
        """The reduced row echelon form, pivot one, as field values."""
        if not self._over_z:
            return {p: dict(row) for p, row in self._rows.items()}
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    def _enter(self, row: Mapping[int, object], tag_row: Mapping | None):
        """row and tag_row as stored-row values, and the factor m applied:
        over Q both are multiplied by the lcm m of their denominators."""
        res = {c: v for c, v in row.items() if v}
        combo = {t: v for t, v in tag_row.items() if v} if tag_row else {}
        if not self._over_z:
            return res, combo, 1
        if all(type(v) is int for v in res.values()) and \
                all(type(v) is int for v in combo.values()):
            return res, combo, 1
        m = lcm(*(v.denominator for v in res.values()),
                *(v.denominator for v in combo.values()))
        res = {c: v.numerator * (m // v.denominator) for c, v in res.items()}
        combo = {t: v.numerator * (m // v.denominator) for t, v in combo.items()}
        return res, combo, m

    def _step(self, res: dict, combo: dict, p: int) -> int:
        """Eliminate column p from res with the stored row of pivot p.

        In place: res = d res - f row_p and combo likewise, where f / d is
        res[p] / d_p in lowest terms; returns the multiplier d (1 over a
        field other than Q, and whenever d_p divides res[p]).
        """
        row = self._rows[p]
        f, d = res[p], row[p]
        if self._over_z and d != 1:
            g = gcd(f, d)
            f, d = f // g, d // g
            if d != 1:
                for c in res:
                    res[c] *= d
                for t in combo:
                    combo[t] *= d
        else:
            d = 1
        zero = self._rzero
        for c, v in row.items():
            nv = res.get(c, zero) - f * v
            if nv:
                res[c] = nv
            else:
                del res[c]
        for t, v in self._tags[p].items():
            nv = combo.get(t, zero) - f * v
            if nv:
                combo[t] = nv
            else:
                del combo[t]
        return d

    def _content(self, res: dict, combo: dict) -> int:
        """Divide res and combo by the gcd of all their entries; returns it."""
        g = gcd(*res.values(), *combo.values())
        if g > 1:
            for c in res:
                res[c] //= g
            for t in combo:
                combo[t] //= g
        return g

    def _reduce(self, res: dict, combo: dict) -> tuple[int, int]:
        """Eliminate every pivot column from res, in place.

        Returns (num, den): the true residual is res * den / num (both are
        1 over a field other than Q).
        """
        num = den = 1
        for p in sorted(res.keys() & self._rows.keys()):
            d = self._step(res, combo, p)
            if d != 1:
                num *= d
                if res:
                    den *= self._content(res, combo)
        return num, den

    def reduce(self, row: Mapping[int, object], tag_row: Mapping | None = None):
        """Residual of row modulo the current row space (also combination)."""
        res, combo, m = self._enter(row, tag_row)
        if not self._over_z:
            self._reduce(res, combo)
            return res, combo
        num, den = self._reduce(res, combo)
        scale = Fraction(den, num * m)
        return ({c: v * scale for c, v in res.items()},
                {t: v * scale for t, v in combo.items()})

    def add(self, row: Mapping[int, object], tag=None) -> int | None:
        """Insert a row; returns the new pivot column or None if dependent."""
        res, combo, _ = self._enter(row, {tag: self.one} if tag is not None else None)
        self._reduce(res, combo)
        if not res:
            return None
        p = min(res)
        if self._over_z:
            self._content(res, combo)
            if res[p] < 0:
                res = {c: -v for c, v in res.items()}
                combo = {t: -v for t, v in combo.items()}
        else:
            inv = self.one / res[p]
            res = {c: inv * v for c, v in res.items()}
            combo = {t: inv * v for t, v in combo.items()}
        # keep the form fully reduced: clear column p from the other rows
        self._rows[p], self._tags[p] = res, combo
        for p2, row2 in self._rows.items():
            if p2 != p and p in row2:
                tags2 = self._tags[p2]
                self._step(row2, tags2, p)
                if self._over_z:
                    self._content(row2, tags2)
        return p

    def nullspace(self) -> list[list]:
        """Dense basis of the solution space of (this matrix) x = 0."""
        pivots = set(self._rows)
        free = [c for c in range(self.width) if c not in pivots]
        basis = []
        for f in free:
            vec = [self.zero] * self.width
            vec[f] = self.one
            for p, row in self._rows.items():
                if f in row:
                    vec[p] = (Fraction(-row[f], row[p]) if self._over_z
                              else self.zero - row[f])
            basis.append(vec)
        return basis

    def coordinates(self, row: Mapping[int, object]):
        """Combination of inserted tagged rows equal to row, or None.

        Only meaningful if every add() call carried a tag.
        """
        res, combo = self.reduce(row, {})
        if res:
            return None
        return {t: self.zero - v for t, v in combo.items()}


def rank(rows: Iterable[Mapping[int, object] | list], width: int, one) -> int:
    ech = Echelon(width, one)
    for row in rows:
        if isinstance(row, list):
            row = {c: v for c, v in enumerate(row) if v}
        ech.add(row)
    return ech.rank


def nullspace(rows: Iterable[Mapping[int, object] | list], width: int, one) -> list[list]:
    ech = Echelon(width, one)
    for row in rows:
        if isinstance(row, list):
            row = {c: v for c, v in enumerate(row) if v}
        ech.add(row)
    return ech.nullspace()
