"""Exact fraction-free Gaussian elimination over Z or over Z[q].

The Echelon class keeps a reduced row echelon form incrementally, which
is what the constraint-streaming commutant solver wants: feed rows as
they are generated, watch the rank, pull a nullspace basis at the end.

The ring is Z when one is an int or a fractions.Fraction (a row is cleared
of denominators on entry; rows, reduce, coordinates and nullspace answer
over Q), and Z[q] when one is a coeff.LaurentPoly and the rows hold integer
Laurent polynomials (add, rank and kernel only).  As in Bareiss (1968), a
stored row is primitive and stands for (row / d_p), d_p its pivot entry:
over Z its entries have gcd 1 and d_p > 0; over Z[q] its coefficients have
gcd 1, its lowest power of q is q^0 and d_p leads positive.  A factor of
higher degree stays, since it only scales the row:

>>> from qpartition.coeff import ONE, Q
>>> ech = Echelon(2, ONE)
>>> ech.add({0: 2 * Q * (Q + 1), 1: 4 * Q * (Q + 1)})
0
>>> [(str(L), [str(v) for v in x]) for L, x in ech.kernel()]
[('1 + q', ['-2 - 2*q', '1 + q'])]

Eliminating column p from a row res is the step res = d_p res - res[p]
row_p (over Z, d_p and res[p] first divided by their gcd), then res loses
its content; the same step keeps the stored rows fully reduced and carries
the tag combinations.  Nothing is rounded anywhere.
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
        # pivot column -> primitive stored row, and the combination of
        # tagged input rows equal to it
        self._rows: dict[int, dict[int, object]] = {}
        self._tags: dict[int, dict[object, object]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, pivot one, over Q."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self._rows.items()}

    def _enter(self, row: Mapping[int, object], tag_row: Mapping | None):
        """row and tag_row as stored-row values, and the factor m applied:
        over Z both are multiplied by the lcm m of their denominators."""
        res = {c: v for c, v in row.items() if v}
        combo = {t: v for t, v in tag_row.items() if v} if tag_row else {}
        if self._poly or all(type(v) is int for v in res.values()) and \
                all(type(v) is int for v in combo.values()):
            return res, combo, 1
        m = lcm(*(v.denominator for v in res.values()),
                *(v.denominator for v in combo.values()))
        res = {c: v.numerator * (m // v.denominator) for c, v in res.items()}
        combo = {t: v.numerator * (m // v.denominator) for t, v in combo.items()}
        return res, combo, m

    def _step(self, res: dict, combo: dict, p: int):
        """Eliminate column p from res with the stored row of pivot p.

        In place: res = d res - f row_p and combo likewise, with f = res[p]
        and d = d_p, over Z first divided by their gcd; returns the
        multiplier d (1 whenever d_p divides res[p] over Z).
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
                for t in combo:
                    combo[t] *= d
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

    def _content(self, res: dict, combo: dict):
        """Divide res and combo by the content of all their entries (over
        Z[q] signed to make res lead positive at its smallest column); returns it."""
        if self._poly:
            forms = [v.integer_form() for v in (*res.values(), *combo.values())]
            if any(den != 1 for _, _, den in forms):
                raise ValueError('rows over Z[q] hold integer polynomials')
            g = gcd(*(x for _, cs, _ in forms for x in cs))
            g = -g if res[min(res)].integer_form()[1][-1] < 0 else g
            k = min(lo for lo, _, _ in forms)
            if g != 1 or k:
                scale = lp(Fraction(1, g), -k)
                for entries in (res, combo):
                    entries.update({key: v * scale for key, v in entries.items()})
            return lp(g, k)
        g = gcd(*res.values(), *combo.values())
        if g > 1:
            for c in res:
                res[c] //= g
            for t in combo:
                combo[t] //= g
        return g

    def _reduce(self, res: dict, combo: dict):
        """Eliminate every pivot column from res, in place.

        Returns (num, den): the true residual is res * den / num.
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
        self._content(res, combo)  # over Z[q] this also fixes the sign of res[p]
        if not self._poly and res[p] < 0:
            res = {c: -v for c, v in res.items()}
            combo = {t: -v for t, v in combo.items()}
        # keep the form fully reduced: clear column p from the other rows
        self._rows[p], self._tags[p] = res, combo
        for p2, row2 in self._rows.items():
            if p2 != p and p in row2:
                tags2 = self._tags[p2]
                self._step(row2, tags2, p)
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
                    vec[p] = Fraction(-row[f], row[p])
            basis.append(vec)
        return basis

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

    def coordinates(self, row: Mapping[int, object]):
        """Combination of inserted tagged rows equal to row, or None.

        Only meaningful if every add() call carried a tag.
        """
        res, combo = self.reduce(row, {})
        if res:
            return None
        return {t: self.zero - v for t, v in combo.items()}


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
