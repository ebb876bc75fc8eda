"""Exact Gaussian elimination over any field.

Field elements only need +, -, *, /, == and truthiness (zero is falsy).
That covers fractions.Fraction and the rational function field defined
in centralizer.  No rounding anywhere; a row either reduces to zero or
it does not.

The Echelon class keeps a reduced row echelon form incrementally, which
is what the constraint-streaming commutant solver wants: feed rows as
they are generated, watch the rank, pull a nullspace basis at the end.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ['Echelon', 'rank', 'nullspace']


class Echelon:
    """Incremental reduced row echelon form with sparse dict rows."""

    def __init__(self, width: int, one):
        self.width = width
        self.one = one
        self.zero = one - one
        self.rows: dict[int, dict[int, object]] = {}  # pivot column -> row
        self.tags: dict[int, dict[object, object]] = {}  # pivot -> combination

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Mapping[int, object], tag_row: Mapping | None = None):
        """Residual of row modulo the current row space (also combination)."""
        res = {c: v for c, v in row.items() if v}
        combo = dict(tag_row) if tag_row is not None else {}
        for p in sorted(res):
            if p in self.rows and res.get(p):
                factor = res[p]
                for c, v in self.rows[p].items():
                    newv = res.get(c, self.zero) - factor * v
                    if newv:
                        res[c] = newv
                    else:
                        res.pop(c, None)
                for t, v in self.tags.get(p, {}).items():
                    newv = combo.get(t, self.zero) - factor * v
                    if newv:
                        combo[t] = newv
                    else:
                        combo.pop(t, None)
        return {c: v for c, v in res.items() if v}, combo

    def add(self, row: Mapping[int, object], tag=None) -> int | None:
        """Insert a row; returns the new pivot column or None if dependent."""
        tag_row = {tag: self.one} if tag is not None else None
        res, combo = self.reduce(row, tag_row)
        if not res:
            return None
        p = min(res)
        inv = self.one / res[p]
        new_row = {c: inv * v for c, v in res.items()}
        new_tags = {t: inv * v for t, v in combo.items()}
        # keep the form fully reduced: clear column p from the other rows
        for p2, row2 in self.rows.items():
            if p in row2:
                factor = row2[p]
                for c, v in new_row.items():
                    newv = row2.get(c, self.zero) - factor * v
                    if newv:
                        row2[c] = newv
                    else:
                        row2.pop(c, None)
                if tag is not None or self.tags.get(p2):
                    t2 = self.tags.setdefault(p2, {})
                    for t, v in new_tags.items():
                        newv = t2.get(t, self.zero) - factor * v
                        if newv:
                            t2[t] = newv
                        else:
                            t2.pop(t, None)
        self.rows[p] = new_row
        if tag is not None:
            self.tags[p] = new_tags
        return p

    def nullspace(self) -> list[list]:
        """Dense basis of the solution space of (this matrix) x = 0."""
        pivots = set(self.rows)
        free = [c for c in range(self.width) if c not in pivots]
        basis = []
        for f in free:
            vec = [self.zero] * self.width
            vec[f] = self.one
            for p, row in self.rows.items():
                if f in row:
                    vec[p] = self.zero - row[f]
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
