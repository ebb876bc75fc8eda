"""The q-deformed letter permutation action on tensor space.

V is a free module with basis e_1..e_n; the r-th tensor power has basis
e_j indexed by multi-indices j in {1..n}^r.  The generator T_i acts on a
basis vector e_j through the positions of the first occurrences of the
letters i and i+1 in j:

    neither occurs:                       T_i e_j = q e_j
    first(i) < first(i+1):                T_i e_j = e_{swapped j}
    first(i) > first(i+1):                T_i e_j = q e_{swapped j} + (q-1) e_j

where "swapped j" replaces every i by i+1 and vice versa, and an absent
letter counts as first occurrence 0, so "i+1 absent, i present" lands in
the third case.  This extends the defining relations of the Hecke
algebra, which is checked by verify_relations below, brute force.  The
letter rule (_classify) supplies only the case and the swapped index;
the three-case formula itself is hecke._column, shared with H(S_n) and
the q-permutation modules.

Basis vectors are grouped into orbits: e_j determines a set partition of
the positions {1..r} (same letter = same block) together with an
injective coloring of the blocks by letters.  Each orbit spans a
submodule isomorphic to a q-permutation module for a hook composition,
realized by the tableau correspondence of orbit_correspondence.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterator

from ._record import FrozenRecord, Record
from .coeff import LaurentPoly, ONE, Q, ZERO
from .hecke import HeckeElement, _Sparse, _column, act
from .symcomb import Composition, Permutation, RowStandardTableau, _ints, _perm

__all__ = [
    'MultiIndex',
    'TensorVector',
    'ColoredSetPartition',
    'GeneratorOutOfRange',
    'first_occurrence',
    'colored_partition',
    'index_of_partition',
    'hook_tableau',
    'set_partitions',
    'orbits',
    'all_indices',
    'apply_generator',
    'apply',
    'generator_matrix',
    'verify_relations',
    'RelationReport',
    'orbit_correspondence',
    'OrbitCorrespondence',
]

MultiIndex = tuple[int, ...]

_Q_MINUS_ONE = Q - 1


class GeneratorOutOfRange(ValueError):
    """Raised when T_i is applied with i outside 1..n-1."""


def first_occurrence(index: MultiIndex, letter: int) -> int:
    """1-based position of the first occurrence of letter, 0 if absent.

    >>> j = (3, 6, 3, 1, 1, 3, 1, 3)
    >>> first_occurrence(j, 1), first_occurrence(j, 3), first_occurrence(j, 6)
    (4, 1, 2)
    >>> first_occurrence(j, 2)
    0
    """
    for pos, x in enumerate(index, start=1):
        if x == letter:
            return pos
    return 0


class ColoredSetPartition(FrozenRecord):
    """A set partition of positions {1..r} with injectively colored blocks.

    Blocks are sorted by their smallest element; colors[b] is the letter
    painting blocks[b].  The number of blocks is at most min(n, r) for
    any multi-index in {1..n}^r.

    >>> csp = colored_partition((3, 6, 3, 1, 1, 3, 1, 3))
    >>> csp.blocks
    ((1, 3, 6, 8), (2,), (4, 5, 7))
    >>> csp.colors
    (3, 6, 1)
    """

    __slots__ = ('blocks', 'colors')

    def __init__(self, blocks: tuple[tuple[int, ...], ...], colors: tuple[int, ...]):
        blocks = tuple([_ints(b, 'block positions') for b in blocks])
        colors = _ints(colors, 'colors')
        flat = sorted(x for b in blocks for x in b)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError(f'blocks must partition 1..r: {blocks}')
        if [min(b) for b in blocks] != sorted(min(b) for b in blocks):
            raise ValueError('blocks must be sorted by smallest element')
        if len(set(colors)) != len(blocks):
            raise ValueError('coloring must be injective, one color per block')
        object.__setattr__(self, 'blocks', blocks)
        object.__setattr__(self, 'colors', colors)

    @property
    def r(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)


def colored_partition(index: MultiIndex) -> ColoredSetPartition:
    """Group positions by letter; blocks ordered by first occurrence."""
    seen: dict[int, list[int]] = {}
    order: list[int] = []
    for pos, x in enumerate(index, start=1):
        if x not in seen:
            seen[x] = []
            order.append(x)
        seen[x].append(pos)
    return ColoredSetPartition(
        blocks=tuple(tuple(seen[x]) for x in order),
        colors=tuple(order),
    )


def index_of_partition(csp: ColoredSetPartition) -> MultiIndex:
    """Inverse of colored_partition."""
    out = [0] * csp.r
    for block, color in zip(csp.blocks, csp.colors):
        for pos in block:
            out[pos - 1] = color
    return tuple(out)


def hook_tableau(index: MultiIndex, n: int) -> RowStandardTableau:
    """The row-standard tableau of hook shape (n-k, 1^k) attached to e_j.

    Row 1 holds the unused letters in increasing order; the colors of the
    blocks, in block order, each get a row of their own.  When all n
    letters are used the first row is empty.

    >>> hook_tableau((3, 6, 3, 1, 1, 3, 1, 3), 7).rows
    ((2, 4, 5, 7), (3,), (6,), (1,))
    """
    csp = colored_partition(index)
    used = set(csp.colors)
    row1 = tuple(x for x in range(1, n + 1) if x not in used)
    return RowStandardTableau((row1,) + tuple((c,) for c in csp.colors))


def set_partitions(r: int, max_blocks: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of {1..r} with at most max_blocks blocks.

    Enumerated via restricted growth strings in lexicographic order, so
    blocks come out sorted by smallest element and the whole enumeration
    is deterministic.
    """
    if r == 0 or max_blocks <= 0:
        return
    rgs = [0] * r
    tops = [0] * r  # tops[i] is the largest value in rgs[:i]
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for pos, value in enumerate(rgs, start=1):
            blocks[value].append(pos)
        yield tuple(tuple(b) for b in blocks)
        # next string: raise the last position that can grow, zero the rest
        i = r - 1
        while i and rgs[i] >= min(tops[i] + 1, max_blocks - 1):
            i -= 1
        if not i:
            return
        rgs[i] += 1
        top = max(tops[i], rgs[i])
        for j in range(i + 1, r):
            rgs[j], tops[j] = 0, top


class Orbit(FrozenRecord):
    """One orbit of basis vectors: a set partition plus all its colorings."""

    __slots__ = ('partition', 'members')

    def __init__(self, partition: tuple[tuple[int, ...], ...], members: tuple[MultiIndex, ...]):
        object.__setattr__(self, 'partition', partition)
        object.__setattr__(self, 'members', members)

    @property
    def k(self) -> int:
        return len(self.partition)

    def __len__(self) -> int:
        return len(self.members)


def _colorings(n: int, partition: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], MultiIndex]]:
    """(colors, e_j) for every injective coloring of the partition's blocks.

    Colorings come in lexicographic order; each multi-index is read off
    the block label of every position, so it is index_of_partition of a
    valid ColoredSetPartition without building or checking one.
    """
    labels = [0] * sum(len(block) for block in partition)
    for label, block in enumerate(partition):
        for pos in block:
            labels[pos - 1] = label
    for colors in itertools.permutations(range(1, n + 1), len(partition)):
        yield colors, tuple([colors[label] for label in labels])


def orbits(n: int, r: int) -> list[Orbit]:
    """All orbits of the basis of V tensor r, in set-partition order.

    Members of an orbit are the injective colorings of its blocks,
    enumerated lexicographically; the orbit size is n(n-1)...(n-k+1).
    """
    if n < 1 or r < 1:
        raise ValueError('need n >= 1 and r >= 1')
    return [Orbit(partition, tuple(j for _, j in _colorings(n, partition)))
            for partition in set_partitions(r, min(n, r))]


def all_indices(n: int, r: int) -> list[MultiIndex]:
    """The full basis of V tensor r in lexicographic order."""
    return list(itertools.product(range(1, n + 1), repeat=r))


def _swap_letters(index: MultiIndex, i: int) -> MultiIndex:
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in index)


def _classify(i: int, index: MultiIndex) -> tuple[int, MultiIndex]:
    """The letter rule: (case, target) of T_i on e_j (see hecke._column).

    With 0 standing for an absent letter, a plain comparison of the two
    first occurrences sorts out the cases: neither letter occurs is case
    1 (target e_j itself), an absent i counts as earlier than any
    occurrence of i+1 (case 2), and first(i) > 0 = first(i+1) lands in
    the deformed case 3.
    """
    fi = first_occurrence(index, i)
    fi1 = first_occurrence(index, i + 1)
    if fi == 0 and fi1 == 0:
        return 1, index
    return (2 if fi < fi1 else 3), _swap_letters(index, i)


class TensorVector(_Sparse):
    """A vector in V tensor r with Laurent polynomial coefficients."""

    __slots__ = ('n', 'r', 'terms')
    _range_error = GeneratorOutOfRange
    _rule = staticmethod(_classify)

    def __init__(self, n: int, r: int, terms: tuple[tuple[MultiIndex, LaurentPoly], ...]):
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'r', r)
        object.__setattr__(self, 'terms', terms)

    @property
    def _space(self) -> tuple[int, int]:
        return (self.n, self.r)

    @staticmethod
    def _label(space, index: MultiIndex) -> MultiIndex:
        n, r = space
        index = _ints(index, 'multi-index letters')
        if len(index) != r or any(not 1 <= x <= n for x in index):
            raise ValueError(f'bad multi-index {index} for n={n}, r={r}')
        return index

    @classmethod
    def basis_vector(cls, n: int, r: int, index: MultiIndex) -> TensorVector:
        return cls._make((n, r), {cls._label((n, r), index): ONE})


def apply_generator(i: int, v: TensorVector) -> TensorVector:
    """T_i acting on a tensor vector."""
    return v.generator_step(i)


def apply(h: HeckeElement, v: TensorVector) -> TensorVector:
    """A Hecke algebra element acting on a tensor vector.

    T_w acts through a reduced word (hecke.act_by_words, which shares
    the common prefixes of the words); independence of the chosen word
    is a consequence of the relations and is exercised in the tests.
    """
    return act(h, v)


@cache
def generator_matrix(n: int, r: int, i: int) -> dict[MultiIndex, dict[MultiIndex, LaurentPoly]]:
    """The matrix of T_i on V tensor r as sparse columns: col -> row -> coeff."""
    if not 1 <= i <= n - 1:
        raise GeneratorOutOfRange(f'T_{i} does not act for n={n}')
    return {j: _column(j, *_classify(i, j)) for j in all_indices(n, r)}


def _compose_columns(
    a: dict[MultiIndex, dict[MultiIndex, LaurentPoly]],
    b: dict[MultiIndex, dict[MultiIndex, LaurentPoly]],
) -> dict[MultiIndex, dict[MultiIndex, LaurentPoly]]:
    """Columns of the product (a b): apply b first, then a."""
    out: dict[MultiIndex, dict[MultiIndex, LaurentPoly]] = {}
    for col, mid in b.items():
        acc: dict[MultiIndex, LaurentPoly] = {}
        for m, c1 in mid.items():
            for row, c2 in a[m].items():
                key = row
                val = acc.get(key, ZERO) + c2 * c1
                if val:
                    acc[key] = val
                elif key in acc:
                    del acc[key]
        out[col] = acc
    return out


def _columns_equal(
    a: dict[MultiIndex, dict[MultiIndex, LaurentPoly]],
    b: dict[MultiIndex, dict[MultiIndex, LaurentPoly]],
) -> MultiIndex | None:
    """None if equal, else the first offending column."""
    for col in sorted(a.keys() | b.keys()):
        lhs = {k: v for k, v in a.get(col, {}).items() if v}
        rhs = {k: v for k, v in b.get(col, {}).items() if v}
        if lhs != rhs:
            return col
    return None


class RelationReport(FrozenRecord):
    """Outcome of the brute force relation check on V tensor r."""

    __slots__ = ('n', 'r', 'checks', 'failures')

    def __init__(self, n: int, r: int, checks: int, failures: tuple[str, ...]):
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'r', r)
        object.__setattr__(self, 'checks', checks)
        object.__setattr__(self, 'failures', failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_relations(n: int, r: int) -> RelationReport:
    """Check all defining relations of H(S_n) as matrices on V tensor r.

    Commutation for |i-j| >= 2, the braid relation, and the quadratic
    relation T_i^2 = q + (q-1) T_i, each as an exact identity of sparse
    matrices.  For n = 1 there are no generators and the report is an
    empty pass.
    """
    mats = {i: generator_matrix(n, r, i) for i in range(1, n)}
    failures: list[str] = []
    checks = 0

    for i, j in itertools.combinations(range(1, n), 2):
        if j - i >= 2:
            checks += 1
            bad = _columns_equal(_compose_columns(mats[i], mats[j]),
                                 _compose_columns(mats[j], mats[i]))
            if bad is not None:
                failures.append(f'commutation T_{i} T_{j} fails at column {bad}')

    for i in range(1, n - 1):
        checks += 1
        lhs = _compose_columns(mats[i], _compose_columns(mats[i + 1], mats[i]))
        rhs = _compose_columns(mats[i + 1], _compose_columns(mats[i], mats[i + 1]))
        bad = _columns_equal(lhs, rhs)
        if bad is not None:
            failures.append(f'braid T_{i} T_{i+1} T_{i} fails at column {bad}')

    for i in range(1, n):
        checks += 1
        square = _compose_columns(mats[i], mats[i])
        expect = {col: {col: Q} for col in all_indices(n, r)}
        for col, rows in mats[i].items():
            for row, c in rows.items():
                val = expect[col].get(row, ZERO) + _Q_MINUS_ONE * c
                if val:
                    expect[col][row] = val
                elif row in expect[col]:
                    del expect[col][row]
        bad = _columns_equal(square, expect)
        if bad is not None:
            failures.append(f'quadratic T_{i}^2 fails at column {bad}')

    return RelationReport(n, r, checks, tuple(failures))


class OrbitCorrespondence(Record):
    """The basis matching between one orbit and its q-permutation module.

    mapping sends each orbit member e_j to the distinguished coset rep
    d with d applied to the initial tableau giving hook_tableau(j); the
    orbit then matches the basis {T_d x_lambda} of the module for the
    hook shape.  equivariant records whether every generator acts the
    same way on both sides (checked coefficient by coefficient).
    """

    __slots__ = ('n', 'partition', 'shape', 'mapping', 'equivariant', 'failures')

    def __init__(self, n: int, partition: tuple[tuple[int, ...], ...], shape: Composition,
                 mapping: dict[MultiIndex, Permutation], equivariant: bool,
                 failures: tuple[str, ...]):
        self.n = n
        self.partition = partition
        self.shape = shape
        self.mapping = mapping
        self.equivariant = equivariant
        self.failures = failures


def orbit_correspondence(
    n: int,
    r: int,
    partition: tuple[tuple[int, ...], ...],
    generators: tuple[int, ...] | None = None,
) -> OrbitCorrespondence:
    """Match an orbit with the q-permutation module of its hook shape.

    The generator action on the orbit side uses first occurrences; on
    the module side it uses tableau rows.  Their agreement is exactly
    what makes the orbit span a copy of the module.  generators limits
    the check to a subset of the T_i (default: all of them).
    """
    from . import qperm

    gens = tuple(generators) if generators is not None else tuple(range(1, n))
    k = len(partition)
    shape = Composition.hook(n, k)
    ColoredSetPartition(partition, tuple(range(1, k + 1)))  # checks the partition once
    # hook_tableau(j, n) has the unused letters in its first row and one
    # row per color, in block order: d reads the rows off in that order
    mapping = {
        j: _perm(tuple(x for x in range(1, n + 1) if x not in colors) + colors)
        for colors, j in _colorings(n, partition)
    }

    # both sides act by the one three-case rule (hecke._column), so they
    # agree exactly when the letter rule and the row rule give the same
    # case and matching targets
    failures: list[str] = []
    for j in mapping:
        for i in gens:
            case, j2 = _classify(i, j)
            if (case, mapping[j2]) != qperm._row_rule(i, shape, mapping[j]):
                failures.append(f'T_{i} disagrees on {j}')
    return OrbitCorrespondence(
        n=n,
        partition=partition,
        shape=shape,
        mapping=mapping,
        equivariant=not failures,
        failures=tuple(failures),
    )
