"""Symmetric group combinatorics: permutations, compositions, tableaux.

Permutations act on letters 1..n and are stored in one-line notation,
so ``w.images[i-1] == w(i)``.  Compositions of n cut {1..n} into
consecutive blocks; their Young subgroups, distinguished coset
representatives and double coset representatives drive everything the
Hecke algebra modules do.

Positions and letters are 1-based throughout, matching the usual
combinatorial conventions.

The public constructors validate their input.  Objects built inside the
library from data that is correct by construction (products, inverses,
coset and double coset representatives) go through ``_perm``, which
skips the check; ``Composition`` computes its blocks once.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from math import comb, factorial
from typing import Iterator

from ._record import FrozenRecord

__all__ = [
    'Permutation',
    'Composition',
    'RowStandardTableau',
    'NotDistinguished',
    'all_permutations',
    'coset_reps',
    'double_coset_reps',
    'intersect_composition',
    'stirling2',
    'bell',
]


class NotDistinguished(ValueError):
    """Raised when a permutation is not a distinguished (double) coset rep."""


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of plain ints; anything that is not an int raises TypeError."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not isinstance(x, int):
                raise TypeError(f'{what} are int, not {type(x).__name__}: {values}')
        values = tuple(map(int, values))
    return values


class Permutation(FrozenRecord):
    """A permutation of {1..n} in one-line notation.

    >>> w = Permutation((2, 3, 1))
    >>> w(1), w(3)
    (2, 1)
    >>> w.length()
    2
    >>> Permutation.from_word(3, w.reduced_word()) == w
    True
    """

    __slots__ = ('images',)

    def __init__(self, images: tuple[int, ...]):
        images = _ints(images, 'permutation letters')
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f'not a permutation of 1..{len(images)}: {images}')
        object.__setattr__(self, 'images', images)

    # written out, not FrozenRecord's: permutations are dict keys on hot paths
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition of functions: (self * other)(i) == self(other(i))."""
        if self.n != other.n:
            raise ValueError('size mismatch')
        im = self.images
        return _perm(tuple([im[j - 1] for j in other.images]))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return _perm(tuple(inv))

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        im = self.images
        return sum(1 for a, b in itertools.combinations(range(self.n), 2) if im[a] > im[b])

    def reduced_word(self) -> tuple[int, ...]:
        """Indices i1..ik with self == s_{i1} * ... * s_{ik}, k = length."""
        im = list(self.images)
        picked = []
        while True:
            for i in range(len(im) - 1):
                if im[i] > im[i + 1]:
                    # right multiplication by s_{i+1} removes this descent
                    im[i], im[i + 1] = im[i + 1], im[i]
                    picked.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(picked))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return _perm(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition s_i = (i, i+1), 1 <= i <= n-1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f's_{i} does not exist in S_{n}')
        im = list(range(1, n + 1))
        im[i - 1], im[i] = im[i], im[i - 1]
        return _perm(tuple(im))

    @classmethod
    def from_word(cls, n: int, word: tuple[int, ...] | list[int]) -> Permutation:
        w = cls.identity(n)
        for i in word:
            w = w * cls.simple(n, i)
        return w

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f'Permutation({self.images!r})'


def _perm(images: tuple[int, ...]) -> Permutation:
    """A Permutation from a tuple known to be one, without validation."""
    w = object.__new__(Permutation)
    object.__setattr__(w, 'images', images)
    return w


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n sorted lexicographically by one-line notation."""
    return [_perm(p) for p in itertools.permutations(range(1, n + 1))]


class Composition(FrozenRecord):
    """A composition of n: parts sum to n, zero parts are kept verbatim.

    >>> lam = Composition((2, 0, 3))
    >>> lam.n
    5
    >>> lam.blocks()
    ((1, 2), (), (3, 4, 5))
    """

    __slots__ = ('parts', '__dict__')  # the __dict__ holds the cached properties

    def __init__(self, parts: tuple[int, ...]):
        parts = _ints(parts, 'composition parts')
        if any(p < 0 for p in parts):
            raise ValueError(f'negative part in {parts}')
        object.__setattr__(self, 'parts', parts)

    def _astuple(self) -> tuple:
        return (self.parts,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Consecutive blocks of {1..n}, one per part (possibly empty)."""
        return self._blocks

    @cached_property
    def _blocks(self) -> tuple[tuple[int, ...], ...]:
        out = []
        start = 1
        for p in self.parts:
            out.append(tuple(range(start, start + p)))
            start += p
        return tuple(out)

    @cached_property
    def _block_of(self) -> tuple[int, ...]:
        """_block_of[x] is the 1-based block index of letter x (slot 0 unused)."""
        return (0,) + tuple(idx for idx, block in enumerate(self._blocks, start=1) for _ in block)

    @cached_property
    def _rises(self) -> tuple[int, ...]:
        """The letters a with a and a + 1 in one block."""
        return tuple(a for block in self._blocks for a in block[:-1])

    def block_index(self, letter: int) -> int:
        """1-based index of the part whose block contains the letter."""
        if not 1 <= letter < len(self._block_of):
            raise ValueError(f'letter {letter} out of range for {self}')
        return self._block_of[letter]

    def young_subgroup(self) -> list[Permutation]:
        """All elements of Y_lambda, the block-wise permutations."""
        # blocks are consecutive, so an element's one-line notation is the
        # concatenation of one permutation of each block
        per_block = [list(itertools.permutations(b)) for b in self._blocks]
        return [_perm(tuple(x for perm in choice for x in perm))
                for choice in itertools.product(*per_block)]

    @classmethod
    def hook(cls, n: int, k: int) -> Composition:
        """The hook (n-k, 1^k); for k = n the first part is zero."""
        if not 0 <= k <= n:
            raise ValueError(f'hook (n-k, 1^k) needs 0 <= k <= n, got k={k}, n={n}')
        return cls((n - k,) + (1,) * k)

    def __repr__(self) -> str:
        return f'Composition({self.parts!r})'


class RowStandardTableau(FrozenRecord):
    """A filling of a composition shape with 1..n, rows increasing.

    Rows may be empty when the shape has zero parts.
    """

    __slots__ = ('rows',)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple([_ints(row, 'tableau entries') for row in rows])
        flat = sorted(x for row in rows for x in row)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError(f'entries must be exactly 1..n: {rows}')
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f'rows must increase: {rows}')
        object.__setattr__(self, 'rows', rows)

    @property
    def shape(self) -> Composition:
        return Composition(tuple(len(row) for row in self.rows))

    @classmethod
    def initial(cls, shape: Composition) -> RowStandardTableau:
        """The row filling 1, 2, ..., n in reading order."""
        return cls(shape.blocks())

    def permutation(self) -> Permutation:
        """The d with d applied entrywise to the initial tableau gives self.

        Entries of the initial tableau in reading order are 1..n, so the
        one-line notation of d is just the concatenation of the rows.
        """
        return _perm(tuple(x for row in self.rows for x in row))

    def __repr__(self) -> str:
        return f'RowStandardTableau({self.rows!r})'


def _fillings(letters: tuple[int, ...], parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Row-standard fillings of parts with the letters, rows concatenated.

    Every row is a combination of the letters left over by the rows
    before it, so the concatenations come out in lexicographic order.
    """
    if len(parts) <= 1:
        yield letters
        return
    if max(parts) <= 1:
        # rows of at most one letter: every order of the letters
        yield from itertools.permutations(letters)
        return
    for row in itertools.combinations(letters, parts[0]):
        rest = tuple(x for x in letters if x not in row)
        for tail in _fillings(rest, parts[1:]):
            yield row + tail


def row_standard_tableaux(shape: Composition) -> Iterator[RowStandardTableau]:
    """All row-standard fillings of the shape, ordered by reading word."""
    for word in _fillings(tuple(range(1, shape.n + 1)), shape.parts):
        yield RowStandardTableau(tuple(tuple(word[a - 1] for a in block) for block in shape.blocks()))


def _increasing_on_blocks(images: tuple[int, ...], shape: Composition) -> bool:
    """w(a) < w(a + 1) whenever a and a + 1 share a block of the shape."""
    return all(images[a - 1] < images[a] for a in shape._rises)


def _inverse_increasing_on_blocks(images: tuple[int, ...], shape: Composition) -> bool:
    """w^-1 increasing on the blocks of the shape, read off w directly.

    w^-1(a) < w^-1(a + 1) says that the letter a stands left of a + 1 in
    w's one-line notation, so no inverse is built.
    """
    index = images.index
    return all(index(a) < index(a + 1) for a in shape._rises)


def _is_coset_rep(shape: Composition, d: Permutation) -> bool:
    """d in D_lambda: a permutation of 1..n increasing on every block."""
    return isinstance(d, Permutation) and d.n == shape.n and _increasing_on_blocks(d.images, shape)


@cache
def coset_reps(shape: Composition) -> tuple[Permutation, ...]:
    """Distinguished left coset representatives D_lambda of Y_lambda.

    These are the minimal length elements of the cosets d Y_lambda,
    equivalently the permutations increasing on every block, equivalently
    the permutations read off row-standard tableaux of the shape.
    Sorted lexicographically by one-line notation.

    >>> [d.images for d in coset_reps(Composition((2, 1)))]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    return tuple(map(_perm, _fillings(tuple(range(1, shape.n + 1)), shape.parts)))


@cache
def double_coset_reps(mu: Composition, lam: Composition) -> tuple[Permutation, ...]:
    """Distinguished double coset representatives D_{mu,lambda}.

    D_{mu,lambda} = inverses of D_mu, intersected with D_lambda: the d
    increasing on lambda-blocks whose inverse is increasing on mu-blocks.
    Each Y_mu d Y_lambda contains exactly one such d.
    """
    if mu.n != lam.n:
        raise ValueError('compositions of different n')
    return tuple(d for d in coset_reps(lam) if _inverse_increasing_on_blocks(d.images, mu))


def _double_coset_members(mu: Composition, lam: Composition) -> dict[Permutation, list[Permutation]]:
    """D_lambda grouped by double coset: {d: [e in D_lambda lying in Y_mu d Y_lambda]}.

    The double coset of e is fixed by the mu-block indices of e(1), ...,
    e(n): block by block of lambda they count how many letters land in
    each mu-block (the block-incidence matrix), already sorted within a
    lambda-block because e increases there.  The keys d run through
    double_coset_reps(mu, lam), each list in the order of coset_reps(lam).
    """
    block_of = mu._block_of

    def key(e: Permutation) -> tuple[int, ...]:
        return tuple([block_of[x] for x in e.images])

    rep_of = {key(d): d for d in double_coset_reps(mu, lam)}
    members: dict[Permutation, list[Permutation]] = {d: [] for d in rep_of.values()}
    for e in coset_reps(lam):
        members[rep_of[key(e)]].append(e)
    return members


def is_distinguished(mu: Composition, d: Permutation, lam: Composition) -> bool:
    """Whether d lies in D_{mu,lambda}."""
    if mu.n != lam.n:
        raise ValueError('compositions of different n')
    if d.n != lam.n:
        raise ValueError(f'{d} is not a permutation of 1..{lam.n}')
    return _increasing_on_blocks(d.images, lam) and _inverse_increasing_on_blocks(d.images, mu)


@cache
def count_double_cosets(mu: Composition, lam: Composition) -> int:
    """|D_{mu,lambda}| counted without enumerating any permutations.

    Double cosets Y_mu d Y_lambda biject with nonnegative integer
    matrices whose row sums are mu and column sums are lam (entry (i,j)
    records |d^{-1}(mu-block i) meet lambda-block j|), so the count is a
    contingency-table count.  The middle rows, of size at least 2 but
    not the largest, are filled smallest first; the state keeps the
    remaining column sums rem sorted, which collapses the many
    interchangeable singleton columns of hook shapes.  The k singleton
    rows then go in at once: putting a_j of them in column j, with
    a_j <= rem_j, can be done in k! / prod a_j! ways, and the sum of
    that over all such a is k! [x^k] prod_j sum_{a <= rem_j} x^a / a!.
    The largest row is last and takes whatever remains, which adds up
    to its size because the margins agree.  If every row is a
    singleton, one of them plays the largest.  A hook pair has no
    middle rows, so its count is a single pass over the columns.

    >>> count_double_cosets(Composition((3, 1)), Composition((2, 1, 1)))
    3
    >>> count_double_cosets(Composition((2, 1, 1)), Composition((2, 1, 1)))
    7
    >>> count_double_cosets(Composition.hook(16, 8), Composition.hook(16, 8))
    1441729
    """
    if mu.n != lam.n:
        raise ValueError('compositions of different n')
    rows = tuple(sorted(p for p in mu.parts if p))
    cols = tuple(sorted(p for p in lam.parts if p))
    if not rows:
        return 1 if not cols else 0
    # the largest row is left out: the leaf below forces it
    middle = tuple(p for p in rows[:-1] if p > 1)
    k = len(rows) - 1 - len(middle)

    def fills(target: int, caps: tuple[int, ...]):
        if not caps:
            if target == 0:
                yield ()
            return
        for x in range(min(target, caps[0]) + 1):
            for rest in fills(target - x, caps[1:]):
                yield (x,) + rest

    def singletons(rem: tuple[int, ...]) -> int:
        # ways[s]: placements of s labelled singleton rows in the columns so far
        ways = [1] + [0] * k
        for r in rem:
            new = ways[:]
            for s, w in enumerate(ways):
                if w:
                    for a in range(1, min(r, k - s) + 1):
                        new[s + a] += w * comb(s + a, a)
            ways = new
        return ways[k]

    if not middle:  # hook pairs: no memo to build
        return singletons(cols)

    @cache
    def count(i: int, rem: tuple[int, ...]) -> int:
        if i == len(middle):
            return singletons(rem)
        return sum(
            count(i + 1, tuple(sorted(r - x for r, x in zip(rem, fill))))
            for fill in fills(middle[i], rem))

    return count(0, cols)


def intersect_composition(mu: Composition, d: Permutation, lam: Composition) -> Composition:
    """The composition tau with Y_tau = d^-1 Y_mu d intersect Y_lambda.

    Requires d in D_{mu,lambda}; then within each lambda-block the
    preimages d^-1(mu-block) are consecutive runs, and tau lists their
    sizes in order.  Empty intersections are dropped, so tau never has
    zero parts (the subgroup does not see them).

    >>> mu, lam = Composition((2, 1, 1)), Composition((3, 1))
    >>> d = Permutation((1, 2, 4, 3))
    >>> intersect_composition(mu, d, lam).parts
    (2, 1, 1)
    """
    if not is_distinguished(mu, d, lam):
        raise NotDistinguished(f'{d} is not in D_{mu.parts},{lam.parts}')
    dinv = d.inverse()
    parts = []
    for lam_block in lam.blocks():
        for mu_block in mu.blocks():
            size = sum(1 for x in mu_block if dinv(x) in lam_block)
            if size:
                parts.append(size)
    return Composition(tuple(parts))


@cache
def stirling2(r: int, k: int) -> int:
    """Stirling numbers of the second kind: set partitions of r into k blocks.

    s(r, k) = k*s(r-1, k) + s(r-1, k-1), s(0, 0) = 1.  That recurrence
    is r - k deep; the closed form used here, the inclusion-exclusion
    count of surjections divided by k!, needs k + 1 powers and no
    recursion, so a large r is no deeper than a small one.

    >>> [stirling2(4, k) for k in range(5)]
    [0, 1, 7, 6, 1]
    """
    if r < 0 or k < 0 or k > r:
        return 0
    return sum((-1) ** (k - j) * comb(k, j) * j ** r for j in range(k + 1)) // factorial(k)


def bell(m: int) -> int:
    """Number of set partitions of an m-element set."""
    return sum(stirling2(m, k) for k in range(m + 1))
