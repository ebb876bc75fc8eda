"""Brute force centralizer of the letter action, independent of any formula.

The oracle computes End over the Hecke algebra of V tensor r directly:
matrices X with X A_i = A_i X for all generator matrices A_i.  Because
each A_i only ever connects basis vectors inside one orbit, the A_i are
block diagonal over the orbit components (recovered here by a
breadth-first walk along the letter rule, not from any classification),
and the commutant splits into independent blocks X restricted to ordered
component pairs.

Within a pair (C, C') the system is solved cyclically.  Write A_k for
the matrix of generator position k on C, A'_k on C', E(k, c) for the
equation X A_k e_c = A'_k X e_c and R_k for X A_k - A'_k X.  Every
column of A_k touches at most one other basis vector, so E(k, c) either
pins a column of X to an image of another column or is a genuine linear
constraint.  Columns propagate along a spanning tree from a root column
y; every other equation is an event (k, c, c2, case), position k from
column c to column c2 (a loop, where T_k fixes the basis vector, is case
1 with c2 = c).  A loop asks less than its m rows.  On the row component
T_k fixes a row (case 1) or moves it in a 2-cycle, rl to t in case 2 and
t back to rl in case 3; taken times b, the loop is (b A'_k - a) x_c = 0,
q = a/b, a matrix whose row is zero where T_k fixes the row and whose
rows on a 2-cycle {rl, t} are a(-1, 1) and b(1, -1).  With a and b
nonzero the loop holds exactly when x_c[rl] = x_c[t] on every 2-cycle.
The loops at the root therefore say that y is constant on the classes
of rows joined by their 2-cycles, and the solve takes one 0/1 root per
class.  So every solution lies in the span of the class roots, and the
rest of this docstring shows, from the two tables alone, that every
other equation holds on that span.

One equation per 2-cycle suffices by the quadratic relation alone.  On
the rows, A = A'_k is q on a fixed row, and on a 2-cycle it sends e_rl
to e_t and e_t to q e_rl + (q - 1) e_t, so A^2 = (q - 1) A + q.  On a
2-cycle {c, c2} of T_k on C, c in case 2, the equation at c is
x_c2 = A x_c and the one at c2 is (A - (q - 1)) x_c2 = q x_c.  The first
gives A x_c2 = A^2 x_c = (q - 1) x_c2 + q x_c, the second; applying A to
the second gives q x_c2 = A^2 x_c2 - (q - 1) A x_c2 = q A x_c, the first
once divided by the unit q.  This needs the 2-cycle shape of both
tables, checked from the raw tables: a column or row that a generator
neither fixes nor moves in a 2-cycle raises SolverInvariantError (see
_two_cycles).

The other equations follow from the relations of the Hecke algebra, by
the deduction step of coset enumeration (Todd and Coxeter 1936).  If
A_k A_l = A_l A_k and A'_k A'_l = A'_l A'_k, expanding
X A_k A_l - A'_k A'_l X in two ways gives the square
R_k A_l + A'_k R_l = R_l A_k + A'_l R_k.  Apply it to e_p: A_l e_p lies
in the span of e_p and e_(s_l p), s_l the target map of position l, and
A_k e_p = alpha e_(s_k p) + beta e_p with alpha 1 or q.  So if E(l, p),
E(k, p) and E(k, s_l p) hold, alpha R_l e_(s_k p) = 0, and E(l, s_k p)
holds.  If A_k A_l A_k = A_l A_k A_l on both tables, the same expansion
gives the hexagon R_k A_l A_k + A'_k R_l A_k + A'_k A'_l R_k =
R_l A_k A_l + A'_l R_k A_l + A'_l A'_k R_l.  Applied to e_p, it is a sum
of terms c A'_w R_j e_v with c in Z[q], w a word of at most two
positions; sum the c of equal (w, j, v).  If every term but one is
known to vanish and that one has c = +-q^e, then R_j e_v = 0, as q and
every A'_w are units (A'^-1 = (A' - (q - 1))/q).  The solve walks the
equations in order and drops each that a square or a hexagon implies,
from tree edges, loops at the root, loops of a position that fixes every
row (they read q x_c = q x_c), equations walked before it, and the
partners of all of these, which makes the argument well-founded.  Both
relations are read off each raw table (see _commuting and _braids), and
a pair uses one only when it holds on both tables.  So the closure is
shared by every q value and by Q(q), and on every table the library
builds it leaves no equation: a pair's dimension is its number of
classes, read off the tables without propagating a column.  An equation
it leaves, which only synthetic tables have, is checked exactly on the
basis blocks, and one that breaks raises SolverInvariantError naming it,
as does a root-loop 2-cycle that the classes split.  No module theory is
consulted; it only predicts the outcome, as C is cyclic on its root
vector and induced from the generators that fix it (Frobenius
reciprocity for q-permutation modules, Dipper and James 1986).

A basis is materialised fraction-free, in the manner of Bareiss.  With
q = a/b in lowest terms, b A'_k has integer entries (a on the diagonal
in case 1, b in case 2, a and a - b in case 3).  Each class root is
propagated on its own along the tree as a sparse integer column
u_c = x_c s_c, the scale s_c = a^ea b^eb the product of the factors
along the tree path of c (b on a case 2 edge, a on case 3), and a basis
entry is u_c[rl] / s_c.  Over Q(q) the same steps run at a = q and
b = 1: the columns lie in Z[q], and s_c = q^ea is a unit of
Z[q, q^-1] (see _PairSolver._basis).

Many pairs repeat one solve.  One breadth-first walk per component
records its generator table (see _component_classes), and the pair
solver reads nothing but the two tables, so pairs with equal tables
(compared exactly, as tuples) have the same solution up to relabelling:
each such class is solved once per q value and its basis is carried to
the other pairs through their relabellings.  The set-up is split by
what it reads and built once per commutant_basis call: per column
table a _ColumnPlan (tree, scales, and per set of relations on both
tables the equations left), per row table a _RowState (relations,
2-cycles, root-loop classes), holding the maps per (row table, q).  The
module theory predicts which orbits are isomorphic (hook compositions,
one per number of blocks) but is not consulted: classes come from the
matrices alone, and two isomorphic orbits whose tables differ are simply
solved twice.

Default arithmetic specializes q at several generic rational points and
cross-checks the dimensions; a fully symbolic mode, exact over Q(q), is
available for small sizes.  Its basis is integral: every entry is a
coeff.LaurentPoly with integer coefficients.  A block is its root column
propagated, and that column's values on the class roots are its
coordinates, so this basis spans, over Z[q, q^-1], every commuting
matrix with entries in that ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import and_, itemgetter, mul
from typing import Sequence

from ._record import Record
from .coeff import ONE, Q, ZeroSpecialization, _exact
from .hecke import act_by_words
from .limits import DimensionLimitExceeded, _check_limit
from .linalg import Echelon
from .symcomb import _ints, all_permutations
from .tensoract import _classify, all_indices

__all__ = ['DimensionLimitExceeded', 'SolverInvariantError', 'CommutantReport',
           'commutant_basis', 'half_commutant_basis', 'DoubleCentralizerReport',
           'double_centralizer_check', 'StructureConstants', 'structure_constants',
           'DEFAULT_Q_VALUES', 'SYMBOLIC_LIMIT']

DEFAULT_Q_VALUES = (Fraction(2), Fraction(3), Fraction(7, 5))
# largest n^r of symbolic mode: on a shared 2-CPU host (64,1) takes about
# 0.02 s and (81,1) about 0.04 s (best of 5, counting only); a larger limit
# would change which inputs the CLI refuses as over a resource limit
SYMBOLIC_LIMIT = 64


class SolverInvariantError(RuntimeError):
    """An internal invariant of the commutant solver failed.

    pair is the ordered component pair (C[0], C'[0]), named by the
    smallest basis index of each component; event is the equation or
    entry involved, if there is one.
    """

    def __init__(self, message: str, pair: tuple[int, int], event=None):
        self.pair, self.event = pair, event
        where = f'pair {pair}' if event is None else f'pair {pair}, event {event}'
        super().__init__(f'{message} ({where})')


# ---------------------------------------------------------------------------
# orbit components and their tables, straight from the letter rule

def _bfs(table) -> tuple[list[int], dict[int, tuple[int, int, int]]]:
    """Breadth-first order of a table from vertex 0, generators in order,
    and its spanning tree: child -> (parent, generator position, case)."""
    order = [0]
    par: dict[int, tuple[int, int, int]] = {}
    for v in order:
        for k, (case, t) in enumerate(table[v]):
            if t and t not in par:
                par[t] = (v, k, case)
                order.append(t)
    return order, par


def _component_classes(n: int, r: int, gens: Sequence[int]) -> dict[tuple, list[list[int]]]:
    """The orbit components of V tensor r, grouped by their generator table.

    One breadth-first walk per component, from its smallest basis index
    and taking the generators in order, labels each vertex in the order
    it is found and records its table row: entry [v][k] is the (case,
    label of target) of the k-th generator on vertex v (case 1 targets v
    itself).  The keys are the tables, compared exactly; the values list
    the components, each in walk order, by their smallest index.
    """
    idxs = all_indices(n, r)
    gid = {j: t for t, j in enumerate(idxs)}
    label = [-1] * len(idxs)
    classes: dict[tuple, list[list[int]]] = {}
    for start in range(len(idxs)):
        if label[start] >= 0:
            continue
        label[start] = 0
        C, table = [start], []
        for g in C:
            row = []
            for i in gens:
                case, j2 = _classify(i, idxs[g])
                t = gid[j2]
                if label[t] < 0:
                    label[t] = len(C)
                    C.append(t)
                row.append((case, label[t]))
            table.append(tuple(row))
        classes.setdefault(tuple(table), []).append(C)
    return classes


# ---------------------------------------------------------------------------
# the cyclic block solver

def _apply(op, u: dict[int, object]) -> dict[int, object]:
    """A monomial-plus-diagonal map (to, coef, diag) applied to sparse u:
    u[cl] goes to coef[cl] u[cl] at to[cl] (to is a bijection), plus
    diag[cl] u[cl] at cl itself; zeros dropped."""
    to, coef, diag = op
    out = {to[cl]: coef[cl] * v for cl, v in u.items()}
    for cl in diag.keys() & u.keys():
        t = diag[cl] * u[cl]
        if cl in out:
            t = out[cl] + t
            if not t:
                del out[cl]
                continue
        out[cl] = t
    return out


def _scaled_generator(entries, a, b):
    """b T_i at q = a/b as a monomial-plus-diagonal map (see _apply).

    entries[cl] is the (case, target) of T_i on basis vector cl (the
    letter rule, tensoract._classify): a at cl itself in case 1, b at the
    target in case 2, a at the target plus a - b at cl in case 3.
    """
    to, coef, diag = [], [], {}
    for cl, (case, t) in enumerate(entries):
        to.append(t)
        coef.append(b if case == 2 else a)
        if case == 3 and a != b:  # at q = 1 the diagonal part is zero
            diag[cl] = a - b
    return to, coef, diag


def _shifted(op, d):
    """The monomial-plus-diagonal map op - d (d times the identity); a column
    whose target is itself (case 1) holds its diagonal entry in coef."""
    to, coef, diag = op
    coef, shifted = list(coef), {}
    for cl, t in enumerate(to):
        if t == cl:
            coef[cl] -= d
        else:
            v = diag[cl] - d if cl in diag else -d
            if v:
                shifted[cl] = v
    return to, coef, shifted


def _two_cycles(column, i: int, pair: tuple[int, int], what: str) -> list[tuple[int, int]]:
    """The 2-cycles (v, t) of generator position i on one table, column[v]
    its (case, target) at vertex v, v in case 2 and t in case 3.  Every
    vertex must be fixed (case 1, its target itself) or have a partner
    that the generator sends back to it in the other moving case, or
    SolverInvariantError names the entry: the loops' equalities and the
    quadratic relation rest on this shape (see the module docstring)."""
    for v, (case, t) in enumerate(column):
        if not (t == v if case == 1 else case in (2, 3) and column[t] == (5 - case, v)):
            raise SolverInvariantError(
                f'generator position {i} neither fixes {what} {v} nor moves it '
                f'in a 2-cycle', pair, (i, v, (case, t)))
    return [(v, t) for v, (case, t) in enumerate(column) if case == 2]


def _commuting(table) -> tuple[int, ...]:
    """Per generator position l of a table, the bitmask of the positions
    k != l whose matrices commute with that of l on it, by a sufficient
    criterion read from the raw table: s_k s_l v == s_l s_k v for every
    vertex v, s_k the target map of position k, and the case of each
    position is invariant under the other's target map.  The matrix of
    position k sends e_v to alpha e_(s_k v) + beta e_v, alpha and beta
    fixed by the case of v alone, so A_l A_k e_v is alpha_k alpha_l
    e_(s_l s_k v) + alpha_k beta_l e_(s_k v) + beta_k alpha_l e_(s_l v)
    + beta_k beta_l e_v, all read at v, which the criterion makes
    symmetric in k and l.  Two equal positions that move a vertex fail
    it, as each swaps the other's cases 2 and 3."""
    targets = [tuple(t for _, t in column) for column in zip(*table)]
    cases = [tuple(case for case, _ in column) for column in zip(*table)]
    gathers = [itemgetter(*t) if len(t) > 1 else tuple for t in targets]
    masks = [0] * len(targets)
    for l, (tl, cl, gl) in enumerate(zip(targets, cases, gathers)):
        for k in range(l):
            gk = gathers[k]
            if gk(tl) == gl(targets[k]) and gl(cases[k]) == cases[k] and gk(cl) == cl:
                masks[k] |= 1 << l
                masks[l] |= 1 << k
    return tuple(masks)


# q of the braid reader and the hexagons: the words there have degree at
# most 3 in q and coefficients below 2^7 in size, so their value at 2^8
# (balanced base-2^8 digits) is exact
_AT = 1 << 8


def _orbit(table, k: int, l: int, v: int) -> tuple[list[int], tuple]:
    """The orbit of vertex v under the target maps of positions k and l, as
    (vertices, orbit table): the vertices in the order a walk from the
    smallest finds them, the orbit table the two positions' (case,
    target) in that labelling.  A_k and A_l preserve the span of each."""
    label, verts = {v: 0}, [v]
    for u in verts:
        for j in (k, l):
            t = table[u][j][1]
            if t not in label:
                label[t] = len(verts)
                verts.append(t)
    if v != min(verts):
        return _orbit(table, k, l, min(verts))
    return verts, tuple([((table[u][k][0], label[table[u][k][1]]),
                          (table[u][l][0], label[table[u][l][1]])) for u in verts])


def _maps_at(orbit) -> list:
    """The two positions of an orbit table as maps at q = _AT (see _apply)."""
    return [_scaled_generator([row[j] for row in orbit], _AT, 1) for j in (0, 1)]


@lru_cache(maxsize=1 << 12)
def _orbit_braids(orbit) -> bool:
    """Whether positions 0 and 1 of an orbit table braid, at q = _AT."""
    A = _maps_at(orbit)
    return all(_apply(A[0], _apply(A[1], _apply(A[0], {u: 1})))
               == _apply(A[1], _apply(A[0], _apply(A[1], {u: 1}))) for u in range(len(orbit)))


def _braids(table, memo: dict, k: int, l: int) -> bool:
    """Whether A_k A_l A_k == A_l A_k A_l on a table, k < l, exactly over
    Z[q]: checked on each distinct orbit table (_orbit) once, at q = _AT,
    and kept in memo per position pair."""
    if (k, l) not in memo:
        seen, memo[k, l] = set(), True
        for v, entries in enumerate(table):
            if v in seen or entries[k] == entries[l] == (1, v):  # q^3 e_v either way
                continue
            verts, orbit = _orbit(table, k, l, v)
            seen.update(verts)
            if not _orbit_braids(orbit):
                memo[k, l] = False
                break
    return memo[k, l]


@lru_cache(maxsize=1 << 12)
def _hexagon(orbit, p: int) -> tuple:
    """The terms (w, j, v, c) of the hexagon of an orbit table's positions
    0 and 1 at vertex p (see the module docstring): c A'_w R_j e_v, the
    word w and j in local positions, v in local labels, c its value at
    q = _AT, terms with equal (w, j, v) summed and zeros dropped."""
    A, e, terms = _maps_at(orbit), {p: 1}, {}
    for sign, x, y in ((1, 0, 1), (-1, 1, 0)):  # R_x A_y A_x + A'_x R_y A_x + A'_x A'_y R_x
        ax = _apply(A[x], e)
        for w, j, u in (((), x, _apply(A[y], ax)), ((x,), y, ax), ((x, y), x, e)):
            for v, c in u.items():
                terms[w, j, v] = terms.get((w, j, v), 0) + sign * c
    return tuple((w, j, v, c) for (w, j, v), c in terms.items() if c)


def _unit(c: int) -> bool:
    """Whether c, a value at q = _AT, is +-q^e for some e >= 0."""
    c = abs(c)
    return c & (c - 1) == 0 and (c.bit_length() - 1) % 8 == 0


class _ColumnPlan:
    """The set-up of a pair solve that reads the column table alone, shared
    by every row table and q value: breadth-first order and tree, scales
    exps (see _PairSolver._basis), the positions that move a column,
    root-loop generators roots, the commuting positions (see _commuting),
    the braid memo (see _braids), and per set of relations on both
    tables the equations left (see _collect_events).  pair names
    the pair that builds it; rows, if given, is the _RowState of the same
    table, whose commuting positions and braid memo the plan shares."""

    def __init__(self, table, pair: tuple[int, int], rows: _RowState | None = None):
        self.table, self.pair = table, pair
        self.order, self.par = _bfs(table)
        if len(self.order) != len(table):
            raise SolverInvariantError('component not connected by its own edges', pair)
        for k, column in enumerate(zip(*table)):
            _two_cycles(column, k, pair, 'column')
        # s_c = a^ea b^eb, exps[c] = (ea, eb), the factors along c's tree path
        self.exps = exps = [(0, 0)] * len(table)
        for c in self.order[1:]:
            p, _, case = self.par[c]
            ea, eb = exps[p]
            exps[c] = (ea, eb + 1) if case == 2 else (ea + 1, eb)
        self.moving = {k for entries in table for k, (case, _) in enumerate(entries) if case != 1}
        self.roots = tuple(k for k, entry in enumerate(table[0]) if entry == (1, 0))
        self.commuting, self.braids = (rows.commuting, rows.braids) if rows else (_commuting(table), {})
        self.closures = {}

    def events(self, commuting: tuple[int, ...], braiding: tuple[int, ...], fixed: int) -> list:
        """_collect_events, built on first use per set of relations and kept."""
        key = commuting, braiding, fixed
        if key not in self.closures:
            self.closures[key] = self._collect_events(commuting, braiding, fixed)
        return self.closures[key]

    def _collect_events(self, commuting: tuple[int, ...], braiding: tuple[int, ...],
                        fixed: int) -> list[tuple]:
        """The events (l, c, c2, case), position l on column c with target
        c2, that no relation implies, in walk order.  commuting[l] and
        braiding[l] are the bitmasks of the positions that commute and that
        braid with l on both tables, fixed that of the positions that fix
        every row.  The candidates are the loops and the case 2 ends of the
        2-cycles off the tree; one is dropped when a square or a hexagon at
        some vertex of its orbit has it, or its partner, as its only unknown
        term, with a coefficient +-q^e (see the module docstring).  Known
        are the tree edges, the loops at the root, the loops of the
        positions in fixed, the candidates walked before it and the
        partners of all of these."""
        table = self.table
        known = [0] * len(table)  # bit k of known[c]: E(k, c) holds
        for c, (p, k, _) in self.par.items():
            known[c] |= 1 << k
            known[p] |= 1 << k
        known[0] |= sum(1 << k for k in self.roots)
        if fixed:
            for c, entries in enumerate(table):
                known[c] |= sum(1 << k for k, entry in enumerate(entries)
                                if entry == (1, c) and fixed >> k & 1)
        events = []
        for c, entries in enumerate(table):
            movers = sum(1 << k for k, (case, _) in enumerate(entries) if case != 1)
            for l, (case, c2) in enumerate(entries):
                bit = 1 << l
                if case == 3 or known[c] & bit:  # a partner end, or known
                    continue
                squares = movers & commuting[l] & known[c]
                while squares:  # each k that moves c and commutes with l
                    low = squares & -squares
                    p = entries[low.bit_length() - 1][1]
                    if known[p] & bit and known[table[p][l][1]] & low:
                        break
                    squares ^= low
                else:
                    if not self._hexagon_implies(l, c, c2, braiding[l], known):
                        events.append((l, c, c2, case))
                known[c] |= bit
                known[c2] |= bit
        return events

    def _hexagon_implies(self, l: int, c: int, c2: int, braids: int, known: list[int]) -> bool:
        """Whether a hexagon of l and a position in braids, at a vertex of
        the orbit of c, has E(l, c) or E(l, c2) as its only unknown term,
        with a unit coefficient (see _collect_events)."""
        while braids:
            low = braids & -braids
            braids ^= low
            pos = tuple(sorted((low.bit_length() - 1, l)))
            verts, orbit = _orbit(self.table, *pos, c)
            for p in range(len(verts)):
                unknown = [(pos[j], verts[v], coef) for _, j, v, coef in _hexagon(orbit, p)
                           if not known[verts[v]] >> pos[j] & 1]
                if len(unknown) == 1 and unknown[0][:2] in ((l, c), (l, c2)) and _unit(unknown[0][2]):
                    return True
        return False


class _RowState:
    """The set-up of pair solves that reads one row table alone, filled on
    first use and shared by every column table: the commuting positions
    (see _commuting), the bitmask fixed of the positions that fix every
    row, the braid memo (see _braids), the 2-cycles per generator
    position, the root-loop classes per root-loop generators (all q), and
    the two maps per (a, b, position) (see _PairSolver._basis)."""

    def __init__(self, table_p):
        self.table_p = table_p
        self.commuting = _commuting(table_p)
        self.fixed = sum(1 << k for k, column in enumerate(zip(*table_p))
                         if all(entry == (1, v) for v, entry in enumerate(column)))
        self.braids, self.cycles, self.classes, self.maps = {}, {}, {}, {}


class _PairSolver:
    """Solve X A_i = A_i X restricted to one ordered component pair.

    The input is the tables of the column component C and of the row
    component C' (see _component_classes), and nothing else; every index
    is local, and the root column is vertex 0 of C.  Basis blocks come
    back as {(position in C', position in C): value}.  pair names the
    pair in errors.  The _ColumnPlan of C and _RowState of C' are built
    here unless given as plan and rows, shared with other pairs.
    """

    def __init__(self, table, table_p, qf, pair: tuple[int, int], plan=None, rows=None):
        self.plan = plan = plan or _ColumnPlan(table, pair)
        self.rows = rows = rows or _RowState(table_p)
        self.table, self.table_p, self.pair, self.m = table, table_p, pair, len(table_p)
        self.order, self.par, self.exps = plan.order, plan.par, plan.exps
        for k in plan.moving:
            self._cycles(k)
        # the positions that braid on both tables, of those that do not commute
        both = tuple(map(and_, plan.commuting, rows.commuting))
        braiding = [0] * len(both)
        for l in range(len(both)):
            for k in range(l):
                if not both[l] >> k & 1 and self._braids(k, l):
                    braiding[k] |= 1 << l
                    braiding[l] |= 1 << k
        self.events = plan.events(both, tuple(braiding), rows.fixed)
        # a basis is built at q = a/b in lowest terms, b > 0; over Q(q) (qf
        # is coeff.Q) at a = q and b = 1
        self.over_q = isinstance(qf, Fraction)
        self.a, self.b = (qf.numerator, qf.denominator) if self.over_q else (Q, ONE)

    def _cycles(self, i: int) -> list[tuple[int, int]]:
        """The 2-cycles (rl, t) of generator position i on the row component,
        rl in case 2 and t in case 3 (see _two_cycles), built on first use
        and kept."""
        if i not in self.rows.cycles:
            self.rows.cycles[i] = _two_cycles([entries[i] for entries in self.table_p], i,
                                              self.pair, 'row')
        return self.rows.cycles[i]

    def _braids(self, k: int, l: int) -> bool:
        """Whether positions k < l braid on both tables (see _braids); the
        row table's 2-cycle shape at both is checked first, as the hexagon
        inverts A'_k and A'_l."""
        self._cycles(k)
        self._cycles(l)
        return (_braids(self.table_p, self.rows.braids, k, l)
                and _braids(self.table, self.plan.braids, k, l))

    def _classes(self) -> list[int]:
        """The class of each row of C', the rows joined by the 2-cycles of
        every loop at the root, classes numbered by their largest row;
        built on first use per root-loop generators and kept.

        The loops at the root hold exactly when the root column is
        constant on each class (see the module docstring), so the 0/1
        roots of the classes span their solutions.  A union-find keeps
        each class under its largest row: a 2-cycle hangs the smaller of
        its two classes' tops under the larger.
        """
        roots = self.plan.roots
        if roots in self.rows.classes:
            return self.rows.classes[roots]
        up = list(range(self.m))

        def top(rl: int) -> int:
            while up[rl] != rl:
                up[rl] = up[up[rl]]
                rl = up[rl]
            return rl

        for i in roots:
            for rl, t in self._cycles(i):
                r1, r2 = top(rl), top(t)
                up[min(r1, r2)] = max(r1, r2)
        number = {rl: k for k, rl in enumerate(rl for rl in range(self.m) if up[rl] == rl)}
        classes = self.rows.classes[roots] = [number[top(rl)] for rl in range(self.m)]
        return classes

    def _basis(self, classes: list[int]) -> list[dict]:
        """The basis blocks {(rl, c): x_c[rl]} of the 0/1 roots of a
        partition of the rows: classes[rl] is the class of row rl, numbered
        from 0, and root k is 1 on class k and 0 elsewhere.

        Each root is propagated on its own as sparse columns u_c = x_c s_c
        (see the module docstring).  A tree edge maps x_p to A' x_p (case
        2) or (A' - (q - 1)) x_p / q (case 3), that is u_c = the image of
        u_p by b A' or b A' - (a - b), its factor (b or a) going into s_c;
        the maps are built once per row table and q.  Over Q, x_c is
        u_c / s_c; over Q(q), u_c lies in Z[q] and x_c = q^-ea u_c in
        Z[q, q^-1]."""
        a, b, maps = self.a, self.b, self.rows.maps
        edges = [None] * len(self.table)
        for c in self.order[1:]:
            _, i, case = self.par[c]
            if (a, b, i) not in maps:
                op = _scaled_generator([entries[i] for entries in self.table_p], a, b)
                maps[a, b, i] = op, _shifted(op, a - b)
            edges[c] = maps[a, b, i][case == 3]
        # entry(u_c[rl], scales[c]) is x_c[rl]: u_c[rl] / s_c over Q, and
        # u_c[rl] q^-ea over Q(q)
        if self.over_q:
            one, entry, scales = 1, Fraction, [a ** ea * b ** eb for ea, eb in self.exps]
        else:
            one, entry, scales = ONE, mul, [Q ** -ea for ea, _ in self.exps]
        roots = [{} for _ in range(max(classes) + 1)]
        for rl, k in enumerate(classes):
            roots[k][rl] = one
        blocks = []
        for root in roots:
            cols = [root] + [None] * (len(self.table) - 1)
            for c in self.order[1:]:
                cols[c] = _apply(edges[c], cols[self.par[c][0]])
            blocks.append({(rl, c): entry(u[rl], s) for c, (u, s) in enumerate(zip(cols, scales))
                           for rl in sorted(u)})
        return blocks

    def _check(self, blocks: list[dict]) -> None:
        """Check every event left on every block, exactly in its own ring:
        event (l, c, c2, case) is _commutes of the map of position l on the
        rows and columns together (columns after the m rows) with each
        block cut to columns c and c2.  A_l preserves their span and its
        complement, so the cut commutes exactly when E(l, c) and E(l, c2)
        hold, which the quadratic relation makes one equation."""
        m, a, b = self.m, self.a, self.b
        for l, c, c2, case in self.events:
            op = _scaled_generator([entries[l] for entries in self.table_p]
                                   + [(cs, t + m) for cs, t in (entries[l] for entries in self.table)],
                                   a, b)
            src = sorted(range(len(op[0])), key=op[0].__getitem__)
            for X in blocks:
                if not _commutes(op, src, {(rl, v + m): x for (rl, v), x in X.items() if v in (c, c2)}):
                    raise SolverInvariantError('the root-loop classes break an equation',
                                               self.pair, (l, c, c2, case))

    def solve(self, with_basis: bool):
        """(dimension, basis blocks) of the pair, the blocks only if
        with_basis: the 0/1 roots of the root-loop classes (_classes).
        Each 2-cycle of a loop at the root must join rows of one class,
        and the events that the relations leave are checked on the blocks
        (_check); either failure raises SolverInvariantError naming the
        equation.  With no event left, counting propagates nothing."""
        classes = self._classes()
        for i in self.plan.roots:
            if any(classes[rl] != classes[t] for rl, t in self._cycles(i)):
                raise SolverInvariantError('the root-loop classes break an equation',
                                           self.pair, (i, 0, 0, 1))
        if not (with_basis or self.events):
            return max(classes) + 1, []
        blocks = self._basis(classes)
        self._check(blocks)
        return len(blocks), blocks if with_basis else []


# ---------------------------------------------------------------------------
# public entry points

class CommutantReport(Record):
    """Dimensions of End over the subalgebra generated by the given T_i.

    pairs counts the ordered component pairs, components ** 2, and
    pair_classes the pairs with distinct tables, each solved once per q
    value on set-up built once per call: per column table, per row table
    and per (row table, q) (see _total_dim).
    """

    __slots__ = ('n', 'r', 'mode', 'generators', 'q_values', 'dims', 'agree',
                 'components', 'pairs', 'pair_classes', 'basis')

    def __init__(self, n: int, r: int, mode: str, generators: tuple[int, ...],
                 q_values: tuple[Fraction, ...], dims: tuple[int, ...], agree: bool,
                 components: int, pairs: int, pair_classes: int, basis: list | None = None):
        self.n = n
        self.r = r
        self.mode = mode
        self.generators = generators
        self.q_values = q_values
        self.dims = dims
        self.agree = agree
        self.components = components
        self.pairs = pairs
        self.pair_classes = pair_classes
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.dims[0]


def commutant_basis(
    n: int,
    r: int,
    q_values: Sequence[Fraction] = DEFAULT_Q_VALUES,
    *,
    symbolic: bool = False,
    with_basis: bool = False,
    limit: int = 4096,
    generators: Sequence[int] | None = None,
) -> CommutantReport:
    """Compute the centralizer dimension (and optionally a basis) exactly.

    Default mode specializes q at each value in q_values (nonzero ints or
    Fractions) and cross-checks that all runs agree, refusing n^r above
    limit; symbolic mode works over Q(q) directly (q_values are checked
    all the same, not used) and refuses n^r above SYMBOLIC_LIMIT too.  The
    basis, if requested, is materialized as sparse matrices
    {(row index, column index): value} at the first q value, with Fraction
    values, or in symbolic mode with LaurentPoly values that have integer
    coefficients: a basis over Z[q, q^-1] of the commutant's integral form.
    """
    return _commutant(n, r, q_values, symbolic, with_basis, limit, generators)[0]


def _commutant(n: int, r: int, q_values: Sequence[Fraction], symbolic: bool, with_basis: bool,
               limit: int, generators: Sequence[int] | None,
               representatives: bool = False) -> tuple[CommutantReport, dict]:
    """commutant_basis, and the orbit components it walked, grouped by
    their table (see _component_classes).  With representatives, the basis
    carries each class pair's blocks only to the pair of the two classes'
    first components."""
    if n < 1 or r < 1:
        raise ValueError('need n >= 1 and r >= 1')
    _check_limit(n, r, limit)
    gens = _ints(generators, 'generators') if generators is not None else tuple(range(1, n))
    if any(not 1 <= i <= n - 1 for i in gens):
        raise ValueError(f'generators out of range for n={n}: {gens}')
    q_values = tuple(Fraction(_exact(q0, 'q values')) for q0 in q_values)
    if not q_values:
        raise ValueError('need at least one q value')
    for q0 in q_values:
        if not q0:
            raise ZeroSpecialization('q must specialize to a unit, got 0')
    if symbolic:
        _check_limit(n, r, SYMBOLIC_LIMIT)
    classes = _component_classes(n, r, gens)
    components = sum(map(len, classes.values()))
    counts = {'components': components, 'pairs': components ** 2,
              'pair_classes': len(classes) ** 2}
    shared = [None] * len(classes), [None] * len(classes)  # see _total_dim
    # one run over Q(q), or one per q value; the basis, if any, of the first
    runs = [_total_dim(classes, qf, with_basis and not k, *shared, representatives)
            for k, qf in enumerate((Q,) if symbolic else q_values)]
    dims = tuple(dim for dim, _ in runs)
    report = CommutantReport(n, r, 'symbolic' if symbolic else 'specialized', gens,
                             () if symbolic else q_values, dims, len(set(dims)) == 1,
                             **counts, basis=runs[0][1])
    return report, classes


def _total_dim(classes: dict[tuple, list[list[int]]], qf, materialize: bool,
               plans: list, rows: list, representatives: bool = False):
    """Dimension, and the basis if materialize, summed over all component pairs.

    Each pair of classes is solved once per call, that is per q value;
    its dimension counts once per member pair, and its basis is carried
    to every member pair through the two relabellings (with
    representatives, to the pair of first members only).  plans[x] is the
    _ColumnPlan of the x-th table of classes, built in the first pair
    that needs it (None until then) and shared by every later pair and
    call given the same list; rows[y], the _RowState of the y-th table,
    likewise, but its maps are dropped at the end of the call.  A pair
    whose solve returns fewer or more blocks than its dimension raises
    SolverInvariantError.
    """
    total = 0
    basis = [] if materialize else None
    for x, (table, comps) in enumerate(classes.items()):
        for y, (table_p, comps_p) in enumerate(classes.items()):
            pair = comps[0][0], comps_p[0][0]
            rows[y] = rows[y] or _RowState(table_p)
            # the first row of pairs builds every row state, so rows[x] exists
            # and lends the plan the relations of their common table
            plans[x] = plans[x] or _ColumnPlan(table, pair, rows[x])
            solver = _PairSolver(table, table_p, qf, pair, plans[x], rows[y])
            dim, blocks = solver.solve(with_basis=materialize)
            total += dim * len(comps) * len(comps_p)
            if materialize:
                if len(blocks) != dim:
                    raise SolverInvariantError(
                        f'{len(blocks)} basis blocks for dimension {dim}', pair)
                for C in comps[:1] if representatives else comps:
                    for Cp in comps_p[:1] if representatives else comps_p:
                        basis.extend({(Cp[a], C[b]): v for (a, b), v in X.items()}
                                     for X in blocks)
    for state in rows:  # the maps of one q are not used again
        state.maps.clear()
    return total, basis


def half_commutant_basis(n: int, r: int, q_values: Sequence[Fraction] = DEFAULT_Q_VALUES,
                         **kwargs) -> CommutantReport:
    """Centralizer of the subalgebra generated by T_1..T_{n-2} only.

    This is the half-integer step between r and r+1: the last generator
    is dropped, the orbits refine, and the dimension jumps to the next
    odd Bell number once n is large enough.
    """
    if n < 2:
        raise ValueError('need n >= 2 for a restricted subalgebra')
    return commutant_basis(n, r, q_values, generators=range(1, n - 1), **kwargs)


def _integral(X: dict) -> tuple[dict, int]:
    """A sparse rational matrix as (s X, s), s the lcm of its denominators."""
    s = lcm(*(v.denominator for v in X.values()))
    return {k: v.numerator * (s // v.denominator) for k, v in X.items()}, s


class DoubleCentralizerReport(Record):
    __slots__ = ('n', 'r', 'q0', 'dim_commutant', 'dim_image', 'dim_bicommutant',
                 'image_contained')

    def __init__(self, n: int, r: int, q0: Fraction, dim_commutant: int, dim_image: int,
                 dim_bicommutant: int, image_contained: bool):
        self.n = n
        self.r = r
        self.q0 = q0
        self.dim_commutant = dim_commutant
        self.dim_image = dim_image
        self.dim_bicommutant = dim_bicommutant
        self.image_contained = image_contained

    @property
    def holds(self) -> bool:
        return self.dim_image == self.dim_bicommutant and self.image_contained


def double_centralizer_check(n: int, r: int, q0: Fraction, limit: int = 4096) -> DoubleCentralizerReport:
    """Check that the bicommutant of the letter action is the action image.

    Computes the commutant basis at q0, then compares B, the space of
    matrices commuting with every basis element, with I, the span of all
    T_w action matrices.  Elements of B commute in particular with the
    orbit projections (which lie in the commutant since the A_i are block
    diagonal), so the ansatz for B can be taken block diagonal without
    loss; width is the number of its unknowns.

    The image, containment and B are all computed on one representative
    component per table class, its first (see _component_classes), and
    that is exact:
    - Image.  Components with equal tables carry the same T_i up to the
      relabelling P between them, so T_w on C' is P T_w|_C P^-1.  An
      element of I that vanishes on the representatives vanishes
      everywhere, so dim I is the rank of the T_w on their columns, and
      containment on the representative pairs gives it on every pair.
    - Bicommutant.  P_{C,C'}, a block on the pair (C', C), lies in the
      span of the carried basis exactly when the identity lies in the span
      of the blocks of the class with itself.  For every class with two
      members or more the check asks for more, the identity on C as one
      of those blocks (SolverInvariantError names (C[0], C[0]) if not).
      It always is: the root loops fix the root row, so it is a class of
      its own, whose 0/1 root propagates to the identity.  Then every Y
      in B commutes with P, so Y_C' = P Y_C P^-1, and every equation of
      another pair is a relabelled representative one: B is the system
      on the representatives, of width the sum over classes of |C|^2.

    Both systems are homogeneous, so they are built over the integers:
    each commutant basis element X is scaled by the lcm of its
    denominators, and each T_w by b^l(w) with q0 = a/b, which leaves
    every kernel, span and rank unchanged.

    Containment (image_contained) is checked on the generators alone:
    A_i X == X A_i exactly for each A_i = b T_i and each X.  Matrices
    commuting with every X are closed under products, and I is spanned
    by products of the A_i (the T_w are such products, the empty one
    included), so this holds exactly when I is inside B.  Then B = I + K,
    a direct sum, for K the elements of B that vanish on P, the pivot
    coordinates of the image echelon: restriction to P maps I onto R^P
    bijectively (the reduced rows restrict to unit vectors), so each Y
    in B agrees on P with one Z in I, and Y - Z lies in K.  The same
    holds for the solutions of any set S of the rows of Y X - X Y, which
    contain I too, so width - rank(S) = dim I + (width - dim I) -
    rank(S without the P columns): S has the same rank without them.
    Hence the rows are fed without the P columns (see _bicommutant), at
    the same ranks, so the same rows, as when fed whole; once the rank
    is full on the width - dim I unknowns off P, K is zero, B = I, and
    the remaining rows are dependent and not fed.  Either way
    dim_bicommutant is width - rank.  When containment fails nothing is
    pinned and every row is fed whole.  That P has dim I coordinates,
    each inside one representative block, is checked
    (SolverInvariantError).
    """
    q0 = Fraction(_exact(q0, 'q values'))
    report, classes = _commutant(n, r, (q0,), False, True, limit, None, representatives=True)
    reps = [Cs[0] for Cs in classes.values()]
    idxs = all_indices(n, r)
    N = len(idxs)
    gid_map = {j: t for t, j in enumerate(idxs)}
    a, b = q0.numerator, q0.denominator

    # image of the algebra: span of all T_w matrices, here b^l(w) T_w, on
    # the representatives' columns
    img = Echelon(N * N, Fraction(1))
    gens = {i: _scaled_generator([(case, gid_map[j2]) for case, j2 in
                                  (_classify(i, j) for j in idxs)], a, b)
            for i in range(1, n)}

    def times_gen(i: int, cols: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
        return {c0: _apply(gens[i], col) for c0, col in cols.items()}

    identity = {t: {t: 1} for C in reps for t in C}
    pivots = []  # the image's pivot coordinates (row, column)
    for cols in act_by_words(all_permutations(n), identity, times_gen).values():
        p = img.add({rg * N + c0: v for c0, col in cols.items() for rg, v in col.items()})
        if p is not None:
            pivots.append(divmod(p, N))

    basis = [_integral(X)[0] for X in report.basis]
    dim_bicommutant, contained, _ = _bicommutant(reps, list(gens.values()), basis, img.rank,
                                                 pivots)
    for Cs in classes.values():  # the premise of the relabellings
        if len(Cs) > 1 and {(g, g): 1 for g in Cs[0]} not in basis:
            raise SolverInvariantError('the identity is not a block of its class',
                                       (Cs[0][0], Cs[0][0]))
    return DoubleCentralizerReport(n=n, r=r, q0=q0, dim_commutant=report.dim,
                                   dim_image=img.rank, dim_bicommutant=dim_bicommutant,
                                   image_contained=contained)


def _commutes(op, src: list[int], X: dict) -> bool:
    """Whether A X == X A, for A the monomial-plus-diagonal map op (see
    _apply) on global indices, src the inverse of its target map, and X
    sparse {(row, column): value}."""
    to, coef, diag = op
    diff: dict[tuple[int, int], int] = {}
    for (rg, cg), v in X.items():
        key = to[rg], cg  # (A X)[to[rg], cg] gets coef[rg] v
        diff[key] = diff.get(key, 0) + coef[rg] * v
        m = src[cg]  # (X A)[rg, m] gets coef[m] v
        diff[rg, m] = diff.get((rg, m), 0) - coef[m] * v
        dv = diag.get(rg, 0) - diag.get(cg, 0)
        if dv:
            diff[rg, cg] = diff.get((rg, cg), 0) + dv * v
    return not any(diff.values())


def _bicommutant(comps: list[list[int]], gens: list, basis: list[dict],
                 dim_image: int, pivots: list[tuple[int, int]]) -> tuple[int, bool, int]:
    """(dim_bicommutant, image_contained, rows fed) for the integral
    commutant basis, the components comps and the scaled generators gens
    whose products span an image I of dimension dim_image, with pivot
    coordinates pivots, each a (row, column).

    Once I lies in B, B = I + K, a direct sum, K the elements of B that
    vanish on the pivots, as I restricts to them bijectively; so the rows
    are fed with the pivot columns deleted, which keeps the rank of every
    prefix, and the early stop is full column rank on the other width -
    dim_image unknowns (see double_centralizer_check).  A pivot count
    other than dim_image (naming the first component with itself), or a
    pivot outside one block (naming its pair), raises
    SolverInvariantError.  The elements are fed sparsest first (a stable
    sort by their number of nonzeros), which reaches the full rank after
    far fewer rows than the basis order; each element must lie inside
    one component pair.
    """
    comp_of = {g: blk for blk, C in enumerate(comps) for g in C}
    offsets, off = [], 0
    for C in comps:
        offsets.append(off)
        off += len(C) * len(C)
    width = off
    local = [{g: t for t, g in enumerate(C)} for C in comps]

    def var(row_gid: int, col_gid: int) -> int:
        blk = comp_of[row_gid]
        return offsets[blk] + local[blk][row_gid] * len(comps[blk]) + local[blk][col_gid]

    blocks = []
    for X in basis:
        rg, cg = next(iter(X))
        bp, bc = comp_of[rg], comp_of[cg]
        for key in X:
            if comp_of[key[0]] != bp or comp_of[key[1]] != bc:
                raise SolverInvariantError('commutant element outside one component pair',
                                           (comps[bp][0], comps[bc][0]), key)
        blocks.append((bp, bc))
    srcs = [sorted(range(len(op[0])), key=op[0].__getitem__) for op in gens]
    contained = all(_commutes(op, src, X) for X in basis for op, src in zip(gens, srcs))

    pinned = set()  # the unknowns of the image's pivots, once I lies in B
    if contained:
        for rg, cg in pivots:
            if rg not in comp_of or comp_of.get(cg) != comp_of[rg]:
                raise SolverInvariantError(
                    'pinned coordinate outside one representative block',
                    tuple(comps[comp_of[g]][0] if g in comp_of else g for g in (rg, cg)),
                    (rg, cg))
            pinned.add(var(rg, cg))
        if len(pinned) != dim_image:
            raise SolverInvariantError(
                f'{len(pinned)} pinned coordinates for an image of dimension {dim_image}',
                (comps[0][0], comps[0][0]))

    # bicommutant: Y X = X Y for every commutant basis element X
    target = width - dim_image if contained else None
    ech = Echelon(width, Fraction(1))
    fed = 0
    for t in sorted(range(len(basis)), key=lambda t: len(basis[t])):
        X, (bp, bc) = basis[t], blocks[t]
        rows_of = {}
        cols_of = {}
        for (rg, cg), v in X.items():
            rows_of.setdefault(rg, []).append((cg, v))
            cols_of.setdefault(cg, []).append((rg, v))
        for rho in comps[bp]:
            for c in comps[bc]:
                row: dict[int, object] = {}
                for m, v in cols_of.get(c, ()):  # (Y X)[rho, c]
                    key = var(rho, m)
                    row[key] = row.get(key, 0) + v
                for m, v in rows_of.get(rho, ()):  # -(X Y)[rho, c]
                    key = var(m, c)
                    cur = row.get(key, 0) - v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
                if row:
                    fed += 1
                    ech.add({k: v for k, v in row.items() if k not in pinned})
                    if ech.rank == target:
                        return width - ech.rank, True, fed
    return width - ech.rank, contained, fed


class StructureConstants(Record):
    """Multiplication table of the centralizer in its computed basis."""

    __slots__ = ('n', 'r', 'q0', 'dim', 'table', 'closed')

    def __init__(self, n: int, r: int, q0: Fraction, dim: int,
                 table: dict[tuple[int, int], dict[int, object]], closed: bool):
        self.n = n
        self.r = r
        self.q0 = q0
        self.dim = dim
        self.table = table
        self.closed = closed


def structure_constants(n: int, r: int, q0: Fraction, limit: int = 4096) -> StructureConstants:
    """Expand all pairwise products of commutant basis elements in the basis.

    Closure of the table (every product expands) confirms the computed
    space really is an algebra, not just a vector space of matrices.
    The products are formed over the integers, from each basis element
    X_t scaled by the lcm s_t of its denominators.  Every s_t X_t owns an
    entry where no other basis element is nonzero: the solver's root t is
    1 on its class of rows of the root column, where every other root of
    the pair is 0, and the relabelling carries that entry to each member
    pair.  So a product P can only be the sum of c_t s_t X_t with
    c_t = P[own_t] / (s_t X_t)[own_t], and P expands exactly
    when m P - sum (m c_t) s_t X_t is zero, m the lcm of the denominators
    of the c_t: a check in integers.  A coordinate c of s_a X_a s_b X_b on
    s_t X_t is c s_t / (s_a s_b) on X_t.  An element without an entry of
    its own raises SolverInvariantError.  A product A B is zero, and not
    formed, unless a column component of A is a row component of B.
    """
    q0 = Fraction(_exact(q0, 'q values'))
    report, classes = _commutant(n, r, (q0,), False, True, limit, None)
    comps = [C for Cs in classes.values() for C in Cs]
    scaled = [_integral(X) for X in report.basis]
    comp = {g: C[0] for C in comps for g in C}
    sides = [({comp[rg] for rg, _ in X}, {comp[cg] for _, cg in X}) for X, _ in scaled]

    owner: dict[tuple[int, int], int | None] = {}
    for t, (X, _) in enumerate(scaled):
        for key in X:
            owner[key] = None if key in owner else t
    own_of = {}
    for t, (X, _) in enumerate(scaled):
        key = next((key for key in X if owner[key] == t), None)
        if key is None:
            pair = next(((comp[rg], comp[cg]) for rg, cg in X), None)
            raise SolverInvariantError(f'commutant element {t} has no entry of its own', pair)
        own_of[key] = t

    indexed = []
    for X, _ in scaled:
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (rg, cg), v in X.items():
            by_col.setdefault(cg, []).append((rg, v))
        indexed.append(by_col)

    table: dict[tuple[int, int], dict[int, object]] = {}
    closed = True
    for a, (A, sa) in enumerate(scaled):
        a_by_col = indexed[a]
        for b, (B, sb) in enumerate(scaled):
            if sides[a][1].isdisjoint(sides[b][0]):
                table[(a, b)] = {}
                continue
            prod: dict[tuple[int, int], int] = {}
            for (mg, cg), v in B.items():
                for rg, w in a_by_col.get(mg, ()):
                    prod[rg, cg] = prod.get((rg, cg), 0) + w * v
            coords = {own_of[key]: Fraction(v, scaled[own_of[key]][0][key])
                      for key, v in prod.items() if v and key in own_of}
            m = lcm(*(c.denominator for c in coords.values()))
            rest = {key: m * v for key, v in prod.items() if v}
            for t, c in coords.items():
                f = c.numerator * (m // c.denominator)
                for key, v in scaled[t][0].items():
                    cur = rest.get(key, 0) - f * v
                    if cur:
                        rest[key] = cur
                    else:
                        del rest[key]
            if rest:
                closed = False
                coords = {}
            table[(a, b)] = {t: c * scaled[t][1] / (sa * sb) for t, c in coords.items()}
    return StructureConstants(n, r, q0, len(report.basis), table, closed)
