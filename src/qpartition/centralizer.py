"""Brute force centralizer of the letter action, independent of any formula.

The oracle computes End over the Hecke algebra of V tensor r directly:
matrices X with X A_i = A_i X for all generator matrices A_i.  Because
each A_i only ever connects basis vectors inside one orbit, the A_i are
block diagonal over the orbit components (recovered here by a
breadth-first walk along the letter rule, not from any classification),
and the commutant splits into independent blocks X restricted to ordered
component pairs.

Within a pair (C, C') the system is solved cyclically: every column of
A_i restricted to C touches at most one other basis vector, so each
generator equation either pins a column of X to an image of another
column or is a genuine linear constraint.  Columns propagate along a
spanning tree from a root column y; every other equation is an event
(i, c, c2, case), generator position i from column c to column c2 (a
loop, where T_i fixes the basis vector, is case 1 with c2 = c).
A loop asks less than its m rows.  On the row component T_i fixes a
row (case 1) or moves it in a 2-cycle, rl to t in case 2 and t back to
rl in case 3; taken times b, the loop is (b A_i - a) x_c = 0, a matrix
whose row is zero where T_i fixes the row and whose rows on a 2-cycle
{rl, t} are a(-1, 1) and b(1, -1).  With a and b nonzero the loop holds
exactly when x_c[rl] = x_c[t] on every 2-cycle (see _PairSolver._cycles).
The loops at the root therefore say that y is constant on the classes
of rows joined by their 2-cycles, and the solve takes one 0/1 root per
class, then verifies on these roots the raw equations that no other
implies: of the loops and of one equation per 2-cycle of T_i on C that
holds no tree edge, those that no commuting square implies.

One equation per 2-cycle suffices by the quadratic relation alone.  On
the rows, A = A_i is q on a fixed row, and on a 2-cycle it sends e_rl
to e_t and e_t to q e_rl + (q - 1) e_t, so A^2 = (q - 1) A + q.  On a
2-cycle {c, c2} of T_i on C, c in case 2, the equation at c is
x_c2 = A x_c and the one at c2 is (A - (q - 1)) x_c2 = q x_c.  The first
gives A x_c2 = A^2 x_c = (q - 1) x_c2 + q x_c, the second; applying A to
the second gives q x_c2 = A^2 x_c2 - (q - 1) A x_c2 = q A x_c, the first
once divided by the unit q.  So the solve checks the case 2 equation of
each 2-cycle and not its partner, and none of a 2-cycle whose tree edge
(in either direction) holds by construction.  This needs only the
2-cycle shape of both tables, checked from the raw tables: a column or
row that a generator neither fixes nor moves in a 2-cycle raises
SolverInvariantError (see _ColumnPlan._collect_events, _PairSolver._cycles).

One equation per commuting square suffices too, by the deduction step of
coset enumeration (Todd and Coxeter 1936) with T_k T_l = T_l T_k as the
relator.  Write E(k, c) for the equation X A_k e_c = A'_k X e_c, A_k the
matrix of position k on the columns and A'_k on the rows, and R_k for
X A_k - A'_k X.  If A_k and A_l commute and so do A'_k and A'_l, then
expanding X A_k A_l - A'_k A'_l X in two ways gives
R_k A_l + A'_k R_l = R_l A_k + A'_l R_k.  Apply it to e_p: A_l e_p lies in
the span of e_p and e_(s_l p), s_l the target map of position l, and
A_k e_p = alpha e_(s_k p) + beta e_p with alpha 1 or q.  So if E(l, p),
E(k, p) and E(k, s_l p) hold, alpha R_l e_(s_k p) = 0, and E(l, s_k p)
holds once divided by the unit alpha.  The solve walks the equations in
order and drops each that such a square implies, from tree edges,
equations kept, equations dropped before it, and the partners of all of
these, which makes the argument well-founded; the loops at the root are
always kept, as the classes rest on them.  Whether two positions commute
is read off each raw table: s_k s_l v == s_l s_k v at every vertex v, and
each position's case invariant under the other's target map (proof in
_commuting).  The criterion is only sufficient, and a pair counts only
when it holds on both tables, so a pair it misses costs checks, never
exactness.  On the one-orbit tables of (10,2), (12,2) and (5,3) the solve
checks 36 of 568, 46 of 1090 and 24 of 73 equations; counting without a
basis then propagates only the columns that these read and their tree
ancestors.

The answer is exact without any module theory: the root loops are raw
equations, so the solution space lies inside the span of the class
roots, and the verification, with the partners and the squares it
implies, puts that span inside the solution space.  The theory only
predicts that the verification never fails: C is cyclic on its root
vector and induced from the generators that fix it, so by Frobenius
reciprocity for q-permutation modules (Dipper and James 1986, over any
commutative ring) a block is fixed by its root column, which only has to
satisfy T_i y = q y for those generators.  Should an event break,
SolverInvariantError names the pair and the event.

Propagation and verification run on integers, fraction-free in the
manner of Bareiss.  With q = a/b in lowest terms, b A_i has integer
entries (a on the diagonal in case 1, b in case 2, a and a - b in case
3).  All d roots of a pair are checked together, packed by Kronecker
substitution (Schonhage 1982; Harvey 2009): entry rl of column c is the
one int sum of u_c^(k)[rl] 2^(kW) over k, with balanced fields of a
width W proved a priori to hold every value (see _width).  A column is
a dense list of these ints, since the d supports together fill it, and
a map is applied by C-level list operations.  Field k is x_c s_c, the
scale s_c = a^ea b^eb the product of the factors along the tree path
of c (b on a case 2 edge, a on case 3), so an event other than a loop
holds for every root exactly when ml image(u_c) == mr u_c2 as lists of
packed ints, for two coprime integers ml and mr (see _PairSolver._checks).
Fractions are formed only when a basis is materialized, by unpacking.
Over Q(q) the roots are the same, and the checks run one level of
Kronecker substitution down, at a = 2^K and b = 1: K is proved a priori
to exceed every coefficient a column or an event side can reach, so a
polynomial is fixed by its value at q = 2^K and a basis entry, a
Laurent polynomial over Z[q, q^-1], is read off the balanced base-2^K
digits of its field (see _PairSolver._pack_roots).

Many pairs repeat one solve.  One breadth-first walk per component
records its generator table (see _component_classes), and the pair
solver reads nothing but the two tables, so pairs with equal tables
(compared exactly, as tuples) have the same solution up to relabelling:
each such class is solved once per q value and its basis is carried to
the other pairs through their relabellings.  The set-up is split by
what it reads and built once per commutant_basis call: per column
table a _ColumnPlan (tree, scales, and per set of positions commuting
on both tables the events and order of the checks), per row table a
_RowState (commuting positions, 2-cycles, root-loop classes), holding
the maps per (row table, q); a pair adds only its multipliers and
checks.  The module theory predicts which orbits are isomorphic (hook
compositions, one per number of blocks) but is not consulted: classes
come from the matrices alone, and two isomorphic orbits whose tables
differ are simply solved twice.

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
from itertools import repeat
from math import lcm
from operator import add, and_, itemgetter, mul
from typing import Sequence

from ._record import Record
from .coeff import Q, LaurentPoly, ZeroSpecialization, _exact, _normal
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
    whose target is itself (case 1) holds its diagonal entry in coef.  The
    same steps shift the gather form (src, coef, diag) of a map (see
    _coimage), where a fixed row is one with src[rl] == rl."""
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


def _dense(coimage):
    """The image map whose coimage is (src, coef, diag), in dense form
    (gather, coef, diag, kappa) for _apply_dense: entry rl of the image of
    u is coef[rl] u[src[rl]] + diag[rl] u[rl], diag None when it is zero;
    kappa = max over rl of |coef[rl]| + |diag[rl]| bounds how much the
    map can grow the largest |entry| (see _width)."""
    src, coef, diag = coimage
    gather = itemgetter(*src) if len(src) > 1 else tuple
    if not diag:
        return gather, coef, None, max(map(abs, coef))
    diag = [diag.get(rl, 0) for rl in range(len(src))]
    return gather, coef, diag, max(map(add, map(abs, coef), map(abs, diag)))


def _apply_dense(op, u: list) -> list:
    """A dense map (see _dense) applied to the dense column u."""
    gather, coef, diag, _ = op
    out = list(map(mul, coef, gather(u)))
    if diag is not None:
        out = list(map(add, out, map(mul, diag, u)))
    return out


def _unpack(packed: int, width: int, d: int) -> list[int]:
    """The d balanced fields f_k of packed = sum f_k 2^(k width), each in
    [-2^(width-1), 2^(width-1)), lowest first; zero and negative fields
    come back too:

    >>> _unpack(3 - (1 << 4) - (4 << 12), 4, 4)
    [3, -1, 0, -4]
    >>> _unpack(sum(f << (4 * k) for k, f in enumerate([0, -8, 7, 0])), 4, 4)
    [0, -8, 7, 0]
    """
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    fields = []
    for _ in range(d):
        f = packed & mask
        if f >= half:
            f -= full
        fields.append(f)
        packed = (packed - f) >> width
    return fields


def _width(reach: int) -> int:
    """Field width W of a root pack (_PairSolver._pack_roots), whose fields
    start at 0 or 1, when reach bounds their growth.

    Proof that W suffices.  Packing, fields f_k to the one int sum of
    f_k 2^(kW), is Z-linear, and so is every step after it: a map
    multiplies entries by integer coefficients and adds them, an event
    side is multiplied by the integer ml or mr.  So each packed entry is
    exactly the pack of the d roots' own values, the numbers the per-root
    computation would give.  Those are bounded: a map with
    kappa = max |coef[rl]| + |diag[rl]| grows the largest |entry| at most
    kappa-fold, so column c is within G_c (G_c the product of kappa along
    its tree path) and the sides of a kept case 2 event within
    G_c kappa_i |ml| and G_c2 |mr|.  A loop compares two entries of one
    column, already within G_c, so no image of a loop is ever formed, and
    reach starts at the largest G_c.  reach is the largest of these
    factors, so every field is below 2^(W-2) <= 2^(W-1).  Two packs whose fields are all below
    2^(W-1) in size are equal only if every field is: their difference
    has fields g_k with |g_k| < 2^W, and sum g_k 2^(kW) = 0 forces
    g_0 = 0 mod 2^W, so g_0 = 0, and so on upwards.  Hence the packed
    comparison of an event holds if and only if it holds for every root,
    and _unpack recovers every column entry.  An overflowing field would
    not be visible in the packed int, which is why the bound is proved a
    priori rather than checked.
    """
    return reach.bit_length() + 2


def _coimage(table_p, i: int, a, b) -> tuple:
    """The map b A_i of generator position i on the row component, at
    q = a/b, in gather form (src, coef, diag), entry rl of the image of u
    being coef[rl] u[src[rl]] plus diag[rl] u[rl] (see _dense).  _shifted
    takes it to b A_i - (a - b), which a case 3 tree edge applies."""
    to, coef, diag = _scaled_generator([entries[i] for entries in table_p], a, b)
    # the target map permutes the rows; src is its inverse
    src = sorted(range(len(to)), key=to.__getitem__)
    return src, [coef[cl] for cl in src], diag


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


class _ColumnPlan:
    """The set-up of a pair solve that reads the column table alone, shared
    by every row table and q value: breadth-first order and tree, scales
    exps and K (see _PairSolver._pack_roots), the positions that move a
    column, root-loop generators roots, the commuting positions (see
    _commuting), and per commuting set the schedule: the events, the
    steps of the checks and the columns they skip (see
    _PairSolver._checks).  pair names the pair that builds it;
    commuting, if given, is _commuting(table)."""

    def __init__(self, table, pair: tuple[int, int], commuting: tuple[int, ...] | None = None):
        self.table, self.pair = table, pair
        self.order, self.par = _bfs(table)
        if len(self.order) != len(table):
            raise SolverInvariantError('component not connected by its own edges', pair)
        # s_c = a^ea b^eb, exps[c] = (ea, eb), the factors along c's tree path
        self.exps = exps = [(0, 0)] * len(table)
        for c in self.order[1:]:
            p, _, case = self.par[c]
            ea, eb = exps[p]
            exps[c] = (ea, eb + 1) if case == 2 else (ea + 1, eb)
        self.K = (3 ** (max(map(sum, exps)) + 1)).bit_length() + 2
        self.moving = {k for entries in table for k, (case, _) in enumerate(entries) if case != 1}
        self.roots = tuple(k for k, entry in enumerate(table[0]) if entry == (1, 0))
        self.commuting = _commuting(table) if commuting is None else commuting
        self.schedules = {}

    def schedule(self, commuting: tuple[int, ...]) -> tuple:
        """(events, steps, rest) for the positions that commute on both
        tables, commuting[l] the bitmask of those that commute with l;
        built on first use per commuting set and kept."""
        if commuting not in self.schedules:
            events = self._collect_events(commuting)
            self.schedules[commuting] = events, *self._schedule(events)
        return self.schedules[commuting]

    def _collect_events(self, commuting: tuple[int, ...]) -> list[tuple]:
        """The events to verify, (l, c, c2, case), generator position l on
        column c with target c2, in walk order: of the loops (case 1,
        c2 = c) and the case 2 ends of the 2-cycles of T_l on C that hold no
        tree edge, those that no commuting square implies.  The partner end
        of a 2-cycle follows by the quadratic relation, and an event
        E(l, s_k p) by the commuting square of k and l at p (see the module
        docstring): it is dropped when E(l, p), E(k, p) and E(k, s_l p) are
        known, that is tree edges, events kept or dropped before it, or
        their partners.  Every loop at the root is kept: the root-loop
        classes rest on them.  A column that a generator neither fixes nor
        moves in a 2-cycle is refused here; every pair checks its row table
        at each position in moving (_PairSolver._cycles)."""
        table = self.table
        known = [0] * len(table)  # bit k of known[c]: E(k, c) holds
        for c, (p, k, _) in self.par.items():
            known[c] |= 1 << k
            known[p] |= 1 << k
        events = []
        for c, entries in enumerate(table):
            movers = 0
            for k, (case, c2) in enumerate(entries):
                if case in (2, 3) and table[c2][k] == (5 - case, c):
                    movers |= 1 << k
                elif case != 1 or c2 != c:
                    raise SolverInvariantError(
                        f'generator position {k} neither fixes column {c} nor moves it '
                        f'in a 2-cycle', self.pair, (k, c, (case, c2)))
            for l, (case, c2) in enumerate(entries):
                bit = 1 << l
                if case == 3 or known[c] & bit:  # a partner end, or a tree edge
                    continue
                # no square is tried for a loop at the root
                squares = movers & commuting[l] & known[c] if c or case == 2 else 0
                while squares:  # each k that moves c and commutes with l
                    low = squares & -squares
                    p = entries[low.bit_length() - 1][1]
                    if known[p] & bit and known[table[p][l][1]] & low:
                        break
                    squares ^= low
                else:
                    events.append((l, c, c2, case))
                known[c] |= bit
                known[c2] |= bit
        return events

    def _schedule(self, events: list[tuple]) -> tuple[list, list]:
        """(steps, rest): per column c that a check reads, or a tree ancestor
        of one, in breadth-first order, c, the positions of the events due
        once c exists, and the columns used for the last time there; rest,
        the other columns in breadth-first order."""
        at = {c: t for t, c in enumerate(self.order)}
        read = [False] * len(self.order)
        read[0] = True
        for _, c, c2, _ in events:
            read[at[c]] = read[at[c2]] = True
        for t in range(len(self.order) - 1, 0, -1):
            if read[t]:
                read[at[self.par[self.order[t]][0]]] = True
        due = [[] for _ in self.order]
        last = list(range(len(self.order)))
        for c, (p, _, _) in self.par.items():
            if read[at[c]]:
                last[at[p]] = max(last[at[p]], at[c])
        for pos, (_, c, c2, _) in enumerate(events):
            t = max(at[c], at[c2])
            due[t].append(pos)
            for v in (c, c2):
                last[at[v]] = max(last[at[v]], t)
        done = [[] for _ in self.order]
        for t, c in enumerate(self.order):
            if read[t]:
                done[last[t]].append(c)
        steps = [(c, due[t], done[t]) for t, c in enumerate(self.order) if read[t]]
        return steps, [c for t, c in enumerate(self.order) if not read[t]]


class _RowState:
    """The set-up of pair solves that reads one row table alone, filled on
    first use and shared by every column table: the commuting positions
    (see _commuting), the 2-cycles and loop end gathers per generator
    position, the root-loop classes per root-loop generators (all q), and
    the two dense maps per (a, b, position)."""

    def __init__(self, table_p):
        self.table_p = table_p
        self.commuting = _commuting(table_p)
        self.cycles, self.ends, self.classes, self.maps = {}, {}, {}, {}


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
        # the events and their schedule, per positions commuting on both tables
        self.events, self.steps, self.rest = plan.schedule(
            tuple(map(and_, plan.commuting, rows.commuting)))
        self._checks_at = None  # see _checks
        for k in plan.moving:
            self._cycles(k)
        # the checks run at q = a/b in lowest terms, b > 0; over Q(q) (qf is
        # coeff.Q) at a = 2^K and b = 1, K proved in _pack_roots
        self.over_q, self.K = isinstance(qf, Fraction), plan.K
        self.a, self.b = (qf.numerator, qf.denominator) if self.over_q else (1 << self.K, 1)

    def _cycles(self, i: int) -> list[tuple[int, int]]:
        """The 2-cycles (rl, t) of generator position i on the row component,
        rl in case 2 and t in case 3, built on first use and kept.

        Every row must be fixed (case 1, its target itself) or have a
        partner that the generator sends back to it in the other moving
        case: the loops' equalities and the quadratic relation that drops
        an event's partner rest on this shape (see the module docstring).
        """
        if i in self.rows.cycles:
            return self.rows.cycles[i]
        column = [entries[i] for entries in self.table_p]
        for rl, (case, t) in enumerate(column):
            if not (t == rl if case == 1 else case in (2, 3) and column[t] == (5 - case, rl)):
                raise SolverInvariantError(
                    f'generator position {i} neither fixes row {rl} nor moves it '
                    f'in a 2-cycle', self.pair, (i, rl, (case, t)))
        self.rows.cycles[i] = [(rl, t) for rl, (case, t) in enumerate(column) if case == 2]
        return self.rows.cycles[i]

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

    # -- packed propagation and raw verification on integers ---------------

    def _checks(self) -> tuple[int, list[tuple], list[tuple]]:
        """The raw checks at the integer point q = a/b as (reach, steps,
        rest), built on first use and kept.

        Field k of column c is x_c s_c, with s_c = a^ea b^eb (see
        _ColumnPlan).  An event other than a loop, (i, c, c2, 2), states
        N u_c s_c2 = b s_c u_c2, N the map b A_i; dividing out the common
        part of the two monomials, a^ea b^eb for (ea, eb) the event's key,
        leaves ml N u_c = mr u_c2 with coprime multipliers ml and mr, None
        where they are one.  The dense maps (_dense), b A_i for case 2 and
        b A_i - (a - b) for case 3, are built once per row table and q.
        reach bounds the growth of every column, including those no check
        reads, and of every event side (see _width).  A loop (case 1) is
        the check (pos, None, c, c, ends_rl, ends_t), ends the gathers of
        the two ends of the 2-cycles of T_i, compared as u_c[rl] == u_c[t]
        (see the module docstring), and none when T_i moves no row; it
        needs no map and no multipliers and leaves reach as it is.  The
        steps are the schedule's, per column c its tree edge (parent, map),
        None at the root, its checks and the columns done there; rest
        holds (c, tree edge) for the columns the steps skip.
        """
        if self._checks_at is not None:
            return self._checks_at
        a, b = self.a, self.b
        maps, ends = self.rows.maps, self.rows.ends

        def image(i: int, case: int) -> tuple:
            if (a, b, i) not in maps:
                coimage = _coimage(self.table_p, i, a, b)
                maps[a, b, i] = _dense(coimage), _dense(_shifted(coimage, a - b))
            return maps[a, b, i][case == 3]

        edges, gain = {}, [1] * len(self.table)
        for c in self.order[1:]:
            p, i, case = self.par[c]
            edges[c] = p, image(i, case)
            gain[c] = gain[p] * edges[c][1][3]
        reach, multipliers, steps = max(gain), {}, []
        for c, due, done in self.steps:
            checks = []
            for pos in due:
                i, c1, c2, case = self.events[pos]
                if case == 1:
                    if i not in ends:
                        cycles = self._cycles(i)
                        ends[i] = cycles and tuple(itemgetter(*side) for side in zip(*cycles))
                    if ends[i]:
                        checks.append((pos, None, c1, c1, *ends[i]))
                    continue
                # s_c2 / (b s_c) = a^ea b^eb
                key = ea, eb = (self.exps[c2][0] - self.exps[c1][0],
                                self.exps[c2][1] - self.exps[c1][1] - 1)
                if key not in multipliers:
                    multipliers[key] = (a ** max(ea, 0) * b ** max(eb, 0),
                                        a ** max(-ea, 0) * b ** max(-eb, 0))
                ml, mr = multipliers[key]
                op = image(i, case)
                reach = max(reach, gain[c1] * op[3] * abs(ml), gain[c2] * abs(mr))
                checks.append((pos, op, c1, c2, None if ml == 1 else ml, None if mr == 1 else mr))
            steps.append((c, edges.get(c), checks, done))
        self._checks_at = out = reach, steps, [(c, edges[c]) for c in self.rest]
        return out

    def _pack_roots(self, classes: list[int]) -> tuple:
        """The 0/1 roots of a partition of the rows as one pack (root, W, d),
        checked at the integer point q = a/b: classes[rl] is the class of
        row rl, numbered from 0 to d - 1, and root k is 1 on class k and 0
        elsewhere, so entry rl of the packed root, a dense list of ints, is
        the one field 2^(W classes[rl]).  Over Q(q) the same roots are
        checked at q = 2^K, so a = 2^K and b = 1.

        Proof that K suffices.  Taking q to 2^K is a ring map Z[q] -> Z, so
        every integer column and event side is the value at 2^K of the
        polynomial that the same steps give over Z[q] with a = q and b = 1.
        There each row of the maps b A_i and b A_i - (a - b) has one entry q
        or 1 and at most one more, q - 1 or 1 - q, so its coefficient
        1-norms sum to at most 3, and a map grows the largest |coefficient|
        at most 3-fold; the multipliers ml and mr are powers of q, which
        leave the coefficients as they are.  The roots are 0/1, so with h
        the tree height (the largest ea + eb) every column and event side
        has its coefficients within 3^(h+1) < 2^(K-2), for
        K = bit_length(3^(h+1)) + 2.  Two polynomials whose coefficients
        are all below 2^(K-1) in size are equal if and only if their values
        at 2^K are, by the argument of _width with the coefficients as
        fields.  So an event holds over Q(q) exactly when it holds at
        q = 2^K, and the balanced base-2^K digits of an entry (_unpack) are
        its coefficients.
        """
        W = _width(self._checks()[0])
        return [1 << (W * k) for k in classes], W, max(classes) + 1

    def _verify(self, pack: tuple, keep: bool = False, limit: int | None = 1) -> tuple[list[int], list]:
        """Propagate a pack from its root column and check every event on it.

        A tree edge maps x_p to A x_p (case 2) or (A - (q - 1)) x_p / q
        (case 3); with q = a/b that is u_c = the integer image of u_p, its
        factor (b on case 2, a on case 3) going into s_c.  Only the columns
        that a check reads, and their tree ancestors, are propagated; each
        check of _checks runs as soon as its columns exist, and a column is
        dropped after its last use unless keep, which propagates the other
        columns too once every check has run.  A loop holds exactly when
        the fields of the two ends of each 2-cycle agree, as a and b are
        nonzero (over Q(q), a = 2^K and b = 1).  A packed event holds if and
        only if it holds for every root of the pack (see _width), over Q(q)
        too (see _pack_roots).

        Returns the positions of the first limit (None: all) events broken,
        in the order checked, and the columns (None where dropped or not
        propagated).
        """
        _, steps, rest = self._checks()
        cols = [None] * len(self.table)
        bad = []
        for c, edge, checks, done in steps:
            cols[c] = pack[0] if edge is None else _apply_dense(edge[1], cols[edge[0]])
            for pos, op, c1, c2, ml, mr in checks:
                if op is None:  # a loop: ml and mr gather the ends of the 2-cycles
                    lhs, rhs = ml(cols[c1]), mr(cols[c1])
                else:
                    lhs, rhs = _apply_dense(op, cols[c1]), cols[c2]
                    if ml is not None:
                        lhs = list(map(mul, repeat(ml), lhs))
                    if mr is not None:
                        rhs = list(map(mul, repeat(mr), rhs))
                if lhs != rhs:
                    bad.append(pos)
                    if len(bad) == limit:
                        return bad, cols
            if not keep:
                for v in done:
                    cols[v] = None
        if keep:
            for c, (p, op) in rest:
                cols[c] = _apply_dense(op, cols[p])
        return bad, cols

    def _basis(self, pack: tuple, cols: list) -> list[dict]:
        """The d basis blocks {(rl, c): x_c[rl]} of a checked pack, field k of
        u_c being x_c s_c.  Over Q(q), s_c = 2^(K ea) stands for q^ea: field
        k is P(2^K) for P = q^ea x_c, whose coefficients are its balanced
        base-2^K digits (see _pack_roots), so x_c[rl] is P shifted down by
        ea, a Laurent polynomial with integer coefficients."""
        _, W, d = pack
        if self.over_q:
            s_of = [self.a ** ea * self.b ** eb for ea, eb in self.exps]
            value = Fraction
        else:
            K = self.K
            s_of = [ea for ea, _ in self.exps]

            def value(v: int, ea: int) -> LaurentPoly:
                return _normal(-ea, _unpack(v, K, v.bit_length() // K + 2), 1)
        blocks = [{} for _ in range(d)]
        for c, (u, s) in enumerate(zip(cols, s_of)):
            for rl, val in enumerate(u):
                if val:
                    for X, v in zip(blocks, _unpack(val, W, d)):
                        if v:
                            X[(rl, c)] = value(v, s)
        return blocks

    def solve(self, with_basis: bool):
        """(dimension, basis blocks) of the pair, the blocks only if
        with_basis: the 0/1 roots of the root-loop classes (_classes),
        certified by verifying on them, in one packed pass, the events:
        the loops and the one raw equation per 2-cycle off the tree that
        no commuting square implies (see the module docstring for why that
        is exact).  An event that breaks raises SolverInvariantError
        naming it."""
        pack = self._pack_roots(self._classes())
        bad, cols = self._verify(pack, keep=with_basis)
        if bad:
            raise SolverInvariantError('the root-loop classes break an equation',
                                       self.pair, self.events[bad[0]])
        return pack[2], self._basis(pack, cols) if with_basis else []


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
    likewise, but its maps are dropped at the end of the call.
    """
    total = 0
    basis = [] if materialize else None
    for x, (table, comps) in enumerate(classes.items()):
        for y, (table_p, comps_p) in enumerate(classes.items()):
            pair = comps[0][0], comps_p[0][0]
            rows[y] = rows[y] or _RowState(table_p)
            # the first row of pairs builds every row state, so rows[x] exists
            # and lends the plan the commuting set of their common table
            plans[x] = plans[x] or _ColumnPlan(table, pair, rows[x].commuting)
            solver = _PairSolver(table, table_p, qf, pair, plans[x], rows[y])
            dim, blocks = solver.solve(with_basis=materialize)
            total += dim * len(comps) * len(comps_p)
            if materialize:
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
    included), so this holds exactly when I is inside B.  Then dim I <=
    dim B, and B is the nullspace of the rows of Y X - X Y over all X, so
    dim B <= width - rank(any subset of those rows).  Hence once the rows
    fed reach rank width - dim I, the sandwich dim I <= dim B <= dim I
    closes and the remaining rows are all dependent: they are not fed
    (see _bicommutant).  When containment fails, or that rank is never
    reached, every row is fed and dim_bicommutant is the true width -
    rank of the whole system.
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
    for cols in act_by_words(all_permutations(n), identity, times_gen).values():
        img.add({rg * N + c0: v for c0, col in cols.items() for rg, v in col.items()})

    basis = [_integral(X)[0] for X in report.basis]
    dim_bicommutant, contained, _ = _bicommutant(reps, list(gens.values()), basis, img.rank)
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
                 dim_image: int) -> tuple[int, bool, int]:
    """(dim_bicommutant, image_contained, rows fed) for the integral
    commutant basis, the components comps and the scaled generators gens
    whose products span an image of dimension dim_image.

    See double_centralizer_check for why the early stop is exact.  The
    elements are fed sparsest first (a stable sort by their number of
    nonzeros), which reaches the full rank after far fewer rows than the
    basis order; each element must lie inside one component pair.
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
                    ech.add(row)
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
