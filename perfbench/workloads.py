"""The benchmark's workloads: seeded inputs, operations and their reference checks.

Each workload function takes a ``random.Random`` seeded from ``--seed``
and returns ``(warm_up, ops)``.  ``warm_up`` touches the same code on
inputs the timed operations never use, so no ``functools.cache`` entry
of a timed input is filled before it is timed.  Each op is
``(label, fn)``; ``fn(tracer)`` makes the library calls through the
tracer and returns True when every result agrees with a reference that
does not share the code path under test.

``smoke`` swaps in tiny sizes so the benchmark's own test runs in
seconds; the timed workloads always use the full sizes.
"""

from __future__ import annotations

import json
import operator
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd, prod

from qpartition import (
    Composition,
    HeckeElement,
    LaurentPoly,
    Permutation,
    Q,
    TensorVector,
    all_permutations,
    apply,
    apply_generator,
    bell,
    commutant_basis,
    coset_reps,
    double_centralizer_check,
    double_coset_reps,
    generator_matrix,
    half_commutant_basis,
    half_qpartition_dim,
    hom_basis,
    orbits,
    qpartition_dim,
    structure_constants,
    t_w,
    tq_dimension,
    verify_relations,
    young_sum,
)
from qpartition import linalg
from qpartition.symcomb import count_double_cosets
from qpartition.tensoract import all_indices

# q = a/b with 2 <= a <= 9, 1 <= b <= 9, gcd 1, a != b: never 0 or +-1,
# and q = -1 is the one value where H(S_n) is not generic.
Q_FAMILY = tuple(Fraction(a, b) for a in range(2, 10) for b in range(1, 10)
                 if a != b and gcd(a, b) == 1)

CLI_TIMEOUT_S = 120


def _rand_frac(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _rand_poly(rng, terms: int) -> LaurentPoly:
    lo = rng.randint(-4, 0)
    return LaurentPoly({e: _rand_frac(rng) for e in range(lo, lo + terms)})


def _rand_hecke(rng, n: int, terms: int) -> HeckeElement:
    perms = all_permutations(n)
    return HeckeElement.build(n, {
        rng.choice(perms): _rand_poly(rng, 3) for _ in range(terms)})


def _coset_count(shape: Composition) -> int:
    return factorial(shape.n) // prod(factorial(p) for p in shape.parts)


def _planted_system(rng, rows: int, width: int, rank: int, density: float):
    """Sparse rows of B C with B = [I; R1] and C = [I | R2], shuffled.

    B has full column rank and C full row rank, so the rank is exactly
    ``rank`` whatever the random entries are.
    """
    def sparse(count):
        return {c: _rand_frac(rng) for c in range(count) if rng.random() < density}

    b_rows = [{t: Fraction(1)} for t in range(rank)] + [sparse(rank) for _ in range(rows - rank)]
    c_rows = [{t: Fraction(1), **{rank + c: v for c, v in sparse(width - rank).items()}}
              for t in range(rank)]
    col_perm = list(range(width))
    rng.shuffle(col_perm)
    out = []
    for b in b_rows:
        acc: dict[int, Fraction] = {}
        for t, v in b.items():
            for c, w in c_rows[t].items():
                acc[col_perm[c]] = acc.get(col_perm[c], 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    rng.shuffle(out)
    return out


def _partitions_with_at_most(r: int, blocks: int) -> int:
    """Set partitions of r points into at most ``blocks`` blocks, by recurrence."""
    row = [1] + [0] * blocks  # S(0, k)
    for _ in range(r):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, blocks + 1)]
    return sum(row)


def _annihilates(rows, vectors) -> bool:
    return all(sum(v * vec[c] for c, v in row.items()) == 0
               for row in rows for vec in vectors)


# ---------------------------------------------------------------------------
# algebra: every module except centralizer

def algebra(rng, smoke: bool):
    n_cos = 4 if smoke else 7
    n_hom = 3 if smoke else 4
    hom5 = [] if smoke else [(1, 3), (3, 1), (2, 2), (1, 4)]
    tq_max = 3 if smoke else 6
    chains = 2 if smoke else 16
    # Elimination cost depends on the random entries; many small systems
    # keep the seed's effect on the total small.
    shapes = [(6, 8, 4)] if smoke else [(30, 40, 20)] * 16

    x0 = rng.choice(Q_FAMILY)
    poly_chains = [[_rand_poly(rng, 10) for _ in range(8)] for _ in range(chains)]
    # The H(S_4) table is checked through the action on e_(1,2,3,4), whose
    # orbit is the regular module, so the check is faithful.
    perms4 = all_permutations(4)
    regular = TensorVector.basis_vector(4, 4, (1, 2, 3, 4))
    table_coeffs = {w: _rand_poly(rng, 2) for w in perms4}
    combo = HeckeElement.build(4, table_coeffs)
    combo_image = apply(combo, regular)
    hecke_pairs = [(_rand_hecke(rng, 4, 6), _rand_hecke(rng, 4, 6))
                   for _ in range(2 if smoke else 8)]
    systems = [(_planted_system(rng, m, w, k, 0.3), w, k) for m, w, k in shapes]

    def warm_up():
        (LaurentPoly({0: 1, 1: 2}) * LaurentPoly({-1: 3})).evaluate(Fraction(3, 2))
        t_w(Permutation((2, 1, 3))) * t_w(Permutation((1, 3, 2)))
        apply(t_w(Permutation((2, 1))), TensorVector.basis_vector(2, 2, (1, 2)))
        linalg.nullspace([{0: Fraction(1), 1: Fraction(2)}], 2, Fraction(1))

    def chain_op(polys):
        def run(t):
            p = polys[0]
            for x in polys[1:]:
                p = t.call('coeff.mul', operator.mul, p, x)
            want = prod(t.call('coeff.evaluate', x.evaluate, x0) for x in polys)
            return t.call('coeff.evaluate', p.evaluate, x0) == want
        return run

    def coset_op(lam):
        def run(t):
            reps = t.call('symcomb.coset_reps', coset_reps, lam)
            return len(reps) == len(set(reps)) == _coset_count(lam)
        return run

    def double_coset_op(mu, lam):
        def run(t):
            reps = t.call('symcomb.double_coset_reps', double_coset_reps, mu, lam)
            return len(reps) == t.call('symcomb.count_double_cosets', count_double_cosets, mu, lam)
        return run

    def table_row_op(a):
        def run(t):
            row = HeckeElement.zero(4)
            for b in perms4:
                row = row + t.call('hecke.mul', operator.mul, t_w(a), t_w(b)).scale(table_coeffs[b])
            return (t.call('tensoract.apply', apply, row, regular)
                    == t.call('tensoract.apply', apply, t_w(a), combo_image))
        return run

    def hecke_op(h1, h2):
        def run(t):
            h = t.call('hecke.mul', operator.mul, h1, h2)
            return (t.call('tensoract.apply', apply, h, regular)
                    == t.call('tensoract.apply', apply, h1, t.call('tensoract.apply', apply, h2, regular)))
        return run

    def young_op(lam):
        def run(t):
            x = t.call('hecke.young_sum', young_sum, lam)
            gens = [i for i in range(1, lam.n) if lam.block_index(i) == lam.block_index(i + 1)]
            return all(t.call('hecke.mul', operator.mul, t_w(Permutation.simple(lam.n, i)), x)
                       == x.scale(Q) for i in gens)
        return run

    def relations_op(n, r):
        return lambda t: t.call('tensoract.verify_relations', verify_relations, n, r).passed

    def orbits_op(n, r):
        def run(t):
            orbs = t.call('tensoract.orbits', orbits, n, r)
            want = _partitions_with_at_most(r, min(n, r))
            return len(orbs) == want and sum(len(o) for o in orbs) == n ** r
        return run

    def hom_op(mu, lam):
        def run(t):
            maps = t.call('qperm.hom_basis', hom_basis, mu, lam)
            t.count('qperm.hom_basis.maps', len(maps))
            return len(maps) == t.call('symcomb.count_double_cosets', count_double_cosets, mu, lam)
        return run

    def tq_op(n, r):
        def run(t):
            poly = t.call('glq.tq_dimension', tq_dimension, n, r)
            return t.call('coeff.evaluate', poly.evaluate, Fraction(1)) == n ** r
        return run

    def rank_op(rows, width, rank):
        return lambda t: t.call('linalg.rank', linalg.rank, rows, width, Fraction(1)) == rank

    def nullspace_op(rows, width, rank):
        def run(t):
            basis = t.call('linalg.nullspace', linalg.nullspace, rows, width, Fraction(1))
            return len(basis) == width - rank and _annihilates(rows, basis)
        return run

    hook = Composition.hook
    ops = [(f'laurent-chain-{i}', chain_op(c)) for i, c in enumerate(poly_chains)]
    ops += [(f'coset_reps-{k}', coset_op(hook(n_cos, k))) for k in range(n_cos + 1)]
    ops += [(f'double_cosets-{k}-{l}', double_coset_op(hook(n_cos, k), hook(n_cos, l)))
            for k in range(n_cos + 1) for l in range(n_cos + 1)]
    ops += [(f'hecke-table-row-{a.images}', table_row_op(a)) for a in perms4]
    ops += [(f'hecke-product-{i}', hecke_op(*p)) for i, p in enumerate(hecke_pairs)]
    ops += [(f'young_sum-{k}', young_op(hook(5, k))) for k in range(6)]
    ops += [(f'verify_relations-{n}-{r}', relations_op(n, r))
            for n, r in ([(3, 2)] if smoke else [(4, 4), (5, 3)])]
    ops += [('orbits-3-3', orbits_op(3, 3))] if smoke else [('orbits-6-6', orbits_op(6, 6))]
    ops += [(f'hom_basis-{n_hom}-{k}-{l}', hom_op(hook(n_hom, k), hook(n_hom, l)))
            for k in range(n_hom + 1) for l in range(n_hom + 1)]
    ops += [(f'hom_basis-5-{k}-{l}', hom_op(hook(5, k), hook(5, l))) for k, l in hom5]
    ops += [(f'tq_dimension-{n}-{r}', tq_op(n, r))
            for n in range(1, tq_max + 1) for r in range(1, tq_max + 1)]
    for i, system in enumerate(systems):
        ops.append((f'rank-{i}', rank_op(*system)))
        ops.append((f'nullspace-{i}', nullspace_op(*system)))
    return warm_up, ops


# ---------------------------------------------------------------------------
# commutant workloads

def _commutant_op(n, r, q):
    def run(t):
        rep = t.call('centralizer.commutant_basis', commutant_basis, n, r, (q,))
        t.count('centralizer.components', rep.components)
        t.count('centralizer.pairs', rep.components ** 2)
        return rep.dim == t.call('qperm.qpartition_dim', qpartition_dim, n, r)
    return run


def _commutant_warm_up(q):
    return lambda: commutant_basis(2, 2, (q,))


def commutant_one_orbit(rng, smoke: bool):
    q = rng.choice(Q_FAMILY)
    cells = [(4, 2)] if smoke else [(10, 2), (12, 2), (5, 3)]
    return _commutant_warm_up(q), [(f'commutant-{n}-{r}', _commutant_op(n, r, q)) for n, r in cells]


def commutant_many_orbits(rng, smoke: bool):
    q = rng.choice(Q_FAMILY)
    cells = [(2, 3), (3, 2)] if smoke else [(3, 4), (4, 3), (3, 5), (2, 7), (2, 8)]
    half, dcc, sc = ((3, 2), [(3, 2)], (3, 2)) if smoke else ((5, 2), [(3, 3), (4, 2)], (4, 2))

    def half_op(t):
        rep = t.call('centralizer.half_commutant_basis', half_commutant_basis, *half, (q,))
        return rep.dim == t.call('qperm.half_qpartition_dim', half_qpartition_dim, *half)

    def dcc_op(n, r):
        return lambda t: t.call('centralizer.double_centralizer_check',
                                double_centralizer_check, n, r, q).holds

    def sc_op(t):
        table = t.call('centralizer.structure_constants', structure_constants, *sc, q)
        return table.closed and table.dim == t.call('qperm.qpartition_dim', qpartition_dim, *sc)

    ops = [(f'commutant-{n}-{r}', _commutant_op(n, r, q)) for n, r in cells]
    ops.append((f'half_commutant-{half[0]}-{half[1]}', half_op))
    ops += [(f'double_centralizer-{n}-{r}', dcc_op(n, r)) for n, r in dcc]
    ops.append((f'structure_constants-{sc[0]}-{sc[1]}', sc_op))
    return _commutant_warm_up(q), ops


# ---------------------------------------------------------------------------
# cli: every subcommand as a child process, one at a time

def _specialise(poly_cols, q, index_of):
    """Sparse {(row, col): value} of a generator matrix at q."""
    out = {(index_of[j2], index_of[j]): c.evaluate(q)
           for j, col in poly_cols.items() for j2, c in col.items()}
    return {k: v for k, v in out.items() if v}


def _matmul(a, b):
    by_row: dict[int, list] = {}
    for (m, c), v in b.items():
        by_row.setdefault(m, []).append((c, v))
    out: dict[tuple[int, int], Fraction] = {}
    for (r, m), v in a.items():
        for c, w in by_row.get(m, ()):
            out[(r, c)] = out.get((r, c), 0) + v * w
    return {k: v for k, v in out.items() if v}


def _commutes_with_action(n, r, q, basis) -> bool:
    index_of = {j: t for t, j in enumerate(all_indices(n, r))}
    gens = [_specialise(generator_matrix(n, r, i), q, index_of) for i in range(1, n)]
    for mat in basis:
        x = {(row, col): Fraction(val) for row, col, val in mat}
        if any(_matmul(a, x) != _matmul(x, a) for a in gens):
            return False
    return True


def cli(rng, smoke: bool):
    q = rng.choice(Q_FAMILY)
    vseed = rng.randrange(2 ** 31)
    act_n, act_r = (3, 2) if smoke else (4, 4)
    act_gen = rng.randint(1, act_n - 1)
    act_index = tuple(rng.randint(1, act_n) for _ in range(act_r))
    export_gen = rng.randint(1, 2)
    # Fixed, unlike the seeded inputs: the hom pair sets the output size.
    mu, lam = Composition((2, 2)), Composition((3, 1))
    verify_nr = (3, 2) if smoke else (4, 4)
    comm_nr = (2, 3) if smoke else (3, 4)
    sym_nr = (2, 2) if smoke else (3, 3)
    half_nr = (3, 2) if smoke else (5, 2)
    dims_nr = (4, 2) if smoke else (16, 8)
    glq_nr = (3, 3) if smoke else (6, 6)
    dims_sample = [(rng.randint(1, dims_nr[0]), rng.randint(1, dims_nr[1])) for _ in range(4)]
    qs = str(q)

    def run_cli(t, name, *args):
        proc = t.call(name, subprocess.run,
                      [sys.executable, '-m', 'qpartition.cli', *map(str, args)],
                      capture_output=True, timeout=CLI_TIMEOUT_S)
        t.count('cli.output_bytes', len(proc.stdout))
        return proc.returncode, proc.stdout.decode()

    def json_of(code, out):
        if code != 0:
            raise RuntimeError(f'exit code {code}')
        return json.loads(out)

    def warm_up():
        subprocess.run([sys.executable, '-m', 'qpartition.cli', '--help'],
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)

    def startup(t):
        code, out = run_cli(t, 'cli.startup', '--help')
        return code == 0 and 'commutant' in out

    def verify(t):
        data = json_of(*run_cli(t, 'cli.verify', 'verify', '--n', verify_nr[0], '--r', verify_nr[1],
                                '--seed', vseed, '--format', 'json'))
        names = [c['name'] for c in data['checks']]
        return (data['passed'] and data['seed'] == vseed and all(c['passed'] for c in data['checks'])
                and names == ['hecke-relations', 'orbit-module-matching', 'young-sums',
                              'seeded-associativity'])

    def commutant(t):
        n, r = comm_nr
        data = json_of(*run_cli(t, 'cli.commutant', 'commutant', '--n', n, '--r', r,
                                '--q', qs, '--format', 'json'))
        return (data['q_values'] == [qs]
                and data['dim'] == t.call('qperm.qpartition_dim', qpartition_dim, n, r))

    def symbolic(t):
        n, r = sym_nr
        data = json_of(*run_cli(t, 'cli.commutant_symbolic', 'commutant', '--n', n, '--r', r,
                                '--symbolic', '--format', 'json'))
        return (data['mode'] == 'symbolic'
                and data['dim'] == t.call('qperm.qpartition_dim', qpartition_dim, n, r))

    def basis_json(t):
        n, r = sym_nr
        data = json_of(*run_cli(t, 'cli.commutant_basis_json', 'commutant', '--n', n, '--r', r,
                                '--with-basis', '--q', qs, '--format', 'json'))
        dim = t.call('qperm.qpartition_dim', qpartition_dim, n, r)
        return (data['dim'] == len(data['basis']) == dim
                and _commutes_with_action(n, r, q, data['basis']))

    def half(t):
        n, r = half_nr
        data = json_of(*run_cli(t, 'cli.commutant_half', 'commutant', '--n', n, '--r', r,
                                '--half', '--q', qs, '--format', 'json'))
        return data['dim'] == t.call('qperm.half_qpartition_dim', half_qpartition_dim, n, r)

    def dims(t):
        n_max, r_max = dims_nr
        data = json_of(*run_cli(t, 'cli.dims', 'dims', '--n', n_max, '--r', r_max, '--format', 'json'))
        rows = {(row['n'], row['r']): row for row in data['rows']}
        return (len(rows) == n_max * r_max
                and all(row['dim'] == bell(2 * r) for (n, r), row in rows.items() if n >= 2 * r)
                and all(row['match'] is not False for row in rows.values())
                and all(rows[nr]['dim'] == t.call('qperm.qpartition_dim', qpartition_dim, *nr)
                        for nr in dims_sample))

    def glq_dims(t):
        n, r = glq_nr
        data = json_of(*run_cli(t, 'cli.glq_dims', 'glq-dims', '--n', n, '--r', r,
                                '--at', 1, '--format', 'json'))
        return (data['value'] == str(n ** r)
                and data['polynomial'] == t.call('glq.tq_dimension', tq_dimension, n, r).to_json())

    def act(t):
        n, r = act_n, act_r
        data = json_of(*run_cli(t, 'cli.act', 'act', '--n', n, '--r', r, '--gen', act_gen,
                                '--index', ','.join(map(str, act_index)), '--format', 'json'))
        image = t.call('tensoract.apply_generator', apply_generator, act_gen,
                       TensorVector.basis_vector(n, r, act_index))
        want = sorted([list(j), c.to_json()] for j, c in image.terms)
        return sorted([term['index'], term['coeff']] for term in data['terms']) == want

    def export(t):
        action = json_of(*run_cli(t, 'cli.export', 'export', '--what', 'action', '--n', 3, '--r', 2,
                                  '--gen', export_gen))
        cols = generator_matrix(3, 2, export_gen)
        action_ok = all(
            sorted([term['index'], term['coeff']] for term in col['terms'])
            == sorted([list(j2), c.to_json()] for j2, c in cols[tuple(col['index'])].items())
            for col in action['columns']) and len(action['columns']) == len(cols)
        hom = json_of(*run_cli(t, 'cli.export', 'export', '--what', 'hom',
                               '--mu', ','.join(map(str, mu.parts)),
                               '--lam', ','.join(map(str, lam.parts))))
        shapes_ok = all(len(m['rows']) == _coset_count(lam) and len(m['cols']) == _coset_count(mu)
                        for m in hom['maps'])
        return (action_ok and shapes_ok
                and len(hom['maps']) == t.call('symcomb.count_double_cosets', count_double_cosets, mu, lam))

    ops = [('cli-startup', startup), ('cli-verify', verify), ('cli-commutant', commutant),
           ('cli-commutant-symbolic', symbolic), ('cli-commutant-basis-json', basis_json),
           ('cli-commutant-half', half), ('cli-dims', dims), ('cli-glq-dims', glq_dims),
           ('cli-act', act), ('cli-export', export)]
    return warm_up, ops


WORKLOADS = {
    'algebra': algebra,
    'commutant-one-orbit': commutant_one_orbit,
    'commutant-many-orbits': commutant_many_orbits,
    'cli': cli,
}
