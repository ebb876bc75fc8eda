"""Command line interface.

Subcommands:

    verify     relation, orbit-matching and Young-sum checks at one (n, r)
    dims       centralizer dimension table with Bell-number comparison
    act        image of one basis tensor under one generator
    commutant  brute-force centralizer dimension (and optional basis)
    glq-dims   Gaussian-binomial dimension polynomial of the GL side
    export     JSON dumps of action matrices and hom-basis matrices

Exit codes are stable: 0 all checks pass, 1 a check failed, 2 a resource
limit was exceeded, 64 usage error (bad arguments, or an --out file that
cannot be written), 141 (128 + SIGPIPE) stdout closed before the output
was written.
"""

# Each subcommand imports the modules it runs inside its own function, so
# --help loads none of the mathematics and only commutant loads the
# centralizer.  json and fractions are imported where they are used too.
from __future__ import annotations

import argparse
import os
import re
import sys
from math import comb, factorial

from .limits import DimensionLimitExceeded, _check_limit

__all__ = ['main']

EX_OK = 0
EX_FAIL = 1
EX_LIMIT = 2
EX_USAGE = 64
EX_PIPE = 141

DEFAULT_LIMIT = 4096
# work bounds of dims and glq-dims in the units of _dims_work and
# _glq_work; on a 2-CPU machine with Python 3.11, dims --n 24 --r 12,
# the longest table the dims bound admits (--n 5555 --r 1) and
# glq-dims --n 20 --r 20 take about 0.2 s each
DIMS_LIMIT = 100_000
# work units charged per dims table row (n', r'): its qpartition_dim
# call, Bell number and row dict take about as long as 16 units of the
# hook-pair weight (--n 49999 --r 1 took 1.2 s against 0.15 s for
# --n 24 --r 12, timed as child processes)
DIMS_ROW = 16
GLQ_LIMIT = 4_000_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here says 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f'{self.prog}: error: {message}\n')


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'invalid int value: {text!r}') from None
    if value < 1:
        raise argparse.ArgumentTypeError(f'must be at least 1, got {value}')
    return value


# an exponent of four or more digits, as in 1e9999: Fraction would
# expand it into an integer with that many digits
_HUGE_EXPONENT = re.compile(r'[eE][-+]?0*[1-9][0-9]{3}')


def _rational(text: str) -> Fraction:
    from fractions import Fraction

    if _HUGE_EXPONENT.search(text):
        raise ValueError('exponent too large')
    return Fraction(text)


def _parse_q_list(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(_rational(part) for part in text.split(','))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f'bad q list {text!r}: {exc}') from None
    for q0 in values:
        if not q0:
            raise ValueError('q must specialize to a unit, got 0')
    return values


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(','))
    except ValueError:
        raise ValueError(f'bad {what} {text!r}: expected comma-separated integers') from None


def _parse_index(text: str, n: int, r: int) -> tuple[int, ...]:
    idx = _parse_ints(text, 'index')
    if len(idx) != r:
        raise ValueError(f'index {text!r} has {len(idx)} letters, need r={r}')
    if any(not 1 <= a <= n for a in idx):
        raise ValueError(f'index {text!r} has letters outside 1..{n}')
    return idx


def _parse_composition(text: str, what: str) -> Composition:
    from .symcomb import Composition

    parts = _parse_ints(text, what)
    if any(p < 0 for p in parts):
        raise ValueError(f'{what} {text!r} has negative parts')
    return Composition(parts)


def _json(payload) -> str:
    import json

    return json.dumps(payload, indent=2)


def _emit(ns, text: str) -> None:
    if not ns.out:
        print(text)
        return
    try:
        with open(ns.out, 'w') as fh:
            fh.write(text + '\n')
    except OSError as exc:
        raise ValueError(f'cannot write {ns.out}: {exc.strerror}') from None


# ---------------------------------------------------------------------------
# verify

def _young_sum_checks(n: int) -> tuple[int, list[str]]:
    """T_i x_lambda = q x_lambda and T_i y_lambda = -y_lambda inside blocks."""
    from .coeff import Q, lp
    from .hecke import signed_young_sum, t_w, young_sum
    from .symcomb import Composition, Permutation

    checks = 0
    failures = []
    for k in range(n):
        lam = Composition.hook(n, k)
        x = young_sum(lam)
        y = signed_young_sum(lam)
        for i in range(1, n):
            if lam.block_index(i) != lam.block_index(i + 1):
                continue
            t = t_w(Permutation.simple(n, i))
            checks += 2
            if t * x != x.scale(Q):
                failures.append(f'T_{i} x_{lam.parts} != q x_{lam.parts}')
            if t * y != y.scale(lp(-1, 0)):
                failures.append(f'T_{i} y_{lam.parts} != -y_{lam.parts}')
    return checks, failures


def _associativity_samples(n: int, r: int, seed: int, count: int = 5) -> tuple[int, list[str]]:
    """Seeded spot check that (h h') v = h (h' v) on random inputs."""
    import random

    from .hecke import t_w
    from .symcomb import Permutation
    from .tensoract import TensorVector, apply

    rng = random.Random(seed)
    failures = []
    letters = list(range(1, n + 1))
    for t in range(count):
        images = letters[:]
        rng.shuffle(images)
        w = Permutation(tuple(images))
        images = letters[:]
        rng.shuffle(images)
        v = Permutation(tuple(images))
        j = tuple(rng.choice(letters) for _ in range(r))
        vec = TensorVector.basis_vector(n, r, j)
        two_step = apply(t_w(w), apply(t_w(v), vec))
        one_step = apply(t_w(w) * t_w(v), vec)
        if two_step != one_step:
            failures.append(f'sample {t}: (T_w T_v) e_{j} != T_w (T_v e_{j})')
    return count, failures


def _young_sum_terms(n: int, cap: int) -> int:
    """Terms of the Young sums _young_sum_checks expands: the hook of n
    with k legs sums over S_{n-k}, so 1! + ... + n! terms.  Counting
    stops once past cap, so a huge n costs nothing."""
    terms = term = 1
    for m in range(2, n + 1):
        if terms > cap:
            break
        term *= m
        terms += term
    return terms


def cmd_verify(ns) -> int:
    from .tensoract import orbit_correspondence, set_partitions, verify_relations

    n, r = ns.n, ns.r
    _check_limit(n, r, ns.limit)
    _check_work('verify young sums', _young_sum_terms(n, ns.limit), ns.limit)
    checks = []

    rel = verify_relations(n, r)
    checks.append(('hecke-relations', rel.passed, f'{rel.checks} identities', rel.failures))

    # orbit side: one check per (set partition, generator)
    partitions = list(set_partitions(r, min(n, r)))
    results = [orbit_correspondence(n, r, p, generators=(i,))
               for p in partitions for i in range(1, n)]
    bad = [res for res in results if not res.equivariant]
    detail = f'{len(results)} orbit/generator pairs over {len(partitions)} orbits'
    checks.append((
        'orbit-module-matching', not bad, detail,
        tuple(f'{res.partition}: {f}' for res in bad for f in res.failures)))

    ycount, yfail = _young_sum_checks(n)
    checks.append(('young-sums', not yfail, f'{ycount} eigenvector identities', tuple(yfail)))

    scount, sfail = _associativity_samples(n, r, ns.seed)
    checks.append(('seeded-associativity', not sfail, f'{scount} random samples', tuple(sfail)))

    all_pass = all(ok for _, ok, _, _ in checks)
    if ns.format == 'json':
        _emit(ns, _json({
            'n': n, 'r': r, 'seed': ns.seed, 'passed': all_pass,
            'checks': [
                {'name': name, 'passed': ok, 'detail': detail,
                 'failures': list(fails)}
                for name, ok, detail, fails in checks],
        }))
    else:
        lines = []
        for name, ok, detail, fails in checks:
            lines.append(f'{"PASS" if ok else "FAIL"}  {name}: {detail}')
            lines.extend(f'      {f}' for f in fails)
        lines.append('all checks passed' if all_pass
                     else f'{sum(not ok for _, ok, _, _ in checks)} check(s) failed')
        _emit(ns, '\n'.join(lines))
    return EX_OK if all_pass else EX_FAIL


# ---------------------------------------------------------------------------
# dims

def _dims_work(n: int, r: int) -> int:
    """Work of a dims table up to (n, r): each row n' counts the hook
    pairs (k, l) with k, l <= m = min(n', r) at weight k * l, which
    tracks the cost of their double coset counts: a hook pair has no
    middle rows, so its count is one pass of the singleton-row table
    over the l + 1 columns with at most k states.  That is
    C(m + 1, 2)^2 per row, summed here in closed form, plus DIMS_ROW for
    each of the n r rows of the output table."""
    m = min(n, r)
    return (m * (m + 1) * (m + 2) * (3 * m * m + 6 * m + 1) // 60
            + (n - m) * comb(m + 1, 2) ** 2 + DIMS_ROW * n * r)


def _check_work(what: str, work: int, limit: int) -> None:
    if work > limit:
        raise DimensionLimitExceeded(f'{what} work {work} exceeds limit {limit}')


def cmd_dims(ns) -> int:
    from .qperm import half_qpartition_dim, qpartition_dim
    from .symcomb import bell

    if ns.half and ns.n < 2:
        raise ValueError('need n >= 2 for a restricted subalgebra')
    # each of the n r rows also runs up to r multiplicity transfer steps
    _check_work('dims', _dims_work(ns.n, ns.r) + ns.n * ns.r ** 2, ns.limit)
    rows = []
    # the half variant restricts to S_{n-1}, so it starts at n = 2
    for n in range(2 if ns.half else 1, ns.n + 1):
        for r in range(1, ns.r + 1):
            if ns.half:
                dim = half_qpartition_dim(n, r)
                target = bell(2 * r + 1) if n >= 2 * r + 1 else None
            else:
                dim = qpartition_dim(n, r)
                target = bell(2 * r) if n >= 2 * r else None
            rows.append({
                'n': n, 'r': r, 'dim': dim, 'bell': target,
                'match': None if target is None else dim == target,
            })
    mismatch = any(row['match'] is False for row in rows)

    if ns.format == 'json':
        _emit(ns, _json({'half': ns.half, 'rows': rows}))
    elif ns.format == 'csv':
        lines = ['n,r,dim,bell,match']
        for row in rows:
            target = '' if row['bell'] is None else row['bell']
            match = '' if row['match'] is None else str(row['match']).lower()
            lines.append(f"{row['n']},{row['r']},{row['dim']},{target},{match}")
        _emit(ns, '\n'.join(lines))
    else:
        label = 'bell(2r+1)' if ns.half else 'bell(2r)'
        lines = [f'{"n":>3} {"r":>3} {"dim":>16} {label:>16} match']
        for row in rows:
            target = '-' if row['bell'] is None else row['bell']
            match = '-' if row['match'] is None else ('yes' if row['match'] else 'NO')
            lines.append(f"{row['n']:>3} {row['r']:>3} {row['dim']:>16} {target:>16} {match}")
        _emit(ns, '\n'.join(lines))
    return EX_FAIL if mismatch else EX_OK


# ---------------------------------------------------------------------------
# act

def _term_key(item):
    return item[0]


def cmd_act(ns) -> int:
    from .tensoract import GeneratorOutOfRange, TensorVector, apply_generator

    n, r = ns.n, ns.r
    idx = _parse_index(ns.index, n, r)
    if not 1 <= ns.gen <= n - 1:
        raise GeneratorOutOfRange(f'T_{ns.gen} does not act for n={n}')
    image = apply_generator(ns.gen, TensorVector.basis_vector(n, r, idx))
    terms = sorted(image.terms, key=_term_key)
    if ns.format == 'json':
        _emit(ns, _json({
            'n': n, 'r': r, 'generator': ns.gen, 'index': list(idx),
            'terms': [
                {'index': list(j), 'coeff': c.to_json()} for j, c in terms],
        }))
    else:
        body = ' + '.join(f'({c}) e({",".join(map(str, j))})' for j, c in terms)
        _emit(ns, body if body else '0')
    return EX_OK


# ---------------------------------------------------------------------------
# commutant

def _q_fraction(p: LaurentPoly) -> str:
    """p as the element of Q(q) it is: its terms from the highest down,
    over q^k for k the order of its pole at 0, as in '(-q + 1)/q'."""
    from .coeff import _terms_str

    k = max(0, -p.min_exponent())
    top = _terms_str([(e + k, c) for e, c in reversed(p.terms)])
    if not k:
        return top
    return (f'({top})' if ' ' in top else top) + ('/q' if k == 1 else f'/q^{k}')


def _basis_json(basis) -> list:
    from .coeff import LaurentPoly

    def text(val) -> str:
        return _q_fraction(val) if isinstance(val, LaurentPoly) else str(val)

    out = []
    for mat in basis:
        out.append([[row, col, text(val)] for (row, col), val in sorted(mat.items())])
    return out


def cmd_commutant(ns) -> int:
    from .centralizer import DEFAULT_Q_VALUES, commutant_basis, half_commutant_basis
    from .qperm import half_qpartition_dim, qpartition_dim

    q_values = _parse_q_list(ns.q) if ns.q is not None else DEFAULT_Q_VALUES
    compute = half_commutant_basis if ns.half else commutant_basis
    rep = compute(
        ns.n, ns.r, q_values,
        symbolic=ns.symbolic, with_basis=ns.with_basis, limit=ns.limit)
    formula = (half_qpartition_dim if ns.half else qpartition_dim)(ns.n, ns.r)
    ok = rep.agree and rep.dim == formula

    if ns.format == 'json':
        payload = {
            'n': ns.n, 'r': ns.r, 'mode': rep.mode, 'half': ns.half,
            'dim': rep.dim, 'dims': list(rep.dims),
            'q_values': [str(q0) for q0 in rep.q_values],
            'agree': rep.agree, 'components': rep.components,
            'pairs': rep.pairs, 'pair_classes': rep.pair_classes,
            'formula_dim': formula, 'matches_formula': rep.dim == formula,
        }
        if rep.basis is not None:
            payload['basis'] = _basis_json(rep.basis)
        _emit(ns, _json(payload))
    else:
        qs = ','.join(str(q0) for q0 in rep.q_values) or 'symbolic'
        lines = [
            f'n={ns.n} r={ns.r} mode={rep.mode} half={"yes" if ns.half else "no"}',
            f'dim={rep.dim} q={qs} agree={"yes" if rep.agree else "NO"}',
            f'formula={formula} match={"yes" if rep.dim == formula else "NO"} '
            f'components={rep.components}',
            f'pairs={rep.pairs} pair_classes={rep.pair_classes}',
        ]
        if rep.basis is not None:
            lines.append(f'basis: {len(rep.basis)} sparse matrices (use --format json)')
        _emit(ns, '\n'.join(lines))
    return EX_OK if ok else EX_FAIL


# ---------------------------------------------------------------------------
# glq-dims

def _glq_work(n: int, r: int) -> int:
    """Work of tq_dimension(n, r): min(n, r) hooks, each a product of up
    to min(n, r) q-integers into a polynomial of degree up to n min(n, r),
    each weighted by a Stirling number s(r, k) of about r log k bits."""
    m = min(n, r)
    return n ** 2 * m ** 3 + r ** 2 * m


def cmd_glq_dims(ns) -> int:
    from .coeff import ZeroSpecialization
    from .glq import tq_dimension

    _check_work('glq-dims', _glq_work(ns.n, ns.r), ns.limit)
    poly = tq_dimension(ns.n, ns.r)
    try:
        at = _rational(ns.at) if ns.at is not None else None
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f'bad --at value {ns.at!r}: {exc}') from None
    if at is not None and not at:
        raise ZeroSpecialization('q must specialize to a unit, got 0')
    value = poly.evaluate(at) if at is not None else None
    if ns.format == 'json':
        payload = {'n': ns.n, 'r': ns.r, 'polynomial': poly.to_json()}
        if at is not None:
            payload['at'] = str(at)
            payload['value'] = str(value)
        _emit(ns, _json(payload))
    else:
        text = f'dim t_q({ns.n},{ns.r}) = {poly}'
        if at is not None:
            text += f'\nat q={at}: {value}'
        _emit(ns, text)
    return EX_OK


# ---------------------------------------------------------------------------
# export

def _action_payload(n: int, r: int, gen: int) -> dict:
    from .tensoract import all_indices, generator_matrix

    cols = generator_matrix(n, r, gen)
    return {
        'n': n, 'r': r, 'generator': gen,
        'columns': [
            {'index': list(j),
             'terms': [{'index': list(j2), 'coeff': c.to_json()}
                       for j2, c in sorted(cols[j].items(), key=_term_key)]}
            for j in all_indices(n, r)],
    }


def _coset_space_size(shape: Composition) -> int:
    size = factorial(shape.n)
    for part in shape.parts:
        size //= factorial(part)
    return size


def _hom_payload(mu: Composition, lam: Composition, d: Permutation) -> dict:
    from .qperm import hom_matrix
    from .symcomb import coset_reps

    mat = hom_matrix(mu, lam, d)
    return {
        'source': list(mu.parts), 'target': list(lam.parts),
        'd': list(d.images),
        'rows': [list(e.images) for e in coset_reps(lam)],
        'cols': [list(e.images) for e in coset_reps(mu)],
        'matrix': [[c.to_json() for c in row] for row in zip(*mat.columns)],
    }


def cmd_export(ns) -> int:
    from .symcomb import NotDistinguished, Permutation, double_coset_reps
    from .tensoract import GeneratorOutOfRange

    if ns.what == 'action':
        if ns.n is None or ns.r is None or ns.gen is None:
            raise ValueError('export --what action needs --n, --r and --gen')
        _check_limit(ns.n, ns.r, ns.limit)
        if not 1 <= ns.gen <= ns.n - 1:
            raise GeneratorOutOfRange(f'T_{ns.gen} does not act for n={ns.n}')
        _emit(ns, _json(_action_payload(ns.n, ns.r, ns.gen)))
        return EX_OK

    if ns.mu is None or ns.lam is None:
        raise ValueError('export --what hom needs --mu and --lam')
    mu = _parse_composition(ns.mu, 'mu')
    lam = _parse_composition(ns.lam, 'lam')
    if mu.n != lam.n:
        raise ValueError(f'mu sums to {mu.n} but lam sums to {lam.n}')
    if mu.n > ns.limit:  # permutations of n letters are built even for one coset
        raise DimensionLimitExceeded(f'n = {mu.n} exceeds limit {ns.limit}')
    for shape in (mu, lam):
        if _coset_space_size(shape) > ns.limit:
            raise DimensionLimitExceeded(
                f'coset space of {shape.parts} exceeds limit {ns.limit}')
    if ns.d is not None:
        d = Permutation(_parse_ints(ns.d, 'd'))
        if d not in double_coset_reps(mu, lam):
            raise NotDistinguished(f'{d.images} is not distinguished for (mu, lam)')
        _emit(ns, _json(_hom_payload(mu, lam, d)))
    else:
        _emit(ns, _json({
            'maps': [_hom_payload(mu, lam, d) for d in double_coset_reps(mu, lam)],
        }))
    return EX_OK


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, *, need_r=True) -> None:
    sub.add_argument('--n', type=_positive_int, required=True, help='number of letters')
    if need_r:
        sub.add_argument('--r', type=_positive_int, required=True, help='tensor exponent')
    sub.add_argument('--out', help='write output to this file instead of stdout')


def build_parser() -> _Parser:
    parser = _Parser(prog='qpartition', description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest='command', required=True, parser_class=_Parser)

    sub = subs.add_parser('verify', help='run the relation and matching checks')
    _add_common(sub)
    sub.add_argument('--limit', type=_positive_int, default=DEFAULT_LIMIT)
    sub.add_argument('--seed', type=int, default=0)
    sub.add_argument('--format', choices=('text', 'json'), default='text')
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser('dims', help='centralizer dimension table')
    _add_common(sub)
    sub.add_argument('--half', action='store_true',
                     help='half-integer variant (restrict the last generator)')
    sub.add_argument('--limit', type=_positive_int, default=DIMS_LIMIT,
                     help='work bound: sum over rows of the k*l weighted hook pairs, plus n r^2')
    sub.add_argument('--format', choices=('text', 'json', 'csv'), default='text')
    sub.set_defaults(func=cmd_dims)

    sub = subs.add_parser('act', help='apply one generator to one basis tensor')
    _add_common(sub)
    sub.add_argument('--gen', type=int, required=True, help='generator subscript i of T_i')
    sub.add_argument('--index', required=True, help='comma-separated letters, e.g. 2,1,1')
    sub.add_argument('--format', choices=('text', 'json'), default='text')
    sub.set_defaults(func=cmd_act)

    sub = subs.add_parser('commutant', help='brute-force centralizer dimension')
    _add_common(sub)
    field = sub.add_mutually_exclusive_group()
    field.add_argument('--q', help='comma-separated nonzero rationals, e.g. 7/5,3')
    field.add_argument('--symbolic', action='store_true', help='work over Q(q) directly')
    sub.add_argument('--half', action='store_true')
    sub.add_argument('--with-basis', action='store_true', dest='with_basis')
    sub.add_argument('--limit', type=_positive_int, default=DEFAULT_LIMIT)
    sub.add_argument('--format', choices=('text', 'json'), default='text')
    sub.set_defaults(func=cmd_commutant)

    sub = subs.add_parser('glq-dims', help='Gaussian dimension polynomial')
    _add_common(sub)
    sub.add_argument('--at', help='evaluate the polynomial at this rational')
    sub.add_argument('--limit', type=_positive_int, default=GLQ_LIMIT,
                     help='work bound: n^2 min(n, r)^3 + r^2 min(n, r)')
    sub.add_argument('--format', choices=('text', 'json'), default='text')
    sub.set_defaults(func=cmd_glq_dims)

    sub = subs.add_parser('export', help='JSON dumps of matrices')
    sub.add_argument('--n', type=_positive_int, help='number of letters (action export)')
    sub.add_argument('--r', type=_positive_int, help='tensor exponent (action export)')
    sub.add_argument('--out', help='write output to this file instead of stdout')
    sub.add_argument('--what', choices=('action', 'hom'), required=True)
    sub.add_argument('--gen', type=int, help='generator for --what action')
    sub.add_argument('--mu', help='source composition for --what hom, e.g. 2,1,1')
    sub.add_argument('--lam', help='target composition for --what hom')
    sub.add_argument('--d', help='one-line double coset representative')
    sub.add_argument('--limit', type=_positive_int, default=DEFAULT_LIMIT)
    sub.set_defaults(func=cmd_export)

    return parser


# a value that starts with '-' and a digit or '.', such as -3/2 or -1,2:
# argparse takes it for an option flag unless it is a plain decimal
_NEGATIVE_VALUE = re.compile(r'-[0-9.]')


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each '--q X' or '--at X' whose X is a negative value
    joined into '--q=X' or '--at=X', which argparse reads as the value;
    '--a', the abbreviation of '--at' that argparse accepts, is joined
    alike."""
    out = []
    for arg in argv:
        if out and out[-1] in ('--q', '--a', '--at') and _NEGATIVE_VALUE.match(arg):
            out[-1] += '=' + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PIPE
    except DimensionLimitExceeded as exc:
        print(f'qpartition: resource limit: {exc}', file=sys.stderr)
        return EX_LIMIT
    except (MemoryError, OverflowError) as exc:  # a --limit too large to protect
        print(f'qpartition: resource limit: {type(exc).__name__}: {exc}', file=sys.stderr)
        return EX_LIMIT
    # the library's usage errors (GeneratorOutOfRange, NotDistinguished,
    # ZeroSpecialization, ...) are ValueErrors, so none of it is loaded here
    except ValueError as exc:
        print(f'qpartition: error: {exc}', file=sys.stderr)
        return EX_USAGE


if __name__ == '__main__':
    sys.exit(main())
