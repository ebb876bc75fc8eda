"""The command line surface: exit codes, output schemas, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qpartition.centralizer import commutant_basis
from qpartition.cli import (DIMS_ROW, EX_FAIL, EX_LIMIT, EX_OK, EX_PIPE, EX_USAGE, GLQ_LIMIT,
                            _dims_work, _glq_work, _q_fraction, main)
from qpartition.coeff import LaurentPoly
from qpartition.qperm import qpartition_dim
from test_rational_function import Ref


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EX_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes

def test_verify_passes(capsys):
    code, out, _ = run(capsys, 'verify', '--n', '3', '--r', '2')
    assert code == EX_OK
    assert 'all checks passed' in out
    assert out.count('PASS') == 4


def test_verify_vacuous_case(capsys):
    code, out, _ = run(capsys, 'verify', '--n', '1', '--r', '1')
    assert code == EX_OK


def test_verify_limit(capsys):
    code, _, err = run(capsys, 'verify', '--n', '20', '--r', '10')
    assert code == EX_LIMIT
    assert 'limit' in err


def test_verify_limit_override(capsys):
    code, _, _ = run(capsys, 'verify', '--n', '2', '--r', '2', '--limit', '3')
    assert code == EX_LIMIT
    code, _, _ = run(capsys, 'verify', '--n', '2', '--r', '2', '--limit', '4')
    assert code == EX_OK


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(['verify', '--n', '3'])  # missing --r
    assert info.value.code == EX_USAGE
    with pytest.raises(SystemExit) as info:
        main(['no-such-command'])
    assert info.value.code == EX_USAGE
    with pytest.raises(SystemExit) as info:
        main(['dims', '--n', '2', '--r', '2', '--format', 'yaml'])
    assert info.value.code == EX_USAGE


def test_malformed_index_is_usage_error(capsys):
    code, _, err = run(capsys, 'act', '--n', '3', '--r', '2', '--gen', '1',
                       '--index', '1,banana')
    assert code == EX_USAGE
    code, _, err = run(capsys, 'act', '--n', '3', '--r', '2', '--gen', '1',
                       '--index', '1,7')
    assert code == EX_USAGE
    code, _, err = run(capsys, 'act', '--n', '3', '--r', '2', '--gen', '5',
                       '--index', '1,2')
    assert code == EX_USAGE


@pytest.mark.parametrize('argv', [
    ('dims', '--n', '-2', '--r', '2'),
    ('dims', '--n', '2', '--r', '0'),
    ('verify', '--n', '2', '--r', '2', '--limit', '-5'),
    ('commutant', '--n', '2', '--r', '2', '--limit', '0'),
    ('export', '--what', 'action', '--n', '0', '--r', '2', '--gen', '1'),
])
def test_nonpositive_sizes_rejected_at_parser(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == EX_USAGE
    assert 'must be at least 1' in capsys.readouterr().err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / 'missing' / 'table.txt'
    code, out, err = run(capsys, 'dims', '--n', '2', '--r', '2', '--out', str(target))
    assert code == EX_USAGE
    assert out == ''
    assert err.startswith('qpartition: error: cannot write') and err.count('\n') == 1


def test_zero_q_is_usage_error(capsys):
    code, _, err = run(capsys, 'commutant', '--n', '2', '--r', '2', '--q', '0,2')
    assert code == EX_USAGE
    assert 'unit' in err


def test_empty_q_list_is_usage_error(capsys):
    # an empty --q is a bad list, not a missing one: no run at the default q values
    code, out, err = run(capsys, 'commutant', '--n', '2', '--r', '2', '--q', '')
    assert code == EX_USAGE and out == ''
    assert err.startswith("qpartition: error: bad q list ''") and err.count('\n') == 1


# ---------------------------------------------------------------------------
# act

def test_act_case_two(capsys):
    code, out, _ = run(capsys, 'act', '--n', '2', '--r', '1', '--gen', '1',
                       '--index', '2')
    assert code == EX_OK
    assert out.strip() == '(1) e(1)'


def test_act_case_three_json(capsys):
    data = run_json(capsys, 'act', '--n', '2', '--r', '1', '--gen', '1',
                    '--index', '1', '--format', 'json')
    assert data['n'] == 2 and data['generator'] == 1
    terms = {tuple(t['index']): LaurentPoly.from_json(t['coeff']) for t in data['terms']}
    assert terms == {(1,): LaurentPoly({0: -1, 1: 1}), (2,): LaurentPoly({1: 1})}


def test_act_case_one(capsys):
    code, out, _ = run(capsys, 'act', '--n', '3', '--r', '2', '--gen', '2',
                       '--index', '1,1')
    assert code == EX_OK
    assert out.strip() == '(q) e(1,1)'


# ---------------------------------------------------------------------------
# dims

def test_dims_rows(capsys):
    data = run_json(capsys, 'dims', '--n', '4', '--r', '2', '--format', 'json')
    rows = {(row['n'], row['r']): row for row in data['rows']}
    assert rows[(4, 2)]['dim'] == 15
    assert rows[(4, 2)]['bell'] == 15
    assert rows[(4, 2)]['match'] is True
    assert rows[(2, 2)]['dim'] == 8
    assert rows[(2, 2)]['bell'] is None


def test_dims_half_csv(capsys):
    code, out, _ = run(capsys, 'dims', '--n', '5', '--r', '2', '--half',
                       '--format', 'csv')
    assert code == EX_OK
    lines = out.strip().splitlines()
    assert lines[0] == 'n,r,dim,bell,match'
    assert '5,2,52,52,true' in lines


@pytest.mark.parametrize('fmt', ['text', 'json', 'csv'])
def test_dims_half_needs_two_letters(capsys, fmt):
    # as for commutant --half: S_{n-1} needs n >= 2, not an empty table
    code, out, err = run(capsys, 'dims', '--n', '1', '--r', '2', '--half', '--format', fmt)
    assert code == EX_USAGE and not out
    assert err == 'qpartition: error: need n >= 2 for a restricted subalgebra\n'
    code, _, err = run(capsys, 'commutant', '--n', '1', '--r', '2', '--half')
    assert code == EX_USAGE
    assert err == 'qpartition: error: need n >= 2 for a restricted subalgebra\n'


def test_dims_text_table(capsys):
    code, out, _ = run(capsys, 'dims', '--n', '2', '--r', '2')
    assert code == EX_OK
    assert 'match' in out.splitlines()[0]


# ---------------------------------------------------------------------------
# commutant

def test_commutant_json_schema(capsys):
    data = run_json(capsys, 'commutant', '--n', '3', '--r', '2',
                    '--format', 'json')
    assert data['dim'] == 14
    assert data['agree'] is True
    assert data['q_values'] == ['2', '3', '7/5']
    assert data['matches_formula'] is True
    assert data['components'] == 2
    assert data['pairs'] == 4 and data['pair_classes'] == 4
    assert 'basis' not in data


def test_commutant_reports_pair_classes(capsys):
    code, out, _ = run(capsys, 'commutant', '--n', '2', '--r', '8', '--q', '2')
    assert code == EX_OK
    assert 'components=128' in out
    assert 'pairs=16384 pair_classes=4' in out


def test_commutant_with_basis(capsys):
    data = run_json(capsys, 'commutant', '--n', '2', '--r', '2',
                    '--with-basis', '--format', 'json')
    assert len(data['basis']) == data['dim'] == 8
    for mat in data['basis']:
        for row, col, value in mat:
            assert 0 <= row < 4 and 0 <= col < 4
            Fraction(value)  # parses back


def test_commutant_custom_q(capsys):
    data = run_json(capsys, 'commutant', '--n', '2', '--r', '3',
                    '--q', '5,9/2', '--format', 'json')
    assert data['q_values'] == ['5', '9/2']
    assert data['dim'] == qpartition_dim(2, 3)


def test_commutant_symbolic(capsys):
    data = run_json(capsys, 'commutant', '--n', '2', '--r', '2', '--symbolic',
                    '--format', 'json')
    assert data['mode'] == 'symbolic'
    assert data['dim'] == 8


# sha256 of the stdout of `commutant --symbolic --with-basis --format json`,
# recorded when each entry was printed as an element of Q(q) ("1/q",
# "(-q + 1)/q"); the Laurent-polynomial entries must print the same bytes
SYMBOLIC_BASIS_JSON_SHA256 = {
    (2, 2): '67870a9e685570bf94b681693efbb5d28dc98f32e7c1392c932945dee4832ce9',
    (3, 2): 'b5f81ff7d7b3a05873c0b136ba18dfdb0d8e05e4ce00caeebbaf46eae42e8464',
    (2, 3): 'd1254b3f226d83b4675040b14ac02f1b272b224d3314ff625440c07a439220b1',
    (4, 3): '635d1ca70a8c29f9dd524f658df3d1ae27493c904cc4dfae49ca9f9857335fd5',
}


@pytest.mark.parametrize('n,r', sorted(SYMBOLIC_BASIS_JSON_SHA256))
def test_symbolic_basis_json_is_pinned(capsys, n, r):
    code, out, _ = run(capsys, 'commutant', '--n', str(n), '--r', str(r), '--symbolic',
                       '--with-basis', '--format', 'json')
    assert code == EX_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOLIC_BASIS_JSON_SHA256[n, r]


# sha256 of the stdout of commutant --n N --r R --with-basis --q=Q --format json
SPECIALISED_BASIS_JSON_SHA256 = {
    (3, 3, '7/5'): 'b8b65e7d334511d9074d11248c7ad3f8128f8526dc708c4ad4d2470b15b90a75',
    (4, 2, '7/5'): '2b7b9bca7fde5a9bd3ff845da5a635fd55c8a0e30a408a3fb672abc87f57bf62',
    (5, 2, '7/5'): 'd82612d6b43a67ef2245f107d496a5e1f969b65dbf1ef14c74a416de86ac9ada',
    (3, 3, '-3/2'): '304e44213a12a2e844534f1deabcb15f4830dca7bf41f4498291a4b0c8f096ce',
    (4, 2, '-3/2'): '42b1a5abd675a415256c87a41b4bdc1cc143d995ca180f4605659b6efc2e393b',
}


@pytest.mark.parametrize('n,r,q', sorted(SPECIALISED_BASIS_JSON_SHA256))
def test_specialised_basis_json_is_pinned(capsys, n, r, q):
    code, out, _ = run(capsys, 'commutant', '--n', str(n), '--r', str(r), '--with-basis',
                       f'--q={q}', '--format', 'json')
    assert code == EX_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SPECIALISED_BASIS_JSON_SHA256[n, r, q]


@pytest.mark.parametrize('argv,option',
                         [(('commutant', '--n', '3', '--r', '2', '--q', '-3/2'), '--q'),
                          (('commutant', '--n', '3', '--r', '2', '--q', '-1,2'), '--q'),
                          (('glq-dims', '--n', '2', '--r', '2', '--at', '-1/2'), '--at'),
                          (('glq-dims', '--n', '2', '--r', '2', '--a', '-1/2'), '--at')],
                         ids=['q', 'q-list', 'at', 'at-abbreviated'])
def test_negative_rational_value_reads_as_its_equals_form(capsys, argv, option):
    # a value such as -3/2 is not a plain decimal, which argparse would
    # take for an option flag; '--a' is an abbreviation argparse accepts
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EX_OK, '')
    assert run(capsys, *argv[:-2], f'{option}={argv[-1]}') == (EX_OK, out, '')


@pytest.mark.parametrize('n,r', sorted(SYMBOLIC_BASIS_JSON_SHA256))
def test_symbolic_basis_text_matches_reference_field(n, r):
    # each entry's text is that of the same element in the reference Q(q)
    basis = commutant_basis(n, r, symbolic=True, with_basis=True).basis
    entries = [v for X in basis for v in X.values()]
    assert entries and all(type(v) is LaurentPoly for v in entries)
    for v in entries:
        assert _q_fraction(v) == str(Ref.from_laurent(v))


def test_commutant_symbolic_with_q_is_usage_error(capsys):
    # --q would be silently dropped in symbolic mode, so the parser refuses the pair
    for argv in (('--symbolic', '--q', '7/5'), ('--q', '7/5', '--symbolic')):
        with pytest.raises(SystemExit) as info:
            main(['commutant', '--n', '2', '--r', '2', *argv])
        assert info.value.code == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ''
        errors = [line for line in err.splitlines() if 'error:' in line]
        assert len(errors) == 1 and 'not allowed with argument' in errors[0]
        assert errors[0] == err.splitlines()[-1] and 'Traceback' not in err


def test_commutant_half(capsys):
    data = run_json(capsys, 'commutant', '--n', '5', '--r', '2', '--half',
                    '--format', 'json')
    assert data['dim'] == 52
    assert data['formula_dim'] == 52


def test_commutant_limit(capsys):
    code, _, err = run(capsys, 'commutant', '--n', '2', '--r', '8',
                       '--limit', '100')
    assert code == EX_LIMIT


# ---------------------------------------------------------------------------
# work guards of dims and glq-dims

@pytest.mark.parametrize('argv', [
    ('dims', '--n', '32', '--r', '16'),
    ('dims', '--n', '60', '--r', '30', '--half'),
    ('dims', '--n', str(10 ** 12), '--r', str(10 ** 12)),
    ('glq-dims', '--n', '60', '--r', '25'),
    ('glq-dims', '--n', '400', '--r', '60'),
])
def test_work_guard_refuses(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EX_LIMIT and not out
    assert err.count('\n') == 1 and 'exceeds limit' in err


@pytest.mark.parametrize('argv', [
    ('dims', '--n', '16', '--r', '8'),
    ('glq-dims', '--n', '6', '--r', '6'),
])
def test_work_guard_admits_default_sizes_and_honours_limit(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == EX_OK
    code, _, _ = run(capsys, *argv, '--limit', '100')
    assert code == EX_LIMIT


@pytest.mark.parametrize('half', [(), ('--half',)], ids=['full', 'half'])
def test_dims_default_limit_admits_24_12_and_refuses_25_12(capsys, half):
    # the README promises the default admits --n 24 --r 12 (work 99454)
    code, out, _ = run(capsys, 'dims', '--n', '24', '--r', '12', *half)
    assert code == EX_OK and out
    code, out, err = run(capsys, 'dims', '--n', '25', '--r', '12', *half)
    assert code == EX_LIMIT and not out
    assert 'dims work 105874 exceeds limit 100000' in err


# sha256 of the stdout of `dims --format json`, recorded while every
# double coset count still filled its singleton rows one column at a time
DIMS_JSON_SHA256 = {
    (16, 8): 'b8f6b39285fc0b6912817f1c1a10473e843ab488eb44701de7e29ce2e3f3f184',
    (24, 12): 'e4d5b0b6f04e7822c8482246a2b09c32f4c9f940f261c6a11f8a8bd55dd8312b',
}


@pytest.mark.parametrize('n,r', sorted(DIMS_JSON_SHA256))
def test_dims_json_is_pinned(capsys, n, r):
    code, out, _ = run(capsys, 'dims', '--n', str(n), '--r', str(r), '--format', 'json')
    assert code == EX_OK
    assert hashlib.sha256(out.encode()).hexdigest() == DIMS_JSON_SHA256[n, r]


def test_work_guard_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, '-m', 'qpartition.cli', 'glq-dims', '--n', '60', '--r', '25'],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EX_LIMIT and not proc.stdout
    assert proc.stderr.startswith('qpartition: resource limit:')
    assert proc.stderr.count('\n') == 1 and 'Traceback' not in proc.stderr


# one run of each subcommand with output on stdout
PIPED = [
    ('verify', '--n', '3', '--r', '2'),
    ('dims', '--n', '16', '--r', '8'),
    ('act', '--n', '3', '--r', '2', '--gen', '1', '--index', '2,1'),
    ('commutant', '--n', '3', '--r', '2', '--with-basis', '--format', 'json'),
    ('glq-dims', '--n', '3', '--r', '2'),
    ('export', '--what', 'hom', '--mu', '2,1', '--lam', '1,2'),
]


@pytest.mark.parametrize('argv', PIPED, ids=lambda argv: argv[0])
def test_closed_stdout_exits_141_without_traceback(argv):
    # the read end is closed before the child starts, as when a reader
    # such as head -1 has already gone: the first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, '-m', 'qpartition.cli', *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == EX_PIPE == 141
    assert proc.stderr == ''


def test_dims_work_closed_form():
    for n in range(1, 25):
        for r in range(1, 25):
            rows = sum(comb(min(m, r) + 1, 2) ** 2 for m in range(1, n + 1))
            assert _dims_work(n, r) == rows + DIMS_ROW * n * r


@pytest.mark.parametrize('n,r,code', [(24, 12, EX_OK), (16, 8, EX_OK), (5555, 1, EX_OK),
                                      (5556, 1, EX_LIMIT), (49999, 1, EX_LIMIT)])
def test_dims_bound_charges_each_row(n, r, code):
    # a long thin table pays for its rows: the default limit admits
    # --n 24 --r 12 and refuses --n 49999 --r 1, which once took 1.2 s
    proc = subprocess.run([sys.executable, '-m', 'qpartition.cli', 'dims', '--n', str(n),
                           '--r', str(r), '--format', 'csv'],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == EX_LIMIT:
        assert not proc.stdout and 'exceeds limit 100000' in proc.stderr


# ---------------------------------------------------------------------------
# glq-dims

def test_glq_dims_evaluates(capsys):
    data = run_json(capsys, 'glq-dims', '--n', '4', '--r', '2', '--at', '1',
                    '--format', 'json')
    assert data['value'] == '16'
    poly = LaurentPoly.from_json(data['polynomial'])
    assert poly.evaluate(Fraction(1)) == 16


def test_glq_dims_zero_is_usage_error(capsys):
    code, _, _ = run(capsys, 'glq-dims', '--n', '4', '--r', '2', '--at', '0')
    assert code == EX_USAGE


@pytest.mark.parametrize('at', ['1/0', 'x', '1e99999'])
def test_glq_dims_bad_at_is_usage_error_without_traceback(at):
    proc = subprocess.run(
        [sys.executable, '-m', 'qpartition.cli', 'glq-dims', '--n', '2', '--r', '2', '--at', at],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EX_USAGE and not proc.stdout
    assert proc.stderr.startswith('qpartition: error: bad --at value')
    assert proc.stderr.count('\n') == 1 and 'Traceback' not in proc.stderr


def test_glq_dims_longest_table_the_limit_admits():
    # [1999 choose 1]_q is 1999 Pascal rows deep; building it must not
    # recurse once per row
    assert _glq_work(1999, 1) <= GLQ_LIMIT < _glq_work(2000, 1)
    proc = subprocess.run(
        [sys.executable, '-m', 'qpartition.cli', 'glq-dims', '--n', '1999', '--r', '1',
         '--at', '1', '--format', 'json'],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EX_OK, proc.stderr
    assert json.loads(proc.stdout)['value'] == '1999'


# ---------------------------------------------------------------------------
# export

def test_export_action_schema(capsys, tmp_path):
    out_file = tmp_path / 'action.json'
    code, _, _ = run(capsys, 'export', '--n', '2', '--r', '2', '--what', 'action',
                     '--gen', '1', '--out', str(out_file))
    assert code == EX_OK
    data = json.loads(out_file.read_text())
    assert data['n'] == 2 and data['r'] == 2 and data['generator'] == 1
    assert len(data['columns']) == 4
    for col in data['columns']:
        assert set(col) == {'index', 'terms'}
        for term in col['terms']:
            LaurentPoly.from_json(term['coeff'])


def test_export_hom_schema(capsys):
    data = run_json(capsys, 'export', '--what', 'hom', '--mu', '2,1,1',
                    '--lam', '3,1', '--d', '1,2,4,3')
    assert data['source'] == [2, 1, 1]
    assert data['target'] == [3, 1]
    assert len(data['matrix']) == len(data['rows']) == 4
    assert len(data['matrix'][0]) == len(data['cols']) == 12


def test_export_hom_all_maps(capsys):
    data = run_json(capsys, 'export', '--what', 'hom', '--mu', '2,1,1',
                    '--lam', '3,1')
    assert len(data['maps']) == 3


def test_export_hom_rejects_bad_rep(capsys):
    code, _, err = run(capsys, 'export', '--what', 'hom', '--mu', '2,1,1',
                       '--lam', '3,1', '--d', '2,1,3,4')
    assert code == EX_USAGE


def test_export_action_needs_gen(capsys):
    code, _, err = run(capsys, 'export', '--n', '2', '--r', '2', '--what', 'action')
    assert code == EX_USAGE


# ---------------------------------------------------------------------------
# determinism

def test_verify_json_deterministic(capsys):
    first = run_json(capsys, 'verify', '--n', '3', '--r', '2', '--format', 'json',
                     '--seed', '11')
    second = run_json(capsys, 'verify', '--n', '3', '--r', '2', '--format', 'json',
                      '--seed', '11')
    assert first == second
    assert first['seed'] == 11


def test_export_deterministic(capsys):
    first = run_json(capsys, 'export', '--n', '3', '--r', '2', '--what', 'action',
                     '--gen', '2')
    second = run_json(capsys, 'export', '--n', '3', '--r', '2', '--what', 'action',
                      '--gen', '2')
    assert first == second


# ---------------------------------------------------------------------------
# fuzzing: every argv ends in a contract exit code, never in another exception

JUNK = ['', ' ', '0', '-1', 'x', ',', '1,,2', '1/0', '0/0', 'nan', 'inf', '1e99999',
        '1e-9999', '9' * 40, '-' + '9' * 5000, str(10 ** 12), '10**9', '1/2/3']


def mostly(valid, junk=JUNK):
    """Mostly valid values, sometimes junk or extreme ones."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(junk) if k == 5 else valid)


sizes = mostly(st.integers(1, 4).map(str))
q_texts = st.sampled_from(['2', '7/5', '-3/2', '1', '-1', '0', '1.5', '1e3', '101/7', '2,3'])
rationals = mostly(st.one_of(q_texts, q_texts, st.text('0123456789-/.,e', max_size=8)))
lists = mostly(st.lists(st.integers(0, 4), min_size=1, max_size=4).map(
    lambda v: ','.join(map(str, v))))
# small limits keep every admitted call fast and small; the junk ones
# exercise the parser (a huge limit would switch the guards off)
limits = mostly(st.integers(1, 40).map(str), ['', '0', '-3', 'x', '1/0', '1e3'])
formats = mostly(st.sampled_from(['text', 'json']))
OPTIONS = {
    'verify': {'--n': sizes, '--r': sizes, '--limit': limits, '--seed': sizes,
               '--format': formats},
    'dims': {'--n': sizes, '--r': sizes, '--limit': limits, '--format': formats,
             '--half': None},
    'act': {'--n': sizes, '--r': sizes, '--gen': sizes, '--index': lists, '--format': formats},
    'commutant': {'--n': sizes, '--r': sizes, '--q': rationals, '--limit': limits,
                  '--format': formats, '--symbolic': None, '--half': None,
                  '--with-basis': None},
    'glq-dims': {'--n': sizes, '--r': sizes, '--at': rationals, '--limit': limits,
                 '--format': formats},
    'export': {'--n': sizes, '--r': sizes, '--what': st.sampled_from(['action', 'hom', 'x']),
               '--gen': sizes, '--mu': lists, '--lam': lists, '--d': lists,
               '--limit': limits},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values in OPTIONS[command].items():
        # --limit is always present, so that admitted sizes stay small
        if option == '--limit' or draw(st.integers(0, 9)) < 9:
            argv.append(option)
            if values is not None:
                argv.append(draw(values))
    return argv


@given(argvs())
@settings(max_examples=250, deadline=None)
def test_fuzzed_argv_ends_in_contract_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EX_OK, EX_FAIL, EX_LIMIT, EX_USAGE), argv
