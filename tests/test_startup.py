"""What the package and each subcommand load, and the lazy package surface.

Every child process here is a fresh interpreter with PYTHONPATH=src, so
sys.modules shows exactly what an import or a subcommand pulled in.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpartition

SRC = str(Path(__file__).resolve().parents[1] / 'src')
MATHS = ('coeff', 'symcomb', 'hecke', 'tensoract', 'qperm', 'glq', 'linalg', 'centralizer')

# the names the package exports, by the module that defines each
EXPORTS = {
    'coeff': ['LaurentPoly', 'ONE', 'Q', 'ZERO', 'ZeroSpecialization', 'lp'],
    'symcomb': ['Composition', 'NotDistinguished', 'Permutation', 'RowStandardTableau',
                'all_permutations', 'bell', 'coset_reps', 'double_coset_reps',
                'intersect_composition', 'stirling2'],
    'hecke': ['HeckeElement', 'RankMismatch', 'generator_inverse', 'signed_young_sum', 't_w',
              't_w_inverse', 'young_sum'],
    'tensoract': ['ColoredSetPartition', 'GeneratorOutOfRange', 'TensorVector', 'apply',
                  'apply_generator', 'colored_partition', 'first_occurrence', 'generator_matrix',
                  'hook_tableau', 'index_of_partition', 'orbit_correspondence', 'orbits',
                  'set_partitions', 'verify_relations'],
    'qperm': ['HomMatrix', 'QPermElement', 'half_qpartition_dim', 'hom_basis', 'hom_dim',
              'hom_matrix', 'indres_step', 'qpartition_dim', 'restrict_multiplicities',
              'tensor_multiplicities'],
    'centralizer': ['CommutantReport', 'DEFAULT_Q_VALUES', 'DimensionLimitExceeded',
                    'DoubleCentralizerReport', 'StructureConstants', 'commutant_basis',
                    'double_centralizer_check', 'half_commutant_basis', 'structure_constants'],
    'glq': ['gaussian_binomial', 'gaussian_multinomial', 'tq_dimension'],
}

RUN_MAIN = """
import sys
from qpartition.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(sys.modules)
print('exit', code)
print('modules', *loaded)
"""


def child(code, *argv):
    """Run code in a fresh interpreter; returns {first word: rest} of its
    last two stdout lines (the subcommand's own output comes before)."""
    env = {**os.environ, 'PYTHONPATH': SRC}
    proc = subprocess.run([sys.executable, '-c', code, *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[-2:]}


# ---------------------------------------------------------------------------
# each subcommand loads what it runs


SUBCOMMANDS = [
    ('--help',),
    ('dims', '--n', '4', '--r', '2'),
    ('glq-dims', '--n', '3', '--r', '2', '--at', '3/2'),
    ('act', '--n', '3', '--r', '2', '--gen', '1', '--index', '2,1', '--format', 'json'),
    ('export', '--what', 'action', '--n', '2', '--r', '2', '--gen', '1'),
    ('export', '--what', 'hom', '--mu', '2,1', '--lam', '1,2'),
    ('verify', '--n', '3', '--r', '2', '--format', 'json'),
    ('commutant', '--n', '2', '--r', '2'),
    ('commutant', '--n', '2', '--r', '2', '--symbolic', '--with-basis', '--format', 'json'),
]


@pytest.mark.parametrize('argv', SUBCOMMANDS, ids=lambda argv: ' '.join(argv[:3]))
def test_subcommand_loads_only_what_it_runs(argv):
    out = child(RUN_MAIN, *argv)
    assert out['exit'] == ['0']
    loaded = set(out['modules'])
    ours = {m for m in loaded if m.split('.')[0] == 'qpartition'}
    assert 'dataclasses' not in loaded and 'inspect' not in loaded
    if argv[0] == '--help':
        assert ours == {'qpartition', 'qpartition.cli', 'qpartition.limits'}
        assert not {f'qpartition.{m}' for m in MATHS} & loaded
    elif argv[0] == 'commutant':
        assert 'qpartition.centralizer' in ours
    else:
        assert 'qpartition.centralizer' not in ours
        assert 'qpartition.linalg' not in ours


# ---------------------------------------------------------------------------
# the lazy package surface


def test_all_is_the_eager_snapshot():
    assert sorted(qpartition.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(set(qpartition.__all__)) == len(qpartition.__all__) == 59


@pytest.mark.parametrize('module', sorted(EXPORTS))
def test_each_name_is_the_module_object(module):
    mod = importlib.import_module(f'qpartition.{module}')
    for name in EXPORTS[module]:
        assert getattr(qpartition, name) is getattr(mod, name), name


def test_dir_and_star_import_list_every_name():
    assert set(qpartition.__all__) <= set(dir(qpartition))
    namespace = {}
    exec('from qpartition import *', namespace)
    del namespace['__builtins__']
    assert set(namespace) == set(qpartition.__all__)
    assert all(namespace[name] is getattr(qpartition, name) for name in namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qpartition.no_such_name
    assert not hasattr(qpartition, 'Record')
    with pytest.raises(ImportError):
        exec('from qpartition import no_such_name', {})


def test_submodules_stay_attributes():
    for module in MATHS + ('cli', 'limits'):
        assert getattr(qpartition, module) is importlib.import_module(f'qpartition.{module}')


def test_limit_guard_is_one_object_everywhere():
    from qpartition import centralizer, cli, limits

    assert (qpartition.DimensionLimitExceeded is centralizer.DimensionLimitExceeded
            is cli.DimensionLimitExceeded is limits.DimensionLimitExceeded)
    assert centralizer._check_limit is cli._check_limit is limits._check_limit


BARE_IMPORT = """
import sys
import qpartition
print('bare', *sorted(m for m in sys.modules if m.split('.')[0] == 'qpartition'))
qpartition.tq_dimension
print('glq', *sorted(m for m in sys.modules if m.split('.')[0] == 'qpartition'))
"""


def test_bare_import_loads_no_submodule():
    # as the README says: names are imported from their module on first use
    out = child(BARE_IMPORT)
    assert out['bare'] == ['qpartition']
    assert out['glq'] == ['qpartition', 'qpartition._record', 'qpartition.coeff',
                          'qpartition.glq', 'qpartition.symcomb']
