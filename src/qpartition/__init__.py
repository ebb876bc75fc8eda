"""Exact q-deformed letter permutation actions and their centralizers.

The package implements the action of the Iwahori-Hecke algebra of S_n
on the r-fold tensor power of an n-dimensional free module by
q-deformed letter permutations, the decomposition of that action into
q-permutation modules for hook compositions, and the centralizer
algebra with its dimension combinatorics (Stirling numbers, double
cosets, Bell numbers).  All arithmetic is exact: Laurent polynomials
over Q, or specializations at nonzero rationals.

A bare ``import qpartition`` loads no submodule.  Each name of __all__
is imported from its module on first access (PEP 562) and then kept
here, so ``from qpartition import commutant_basis`` loads centralizer
and what it uses, and nothing else.
"""

from importlib import import_module as _import_module

__version__ = '0.1.0'

_EXPORTS = {
    'coeff': ('LaurentPoly', 'Q', 'ONE', 'ZERO', 'ZeroSpecialization', 'lp'),
    'symcomb': (
        'Composition',
        'NotDistinguished',
        'Permutation',
        'RowStandardTableau',
        'all_permutations',
        'bell',
        'coset_reps',
        'double_coset_reps',
        'intersect_composition',
        'stirling2',
    ),
    'hecke': (
        'HeckeElement',
        'RankMismatch',
        'generator_inverse',
        'signed_young_sum',
        't_w',
        't_w_inverse',
        'young_sum',
    ),
    'tensoract': (
        'ColoredSetPartition',
        'GeneratorOutOfRange',
        'TensorVector',
        'apply',
        'apply_generator',
        'colored_partition',
        'first_occurrence',
        'generator_matrix',
        'hook_tableau',
        'index_of_partition',
        'orbit_correspondence',
        'orbits',
        'set_partitions',
        'verify_relations',
    ),
    'qperm': (
        'HomMatrix',
        'QPermElement',
        'half_qpartition_dim',
        'hom_basis',
        'hom_dim',
        'hom_matrix',
        'indres_step',
        'qpartition_dim',
        'restrict_multiplicities',
        'tensor_multiplicities',
    ),
    'centralizer': (
        'CommutantReport',
        'DEFAULT_Q_VALUES',
        'DimensionLimitExceeded',
        'DoubleCentralizerReport',
        'StructureConstants',
        'commutant_basis',
        'double_centralizer_check',
        'half_commutant_basis',
        'structure_constants',
    ),
    'glq': ('gaussian_binomial', 'gaussian_multinomial', 'tq_dimension'),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {'cli', 'limits', 'linalg'}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f'.{_MODULE_OF[name]}', __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _import_module(f'.{name}', __name__)
    raise AttributeError(f'module {__name__!r} has no attribute {name!r}')


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
