"""Exact q-deformed letter permutation actions and their centralizers.

The package implements the action of the Iwahori-Hecke algebra of S_n
on the r-fold tensor power of an n-dimensional free module by
q-deformed letter permutations, the decomposition of that action into
q-permutation modules for hook compositions, and the centralizer
algebra with its dimension combinatorics (Stirling numbers, double
cosets, Bell numbers).  All arithmetic is exact: Laurent polynomials
over Q, rational functions in Q(q), or specializations at nonzero
rationals.
"""

from .coeff import LaurentPoly, Q, ONE, ZERO, RationalFunction, ZeroSpecialization, lp
from .symcomb import (
    Composition,
    NotDistinguished,
    Permutation,
    RowStandardTableau,
    all_permutations,
    bell,
    coset_reps,
    double_coset_reps,
    intersect_composition,
    stirling2,
)
from .hecke import (
    HeckeElement,
    RankMismatch,
    generator_inverse,
    signed_young_sum,
    t_w,
    t_w_inverse,
    young_sum,
)
from .tensoract import (
    ColoredSetPartition,
    GeneratorOutOfRange,
    TensorVector,
    apply,
    apply_generator,
    colored_partition,
    first_occurrence,
    generator_matrix,
    hook_tableau,
    index_of_partition,
    orbit_correspondence,
    orbits,
    set_partitions,
    verify_relations,
)
from .qperm import (
    HomMatrix,
    QPermElement,
    half_qpartition_dim,
    hom_basis,
    hom_dim,
    hom_matrix,
    indres_step,
    qpartition_dim,
    restrict_multiplicities,
    tensor_multiplicities,
)
from .centralizer import (
    CommutantReport,
    DEFAULT_Q_VALUES,
    DimensionLimitExceeded,
    DoubleCentralizerReport,
    StructureConstants,
    commutant_basis,
    double_centralizer_check,
    half_commutant_basis,
    structure_constants,
)
from .glq import gaussian_binomial, gaussian_multinomial, tq_dimension

__version__ = '0.1.0'
