"""The __slots__ value classes against the @dataclass definitions they replaced.

The library's 14 value classes were dataclasses; they are now plain
__slots__ classes (qpartition._record), so that starting the package
does not import dataclasses.  The classes below are the earlier
definitions, kept verbatim as references (fields, validation and any
hand-written __repr__; methods that do not touch repr, == or hash are
left out).  On sampled instances of every replaced class, repr, ==
(within the class and against other classes), hash, refused assignment
and validation errors must match.  A mutable record takes only its
fields as attributes, where a dataclass instance took any.
"""

import copy
import pickle
from dataclasses import dataclass, fields
from fractions import Fraction

import pytest

from qpartition import centralizer, hecke, qperm, symcomb, tensoract
from qpartition.coeff import LaurentPoly
from qpartition.symcomb import _ints

MultiIndex = tuple[int, ...]


# ---------------------------------------------------------------------------
# the earlier definitions


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = _ints(self.images, 'permutation letters')
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f'not a permutation of 1..{len(images)}: {images}')
        object.__setattr__(self, 'images', images)

    def __repr__(self) -> str:
        return f'Permutation({self.images!r})'


@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = _ints(self.parts, 'composition parts')
        if any(p < 0 for p in parts):
            raise ValueError(f'negative part in {parts}')
        object.__setattr__(self, 'parts', parts)

    def __repr__(self) -> str:
        return f'Composition({self.parts!r})'


@dataclass(frozen=True)
class RowStandardTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = sorted(x for row in self.rows for x in row)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError(f'entries must be exactly 1..n: {self.rows}')
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f'rows must increase: {self.rows}')

    def __repr__(self) -> str:
        return f'RowStandardTableau({self.rows!r})'


@dataclass(frozen=True)
class HeckeElement:
    n: int
    terms: tuple[tuple[Permutation, LaurentPoly], ...]

    def __repr__(self) -> str:
        if not self.terms:
            return f'HeckeElement({self.n}, 0)'
        body = ' + '.join(f'({c})*T{w.images}' for w, c in self.terms)
        return f'HeckeElement({self.n}, {body})'


@dataclass(frozen=True)
class ColoredSetPartition:
    blocks: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        flat = sorted(x for b in self.blocks for x in b)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError(f'blocks must partition 1..r: {self.blocks}')
        if [min(b) for b in self.blocks] != sorted(min(b) for b in self.blocks):
            raise ValueError('blocks must be sorted by smallest element')
        if len(set(self.colors)) != len(self.blocks):
            raise ValueError('coloring must be injective, one color per block')


@dataclass(frozen=True)
class Orbit:
    partition: tuple[tuple[int, ...], ...]
    members: tuple[MultiIndex, ...]


@dataclass(frozen=True)
class TensorVector:
    n: int
    r: int
    terms: tuple[tuple[MultiIndex, LaurentPoly], ...]


@dataclass(frozen=True)
class RelationReport:
    n: int
    r: int
    checks: int
    failures: tuple[str, ...]


@dataclass
class OrbitCorrespondence:
    n: int
    partition: tuple[tuple[int, ...], ...]
    shape: Composition
    mapping: dict[MultiIndex, Permutation]
    equivariant: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class QPermElement:
    shape: Composition
    terms: tuple[tuple[Permutation, LaurentPoly], ...]


@dataclass(frozen=True)
class HomMatrix:
    source: Composition
    target: Composition
    columns: tuple[tuple[LaurentPoly, ...], ...]


@dataclass
class CommutantReport:
    n: int
    r: int
    mode: str
    generators: tuple[int, ...]
    q_values: tuple[Fraction, ...]
    dims: tuple[int, ...]
    agree: bool
    components: int
    pairs: int
    pair_classes: int
    basis: list | None = None


@dataclass
class DoubleCentralizerReport:
    n: int
    r: int
    q0: Fraction
    dim_commutant: int
    dim_image: int
    dim_bicommutant: int
    image_contained: bool


@dataclass
class StructureConstants:
    n: int
    r: int
    q0: Fraction
    dim: int
    table: dict[tuple[int, int], dict[int, object]]
    closed: bool


# ---------------------------------------------------------------------------
# sampled instances, built by the library


def samples():
    """{reference class: (new class, instances)} for all 14 classes."""
    C = symcomb.Composition
    hook = C.hook(3, 1)
    perms = symcomb.all_permutations(3) + [symcomb.Permutation((1,)), symcomb.Permutation((2, 1)),
                                           symcomb.Permutation((1, 3, 2))]
    vector = tensoract.TensorVector.basis_vector(2, 2, (2, 1))
    out = {
        Permutation: perms,
        Composition: [C((2, 0, 3)), hook, C((2, 1)), C(()), C([2, 1])],
        RowStandardTableau: [symcomb.RowStandardTableau.initial(C((2, 1))),
                             tensoract.hook_tableau((3, 1, 3), 4),
                             symcomb.RowStandardTableau(((1, 2), (3,))),
                             symcomb.RowStandardTableau(((), (1,)))],
        HeckeElement: [hecke.t_w(w) for w in perms[:3]] + [
            hecke.HeckeElement.zero(3), hecke.HeckeElement.zero(2),
            hecke.young_sum(C((2, 1))), hecke.t_w_inverse(perms[3]), hecke.t_w(perms[0])],
        ColoredSetPartition: [tensoract.colored_partition(j)
                              for j in ((3, 6, 3, 1, 1, 3, 1, 3), (1, 2), (2, 1), (1, 1), (2, 1))],
        Orbit: tensoract.orbits(3, 2) + tensoract.orbits(2, 2) + tensoract.orbits(3, 2),
        TensorVector: [vector, hecke.generator_times(1, vector), tensoract.TensorVector(2, 2, ()),
                       tensoract.TensorVector(2, 3, ()),
                       tensoract.TensorVector.basis_vector(2, 2, (2, 1))],
        RelationReport: [tensoract.verify_relations(2, 2), tensoract.verify_relations(3, 2),
                         tensoract.RelationReport(2, 2, 3, ('x',)),
                         tensoract.verify_relations(2, 2)],
        OrbitCorrespondence: [tensoract.orbit_correspondence(3, 2, p)
                              for p in (((1, 2),), ((1,), (2,)), ((1,), (2,)))],
        QPermElement: [qperm.QPermElement.basis_vector(hook, d) for d in symcomb.coset_reps(hook)]
        + [qperm.QPermElement(hook, ()), qperm.QPermElement(C((2, 1)), ())],
        HomMatrix: qperm.hom_basis(C((2, 1)), C((1, 2))) + qperm.hom_basis(hook, hook)
        + [qperm.hom_matrix(hook, hook, perms[0])],
        CommutantReport: [centralizer.commutant_basis(2, 2), centralizer.commutant_basis(2, 2),
                          centralizer.commutant_basis(2, 2, symbolic=True, with_basis=True),
                          centralizer.half_commutant_basis(3, 1)],
        DoubleCentralizerReport: [centralizer.double_centralizer_check(2, 2, Fraction(7, 5)),
                                  centralizer.double_centralizer_check(2, 1, Fraction(2)),
                                  centralizer.double_centralizer_check(2, 2, Fraction(7, 5))],
        StructureConstants: [centralizer.structure_constants(2, 1, Fraction(3)),
                             centralizer.structure_constants(2, 2, Fraction(3)),
                             centralizer.structure_constants(2, 1, Fraction(3))],
    }
    return {ref: (type(objs[0]), objs) for ref, objs in out.items()}


SAMPLES = samples()
REFERENCES = list(SAMPLES)
FROZEN = {ref for ref in REFERENCES if ref.__dataclass_params__.frozen}


def reference(ref, obj):
    """The reference instance with obj's field values."""
    return ref(**{f.name: getattr(obj, f.name) for f in fields(ref)})


def test_every_replaced_class_is_sampled():
    assert len(REFERENCES) == 14 and len(FROZEN) == 10
    for ref, (new, objs) in SAMPLES.items():
        assert new.__name__ == ref.__name__ and new.__qualname__ == ref.__qualname__
        assert all(type(obj) is new for obj in objs)
        names = [f.name for f in fields(ref)]
        assert [s for s in new.__slots__ if s != '__dict__'] == names


@pytest.mark.parametrize('ref', REFERENCES, ids=lambda ref: ref.__name__)
def test_repr_eq_and_hash_match(ref):
    new, objs = SAMPLES[ref]
    refs = [reference(ref, obj) for obj in objs]
    for obj, robj in zip(objs, refs):
        assert repr(obj) == repr(robj)
    for a, ra in zip(objs, refs):
        for b, rb in zip(objs, refs):
            assert (a == b) is (ra == rb)
            assert (a != b) is (ra != rb)
    assert any(a == b for i, a in enumerate(objs) for b in objs[i + 1:])  # some equal pair
    if ref in FROZEN:
        assert all(hash(a) == hash(ra) for a, ra in zip(objs, refs))
    else:
        assert new.__hash__ is None and ref.__hash__ is None
        with pytest.raises(TypeError, match='unhashable'):
            hash(objs[0])


@pytest.mark.parametrize('ref', REFERENCES, ids=lambda ref: ref.__name__)
def test_eq_against_other_classes_is_not_implemented(ref):
    new, objs = SAMPLES[ref]
    others = [reference(ref, objs[0]), object(), None, 0, objs[0]._astuple()]
    others += [other_objs[0] for other, (_, other_objs) in SAMPLES.items() if other is not ref]
    for other in others:
        assert objs[0].__eq__(other) is NotImplemented
        assert (objs[0] == other) is False and (objs[0] != other) is True


@pytest.mark.parametrize('ref', REFERENCES, ids=lambda ref: ref.__name__)
def test_assignment(ref):
    new, objs = SAMPLES[ref]
    obj, robj = objs[0], reference(ref, objs[0])
    names = [f.name for f in fields(ref)]
    if ref in FROZEN:
        for name in names + ['extra']:
            for action, args in ((setattr, (name, 1)), (delattr, (name,))):
                with pytest.raises(AttributeError) as got:
                    action(obj, *args)
                with pytest.raises(AttributeError) as want:
                    action(robj, *args)
                assert str(got.value) == str(want.value)
        assert repr(obj) == repr(robj)
    else:
        for name in names:
            setattr(obj, name, getattr(obj, name))
        obj = copy.copy(obj)
        robj = copy.copy(robj)
        obj.n = robj.n = 99
        assert repr(obj) == repr(robj)
        with pytest.raises(AttributeError):
            obj.extra = 1


@pytest.mark.parametrize('ref', REFERENCES, ids=lambda ref: ref.__name__)
def test_pickle_and_copy_round_trip(ref):
    _, objs = SAMPLES[ref]
    for obj in objs:
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)


BAD = {
    Permutation: [((1, 1),), ((2, 3),), ((1.0, 2),), ([1, 'x'],)],
    Composition: [((2, -1),), ((1.5,),), (('a',),)],
    RowStandardTableau: [(((2, 1),),), (((1,), (3,)),), (((1, 1),),)],
    ColoredSetPartition: [(((1,), (3,)), (1, 2)), (((2,), (1,)), (1, 2)), (((1,), (2,)), (1, 1))],
}


@pytest.mark.parametrize('ref', list(BAD), ids=lambda ref: ref.__name__)
def test_validation_errors_match(ref):
    new, _ = SAMPLES[ref]
    for args in BAD[ref]:
        with pytest.raises(Exception) as got:
            new(*args)
        with pytest.raises(Exception) as want:
            ref(*args)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
