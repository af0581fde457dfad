"""The package's record types: validation on every construction, repr and hashing."""

import pytest

from k3evenset.chow import CompleteIntersection, MultiProjSpace
from k3evenset.families import GlueVector, NSFamily, glue_classes, make

P3 = MultiProjSpace((3,))


@pytest.mark.parametrize(
    "record, fields, message",
    [
        (NSFamily, {"kind": "X", "parameter": 4}, "unknown family kind 'X'"),
        (NSFamily, {"kind": "L", "parameter": 0}, "family parameter must be a positive integer"),
        (NSFamily, {"kind": "L'", "parameter": 3}, "no overlattice exists for L':2d=6"),
        (GlueVector, {"support": frozenset({0, 1})}, "support must be a subset of {1..8}"),
        (GlueVector, {"support": frozenset({1, 2, 3})}, "support size must be even"),
        (MultiProjSpace, {"dims": ()}, "each projective factor must have positive dimension"),
        (MultiProjSpace, {"dims": (2, 0)}, "each projective factor must have positive dimension"),
        (MultiProjSpace, {"dims": (10, 9)}, "P10xP9 has dimension 19"),
        (MultiProjSpace, {"dims": (1,) * 13}, "truncated Chow ring of rank 8192"),
        (CompleteIntersection, {"space": P3, "multidegrees": ((4, 1),)}, "does not match 1 factors"),
        (CompleteIntersection, {"space": P3, "multidegrees": ((-1,),)}, "negative degree in"),
        (CompleteIntersection, {"space": P3, "multidegrees": ((0,),)}, "multidegree zero"),
    ],
)
def test_validated_records_refuse_bad_input_however_built(record, fields, message):
    with pytest.raises(ValueError) as positional:
        record(*fields.values())
    with pytest.raises(ValueError) as keyword:
        record(**fields)
    assert message in str(positional.value)
    assert str(keyword.value) == str(positional.value)


def test_record_repr_names_its_fields():
    assert repr(NSFamily("L", 4)) == "NSFamily(kind='L', parameter=4)"
    assert str(NSFamily("L", 4)) == "L:2d=8"
    assert repr(GlueVector(frozenset({1, 2}))) == "GlueVector(support=frozenset({1, 2}))"


def test_equal_records_hash_alike():
    a, b = NSFamily("L", 4), NSFamily(kind="L", parameter=4)
    assert a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert make(a) is make(b)
    glues = {g for cls in glue_classes(4) for g in cls}
    assert len(glues) == 70
    assert GlueVector(frozenset({1, 2, 3, 4})) in glues
    assert GlueVector(support=frozenset({4, 3, 2, 1})) in glues
    assert GlueVector(frozenset({1, 2})) not in glues
