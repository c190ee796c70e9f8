"""The contracts of the records that validate, normalize or cache: the
error class and message of every invalid input, the int normalization and
sequence behaviour of TwistVector, equality, hash and repr by value, and
the per-object caches that do not take part in either."""

import pytest

from conftest import TREFOIL
from spunslice.certificate import certificate_dict, certify
from spunslice.decker import DeckerSet, SliceCurve
from spunslice.diagrams import ChordDiagram, PlatError, PlatWord, TwistVector, build_embedding
from spunslice.groups.finite import symmetric_group
from spunslice.groups.homcount import _schedule, hom_count
from spunslice.groups.presentations import GroupPresentation


@pytest.mark.parametrize("args, error, message", [
    ((0, ()), PlatError, "strand count must be even and >= 2"),
    ((3, ((9, 9),)), PlatError, "strand count must be even and >= 2"),
    ((4, ((4, 1),)), PlatError, "generator index 4 out of range 1..3"),
    ((4, ((0, 1),)), PlatError, "generator index 0 out of range 1..3"),
    ((4, ((1, 0),)), PlatError, "letter sign must be +1 or -1, got 0"),
    ((4, ((1, 2), (9, 1))), PlatError, "letter sign must be +1 or -1, got 2"),
    ((4, ((1,),)), ValueError, "not enough values to unpack (expected 2, got 1)"),
])
def test_plat_word_rejects_what_it_always_rejected(args, error, message):
    with pytest.raises(error) as info:
        PlatWord(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((2, ((1, 2), (3, 3)), (1, 1)), "chord endpoints must partition 1..2n"),
    ((1, ((1, 3),), ()), "chord endpoints must partition 1..2n"),
    ((1, ((1, 2),), (1, -1)), "need one sign per chord"),
])
def test_chord_diagram_rejects_what_it_always_rejected(args, message):
    with pytest.raises(PlatError) as info:
        ChordDiagram(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("entries, error, message", [
    (("x",), ValueError, "invalid literal for int() with base 10: 'x'"),
    ((None,), TypeError,
     "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
])
def test_twist_vector_rejects_what_it_always_rejected(entries, error, message):
    with pytest.raises(error) as info:
        TwistVector(entries)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("entries, bridges, message", [
    ((2, 0, -2), 2, "twist vector length 3 != bridge count 2"),
    ((1, 3), 3, "twist vector length 2 != bridge count 3"),
    ((2, 1, 3), 3, "twist entry t_2 = 1 is odd; only the even family is supported"),
])
def test_twist_vector_validation_messages(entries, bridges, message):
    with pytest.raises(PlatError) as info:
        TwistVector(entries).validate(bridges)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((2, ((1, 3),)), "relator letter 3 out of range"),
    ((2, ((0,),)), "relator letter 0 out of range"),
    ((2, ((1,),), frozenset({3})), "meridian index 3 out of range"),
    ((2, ((5,),), frozenset({3})), "relator letter 5 out of range"),
])
def test_group_presentation_rejects_what_it_always_rejected(args, message):
    with pytest.raises(ValueError) as info:
        GroupPresentation(*args)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((1, 3, 24, ((1, 2, 1),)), "decker set needs 2n circles in n pairs"),
    ((2, 4, 24, ((1, 2, 1),)), "decker set needs 2n circles in n pairs"),
    ((1, 2, 14, ((1, 2, 1),)), "resolution 14 too small for the doubled curve; need at least 16"),
    ((1, 2, 4098, ((1, 2, 1),)), "resolution 4098 too large; at most 4096"),
    ((1, 2, 24, ((1, 3, 1),)), "pairs must partition circles 1..L"),
    ((1, 2, 24, ((1, 2, 0),)), "pair sign must be +1 or -1"),
])
def test_decker_set_rejects_what_it_always_rejected(args, message):
    with pytest.raises(PlatError) as info:
        DeckerSet(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    ((1, 1), "need one row count per region"),
    ((1, 0, 1), "every region needs at least one row"),
])
def test_slice_curve_rejects_what_it_always_rejected(rows, message):
    with pytest.raises(PlatError) as info:
        SliceCurve(2, 24, rows, ())
    assert str(info.value) == message


def test_twist_vector_is_a_sequence_of_ints():
    tv = TwistVector((2, 0, -2))
    assert list(tv) == [2, 0, -2] and len(tv) == 3 and tv.entries == (2, 0, -2)
    mixed = TwistVector(["2", 0.0, True])
    assert mixed.entries == (2, 0, 1) and all(type(t) is int for t in mixed)
    assert TwistVector(t for t in (4, -4)).entries == (4, -4)
    # the certificate writes the entries, not a list holding them
    doc = certificate_dict(certify(TREFOIL, TwistVector((2, 2))))
    assert doc["input"]["twists"] == [2, 2]


def test_plat_word_normalizes_its_letters():
    plat = PlatWord(4, [[2, True], (1.0, -1)])
    assert plat.word == ((2, 1), (1, -1))
    assert all(type(x) is int for letter in plat.word for x in letter)
    assert len(plat) == 2 and plat.bridges == 2


@pytest.mark.parametrize("make, same, other", [
    (lambda: PlatWord(4, ((2, 1), (2, 1))), lambda: PlatWord(4, [(2, True), [2, 1]]),
     lambda: PlatWord(4, ((2, 1), (2, -1)))),
    (lambda: TwistVector((2, 0)), lambda: TwistVector([2.0, 0]), lambda: TwistVector((2, 2))),
    (lambda: GroupPresentation(2, ((1, 2),)), lambda: GroupPresentation(2, ((1, 2),), frozenset()),
     lambda: GroupPresentation(2, ((1, 2),), frozenset({1}))),
])
def test_records_are_equal_and_hash_equal_by_value(make, same, other):
    a, b, c = make(), same(), other()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != c and len({a, b, c}) == 2


def test_records_are_not_equal_to_their_fields():
    assert PlatWord(2, ()) != (2, ())
    assert TwistVector((2,)) != ((2,),) and TwistVector((2,)) != (2,)
    assert GroupPresentation(1, ()) != (1, (), frozenset())


def test_record_reprs_name_their_fields():
    assert repr(PlatWord(2, ((1, 1),))) == "PlatWord(strands=2, word=((1, 1),))"
    assert repr(TwistVector((2, -2))) == "TwistVector(entries=(2, -2))"
    assert repr(GroupPresentation(1, ((1,),))) == (
        "GroupPresentation(n_generators=1, relators=((1,),), meridians=frozenset())"
    )


def test_the_embedding_is_built_once_per_plat_object():
    plat, twin = PlatWord(4, TREFOIL.word), PlatWord(4, TREFOIL.word)
    emb = build_embedding(plat)
    assert build_embedding(plat) is emb
    assert build_embedding(twin) is not emb and build_embedding(twin) == emb
    # the cache takes no part in equality or hash
    assert plat == twin and hash(plat) == hash(twin) and plat == PlatWord(4, TREFOIL.word)


def test_the_hom_schedule_is_compiled_once_per_presentation_object():
    pres = GroupPresentation(2, ((1, 2, -1, -2),))
    twin = GroupPresentation(2, ((1, 2, -1, -2),))
    schedule = _schedule(pres)
    assert _schedule(pres) is schedule and _schedule(twin) is not schedule
    assert hom_count(pres, symmetric_group(3)) == hom_count(twin, symmetric_group(3))
    assert pres == twin and hash(pres) == hash(twin)
