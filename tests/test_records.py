"""The immutable records of mdtk: construction, validation, equality,
hashing, copying and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from mdtk.bounds import BoundVerdict, LemmaVerdict, bound_check, lemma_orbit_bound
from mdtk.catalog_cli import CatalogEntry, builtin, catalog_entries
from mdtk.construct import CocycleSpec, MetricGroup, fibonacci, ising
from mdtk.cyclo import ComplexInterval, RootOfUnity
from mdtk.galois import GaloisPermutation, _ratio_classes, galois_permutation
from mdtk.modular import (
    Check,
    DataFormatError,
    FusionTensor,
    VerificationReport,
    verify,
    verlinde_fusion,
)

ISING_N = verlinde_fusion(ising(1, 1)).N


def samples():
    """Two equal, separately built values of each record type."""
    def pair(build):
        return build(), build()

    return [
        pair(lambda: ComplexInterval(re=Fraction(1, 2), im=Fraction(0), radius=Fraction(1, 8))),
        pair(lambda: RootOfUnity(order=8, exponent=3)),
        pair(lambda: Check("unitarity", False, "S[0][1]")),
        pair(lambda: VerificationReport((Check("a", True), Check("b", False, "w")))),
        pair(lambda: FusionTensor(labels=("1", "s", "p"), N=ISING_N)),
        pair(lambda: MetricGroup(orders=(2,), q=(RootOfUnity(1, 0), RootOfUnity(4, 1)))),
        pair(lambda: CocycleSpec(orders=(4, 2), exps=(1, 0))),
        pair(lambda: GaloisPermutation(k=3, mapping=(0, 2, 1), labels=("1", "a", "b"))),
        pair(lambda: BoundVerdict(name="x", fsexp=16, ndim=4, prime=2, bound_holds=True,
                                  extremal=True, tier=4)),
        pair(lambda: LemmaVerdict(label="x", applicable=False, note="why")),
        pair(lambda: CatalogEntry(name="fibonacci-1", source="builtin", notes="rank 2")),
    ]


def test_keyword_construction_and_defaults():
    assert Check("c", True).witness == ""
    v = BoundVerdict(name="x", fsexp=5, ndim=5, prime=5, bound_holds=True,
                     extremal=True, tier=1)
    assert v.extremal_class is None
    assert v._replace(extremal_class="fibonacci").extremal_class == "fibonacci"
    lv = LemmaVerdict(label="x", applicable=False, note="n")
    assert lv[3:] == ((), None, None, None, None)
    ft = FusionTensor(labels=("1", "s", "p"), N=ISING_N)
    assert ft.duals == (0, 1, 2) and ft.rank == 3 and ft.dual(1) == 1
    assert CatalogEntry(name="fibonacci-1", source="builtin", notes="").datum is builtin("fibonacci-1")
    assert complex(ComplexInterval(Fraction(1), Fraction(-2), Fraction(0))) == 1 - 2j
    perm = GaloisPermutation(k=3, mapping=(0, 2, 1), labels=("1", "a", "b"))
    assert perm.index(1) == 2 and perm("a") == "b"
    # the values the library builds
    assert bound_check(fibonacci(1), classify=True).extremal_class == "fibonacci"
    assert lemma_orbit_bound(fibonacci(1), "tau").applicable is False
    assert isinstance(verify(fibonacci(1)), VerificationReport)
    assert all(isinstance(e, CatalogEntry) for e in catalog_entries())


@pytest.mark.parametrize("build, message", [
    (lambda: RootOfUnity(0, 0), "bad root of unity (0, 0)"),
    (lambda: RootOfUnity(4, 4), "bad root of unity (4, 4)"),
    (lambda: RootOfUnity(4, 2), "(4, 2) is not in lowest terms"),
    (lambda: MetricGroup((), ()), "bad group orders ()"),
    (lambda: MetricGroup((3, 0), ()), "bad group orders (3, 0)"),
    (lambda: MetricGroup((3,), (RootOfUnity(1, 0),)), "q has 1 values for a group of size 3"),
    (lambda: CocycleSpec((4, 2), (1,)), "one exponent per cyclic factor is required"),
    (lambda: CocycleSpec((4,), (5,)), "exponent 5 out of range for Z/4"),
    (lambda: FusionTensor(("1", "x"), (((1, 0), (1, 1)), ((1, 1), (1, 0)))),
     "fusion with the unit must be the identity"),
    (lambda: FusionTensor(("1", "x", "y"), (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )), "fusion is not commutative at (x, y)"),
    (lambda: FusionTensor(("1", "x"), (((1, 0), (0, 1)), ((0, 1), (0, 1)))),
     "object x has no unique dual"),
])
def test_validation_messages(build, message):
    with pytest.raises((ValueError, DataFormatError)) as info:
        build()
    assert str(info.value) == message


def test_records_are_immutable():
    for a, _ in samples():
        field = a._fields[0] if hasattr(a, "_fields") else "checks"
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            a.extra = 1


def test_equal_values_compare_and_hash_equal():
    for a, b in samples():
        assert a is not b and a == b and hash(a) == hash(b), a
    assert RootOfUnity(8, 3) != RootOfUnity(8, 5)
    assert VerificationReport((Check("a", True),)) != VerificationReport((Check("a", False),))
    # a report is not a tuple, so a caller can tell it from an error pair
    assert not isinstance(VerificationReport(()), tuple)
    # the ratio table holds dicts, so it compares but does not hash
    md = fibonacci(1)
    assert _ratio_classes(md) == _ratio_classes(fibonacci(1))


def test_copy_and_pickle_round_trips():
    for a, _ in samples():
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert twin == a and type(twin) is type(a), a
    # unpickling goes through the validating constructors
    ft = FusionTensor(("1", "s", "p"), ISING_N)
    assert ft.__getnewargs__() == (ft.labels, ft.N)
    assert pickle.loads(pickle.dumps(ft)).duals == ft.duals
    perm = galois_permutation(ising(1, 1), 5)
    assert pickle.loads(pickle.dumps(perm)) == perm


def test_json_field_order():
    # `verify --json` and `bound-check --json` print the fields in this order
    assert Check._fields == ("name", "passed", "witness")
    assert BoundVerdict._fields == (
        "name", "fsexp", "ndim", "prime", "bound_holds", "extremal", "tier", "extremal_class"
    )
    assert list(Check("c", False, "w")._asdict().items()) == [
        ("name", "c"), ("passed", False), ("witness", "w")
    ]
