"""The contract of the package's eight record types: each prints as
``Name(field=value, ...)``, two records built alike are equal with equal
hashes, and no field can be assigned.  Six are NamedTuples, and so tuples;
``VogelParams`` is a slotted value class that compares by its coordinates
only and is never equal to a tuple."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from uqdim import (
    IdentityReport,
    InstantonParams,
    InstantonTermTable,
    VogelParams,
    build_root_system,
    parse_algebra,
)
from uqdim.roots import DynkinDiagram, Weight

RECORDS = [
    (lambda: parse_algebra("e8"), "AlgebraId(family='E', rank=8, label='e8')"),
    (lambda: build_root_system("G", 2).diagram,
     "DynkinDiagram(lengths=(2, 6), bonds=((0, 1),), scale=Fraction(1, 3))"),
    (lambda: build_root_system("G", 2).weight((3, 2)), "Weight(labels=(0, 1))"),
    (lambda: build_root_system("A", 1),
     "RootSystem(family='A', rank=1, diagram=DynkinDiagram(lengths=(2,), bonds=(), "
     "scale=Fraction(1, 1)), positive_roots=((1,),), rho=(Fraction(1, 2),), theta=(1,), "
     "sigma=None)"),
    (lambda: IdentityReport("s2", "series", 4, 1, 7, exact_zero=True),
     "IdentityReport(identity='s2', mode='series', order_checked=4, points_checked=1, "
     "seed=7, exact_zero=True, max_abs_residual=None, failures=())"),
    (lambda: InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.5, n_max=3),
     "InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.5, n_max=3)"),
    (lambda: InstantonTermTable(rows=((1, 2.5, 2.5),), converged=False, converged_at=None),
     "InstantonTermTable(rows=((1, 2.5, 2.5),), converged=False, converged_at=None)"),
    (lambda: VogelParams(-2, 12, 20),
     "VogelParams(alpha=Fraction(-2, 1), beta=Fraction(12, 1), gamma=Fraction(20, 1))"),
]
NAMES = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("build,text", RECORDS, ids=NAMES)
class TestRecordContract:
    def test_repr(self, build, text):
        assert repr(build()) == text

    def test_equal_records_hash_alike(self, build, text):
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)

    def test_fields_cannot_be_assigned(self, build, text):
        record = build()
        field = text.partition("(")[2].partition("=")[0]
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert repr(record) == before


def test_named_tuples_are_tuples():
    for build, _ in RECORDS[:-1]:
        record = build()
        assert record == tuple(record) and hash(record) == hash(tuple(record))
        assert record._replace() == record
    assert Weight((0, 1)) == ((0, 1),)
    assert DynkinDiagram((2,), (), F(1)).gram((1,), (1,)) == 2
    assert IdentityReport("s2", "series", 4, 1, 7).passed
    assert not IdentityReport("s2", "series", 4, 1, 7, failures=(((1, 2, 3), "bad"),)).passed


def test_instanton_params_validated_when_built():
    params = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.5, n_max=3)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        InstantonParams(0.1, 0.2, -1.0, 0.5, 0)
    with pytest.raises(ValueError, match="must be finite"):
        InstantonParams(0.1, float("inf"), -1.0, 0.5, 3)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        params._replace(n_max=0)
    assert pickle.loads(pickle.dumps(params)) == params


def test_vogel_params_is_not_a_tuple():
    v = VogelParams(-2, 12, 20)
    triple = (F(-2), F(12), F(20))
    assert not isinstance(v, tuple)
    assert v != triple and triple != v
    assert hash(v) == hash(triple)
    assert v.as_tuple() == triple and v.point == (-2, 12, 20, 1)
    swapped = v.permuted((1, 0, 2))
    assert swapped == VogelParams(12, -2, 20) and swapped.point == (12, -2, 20, 1)
    assert swapped.permuted((1, 0, 2)) == v
    with pytest.raises(AttributeError):
        del v.alpha
    with pytest.raises(AttributeError):
        v.point = (0, 0, 0, 1)
    for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert clone == v and clone.point == v.point
