"""The contract of the package's eight record types: each prints as
``Name(field=value, ...)``, two records built alike are equal with equal
hashes, and no field can be assigned.  Six are NamedTuples, and so tuples;
``VogelParams`` is a slotted value class that compares by its coordinates
only and is never equal to a tuple."""

import copy
import itertools
import pickle
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from uqdim import (
    IdentityReport,
    InstantonParams,
    InstantonTermTable,
    VogelParams,
    build_root_system,
    casimir_y2,
    dim_adjoint,
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


class _Int(int):
    # Subclasses convert through Fraction(x), which reads numerator and
    # denominator of an int or Fraction subclass, never as_integer_ratio.
    def as_integer_ratio(self):
        return (7, 3)


class _Float(float):
    pass


class _Fraction(F):
    def as_integer_ratio(self):
        return (7, 3)


# VogelParams's input contract: each input converts as Fraction(x) does, and
# the point is (A, B, C, q) over the lcm q of the reduced denominators.
VOGEL_INPUTS = [
    ((1, 2, 3), (1, 2, 3, 1), (F(1), F(2), F(3))),
    ((True, False, 2), (1, 0, 2, 1), (F(1), F(0), F(2))),
    ((F(1, 3), 2, 3), (1, 6, 9, 3), (F(1, 3), F(2), F(3))),
    (("1/3", 2, 3), (1, 6, 9, 3), (F(1, 3), F(2), F(3))),
    ((" -3/4 ", F(5, 6), "2"), (-9, 10, 24, 12), (F(-3, 4), F(5, 6), F(2))),
    ((0.5, -2.25, 3.0), (2, -9, 12, 4), (F(1, 2), F(-9, 4), F(3))),
    ((0.1, 0.2, 0.3),
     (3602879701896397, 7205759403792794, 10808639105689190, 36028797018963968),
     (F(3602879701896397, 36028797018963968), F(3602879701896397, 18014398509481984),
      F(5404319552844595, 18014398509481984))),
    ((Decimal("0.1"), Decimal("-1.5"), 7), (1, -15, 70, 10), (F(1, 10), F(-3, 2), F(7))),
    ((Decimal("1e-3"), 1, 1), (1, 1000, 1000, 1000), (F(1, 1000), F(1), F(1))),
    ((_Int(3), _Float(0.5), _Fraction(2, 3)), (18, 3, 4, 6), (F(3), F(1, 2), F(2, 3))),
    ((1e300, 1, 1), (int(1e300), 1, 1, 1), (F(int(1e300)), F(1), F(1))),
    ((1e-300, 1, 1), (6032057205060441, 2**1049, 2**1049, 2**1049),
     (F(6032057205060441, 2**1049), F(1), F(1))),
    ((2.0**-1074, -1, 2), (1, -2**1074, 2**1075, 2**1074), (F(1, 2**1074), F(-1), F(2))),
]


@pytest.mark.parametrize("inputs,point,triple", VOGEL_INPUTS, ids=repr)
def test_vogel_params_inputs(inputs, point, triple):
    v = VogelParams(*inputs)
    assert v.point == point
    assert v.as_tuple() == triple and (v.alpha, v.beta, v.gamma) == triple
    assert all(type(x) is F for x in v.as_tuple()) and v.t == sum(triple)
    assert repr(v) == "VogelParams(alpha={!r}, beta={!r}, gamma={!r})".format(*triple)
    assert hash(v) == hash(triple)
    assert v == VogelParams(*triple) and v.scaled(1) == v


@pytest.mark.parametrize("bad,error", [
    (None, TypeError),
    ([1], TypeError),
    ("abc", ValueError),
    (float("nan"), ValueError),
    (Decimal("NaN"), ValueError),
    (float("inf"), OverflowError),
    (Decimal("Infinity"), OverflowError),
    ("1/0", ZeroDivisionError),
], ids=repr)
def test_vogel_params_rejects(bad, error):
    for position in range(3):
        args = [1, 1, 1]
        args[position] = bad
        with pytest.raises(error):
            VogelParams(*args)


def test_vogel_params_rejects_the_origin():
    with pytest.raises(ValueError, match="must not all vanish"):
        VogelParams(0, 0.0, "0")


def test_float_points_are_their_exact_fractions():
    rng = random.Random(5)
    for _ in range(200):
        floats = [rng.uniform(-8.0, 8.0) for _ in range(3)]
        v = VogelParams(*floats)
        exact = VogelParams(*map(F, floats))
        assert v == exact and hash(v) == hash(exact) and v.point == exact.point
        for order in itertools.permutations(range(3)):
            permuted = v.permuted(order)
            rebuilt = VogelParams(*(floats[k] for k in order))
            assert permuted == rebuilt and permuted.point == rebuilt.point
            assert hash(permuted) == hash(rebuilt) and repr(permuted) == repr(rebuilt)


def test_scalar_invariants_match_the_rational_formulas():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (F(rng.choice([-1, 1]) * rng.randint(1, 64), rng.randint(1, 64))
                   for _ in range(3))
        v = VogelParams(a, b, c)
        t = a + b + c
        assert dim_adjoint(v) == -((a + 2 * b + 2 * c) * (b + 2 * a + 2 * c)
                                   * (c + 2 * a + 2 * b)) / (a * b * c)
        assert [casimir_y2(v, slot) for slot in ("alpha", "beta", "gamma")] == [
            4 * t - 2 * a, 4 * t - 2 * b, 4 * t - 2 * c]
