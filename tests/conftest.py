import random
from fractions import Fraction

from uqdim import PoleAtParameters, PowerSeries, VogelParams
from uqdim import identities
from uqdim.universal import adjoint_product, x2_product, y2_product


def rand_fraction(rng: random.Random, bound: int = 64) -> Fraction:
    """Nonzero rational with numerator and denominator bounded by `bound`."""
    while True:
        num = rng.randint(-bound, bound)
        if num != 0:
            return Fraction(num, rng.randint(1, bound))


def rand_params(rng: random.Random, bound: int = 64) -> VogelParams:
    return VogelParams(rand_fraction(rng, bound), rand_fraction(rng, bound),
                       rand_fraction(rng, bound))


def sample_regular_points(seed: int, count: int, probe) -> list[VogelParams]:
    """Deterministic parameter points for which `probe(v)` does not hit a
    pole of the formulas under test."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        v = rand_params(rng)
        try:
            probe(v)
        except PoleAtParameters:
            continue
        points.append(v)
    return points


def reference_lhs(identity: str, v: VogelParams, order: int):
    """The plethysm of the adjoint from PowerSeries arithmetic, written out
    here rather than read from uqdim.identities.IDENTITY_TABLE."""
    f = adjoint_product(v).series(order)
    if identity == "s2":
        return Fraction(1, 2) * (f * f + f.scale_x(2))
    if identity == "a2":
        return Fraction(1, 2) * (f * f - f.scale_x(2))
    return Fraction(1, 6) * (f * f * f + 3 * (f.scale_x(2) * f) + 2 * f.scale_x(3))


def reference_rhs(identity: str, v: VogelParams, order: int):
    """The universal characters of an identity's right-hand side, summed
    from their PowerSeries expansions.  The s3 terms are read from
    IDENTITY_TABLE at call time, so a test that patches them changes the
    reference too."""
    if identity == "s2":
        rhs = [(1, y2_product(v, slot)) for slot in ("alpha", "beta", "gamma")]
        total = PowerSeries.one(order)
    elif identity == "a2":
        rhs = [(1, adjoint_product(v)), (1, x2_product(v))]
        total = PowerSeries.zero(order)
    else:
        rhs = [(t.multiplicity, identities.term_product(t, v))
               for t in identities.IDENTITY_TABLE["s3"].terms]
        total = PowerSeries.zero(order)
    for mult, product in rhs:
        total = total + mult * product.series(order)
    return total
