"""Accuracy of the float evaluator of a sinh product and of the instanton
terms built on it, against an 80-digit reference.

The reference evaluates every factor with the stdlib ``decimal`` module at
80 significant digits, at the exact binary value of the float x, so the
error of a float result is measured in units in the last place of the
correctly rounded value.  The cases are the Cartan powers n = 1..10 at five
algebra points, at x = 0.05, 0.5 and 1.0, and seeded mixed Cartan products
Z(k <= 3, l <= 2) at random rational points.  Each Z case draws x uniformly
with |x| <= min(0.6, R / 2), where R = 4 pi q / max |D| is the nearest a
pole of the product's sinh denominators can lie.

``value_at`` is checked on every case and the one-instanton term at sigma =
0, whose weight is exactly 1, on the 150 Cartan cases.  The bound is the
largest error of ``value_at`` measured when the test was written, times
two.  Then ``value_at`` erred by a median of 1.9 ulps, 5.8 at the 90th
percentile and 15.5 at most; the instanton terms by a median of 1.4 and
at most 10.5.  An adaptive series evaluator that the terms once used erred
by up to 1374 ulps (f4's eighth Cartan power at x = 1.0), since it
truncated once the last retained term was below 1e-12 (about 4500 ulps) of
the value.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest

from uqdim import InstantonParams, PoleAtParameters, one_instanton_term, vogel_params
from uqdim.universal import cartan_power_product, z_product

from conftest import rand_params

#: Largest error of value_at measured, in ulps, times the margin of two.
VALUE_AT_BOUND = 2 * 15.5

Z_CASES = 400


def _sinh(a: Decimal) -> Decimal:
    return (a.exp() - (-a).exp()) / 2


def reference(product, x: float) -> Decimal:
    """The product at the exact value of x, to 80 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        scale = Decimal(x) / (4 * product.q)
        value = Decimal(product.sign)
        for n, d, _ in product.factors:
            if d is None:
                value *= (Decimal(n) * scale).exp() + (Decimal(-n) * scale).exp()
            else:
                value *= _sinh(Decimal(n) * scale) / _sinh(Decimal(d) * scale)
        return value


def ulps(value: float, exact: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 80
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def cartan_cases():
    for name in ("e7", "e8", "f4", "sl6", "g2"):
        v = vogel_params(name)
        for n in range(1, 11):
            for x in (0.05, 0.5, 1.0):
                yield f"{name} cartan n={n} x={x}", cartan_power_product(v, n), x, (v, n)


def z_cases(seed: int = 1111, count: int = Z_CASES):
    rng = random.Random(seed)
    made = 0
    while made < count:
        v = rand_params(rng, bound=12)
        k, l = rng.randint(0, 3), rng.randint(0, 2)
        try:
            product = z_product(v, k, l)
        except PoleAtParameters:
            continue
        if product.is_constant:
            continue
        largest = max(abs(d) for _, d, _ in product.factors if d is not None)
        limit = min(0.6, 2 * math.pi * product.q / largest)
        x = rng.uniform(-limit, limit)
        made += 1
        yield f"z({k}, {l}) at {v.as_tuple()} x={x!r}", product, x, None


@pytest.fixture(scope="module")
def cases():
    return [(label, product, x, power, reference(product, x))
            for label, product, x, power in (*cartan_cases(), *z_cases())]


def instanton_term(power, x):
    v, n = power
    return one_instanton_term(v, InstantonParams(0.0, 0.0, 0.0, x, n), n)


@pytest.mark.parametrize("path", ["value_at", "instanton_term"])
def test_error_in_ulps(cases, path):
    if path == "value_at":
        measured = [(product.value_at(x), exact, label)
                    for label, product, x, _, exact in cases]
    else:
        measured = [(instanton_term(power, x), exact, label)
                    for label, _, x, power, exact in cases if power]
    errors = sorted((ulps(value, exact), label) for value, exact, label in measured)
    assert len(errors) == (150 + Z_CASES if path == "value_at" else 150)
    assert errors[-1][0] <= VALUE_AT_BOUND, errors[-3:]
