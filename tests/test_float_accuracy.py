"""Accuracy of the two float evaluators of a sinh product against an
80-digit reference.

The reference evaluates every factor with the stdlib ``decimal`` module at
80 significant digits, at the exact binary value of the float x, so the
error of a float result is measured in units in the last place of the
correctly rounded value.  The cases are the Cartan powers n = 1..10 at five
algebra points, at x = 0.05, 0.5 and 1.0, and seeded mixed Cartan products
Z(k <= 3, l <= 2) at random rational points.  Each Z case draws x uniformly
with |x| <= min(0.6, R / 2), where R = 4 pi q / max |D| is the nearest a
pole of the product's sinh denominators can lie; the adaptive series then
converges at least as fast as 4^-m and ends well before its order cap.

Each path's bound is its largest error over these cases, measured when the
test was written, times two.  Then ``value_at`` erred by a median of 1.9
ulps, 5.8 at the 90th percentile and 15.5 at most; the adaptive series path
by a median of 0.39, 2.2 at the 90th percentile and 1374 at most (f4's
eighth Cartan power at x = 1.0).  The series path errs more by design: it
truncates once the last retained term is below TAIL_TOLERANCE (about 4500
ulps) of the value.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest

from uqdim import PoleAtParameters, vogel_params
from uqdim.instanton import _eval_adaptive
from uqdim.universal import cartan_power_product, z_product

from conftest import rand_params

#: Largest error measured, in ulps, times the margin of two.
VALUE_AT_BOUND = 2 * 15.5
EVAL_ADAPTIVE_BOUND = 2 * 1374

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
                yield f"{name} cartan n={n} x={x}", cartan_power_product(v, n), x


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
        yield f"z({k}, {l}) at {v.as_tuple()} x={x!r}", product, x


@pytest.fixture(scope="module")
def cases():
    return [(label, product, x, reference(product, x))
            for label, product, x in (*cartan_cases(), *z_cases())]


@pytest.mark.parametrize("evaluate,bound", [
    (lambda product, x: product.value_at(x), VALUE_AT_BOUND),
    (_eval_adaptive, EVAL_ADAPTIVE_BOUND),
], ids=["value_at", "eval_adaptive"])
def test_error_in_ulps(cases, evaluate, bound):
    errors = sorted((ulps(evaluate(product, x), exact), label)
                    for label, product, x, exact in cases)
    assert len(errors) == 150 + Z_CASES
    assert errors[-1][0] <= bound, errors[-3:]
