"""Character identities for powers of the adjoint and their verification.

The symmetric square, antisymmetric square and symmetric cube of the adjoint
character restricted to the Weyl line are plethysm combinations of the single
function f(x) = qdim_adjoint.  Each identity equates such a combination with
a constant plus a sum of universal characters.  Both sides are written once,
as one entry of ``IDENTITY_TABLE``, which every mode reads.  Both modes
build a point's products once, in table order, the adjoint serving both
sides.  Identities are checked at seeded random points:

* series mode checks that every Taylor coefficient of LHS - RHS up to the
  given order is exactly zero at random rational points of Vogel's plane.
  It works in integers, in the kernel's variable ``u = (x / (4 q))^2`` of
  the point's q: each product is expanded once
  (:meth:`~uqdim.series.SinhProduct.hurwitz`), the adjoint for both sides.
  f(m x) multiplies the Hurwitz numerator H_j by m^(2j), a product of two
  series is the binomial convolution ``sum_i C(2m, 2i) a_i b_(m-i)``, and
  LHS - RHS is summed over the lcm of the small denominators.  Only that
  residual is read in x (:func:`~uqdim.series.hurwitz_to_x`).  A
  ``Fraction`` is built only for a failure message and for the two
  ``PowerSeries`` views :func:`identity_lhs` and :func:`identity_rhs`.
  This is the only exact path for either side;
* numeric mode checks that the floating-point relative residual is below
  NUMERIC_TOLERANCE at random real points and real x.  Near a pole line of
  two constituents that cancel, the float residual can exceed it where the
  identity holds (README, "Numeric mode has a limit").

Neither mode proves an identity for all parameters.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import PoleAtParameters
from .series import DEFAULT_ORDER, PowerSeries, SinhProduct, hurwitz_to_x
from .universal import (
    SLOTS,
    VogelParams,
    adjoint_product,
    x2_product,
    y2_product,
    z_product,
)

S2_SYM = "s2"
A2_ANTISYM = "a2"
S3_SYM_CUBE = "s3"

SERIES = "series"
NUMERIC = "numeric"

#: Relative tolerance for numeric-mode residuals.
NUMERIC_TOLERANCE = 1e-9
#: Numeric-mode rejection margin around the pole set.
POLE_MARGIN = 1e-3

#: One constituent of a right-hand side.  A kind is "adjoint", "x2", "y2"
#: or a key of Z_ARGS; perm is the VogelParams.permuted order of a Y2 or a
#: mixed Cartan product (a Y2 is taken in slot SLOTS[perm[0]]).
Term = namedtuple("Term", "irrep kind perm multiplicity")

#: One identity: the plethysm of f(x) = qdim_adjoint on the left, as
#: (coefficient, dilations) pairs, each standing for coefficient *
#: prod_{m in dilations} f(m x), summed over the divisor; on the right the
#: integer constant plus the constituents in summation order (the order of
#: either side fixes the last bits of numeric residuals).
Identity = namedtuple("Identity", "divisor plethysm constant terms")

#: (k, l) of z_product for the two mixed Cartan-product kinds.
Z_ARGS = {"y3": (3, 0), "z11": (1, 1)}

#: The identities, by name:
#:   s2 = (f(x)^2 + f(2x)) / 2 = 1 + Y2(alpha) + Y2(beta) + Y2(gamma),
#:   a2 = (f(x)^2 - f(2x)) / 2 = adjoint + X2,
#:   s3 = (f(x)^3 + 3 f(2x) f(x) + 2 f(3x)) / 6
#:      = sum Y3 + sum adjoint.Y2(beta) + X2 + 2 adjoint.
IDENTITY_TABLE = {
    S2_SYM: Identity(2, ((1, (1, 1)), (1, (2,))), 1, (
        Term("Y2(alpha)", "y2", (0, 1, 2), 1),
        Term("Y2(beta)", "y2", (1, 0, 2), 1),
        Term("Y2(gamma)", "y2", (2, 1, 0), 1),
    )),
    A2_ANTISYM: Identity(2, ((1, (1, 1)), (-1, (2,))), 0, (
        Term("adjoint", "adjoint", None, 1),
        Term("X2", "x2", None, 1),
    )),
    S3_SYM_CUBE: Identity(6, ((1, (1, 1, 1)), (3, (2, 1)), (2, (3,))), 0, (
        Term("Y3(alpha)", "y3", (0, 1, 2), 1),
        Term("Y3(beta)", "y3", (1, 0, 2), 1),
        Term("Y3(gamma)", "y3", (2, 1, 0), 1),
        Term("g.Y2(beta)(alpha,beta,gamma)", "z11", (0, 1, 2), 1),
        Term("g.Y2(beta)(alpha,gamma,beta)", "z11", (0, 2, 1), 1),
        Term("g.Y2(beta)(beta,gamma,alpha)", "z11", (1, 2, 0), 1),
        Term("X2", "x2", None, 1),
        Term("adjoint", "adjoint", None, 2),
    )),
}
IDENTITIES = tuple(IDENTITY_TABLE)


def _identity(name: str) -> Identity:
    try:
        return IDENTITY_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}") from None


def term_product(term: Term, v: VogelParams) -> SinhProduct:
    """The Weyl-line character of one constituent at v.  The builders are
    looked up by their module-level names at call time."""
    if term.kind == "adjoint":
        return adjoint_product(v)
    if term.kind == "x2":
        return x2_product(v)
    if term.kind == "y2":
        return y2_product(v, SLOTS[term.perm[0]])
    return z_product(v.permuted(term.perm), *Z_ARGS[term.kind])


class IdentityReport(NamedTuple):
    """Outcome of one verification run.  ``exact_zero`` and
    ``order_checked`` are meaningful in series mode (every coefficient of
    LHS - RHS up to that order is exactly zero); ``max_abs_residual`` in
    numeric mode (largest relative residual seen), which checks no series
    coefficient and leaves ``order_checked`` None."""

    identity: str
    mode: str
    order_checked: int | None
    points_checked: int
    seed: int
    exact_zero: bool | None = None
    max_abs_residual: float | None = None
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _plethysm(entry: Identity, f: tuple[list[int], int]) -> list[tuple[int, list[int], int]]:
    """The terms of the plethysm of ``f``, the adjoint's
    :meth:`~SinhProduct.hurwitz` output, as ``(coefficient, numerators,
    denominator)`` in u (:func:`_over_lcm` sums them).

    f(m x) multiplies H_j by m^(2j); a term of n factors is a binomial
    convolution (:func:`_hurwitz_product`) over divisor * den^n."""
    nums, den = f
    parts = []
    for coefficient, dilations in entry.plethysm:
        head, *rest = (nums if m == 1 else [c * m ** (2 * j) for j, c in enumerate(nums)]
                       for m in dilations)
        for factor in rest:
            head = _hurwitz_product(head, factor)
        parts.append((coefficient, head, entry.divisor * den ** len(dilations)))
    return parts


def _rhs_products(entry: Identity, v: VogelParams) -> list[tuple[int, SinhProduct]]:
    """The universal characters on the right-hand side at v, in table
    order, with multiplicities: the one builder of a point's constituents,
    for both modes and :func:`identity_rhs`."""
    return [(t.multiplicity, term_product(t, v)) for t in entry.terms]


#: How the left-hand side of an identity is read at a point: the position
#: of the right-hand adjoint term, whose product is also the plethysm's
#: adjoint (None where there is none), the divisor, the plethysm's distinct
#: dilations in table order, and each of its terms as the coefficient with
#: (dilation, power) pairs in table order.
LhsPlan = namedtuple("LhsPlan", "adjoint divisor dilations terms")


@functools.cache
def _lhs_plan(entry: Identity) -> LhsPlan:
    """The left-hand side of ``entry`` as an :data:`LhsPlan`, built once
    per entry, so that a changed table entry gets its own plan."""
    adjoint = next((i for i, t in enumerate(entry.terms) if t.kind == "adjoint"), None)
    dilations = tuple(dict.fromkeys(m for _, ms in entry.plethysm for m in ms))
    terms = tuple((c, tuple(Counter(ms).items())) for c, ms in entry.plethysm)
    return LhsPlan(adjoint, entry.divisor, dilations, terms)


def _lhs_adjoint(plan: LhsPlan, products: list[tuple[int, SinhProduct]],
                 v: VogelParams) -> SinhProduct:
    """The adjoint at v for the left-hand side: the product of the
    right-hand adjoint term where there is one, else one built after the
    right-hand ``products``."""
    return adjoint_product(v) if plan.adjoint is None else products[plan.adjoint][1]


def _constituents(entry: Identity, products: list[tuple[int, SinhProduct]], order: int,
                  f: tuple[list[int], int] | None) -> list[tuple[int, list[int], int]]:
    """The constant and ``products`` in table order, as ``(multiplicity,
    numerators, denominator)`` from their :meth:`~SinhProduct.hurwitz`
    outputs, all in the u of the point's q.  An adjoint term reads ``f``,
    the adjoint's output, when it is given."""
    return [(entry.constant, [1] + [0] * (order // 2), 1)] + [
        (mult, *(f if f is not None and term.kind == "adjoint" else product.hurwitz(order)))
        for term, (mult, product) in zip(entry.terms, products)]


@functools.cache
def _even_binomial_rows(half: int) -> tuple[tuple[int, ...], ...]:
    """C(2m, 2i) for i = 0..m, one row for each m = 0..half."""
    return tuple(tuple(math.comb(2 * m, 2 * i) for i in range(m + 1))
                 for m in range(half + 1))


def _hurwitz_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two series of Hurwitz numerators in u, truncated to
    len(a): sum_i C(2m, 2i) a_i b_(m-i), since u^i / (2i)! times u^k / (2k)!
    is C(2m, 2i) u^m / (2m)!."""
    return [sum(map(operator.mul, map(operator.mul, row, a), b[m::-1]))
            for m, row in enumerate(_even_binomial_rows(len(a) - 1))]


def _over_lcm(parts: list[tuple[int, list[int], int]]) -> tuple[list[int], int]:
    """The sum of ``coefficient * numerators / denominator`` over the parts,
    cross-multiplied over the lcm of the denominators."""
    common = math.lcm(*(den for _, _, den in parts))
    scales = [coefficient * (common // den) for coefficient, _, den in parts]
    return [sum(map(operator.mul, scales, column))
            for column in zip(*(nums for _, nums, _ in parts))], common


def _residual(identity: str, v: VogelParams, order: int) -> tuple[list[int], int]:
    """LHS - RHS at v, as the coefficients of x^0, x^2, ...,
    x^(2*(order // 2)): integer numerators over one positive denominator,
    not reduced.  The adjoint is expanded once, for the plethysm and for an
    adjoint term alike, and both sides are summed in u over one lcm; only
    the residual is read in x."""
    entry = _identity(identity)
    products = _rhs_products(entry, v)
    f = _lhs_adjoint(_lhs_plan(entry), products, v).hurwitz(order)
    parts = _plethysm(entry, f) + [(-c, nums, den) for c, nums, den
                                   in _constituents(entry, products, order, f)]
    return hurwitz_to_x(*_over_lcm(parts), v.point[3])


def identity_lhs(identity: str, v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The plethysm of the adjoint at v to the given order, exactly."""
    parts = _plethysm(_identity(identity), adjoint_product(v).hurwitz(order))
    return PowerSeries.from_even(*hurwitz_to_x(*_over_lcm(parts), v.point[3]), order)


def identity_rhs(identity: str, v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The sum of universal characters at v to the given order, exactly."""
    entry = _identity(identity)
    parts = _constituents(entry, _rhs_products(entry, v), order, None)
    return PowerSeries.from_even(*hurwitz_to_x(*_over_lcm(parts), v.point[3]), order)


def _lhs_value(plan: LhsPlan, adj: SinhProduct, x: float) -> float:
    """The plethysm of a plan's identity in floats.  Every dilation f(m x)
    is evaluated first; then each term is its coefficient times its values
    in table order, a repeated value as a power (a square as f * f, which
    overflows to inf where f ** 2 raises), and the terms are summed in
    table order and divided by the divisor.  That order fixes the last bits
    of numeric residuals (``f ** 3`` is not ``f * f * f``)."""
    values = {m: adj.value_at(m * x) for m in plan.dilations}
    total = -0.0  # x + -0.0 is x, bit for bit, for every float x
    for term, powers in plan.terms:
        for m, n in powers:
            term *= values[m] if n == 1 else values[m] * values[m] if n == 2 else values[m] ** n
        total += term
    return total / plan.divisor


def _rhs_value(entry: Identity, products: list[tuple[int, SinhProduct]], x: float) -> float:
    total = float(entry.constant)
    for mult, product in products:
        total += mult * product.value_at(x)
    return total


def sample_params(seed: int, index: int) -> VogelParams:
    """Deterministic pseudo-random rational point of Vogel's plane.

    Numerators and denominators are bounded by 64 and every coordinate is
    nonzero.
    """
    rng = random.Random(seed * 1_000_003 + index)

    def draw() -> Fraction:
        while True:
            n = rng.randint(-64, 64)
            if n != 0:
                return Fraction(n, rng.randint(1, 64))

    return VogelParams(draw(), draw(), draw())


def _relative_residual(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def verify_identity(identity: str, mode: str = SERIES, order: int = DEFAULT_ORDER,
                    trials: int = 100, seed: int = 0) -> IdentityReport:
    """Check one identity at ``trials`` sampled points.

    Series mode demands that every coefficient of LHS - RHS vanishes exactly;
    numeric mode demands relative residuals below ``NUMERIC_TOLERANCE`` at
    random real parameters and x in [0.05, 1].  Points on (or, numerically,
    near) the pole set are rejected and redrawn; the run is deterministic in
    ``seed``.  Only series mode reads ``order``.

    A numeric draw follows one protocol, which the pinned residuals and
    rejected draws depend on; an optimisation must not reorder it:

    1. four ``uniform`` calls: alpha, beta and gamma in [-8, 8], then x;
    2. the coordinate screen: a coordinate within ``POLE_MARGIN`` of 0
       rejects the draw;
    3. every right-hand constituent is built in table order through the
       module-level builders, then the adjoint unless an adjoint term is
       among them; a vanishing denominator rejects the draw;
    4. the margin screen: ``_near_pole`` on each constituent in table
       order, up to the first that is near a pole.  Not on an adjoint
       built for the left-hand side alone: its denominators are alpha,
       beta and gamma, which step 2 screens;
    5. ``_lhs_value``, the plethysm read from the table, and
       ``_rhs_value`` give the residual.
    """
    entry = _identity(identity)
    if trials < 1 or (mode == SERIES and order < 1):
        raise ValueError("order and trials must be positive")
    if mode == SERIES:
        return _verify_series(identity, order, trials, seed)
    if mode == NUMERIC:
        return _verify_numeric(identity, entry, trials, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _verify_series(identity: str, order: int, trials: int, seed: int) -> IdentityReport:
    failures = []
    accepted = 0
    index = 0
    while accepted < trials:
        v = sample_params(seed, index)
        index += 1
        try:
            residual, den = _residual(identity, v, order)
        except PoleAtParameters:
            continue
        accepted += 1
        first_bad = next((j for j, r in enumerate(residual) if r), None)
        if first_bad is not None:
            failures.append((v.as_tuple(), f"coefficient of x^{2 * first_bad} is "
                                           f"{Fraction(residual[first_bad], den)}"))
    return IdentityReport(
        identity=identity,
        mode=SERIES,
        order_checked=order,
        points_checked=accepted,
        seed=seed,
        exact_zero=not failures,
        failures=tuple(failures),
    )


def _near_pole(product: SinhProduct) -> bool:
    """Whether a retained sinh denominator has |D| / q < POLE_MARGIN.  int / int
    is correctly rounded, so this is float(min_abs_denominator()) < POLE_MARGIN.
    A denominator with |D| > q >> 9 has |D| / q > 2^-9 > POLE_MARGIN, so only
    the others need the division."""
    q = product.q
    screen = q >> 9
    for _, d, _ in product.factors:
        if (d is not None and -screen <= d <= screen
                and -POLE_MARGIN < d / q < POLE_MARGIN):
            return True
    return False


def _verify_numeric(identity: str, entry: Identity, trials: int, seed: int) -> IdentityReport:
    plan = _lhs_plan(entry)
    rng = random.Random(seed * 1_000_003 + 12345)
    failures = []
    worst = 0.0
    accepted = 0
    uniform = rng.uniform
    while accepted < trials:
        a = uniform(-8.0, 8.0)
        b = uniform(-8.0, 8.0)
        c = uniform(-8.0, 8.0)
        x = uniform(0.05, 1.0)
        if (-POLE_MARGIN < a < POLE_MARGIN or -POLE_MARGIN < b < POLE_MARGIN
                or -POLE_MARGIN < c < POLE_MARGIN):
            continue
        try:
            v = VogelParams(a, b, c)  # each float becomes its exact Fraction
            products = _rhs_products(entry, v)
            adj = _lhs_adjoint(plan, products, v)
        except PoleAtParameters:
            continue
        for _, product in products:
            if _near_pole(product):
                break
        else:
            accepted += 1
            residual = _relative_residual(_lhs_value(plan, adj, x), _rhs_value(entry, products, x))
            worst = max(worst, residual)
            if residual > NUMERIC_TOLERANCE:
                failures.append(((a, b, c, x), f"relative residual {residual:.3e}"))
    return IdentityReport(
        identity=identity,
        mode=NUMERIC,
        order_checked=None,
        points_checked=accepted,
        seed=seed,
        max_abs_residual=worst,
        failures=tuple(failures),
    )
