"""Character identities for powers of the adjoint and their verification.

The symmetric square, antisymmetric square and symmetric cube of the adjoint
character restricted to the Weyl line are plethysm combinations of the single
function f(x) = qdim_adjoint.  Each identity equates such a combination with
a constant plus a sum of universal characters.  Both sides are written once,
as one entry of ``IDENTITY_TABLE``; every mode reads the right-hand side
there, and only numeric mode's float plethysm (``_lhs_value``) mirrors the
left-hand side instead.  Identities are checked at seeded random points:

* series mode checks that every Taylor coefficient of LHS - RHS up to the
  given order is exactly zero at random rational points of Vogel's plane.
  It works in integers: each product gives its even coefficients as integer
  numerators over one denominator
  (:meth:`~uqdim.series.SinhProduct.even_coefficients`), f(m x) multiplies
  the coefficient of x^(2j) by m^(2j), products of series are integer
  convolutions, and the sum is cross-multiplied over the lcm of the
  denominators.  A ``Fraction`` is built only for a failure message and for
  the two ``PowerSeries`` views of the same integer vectors, which
  :func:`identity_lhs` and :func:`identity_rhs` build with ``from_even``, as
  ``SinhProduct.series`` does.  This is the only exact path for either side;
* numeric mode checks that the floating-point relative residual is below
  NUMERIC_TOLERANCE at random real points and real x.

Neither mode proves an identity for all parameters.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import PoleAtParameters
from .series import DEFAULT_ORDER, PowerSeries, SinhProduct
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
#: integer constant plus the constituents in summation order (the order
#: fixes the last bits of numeric residuals).
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


def _lhs(identity: str, v: VogelParams, order: int) -> tuple[list[int], int]:
    """The plethysm of the adjoint at v, as the coefficients of x^0, x^2,
    ..., x^(2*(order // 2)): integer numerators over one positive
    denominator, not reduced.

    f(m x) multiplies the coefficient of x^(2j) by m^(2j); a term of n
    factors has denominator divisor * f_den^n."""
    entry = _identity(identity)
    f, f_den = adjoint_product(v).even_coefficients(order)
    parts = []
    for coefficient, dilations in entry.plethysm:
        head, *rest = ([c * m ** (2 * j) for j, c in enumerate(f)] for m in dilations)
        term = [coefficient * c for c in head]
        for factor in rest:
            term = _convolve(term, factor)
        parts.append((term, entry.divisor * f_den ** len(dilations)))
    return _over_lcm(parts)


def _rhs_products(identity: str, v: VogelParams) -> list[tuple[int, SinhProduct]]:
    """The universal characters on the right-hand side, with multiplicities."""
    return [(t.multiplicity, term_product(t, v)) for t in _identity(identity).terms]


def _rhs(identity: str, v: VogelParams, order: int) -> tuple[list[int], int]:
    """The constant plus the universal characters at v, in table order, as
    numerators over one denominator like :func:`_lhs`."""
    parts = [([_identity(identity).constant] + [0] * (order // 2), 1)]
    for mult, product in _rhs_products(identity, v):
        nums, den = product.even_coefficients(order)
        parts.append(([mult * c for c in nums], den))
    return _over_lcm(parts)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer coefficient vectors, truncated to len(a)."""
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _over_lcm(parts: list[tuple[list[int], int]]) -> tuple[list[int], int]:
    """The sum of ``(numerators, denominator)`` vectors, cross-multiplied
    over the lcm of the denominators."""
    common = math.lcm(*(den for _, den in parts))
    total = [0] * len(parts[0][0])
    for nums, den in parts:
        k = common // den
        total = [t + k * c for t, c in zip(total, nums)]
    return total, common


def _residual(identity: str, v: VogelParams, order: int) -> tuple[list[int], int]:
    """LHS - RHS at v, as numerators over one denominator like :func:`_lhs`."""
    lhs, lhs_den = _lhs(identity, v, order)
    rhs, rhs_den = _rhs(identity, v, order)
    return _over_lcm([(lhs, lhs_den), ([-c for c in rhs], rhs_den)])


def identity_lhs(identity: str, v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The plethysm of the adjoint at v to the given order, exactly."""
    return PowerSeries.from_even(*_lhs(identity, v, order), order)


def identity_rhs(identity: str, v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The sum of universal characters at v to the given order, exactly."""
    return PowerSeries.from_even(*_rhs(identity, v, order), order)


def _lhs_value(identity: str, adj: SinhProduct, x: float) -> float:
    """The plethysms of IDENTITY_TABLE written out in floats; it mirrors the
    table in the operation order that fixes the last bits of numeric
    residuals (``f1 ** 3`` is not ``f1 * f1 * f1``)."""
    f1 = adj.value_at(x)
    f2 = adj.value_at(2 * x)
    if identity == S2_SYM:
        return 0.5 * (f1 * f1 + f2)
    if identity == A2_ANTISYM:
        return 0.5 * (f1 * f1 - f2)
    f3 = adj.value_at(3 * x)
    return (f1 ** 3 + 3 * f2 * f1 + 2 * f3) / 6.0


def _rhs_value(identity: str, products: list[tuple[int, SinhProduct]],
               x: float) -> float:
    total = float(_identity(identity).constant)
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
    3. every right-hand constituent, then the adjoint, is built through the
       module-level builders; a vanishing denominator rejects the draw;
    4. the margin screen: ``_near_pole`` on the adjoint, then on each
       constituent in table order, up to the first that is near a pole;
    5. ``_lhs_value`` and ``_rhs_value`` give the residual.
    """
    _identity(identity)
    if trials < 1 or (mode == SERIES and order < 1):
        raise ValueError("order and trials must be positive")
    if mode == SERIES:
        return _verify_series(identity, order, trials, seed)
    if mode == NUMERIC:
        return _verify_numeric(identity, trials, seed)
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


def _verify_numeric(identity: str, trials: int, seed: int) -> IdentityReport:
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
            products = _rhs_products(identity, v)
            adj = adjoint_product(v)
        except PoleAtParameters:
            continue
        if _near_pole(adj):
            continue
        for _, product in products:
            if _near_pole(product):
                break
        else:
            accepted += 1
            lhs = _lhs_value(identity, adj, x)
            rhs = _rhs_value(identity, products, x)
            residual = _relative_residual(lhs, rhs)
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
