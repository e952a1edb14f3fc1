"""Universal one-instanton contribution to the Nekrasov partition function.

On the Weyl line the one-instanton sum for pure N=2 super Yang-Mills is a sum
over Cartan powers of the adjoint: term n carries the weight
exp(n * sigma * (eps1 + eps2)) times the quantum dimension of the n-th Cartan
power evaluated at x.  Terms are computed from the exact even coefficients
of the series kernel (integers over one denominator, the form ``qdim
--series`` prints) with an adaptively doubled truncation order, and the
series is truncated once its last retained term is below TAIL_TOLERANCE
relative to the value.  It is not the more accurate float path: against
an 80-digit reference over Cartan powers at algebra points and random Z
products, the direct sinh arithmetic of
:meth:`~uqdim.series.SinhProduct.value_at` erred by a median of 1.3 ulps
and at most 9.5, this path by up to 1774 ulps (truncation, within
TAIL_TOLERANCE).  The series path is kept so that ``instanton --json``
documents stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FloatEvaluationError
from .series import SinhProduct
from .universal import VogelParams, cartan_power_product

#: Convergence threshold for the running sum: |term| / |partial sum|.
SUM_CONVERGENCE = 1e-8
#: Relative size below which the last retained series coefficient is
#: considered negligible at the evaluation point.
TAIL_TOLERANCE = 1e-12

_START_ORDER = 16
_MAX_ORDER = 4096


@dataclass(frozen=True)
class InstantonParams:
    """Evaluation data for the one-instanton sum.

    ``sigma_n`` is the expansion parameter multiplying eps1 + eps2 (named to
    avoid any confusion with the root called sigma elsewhere in the package);
    ``x`` is the Weyl-line coordinate, any finite float (at x = 0 term n is
    the weight times the dimension of the n-th Cartan power).
    """

    eps1: float
    eps2: float
    sigma_n: float
    x: float
    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not all(math.isfinite(v) for v in (self.eps1, self.eps2, self.sigma_n, self.x)):
            raise ValueError("instanton parameters must be finite")


@dataclass(frozen=True)
class InstantonTermTable:
    """Rows (n, term, running partial sum) plus a convergence flag set at the
    first row whose term is negligible relative to the partial sum."""

    rows: tuple[tuple[int, float, float], ...]
    converged: bool
    converged_at: int | None


def _eval_adaptive(product: SinhProduct, x: float) -> float:
    """Evaluate an entire-series product at x, doubling the truncation order
    until the last retained coefficient contributes less than TAIL_TOLERANCE
    relative to the value.  A constant product (zero included) returns its
    dimension: the tail rule would read its x^0 term as a tail forever.
    Horner's rule runs over every power, 0.0 at the odd ones and the correctly
    rounded n / den of :meth:`SinhProduct.even_coefficients` at the even."""
    if product.is_constant:
        return float(product.dim())
    order = _START_ORDER
    while True:
        nums, den = product.even_coefficients(order)
        value = 0.0
        for n in reversed(nums):
            value = (value * x + 0.0) * x + n / den
        # A product that is not zero has dim != 0, so x^0 is always nonzero;
        # the last is found on the integers, since a float may underflow.
        last = max(m for m, n in enumerate(nums) if n)
        tail = abs(nums[last] / den) * abs(x) ** (2 * last)
        if tail <= TAIL_TOLERANCE * max(abs(value), 1e-300):
            return value
        if order >= _MAX_ORDER:
            raise FloatEvaluationError(
                f"series evaluation did not converge at x={x} by order {order}"
            )
        order *= 2


def one_instanton_term(v: VogelParams, ip: InstantonParams, n: int) -> float:
    """The n-th summand: exp(n * sigma * (eps1+eps2)) times the quantum
    dimension of the n-th Cartan power of the adjoint at x."""
    if not 1 <= n <= ip.n_max:
        raise ValueError(f"n must lie in 1..{ip.n_max}, got {n}")
    try:
        weight = math.exp(n * ip.sigma_n * (ip.eps1 + ip.eps2))
        term = weight * _eval_adaptive(cartan_power_product(v, n), ip.x)
    except OverflowError:
        term = math.inf
    if not math.isfinite(term):
        raise FloatEvaluationError(f"one-instanton term n={n} at x={ip.x} "
                                   "is not a finite float")
    return term


def one_instanton_sum(v: VogelParams, ip: InstantonParams) -> InstantonTermTable:
    """Terms n = 1..n_max with running partial sums."""
    rows = []
    partial = 0.0
    converged_at = None
    for n in range(1, ip.n_max + 1):
        term = one_instanton_term(v, ip, n)
        partial += term
        rows.append((n, term, partial))
        if converged_at is None and partial != 0.0:
            if abs(term) / abs(partial) < SUM_CONVERGENCE:
                converged_at = n
    return InstantonTermTable(
        rows=tuple(rows),
        converged=converged_at is not None,
        converged_at=converged_at,
    )
