"""Universal one-instanton contribution to the Nekrasov partition function.

On the Weyl line the one-instanton sum for pure N=2 super Yang-Mills is a sum
over Cartan powers of the adjoint: term n carries the weight
exp(n * sigma * (eps1 + eps2)) times the quantum dimension of the n-th Cartan
power evaluated at x.  Terms are computed through the exact series with an
adaptively doubled truncation order, which reuses the exact core and avoids
cancellation-prone direct sinh arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FloatEvaluationError, PoleAtX
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
    ``x`` is the Weyl-line coordinate and must avoid the real zero x = 0 of
    the sinh denominators.
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
        if self.x == 0:
            raise PoleAtX("x = 0 is a zero of every sinh denominator")


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
    relative to the value."""
    if product.is_zero:
        return 0.0
    order = _START_ORDER
    while True:
        series = product.series(order)
        value = series.eval_at(x)
        # A product that is not zero has dim != 0, so x^0 is always nonzero.
        last = max(m for m, c in enumerate(series.coefficients) if c != 0)
        tail = abs(float(series[last])) * abs(x) ** last
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
