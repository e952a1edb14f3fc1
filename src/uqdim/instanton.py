"""Universal one-instanton contribution to the Nekrasov partition function.

On the Weyl line the one-instanton sum for pure N=2 super Yang-Mills is a sum
over Cartan powers of the adjoint: term n carries the weight
exp(n * sigma * (eps1 + eps2)) times the quantum dimension of the n-th Cartan
power evaluated at x.  The quantum dimension is the product's direct float
value, :meth:`~uqdim.series.SinhProduct.value_at`, the one float evaluator
of the package; a Cartan power that is a constant function of x (the zero
function included) gives its exact dimension instead, which the sinh
arithmetic would round (-0.9999999999999997 for the constant -1 at
(-4, 1, 1)).  No series is expanded, so a term is answered wherever
``value_at`` answers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import FloatEvaluationError
from .universal import VogelParams, cartan_power_product

#: Convergence threshold for the running sum: |term| / |partial sum|.
SUM_CONVERGENCE = 1e-8


class _InstantonFields(NamedTuple):
    eps1: float
    eps2: float
    sigma_n: float
    x: float
    n_max: int


class InstantonParams(_InstantonFields):
    """Evaluation data for the one-instanton sum.

    ``sigma_n`` is the expansion parameter multiplying eps1 + eps2 (named to
    avoid any confusion with the root called sigma elsewhere in the package);
    ``x`` is the Weyl-line coordinate, any finite float (at x = 0 term n is
    the weight times the dimension of the n-th Cartan power).  The fields
    are checked whenever one is built, by ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, eps1: float, eps2: float, sigma_n: float, x: float, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not all(math.isfinite(v) for v in (eps1, eps2, sigma_n, x)):
            raise ValueError("instanton parameters must be finite")
        return super().__new__(cls, eps1, eps2, sigma_n, x, n_max)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class InstantonTermTable(NamedTuple):
    """Rows (n, term, running partial sum) plus a convergence flag set at the
    first row whose term is negligible relative to the partial sum."""

    rows: tuple[tuple[int, float, float], ...]
    converged: bool
    converged_at: int | None


def one_instanton_term(v: VogelParams, ip: InstantonParams, n: int) -> float:
    """The n-th summand: exp(n * sigma * (eps1+eps2)) times the quantum
    dimension of the n-th Cartan power of the adjoint at x.  A term that is
    not a finite float raises FloatEvaluationError naming n and x."""
    if not 1 <= n <= ip.n_max:
        raise ValueError(f"n must lie in 1..{ip.n_max}, got {n}")
    try:
        weight = math.exp(n * ip.sigma_n * (ip.eps1 + ip.eps2))
        product = cartan_power_product(v, n)
        term = weight * (float(product.dim()) if product.is_constant
                         else product.value_at(ip.x))
    except (OverflowError, FloatEvaluationError):
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
