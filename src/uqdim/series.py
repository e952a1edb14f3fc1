"""Exact truncated power series over the rationals.

Everything downstream (Weyl characters, universal quantum dimensions, the
identity checker) is built from two primitives defined here:

* :class:`PowerSeries` -- a truncated Taylor series in one variable ``x`` with
  exact ``Fraction`` coefficients and no rounding anywhere, and
* :class:`SinhProduct` -- a signed product of ratios
  ``sinh(N*x/(4q)) / sinh(D*x/(4q))`` and cosh factors ``2*cosh(A*x/(4q))``,
  built from ``(N, D, label)`` and ``(A, None, label)`` tuples of integers
  over one positive denominator ``q``.  Every quantum dimension in the
  package takes this one form.  It can be expanded into an exact series,
  expanded into its even coefficients as integer numerators over one
  denominator (the form the identity checks and the CLI read), evaluated in
  floating point, or collapsed to its value at ``x = 0``; every check on a
  factor is an integer test, and a float argument is the correctly rounded
  ``N / q``.

A product is expanded in one step, as the exponential of integer power sums
of its arguments: ``log(sinh z / z)`` and ``log cosh z`` are even series
whose coefficients come from the tangent numbers (Knuth & Buckholtz,
*Computation of tangent, Euler, and Bernoulli numbers*, Math. Comp. 21,
1967).  Those coefficients are computed on first use and cached.  The
exponential is taken in integers over one running denominator, so a product
of F factors to order K costs O(F*K + K^2) integer operations and one gcd
per coefficient.  Both expansions share that one integer core; the series
puts each coefficient over its own power of the step ``16 L^2`` (see
``SinhProduct._log_exp``), which keeps its Fractions small at high order.

All values are immutable after construction and every operation is a pure
function.  The only shared state is that coefficient cache, which grows
under a lock, so concurrent use needs no locking by the caller.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    DivisionByZeroSeries,
    FloatEvaluationError,
    PoleAtParameters,
    PoleAtX,
    ZeroDenominatorForm,
)

Rational = Fraction
RationalLike = Union[Fraction, int]

#: Default truncation order used throughout the package (inclusive).
DEFAULT_ORDER = 20

_ZERO = Fraction(0)


def _as_rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class PowerSeries:
    """Truncated Taylor series ``sum_{m=0}^{order} c_m x^m`` over Fraction.

    The truncation order is inclusive; ``coefficients`` always has length
    ``order + 1``.  Binary operations truncate to the minimum order of the
    operands, i.e. to the information both sides actually carry.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike], order: int | None = None):
        coeffs = [_as_rational(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            del coeffs[order + 1 :]
            coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "PowerSeries":
        return cls([_as_rational(value)], order=order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(1, order)

    # -- basic accessors ---------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def __getitem__(self, m: int) -> Fraction:
        return self._coeffs[m]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for m, c in enumerate(self._coeffs):
            if c != 0:
                return m
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [self._coeffs[m] + other._coeffs[m] for m in range(n + 1)]
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [self._coeffs[m] - other._coeffs[m] for m in range(n + 1)]
        )

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self._coeffs])

    def __mul__(self, other: Union["PowerSeries", RationalLike]) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = [_ZERO] * (n + 1)
            for i, a in enumerate(self._coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other._coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return PowerSeries(out)
        scalar = _as_rational(other)
        return PowerSeries([c * scalar for c in self._coeffs])

    def __rmul__(self, other: RationalLike) -> "PowerSeries":
        return self.__mul__(other)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """Series division; a common factor of x^m cancels when both operands
        share m leading zero coefficients."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise DivisionByZeroSeries("division by the zero series")
        my_v = self.valuation()
        if my_v is None:
            return PowerSeries.zero(min(self.order, other.order) - v)
        if v > my_v:
            raise DivisionByZeroSeries(
                f"divisor valuation {v} exceeds dividend valuation {my_v}"
            )
        n = min(self.order, other.order) - v
        a = self._coeffs[v : v + n + 1] + (_ZERO,) * max(0, n + 1 - (self.order - v + 1))
        b = other._coeffs[v : v + n + 1] + (_ZERO,) * max(0, n + 1 - (other.order - v + 1))
        lead = b[0]
        out: list[Fraction] = []
        for m in range(n + 1):
            acc = a[m]
            for k in range(m):
                if out[k] != 0 and b[m - k] != 0:
                    acc -= out[k] * b[m - k]
            out.append(acc / lead)
        return PowerSeries(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    # -- reparametrisation and evaluation ----------------------------------

    def scale_x(self, factor: RationalLike) -> "PowerSeries":
        """The series of f(factor * x): coefficient c_m picks up factor**m."""
        z = _as_rational(factor)
        power = Fraction(1)
        out = []
        for c in self._coeffs:
            out.append(c * power)
            power *= z
        return PowerSeries(out)

    def eval_at(self, x: float) -> float:
        """Horner evaluation of the truncated polynomial in double precision."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs)
        return f"PowerSeries([{body}])"


def sinh_series(coefficient: RationalLike, order: int) -> PowerSeries:
    """Exact Taylor expansion of sinh(coefficient * x / 4) to the given order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    q = _as_rational(coefficient) / 4
    coeffs = [_ZERO] * (order + 1)
    power = q
    m = 1
    while m <= order:
        coeffs[m] = power / math.factorial(m)
        power *= q * q
        m += 2
    return PowerSeries(coeffs)


def sinh_ratio_series(num: RationalLike, den: RationalLike, order: int) -> PowerSeries:
    """Exact series of sinh(num*x/4) / sinh(den*x/4).

    The constant term is num/den; the shared factor of x cancels in the
    division so no limits are ever taken.
    """
    num = _as_rational(num)
    den = _as_rational(den)
    if order < 0:
        raise ValueError("order must be non-negative")
    if den == 0:
        raise ZeroDenominatorForm(f"sinh ratio with zero denominator (num={num})")
    if num == 0:
        return PowerSeries.zero(order)
    return sinh_series(num, order + 1) / sinh_series(den, order + 1)


def cosh_series(coefficient: RationalLike, order: int) -> PowerSeries:
    """Exact Taylor expansion of cosh(coefficient * x / 4)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    q = _as_rational(coefficient) / 4
    coeffs = [_ZERO] * (order + 1)
    coeffs[0] = Fraction(1)
    power = q * q
    m = 2
    while m <= order:
        coeffs[m] = power / math.factorial(m)
        power *= q * q
        m += 2
    return PowerSeries(coeffs)


def tangent_numbers(n: int) -> list[int]:
    """The first n tangent numbers T_1, T_3, ..., T_{2n-1} = 1, 2, 16, 272,
    7936, ... by the integer recurrence of Knuth & Buckholtz (1967)."""
    t = [math.factorial(k) for k in range(n)]
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_LOG_COEFFS: tuple[tuple[Fraction, Fraction], ...] = ()
_LOG_COEFFS_LOCK = threading.Lock()


def log_coefficients(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """At least n pairs ``(c_k, h_k)``, k = 1, 2, ..., of the even series
    ``log(sinh z / z) = sum c_k z^{2k}`` and ``log cosh z = sum h_k z^{2k}``.

    ``h_k = (-1)^(k-1) T_{2k-1} / (2k)!`` and ``c_k = h_k / (4^k - 1)``, the
    latter from ``sinh 2z = 2 sinh z cosh z``.  The cache only grows: a
    longer request appends entries and keeps the existing ones.
    """
    global _LOG_COEFFS
    with _LOG_COEFFS_LOCK:
        have = len(_LOG_COEFFS)
        if have < n:
            size = max(n, 2 * have)
            tangent = tangent_numbers(size)
            factorial = math.factorial(2 * have)
            fresh = []
            for k in range(have + 1, size + 1):
                factorial *= (2 * k - 1) * (2 * k)
                h = Fraction((-1) ** (k - 1) * tangent[k - 1], factorial)
                fresh.append((h / (4 ** k - 1), h))
            _LOG_COEFFS += tuple(fresh)
        return _LOG_COEFFS


class SinhProduct:
    """A signed product of sinh ratios and cosh factors whose arguments are
    integers over one positive denominator ``q``.

    ``factors`` is the ordered tuple of factors: ``(N, D, label)`` is the
    ratio sinh(N x/(4q)) / sinh(D x/(4q)) and ``(A, None, label)`` is the
    cosh factor 2 cosh(A x/(4q)), the closed form of sinh(2u)/sinh(u), which
    never contributes a denominator.  A label names the denominator's linear
    form in pole messages.  Denominators are checked eagerly: one that
    vanishes raises :class:`PoleAtParameters` naming its label, before
    anything is expanded.  Ratios with N == D are identically 1 and are
    dropped; one with N == 0 makes the whole product the zero function.
    """

    __slots__ = ("sign", "q", "factors", "context")

    def __init__(self, factors: Iterable[tuple[int, int | None, str]], q: int,
                 sign: int = 1, context: str = ""):
        if q < 1:
            raise ValueError("the common denominator q must be positive")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        kept = []
        for factor in factors:
            n, d, label = factor
            if d == 0:
                where = label or f"num={Fraction(n, q)}"
                prefix = f"{context}: " if context else ""
                raise PoleAtParameters(
                    f"{prefix}sinh denominator {where} vanishes at these parameters"
                )
            if n != d:  # a ratio with n == d is identically 1
                kept.append(factor)
        self.sign = sign
        self.q = q
        self.factors = tuple(kept)
        self.context = context

    @property
    def is_zero(self) -> bool:
        return any(n == 0 and d is not None for n, d, _ in self.factors)

    def series(self, order: int) -> PowerSeries:
        """Exact series expansion of the product to the given order: the
        :meth:`even_coefficients` at the even powers, zeros at the odd ones."""
        out = [_ZERO] * (order + 1)
        nums, den, step = self._log_exp(order)
        for m, num in enumerate(nums):
            out[2 * m] = Fraction(num, den)
            den *= step
        return PowerSeries(out)

    def even_coefficients(self, order: int) -> tuple[list[int], int]:
        """The coefficients of x^0, x^2, ..., x^(2*(order // 2)) as integer
        numerators over one positive integer denominator, not reduced.  Odd
        coefficients are zero; a zero product gives zeros over 1."""
        nums, den, step = self._log_exp(order)
        top = len(nums) - 1
        return [num * step ** (top - m) for m, num in enumerate(nums)], den * step ** top

    def _log_exp(self, order: int) -> tuple[list[int], int, int]:
        """The coefficient of x^(2m), m = 0..order // 2, as
        ``nums[m] / (den * step**m)`` with integers ``nums``, ``den`` and
        ``step``.

        In ``y = x^2``, with ``L = q / gcd(q, all N_j, D_j, A_i)`` and the
        arguments scaled to the integers ``N_j L / q``, ``D_j L / q`` and
        ``A_i L / q`` (written N_j, D_j, A_i below),

            product = dim * exp(sum_{k>=1} g_k y^k),
            g_k = (c_k sum_j (N_j^{2k} - D_j^{2k}) + h_k sum_i A_i^{2k}) / (16 L^2)^k,

        where ``dim`` is :meth:`dim` and ``c_k``, ``h_k`` are the
        :func:`log_coefficients`.  Since ``h_k = (4^k - 1) c_k``, a cosh
        argument ``A`` enters the first power sum as the pair ``2A``, ``A``.
        The power sums are plain integers, and the exponential follows from
        ``m e_m = sum_{j=1}^{m} j g_j e_{m-j}``.

        The recursion runs in integers.  The ``c_k`` are put over ``Omega``,
        the lcm of their denominators, so each weight ``j g_j (16 L^2)^j
        Omega`` is an integer.  ``e_0..e_{m-1}`` are integer numerators over
        one running denominator ``Delta``; each new sum is reduced by one
        gcd, and when its denominator does not divide ``Delta`` the stored
        numerators are rescaled.  ``step`` is ``16 L^2``.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        half = order // 2
        scale = self.dim()
        if scale == 0:  # a zero numerator
            return [0] * (half + 1), 1, 1
        weights: dict[int, int] = {}  # |argument| -> weight in the power sum
        for n, d, _ in self.factors:
            pairs = ((2 * n, 1), (n, -1)) if d is None else ((n, 1), (d, -1))
            for a, w in pairs:
                a = abs(a)
                weights[a] = weights.get(a, 0) + w
        common = math.gcd(self.q, *weights)
        lcm = self.q // common
        bases = [((a // common) ** 2, w) for a, w in weights.items() if a and w]
        powers = [1] * len(bases)
        coeffs = log_coefficients(half)[:half]
        omega = math.lcm(*(c.denominator for c, _ in coeffs))
        weighted = []  # j * g_j * (16 L^2)^j * omega, an integer, for j = 1..half
        for k, (c, _) in enumerate(coeffs, 1):
            total = 0
            for i, (square, w) in enumerate(bases):
                powers[i] *= square
                total += w * powers[i]
            weighted.append(c.numerator * (omega // c.denominator) * k * total)
        # Exponentiate in u = y / (16 L^2), where the coefficients keep small
        # denominators, and return to y at the end.  e_i = exp[i] / delta.
        exp = [1]
        delta = 1
        for m in range(1, half + 1):
            num = sum(map(operator.mul, weighted, reversed(exp)))
            den = m * omega * delta
            g = math.gcd(num, den)
            num //= g
            den //= g
            if delta % den:
                grow = den // math.gcd(delta, den)
                exp = [e * grow for e in exp]
                delta *= grow
            exp.append(num * (delta // den))
        num = scale.numerator
        return [num * e for e in exp], scale.denominator * delta, 16 * lcm * lcm

    def dim(self) -> Fraction:
        """Value at x = 0: sign times the product of N_j/D_j (cosh factors
        contribute 2)."""
        num, den = self.sign, 1
        for n, d, _ in self.factors:
            if d is None:
                num *= 2
            else:
                num *= n
                den *= d
        return Fraction(num, den)

    def value_at(self, x: float) -> float:
        """Direct floating-point evaluation at a real x (x = 0 gives dim).
        A value that is not a finite float raises FloatEvaluationError."""
        if x == 0:
            return float(self.dim())
        q = self.q
        acc = float(self.sign)
        try:
            for n, d, _ in self.factors:
                if d is None:
                    acc *= 2.0 * math.cosh(n / q * x / 4.0)
                    continue
                s = math.sinh(d / q * x / 4.0)
                if s == 0.0:
                    raise PoleAtX(f"sinh({Fraction(d, q)} * x/4) vanishes at x={x}")
                acc *= math.sinh(n / q * x / 4.0) / s
        except OverflowError:
            acc = math.inf
        if not math.isfinite(acc):
            raise FloatEvaluationError(
                f"{self.context or 'product'} at x={x} is not a finite float")
        return acc

    def min_abs_denominator(self) -> Fraction | None:
        """Smallest |D_j| / q over the retained sinh ratios (None if none)."""
        dens = [abs(d) for _, d, _ in self.factors if d is not None]
        return Fraction(min(dens), self.q) if dens else None

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        sign = "-" if self.sign < 0 else ""
        return f"SinhProduct({sign}{len(self.factors)} factors)"
