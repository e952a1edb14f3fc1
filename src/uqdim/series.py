"""Exact truncated power series over the rationals.

Everything downstream (Weyl characters, universal quantum dimensions, the
identity checker) is built from two primitives defined here:

* :class:`PowerSeries` -- a truncated Taylor series in one variable ``x`` with
  exact ``Fraction`` coefficients and no rounding anywhere, and
* :class:`SinhProduct` -- a signed product of ratios
  ``sinh(N*x/(4q)) / sinh(D*x/(4q))`` and cosh factors ``2*cosh(A*x/(4q))``,
  built from ``(N, D, label)`` and ``(A, None, label)`` tuples of integers
  over one positive denominator ``q``.  Every quantum dimension in the
  package takes this one form.  It can be expanded into its even
  coefficients as integer numerators over one denominator, evaluated in
  floating point, or collapsed to its value at ``x = 0``; every check on a
  factor is an integer test, and a float argument is the correctly rounded
  ``N / q``.

A product is expanded in one step, as the exponential of integer power sums
of its arguments: ``log(sinh z / z)`` is an even series whose coefficients
come from the tangent numbers (Knuth & Buckholtz, *Computation of tangent,
Euler, and Bernoulli numbers*, Math. Comp. 21, 1967).  The exponential is
taken on factorial-scaled (Hurwitz) coefficients, in integers over one
running denominator that stays small.  A product of F factors to order K
costs O(F*K) for the power sums, one gcd per coefficient and about K^2/8
big-integer products, whose operand sizes add up to about the size of the
coefficient they build, since a large term meets a small one.  The
scaled coefficients do not depend on the order, so the recursion is
resumable: :meth:`SinhProduct.expansions` runs it once for a rising sequence
of orders and yields the integer form at each, with its state in the
generator's frame, not on the product.  That integer form is the kernel's
only output: :meth:`SinhProduct.even_coefficients` is the first yield for
one order, which the identity checks and ``qdim --series`` read; the
instanton evaluator reads the yields for its doubling orders; and
:meth:`SinhProduct.series` is the ``PowerSeries`` view of
``even_coefficients`` (:meth:`PowerSeries.from_even`), which no command
reads.

:meth:`SinhProduct.same_function` tells whether two products are the same
function of x without expanding either, by the weights of their |arguments|
(:meth:`SinhProduct._normal_form`, which the kernel also reads).

All values are immutable after construction and every operation is a pure
function; a running recursion belongs to one generator, which no other
caller sees.  The two caches, :func:`log_sinh_hurwitz` and the low rows of
:func:`odd_binomials`, memoise pure functions of an integer and hold
immutable tuples, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import (
    DivisionByZeroSeries,
    FloatEvaluationError,
    PoleAtParameters,
    ZeroDenominatorForm,
)

Rational = Fraction
RationalLike = Union[Fraction, int]

#: Default truncation order used throughout the package (inclusive).
DEFAULT_ORDER = 20

#: Largest series order accepted from --series or --order; it bounds the
#: time and memory of one expansion.
MAX_SERIES_ORDER = 512

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
    def from_even(cls, nums: Iterable[int], den: int, order: int) -> "PowerSeries":
        """The series of even coefficients ``nums[m] / den`` at x^(2m) and
        zeros at the odd powers: :meth:`SinhProduct.even_coefficients`."""
        coeffs = [_ZERO] * (order + 1)
        coeffs[::2] = [Fraction(n, den) for n in nums]
        return cls(coeffs)

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
        a = self._coeffs[v : v + n + 1]
        b = other._coeffs[v : v + n + 1]
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


@functools.cache
def log_sinh_hurwitz(half: int) -> tuple[tuple[int, ...], int]:
    """The Hurwitz coefficients gamma_1..gamma_half of the even series
    ``log(sinh z / z) = sum gamma_k z^{2k} / (2k)!`` as ``(nums, g)``:
    ``gamma_k = nums[k-1] / g``, where ``g`` is the lcm of the reduced
    denominators of the ``gamma_k`` and ``gamma_k = (-1)^(k-1) T_{2k-1} /
    (4^k - 1) = 2^{2k} B_{2k} / (2k)``: 1/3, -2/15, 16/63, -16/15, ..."""
    coeffs = [Fraction((-1) ** k * t, 4 ** (k + 1) - 1)
              for k, t in enumerate(tangent_numbers(half))]
    g = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (g // c.denominator) for c in coeffs), g


#: Rows of :func:`odd_binomials` kept once built: those of an expansion to
#: MAX_SERIES_ORDER (2.1 MB).  Only the instanton evaluator's doubling goes
#: past it, up to order 4096, where keeping every row would hold about
#: 0.5 GB; larger rows are rebuilt per call.
_CACHED_ROWS = MAX_SERIES_ORDER // 2


def odd_binomials(m: int) -> tuple[int, ...]:
    """Row ``2m - 1`` of Pascal's triangle at its odd places: ``C(2m - 1,
    2j - 1)`` for j = 1..m, which is ``(j / m) C(2m, 2j)``."""
    return _cached_odd_binomials(m) if m <= _CACHED_ROWS else _odd_binomials(m)


def _odd_binomials(m: int) -> tuple[int, ...]:
    n = 2 * m - 1
    row = [n]
    for k in range(1, n - 1, 2):  # C(n, k + 2) from C(n, k)
        row.append(row[-1] * (n - k) * (n - k - 1) // ((k + 1) * (k + 2)))
    return tuple(row)


_cached_odd_binomials = functools.cache(_odd_binomials)


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
        factors = tuple(factors)
        unit = False
        for n, d, label in factors:
            if d == 0:
                where = label or f"num={Fraction(n, q)}"
                prefix = f"{context}: " if context else ""
                raise PoleAtParameters(
                    f"{prefix}sinh denominator {where} vanishes at these parameters"
                )
            if n == d:
                unit = True
        if unit:  # a ratio with n == d is identically 1
            factors = tuple([f for f in factors if f[0] != f[1]])
        self.sign = sign
        self.q = q
        self.factors = factors
        self.context = context

    @property
    def is_zero(self) -> bool:
        return any(n == 0 and d is not None for n, d, _ in self.factors)

    @property
    def is_constant(self) -> bool:
        """Whether the product is a constant function of x: it is zero, or
        its :meth:`_normal_form` has no weights, so that every power sum of
        :meth:`even_coefficients` vanishes."""
        return self.is_zero or not self._normal_form()[1]

    def same_function(self, other: "SinhProduct") -> bool:
        """Whether the two products are the same function of x, for every x
        at once: both are zero, or their :meth:`dim` and their
        :meth:`_normal_form` are equal."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.dim() == other.dim() and self._normal_form() == other._normal_form()

    def _normal_form(self) -> tuple[int, dict[int, int]]:
        """``(L, {a: w})`` such that a nonzero product is :meth:`dim` times
        the product over ``a`` of ``(sinh(a y) / (a y))^w``, ``y = x / (4 L)``.

        Each |argument| is weighted +1 per numerator and -1 per denominator,
        and a cosh argument A as the pair +2A, -A.  Arguments 0 and zero
        weights are dropped, and ``q`` and the rest are divided by their gcd.
        The form is fixed by the function alone: with ``t = e^y``, ``sinh(a
        y) = t^{-a} (t^{2a} - 1) / 2``, ``t^{2a} - 1`` is the product of the
        cyclotomic ``Phi_d(t)`` over ``d | 2a``, and Möbius inversion gives
        the weights back from the multiplicities of the ``Phi_d``."""
        weights: dict[int, int] = {}
        for n, d, _ in self.factors:
            pairs = ((2 * n, 1), (n, -1)) if d is None else ((n, 1), (d, -1))
            for a, w in pairs:
                a = abs(a)
                weights[a] = weights.get(a, 0) + w
        kept = {a: w for a, w in weights.items() if a and w}
        common = math.gcd(self.q, *kept)
        if common > 1:  # at rational points q is large and common is 1
            kept = {a // common: w for a, w in kept.items()}
        return self.q // common, kept

    def series(self, order: int) -> PowerSeries:
        """Exact series expansion of the product to the given order: the
        :class:`PowerSeries` view of :meth:`even_coefficients`."""
        return PowerSeries.from_even(*self.even_coefficients(order), order)

    def even_coefficients(self, order: int) -> tuple[list[int], int]:
        """The coefficients of x^0, x^2, ..., x^(2*(order // 2)) as integer
        numerators over one positive integer denominator, not reduced.  Odd
        coefficients are zero; a zero product gives zeros over 1.  This is
        the first and only pair of :meth:`expansions` for ``(order,)``.

        With ``(L, {a: w_a})`` the :meth:`_normal_form` and ``u = (x / (4
        L))^2``,

            product = dim * exp(sum_{j>=1} gamma_j P_j u^j / (2j)!),
            P_j = sum_a w_a a^{2j},

        where ``dim`` is :meth:`dim` and
        ``gamma_j = nums[j-1] / G`` from :func:`log_sinh_hurwitz`.  A cosh
        argument ``A`` enters as the pair ``2A``, ``A`` because ``log cosh z
        = sum (4^j - 1) gamma_j z^{2j} / (2j)!``, from ``sinh 2z = 2 sinh z
        cosh z``.  The exponential is taken on its Hurwitz coefficients
        ``E_m = (2m)! e_m``, where ``product = dim * sum e_m u^m``:

            E_0 = 1,  E_m = sum_{j=1}^{m} C(2m-1, 2j-1) gamma_j P_j E_{m-j},

        from ``m e_m = sum_j j (gamma_j P_j / (2j)!) e_{m-j}`` and ``(j / m)
        C(2m, 2j) = C(2m-1, 2j-1)`` (:func:`odd_binomials`).  The recursion
        runs in integers: ``E_0..E_{m-1}`` are numerators over one running
        denominator ``D``; each new sum, over ``G D``, is reduced by one gcd,
        and when its denominator does not divide ``D`` the stored numerators
        are rescaled.  So ``D`` is the lcm of the reduced denominators of
        ``E_0..E_m``, whatever ``G`` is.  The factorial scaling keeps ``G``
        and ``D`` small:
        for e7's eighth Cartan power at order 256 they have 363 and 18 bits,
        where the lcm under the plain ``c_j`` and the running denominator of
        the plain ``e_m`` have 1484 and 1434.  A large ``gamma_j P_j`` meets
        a small ``E_{m-j}``, so the ``h^2 / 2`` products (``h = order //
        2``) have operands whose sizes add up to about the size of ``E_m``.
        The output is ``dim * E_m / ((2m)! (16 L^2)^m)`` over ``den(dim) D
        (2h)! (16 L^2)^h``.
        """
        return next(self.expansions((order,)))

    def expansions(self, orders: Iterable[int]) -> Iterator[tuple[list[int], int]]:
        """``even_coefficients(order)`` for each order of a non-decreasing
        sequence, integer for integer, from one run of the recursion.

        The ``E_m`` do not depend on the order; only the output scaling
        does.  So the generator keeps ``E_0..E_m``, ``D`` and the normal
        form in its frame, and each larger half order ``h`` only recomputes
        the ``gamma_j P_j`` over the ``G`` of :func:`log_sinh_hurwitz(h)
        <log_sinh_hurwitz>` and appends the rows up to ``h``: ``E_m`` is
        reduced, so ``D`` and the stored numerators come out as a fresh
        call's.  A negative or decreasing order raises ``ValueError`` when
        it is reached."""
        scale = self.dim()
        lcm, weights = self._normal_form()
        squares = [a * a for a in weights]
        step = 16 * lcm * lcm
        exp = [1]  # E_i = exp[i] / delta
        delta = 1
        previous = 0
        for order in orders:
            if order < previous:
                raise ValueError("orders must be non-negative and non-decreasing")
            previous = order
            half = order // 2
            if scale == 0:
                yield [0] * (half + 1), 1
                continue
            if half >= len(exp):
                coeffs, g = log_sinh_hurwitz(half)
                powers = list(weights.values())
                weighted = []  # gamma_j * P_j * G, an integer, for j = 1..half
                for c in coeffs:
                    powers = list(map(operator.mul, powers, squares))
                    weighted.append(c * sum(powers))
                for m in range(len(exp), half + 1):
                    num = sum(map(operator.mul, map(operator.mul, odd_binomials(m), weighted),
                                  reversed(exp)))
                    den = g * delta
                    d = math.gcd(num, den)
                    num //= d
                    den //= d
                    if delta % den:
                        grow = den // math.gcd(delta, den)
                        exp = [e * grow for e in exp]
                        delta *= grow
                    exp.append(num * (delta // den))
            # Back to x from the top down: x^(2m) carries (2h)!/(2m)! (16 L^2)^(h-m).
            top = 1
            nums = [0] * (half + 1)
            for m in range(half, 0, -1):
                nums[m] = scale.numerator * exp[m] * top
                top *= 2 * m * (2 * m - 1) * step
            nums[0] = scale.numerator * exp[0] * top
            yield nums, scale.denominator * delta * top

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
        """Direct floating-point evaluation at a real x (x = 0 gives dim).  A
        ratio sinh(a)/sinh(b) with a or b below the smallest normal float in
        magnitude is its limit N/D; one whose sinh overflows is
        sgn(ab) e^(|a|-|b|) (1 - e^(-2|a|)) / (1 - e^(-2|b|)).
        A value that is not a finite float raises FloatEvaluationError."""
        if x == 0:
            return float(self.dim())
        q = self.q
        tiny = sys.float_info.min
        acc = float(self.sign)
        try:
            for n, d, _ in self.factors:
                if d is None:
                    acc *= 2.0 * math.cosh(n / q * x / 4.0)
                    continue
                a, b = n / q * x / 4.0, d / q * x / 4.0
                try:
                    acc *= n / d if abs(a) < tiny or abs(b) < tiny else math.sinh(a) / math.sinh(b)
                except OverflowError:
                    acc *= (math.copysign(math.exp(abs(a) - abs(b)), a * b)
                            * math.expm1(-2 * abs(a)) / math.expm1(-2 * abs(b)))
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
