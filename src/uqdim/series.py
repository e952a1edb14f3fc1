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
coefficient they build, since a large term meets a small one.

The kernel's output, :meth:`SinhProduct.hurwitz`, stays in the product's
own variable ``u = (x / (4 q))^2``: numerators ``H_m`` over one denominator,
``product = sum_m (H_m / den) u^m / (2m)!``.  Every product built at one
point of Vogel's plane has the point's ``q``, so the identity checks combine
these outputs in ``u`` and read only their residual in x
(:func:`hurwitz_to_x`).  :meth:`SinhProduct.even_coefficients`, which
``qdim --series`` prints, is that reading of one product; its
``PowerSeries`` view :meth:`SinhProduct.series` no command reads.  Every
float value comes from :meth:`SinhProduct.value_at`, which expands nothing.

:meth:`SinhProduct.same_function` tells whether two products are the same
function of x without expanding either, by the weights of their |arguments|
(:meth:`SinhProduct._normal_form`).  The kernel reads the same |arguments|
(:meth:`SinhProduct._arguments`) unmerged, since its power sums need no
weights.

All values are immutable after construction and every operation is a pure
function.  The caches, :func:`log_sinh_hurwitz`, :func:`odd_binomials` and
:func:`odd_binomial_rows`, memoise pure functions of an integer and hold
immutable tuples, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Union

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


@functools.cache
def odd_binomials(m: int) -> tuple[int, ...]:
    """Row ``2m - 1`` of Pascal's triangle at its odd places: ``C(2m - 1,
    2j - 1)`` for j = 1..m, which is ``(j / m) C(2m, 2j)``.  The rows an
    expansion to MAX_SERIES_ORDER reads, m <= 256, hold 2.1 MB."""
    n = 2 * m - 1
    row = [n]
    for k in range(1, n - 1, 2):  # C(n, k + 2) from C(n, k)
        row.append(row[-1] * (n - k) * (n - k - 1) // ((k + 1) * (k + 2)))
    return tuple(row)


@functools.cache
def odd_binomial_rows(half: int) -> tuple[tuple[int, ...], ...]:
    """The rows :func:`odd_binomials` of m = 1..half, in turn: what one
    expansion to order ``2 * half`` reads."""
    return tuple(odd_binomials(m) for m in range(1, half + 1))


def hurwitz_to_x(nums: list[int], den: int, q: int) -> tuple[list[int], int]:
    """Hurwitz coefficients in ``u = (x / (4 q))^2`` (:meth:`SinhProduct.hurwitz`)
    read as the coefficients of x^0, x^2, ..., x^(2h), ``h = len(nums) - 1``:
    integer numerators over one positive denominator, not reduced.  From the
    top down, x^(2m) carries (2h)! / (2m)! (16 q^2)^(h - m) over ``den (2h)!
    (16 q^2)^h``.  All zeros give zeros over 1."""
    if not any(nums):
        return [0] * len(nums), 1
    step = 16 * q * q
    top = 1
    out = [0] * len(nums)
    for m in range(len(nums) - 1, 0, -1):
        out[m] = nums[m] * top
        top *= 2 * m * (2 * m - 1) * step
    out[0] = nums[0] * top
    return out, den * top


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
        """Whether the product is a constant function of x: it is zero, or its
        numerator and denominator :meth:`_arguments` are the same multiset, so
        that its :meth:`_normal_form` has no weights and every power sum of
        :meth:`hurwitz` vanishes.  The normal form is not built, and
        :attr:`is_zero` is read only when a numerator argument is 0."""
        nums, dens = self._arguments()
        return sorted(nums) == sorted(dens) or (0 in nums and self.is_zero)

    def same_function(self, other: "SinhProduct") -> bool:
        """Whether the two products are the same function of x, for every x
        at once: both are zero, or their :meth:`dim` and their
        :meth:`_normal_form` are equal."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.dim() == other.dim() and self._normal_form() == other._normal_form()

    def _arguments(self) -> tuple[list[int], list[int]]:
        """The |arguments| of the numerator and of the denominator sinh's, one
        each per factor.  This is the one place that says how a cosh argument
        A enters: as 2|A| over |A|, since 2 cosh z = sinh 2z / sinh z."""
        factors = self.factors
        return ([abs(2 * n if d is None else n) for n, d, _ in factors],
                [abs(n if d is None else d) for n, d, _ in factors])

    def _weights(self) -> dict[int, int]:
        """``{a: w}``: each of the :meth:`_arguments` weighted +1 as a
        numerator and -1 as a denominator, with arguments 0 and zero weights
        dropped."""
        nums, dens = self._arguments()
        weights: dict[int, int] = {}
        for a in nums:
            weights[a] = weights.get(a, 0) + 1
        for a in dens:
            weights[a] = weights.get(a, 0) - 1
        return {a: w for a, w in weights.items() if a and w}

    def _normal_form(self) -> tuple[int, dict[int, int]]:
        """``(L, {a: w})``: the :meth:`_weights` with ``q`` and the arguments
        divided by their gcd, so that a nonzero product is :meth:`dim` times
        the product over ``a`` of ``(sinh(a y) / (a y))^w``, ``y = x / (4 L)``.

        The form is fixed by the function alone: with ``t = e^y``, ``sinh(a
        y) = t^{-a} (t^{2a} - 1) / 2``, ``t^{2a} - 1`` is the product of the
        cyclotomic ``Phi_d(t)`` over ``d | 2a``, and Möbius inversion gives
        the weights back from the multiplicities of the ``Phi_d``."""
        kept = self._weights()
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
        numerators over one positive integer denominator, not reduced: the
        output of :meth:`hurwitz` read in x by :func:`hurwitz_to_x`.  Odd
        coefficients are zero; a zero product gives zeros over 1.  A
        negative order raises ``ValueError``."""
        return hurwitz_to_x(*self.hurwitz(order), self.q)

    def hurwitz(self, order: int) -> tuple[list[int], int]:
        """The factorial-scaled (Hurwitz) coefficients of the product in ``u
        = (x / (4 q))^2``, for m = 0..order // 2, as integer numerators over
        one positive denominator, not reduced:

            product = sum_m (nums[m] / den) u^m / (2m)!.

        A zero product gives zeros over 1; a negative order raises
        ``ValueError``.

        With the :meth:`_arguments` over ``q``, each numerator argument
        ``a`` weighted ``w_a = +1`` and each denominator argument ``-1``,

            product = dim * exp(sum_{j>=1} gamma_j P_j u^j / (2j)!),
            P_j = sum_a w_a a^{2j},

        where ``dim`` is :meth:`dim` and ``gamma_j = nums[j-1] / G`` from
        :func:`log_sinh_hurwitz`.  Equal arguments are not merged, as they
        are in :meth:`_weights`: the ``P_j`` are the same integers without
        the merge.  A cosh argument ``A`` enters as the pair ``2A``, ``A``
        because ``log cosh z = sum (4^j - 1) gamma_j z^{2j} / (2j)!``, from
        ``sinh 2z = 2 sinh z cosh z``.  The exponential is taken on its
        Hurwitz coefficients ``E_m``, where ``product = dim * sum E_m u^m /
        (2m)!``:

            E_0 = 1,  E_m = sum_{j=1}^{m} C(2m-1, 2j-1) gamma_j P_j E_{m-j},

        from ``m e_m = sum_j j (gamma_j P_j / (2j)!) e_{m-j}`` for ``e_m = E_m
        / (2m)!`` and ``(j / m) C(2m, 2j) = C(2m-1, 2j-1)``
        (:func:`odd_binomial_rows`).  The recursion runs in integers:
        ``E_0..E_{m-1}`` are numerators over one running denominator ``D``;
        each new sum, over ``G D``, is reduced by one gcd, and when its
        denominator does not divide ``D`` the stored numerators are rescaled.
        So ``D`` is the lcm of the reduced denominators of ``E_0..E_m``,
        whatever ``G`` is.  The factorial scaling keeps ``G`` and ``D``
        small: for e7's eighth Cartan power at order 256 they have 363 and 18
        bits, where the lcm under the plain ``c_j`` and the running
        denominator of the plain ``e_m`` have 1484 and 1434.  A large
        ``gamma_j P_j`` meets a small ``E_{m-j}``, so the ``h^2 / 2``
        products (``h = order // 2``) have operands whose sizes add up to
        about the size of ``E_m``.  The output is ``num(dim) E_m`` over
        ``den(dim) D`` in integers (:meth:`_dim_ratio`); ``dim`` carried
        through the recursion as ``E_0`` would lengthen every product.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        half = order // 2
        scale, dim_den = self._dim_ratio()
        if scale == 0:
            return [0] * (half + 1), 1
        nums, dens = self._arguments()
        squares = [a * a for a in nums] + [a * a for a in dens]
        coeffs, g = log_sinh_hurwitz(half)
        powers = [1] * len(nums) + [-1] * len(dens)
        weighted = []  # gamma_j * P_j * G, an integer, for j = 1..half
        for c in coeffs:
            powers = list(map(operator.mul, powers, squares))
            weighted.append(c * sum(powers))
        exp = [1]  # E_i = exp[i] / delta
        delta = 1
        for row in odd_binomial_rows(half):
            num = sum(map(operator.mul, map(operator.mul, row, weighted), reversed(exp)))
            den = g * delta
            d = math.gcd(num, den)
            num //= d
            den //= d
            if delta % den:
                grow = den // math.gcd(delta, den)
                exp = [e * grow for e in exp]
                delta *= grow
            exp.append(num * (delta // den))
        return [scale * e for e in exp], dim_den * delta

    def dim(self) -> Fraction:
        """Value at x = 0: sign times the product of N_j/D_j (cosh factors
        contribute 2)."""
        return Fraction(*self._dim_ratio())

    def _dim_ratio(self) -> tuple[int, int]:
        """:meth:`dim` as a reduced integer numerator over a positive
        denominator."""
        num, den = self.sign, 1
        for n, d, _ in self.factors:
            if d is None:
                num *= 2
            else:
                num *= n
                den *= d
        common = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return num // common, den // common

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
