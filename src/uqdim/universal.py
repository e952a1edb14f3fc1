"""Universal quantum-dimension formulas on Vogel's plane.

Every formula here is a finite product of ratios sinh(n*x/4)/sinh(d*x/4) whose
coefficients n, d are integer-linear forms in the Vogel parameters (alpha,
beta, gamma).  Each formula -- adjoint, Y2(slot), X2, the n-th Cartan power
and the mixed Cartan product Z(k, l) -- is compiled once into a cached
:class:`FormProgram`: a sign, integer coefficient vectors for every sinh
numerator, denominator and cosh argument, the pole labels and a context
string.  A :class:`VogelParams` holds its coordinates over their common
denominator q, as integers computed once when the point is made, so each form
costs one integer dot product, and every product built at the point keeps
those integers over the same q as its exact arguments.  The builders return
:class:`~uqdim.series.SinhProduct` objects; the public ``qdim_*`` functions
expand them to exact series.  A vanishing denominator form raises
:class:`PoleAtParameters` before anything is expanded; no limits are taken
across parameter-space poles.

The blocks of the mixed Cartan-product formula telescope: several linear
forms appear once as a numerator of one block and once as a denominator of
another (they are the surviving border terms of one long Weyl-formula
product).  Those pairs are cancelled symbolically, as coefficient vectors,
when the program is compiled -- identical forms cancel exactly, so this is
simplification, not limit-taking, and it keeps the assembled product regular
wherever the underlying character is.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import PoleAtParameters, UnknownAlgebra
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    Rational,
    SinhProduct,
)

SLOTS = ("alpha", "beta", "gamma")

# The order argument of VogelParams.permuted that moves a slot to the front.
_SLOT_ORDERS = {"alpha": (0, 1, 2), "beta": (1, 0, 2), "gamma": (2, 1, 0)}


def _slot_order(slot: str) -> tuple[int, int, int]:
    try:
        return _SLOT_ORDERS[slot]
    except KeyError:
        raise ValueError(f"slot must be one of {SLOTS}, got {slot!r}") from None


class VogelParams:
    """A point of Vogel's plane.  Points are projective and defined up to
    permutation of the three coordinates; t is their sum.  A point is stored
    once, as ``point = (A, B, C, q)``: (alpha, beta, gamma) = (A, B, C) / q
    over the lcm q of their reduced denominators, so a form f takes the exact
    value Fraction(f . (A, B, C), q), and two points are equal exactly when
    their ``point`` tuples are.  The coordinates are read-only properties.
    A point is immutable: assigning to a field raises AttributeError."""

    __slots__ = ("point",)
    point: tuple[int, int, int, int]

    def __init__(self, alpha: Rational, beta: Rational, gamma: Rational):
        a = alpha if type(alpha) is Fraction else Fraction(alpha)
        b = beta if type(beta) is Fraction else Fraction(beta)
        c = gamma if type(gamma) is Fraction else Fraction(gamma)
        da, db, dc = a.denominator, b.denominator, c.denominator
        q = math.lcm(da, db, dc)
        A, B, C = a.numerator * (q // da), b.numerator * (q // db), c.numerator * (q // dc)
        if not (A or B or C):
            raise ValueError("(alpha, beta, gamma) must not all vanish")
        _SET_POINT(self, (A, B, C, q))

    alpha = property(lambda self: Fraction(self.point[0], self.point[3]))
    beta = property(lambda self: Fraction(self.point[1], self.point[3]))
    gamma = property(lambda self: Fraction(self.point[2], self.point[3]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not VogelParams:
            return NotImplemented
        return self.point == other.point

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "VogelParams(alpha={!r}, beta={!r}, gamma={!r})".format(*self.as_tuple())

    def __reduce__(self):
        return VogelParams, self.as_tuple()

    @property
    def t(self) -> Fraction:
        A, B, C, q = self.point
        return Fraction(A + B + C, q)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        A, B, C, q = self.point
        return (Fraction(A, q), Fraction(B, q), Fraction(C, q))

    def permuted(self, order: tuple[int, int, int]) -> "VogelParams":
        """Coordinates reordered so position k holds the order[k]-th
        original coordinate (0 = alpha, 1 = beta, 2 = gamma)."""
        i, j, k = order
        point = self.point
        # q does not change, so the checks and the lcm of __init__ are skipped.
        permuted = object.__new__(VogelParams)
        _SET_POINT(permuted, (point[i], point[j], point[k], point[3]))
        return permuted

    def scaled(self, z: Rational) -> "VogelParams":
        """The projectively equivalent point (alpha/z, beta/z, gamma/z)."""
        z = Fraction(z)
        if z == 0:
            raise ValueError("scale must be nonzero")
        a, b, c = self.as_tuple()
        return VogelParams(a / z, b / z, c / z)


# The slot descriptor's setter, which passes by VogelParams.__setattr__ to
# fill a point under construction.
_SET_POINT = VogelParams.point.__set__


class AlgebraId(NamedTuple):
    """A simple Lie algebra named by its Dynkin family and rank."""

    family: str
    rank: int
    label: str


_ALGEBRA_RE = re.compile(r"^(sl|so|sp|g|f|e)\s*(\d+)$")

# For algebra_line: a classical family's rank n is at a*n + b on its line.
_CLASSICAL_LINES = {"A": ("sl", 1, 1), "B": ("so", 2, 1), "C": ("sp", 2, 0), "D": ("so", 2, 0)}
_EXCEPTIONAL_LINE = {("G", 2): Fraction(-2, 3), ("F", 4): 1, ("E", 6): 2, ("E", 7): 4, ("E", 8): 8}


def parse_algebra(name: str) -> AlgebraId:
    """Resolve names like "sl 6", "so12", "sp6", "g2", "e8" to family/rank.

    "sl N" is the algebra of the N-dimensional defining representation
    (A_{N-1}); "so N" maps to B or D by parity; "sp N" requires even N.
    """
    text = name.strip().lower()
    m = _ALGEBRA_RE.match(text)
    if not m:
        raise UnknownAlgebra(f"cannot parse algebra name {name!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "sl":
        if num < 2:
            raise UnknownAlgebra(f"sl {num} is not a simple Lie algebra name")
        return AlgebraId("A", num - 1, f"sl{num}")
    if kind == "so":
        if num >= 5 and num % 2 == 1:
            return AlgebraId("B", (num - 1) // 2, f"so{num}")
        if num >= 6 and num % 2 == 0:
            return AlgebraId("D", num // 2, f"so{num}")
        raise UnknownAlgebra(f"so {num} is outside the supported range (N >= 5)")
    if kind == "sp":
        if num >= 4 and num % 2 == 0:
            return AlgebraId("C", num // 2, f"sp{num}")
        raise UnknownAlgebra(f"sp {num} needs even N >= 4")
    family = kind.upper()
    if (family, num) in _EXCEPTIONAL_LINE:
        return AlgebraId(family, num, f"{kind}{num}")
    raise UnknownAlgebra(f"no exceptional algebra {name!r}")


def algebra_line(algebra: AlgebraId | str) -> tuple[str, Fraction, tuple[int, int, int]]:
    """(line, value, order) of the distinguished line through a simple Lie
    algebra; its point is ``line_params(line, value).permuted(order)``.  A_n,
    B_n, C_n, D_n are at N = n+1, 2n+1, 2n, 2n of sl, so, sp, so; G2, F4,
    E6-E8 are at n = -2/3, 1, 2, 4, 8 of exc, with 2n+4 moved to gamma."""
    if isinstance(algebra, str):
        algebra = parse_algebra(algebra)
    family, n = algebra.family, algebra.rank
    if family in _CLASSICAL_LINES:
        line, a, b = _CLASSICAL_LINES[family]
        return line, Fraction(a * n + b), (0, 1, 2)
    try:
        return "exc", Fraction(_EXCEPTIONAL_LINE[(family, n)]), (0, 2, 1)
    except KeyError:
        raise UnknownAlgebra(f"no Vogel parameters for {family}{n}") from None


def vogel_params(algebra: AlgebraId | str) -> VogelParams:
    """Vogel parameters of a simple Lie algebra, read from its line: alpha = -2
    (long roots of square 2, t = dual Coxeter number)."""
    line, value, order = algebra_line(algebra)
    return line_params(line, value).permuted(order)


def line_params(line: str, value: Rational) -> VogelParams:
    """A point of one of the distinguished lines of Vogel's plane, with
    alpha = -2.  "sl", "so", "sp" take the defining-representation dimension
    N; "exc" takes the line parameter n of the exceptional series."""
    value = Fraction(value)
    line = line.lower()
    if line == "sl":
        return VogelParams(-2, 2, value)
    if line == "so":
        return VogelParams(-2, 4, value - 4)
    if line == "sp":
        return VogelParams(-2, 1, value / 2 + 2)
    if line == "exc":
        return VogelParams(-2, 2 * value + 4, value + 4)
    raise ValueError(f"unknown line {line!r}; expected sl, so, sp or exc")


def exc_line_params(lam: Rational) -> VogelParams:
    """The exceptional line gamma = 2(alpha+beta) in the (lam, 1-lam, 2)
    parametrisation."""
    lam = Fraction(lam)
    return VogelParams(lam, 1 - lam, 2)


# ---------------------------------------------------------------------------
# scalar invariants
# ---------------------------------------------------------------------------


def dim_adjoint(v: VogelParams) -> Fraction:
    """Universal dimension of the adjoint representation (degree 0: q cancels)."""
    A, B, C, _ = v.point
    if A * B * C == 0:
        raise PoleAtParameters("dim formula has a pole: alpha*beta*gamma = 0 at "
                               "({}, {}, {})".format(*v.as_tuple()))
    return Fraction(-(A + 2 * B + 2 * C) * (B + 2 * A + 2 * C) * (C + 2 * A + 2 * B),
                    A * B * C)


def casimir_adjoint(v: VogelParams) -> Fraction:
    """Quadratic Casimir eigenvalue on the adjoint representation (2t)."""
    return 2 * v.t


def casimir_y2(v: VogelParams, slot: str) -> Fraction:
    """Quadratic Casimir eigenvalue on Y2(slot): 4t - 2*slot."""
    A, B, C, q = point = v.point
    return Fraction(4 * (A + B + C) - 2 * point[_slot_order(slot)[0]], q)


# ---------------------------------------------------------------------------
# form programs
# ---------------------------------------------------------------------------

# A linear form c_a*alpha + c_b*beta + c_g*gamma as its coefficient vector.
Form = tuple[int, int, int]


class FormProgram(NamedTuple):
    """One universal formula as data: ``sinh`` holds ``(num, den, label)``
    entries, ``cosh`` holds ``(arg, label)`` entries, and ``context`` names
    the formula in pole messages.  Programs are compiled once and cached."""

    sign: int
    sinh: tuple[tuple[Form, Form, str], ...]
    cosh: tuple[tuple[Form, str], ...]
    context: str


def _form_str(form: Form) -> str:
    parts = []
    for coeff, name in zip(form, SLOTS):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else f'{mag}*'}{name}")
    return "".join(parts) if parts else "0"


def _materialize(program: FormProgram, v: VogelParams) -> SinhProduct:
    """The product of a program at one point of Vogel's plane."""
    A, B, C, q = v.point
    factors = [(n0 * A + n1 * B + n2 * C, d0 * A + d1 * B + d2 * C, label)
               for (n0, n1, n2), (d0, d1, d2), label in program.sinh]
    if program.cosh:
        factors += [(f0 * A + f1 * B + f2 * C, None, label)
                    for (f0, f1, f2), label in program.cosh]
    return SinhProduct(factors, q, program.sign, program.context)


def _forms_program(nums: tuple[Form, ...], dens: tuple[Form, ...], sign: int,
                   context: str) -> FormProgram:
    sinh = tuple((num, den, _form_str(den)) for num, den in zip(nums, dens, strict=True))
    return FormProgram(sign, sinh, (), context)


# ---------------------------------------------------------------------------
# fixed-shape products (adjoint, Y2, X2)
# ---------------------------------------------------------------------------

# Rows are (num, den) sinh ratios, unzipped and labelled by den; Y2 is
# slot-first and compiled per slot.  Y2 and X2 use t = (1, 1, 1).
_ADJOINT_PROGRAM = _forms_program(*zip(
    ((2, 2, 1), (0, 0, 1)),
    ((2, 1, 2), (0, 1, 0)),
    ((1, 2, 2), (1, 0, 0)),
), -1, "qdim_adjoint")

_Y2_SLOT_FIRST = (
    ((2, 2, 2), (1, 0, 0)),     # 2t / alpha
    ((-2, -1, -2), (2, 0, 0)),  # beta - 2t / 2 alpha
    ((-2, -2, -1), (0, 1, 0)),  # gamma - 2t / beta
    ((1, 2, 1), (0, 0, 1)),     # beta + t / gamma
    ((1, 1, 2), (1, -1, 0)),    # gamma + t / alpha - beta
    ((1, -2, -2), (1, 0, -1)),  # 3 alpha - 2t / alpha - gamma
)

_X2_PROGRAM = _forms_program(*zip(
    ((1, 2, 2), (1, 0, 0)),  # 2t - alpha / alpha
    ((2, 1, 2), (0, 1, 0)),
    ((2, 2, 1), (0, 0, 1)),
    ((2, 1, 1), (2, 0, 0)),  # t + alpha / 2 alpha
    ((1, 2, 1), (0, 2, 0)),
    ((1, 1, 2), (0, 0, 2)),
), 1, "qdim_x2")._replace(cosh=(((0, 1, 1), "t-alpha"), ((1, 0, 1), "t-beta"),
                                  ((1, 1, 0), "t-gamma")))


@lru_cache(maxsize=None)
def _y2_program(slot: str) -> FormProgram:
    # Each slot order swaps at most two coordinates, so it is its own inverse
    # and maps a slot-first form back to (alpha, beta, gamma) as well.
    order = _slot_order(slot)
    rows = [tuple(tuple(form[i] for i in order) for form in row) for row in _Y2_SLOT_FIRST]
    return _forms_program(*zip(*rows), -1, f"qdim_y2({slot})")


def adjoint_product(v: VogelParams) -> SinhProduct:
    return _materialize(_ADJOINT_PROGRAM, v)


def y2_product(v: VogelParams, slot: str) -> SinhProduct:
    """Weyl-line character of Y2(slot), the Cartan square taken in the
    chosen parameter slot."""
    return _materialize(_y2_program(slot), v)


def x2_product(v: VogelParams) -> SinhProduct:
    """Weyl-line character of X2, the non-adjoint part of the antisymmetric
    square of the adjoint.  The doubled-argument ratios are cosh factors, so
    t - alpha etc. may vanish without creating a pole."""
    return _materialize(_X2_PROGRAM, v)


# ---------------------------------------------------------------------------
# block form generators for the mixed Cartan products
# ---------------------------------------------------------------------------

FormLists = tuple[list[Form], list[Form]]


def _f_forms(k: int, l: int) -> FormLists:
    nums = [
        (3 - 2 * k - 2 * l, 2, 2),
        (3 - 2 * l, 0, 2),
        (3 - k - 2 * l, 1, 2),
        (-k, 1, 0),
    ]
    dens = [(3, 2, 2), (3, 0, 2), (3, 1, 2), (0, 1, 0)]
    return nums, dens


def _a_forms(n: int) -> FormLists:
    nums, dens = [], []
    for i in range(1, n + 1):
        nums += [(3 - i, 0, 2), (4 - i, 1, 2), (3 - i, 2, 1)]
        dens += [(1 - i, 2, 0), (-i, 1, 0), (1 - i, 0, 1)]
    return nums, dens


def _b_forms(n: int) -> FormLists:
    """Border-root forms of the n-th Cartan power of the adjoint."""
    nums, dens = [], []
    for i in range(1, n + 1):
        nums += [(3 - i, 2, 1), (3 - i, 1, 2), (4 - i, 2, 2)]
        dens += [(1 - i, 0, 1), (1 - i, 1, 0), (-i, 0, 0)]
    return nums, dens


def _btilde_forms(n: int) -> FormLists:
    # The border forms at parameters (alpha, beta, gamma - beta): substitute
    # gamma -> gamma - beta in the coefficient vectors.
    nums, dens = _b_forms(n)
    sub = lambda f: (f[0], f[1] - f[2], f[2])
    return [sub(f) for f in nums], [sub(f) for f in dens]


def _c1_forms(n: int) -> FormLists:
    nums = [(4 - i, 2, 2) for i in range(1, n + 1)]
    dens = [(3 - i, 0, 2) for i in range(1, n + 1)]
    return nums, dens


def _c2_forms(n: int) -> FormLists:
    nums = [(i - 1, -2, 0) for i in range(1, n + 1)]
    dens = [(i, 0, 0) for i in range(1, n + 1)]
    return nums, dens


def _cancel_forms(nums: list[Form], dens: list[Form]
                  ) -> tuple[tuple[Form, ...], tuple[Form, ...], int]:
    """Remove numerator/denominator pairs that are identical linear forms
    (or negatives of each other, flipping the sign): sinh(F)/sinh(F) = 1 and
    sinh(-F)/sinh(F) = -1 identically, for the form F as a whole function.
    Each denominator cancels the first numerator left of its form, so the
    kept forms stay in their given order."""
    sign = 1
    left = Counter(nums)  # numerators not yet cancelled, by form
    kept_dens = []
    for d in dens:
        neg = (-d[0], -d[1], -d[2])
        if left[d]:
            left[d] -= 1
        elif left[neg]:
            left[neg] -= 1
            sign = -sign
        else:
            kept_dens.append(d)
    drop = Counter(nums) - left  # cancelled numerators, by form
    kept_nums = []
    for n in nums:
        if drop[n]:
            drop[n] -= 1
        else:
            kept_nums.append(n)
    return tuple(kept_nums), tuple(kept_dens), sign


def _cartan_forms(n: int) -> tuple[tuple[Form, ...], tuple[Form, ...], int]:
    nums, dens = _b_forms(n)
    nums = [(3 - 2 * n, 2, 2)] + nums
    dens = [(3, 2, 2)] + dens
    return _cancel_forms(nums, dens)


def _z_forms(k: int, l: int) -> tuple[tuple[Form, ...], tuple[Form, ...], int]:
    nums, dens = [], []
    for gen_nums, gen_dens in (
        _f_forms(k, l),
        _a_forms(k + l),
        _btilde_forms(l),
        _c1_forms(k + 2 * l),
        _c2_forms(k),
    ):
        nums += gen_nums
        dens += gen_dens
    return _cancel_forms(nums, dens)


@lru_cache(maxsize=None)
def _cartan_program(n: int) -> FormProgram:
    # n = 0 cancels to the empty product
    return _forms_program(*_cartan_forms(n), f"qdim_cartan_adjoint(n={n})")


@lru_cache(maxsize=None)
def _z_program(k: int, l: int) -> FormProgram:
    # k = l = 0 cancels to the empty product
    context = f"qdim_z(k={k}, l={l})" if k or l else "qdim_z"
    return _forms_program(*_z_forms(k, l), context)


def cartan_power_product(v: VogelParams, n: int) -> SinhProduct:
    """Weyl-line character of the n-th Cartan power of the adjoint."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _materialize(_cartan_program(n), v)


def z_product(v: VogelParams, k: int, l: int) -> SinhProduct:
    """Weyl-line character of the Cartan product of k adjoints and l copies
    of Y2(beta), assembled from its five blocks with the cross-block
    telescoping pairs cancelled symbolically."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    return _materialize(_z_program(k, l), v)


# ---------------------------------------------------------------------------
# public series operations
# ---------------------------------------------------------------------------


def qdim_adjoint(v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exact series of the adjoint quantum dimension; constant term is
    dim_adjoint and the expression is symmetric in (alpha, beta, gamma)."""
    return adjoint_product(v).series(order)


def qdim_cartan_adjoint(v: VogelParams, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exact series of the n-th Cartan power of the adjoint (n = 1 recovers
    qdim_adjoint)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return cartan_power_product(v, n).series(order)


def qdim_y2(v: VogelParams, slot: str, order: int = DEFAULT_ORDER) -> PowerSeries:
    return y2_product(v, slot).series(order)


def qdim_x2(v: VogelParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    return x2_product(v).series(order)


def qdim_z(v: VogelParams, k: int, l: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    return z_product(v, k, l).series(order)


# ---------------------------------------------------------------------------
# evaluation along one-parameter families
# ---------------------------------------------------------------------------


def z_dim_along_family(params_at: Callable[[Fraction], VogelParams],
                       value0: Fraction, k: int, l: int,
                       family_name: str = "one-parameter") -> Fraction:
    """x -> 0 value of the mixed Cartan product restricted to an affine
    one-parameter family of Vogel points, evaluated at the given parameter.

    At isolated points two different linear forms -- one numerator, one
    denominator -- can vanish together, leaving the printed product 0/0 even
    though its restriction to the family is regular; each vanishing form is
    then replaced by its exact derivative along the family (forms are affine
    in the family parameter, so the derivative is a difference of two
    evaluations; nothing is computed numerically).
    """
    value0 = Fraction(value0)
    program = _z_program(k, l)
    points = (params_at(value0).point, params_at(value0 + 1).point)

    def at(form: Form) -> tuple[Fraction, Fraction]:
        return tuple(Fraction(form[0] * A + form[1] * B + form[2] * C, q)
                     for A, B, C, q in points)

    den_vals = [(*at(den), label) for _, den, label in program.sinh]
    num_vals = [at(num) for num, _, _ in program.sinh]

    for at0, at1, label in den_vals:
        if at0 == 0 and at1 == at0:
            raise PoleAtParameters(
                f"denominator {label} vanishes identically along "
                f"the {family_name} family"
            )
    if any(at0 == 0 and at1 == at0 for at0, at1 in num_vals):
        return Fraction(0)

    zeros_num = sum(1 for at0, _ in num_vals if at0 == 0)
    zeros_den = sum(1 for at0, _, _ in den_vals if at0 == 0)
    if zeros_num > zeros_den:
        return Fraction(0)
    if zeros_num < zeros_den:
        raise PoleAtParameters(
            f"qdim_z(k={k}, l={l}) has a pole on the {family_name} family "
            f"at parameter {value0}"
        )
    acc = Fraction(program.sign)
    for at0, at1 in num_vals:
        acc *= at0 if at0 != 0 else (at1 - at0)
    for at0, at1, _ in den_vals:
        acc /= at0 if at0 != 0 else (at1 - at0)
    return acc


def z_dim_along_line(line: str, value0: Rational, perm: tuple[int, int, int],
                     k: int, l: int) -> Fraction:
    """x -> 0 value of qdim_z with permuted parameters running along one of
    the classical lines, evaluated at the given line parameter."""
    return z_dim_along_family(
        lambda n: line_params(line, n).permuted(perm),
        Fraction(value0), k, l, f"{line} line",
    )


def exc_line_dim(lam: Rational, k: int, l: int) -> Fraction:
    """Dimension (x -> 0 value) of the Cartan product of k adjoints and l
    copies of Y2(beta) on the exceptional line, parametrised as
    (lam, 1 - lam, 2).

    Evaluation is along the line, so the result is the exceptional-series
    dimension function of lam, defined away from its genuine poles.
    """
    return z_dim_along_family(exc_line_params, Fraction(lam), k, l,
                              "exceptional line")
