"""Universal quantum-dimension formulas on Vogel's plane.

Every formula here is a finite product of ratios sinh(n*x/4)/sinh(d*x/4) whose
coefficients n, d are integer-linear forms in the Vogel parameters (alpha,
beta, gamma).  Each formula -- adjoint, Y2(slot), X2, the n-th Cartan power
and the mixed Cartan product Z(k, l) -- is compiled once into a cached
:class:`FormProgram`: a sign, integer coefficient vectors for every sinh
numerator, denominator and cosh argument, the pole labels and a context
string.  A :class:`VogelParams` holds its coordinates over their common
denominator q, as integers computed once when the point is made.  Each
program generates, on first use, one function that computes all its forms at
such a point with the zero and unit coefficients folded in, most of them as a
multiple of t = alpha+beta+gamma plus a remainder, and every product
built at the point keeps those integers over the same q as its exact
arguments.  The builders return
:class:`~uqdim.series.SinhProduct` objects; the public ``qdim_*`` functions
expand them to exact series.  A vanishing denominator form raises
:class:`PoleAtParameters` before anything is expanded; no limits are taken
across parameter-space poles.

Cartan(n) and Z(k, l) are products of telescoping blocks, each a head plus a
progression; the paper's f(k, l) is Z's four heads.  Forms that appear once as
a numerator and once as a denominator (border terms of one long Weyl-formula
product) are cancelled symbolically, as coefficient vectors, when the program
is compiled -- identical forms cancel exactly, so this is simplification, not
limit-taking, and it keeps the product regular wherever the character is.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
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
        # An int, float or Fraction gives its reduced ratio directly; any
        # other input goes through Fraction first, subclasses too, since one
        # may override as_integer_ratio.
        na, da = (alpha if type(alpha) in _RATIO_TYPES else Fraction(alpha)).as_integer_ratio()
        nb, db = (beta if type(beta) in _RATIO_TYPES else Fraction(beta)).as_integer_ratio()
        nc, dc = (gamma if type(gamma) in _RATIO_TYPES else Fraction(gamma)).as_integer_ratio()
        q = math.lcm(da, db, dc)
        A, B, C = na * (q // da), nb * (q // db), nc * (q // dc)
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
# The exact types whose as_integer_ratio() VogelParams reads directly.
_RATIO_TYPES = (int, float, Fraction)


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


class _ProgramFields(NamedTuple):
    sign: int
    sinh: tuple[tuple[Form, Form, str], ...]
    cosh: tuple[tuple[Form, str], ...]
    context: str


class FormProgram(_ProgramFields):
    """One universal formula as data: ``sinh`` holds ``(num, den, label)``
    entries, ``cosh`` holds ``(arg, label)`` entries, and ``context`` names
    the formula in pole messages.  Programs are compiled once and cached.

    ``evaluate(point)`` gives the formula's factors at ``(A, B, C, q)``: a
    tuple of ``(N, D, label)``, the forms as integers over q, sinh ratios
    first and cosh factors (``D = None``) after them; each integer is the
    form's exact dot product with (A, B, C).  It is one function generated from the program's forms, with zero and unit
    coefficients folded in.  Vogel's formulas are written in t = alpha +
    beta + gamma, so the function writes each form as k*t plus a remainder
    where that takes fewer operations (``T2-C`` for (2, 2, 1), plain
    ``A-C`` for (1, 0, -1)) and computes ``T = A+B+C`` and ``T2 = T+T`` once
    if some form names them.  It uses only ``+``, ``-`` and integer ``*``.
    It is compiled on its first use and kept with the program, so importing
    the package compiles none."""

    @cached_property
    def evaluate(self) -> Callable[[tuple[int, int, int, int]], tuple]:
        forms = [form for num, den, _ in self.sinh for form in (num, den)]
        forms += [arg for arg, _ in self.cosh]
        codes = [_form_code(form) for form in forms]
        written = "".join(codes)
        # The codes in the order of forms, read left to right below.
        code = iter(codes)
        factors = [f"({next(code)}, {next(code)}, {label!r})" for _, _, label in self.sinh]
        factors += [f"({next(code)}, None, {label!r})" for _, label in self.cosh]
        source = ("def evaluate(point):\n"
                  "    A, B, C, _ = point\n"
                  + ("    T = A + B + C\n" if "T" in written else "")
                  + ("    T2 = T + T\n" if "T2" in written else "")
                  + f"    return ({''.join(f + ', ' for f in factors)})\n")
        namespace = {}
        exec(compile(source, f"<form program {self.context}>", "exec"), namespace)
        return namespace["evaluate"]


def _form_str(form: Form) -> str:
    """A form as a label: 2*alpha-gamma for (2, 0, -1)."""
    parts = []
    for coeff, name in zip(form, SLOTS):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else f'{mag}*'}{name}")
    return "".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _form_code(form: Form) -> str:
    """The form as code in A, B and C, written as k*t plus a remainder with
    k in -2..2 chosen for the fewest integer operations (plain on a tie).
    k*t is a term in ``T = A+B+C`` or ``T2 = T+T``: (2, 2, 1) gives 'T2-C'
    and (1, 0, -1) gives 'A-C'.  Cached, so each form is planned once."""
    a, b, c = form
    fewest = _sum_ops(form)
    best = 0
    # Only t and 2t take no operation shifted, and plain they take two and
    # five, so a plain form of one operation or none is never beaten.
    for k in (1, -1, 2, -2) if fewest > 1 else ():
        ops = _sum_ops((1 if k > 0 else -1, a - k, b - k, c - k))
        if ops < fewest:
            fewest, best = ops, k
    t_term = ((best > 0) - (best < 0), "T" if best * best == 1 else "T2")
    return _sum_code((t_term, (a - best, "A"), (b - best, "B"), (c - best, "C")))


def _sum_ops(coeffs: tuple[int, ...]) -> int:
    """The integer operations of _sum_code's sum with these coefficients:
    one per join and per multiple, and a negation if every term is -1."""
    ops, negation = -1, 1
    for coeff in coeffs:
        if coeff == -1:
            ops += 1
        elif coeff:
            ops += 1 if coeff == 1 else 2
            negation = 0
    return ops + negation if ops >= 0 else 0


def _sum_code(terms: tuple[tuple[int, str], ...]) -> str:
    """A sum of ``(coeff, name)`` terms as code.  Sorted as text, the
    positive terms come first ("+" sorts before "-"), and the negative
    multiples before the -1 terms, so a leading minus folds into its
    constant where it can."""
    parts = [("-" if coeff < 0 else "+") + (name if coeff * coeff == 1 else f"{abs(coeff)}*{name}")
             for coeff, name in terms if coeff]
    parts.sort()
    return "".join(parts).removeprefix("+") or "0"


def _materialize(program: FormProgram, v: VogelParams) -> SinhProduct:
    """The product of a program at one point of Vogel's plane."""
    point = v.point
    return SinhProduct(program.evaluate(point), point[3], program.sign, program.context)


def _forms_program(nums: tuple[Form, ...], dens: tuple[Form, ...], sign: int,
                   context: str, cosh: tuple[tuple[Form, str], ...] = ()) -> FormProgram:
    sinh = tuple((num, den, _form_str(den)) for num, den in zip(nums, dens, strict=True))
    return FormProgram(sign, sinh, cosh, context)


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
), 1, "qdim_x2", (((0, 1, 1), "t-alpha"), ((1, 0, 1), "t-beta"), ((1, 1, 0), "t-gamma")))


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
# telescoping blocks of the Cartan powers and mixed Cartan products
# ---------------------------------------------------------------------------

Row = tuple[Form, Form]
CancelledForms = tuple[tuple[Form, ...], tuple[Form, ...], int]


class _Block(NamedTuple):
    """A block of sinh ratios as data: a head and progression rows, each a
    (num, den) pair of forms at index 0.  ``at(n)`` lists the head with its
    numerator moved by n*head_step along alpha, then, for i = 1..n in turn,
    every row moved by i*step along alpha."""

    head: Row
    head_step: int
    rows: tuple[Row, ...]
    step: int

    def at(self, n: int) -> list[Row]:
        (a, b, c), den = self.head
        moves = range(self.step, self.step * (n + 1), self.step)  # i*step for i = 1..n
        return [((a + n * self.head_step, b, c), den)] + [
            ((x + s, y, z), (u + s, v, w)) for s in moves for (x, y, z), (u, v, w) in self.rows]


def _gamma_minus_beta(row: Row) -> Row:
    return tuple((a, b - c, c) for a, b, c in row)


# Cartan(n) is block b at index n, and Z(k, l) is a, b~, c1 and c2 at k + l,
# l, k + 2l and k; the f(k, l) of Z(k, l) is their four heads.  b holds the
# border roots of the n-th Cartan power of the adjoint, and a shares its
# head.  b~ is b at (alpha, beta, gamma - beta), head and rows computed from
# b's here, once.
_B = _Block(((3, 2, 2), (3, 2, 2)), -2,
            (((3, 2, 1), (1, 0, 1)), ((3, 1, 2), (1, 1, 0)), ((4, 2, 2), (0, 0, 0))), -1)
_A = _B._replace(rows=(((3, 0, 2), (1, 2, 0)), ((4, 1, 2), (0, 1, 0)), ((3, 2, 1), (1, 0, 1))))
_BTILDE = _B._replace(head=_gamma_minus_beta(_B.head), rows=tuple(map(_gamma_minus_beta, _B.rows)))
_C1 = _Block(((3, 1, 2), (3, 1, 2)), -1, (((4, 2, 2), (3, 0, 2)),), -1)
_C2 = _Block(((0, 1, 0), (0, 1, 0)), -1, (((-1, -2, 0), (0, 0, 0)),), 1)


def _cancel_forms(nums: tuple[Form, ...], dens: tuple[Form, ...]) -> CancelledForms:
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


def _blocks_forms(indexed: tuple[tuple[_Block, int], ...]) -> CancelledForms:
    """The cancelled forms of a product of blocks, each at its index: every
    head in turn, then every progression in turn."""
    listed = [block.at(n) for block, n in indexed]
    rows = [at[0] for at in listed] + [row for at in listed for row in at[1:]]
    return _cancel_forms(*zip(*rows))


def _cartan_forms(n: int) -> CancelledForms:
    return _blocks_forms(((_B, n),))


def _z_forms(k: int, l: int) -> CancelledForms:
    return _blocks_forms(((_A, k + l), (_BTILDE, l), (_C1, k + 2 * l), (_C2, k)))


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
    of Y2(beta): four blocks, each a head plus a progression (the heads are
    f(k, l)), with the cross-block telescoping pairs cancelled symbolically."""
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
    then replaced by its exact derivative along the family: its value at
    ``value0 + 1``, as forms are affine in the family parameter.  As many
    are replaced on each side, so every q cancels in one ``Fraction``.
    """
    value0 = Fraction(value0)
    program = _z_program(k, l)
    at0 = program.evaluate(params_at(value0).point)
    at1 = program.evaluate(params_at(value0 + 1).point)

    for (_, d0, label), (_, d1, _) in zip(at0, at1):
        if d0 == 0 and d1 == 0:
            raise PoleAtParameters(
                f"denominator {label} vanishes identically along "
                f"the {family_name} family"
            )
    if any(n0 == 0 and n1 == 0 for (n0, _, _), (n1, _, _) in zip(at0, at1)):
        return Fraction(0)

    zeros_num = sum(1 for n0, _, _ in at0 if n0 == 0)
    zeros_den = sum(1 for _, d0, _ in at0 if d0 == 0)
    if zeros_num > zeros_den:
        return Fraction(0)
    if zeros_num < zeros_den:
        raise PoleAtParameters(
            f"qdim_z(k={k}, l={l}) has a pole on the {family_name} family "
            f"at parameter {value0}"
        )
    num, den = program.sign, 1
    for (n0, d0, _), (n1, d1, _) in zip(at0, at1):
        num *= n0 or n1
        den *= d0 or d1
    return Fraction(num, den)


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
