import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from uqdim import (
    DivisionByZeroSeries,
    PoleAtParameters,
    PowerSeries,
    SinhProduct,
    VogelParams,
    ZeroDenominatorForm,
    sinh_ratio_series,
    sinh_series,
    vogel_params,
)
from uqdim.crosscheck import SPECIALIZATION_ALGEBRAS
from uqdim.errors import FloatEvaluationError
from uqdim.roots import build_root_system, weyl_qdim_product
from uqdim.series import (
    cosh_series,
    hurwitz_to_x,
    log_sinh_hurwitz,
    odd_binomial_rows,
    odd_binomials,
    tangent_numbers,
)
from uqdim.universal import (
    adjoint_product,
    cartan_power_product,
    parse_algebra,
    x2_product,
    y2_product,
    z_product,
)

from conftest import rand_fraction, reference_lhs, reference_rhs


def exp_series(order):
    """Independent oracle: Taylor series of e^x."""
    return PowerSeries([F(1, math.factorial(m)) for m in range(order + 1)])


class TestArithmetic:
    def test_add(self):
        a = PowerSeries([1, 1])
        b = PowerSeries([2, 3])
        assert a + b == PowerSeries([3, 4])

    def test_add_zero_identity(self):
        a = PowerSeries([F(1, 3), 2, F(-5, 7)])
        assert a + PowerSeries.zero(2) == a

    def test_add_truncates_to_min_order(self):
        a = PowerSeries([1, 0, 1], order=4)
        b = PowerSeries([0, 0, -1], order=2)
        total = a + b
        assert total.order == 2
        assert total == PowerSeries([1], order=2)

    def test_mul(self):
        a = PowerSeries([1, 1])
        b = PowerSeries([1, -1])
        assert a * b == PowerSeries([1, 0])
        assert (PowerSeries([1, 1], order=2) * PowerSeries([1, -1], order=2)
                == PowerSeries([1, 0, -1]))

    def test_mul_one_identity(self):
        a = PowerSeries([F(2, 3), -1, F(1, 5)])
        assert a * PowerSeries.one(2) == a

    def test_mul_exponential_oracle(self):
        order = 10
        e_plus = exp_series(order)
        e_minus = PowerSeries([(-1) ** m * c for m, c in enumerate(e_plus.coefficients)])
        assert e_plus * e_minus == PowerSeries.one(order)

    def test_div_sinh_over_x(self):
        a = PowerSeries([0, 1, 0, F(1, 6)])
        x = PowerSeries([0, 1], order=3)
        assert a / x == PowerSeries([1, 0, F(1, 6)])

    def test_div_self_is_one(self):
        a = PowerSeries([F(3, 7), 1, 4, -2])
        assert a / a == PowerSeries.one(3)

    def test_div_geometric(self):
        one = PowerSeries.one(3)
        b = PowerSeries([1, -1], order=3)
        assert one / b == PowerSeries([1, 1, 1, 1])

    def test_div_valuation_error(self):
        a = PowerSeries([1, 1], order=3)
        b = PowerSeries([0, 1], order=3)
        with pytest.raises(DivisionByZeroSeries):
            a / b

    def test_div_by_zero_series(self):
        with pytest.raises(DivisionByZeroSeries):
            PowerSeries([1]) / PowerSeries.zero(4)

    def test_mul_div_roundtrip(self):
        rng = random.Random(42)
        for _ in range(30):
            a = PowerSeries([rand_fraction(rng, 9) for _ in range(7)])
            b = PowerSeries([rand_fraction(rng, 9) for _ in range(7)])
            assert (a * b) / b == a

    def test_mul_div_roundtrip_with_valuation(self):
        a = PowerSeries([0, 0, 1, 2], order=6)
        b = PowerSeries([0, 3, 1], order=6)
        q = (a * b) / b
        assert q.coefficients == a.coefficients[: q.order + 1]

    def test_scale_x(self):
        a = PowerSeries([1, 2, 3])
        assert a.scale_x(2) == PowerSeries([1, 4, 12])
        assert a.scale_x(F(1, 2)) == PowerSeries([1, 1, F(3, 4)])

    def test_coefficient_length_invariant(self):
        a = PowerSeries([5], order=7)
        assert len(a.coefficients) == a.order + 1 == 8


class TestEval:
    def test_eval_linear(self):
        assert PowerSeries([1, 1]).eval_at(0.5) == 1.5

    def test_eval_at_zero_is_constant_term(self):
        a = PowerSeries([F(7, 2), 9, -4])
        assert a.eval_at(0.0) == 3.5

    def test_eval_against_closed_form(self):
        series = sinh_ratio_series(2, 1, 20)
        assert abs(series.eval_at(0.1) - 2 * math.cosh(0.025)) <= 1e-12


class TestSinhRatio:
    def test_equal_arguments_give_one(self):
        assert sinh_ratio_series(1, 1, 4) == PowerSeries.one(4)
        rng = random.Random(3)
        for _ in range(20):
            c = rand_fraction(rng)
            assert sinh_ratio_series(c, c, 8) == PowerSeries.one(8)

    def test_doubling_example(self):
        # sinh(2u)/sinh(u) = 2*cosh(u) with u = x/4
        assert sinh_ratio_series(2, 1, 4) == PowerSeries(
            [2, 0, F(1, 16), 0, F(1, 3072)]
        )

    def test_zero_numerator(self):
        assert sinh_ratio_series(0, 3, 4) == PowerSeries.zero(4)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorForm):
            sinh_ratio_series(1, 0, 4)

    def test_constant_term(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b = rand_fraction(rng), rand_fraction(rng)
            assert sinh_ratio_series(a, b, 6).constant_term == a / b

    def test_telescoping(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            lhs = sinh_ratio_series(a, b, 10) * sinh_ratio_series(b, c, 10)
            assert lhs == sinh_ratio_series(a, c, 10)

    def test_oddness(self):
        rng = random.Random(9)
        for _ in range(20):
            a, b = rand_fraction(rng), rand_fraction(rng)
            assert sinh_ratio_series(-a, b, 10) == -sinh_ratio_series(a, b, 10)

    def test_even_function(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = rand_fraction(rng), rand_fraction(rng)
            series = sinh_ratio_series(a, b, 11)
            assert all(series[m] == 0 for m in range(1, 12, 2))

    def test_cosh_series_matches_ratio(self):
        rng = random.Random(13)
        for _ in range(10):
            c = rand_fraction(rng)
            assert 2 * cosh_series(c, 12) == sinh_ratio_series(2 * c, c, 12)


class TestSinhProduct:
    def test_drops_trivial_factors(self):
        p = SinhProduct([(3, 3, ""), (2, 1, "")], 1)
        assert len(p) == 1
        assert p.series(6) == sinh_ratio_series(2, 1, 6)

    def test_zero_numerator_zeroes_product(self):
        p = SinhProduct([(0, 2, ""), (5, 1, "")], 1)
        assert p.is_zero
        assert p.series(4) == PowerSeries.zero(4)
        assert p.value_at(0.7) == 0.0

    def test_is_constant(self):
        # At (-4, 1, 1) the second Cartan power's |arguments| 8, 5, 5, 1, 1, 4
        # over 1, 1, 4, 5, 5, 8 cancel: it is the constant -1.
        power = cartan_power_product(VogelParams(-4, 1, 1), 2)
        assert power.is_constant
        assert power.series(16) == PowerSeries.constant(-1, 16)
        assert SinhProduct([], 1, -1).is_constant
        assert SinhProduct([(0, 2, ""), (5, 1, "")], 1).is_constant  # zero
        # 2 cosh(3u) sinh(3u) / sinh(6u) = 1
        assert SinhProduct([(3, None, ""), (3, 6, "")], 1).is_constant
        assert not SinhProduct([(3, None, ""), (6, 3, "")], 1).is_constant
        assert not cartan_power_product(vogel_params("e7"), 8).is_constant

    def test_is_constant_is_an_empty_normal_form(self):
        # is_constant compares sorted |arguments| and builds no normal form;
        # it must say what the normal form says, on every program at small
        # integer points (where many products are constant), at (-4, 1, 1)
        # and the algebra points, and on random factors with cosh ones.
        rng = random.Random(32)
        points = [VogelParams(-4, 1, 1)] + [vogel_params(name) for name in SPECIALIZATION_ALGEBRAS]
        triples = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(60)]
        points += [VogelParams(*triple) for triple in triples if any(triple)]
        builds = [adjoint_product, x2_product]
        builds += [lambda v, s=slot: y2_product(v, s) for slot in ("alpha", "beta", "gamma")]
        builds += [lambda v, n=n: cartan_power_product(v, n) for n in range(9)]
        builds += [lambda v, k=k, l=l: z_product(v, k, l) for k in range(4) for l in range(4)]
        products = []
        for v in points:
            for build in builds:
                try:
                    products.append(build(v))
                except (PoleAtParameters, ValueError):
                    pass
        for _ in range(400):
            factors = [(rng.randint(-6, 6), rng.choice([None, rng.randint(1, 6)]), "")
                       for _ in range(rng.randint(0, 5))]
            products.append(SinhProduct(factors, rng.randint(1, 3)))
        kinds = Counter()
        for product in products:
            expected = product.is_zero or not product._normal_form()[1]
            assert product.is_constant == expected, product.factors
            kinds[expected] += 1
        assert kinds[True] > 300 and kinds[False] > 1000, kinds

    def test_normal_form(self):
        # 2 cosh(3u) sinh(5u) / sinh(10u) over q = 6: weights 6: +1, 3: -1,
        # 5: +1, 10: -1, all divided by gcd(6, 3, 5, 6, 10) = 1.
        p = SinhProduct([(3, None, ""), (5, 10, "")], 6)
        assert p._normal_form() == (6, {6: 1, 3: -1, 5: 1, 10: -1})
        # 2 cosh(0) and the zero-weight pair 4, 4 leave nothing; L is then 1.
        p = SinhProduct([(0, None, ""), (4, 2, ""), (2, 4, "")], 12)
        assert p._normal_form() == (1, {})
        # Kept arguments 4 and 8 over 12 reduce to 1 and 2 over 3, whatever
        # the zero-weight argument 6 would have contributed to the gcd.
        p = SinhProduct([(8, 4, ""), (6, 2, ""), (2, 6, "")], 12)
        assert p._normal_form() == (3, {2: 1, 1: -1})

    def test_pole_reported_with_label(self):
        with pytest.raises(PoleAtParameters, match="beta-2\\*alpha"):
            SinhProduct([(1, 0, "beta-2*alpha")], 1)

    def test_dim_and_value_agree_at_zero(self):
        p = SinhProduct([(3, 2, ""), (-5, 4, "")], 1, sign=-1)
        assert p.dim() == F(15, 8)
        assert p.value_at(0.0) == float(F(15, 8))

    def test_cosh_factor_has_no_pole(self):
        p = SinhProduct([(0, None, ""), (3, 1, "")], 1)
        assert p.dim() == 6
        assert p.series(4) == 2 * sinh_ratio_series(3, 1, 4)

    def test_sign_flip(self):
        p = SinhProduct([(4, 2, "")], 1, sign=-1)
        assert p.dim() == -2
        assert p.series(4) == -sinh_ratio_series(4, 2, 4)

    def test_bad_denominator_or_sign(self):
        for q in (0, -3):
            with pytest.raises(ValueError, match="q must be positive"):
                SinhProduct([(1, 2, "")], q)
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="sign must be"):
                SinhProduct([(1, 2, "")], 1, sign)

    def test_stores_factors_and_arguments(self):
        p = SinhProduct([(5, 5, "a"), (1, 2, "b"), (3, None, "c")], 4, -1, "ctx")
        assert p.factors == ((1, 2, "b"), (3, None, "c"))
        assert (p.q, p.sign, p.context) == (4, -1, "ctx")

    def test_value_at_overflow_is_typed(self):
        # math.sinh(250) is finite but the product overflows; math.sinh(2500)
        # raises OverflowError; both must give the typed error.
        p = SinhProduct([(40, 1, "")] * 3, 1, context="ctx")
        with pytest.raises(FloatEvaluationError, match="ctx at x=25"):
            p.value_at(25.0)
        with pytest.raises(FloatEvaluationError):
            p.value_at(250.0)
        with pytest.raises(FloatEvaluationError):
            SinhProduct([(4, None, "")], 1).value_at(1000.0)

    def test_value_at_underflow_gives_limit(self):
        # e8's adjoint is -sinh(40u) sinh(48u) sinh(62u) / (sinh(20u) sinh(12u)
        # sinh(-2u)) with u = x/4.  At the smallest float, 40u and 20u are 10
        # and 5 of its units and 48u and 12u are 12 and 3, so those ratios are
        # exact; math.sinh(-2u) is 0, and that ratio contributes its limit -31.
        p = adjoint_product(vogel_params("e8"))
        assert math.sinh(-2 * 5e-324 / 4) == 0.0
        assert p.value_at(5e-324) == 248.0 == (-1) * 2 * 4 * (-31)

    @pytest.mark.parametrize("x", [2.5e-323, 1e-310, 2.3e-308])
    def test_value_at_subnormal_argument_gives_limit(self, x):
        # Some sinh argument of e8's adjoint is subnormal at these x, where
        # sinh(a) / sinh(b) has lost bits; each such ratio is its limit N/D.
        p = adjoint_product(vogel_params("e8"))
        assert p.value_at(x) == 248.0

    @pytest.mark.parametrize("name", ["e8", "g2", "sl6", "f4"])
    def test_value_at_normal_arguments_keep_sinh_ratios(self, name):
        p = adjoint_product(vogel_params(name))
        rng = random.Random(name)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0)
            expected = float(p.sign)
            for n, d, _ in p.factors:
                if d is None:
                    expected *= 2.0 * math.cosh(n / p.q * x / 4.0)
                else:
                    expected *= math.sinh(n / p.q * x / 4.0) / math.sinh(d / p.q * x / 4.0)
            assert p.value_at(x) == expected

    def test_value_at_sinh_overflow(self):
        # math.sinh(750) overflows; sinh(750) / sinh(250) is about e^500.
        p = SinhProduct([(6, -2, "")], 1, sign=-1)
        with pytest.raises(OverflowError):
            math.sinh(750.0)
        assert p.value_at(500.0) == pytest.approx(math.exp(500), rel=1e-15)
        assert p.value_at(-500.0) == p.value_at(500.0)
        assert SinhProduct([(3, 1, "")], 1).value_at(1000.0) == pytest.approx(
            math.exp(500), rel=1e-15)

    def test_value_at_non_finite_x(self):
        p = SinhProduct([(3, 1, "")], 1)
        for x in (math.nan, math.inf):
            with pytest.raises(FloatEvaluationError):
                p.value_at(x)

    def test_finite_value_unchanged(self):
        p = SinhProduct([(3, 1, ""), (2, None, "")], 1, sign=-1)
        expected = -1.0 * (math.sinh(0.75) / math.sinh(0.25)) * (2.0 * math.cosh(0.5))
        assert p.value_at(1.0) == expected


class TestSameFunction:
    def test_cosh_against_its_sinh_ratio(self):
        # 2 cosh(3u) = sinh(6u) / sinh(3u)
        cosh = SinhProduct([(3, None, "")], 1)
        assert cosh.same_function(SinhProduct([(6, 3, "")], 1))
        assert cosh.same_function(SinhProduct([(30, 15, "")], 5))  # over another q
        assert not cosh.same_function(SinhProduct([(6, 3, "")], 5))

    def test_negated_argument_with_flipped_sign(self):
        p = SinhProduct([(3, 2, ""), (5, 7, "")], 4)
        assert p.same_function(SinhProduct([(-3, 2, ""), (5, 7, "")], 4, -1))
        assert p.same_function(SinhProduct([(3, -2, ""), (-5, -7, "")], 4, -1))

    def test_reordered_factors(self):
        factors = [(3, 2, "a"), (5, None, "b"), (1, 7, "c")]
        p = SinhProduct(factors, 6, -1)
        assert p.same_function(SinhProduct(factors[::-1], 6, -1, "other"))

    def test_zero_products(self):
        zero = SinhProduct([(0, 2, ""), (5, 1, "")], 1)
        assert zero.same_function(SinhProduct([(0, 7, "")], 3, -1))
        assert not zero.same_function(SinhProduct([(5, 1, "")], 1))
        assert not SinhProduct([(5, 1, "")], 1).same_function(zero)

    def test_opposite_sign(self):
        factors = [(3, 2, ""), (5, None, "")]
        p, minus = SinhProduct(factors, 1), SinhProduct(factors, 1, -1)
        assert p._normal_form() == minus._normal_form()
        assert not p.same_function(minus)

    def test_equal_dimension_different_function(self):
        # sinh(6u)/sinh(2u) and sinh(3u)/sinh(u) both give 3 at x = 0.
        p, other = SinhProduct([(6, 2, "")], 1), SinhProduct([(3, 1, "")], 1)
        assert p.dim() == other.dim()
        assert not p.same_function(other)

    def test_weyl_argument_changed_by_one(self):
        rs = build_root_system("E", 8)
        weyl = weyl_qdim_product(rs, rs.weight(rs.theta))
        (n, d, label), *rest = weyl.factors
        changed = SinhProduct([(n + 1, d, label), *rest], weyl.q, weyl.sign)
        assert weyl.same_function(SinhProduct(weyl.factors, weyl.q, weyl.sign))
        assert not weyl.same_function(changed)

    def test_y2_alpha_against_z01(self):
        # Y2(beta) is Z(0, 1) and Y2(alpha) is the second Cartan power;
        # at a generic point the first two agree and Y2(alpha) differs.
        rng = random.Random(2016)
        while True:
            v = VogelParams(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))
            try:
                z01, y2a, y2b = z_product(v, 0, 1), y2_product(v, "alpha"), y2_product(v, "beta")
            except PoleAtParameters:
                continue
            break
        assert z01.same_function(y2b)
        assert not z01.same_function(y2a)
        assert y2a.same_function(cartan_power_product(v, 2))

    @pytest.mark.parametrize("name", SPECIALIZATION_ALGEBRAS)
    def test_cartan_powers_against_weyl(self, name):
        # Cartan power n is the Weyl module n theta, not (n + 1) theta.
        aid = parse_algebra(name)
        v = vogel_params(aid)
        rs = build_root_system(aid.family, aid.rank)
        weyl = [weyl_qdim_product(rs, rs.weight(tuple(m * c for c in rs.theta)))
                for m in range(12)]
        for n in range(1, 11):
            power = cartan_power_product(v, n)
            assert power.same_function(weyl[n]), n
            assert not power.same_function(weyl[n + 1]), n


# Products are drawn as integer factors over one random q.  The references
# read each factor as Fraction(N, q), Fraction(D, q), on its own.


def reference_series(factors, q, sign, order):
    """Independent oracle for SinhProduct.series: each factor expanded on its
    own from the sinh and cosh Taylor series, divided and multiplied as
    truncated series."""
    acc = PowerSeries.one(order)
    for n, d, _ in factors:
        if d is None:
            acc = acc * (2 * cosh_series(F(n, q), order))
        else:
            acc = acc * (sinh_series(F(n, q), order + 1) / sinh_series(F(d, q), order + 1))
    return acc if sign > 0 else -acc


def random_q(rng):
    """A common denominator: a small one, or 2**k times a small odd number
    with k up to 60, as Fraction(float) arguments give (a uniform float
    draw has k of 49 or more)."""
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(1, 12)
    k = rng.randint(49, 60) if roll < 0.7 else rng.randint(0, 60)
    return 2 ** k * rng.randrange(1, 12, 2)


def random_arg(rng, q):
    """A nonzero integer argument over q, at most 12 in absolute value as a
    fraction: half of the draws are small rationals s/t with t | q."""
    while True:
        if rng.random() < 0.5:
            t = rng.choice([t for t in range(1, 13) if q % t == 0])
            n = rng.randint(-12, 12) * (q // t)
        else:
            n = rng.randint(-12 * q, 12 * q)
        if n:
            return n


def random_factor(rng, q):
    """A factor over q drawn to hit the kernel's special cases: negative
    arguments, zero numerators, N == D, N == -D and cosh factors at 0."""
    label = rng.choice(["", "d"])
    roll = rng.random()
    if roll < 0.15:
        return (rng.choice([0, random_arg(rng, q)]), None, label)
    den = random_arg(rng, q)
    if roll < 0.2:
        return (0, den, label)
    if roll < 0.3:
        return (den, den, label)
    if roll < 0.35:
        return (-den, den, label)
    return (random_arg(rng, q), den, label)


def random_product(rng, most):
    """(factors, q, sign) with up to `most` factors."""
    q = random_q(rng)
    factors = [random_factor(rng, q) for _ in range(rng.randint(0, most))]
    return factors, q, rng.choice([1, -1])


class TestKernelAgainstReference:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 17, 20])
    def test_random_products(self, order):
        rng = random.Random(1000 + order)
        for trial in range(40):
            factors, q, sign = random_product(rng, 8)
            product = SinhProduct(factors, q, sign)
            assert product.series(order) == reference_series(factors, q, sign, order), (
                trial, factors, q, sign)

    def test_random_products_order_64(self):
        rng = random.Random(64)
        for _ in range(4):
            factors, q, sign = random_product(rng, 6)
            product = SinhProduct(factors, q, sign)
            assert product.series(64) == reference_series(factors, q, sign, 64)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_empty_product(self, sign):
        for order in (0, 1, 2, 3, 17):
            expected = PowerSeries.constant(sign, order)
            assert SinhProduct([], 1, sign).series(order) == expected
            assert reference_series([], 1, sign, order) == expected

    def test_cosh_at_zero_and_trivial_ratio(self):
        # 2 cosh(0), sinh(5/3 u)/sinh(5/3 u) and sinh(-2u)/sinh(2u) over q = 3
        factors = [(0, None, ""), (5, 5, ""), (-6, 6, "")]
        assert (SinhProduct(factors, 3, -1).series(20)
                == reference_series(factors, 3, -1, 20) == PowerSeries.constant(2, 20))

    def test_zero_numerator(self):
        # 3/2 over 1, 0 over 7/5 and 2 cosh(1) over q = 5
        factors = [(15, 10, ""), (0, 7, ""), (5, None, "")]
        assert SinhProduct(factors, 5).series(17) == PowerSeries.zero(17)
        assert reference_series(factors, 5, 1, 17) == PowerSeries.zero(17)

    def test_e8_cartan_power_10(self):
        product = cartan_power_product(vogel_params("e8"), 10)
        assert product.series(64) == reference_series(
            product.factors, product.q, product.sign, 64)

    def test_odd_coefficients_vanish(self):
        rng = random.Random(21)
        q = random_q(rng)
        series = SinhProduct([random_factor(rng, q) for _ in range(6)], q).series(21)
        assert series.order == 21
        assert all(series[m] == 0 for m in range(1, 22, 2))

    def test_negative_order(self):
        with pytest.raises(ValueError):
            SinhProduct([(2, 1, "")], 1).series(-1)


class TestEvenCoefficients:
    """even_coefficients(order) is the kernel's output: numerators of x^0,
    x^2, ... over one positive denominator, checked against the Fraction
    recursion, and series(order) is its view."""

    @staticmethod
    def check(product, order, where):
        nums, den = product.even_coefficients(order)
        reference = fraction_recursion_series(product, order)
        assert type(den) is int and den > 0, where
        assert len(nums) == order // 2 + 1, where
        assert all(type(n) is int for n in nums), where
        assert [F(n, den) for n in nums] == list(reference.coefficients[::2]), where
        assert not any(reference.coefficients[1::2]), where
        assert product.series(order) == reference, where

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_random_products(self, order):
        rng = random.Random(7000 + order)
        kinds = set()
        for trial in range(40 if order < 64 else 10):
            factors, q, sign = random_product(rng, 8)
            product = SinhProduct(factors, q, sign)
            kinds.update("cosh" if d is None else "zero" if n == 0 else
                         "minus" if n == -d else "ratio" for n, d, _ in product.factors)
            self.check(product, order, (trial, factors, q, sign))
        assert {"cosh", "ratio"} <= kinds

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_special_products(self, order):
        products = [
            SinhProduct([], 1, -1),
            SinhProduct([(0, None, ""), (5, 5, ""), (-6, 6, "")], 3, -1),
            SinhProduct([(-4, 4, ""), (3, None, ""), (-7, 2, "")], 6),
            cartan_power_product(vogel_params("e8"), 3),
        ]
        for product in products:
            self.check(product, order, product.factors)

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_zero_product(self, order):
        product = SinhProduct([(15, 10, ""), (0, 7, ""), (5, None, "")], 5)
        assert product.even_coefficients(order) == ([0] * (order // 2 + 1), 1)
        self.check(product, order, "zero")

    def test_negative_order(self):
        with pytest.raises(ValueError):
            SinhProduct([(2, 1, "")], 1).even_coefficients(-1)


class TestHurwitz:
    """hurwitz(order) gives the Hurwitz coefficients in u = (x / (4 q))^2 over
    the product's own q: nums[m] / (den (2m)! (16 q^2)^m) is the coefficient
    of x^(2m), against the Fraction recursion, and even_coefficients(order)
    is hurwitz_to_x of that output."""

    @staticmethod
    def check(product, order, where):
        nums, den = product.hurwitz(order)
        reference = fraction_recursion_series(product, order)
        assert type(den) is int and den > 0, where
        assert len(nums) == order // 2 + 1, where
        assert all(type(n) is int for n in nums), where
        step = 16 * product.q ** 2
        assert [F(n, den * math.factorial(2 * m) * step ** m) for m, n in enumerate(nums)] == (
            list(reference.coefficients[::2])), where
        assert product.even_coefficients(order) == hurwitz_to_x(nums, den, product.q), where

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_random_products(self, order):
        rng = random.Random(7000 + order)
        for trial in range(40 if order < 64 else 10):
            factors, q, sign = random_product(rng, 8)
            self.check(SinhProduct(factors, q, sign), order, (trial, factors, q, sign))

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_special_products(self, order):
        products = [
            SinhProduct([], 1, -1),
            SinhProduct([(0, None, ""), (5, 5, ""), (-6, 6, "")], 3, -1),
            SinhProduct([(-4, 4, ""), (3, None, ""), (-7, 2, "")], 6),
            cartan_power_product(vogel_params("e8"), 3),
        ]
        for product in products:
            self.check(product, order, product.factors)

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_normal_form_gcd_above_one(self, order):
        # sinh(2u) / sinh(u) times 2 cosh(u), u = x / 12 with q = 12: the
        # weights {8: 2, 4: -2} and q share the gcd 4, so the normal form is
        # over L = 3 while the output is over q.
        product = SinhProduct([(8, 4, ""), (4, None, "")], 12)
        assert product._normal_form() == (3, {2: 2, 1: -2})
        assert product._weights() == {8: 2, 4: -2}
        self.check(product, order, "gcd 4")

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 20, 64])
    def test_zero_product(self, order):
        product = SinhProduct([(15, 10, ""), (0, 7, ""), (5, None, "")], 5)
        assert product.hurwitz(order) == ([0] * (order // 2 + 1), 1)
        self.check(product, order, "zero")

    def test_negative_order(self):
        with pytest.raises(ValueError):
            SinhProduct([(2, 1, "")], 1).hurwitz(-1)


def reference_residual(identity, v, order):
    """LHS - RHS of an identity from PowerSeries arithmetic, with the
    plethysms written out in conftest."""
    return reference_lhs(identity, v, order) - reference_rhs(identity, v, order)


class TestIntegerResidual:
    """The integer residual of an identity against reference_residual, as a
    zero residual and, with s3's adjoint multiplicity broken to 1, a nonzero
    one."""

    @staticmethod
    def points(identity, count, seed):
        from uqdim.identities import _rhs_products
        from uqdim.universal import adjoint_product

        from conftest import sample_regular_points

        return sample_regular_points(
            seed, count, lambda v: (adjoint_product(v), _rhs_products(identity, v)))

    @staticmethod
    def check(identity, v, order):
        from uqdim.identities import _residual

        expected = reference_residual(identity, v, order)
        nums, den = _residual(identity, v, order)
        assert den > 0 and len(nums) == order // 2 + 1
        assert [F(n, den) for n in nums] == list(expected.coefficients[::2])
        return expected

    @pytest.mark.parametrize("order", [1, 2, 17, 40])
    @pytest.mark.parametrize("identity", ["s2", "a2", "s3"])
    def test_zero_residual(self, identity, order):
        for v in self.points(identity, 2 if order == 40 else 4, order):
            assert self.check(identity, v, order).is_zero, v

    @pytest.mark.parametrize("order", [1, 2, 17, 40])
    def test_broken_residual(self, monkeypatch, order):
        from uqdim import identities

        entry = identities.IDENTITY_TABLE["s3"]
        broken = tuple(t._replace(multiplicity=1) if t.kind == "adjoint" else t
                       for t in entry.terms)
        monkeypatch.setitem(identities.IDENTITY_TABLE, "s3", entry._replace(terms=broken))
        for v in self.points("s3", 2, 100 + order):
            residual = self.check("s3", v, order)
            assert all(residual[m] != 0 for m in range(0, order + 1, 2)), v


def log_sinh_coefficients(half):
    """c_1..c_half of log(sinh z / z) as Fractions, computed here from the
    tangent numbers, c_k = (-1)^(k-1) T_{2k-1} / ((2k)! (4^k - 1)), so that
    the reference below does not read the kernel's table."""
    return [F((-1) ** (k - 1) * t, math.factorial(2 * k) * (4 ** k - 1))
            for k, t in enumerate(tangent_numbers(half), start=1)]


def fraction_recursion_series(product, order):
    """The log-exp kernel as it was written in Fraction arithmetic: the
    reference for the integer recursion of SinhProduct.series."""
    out = [F(0)] * (order + 1)
    scale = product.dim()
    if scale == 0:
        return PowerSeries(out)
    half = order // 2
    weights = {}
    for n, d, _ in product.factors:
        pairs = ((2 * n, 1), (n, -1)) if d is None else ((n, 1), (d, -1))
        for a, w in pairs:
            weights[abs(a)] = weights.get(abs(a), 0) + w
    common = math.gcd(product.q, *weights)
    lcm = product.q // common
    bases = [((a // common) ** 2, w) for a, w in weights.items() if a and w]
    powers = [1] * len(bases)
    coeffs = log_sinh_coefficients(half)
    weighted = []
    for k in range(1, half + 1):
        total = 0
        for i, (square, w) in enumerate(bases):
            powers[i] *= square
            total += w * powers[i]
        weighted.append(coeffs[k - 1] * (k * total))
    exp = [F(1)]
    for m in range(1, half + 1):
        exp.append(sum(weighted[j - 1] * exp[m - j] for j in range(1, m + 1)) / m)
    step = 16 * lcm * lcm
    denominator = 1
    for m, e in enumerate(exp):
        out[2 * m] = scale * e / denominator
        denominator *= step
    return PowerSeries(out)


class TestKernelAgainstFractionRecursion:
    """High orders, where the running denominator of the integer recursion
    is rescaled at most steps.  The draws at orders 128 and 256 include
    denominators q of 54 to 64 bits; at order 512 the draw has a small q,
    since a 64-bit one costs the Fraction reference about 15 s."""

    @pytest.mark.parametrize("order, seed, count", [
        (128, 5132, 6), (256, 5260, 3), (512, 5513, 1)])
    def test_random_products(self, order, seed, count):
        rng = random.Random(seed)
        for trial in range(count):
            factors, q, sign = random_product(rng, 8)
            product = SinhProduct(factors, q, sign)
            assert product.series(order) == fraction_recursion_series(product, order), (
                trial, factors, q, sign)

    @pytest.mark.parametrize("order", [128, 256, 512])
    def test_e8_cartan_power_10(self, order):
        product = cartan_power_product(vogel_params("e8"), 10)
        assert product.series(order) == fraction_recursion_series(product, order)


def wide_product(seed):
    """A seeded random product over a 50- to 64-bit q that is not constant."""
    rng = random.Random(seed)
    while True:
        factors, q, sign = random_product(rng, 8)
        product = SinhProduct(factors, q, sign)
        if 50 <= q.bit_length() <= 64 and not product.is_constant:
            return product


class TestPrefixProperty:
    """even_coefficients(K) cut to order K/2 is even_coefficients(K/2):
    reading one expansion prefix by prefix would rest on it."""

    @pytest.mark.parametrize("which", ["e7-cartan-8", 8101, 8102])
    def test_cut_expansion_is_the_shorter_one(self, which):
        if which == "e7-cartan-8":
            product = cartan_power_product(vogel_params("e7"), 8)
        else:
            product = wide_product(which)
        for order in (32, 64, 128, 256):
            nums, den = product.even_coefficients(order)
            short, short_den = product.even_coefficients(order // 2)
            assert [F(n, den) for n in nums[:len(short)]] == [F(n, short_den) for n in short], (
                which, order)


def wide_z_product(seed):
    """A seeded mixed Cartan product at a point of float coordinates, whose
    q has 50 to 64 bits."""
    rng = random.Random(seed)
    while True:
        v = VogelParams(*(F(rng.uniform(-8.0, 8.0)) for _ in range(3)))
        try:
            product = z_product(v, rng.randint(1, 3), rng.randint(0, 2))
        except PoleAtParameters:
            continue
        if 50 <= product.q.bit_length() <= 64 and not product.is_constant:
            return product


class TestExpansions:
    """even_coefficients(order) keeps no state between calls: each call, in
    any order of orders, gives the integers of a fresh expansion."""

    ORDERS = (16, 32, 64, 128, 256, 512)

    @staticmethod
    def products():
        e7 = vogel_params("e7")
        x2 = x2_product(vogel_params("so12"))
        assert any(d is None for _, d, _ in x2.factors)
        zero = SinhProduct([(15, 10, ""), (0, 7, ""), (5, None, "")], 5)
        constant = SinhProduct([(-4, 4, ""), (3, 3, "")], 2, -1)
        assert zero.is_zero and constant.is_constant and not constant.is_zero
        return ([(f"e7-cartan-{n}", cartan_power_product(e7, n)) for n in range(1, 9)]
                + [(f"z-{seed}", wide_z_product(seed)) for seed in (8201, 8202)]
                + [("x2-so12", x2), ("zero", zero), ("constant", constant)])

    @staticmethod
    def fresh(product, order):
        """even_coefficients of a new product with the same factors."""
        return SinhProduct(product.factors, product.q, product.sign).even_coefficients(order)

    def test_each_order_is_a_fresh_expansion(self):
        for name, product in self.products():
            falling = [product.even_coefficients(order) for order in reversed(self.ORDERS)]
            rising = [self.fresh(product, order) for order in self.ORDERS]
            assert falling == rising[::-1], name
            nums, den = falling[0]
            assert len(nums) == self.ORDERS[-1] // 2 + 1, name
            assert type(den) is int and den > 0, name

    def test_repeated_and_odd_orders(self):
        product = cartan_power_product(vogel_params("e7"), 3)
        orders = (0, 0, 5, 5, 6, 33, 33)
        pairs = [product.even_coefficients(order) for order in orders]
        assert pairs == [self.fresh(product, order) for order in orders]
        assert pairs[0] == pairs[1] and pairs[2] == pairs[3] and pairs[5] == pairs[6]
        # an odd order K gives the even coefficients through x^(K-1)
        assert pairs[2] == product.even_coefficients(4) and len(pairs[2][0]) == 3
        assert pairs[5] == product.even_coefficients(32) and len(pairs[5][0]) == 17

    @pytest.mark.parametrize("orders", [(32, 16), (16, 64, 62), (-1,), (4, -2)])
    def test_decreasing_or_negative_order(self, orders):
        # A decreasing order is a fresh expansion; a negative one raises.
        for product in (cartan_power_product(vogel_params("e7"), 2),
                        SinhProduct([(0, 7, "")], 5)):
            for order in orders:
                if order < 0:
                    with pytest.raises(ValueError):
                        product.even_coefficients(order)
                else:
                    assert product.even_coefficients(order) == self.fresh(product, order)


def times_binomial(poly, k, c):
    """poly(t) * (t^k + c) over the integers."""
    out = [c * p for p in poly] + [0] * k
    for i, p in enumerate(poly):
        out[i + k] += p
    return out


def divide_binomial(poly, k):
    """poly(t) / (t^k - 1) over the integers; the division must be exact."""
    quotient = []
    for i in range(len(poly) - k):
        quotient.append((quotient[i - k] if i >= k else 0) - poly[i])
    for i in range(max(len(poly) - k, 0), len(poly)):
        assert poly[i] == (quotient[i - k] if i >= k else 0), "not a polynomial"
    return quotient


def laurent_series(product, order):
    """Independent oracle at an algebra point: the product is a Laurent
    polynomial P(t) = sum p_e t^e in t = e^{x/(4q)}, so the coefficient of
    x^j is sum p_e (e/(4q))^j / j!.  With u = x/(4q), sinh(N u)/sinh(D u) is
    ±t^{|D|-|N|} (t^{2|N|} - 1) / (t^{2|D|} - 1) and 2 cosh(A u) is
    t^{-|A|} (t^{2|A|} + 1).  No tangent number, log or exp is involved."""
    sign, shift, poly, dens = product.sign, 0, [1], []
    for n, d, _ in product.factors:
        if d is None:
            poly = times_binomial(poly, 2 * abs(n), 1)
            shift -= abs(n)
        else:
            sign *= 1 if (n > 0) == (d > 0) else -1
            poly = times_binomial(poly, 2 * abs(n), -1)
            dens.append(2 * abs(d))
            shift += abs(d) - abs(n)
    for k in dens:
        poly = divide_binomial(poly, k)
    exponents = [i + shift for i, p in enumerate(poly) if p]
    moments = [sign * p for p in poly if p]  # sign * p_e * e^j
    out = []
    for j in range(order + 1):
        out.append(F(sum(moments), (4 * product.q) ** j * math.factorial(j)))
        moments = [w * e for w, e in zip(moments, exponents)]
    return PowerSeries(out)


class TestKernelAgainstLaurentPolynomial:
    @pytest.mark.parametrize("algebra, n", [
        (algebra, n) for algebra in ("g2", "f4", "e7") for n in (1, 2, 3)
    ] + [("e7", 8)])
    def test_cartan_power(self, algebra, n):
        product = cartan_power_product(vogel_params(algebra), n)
        assert product.series(256) == laurent_series(product, 256)

    def test_past_the_cached_rows(self):
        # order 528 reads the binomial rows m = 257..264, past those of an
        # expansion to MAX_SERIES_ORDER
        product = cartan_power_product(vogel_params("g2"), 2)
        assert product.series(528) == laurent_series(product, 528)

    def test_oracle_closed_form(self):
        # sinh(-3u)/sinh(u) * 2 cosh(u) = -(1 + 2 cosh 2u) * 2 cosh u, u = x/4
        product = SinhProduct([(-3, 1, ""), (1, None, "")], 1)
        expected = (-(PowerSeries.one(20) + 2 * cosh_series(2, 20))
                    * (2 * cosh_series(1, 20)))
        assert laurent_series(product, 20) == expected

    def test_non_polynomial_is_refused(self):
        # sinh(u)/sinh(2u) = 1/(2 cosh u) is no Laurent polynomial
        with pytest.raises(AssertionError, match="not a polynomial"):
            laurent_series(SinhProduct([(1, 2, "")], 1), 4)


def kept_factors(factors):
    return [(n, d, label) for n, d, label in factors if n != d]


def reference_value(factors, q, sign, x):
    """The float value factor by factor, each argument through float(Fraction),
    in the order given; x = 0 gives the exact value at 0."""
    if x == 0:
        return float(reference_dim(factors, q, sign))
    acc = float(sign)
    for n, d, _ in kept_factors(factors):
        if d is None:
            acc *= 2.0 * math.cosh(float(F(n, q)) * x / 4.0)
        else:
            acc *= math.sinh(float(F(n, q)) * x / 4.0) / math.sinh(float(F(d, q)) * x / 4.0)
    return acc


def reference_dim(factors, q, sign):
    acc = F(sign)
    for n, d, _ in kept_factors(factors):
        acc *= 2 if d is None else F(n, q) / F(d, q)
    return acc


class TestConstructorAgainstReference:
    """SinhProduct(factors, q) keeps the factors it was given; every
    observable must match those factors read as Fraction(N, q)."""

    def test_random_products(self):
        rng = random.Random(2024)
        for trial in range(300):
            factors, q, sign = random_product(rng, 10)
            product = SinhProduct(factors, q, sign, "ctx")
            kept = kept_factors(factors)
            where = (trial, factors, q, sign)
            for x in (0.0, 0.05, 0.3, 1.0, -0.7, rng.uniform(0.05, 1.0)):
                assert (product.value_at(x).hex()
                        == reference_value(factors, q, sign, x).hex()), where
            assert product.dim() == reference_dim(factors, q, sign), where
            dens = [abs(F(d, q)) for _, d, _ in kept if d is not None]
            assert product.min_abs_denominator() == (min(dens) if dens else None), where
            assert product.is_zero == any(
                n == 0 and d is not None for n, d, _ in kept), where
            assert len(product) == len(kept), where
            assert product.factors == tuple(kept), where
            assert (product.q, product.sign, product.context) == (q, sign, "ctx")

    @pytest.mark.parametrize("order", [0, 1, 17, 64])
    def test_series(self, order):
        rng = random.Random(3000 + order)
        for trial in range(40 if order < 64 else 3):
            factors, q, sign = random_product(rng, 8 if order < 64 else 4)
            product = SinhProduct(factors, q, sign)
            assert product.series(order) == reference_series(factors, q, sign, order), (
                trial, factors, q, sign)

    def test_scaled_denominator(self):
        # The same arguments over 3q: the same functions, the same values.
        rng = random.Random(77)
        for _ in range(50):
            factors, q, sign = random_product(rng, 6)
            product = SinhProduct(factors, q, sign, "c")
            scaled = SinhProduct([(3 * n, None if d is None else 3 * d, label)
                                  for n, d, label in factors], 3 * q, sign, "c")
            assert len(scaled) == len(product)
            assert scaled.dim() == product.dim()
            assert scaled.min_abs_denominator() == product.min_abs_denominator()
            assert scaled.value_at(0.4) == product.value_at(0.4)
            assert scaled.series(9) == product.series(9)
            assert scaled.same_function(product)

    # The factors before and after the vanishing denominator: a ratio, a
    # unit ratio (N == D, dropped), a cosh factor, and a second vanishing
    # denominator, which must not be the one named.
    POLE_LAYOUTS = {
        "ratio, cosh": (("ratio", "cosh"), ("later",)),
        "after a unit ratio": (("ratio", "unit"), ("later",)),
        "after a cosh": (("unit", "cosh"), ("later",)),
        "last": (("unit", "ratio", "cosh"), ()),
    }

    @pytest.mark.parametrize("layout", sorted(POLE_LAYOUTS))
    @pytest.mark.parametrize("label, context, text", [
        ("beta-2*alpha", "qdim_y2(beta)",
         "qdim_y2(beta): sinh denominator beta-2*alpha vanishes at these parameters"),
        ("", "qdim_x2", "qdim_x2: sinh denominator num=7/3 vanishes at these parameters"),
        ("gamma", "", "sinh denominator gamma vanishes at these parameters"),
        ("", "", "sinh denominator num=-1/1024 vanishes at these parameters"),
    ])
    def test_pole_message(self, label, context, text, layout):
        q = 2 ** 60 * 105
        arg = lambda r: int(r * q)  # every r below is an integer over q
        num = F(7, 3) if context else F(-1, 1024)
        named = {"ratio": (arg(F(1, 2 ** 60)), arg(F(3, 5)), ""),
                 "unit": (arg(F(3, 5)), arg(F(3, 5)), "unit"),
                 "cosh": (arg(F(5, 7)), None, ""),
                 "later": (q, 0, "later")}
        before, after = self.POLE_LAYOUTS[layout]
        factors = ([named[k] for k in before] + [(arg(num), 0, label)]
                   + [named[k] for k in after])
        with pytest.raises(PoleAtParameters) as caught:
            SinhProduct(factors, q, context=context)
        assert str(caught.value) == text

    def test_pole_message_random(self):
        # The vanishing denominator goes anywhere, last, or right after a
        # unit ratio or a cosh factor; without it, every unit ratio is
        # dropped and the rest keep their order.
        rng = random.Random(91)
        for trial in range(400):
            factors, q, _ = random_product(rng, 5)
            den = random_arg(rng, q)
            unit, cosh = (den, den, "unit"), (random_arg(rng, q), None, "c")
            for extra in (unit, cosh):
                factors.insert(rng.randint(0, len(factors)), extra)
            product = SinhProduct(factors, q, context="ctx")
            assert product.factors == tuple(kept_factors(factors)), (trial, factors)
            at = (rng.randint(0, len(factors)), len(factors),
                  1 + factors.index(unit), 1 + factors.index(cosh))[trial % 4]
            bad = (rng.choice([0, random_arg(rng, q)]), 0, rng.choice(["", "alpha-beta"]))
            factors.insert(at, bad)
            where = bad[2] or f"num={F(bad[0], q)}"
            with pytest.raises(PoleAtParameters) as caught:
                SinhProduct(factors, q, context="ctx")
            assert str(caught.value) == (
                f"ctx: sinh denominator {where} vanishes at these parameters")


class TestLogCoefficients:
    def test_tangent_numbers(self):
        assert tangent_numbers(5) == [1, 2, 16, 272, 7936]
        assert tangent_numbers(0) == []

    def test_log_sinh_coefficients(self):
        c = log_sinh_coefficients(4)
        assert c == [F(1, 6), F(-1, 180), F(1, 2835), F(-1, 37800)]

    def test_log_cosh_coefficients(self):
        # log cosh z = sum h_k z^{2k} with h_k = (4^k - 1) c_k, from
        # sinh 2z = 2 sinh z cosh z: why a cosh argument A enters the kernel
        # as the pair 2A, A.
        h = [(4 ** k - 1) * c for k, c in enumerate(log_sinh_coefficients(4), start=1)]
        assert h == [F(1, 2), F(-1, 12), F(1, 45), F(-17, 2520)]

    def test_numerators_over_lcm(self):
        assert log_sinh_hurwitz(0) == ((), 1)
        for half in (1, 2, 5, 20):
            nums, g = log_sinh_hurwitz(half)
            assert len(nums) == half
            assert g == math.lcm(*(F(num, g).denominator for num in nums))

    def test_hurwitz_values(self):
        nums, g = log_sinh_hurwitz(4)
        assert [F(num, g) for num in nums] == [F(1, 3), F(-2, 15), F(16, 63), F(-16, 15)]

    def test_hurwitz_is_factorial_scaled(self):
        nums, g = log_sinh_hurwitz(40)
        for j, (num, c) in enumerate(zip(nums, log_sinh_coefficients(40)), start=1):
            assert F(num, g) == math.factorial(2 * j) * c, j

    def test_hurwitz_against_bernoulli(self):
        # gamma_j = 2^{2j} B_{2j} / (2j), with B_n from the Akiyama-Tanigawa
        # algorithm in Fractions (B_1 = +1/2; only even n are read).
        count = 60
        row, bernoulli = [], []
        for n in range(2 * count + 1):
            row.append(F(1, n + 1))
            for k in range(n, 0, -1):
                row[k - 1] = k * (row[k - 1] - row[k])
            bernoulli.append(row[0])
        assert bernoulli[:5] == [1, F(1, 2), F(1, 6), 0, F(-1, 30)]
        nums, g = log_sinh_hurwitz(count)
        for j, num in enumerate(nums, start=1):
            assert F(num, g) == 4 ** j * bernoulli[2 * j] / (2 * j), j

    def test_odd_binomials_against_pascal(self):
        pascal = [[1]]
        for n in range(1, 129):
            prev = pascal[-1]
            pascal.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
        assert odd_binomials(1) == (1,)
        for m in range(1, 65):
            row = pascal[2 * m - 1]
            assert odd_binomials(m) == tuple(row[1::2]), m
            # (j / m) C(2m, 2j) = C(2m - 1, 2j - 1), the kernel's identity
            assert all(m * row[2 * j - 1] == j * pascal[2 * m][2 * j]
                       for j in range(1, m + 1)), m
        assert odd_binomials(64) is odd_binomials(64)

    def test_odd_binomial_rows(self):
        assert odd_binomial_rows(0) == ()
        for half in (1, 8, 10, 256):
            rows = odd_binomial_rows(half)
            assert len(rows) == half
            assert all(row is odd_binomials(m) for m, row in enumerate(rows, start=1))
        assert odd_binomial_rows(10) is odd_binomial_rows(10)

    def test_odd_binomials_above_the_cache(self):
        # Rows past those an expansion to MAX_SERIES_ORDER reads (m <= 256)
        # come from the same recurrence and are kept as well.
        for m in range(255, 301):
            assert odd_binomials(m) == tuple(math.comb(2 * m - 1, 2 * j - 1)
                                             for j in range(1, m + 1)), m
        assert odd_binomials(256) is odd_binomials(256)
        assert odd_binomials(300) is odd_binomials(300)

    def test_against_taylor_series(self):
        # log(sinh z / z) and log cosh z from exact Taylor series of
        # sinh z / z and cosh z through log(1 + u) = sum (-1)^(n-1) u^n / n
        order = 24

        def log_one_plus(u):
            acc, power = PowerSeries.zero(order), PowerSeries.one(order)
            for n in range(1, order + 1):
                power = power * u
                acc = acc + power * F((-1) ** (n - 1), n)
            return acc

        one = PowerSeries.one(order)
        sinhc = sinh_series(4, order + 1) / PowerSeries([0, 1], order=order + 1)
        log_sinhc = log_one_plus(sinhc - one)
        log_cosh = log_one_plus(cosh_series(4, order) - one)
        for k, c in enumerate(log_sinh_coefficients(order // 2), start=1):
            assert log_sinhc[2 * k] == c
            assert log_cosh[2 * k] == (4 ** k - 1) * c

    def test_halves_agree_on_common_prefix(self):
        nums, g = log_sinh_hurwitz(40)
        longest = [F(num, g) for num in nums]
        for half in range(1, 41):
            nums, g = log_sinh_hurwitz(half)
            assert [F(num, g) for num in nums] == longest[:half]
        assert log_sinh_hurwitz(40) is log_sinh_hurwitz(40)
