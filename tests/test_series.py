import math
import random
from fractions import Fraction as F

import pytest

from uqdim import (
    CoshFactor,
    DivisionByZeroSeries,
    PoleAtParameters,
    PowerSeries,
    SinhFactor,
    SinhProduct,
    ZeroDenominatorForm,
    sinh_ratio_series,
    sinh_series,
    vogel_params,
)
from uqdim import series as series_module
from uqdim.errors import FloatEvaluationError
from uqdim.series import cosh_series, log_coefficients, tangent_numbers
from uqdim.universal import cartan_power_product

from conftest import rand_fraction


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

    def test_pow(self):
        a = PowerSeries([1, 1], order=4)
        assert a ** 3 == PowerSeries([1, 3, 3, 1], order=4)

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
        p = SinhProduct([SinhFactor(3, 3), SinhFactor(2, 1)])
        assert len(p) == 1
        assert p.series(6) == sinh_ratio_series(2, 1, 6)

    def test_zero_numerator_zeroes_product(self):
        p = SinhProduct([SinhFactor(0, 2), SinhFactor(5, 1)])
        assert p.is_zero
        assert p.series(4) == PowerSeries.zero(4)
        assert p.value_at(0.7) == 0.0

    def test_pole_reported_with_label(self):
        from uqdim import PoleAtParameters

        with pytest.raises(PoleAtParameters, match="beta-2\\*alpha"):
            SinhProduct([SinhFactor(1, 0, "beta-2*alpha")])

    def test_dim_and_value_agree_at_zero(self):
        p = SinhProduct([SinhFactor(3, 2), SinhFactor(-5, 4)], sign=-1)
        assert p.dim() == F(15, 8)
        assert p.value_at(0.0) == float(F(15, 8))

    def test_cosh_factor_has_no_pole(self):
        p = SinhProduct([CoshFactor(0), SinhFactor(3, 1)])
        assert p.dim() == 6
        assert p.series(4) == 2 * sinh_ratio_series(3, 1, 4)

    def test_sign_flip(self):
        p = SinhProduct([SinhFactor(4, 2)], sign=-1)
        assert p.dim() == -2
        assert p.series(4) == -sinh_ratio_series(4, 2, 4)

    def test_value_at_overflow_is_typed(self):
        # math.sinh(250) is finite but the product overflows; math.sinh(2500)
        # raises OverflowError; both must give the typed error.
        p = SinhProduct([SinhFactor(40, 1), SinhFactor(40, 1), SinhFactor(40, 1)],
                        context="ctx")
        with pytest.raises(FloatEvaluationError, match="ctx at x=25"):
            p.value_at(25.0)
        with pytest.raises(FloatEvaluationError):
            p.value_at(250.0)
        with pytest.raises(FloatEvaluationError):
            SinhProduct([CoshFactor(4)]).value_at(1000.0)

    def test_value_at_non_finite_x(self):
        p = SinhProduct([SinhFactor(3, 1)])
        for x in (math.nan, math.inf):
            with pytest.raises(FloatEvaluationError):
                p.value_at(x)

    def test_finite_value_unchanged(self):
        p = SinhProduct([SinhFactor(3, 1), CoshFactor(2)], sign=-1)
        expected = -1.0 * (math.sinh(0.75) / math.sinh(0.25)) * (2.0 * math.cosh(0.5))
        assert p.value_at(1.0) == expected


def reference_series(factors, sign, order):
    """Independent oracle for SinhProduct.series: each factor expanded on its
    own from the sinh and cosh Taylor series, divided and multiplied as
    truncated series."""
    acc = PowerSeries.one(order)
    for f in factors:
        if isinstance(f, CoshFactor):
            acc = acc * (2 * cosh_series(f.arg, order))
        else:
            acc = acc * (sinh_series(f.num, order + 1) / sinh_series(f.den, order + 1))
    return acc if sign > 0 else -acc


def random_factor(rng):
    """A factor drawn to hit the kernel's special cases: negative arguments,
    zero numerators, num == den, num == -den and cosh factors at arg 0."""
    roll = rng.random()
    if roll < 0.15:
        return CoshFactor(rng.choice([F(0), rand_fraction(rng, 12)]))
    den = rand_fraction(rng, 12)
    if roll < 0.2:
        return SinhFactor(0, den)
    if roll < 0.3:
        return SinhFactor(den, den)
    if roll < 0.35:
        return SinhFactor(-den, den)
    return SinhFactor(rand_fraction(rng, 12), den)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 17, 20])
    def test_random_products(self, order):
        rng = random.Random(1000 + order)
        for trial in range(40):
            factors = [random_factor(rng) for _ in range(rng.randint(0, 8))]
            sign = rng.choice([1, -1])
            product = SinhProduct(factors, sign=sign)
            assert product.series(order) == reference_series(factors, sign, order), (
                trial, factors, sign)

    def test_random_products_order_64(self):
        rng = random.Random(64)
        for _ in range(4):
            factors = [random_factor(rng) for _ in range(rng.randint(1, 6))]
            sign = rng.choice([1, -1])
            product = SinhProduct(factors, sign=sign)
            assert product.series(64) == reference_series(factors, sign, 64)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_empty_product(self, sign):
        for order in (0, 1, 2, 3, 17):
            expected = PowerSeries.constant(sign, order)
            assert SinhProduct([], sign=sign).series(order) == expected
            assert reference_series([], sign, order) == expected

    def test_cosh_at_zero_and_trivial_ratio(self):
        factors = [CoshFactor(0), SinhFactor(F(5, 3), F(5, 3)), SinhFactor(-2, 2)]
        assert (SinhProduct(factors, sign=-1).series(20)
                == reference_series(factors, -1, 20) == PowerSeries.constant(2, 20))

    def test_zero_numerator(self):
        factors = [SinhFactor(3, 2), SinhFactor(0, F(7, 5)), CoshFactor(1)]
        assert SinhProduct(factors).series(17) == PowerSeries.zero(17)
        assert reference_series(factors, 1, 17) == PowerSeries.zero(17)

    def test_e8_cartan_power_10(self):
        product = cartan_power_product(vogel_params("e8"), 10)
        assert product.series(64) == reference_series(product.factors, product.sign, 64)

    def test_odd_coefficients_vanish(self):
        rng = random.Random(21)
        factors = [random_factor(rng) for _ in range(6)]
        series = SinhProduct(factors).series(21)
        assert series.order == 21
        assert all(series[m] == 0 for m in range(1, 22, 2))

    def test_negative_order(self):
        with pytest.raises(ValueError):
            SinhProduct([SinhFactor(2, 1)]).series(-1)


def float_fraction(rng):
    """An argument as Fraction(float): its denominator is a power of two up
    to 2**60 (about 2**49 from uniform(), times up to 2**11)."""
    while True:
        value = F(rng.uniform(-8.0, 8.0) / 2 ** rng.randint(0, 11))
        if value and value.denominator <= 2 ** 60:
            return value


def mixed_factor(rng):
    """Like random_factor, but arguments are Fraction(float) values or small
    rationals, so one product mixes denominators up to 2**60 with small
    ones."""
    draw = lambda: float_fraction(rng) if rng.random() < 0.5 else rand_fraction(rng, 12)
    roll = rng.random()
    if roll < 0.2:
        return CoshFactor(rng.choice([F(0), draw()]), rng.choice(["", "c"]))
    den = draw()
    label = rng.choice(["", "d"])
    if roll < 0.25:
        return SinhFactor(0, den, label)
    if roll < 0.35:
        return SinhFactor(den, den, label)
    if roll < 0.45:
        return SinhFactor(-den, den, label)
    return SinhFactor(draw(), den, label)


def kept_factors(factors):
    return [f for f in factors if isinstance(f, CoshFactor) or f.num != f.den]


def reference_value(factors, sign, x):
    """The float value factor by factor, each argument through float(Fraction),
    in the order given; x = 0 gives the exact value at 0."""
    if x == 0:
        return float(reference_dim(factors, sign))
    acc = float(sign)
    for f in kept_factors(factors):
        if isinstance(f, CoshFactor):
            acc *= 2.0 * math.cosh(float(f.arg) * x / 4.0)
        else:
            acc *= math.sinh(float(f.num) * x / 4.0) / math.sinh(float(f.den) * x / 4.0)
    return acc


def reference_dim(factors, sign):
    acc = F(sign)
    for f in kept_factors(factors):
        acc *= 2 if isinstance(f, CoshFactor) else f.num / f.den
    return acc


def factor_key(f):
    if isinstance(f, CoshFactor):
        return ("cosh", f.arg, f.label)
    return ("sinh", f.num, f.den, f.label)


class TestConstructorAgainstReference:
    """SinhProduct(factors) puts the arguments over one integer denominator;
    every observable must match the factors it was given."""

    def test_random_products(self):
        rng = random.Random(2024)
        for trial in range(300):
            factors = [mixed_factor(rng) for _ in range(rng.randint(0, 10))]
            sign = rng.choice([1, -1])
            product = SinhProduct(factors, sign=sign, context="ctx")
            kept = kept_factors(factors)
            where = (trial, factors, sign)
            for x in (0.0, 0.05, 0.3, 1.0, -0.7, rng.uniform(0.05, 1.0)):
                assert product.value_at(x).hex() == reference_value(factors, sign, x).hex(), where
            assert product.dim() == reference_dim(factors, sign), where
            dens = [abs(f.den) for f in kept if isinstance(f, SinhFactor)]
            assert product.min_abs_denominator() == (min(dens) if dens else None), where
            assert product.is_zero == any(
                isinstance(f, SinhFactor) and f.num == 0 for f in kept), where
            assert len(product) == len(kept), where
            keys = [factor_key(f) for f in kept]
            assert [factor_key(f) for f in product.factors] == keys, where
            again = SinhProduct(product.factors, sign=sign)
            assert [factor_key(f) for f in again.factors] == keys, where
            assert (again.sign, again.context, product.context) == (sign, "", "ctx")

    @pytest.mark.parametrize("order", [0, 1, 17, 64])
    def test_series(self, order):
        rng = random.Random(3000 + order)
        for trial in range(40 if order < 64 else 3):
            factors = [mixed_factor(rng) for _ in range(rng.randint(0, 8 if order < 64 else 4))]
            sign = rng.choice([1, -1])
            product = SinhProduct(factors, sign=sign)
            assert product.series(order) == reference_series(factors, sign, order), (
                trial, factors, sign)

    def test_from_integers_matches_adapter(self):
        rng = random.Random(77)
        for _ in range(50):
            factors = [mixed_factor(rng) for _ in range(rng.randint(0, 6))]
            product = SinhProduct(factors, sign=-1, context="c")
            direct = SinhProduct.from_integers(product.terms, product.q, -1, "c")
            assert (direct.terms, direct.q) == (product.terms, product.q)
            scaled = SinhProduct.from_integers(
                [(3 * n, None if d is None else 3 * d, label)
                 for n, d, label in product.terms], 3 * product.q, -1, "c")
            assert [factor_key(f) for f in scaled.factors] == [
                factor_key(f) for f in product.factors]
            assert scaled.value_at(0.4) == product.value_at(0.4)
        for q in (0, -3):
            with pytest.raises(ValueError):
                SinhProduct.from_integers([(1, 2, "")], q)

    @pytest.mark.parametrize("label, context, text", [
        ("beta-2*alpha", "qdim_y2(beta)",
         "qdim_y2(beta): sinh denominator beta-2*alpha vanishes at these parameters"),
        ("", "qdim_x2", "qdim_x2: sinh denominator num=7/3 vanishes at these parameters"),
        ("gamma", "", "sinh denominator gamma vanishes at these parameters"),
        ("", "", "sinh denominator num=-1/1024 vanishes at these parameters"),
    ])
    def test_pole_message(self, label, context, text):
        num = F(7, 3) if context else F(-1, 1024)
        factors = [SinhFactor(F(1, 2 ** 60), F(3, 5)), CoshFactor(F(5, 7)),
                   SinhFactor(num, 0, label), SinhFactor(1, 0, "later")]
        with pytest.raises(PoleAtParameters) as caught:
            SinhProduct(factors, context=context)
        assert str(caught.value) == text

    def test_pole_message_random(self):
        rng = random.Random(91)
        for _ in range(100):
            factors = [mixed_factor(rng) for _ in range(rng.randint(0, 5))]
            bad = SinhFactor(rng.choice([F(0), float_fraction(rng), rand_fraction(rng)]),
                             0, rng.choice(["", "alpha-beta"]))
            factors.insert(rng.randint(0, len(factors)), bad)
            where = bad.label or f"num={bad.num}"
            with pytest.raises(PoleAtParameters) as caught:
                SinhProduct(factors, context="ctx")
            assert str(caught.value) == (
                f"ctx: sinh denominator {where} vanishes at these parameters")


class TestLogCoefficients:
    def test_tangent_numbers(self):
        assert tangent_numbers(5) == [1, 2, 16, 272, 7936]
        assert tangent_numbers(0) == []

    def test_log_sinh_coefficients(self):
        c = [ck for ck, _ in log_coefficients(4)[:4]]
        assert c == [F(1, 6), F(-1, 180), F(1, 2835), F(-1, 37800)]

    def test_log_cosh_coefficients(self):
        h = [hk for _, hk in log_coefficients(4)[:4]]
        assert h == [F(1, 2), F(-1, 12), F(1, 45), F(-17, 2520)]

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
        for k, (c, h) in enumerate(log_coefficients(order // 2)[: order // 2], start=1):
            assert log_sinhc[2 * k] == c
            assert log_cosh[2 * k] == h

    def test_prefix_kept_when_cache_grows(self):
        prefix = log_coefficients(6)[:6]
        grown = log_coefficients(len(series_module._LOG_COEFFS) + 40)
        assert len(series_module._LOG_COEFFS) >= len(prefix) + 40
        assert grown[:6] == prefix
        assert all(a is b for a, b in zip(grown, prefix))
