import math
import random
from fractions import Fraction as F

import pytest

from uqdim import (
    InstantonParams,
    VogelParams,
    build_root_system,
    one_instanton_sum,
    one_instanton_term,
    vogel_params,
    weyl_qdim,
)
from uqdim import instanton, series
from uqdim.errors import FloatEvaluationError, PoleAtParameters
from uqdim.series import SinhProduct, odd_binomials
from uqdim.universal import (
    adjoint_product,
    cartan_power_product,
    x2_product,
    y2_product,
    z_product,
)

from conftest import rand_params


class TestParams:
    def test_requires_positive_nmax(self):
        with pytest.raises(ValueError):
            InstantonParams(eps1=0.1, eps2=0.1, sigma_n=-1.0, x=0.5, n_max=0)

    def test_x_zero_sums_dimensions(self):
        # x = 0 is no pole: term n is exp(n sigma (eps1 + eps2)) times the
        # dimension of the n-th Cartan power, 35, 405 and 2695 at sl6.
        ip = InstantonParams(eps1=0.1, eps2=0.1, sigma_n=-1.0, x=0.0, n_max=3)
        table = one_instanton_sum(vogel_params("sl6"), ip)
        partial = 0.0
        for (n, term, running), dim in zip(table.rows, (35, 405, 2695), strict=True):
            weighted = math.exp(n * ip.sigma_n * (ip.eps1 + ip.eps2)) * dim
            partial += weighted
            assert (term, running) == (weighted, partial)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            InstantonParams(eps1=math.inf, eps2=0.0, sigma_n=0.0, x=0.5, n_max=1)

    def test_term_index_range(self):
        v = vogel_params("sl6")
        ip = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.3, n_max=2)
        with pytest.raises(ValueError):
            one_instanton_term(v, ip, 3)
        with pytest.raises(ValueError):
            one_instanton_term(v, ip, 0)


class TestTerms:
    def test_first_term_closed_form(self):
        v = vogel_params("e7")
        ip = InstantonParams(eps1=0.3, eps2=-0.1, sigma_n=-1.5, x=0.4, n_max=1)
        term = one_instanton_term(v, ip, 1)
        expected = (math.exp(ip.sigma_n * (ip.eps1 + ip.eps2))
                    * adjoint_product(v).value_at(ip.x))
        assert abs(term - expected) <= 1e-10 * abs(expected)

    def test_vanishing_exponent_gives_raw_quantum_dimension(self):
        v = vogel_params("g2")
        ip = InstantonParams(eps1=0.7, eps2=-0.7, sigma_n=2.0, x=0.25, n_max=2)
        term = one_instanton_term(v, ip, 2)
        from uqdim.universal import cartan_power_product
        expected = cartan_power_product(v, 2).value_at(ip.x)
        assert abs(term - expected) <= 1e-10 * abs(expected)

    def test_matches_weyl_oracle(self):
        v = vogel_params("e7")
        rs = build_root_system("E", 7)
        ip = InstantonParams(eps1=0.37, eps2=-0.21, sigma_n=-2.0, x=0.3, n_max=3)
        for n in (1, 2, 3):
            term = one_instanton_term(v, ip, n)
            lam = rs.weight(tuple(n * c for c in rs.theta))
            oracle = (math.exp(n * ip.sigma_n * (ip.eps1 + ip.eps2))
                      * weyl_qdim(rs, lam, 96).eval_at(ip.x))
            assert abs(term - oracle) <= 1e-9 * abs(oracle)

    def test_generic_parameters(self):
        v = VogelParams(-2, 3, 7)
        ip = InstantonParams(eps1=0.05, eps2=0.1, sigma_n=-1.0, x=0.2, n_max=4)
        values = [one_instanton_term(v, ip, n) for n in (1, 2, 3, 4)]
        assert all(t > 0 for t in values)


class TestPinnedTerms:
    # one_instanton_term(...).hex() at eps1 = 0.1, eps2 = 0.2, sigma = -1 for
    # the benchmark's instanton cases, captured on the commit before
    # products kept integer arguments.
    PINS = {
        ("e7", 0.5): (
            "0x1.5ebc10639044ep+13", "0x1.146f065449d1ep+26", "0x1.52a3c19514193p+38",
            "0x1.6ab7795363366p+50", "0x1.680f27eeeedd5p+62", "0x1.55e89dada8971p+74",
            "0x1.3c3da8754e097p+86", "0x1.1fede16d9b33dp+98"),
        ("sl6", 0.25): (
            "0x1.f27377fde0340p+4", "0x1.5401b3510dec1p+8", "0x1.19f63c21d5f97p+11",
            "0x1.5e3461bce8803p+13", "0x1.698a609672bccp+15", "0x1.495e31f368139p+17",
            "0x1.12d84cef233e0p+19", "0x1.ae993fc9783fdp+20", "0x1.420591260c13cp+22",
            "0x1.d14f414826fb6p+23"),
    }

    @pytest.mark.parametrize("name,x", sorted(PINS))
    def test_terms_bit_identical(self, name, x):
        expected = self.PINS[(name, x)]
        ip = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=x, n_max=len(expected))
        v = vogel_params(name)
        terms = tuple(one_instanton_term(v, ip, n).hex() for n in range(1, len(expected) + 1))
        assert terms == expected


class TestSum:
    def test_single_row(self):
        v = vogel_params("sl6")
        ip = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.3, n_max=1)
        table = one_instanton_sum(v, ip)
        assert len(table.rows) == 1
        n, term, partial = table.rows[0]
        assert n == 1 and term == partial
        assert term == pytest.approx(one_instanton_term(v, ip, 1))

    def test_partial_sums_are_prefix_sums(self):
        v = vogel_params("so7")
        ip = InstantonParams(eps1=0.2, eps2=0.1, sigma_n=-1.0, x=0.25, n_max=6)
        table = one_instanton_sum(v, ip)
        running = 0.0
        for n, term, partial in table.rows:
            recomputed = one_instanton_term(v, ip, n)
            assert term == pytest.approx(recomputed, rel=1e-12)
            running += term
            assert partial == pytest.approx(running, rel=1e-12)

    def test_monotone_when_terms_positive(self):
        v = vogel_params("sp6")
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=0.3, n_max=5)
        table = one_instanton_sum(v, ip)
        partials = [p for _, _, p in table.rows]
        assert all(b > a for a, b in zip(partials, partials[1:]))

    def test_convergence_flag_under_strong_suppression(self):
        # exp(n * sigma * (eps1+eps2)) decays much faster than the quantum
        # dimensions grow, so the flag must trip well before n_max = 50.
        v = VogelParams(-2, 2, 2)
        ip = InstantonParams(eps1=3.0, eps2=3.0, sigma_n=-2.0, x=0.1, n_max=50)
        table = one_instanton_sum(v, ip)
        assert table.converged
        assert table.converged_at is not None and table.converged_at < 50

    def test_zero_product_term(self):
        # At alpha + 2 beta + 2 gamma = 0 the first Cartan power is the zero
        # function while no denominator vanishes, as for `uqdim instanton
        # --alpha=-4 --beta 1 --gamma 1 --x 0.5 --nmax 1`: the term is 0.0,
        # and a sum of zeros is reported as not converged.
        v = VogelParams(-4, 1, 1)
        assert cartan_power_product(v, 1).is_zero
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=0.5, n_max=1)
        table = one_instanton_sum(v, ip)
        assert table.rows == ((1, 0.0, 0.0),)
        assert not table.converged and table.converged_at is None

    def test_constant_product_term(self, monkeypatch):
        # The second Cartan power at (-4, 1, 1) is the constant -1, whose
        # x^0 coefficient the tail rule alone would read as a tail at every
        # order; it returns at the first order.
        monkeypatch.setattr(instanton, "_MAX_ORDER", instanton._START_ORDER)
        product = cartan_power_product(VogelParams(-4, 1, 1), 2)
        assert instanton._eval_adaptive(product, 0.5) == -1.0

    def test_constant_products_expand_no_series(self, monkeypatch):
        # Constant products, zero included, return their dimension before
        # any series is built.
        def no_series(self, order):
            raise AssertionError("a constant product was expanded")

        monkeypatch.setattr(SinhProduct, "series", no_series)
        monkeypatch.setattr(SinhProduct, "even_coefficients", no_series)
        monkeypatch.setattr(SinhProduct, "expansions", no_series)
        point = VogelParams(-4, 1, 1)
        assert instanton._eval_adaptive(cartan_power_product(point, 2), 0.5) == -1.0
        zero = instanton._eval_adaptive(cartan_power_product(point, 1), 0.5)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert instanton._eval_adaptive(cartan_power_product(vogel_params("sl6"), 0),
                                        0.5) == 1.0


class TestOneRecursion:
    def test_doublings_extend_one_recursion(self, monkeypatch):
        # e7's eighth Cartan power at x = 0.5 stops at order 256: one run of
        # the recursion reads rows m = 1..128, where restarting it at orders
        # 16, 32, ..., 256 read 8 + 16 + ... + 128 = 248.
        rows = []

        def counted(m):
            rows.append(m)
            return odd_binomials(m)

        monkeypatch.setattr(series, "odd_binomials", counted)
        instanton._eval_adaptive(cartan_power_product(vogel_params("e7"), 8), 0.5)
        assert rows == list(range(1, 129))


def reference_eval_adaptive(product, x):
    """The adaptive evaluator as it read series(): Horner over the Fraction
    coefficients, with the last nonzero coefficient found on the exact
    values."""
    if product.is_constant:
        return float(product.dim())
    order = instanton._START_ORDER
    while True:
        series = product.series(order)
        value = series.eval_at(x)
        last = max(m for m, c in enumerate(series.coefficients) if c != 0)
        tail = abs(float(series[last])) * abs(x) ** last
        if tail <= instanton.TAIL_TOLERANCE * max(abs(value), 1e-300):
            return value
        if order >= instanton._MAX_ORDER:
            raise FloatEvaluationError(
                f"series evaluation did not converge at x={x} by order {order}")
        order *= 2


def outcome(evaluate, product, x):
    try:
        return evaluate(product, x).hex()
    except (FloatEvaluationError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


class TestIntegerEvaluator:
    """_eval_adaptive reads even_coefficients and gives the bits of the
    series() evaluator above."""

    @staticmethod
    def draw_product(rng):
        if rng.random() < 0.25:
            name = rng.choice(["e7", "e8", "f4", "g2", "sl6"])
            return cartan_power_product(vogel_params(name), rng.randint(1, 10))
        v = rand_params(rng, bound=12)
        kind = rng.choice(["cartan", "z", "y2", "x2", "adjoint"])
        if kind == "cartan":
            return cartan_power_product(v, rng.randint(1, 6))
        if kind == "z":
            return z_product(v, rng.randint(0, 3), rng.randint(0, 2))
        if kind == "y2":
            return y2_product(v, rng.choice(["alpha", "beta", "gamma"]))
        return x2_product(v) if kind == "x2" else adjoint_product(v)

    def test_bit_identical_to_series_evaluator(self, monkeypatch):
        monkeypatch.setattr(instanton, "_MAX_ORDER", 256)
        rng = random.Random(2020)
        point = VogelParams(-4, 1, 1)
        # A constant, a zero and a divergent product (radius 4 pi / 5 < 3).
        cases = [(cartan_power_product(point, 2), -0.5), (cartan_power_product(point, 1), 0.5),
                 (cartan_power_product(VogelParams(-2, F(7, 3), 5), 1), 3.0)]
        assert cases[0][0].is_constant and cases[1][0].is_zero
        while len(cases) < 400:
            try:
                product = self.draw_product(rng)
            except PoleAtParameters:
                continue
            size = rng.choice([10.0 ** rng.uniform(-8.0, -1.0), rng.uniform(0.1, 0.6)])
            x = rng.choice([-1.0, 1.0]) * size
            cases.append((product, x))
        kinds = set()
        for product, x in cases:
            expected = outcome(reference_eval_adaptive, product, x)
            assert outcome(instanton._eval_adaptive, product, x) == expected, (
                product.factors, product.q, x)
            kinds.add(type(expected))
        assert kinds == {str, tuple}


class TestFloatRange:
    def test_no_convergence_by_the_order_cap(self, monkeypatch):
        monkeypatch.setattr(instanton, "_MAX_ORDER", instanton._START_ORDER)
        ip = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=2.0, n_max=3)
        with pytest.raises(FloatEvaluationError, match="did not converge"):
            one_instanton_term(vogel_params("e8"), ip, 3)

    @pytest.mark.parametrize("name,n,x", [
        *[("e8", n, 8.0) for n in (1, 2, 3)], *[("e7", n, 6.0) for n in (1, 2)],
        *[("e8", n, 5.0) for n in (1, 2, 3)], *[("e7", n, 4.0) for n in (1, 2, 3)],
        *[("sl6", n, 10.0) for n in (1, 2)],
    ])
    def test_large_x_raises_or_is_right(self, name, n, x):
        # At large x the tail estimate abs(x) ** (2 * last) can overflow, and
        # many coefficients whose terms matter lie below the float range, so
        # Horner reads them as 0.0: a term must raise rather than be wrong.
        v = vogel_params(name)
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=x, n_max=n)
        try:
            term = one_instanton_term(v, ip, n)
        except FloatEvaluationError:
            return
        assert term == pytest.approx(cartan_power_product(v, n).value_at(x), rel=1e-9)

    def test_coefficient_past_the_float_range(self):
        # sinh(1e160 x/4) / sinh(x/4) is 1e160 at x = 1e-170, which value_at
        # gives, but each of its coefficients past x^0 (1e480 / 96 at x^2)
        # is beyond the float range, so n / den overflows.
        product = SinhProduct([(10**160, 1, "d")], 1)
        assert product.value_at(1e-170) == 1e160
        with pytest.raises(FloatEvaluationError,
                           match=r"at x=1e-170 is not a finite float at order 16$"):
            instanton._eval_adaptive(product, 1e-170)

    @pytest.mark.parametrize("x,sigma", [(100.0, 0.0), (0.5, 1e5)])
    def test_overflowing_term(self, x, sigma):
        ip = InstantonParams(eps1=1.0, eps2=0.0, sigma_n=sigma, x=x, n_max=1)
        with pytest.raises(FloatEvaluationError, match="not a finite float"):
            one_instanton_term(vogel_params("e8"), ip, 1)
