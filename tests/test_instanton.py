import json
import math
import random
import time
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
from uqdim import cli
from uqdim.errors import FloatEvaluationError, PoleAtParameters
from uqdim.series import SinhProduct
from uqdim.universal import adjoint_product, cartan_power_product

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
    # the benchmark's instanton cases, captured when the terms began to read
    # value_at.
    PINS = {
        ("e7", 0.5): (
            "0x1.5ebc10639044fp+13", "0x1.146f065449d1fp+26", "0x1.52a3c19514194p+38",
            "0x1.6ab7795363364p+50", "0x1.680f27eeeedd5p+62", "0x1.55e89dada8976p+74",
            "0x1.3c3da8754e099p+86", "0x1.1fede16d9b33ap+98"),
        ("sl6", 0.25): (
            "0x1.f27377fde0343p+4", "0x1.5401b3510debfp+8", "0x1.19f63c21d5f96p+11",
            "0x1.5e3461bce87ffp+13", "0x1.698a609672bcbp+15", "0x1.495e31f368172p+17",
            "0x1.12d84cef233e3p+19", "0x1.ae993fc9783fdp+20", "0x1.420591260c13cp+22",
            "0x1.d14f414826fb9p+23"),
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

    def test_constant_product_term(self):
        # The second Cartan power at (-4, 1, 1) is the constant -1, which the
        # sinh arithmetic of value_at rounds; the term is its exact dimension.
        point = VogelParams(-4, 1, 1)
        product = cartan_power_product(point, 2)
        assert product.is_constant and product.value_at(0.5) == -0.9999999999999997
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=0.5, n_max=2)
        assert one_instanton_term(point, ip, 2) == -1.0

    def test_constant_products_expand_no_series(self, monkeypatch):
        # Constant products, zero included, give their dimension before any
        # series is built or any sinh is evaluated.
        def no_series(self, *args):
            raise AssertionError("a constant product was expanded")

        monkeypatch.setattr(SinhProduct, "series", no_series)
        monkeypatch.setattr(SinhProduct, "even_coefficients", no_series)
        monkeypatch.setattr(SinhProduct, "hurwitz", no_series)
        monkeypatch.setattr(SinhProduct, "value_at", no_series)
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=0.5, n_max=2)
        table = one_instanton_sum(VogelParams(-4, 1, 1), ip)
        assert table.rows == ((1, 0.0, 0.0), (2, -1.0, -1.0))
        assert math.copysign(1.0, table.rows[0][1]) == 1.0

    def test_terms_expand_no_series(self, monkeypatch):
        # A term that is not constant in x is its power's value_at, never a
        # series.
        def no_series(self, order):
            raise AssertionError("an instanton term expanded a series")

        monkeypatch.setattr(SinhProduct, "series", no_series)
        monkeypatch.setattr(SinhProduct, "even_coefficients", no_series)
        monkeypatch.setattr(SinhProduct, "hurwitz", no_series)
        ip = InstantonParams(eps1=0.1, eps2=0.2, sigma_n=-1.0, x=0.5, n_max=10)
        for name in ("e7", "e8", "sl6", "g2", "f4"):
            table = one_instanton_sum(vogel_params(name), ip)
            assert len(table.rows) == 10

def outcome(evaluate):
    try:
        return evaluate().hex()
    except FloatEvaluationError:
        return FloatEvaluationError


class TestIntegerEvaluator:
    """At sigma = 0 the weight is exactly 1, so a term is its Cartan power's
    value_at, bit for bit, or its exact dimension for a constant power."""

    @staticmethod
    def draw_power(rng):
        if rng.random() < 0.25:
            name = rng.choice(["e7", "e8", "f4", "g2", "sl6"])
            return vogel_params(name), rng.randint(1, 10)
        return rand_params(rng, bound=12), rng.randint(1, 6)

    def test_bit_identical_to_value_at(self):
        rng = random.Random(2020)
        point = VogelParams(-4, 1, 1)
        # A constant, a zero, a power past the radius of its series (4 pi / 5
        # < 3) and an e8 term past the float range.
        cases = [(point, 2, -0.5), (point, 1, 0.5), (VogelParams(-2, F(7, 3), 5), 1, 3.0),
                 (vogel_params("e8"), 1, 100.0)]
        while len(cases) < 400:
            v, n = self.draw_power(rng)
            try:
                cartan_power_product(v, n)
            except PoleAtParameters:
                continue
            size = rng.choice([10.0 ** rng.uniform(-8.0, -1.0), rng.uniform(0.1, 0.6)])
            cases.append((v, n, rng.choice([-1.0, 1.0]) * size))
        kinds = set()
        for v, n, x in cases:
            product = cartan_power_product(v, n)
            ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=x, n_max=n)
            expected = outcome(lambda: float(product.dim()) if product.is_constant
                               else product.value_at(x))
            assert outcome(lambda: one_instanton_term(v, ip, n)) == expected, (v, n, x)
            kinds.add(expected if expected is FloatEvaluationError else product.is_constant)
        assert kinds == {True, False, FloatEvaluationError}


class TestFloatRange:
    @pytest.mark.parametrize("argv,term", [
        ("--alpha=-2 --beta=7/3 --gamma=5 --x 3", 480257.60367146536),
        ("--alpha=-26 --beta=-2/5 --gamma=-7/6 --x 0.55", -134470484.08742356),
        ("e8 --x 8", 5.707757528676087e+100),
    ], ids=["past-radius-2.5", "past-radius-0.48", "e8-x8"])
    def test_answers_where_value_at_does(self, capsys, argv, term):
        # The first two lie past the radius of convergence of their series in
        # x, and at e8 and x = 8 a series tail estimate overflows: an
        # adaptive series evaluator exited 5 on each after 0.3-4 s.
        start = time.perf_counter()
        code = cli.main(["instanton", *argv.split(), "--nmax", "1", "--json"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["status"] == "pass"
        assert doc["results"]["rows"] == [[1, term, term]]
        assert elapsed < 1.0

    @pytest.mark.parametrize("name,n,x", [
        *[("e8", n, 8.0) for n in (1, 2, 3)], *[("e7", n, 6.0) for n in (1, 2)],
        *[("e8", n, 5.0) for n in (1, 2, 3)], *[("e7", n, 4.0) for n in (1, 2, 3)],
        *[("sl6", n, 10.0) for n in (1, 2)],
    ])
    def test_large_x_raises_or_is_right(self, name, n, x):
        # Large x broke the series evaluator that terms once used: its tail
        # estimate overflowed, and coefficients below the float range read
        # as 0.0.  A term must raise or agree with value_at.
        v = vogel_params(name)
        ip = InstantonParams(eps1=0.0, eps2=0.0, sigma_n=0.0, x=x, n_max=n)
        try:
            term = one_instanton_term(v, ip, n)
        except FloatEvaluationError:
            return
        assert term == pytest.approx(cartan_power_product(v, n).value_at(x), rel=1e-9)

    @pytest.mark.parametrize("x,sigma", [(100.0, 0.0), (0.5, 1e5)])
    def test_overflowing_term(self, x, sigma):
        ip = InstantonParams(eps1=1.0, eps2=0.0, sigma_n=sigma, x=x, n_max=1)
        with pytest.raises(FloatEvaluationError, match="not a finite float"):
            one_instanton_term(vogel_params("e8"), ip, 1)
