import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from uqdim import (
    PoleAtParameters,
    PowerSeries,
    UnknownAlgebra,
    VogelParams,
    build_root_system,
    casimir_adjoint,
    casimir_y2,
    dim_adjoint,
    exc_line_dim,
    exc_line_params,
    line_params,
    parse_algebra,
    qdim_adjoint,
    qdim_cartan_adjoint,
    qdim_x2,
    qdim_y2,
    qdim_z,
    sinh_ratio_series,
    vogel_params,
    weyl_qdim,
)
from uqdim import universal
from uqdim.series import SinhProduct
from uqdim.universal import (
    AlgebraId,
    adjoint_product,
    algebra_line,
    cartan_power_product,
    x2_product,
    y2_product,
    z_dim_along_family,
    z_dim_along_line,
    z_product,
)

from conftest import rand_fraction, rand_params, sample_regular_points

ALGEBRA_DIMS = {
    "sl6": 35, "so7": 21, "sp6": 21, "so12": 66, "g2": 14,
    "f4": 52, "e6": 78, "e7": 133, "e8": 248,
}

DUAL_COXETER = {
    "sl6": 6, "so7": 5, "sp6": 4, "so12": 10, "g2": 4,
    "f4": 9, "e6": 12, "e7": 18, "e8": 30,
}


def _block(forms, context):
    """The series of one block of the mixed Cartan product at v.  The
    library compiles whole formulas only; a block's forms go through the
    same program and product: block(v, *params, order)."""
    def series(v, *args):
        *params, order = args
        program = universal._forms_program(*forms(*params), 1, context)
        return universal._materialize(program, v).series(order)
    return series


z_block_a = _block(universal._a_forms, "z_block_a")
z_block_c1 = _block(universal._c1_forms, "z_block_c1")
z_block_c2 = _block(universal._c2_forms, "z_block_c2")
z_block_f = _block(universal._f_forms, "z_block_f")
z_block_btilde = _block(universal._btilde_forms, "z_block_btilde")


def j_dim_formula(lam):
    """Closed-form dimension of the Cartan square of Y2(beta) on the
    exceptional line (lam, 1-lam, 2)."""
    lam = F(lam)
    num = (81 * (lam - 6) * (lam - 4) * (lam - 3) * (lam + 2) * (lam + 3)
           * (lam + 5) * (2 * lam - 5) * (2 * lam + 3))
    den = ((lam - 1) ** 2 * lam ** 2 * (2 * lam - 1) ** 2
           * (3 * lam - 2) * (3 * lam - 1))
    return num / den


class TestParameters:
    def test_exceptional_rows(self):
        assert vogel_params("e8").as_tuple() == (-2, 12, 20)
        assert vogel_params("g2").as_tuple() == (-2, F(10, 3), F(8, 3))
        assert vogel_params("f4").as_tuple() == (-2, 5, 6)

    def test_sl_row(self):
        for n in (2, 3, 6, 9):
            assert vogel_params(f"sl{n}").as_tuple() == (-2, 2, n)

    def test_t_is_dual_coxeter(self):
        for name, h in DUAL_COXETER.items():
            assert vogel_params(name).t == h

    def test_name_grammar(self):
        assert parse_algebra("sl 6").label == "sl6"
        assert parse_algebra("so 12") == parse_algebra("so12")
        assert parse_algebra("E8").family == "E"
        for bad in ("sl1", "so4", "sp5", "e9", "f5", "q7", "sl"):
            with pytest.raises(UnknownAlgebra):
                parse_algebra(bad)

    def test_lines(self):
        assert line_params("so", 12).as_tuple() == (-2, 4, 8)
        assert line_params("sl", 6).as_tuple() == (-2, 2, 6)
        assert line_params("sp", 6).as_tuple() == (-2, 1, 5)
        exc8 = line_params("exc", 8)
        assert exc8.as_tuple() == (-2, 20, 12)
        assert sorted(exc8.as_tuple()) == sorted(vogel_params("e8").as_tuple())

    def test_exc_line_parametrisation(self):
        v = exc_line_params(F(3, 7))
        assert v.gamma == 2 * (v.alpha + v.beta)
        assert 3 * exc_line_params(F(-2, 3)).beta == 5

    def test_vieta(self):
        v = VogelParams(2, 3, 5)
        assert v.t == 10

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            VogelParams(0, 0, 0)

    def test_permuted_and_slot_first(self):
        v = VogelParams(1, 2, 3)
        assert v.permuted((2, 0, 1)).as_tuple() == (3, 1, 2)
        assert v.permuted(universal._SLOT_ORDERS["gamma"]).as_tuple() == (3, 2, 1)

    def test_scaled(self):
        v = VogelParams(-2, 4, 8).scaled(2)
        assert v.as_tuple() == (-1, 2, 4)


def integer_point_cases():
    """Coordinate triples of every kind VogelParams takes: ints, small
    Fractions and Fractions of floats (2^k denominators up to 2^60), with
    negative and zero entries."""
    rng = random.Random(2101)
    cases = [
        (1, 2, 3), (-2, 12, 20), (0, 0, 1), (-7, 0, 5),
        (F(1, 2), F(-3, 4), 5), (F(-2), F(10, 3), F(8, 3)),
        (F(0.1), F(-0.3), F(7.25)), (F(-1e-3), F(2.5e-7), F(3)),
        (F(1, 2 ** 50), F(-3, 2 ** 49), F(5, 2 ** 60)),
    ]
    for _ in range(40):
        cases.append((rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)))
        cases.append(tuple(F(rng.uniform(-8.0, 8.0)) for _ in range(3)))
        cases.append((rng.randint(-9, 9), F(rng.uniform(-8.0, 8.0)), rand_fraction(rng)))
    return cases


class TestIntegerPoint:
    def test_point_is_exact_over_the_lcm(self):
        for triple in integer_point_cases():
            v = VogelParams(*triple)
            A, B, C, q = v.point
            assert all(type(n) is int for n in v.point), triple
            assert (F(A, q), F(B, q), F(C, q)) == tuple(map(F, triple)) == v.as_tuple()
            assert q == math.lcm(*(F(c).denominator for c in triple)), triple

    def test_permuted_point(self):
        for triple in integer_point_cases():
            v = VogelParams(*triple)
            A, B, C, q = v.point
            for order in itertools.permutations(range(3)):
                w = v.permuted(order)
                assert w.point == (*((A, B, C)[i] for i in order), q), (triple, order)
                assert w.as_tuple() == tuple(v.as_tuple()[i] for i in order)

    def test_fields_are_fractions(self):
        v = VogelParams(1, F(2), 0.5)
        assert all(type(c) is F for c in v.as_tuple())
        assert v.point == (2, 4, 1, 2)

    def test_equality_hash_and_repr_ignore_the_point(self):
        v = VogelParams(1, 2, 3)
        w = VogelParams(F(1), F(2), F(3))
        assert v == w and hash(v) == hash(w)
        assert hash(v) == hash((F(1), F(2), F(3)))
        assert v != VogelParams(1, 3, 2)
        assert v == VogelParams(F(2, 2), 2.0, F(6, 2))
        assert repr(v) == ("VogelParams(alpha=Fraction(1, 1), beta=Fraction(2, 1), "
                           "gamma=Fraction(3, 1))")
        assert {v: 1}[VogelParams(1, 2, F(3))] == 1

    def test_point_cannot_be_passed(self):
        with pytest.raises(TypeError):
            VogelParams(1, 2, 3, (1, 2, 3, 1))


# Per-family Vogel points written out by hand: a reference independent of
# the line table.
def _reference_point(family, n):
    if family == "A":
        return (-2, 2, n + 1)
    if family == "B":
        return (-2, 4, 2 * n - 3)
    if family == "C":
        return (-2, 1, n + 2)
    if family == "D":
        return (-2, 4, 2 * n - 4)
    return {
        ("G", 2): (-2, F(10, 3), F(8, 3)),
        ("F", 4): (-2, 5, 6),
        ("E", 6): (-2, 6, 8),
        ("E", 7): (-2, 8, 12),
        ("E", 8): (-2, 12, 20),
    }[(family, n)]


LINE_NAMES = ([f"sl{n + 1}" for n in range(1, 13)] + [f"so{2 * n + 1}" for n in range(2, 13)]
              + [f"sp{2 * n}" for n in range(2, 13)] + [f"so{2 * n}" for n in range(3, 13)]
              + ["g2", "f4", "e6", "e7", "e8"])


class TestAlgebraLine:
    @pytest.mark.parametrize("name", LINE_NAMES)
    def test_point_is_on_its_line(self, name):
        aid = parse_algebra(name)
        line, value, order = algebra_line(aid)
        v = vogel_params(aid)
        assert v == line_params(line, value).permuted(order)
        assert v.as_tuple() == _reference_point(aid.family, aid.rank)
        assert algebra_line(name) == (line, value, order)

    def test_lines_and_orders(self):
        assert algebra_line("sl6") == ("sl", 6, (0, 1, 2))
        assert algebra_line("so7") == ("so", 7, (0, 1, 2))
        assert algebra_line("sp6") == ("sp", 6, (0, 1, 2))
        assert algebra_line("so12") == ("so", 12, (0, 1, 2))
        assert algebra_line("g2") == ("exc", F(-2, 3), (0, 2, 1))
        assert algebra_line("f4") == ("exc", 1, (0, 2, 1))

    @pytest.mark.parametrize("lookup", [algebra_line, vogel_params])
    def test_no_line(self, lookup):
        with pytest.raises(UnknownAlgebra, match="^no Vogel parameters for E9$"):
            lookup(AlgebraId("E", 9, "e9"))


class TestDimAndCasimir:
    def test_table_dimensions(self):
        for name, dim in ALGEBRA_DIMS.items():
            assert dim_adjoint(vogel_params(name)) == dim

    def test_sl_line_closed_form(self):
        for n in (2, 3, 5, 8, 13):
            assert dim_adjoint(VogelParams(-2, 2, n)) == n * n - 1

    def test_pole(self):
        with pytest.raises(PoleAtParameters):
            dim_adjoint(VogelParams(0, 1, 1))

    def test_casimirs(self):
        v = vogel_params("e7")
        assert casimir_adjoint(v) == 36
        assert casimir_y2(v, "alpha") == 4 * 18 + 4
        assert casimir_y2(v, "beta") == 4 * 18 - 16
        assert casimir_y2(v, "gamma") == 4 * 18 - 24

    def test_casimir_slot_relabelling(self):
        v = VogelParams(F(1, 2), F(-3, 4), 5)
        w = v.permuted((1, 0, 2))
        assert casimir_y2(v, "beta") == casimir_y2(w, "alpha")


class TestAdjoint:
    def test_sl2_closed_form(self):
        assert qdim_adjoint(VogelParams(-2, 2, 2), 16) == sinh_ratio_series(6, 2, 16)

    def test_constant_term_is_dimension(self):
        points = sample_regular_points(31, 20, lambda v: adjoint_product(v))
        for v in points:
            assert qdim_adjoint(v, 0).constant_term == dim_adjoint(v)

    def test_full_permutation_invariance(self):
        points = sample_regular_points(33, 10, lambda v: adjoint_product(v))
        for v in points:
            base = qdim_adjoint(v, 12)
            for perm in itertools.permutations(range(3)):
                assert qdim_adjoint(v.permuted(perm), 12) == base

    def test_pole(self):
        with pytest.raises(PoleAtParameters):
            qdim_adjoint(VogelParams(-2, 0, 3), 4)


class TestCartanPowers:
    def test_n1_is_adjoint(self):
        points = sample_regular_points(35, 10, lambda v: adjoint_product(v))
        for v in points:
            assert qdim_cartan_adjoint(v, 1, 12) == qdim_adjoint(v, 12)

    @pytest.mark.parametrize("name,n,dim", [
        ("sl6", 2, 405), ("sl6", 3, 2695),
        ("f4", 2, 1053), ("f4", 3, 12376),
        ("so12", 3, 23100), ("e8", 2, 27000),
    ])
    def test_dimensions(self, name, n, dim):
        # 1053 (f4 Cartan square) and 27000 (e8) pin the Weyl oracle too.
        v = vogel_params(name)
        assert qdim_cartan_adjoint(v, n, 0).constant_term == dim
        aid = parse_algebra(name)
        rs = build_root_system(aid.family, aid.rank)
        lam = rs.weight(tuple(n * c for c in rs.theta))
        from uqdim import weyl_dim
        assert weyl_dim(rs, lam) == dim

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            qdim_cartan_adjoint(vogel_params("e6"), 0, 4)


class TestY2:
    def test_slot_alpha_is_cartan_square(self):
        points = sample_regular_points(37, 10, lambda v: y2_product(v, "alpha"))
        for v in points:
            try:
                cartan = qdim_cartan_adjoint(v, 2, 12)
            except PoleAtParameters:
                continue
            assert qdim_y2(v, "alpha", 12) == cartan

    def test_slot_beta_sl6(self):
        assert qdim_y2(vogel_params("sl6"), "beta", 0).constant_term == 189

    def test_other_slots_symmetric(self):
        v = VogelParams(F(2, 3), F(-5, 7), F(9, 4))
        assert qdim_y2(v, "beta", 10) == qdim_y2(v.permuted((1, 2, 0)), "alpha", 10)

    def test_sum_rule(self):
        def probe(v):
            for slot in ("alpha", "beta", "gamma"):
                y2_product(v, slot)
            dim_adjoint(v)

        points = sample_regular_points(39, 200, probe)
        for v in points:
            d = dim_adjoint(v)
            total = 1 + sum(qdim_y2(v, slot, 0).constant_term
                            for slot in ("alpha", "beta", "gamma"))
            assert total == d * (d + 1) / 2


class TestX2:
    @pytest.mark.parametrize("name,dim", [("sl6", 560), ("f4", 1274), ("so12", 2079)])
    def test_dimensions(self, name, dim):
        assert qdim_x2(vogel_params(name), 0).constant_term == dim

    def test_vanishes_for_rank_one(self):
        # At (-2, 2, 2) the antisymmetric square is the adjoint alone.
        assert qdim_x2(VogelParams(-2, 2, 2), 8).is_zero

    def test_full_permutation_invariance(self):
        points = sample_regular_points(41, 10, x2_product)
        for v in points:
            base = qdim_x2(v, 12)
            for perm in itertools.permutations(range(3)):
                assert qdim_x2(v.permuted(perm), 12) == base

    def test_regular_when_t_equals_gamma(self):
        # sl6 has t = gamma; the doubled-argument factors are entire there.
        v = vogel_params("sl6")
        series = qdim_x2(v, 8)
        assert series.constant_term == 560


class TestZBlocks:
    def test_empty_products(self):
        v = rand_params(random.Random(43))
        assert z_block_a(v, 0, 6) == PowerSeries.one(6)
        assert z_block_c1(v, 0, 6) == PowerSeries.one(6)
        assert z_block_c2(v, 0, 6) == PowerSeries.one(6)
        assert z_block_btilde(v, 0, 6) == PowerSeries.one(6)

    def test_c2_first_factor(self):
        v = VogelParams(F(-7, 5), F(3, 2), F(1, 3))
        assert z_block_c2(v, 1, 10) == sinh_ratio_series(-2 * v.beta, v.alpha, 10)

    def test_btilde_delegates_to_border_factors(self):
        # The orthogonal-subalgebra block is the border block at
        # (alpha, beta, gamma - beta).
        v = VogelParams(F(-2), F(3, 4), F(7, 3))
        a, b, c = v.alpha, v.beta, v.gamma - v.beta
        expected = PowerSeries.one(10)
        for i in (1, 2):
            expected = expected * sinh_ratio_series(c + 2 * b + (3 - i) * a,
                                                    c + (1 - i) * a, 10)
            expected = expected * sinh_ratio_series(2 * c + b + (3 - i) * a,
                                                    b + (1 - i) * a, 10)
            expected = expected * sinh_ratio_series(2 * c + 2 * b + (4 - i) * a,
                                                    -i * a, 10)
        assert z_block_btilde(v, 2, 10) == expected

    def test_f_block_trivial_at_origin(self):
        v = rand_params(random.Random(47))
        assert z_block_f(v, 0, 0, 6) == PowerSeries.one(6)


class TestZ:
    def test_trivial(self):
        v = rand_params(random.Random(49))
        assert qdim_z(v, 0, 0, 8) == PowerSeries.one(8)

    def test_reduces_to_adjoint(self):
        points = sample_regular_points(51, 10, lambda v: z_product(v, 1, 0))
        for v in points:
            assert qdim_z(v, 1, 0, 12) == qdim_adjoint(v, 12)

    def test_reduces_to_cartan_powers(self):
        def probe(v):
            for n in (1, 2, 3):
                z_product(v, n, 0)

        for v in sample_regular_points(53, 10, probe):
            for n in (1, 2, 3):
                assert qdim_z(v, n, 0, 10) == qdim_cartan_adjoint(v, n, 10)

    def test_z01_is_y2_beta(self):
        def probe(v):
            z_product(v, 0, 1)
            y2_product(v, "beta")

        for v in sample_regular_points(55, 10, probe):
            assert qdim_z(v, 0, 1, 10) == qdim_y2(v, "beta", 10)

    def test_mixed_product_symmetric_in_first_two_slots(self):
        for v in sample_regular_points(57, 10, lambda v: z_product(v, 1, 1)):
            try:
                swapped = qdim_z(v.permuted((1, 0, 2)), 1, 1, 10)
            except PoleAtParameters:
                continue
            assert qdim_z(v, 1, 1, 10) == swapped

    def test_symmetry_fails_beyond_one_one(self):
        # The first-two-slot symmetry is special to (k, l) = (1, 1).
        v = VogelParams(F(3, 5), F(-7, 3), F(11, 4))
        assert qdim_z(v, 2, 1, 8) != qdim_z(v.permuted((1, 0, 2)), 2, 1, 8)

    @pytest.mark.parametrize("name,dim", [
        ("sl6", 3675), ("f4", 10829), ("so12", 21021),
    ])
    def test_one_one_dimensions(self, name, dim):
        assert z_product(vogel_params(name), 1, 1).dim() == dim

    def test_g2_vanishing(self):
        v = vogel_params("g2")
        for k in range(4):
            for p in (2, 3):
                assert qdim_z(v, k, p, 16).is_zero

    def test_g2_matches_weyl_for_one_y2(self):
        v = vogel_params("g2")
        rs = build_root_system("G", 2)
        for k in range(4):
            vec = tuple((k + 1) * t + s for t, s in zip(rs.theta, rs.sigma))
            assert qdim_z(v, k, 1, 16) == weyl_qdim(rs, rs.weight(vec), 16)


class TestLineEvaluation:
    def test_so12_cube_beta_slot(self):
        # Indeterminate as a point evaluation, regular along the so family.
        with pytest.raises(PoleAtParameters):
            z_product(vogel_params("so12").permuted((1, 0, 2)), 3, 0).dim()
        assert z_dim_along_line("so", 12, (1, 0, 2), 3, 0) == 924

    def test_so_family_closed_form(self):
        for n in (8, 10, 14, 16, 20):
            expected = F((n - 5) * (n - 4) * (n - 3) * (n - 2) * (n - 1) * n, 720)
            assert z_dim_along_line("so", n, (1, 0, 2), 3, 0) == expected

    def test_agrees_with_point_when_regular(self):
        assert z_dim_along_line("sl", 6, (0, 1, 2), 3, 0) == 2695
        # the exceptional-series row carries beta and gamma swapped relative
        # to the f4 parameters, so the unpermuted slot arrangement gives the
        # vanishing mixed product and the swap restores 10829
        assert z_dim_along_line("exc", 1, (0, 1, 2), 1, 1) == 0
        assert z_dim_along_line("exc", 1, (0, 2, 1), 1, 1) == 10829

    def test_family_evaluation(self):
        assert z_dim_along_family(
            lambda n: line_params("exc", n).permuted((0, 2, 1)), F(1), 1, 1
        ) == 10829


class TestExceptionalLine:
    def test_matches_closed_form_at_sampled_points(self):
        rng = random.Random(61)
        checked = 0
        while checked < 20:
            lam = F(rng.randint(-48, 48), rng.randint(1, 16))
            try:
                value = exc_line_dim(lam, 0, 2)
            except PoleAtParameters:
                continue
            assert value == j_dim_formula(lam)
            checked += 1

    def test_removable_points_evaluate(self):
        for lam in (2, -1, 4, -6, F(-4, 3), F(-5, 2), -2, -4):
            assert exc_line_dim(lam, 0, 2) == j_dim_formula(lam)

    def test_pole_set(self):
        for lam in (0, 1, F(1, 2), F(2, 3), F(1, 3)):
            with pytest.raises(PoleAtParameters):
                exc_line_dim(lam, 0, 2)

    def test_vanishes_at_the_g2_points(self):
        # (lam, 1-lam, 2) is a rescaling of (-2, 10/3, 8/3) exactly at
        # lam = -3/2 and, with the first two slots swapped, at lam = 5/2.
        assert exc_line_dim(F(-3, 2), 0, 2) == 0
        assert exc_line_dim(F(5, 2), 0, 2) == 0
        g2 = vogel_params("g2").scaled(F(4, 3))
        assert g2.as_tuple() == (F(-3, 2), F(5, 2), 2)

    def test_f4_point_value(self):
        # lam = -2/3 rescales to (-2, 5, 6); the value is the f4 dimension
        # of the Cartan square of Y2(beta), confirmed by the Weyl oracle.
        assert 3 * exc_line_params(F(-2, 3)).alpha == -2
        assert exc_line_dim(F(-2, 3), 0, 2) == 16302

    def test_adjoint_dimension_along_line(self):
        rng = random.Random(63)
        for _ in range(10):
            lam = F(rng.randint(-20, 20), rng.randint(1, 8))
            if lam in (0, 1):
                continue
            assert exc_line_dim(lam, 1, 0) == dim_adjoint(exc_line_params(lam))


class TestScalingInvariance:
    def test_series_transform(self):
        rng = random.Random(65)

        def probe(v):
            adjoint_product(v)
            x2_product(v)
            z_product(v, 1, 1)
            z_product(v, 2, 0)

        points = sample_regular_points(67, 12, probe)
        for v in points:
            z = rand_fraction(rng, 8)
            scaled = v.scaled(z)
            for series_of in (
                lambda w: qdim_adjoint(w, 10),
                lambda w: qdim_cartan_adjoint(w, 2, 10),
                lambda w: qdim_x2(w, 10),
                lambda w: qdim_z(w, 1, 1, 10),
            ):
                assert series_of(scaled).scale_x(z) == series_of(v)


class TestPoleDiagnostics:
    def test_message_names_the_form(self):
        with pytest.raises(PoleAtParameters, match="alpha"):
            qdim_adjoint(VogelParams(0, 2, 3), 4)
        with pytest.raises(PoleAtParameters, match="beta"):
            qdim_z(VogelParams(-2, 0, 3), 1, 1, 4)


# ---------------------------------------------------------------------------
# compiled programs against the hand-written reference builders
# ---------------------------------------------------------------------------

# The reference: the adjoint, Y2 and X2 factor lists written out by hand, and
# every form evaluated one at a time in Fraction arithmetic.


def ref_form_str(form):
    parts = []
    for coeff, name in zip(form, ("alpha", "beta", "gamma")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else f'{mag}*'}{name}")
    return "".join(parts) if parts else "0"


def ref_eval_form(form, v):
    return form[0] * v.alpha + form[1] * v.beta + form[2] * v.gamma


def ref_product(factors, sign, context):
    """The product of (num, den, label) factors, den None for a cosh factor,
    with Fraction arguments put over the lcm of their denominators."""
    q = math.lcm(*(r.denominator for n, d, _ in factors for r in (n, d) if r is not None))
    return SinhProduct([(int(n * q), None if d is None else int(d * q), label)
                        for n, d, label in factors], q, sign, context)


def ref_materialize(nums, dens, sign, v, context):
    assert len(nums) == len(dens)
    factors = [
        (ref_eval_form(num, v), ref_eval_form(den, v), ref_form_str(den))
        for num, den in zip(nums, dens)
    ]
    return ref_product(factors, sign, context)


def ref_adjoint(v):
    a, b, c = v.as_tuple()
    factors = [
        (c + 2 * b + 2 * a, c, "gamma"),
        (2 * c + b + 2 * a, b, "beta"),
        (2 * c + 2 * b + a, a, "alpha"),
    ]
    return ref_product(factors, -1, "qdim_adjoint")


# The denominators of Y2(slot) in factor order, written in (alpha, beta,
# gamma): the slot-first forms with the slot swapped to the front.
Y2_LABELS = {
    "alpha": ("alpha", "2*alpha", "beta", "gamma", "alpha-beta", "alpha-gamma"),
    "beta": ("beta", "2*beta", "alpha", "gamma", "-alpha+beta", "beta-gamma"),
    "gamma": ("gamma", "2*gamma", "beta", "alpha", "-beta+gamma", "-alpha+gamma"),
}


def ref_y2(v, slot):
    w = v.permuted(universal._SLOT_ORDERS[slot])
    a, b, c = w.as_tuple()
    t = w.t
    ratios = [
        (2 * t, a),
        (b - 2 * t, 2 * a),
        (c - 2 * t, b),
        (b + t, c),
        (c + t, a - b),
        (3 * a - 2 * t, a - c),
    ]
    factors = [(n, d, label) for (n, d), label in zip(ratios, Y2_LABELS[slot], strict=True)]
    return ref_product(factors, -1, f"qdim_y2({slot})")


def ref_x2(v):
    a, b, c = v.as_tuple()
    t = v.t
    factors = [
        (2 * t - a, a, "alpha"),
        (2 * t - b, b, "beta"),
        (2 * t - c, c, "gamma"),
        (t + a, 2 * a, "2*alpha"),
        (t + b, 2 * b, "2*beta"),
        (t + c, 2 * c, "2*gamma"),
        (t - a, None, "t-alpha"),
        (t - b, None, "t-beta"),
        (t - c, None, "t-gamma"),
    ]
    return ref_product(factors, 1, "qdim_x2")


def ref_cartan(v, n):
    if n == 0:
        return ref_product([], 1, "qdim_cartan_adjoint(n=0)")
    return ref_materialize(*universal._cartan_forms(n), v, f"qdim_cartan_adjoint(n={n})")


def ref_z(v, k, l):
    if k == 0 and l == 0:
        return ref_product([], 1, "qdim_z")
    return ref_materialize(*universal._z_forms(k, l), v, f"qdim_z(k={k}, l={l})")


def product_outcome(build, v):
    """Everything a built product exposes, its arguments as fractions, or
    the text of its pole."""
    try:
        product = build(v)
    except PoleAtParameters as exc:
        return ("pole", str(exc))
    q = product.q
    factors = [(F(n, q), None if d is None else F(d, q), label)
               for n, d, label in product.factors]
    return ("product", product.sign, product.context, factors)


def program_points(seed, count=24):
    """Small rationals, which often land on a pole, and Fraction(float)
    coordinates as numeric verification draws them."""
    rng = random.Random(seed)
    points = [rand_params(rng, bound=6) for _ in range(count // 2)]
    while len(points) < count:
        triple = [F(rng.uniform(-8.0, 8.0)) for _ in range(3)]
        points.append(VogelParams(*triple))
    return points


PROGRAM_CASES = (
    [("adjoint", adjoint_product, ref_adjoint)]
    + [(f"y2-{slot}", lambda v, s=slot: y2_product(v, s), lambda v, s=slot: ref_y2(v, s))
       for slot in ("alpha", "beta", "gamma")]
    + [("x2", x2_product, ref_x2)]
    + [(f"cartan-{n}", lambda v, n=n: cartan_power_product(v, n),
        lambda v, n=n: ref_cartan(v, n)) for n in range(7)]
    + [(f"z-{k}-{l}", lambda v, k=k, l=l: z_product(v, k, l),
        lambda v, k=k, l=l: ref_z(v, k, l))
       for k in range(4) for l in range(4)]
)

BLOCK_CASES = (
    [(f"a-{n}", lambda v, n=n: z_block_a(v, n, 10), universal._a_forms(n), "z_block_a")
     for n in range(4)]
    + [(f"c1-{n}", lambda v, n=n: z_block_c1(v, n, 10), universal._c1_forms(n), "z_block_c1")
       for n in range(4)]
    + [(f"c2-{n}", lambda v, n=n: z_block_c2(v, n, 10), universal._c2_forms(n), "z_block_c2")
       for n in range(4)]
    + [(f"f-{k}-{l}", lambda v, k=k, l=l: z_block_f(v, k, l, 10),
        universal._f_forms(k, l), "z_block_f") for k in range(3) for l in range(3)]
    + [(f"btilde-{l}", lambda v, l=l: z_block_btilde(v, l, 10),
        universal._btilde_forms(l), "z_block_btilde") for l in range(4)]
)


def series_outcome(build, v):
    try:
        return ("series", build(v))
    except PoleAtParameters as exc:
        return ("pole", str(exc))


class TestFormPrograms:
    @pytest.mark.parametrize("name, build, reference", PROGRAM_CASES,
                             ids=[case[0] for case in PROGRAM_CASES])
    def test_product_matches_reference(self, name, build, reference):
        for v in program_points(sum(map(ord, name))):
            assert product_outcome(build, v) == product_outcome(reference, v), v

    @pytest.mark.parametrize("name, build, forms, context", BLOCK_CASES,
                             ids=[case[0] for case in BLOCK_CASES])
    def test_block_matches_reference(self, name, build, forms, context):
        nums, dens = forms
        reference = lambda v: ref_materialize(nums, dens, 1, v, context).series(10)
        for v in program_points(sum(map(ord, name)), count=8):
            assert series_outcome(build, v) == series_outcome(reference, v), v

    @pytest.mark.parametrize("compile_, args", [
        (lambda: universal._ADJOINT_PROGRAM, ()),
        (universal._y2_program, ("beta",)),
        (lambda: universal._X2_PROGRAM, ()),
        (universal._cartan_program, (3,)),
        (universal._z_program, (2, 1)),
    ])
    def test_program_is_cached_and_immutable(self, compile_, args):
        program = compile_(*args)
        assert compile_(*args) is program
        assert isinstance(program, universal.FormProgram)
        assert type(program.sinh) is tuple and type(program.cosh) is tuple
        for num, den, label in program.sinh:
            assert type(num) is tuple and type(den) is tuple and type(label) is str
            assert all(type(c) is int for c in num + den)
        for arg, label in program.cosh:
            assert type(arg) is tuple and type(label) is str

    def test_cancel_forms_matches_quadratic_reference(self, monkeypatch):
        def reference(nums, dens):
            # each denominator removes the first equal (or negated) numerator
            sign, remaining, kept_dens = 1, list(nums), []
            for d in dens:
                neg = (-d[0], -d[1], -d[2])
                if d in remaining:
                    remaining.remove(d)
                elif neg in remaining:
                    remaining.remove(neg)
                    sign = -sign
                else:
                    kept_dens.append(d)
            return tuple(remaining), tuple(kept_dens), sign

        cancel = universal._cancel_forms
        calls = []

        def checked(nums, dens):
            calls.append(len(nums))
            result = cancel(nums, dens)
            assert result == reference(nums, dens), (nums, dens)
            return result

        monkeypatch.setattr(universal, "_cancel_forms", checked)
        for n in range(41):
            universal._cartan_forms(n)
        for k in range(9):
            for l in range(9):
                universal._z_forms(k, l)
        assert len(calls) == 41 + 81

    def test_cancelled_forms_are_tuples(self):
        for nums, dens, _ in (universal._z_forms(2, 1), universal._cartan_forms(3)):
            assert type(nums) is tuple and type(dens) is tuple

    def test_bad_slot(self):
        with pytest.raises(ValueError, match="slot must be one of"):
            y2_product(VogelParams(1, 2, 3), "delta")

    def test_casimir_bad_slot(self):
        with pytest.raises(ValueError, match="^slot must be one of .*, got 'delta'$"):
            casimir_y2(VogelParams(1, 2, 3), "delta")


def form_signature(program, order=(0, 1, 2)):
    """(form weights, overall sign, denominator forms) of a program, with
    each form's coordinates taken in the given order.  A sinh form f is
    identified with -f (first nonzero coefficient positive), flipping the
    sign; a cosh argument A enters as the ratio of sinh forms 2A over A.
    Two programs with equal signatures are the same function of (alpha,
    beta, gamma, x), with the same poles."""
    sign, weights, dens = program.sign, {}, set()

    def enter(form, weight):
        nonlocal sign
        form = tuple(form[i] for i in order)
        if next((c for c in form if c), 0) < 0:
            form, sign = tuple(-c for c in form), -sign
        weights[form] = weights.get(form, 0) + weight
        return form

    for num, den, _ in program.sinh:
        enter(num, 1)
        dens.add(enter(den, -1))
    for arg, _ in program.cosh:
        enter(tuple(2 * c for c in arg), 1)
        enter(arg, -1)
    return {f: w for f, w in weights.items() if w}, sign, dens


class TestFormLevelIdentities:
    """The low-dimensional formulas are members of the Z(k, l) family,
    compared on the compiled programs with no point and no expansion."""

    @pytest.mark.parametrize("left, right", [
        (lambda: universal._ADJOINT_PROGRAM, lambda: universal._cartan_program(1)),
        (lambda: universal._y2_program("alpha"), lambda: universal._cartan_program(2)),
        (lambda: universal._y2_program("beta"), lambda: universal._z_program(0, 1)),
    ] + [
        (lambda n=n: universal._cartan_program(n), lambda n=n: universal._z_program(n, 0))
        for n in range(13)
    ])
    def test_same_function(self, left, right):
        assert form_signature(left()) == form_signature(right())

    def test_y2_gamma_is_z01_with_beta_and_gamma_swapped(self):
        assert (form_signature(universal._y2_program("gamma"))
                == form_signature(universal._z_program(0, 1), (0, 2, 1)))

    def test_signature_tells_formulas_apart(self):
        for left, right in ((universal._cartan_program(1), universal._cartan_program(2)),
                            (universal._y2_program("alpha"), universal._z_program(0, 1))):
            assert form_signature(left) != form_signature(right)

    def test_signature_reads_cosh_as_a_sinh_ratio(self):
        # X2's cosh(t - alpha) written as sinh(2(t - alpha)) / sinh(t - alpha)
        x2 = universal._X2_PROGRAM
        as_sinh = x2._replace(cosh=(), sinh=x2.sinh + tuple(
            (tuple(2 * c for c in arg), arg, label) for arg, label in x2.cosh))
        assert form_signature(x2)[:2] == form_signature(as_sinh)[:2]
        assert form_signature(x2) != form_signature(x2._replace(cosh=x2.cosh[:2]))


# Points where one denominator form vanishes, with the label the pole message
# names; first factors first.  Captured from the hand-written builders.
POLE_PINS = [
    ('qdim_adjoint', adjoint_product, (), [
        ((-1, -1, 0), 'gamma'), ((-1, 0, -1), 'beta'), ((0, -1, -1), 'alpha'),
    ]),
    ('qdim_y2(alpha)', y2_product, ('alpha',), [
        ((0, -1, -1), 'alpha'), ((-1, 0, 1), 'beta'), ((-1, 1, 0), 'gamma'),
        ((-1, -1, 1), 'alpha-beta'), ((-1, 1, -1), 'alpha-gamma'),
    ]),
    ('qdim_y2(beta)', y2_product, ('beta',), [
        ((-1, 0, -1), 'beta'), ((0, -1, 1), 'alpha'), ((-1, 1, 0), 'gamma'),
        ((-1, -1, 1), '-alpha+beta'), ((-1, 1, 1), 'beta-gamma'),
    ]),
    ('qdim_y2(gamma)', y2_product, ('gamma',), [
        ((-1, -1, 0), 'gamma'), ((-1, 0, 1), 'beta'), ((0, -1, 1), 'alpha'),
        ((-1, 1, 1), '-beta+gamma'), ((-1, 1, -1), '-alpha+gamma'),
    ]),
    ('qdim_x2', x2_product, (), [
        ((0, -1, -1), 'alpha'), ((-1, 0, -1), 'beta'), ((-1, -1, 0), 'gamma'),
    ]),
    ('qdim_cartan_adjoint(n=1)', cartan_power_product, (1,), [
        ((-1, -1, 0), 'gamma'), ((-1, 0, -1), 'beta'), ((0, -1, -1), '-alpha'),
    ]),
    ('qdim_cartan_adjoint(n=2)', cartan_power_product, (2,), [
        ((-1, 1, 0), 'gamma'), ((-1, 0, 1), 'beta'), ((0, -1, -1), '-alpha'),
        ((-1, 1, -1), '-alpha+gamma'), ((-1, -1, 1), '-alpha+beta'),
    ]),
    ('qdim_cartan_adjoint(n=3)', cartan_power_product, (3,), [
        ((-1, 1, 0), 'gamma'), ((-1, 0, 1), 'beta'), ((0, -1, -1), '-alpha'),
        ((-1, 1, -1), '-alpha+gamma'), ((-1, -1, 1), '-alpha+beta'),
        ((-1, 1, -2), '-2*alpha+gamma'), ((-1, -2, 1), '-2*alpha+beta'),
    ]),
    ('qdim_z(k=1, l=1)', z_product, (1, 1), [
        ((-1, 0, 1), 'beta'), ((-1, -1, 0), 'gamma'), ((-2, -1, 1), '-alpha+2*beta'),
        ((-1, -2, 1), '-2*alpha+beta'), ((-1, 1, -1), '-alpha+gamma'),
        ((-1, 1, 1), '-beta+gamma'), ((0, -1, 1), '-alpha'),
    ]),
    ('qdim_z(k=3, l=0)', z_product, (3, 0), [
        ((-1, 0, 1), 'beta'), ((-1, -1, 1), '-alpha+beta'), ((-1, 1, 0), 'gamma'),
        ((-1, -2, 1), '-2*alpha+beta'), ((-1, 1, -1), '-alpha+gamma'),
        ((-1, 1, -2), '-2*alpha+gamma'), ((0, -1, -1), 'alpha'),
    ]),
    ('qdim_z(k=0, l=2)', z_product, (0, 2), [
        ((-1, 0, 1), '2*beta'), ((-1, -1, 1), '-alpha+beta'), ((-2, 1, 0), 'gamma'),
        ((-2, -1, 1), '-alpha+2*beta'), ((-1, -2, 1), '-2*alpha+beta'),
        ((-1, 1, -1), '-alpha+gamma'), ((-1, 1, 1), '-beta+gamma'),
        ((0, -1, 1), '-alpha'), ((-2, 1, -1), '-alpha-beta+gamma'),
    ]),
    ('qdim_z(k=2, l=1)', z_product, (2, 1), [
        ((-1, 0, 1), 'beta'), ((-1, -1, 1), '-alpha+beta'), ((-1, 1, 0), 'gamma'),
        ((-1, 1, -1), '-alpha+gamma'), ((-1, -3, 1), '-3*alpha+beta'),
        ((-1, 1, -2), '-2*alpha+gamma'), ((-1, 1, 1), '-beta+gamma'),
        ((0, -1, 1), '-alpha'), ((-2, 1, -1), '-alpha+2*gamma'),
    ]),
    ('z_block_a', z_block_a, (2, 4), [
        ((-1, 0, 1), '2*beta'), ((-1, -1, 1), '-alpha+beta'), ((-1, 1, 0), 'gamma'),
        ((-2, -1, -1), '-alpha+2*beta'), ((-1, -2, 1), '-2*alpha+beta'),
        ((-1, 1, -1), '-alpha+gamma'),
    ]),
    ('z_block_c1', z_block_c1, (2, 4), [
        ((-1, 0, 1), '2*alpha+2*gamma'), ((-2, 0, 1), 'alpha+2*gamma'),
    ]),
    ('z_block_c2', z_block_c2, (2, 4), [
        ((0, -1, 0), 'alpha'),
    ]),
    ('z_block_f', z_block_f, (1, 1, 4), [
        ((0, -1, 1), '3*alpha+2*beta+2*gamma'), ((0, -1, 0), '3*alpha+2*gamma'),
        ((-1, 1, 1), '3*alpha+beta+2*gamma'), ((-1, 0, 0), 'beta'),
    ]),
    ('z_block_btilde', z_block_btilde, (2, 4), [
        ((-1, 1, 1), '-beta+gamma'), ((-1, 0, 1), 'beta'), ((0, -1, 0), '-alpha'),
        ((-1, 1, 0), '-alpha-beta+gamma'), ((-1, -1, 0), '-alpha+beta'),
    ]),
]


class TestPoleMessages:
    @pytest.mark.parametrize("context, build, args, pins", POLE_PINS,
                             ids=[pin[0] for pin in POLE_PINS])
    def test_message_text(self, context, build, args, pins):
        for point, label in pins:
            with pytest.raises(PoleAtParameters) as info:
                build(VogelParams(*point), *args)
            assert str(info.value) == (
                f"{context}: sinh denominator {label} vanishes at these parameters"
            )

    @pytest.mark.parametrize("slot", ["alpha", "beta", "gamma"])
    def test_y2_names_the_vanishing_form(self, slot):
        # For each slot-first denominator, moved into the slot, the message
        # at a point on its zero set names a form that vanishes there.
        slot_first = ((1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1))
        order = universal._SLOT_ORDERS[slot]
        rng = random.Random(sum(map(ord, slot)))
        for form in slot_first:
            den = [0, 0, 0]
            for i, c in zip(order, form):
                den[i] = c
            for _ in range(4):
                point = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                         for _ in range(3)]
                j = next(i for i, c in enumerate(den) if c)
                point[j] = -sum(c * p for i, (c, p) in enumerate(zip(den, point))
                                if i != j) / den[j]
                v = VogelParams(*point)
                with pytest.raises(PoleAtParameters) as info:
                    y2_product(v, slot)
                label = re.fullmatch(
                    rf"qdim_y2\({slot}\): sinh denominator (\S+) vanishes at these "
                    "parameters", str(info.value)).group(1)
                terms = re.findall(r"([+-]?)(?:(\d+)\*)?(alpha|beta|gamma)", label)
                assert "".join(f"{s}{m}{'*' if m else ''}{n}" for s, m, n in terms) == label
                value = sum((-1 if s == "-" else 1) * int(m or 1) * getattr(v, n)
                            for s, m, n in terms)
                assert value == 0, (slot, form, point, label)

    def test_family_message_text(self):
        with pytest.raises(PoleAtParameters) as info:
            z_dim_along_family(lambda n: VogelParams(n, 0, 1), 1, 1, 1)
        assert str(info.value) == (
            "denominator beta vanishes identically along the one-parameter family"
        )

    def test_qdim_z_beta_pole(self):
        with pytest.raises(PoleAtParameters) as info:
            qdim_z(VogelParams(-2, 0, 3), 1, 1, 4)
        assert str(info.value) == (
            "qdim_z(k=1, l=1): sinh denominator beta vanishes at these parameters"
        )
