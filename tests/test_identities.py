import collections
import math
import random
from fractions import Fraction as F

import pytest

from uqdim import (
    A2_ANTISYM,
    NUMERIC,
    S2_SYM,
    S3_SYM_CUBE,
    SERIES,
    PowerSeries,
    VogelParams,
    identity_lhs,
    identity_rhs,
    qdim_x2,
    sample_params,
    verify_identity,
    vogel_params,
)
from uqdim import identities
from uqdim.errors import FloatEvaluationError
from uqdim.series import SinhProduct

from conftest import reference_lhs, reference_rhs, sample_regular_points


class TestPlethysms:
    def test_sym_square_constants(self):
        for name, d in [("e8", 248), ("sl6", 35), ("so12", 66)]:
            lhs = identity_lhs(S2_SYM, vogel_params(name), 8)
            assert lhs.constant_term == d * (d + 1) // 2

    def test_sym_square_rank_one(self):
        # At (-2, 2, 2) the adjoint is the spin-1 character; its symmetric
        # square decomposes as the trivial plus the spin-2 character.
        v = VogelParams(-2, 2, 2)
        from uqdim import sinh_ratio_series
        spin2 = sinh_ratio_series(10, 2, 12)
        assert identity_lhs(S2_SYM, v, 12) == PowerSeries.one(12) + spin2

    def test_degenerate_constant_input(self):
        # f = 7 everywhere: Sym^2, Lambda^2 and Sym^3 of a 7-dimensional space.
        def at_seven(identity):
            entry = identities.IDENTITY_TABLE[identity]
            return F(sum(c * 7 ** len(dilations) for c, dilations in entry.plethysm),
                     entry.divisor)

        assert at_seven(S2_SYM) == 28
        assert at_seven(A2_ANTISYM) == 21
        assert at_seven(S3_SYM_CUBE) == 84

    def test_antisym_constants_match_decomposition(self):
        for name, d in [("so12", 66), ("sl6", 35)]:
            v = vogel_params(name)
            anti = identity_lhs(A2_ANTISYM, v, 4).constant_term
            assert anti == d * (d - 1) // 2
            assert anti == d + qdim_x2(v, 0).constant_term

    def test_sym_cube_constants(self):
        for name, total in [("sl6", 7770), ("f4", 24804), ("so12", 50116)]:
            assert identity_lhs(S3_SYM_CUBE, vogel_params(name), 4).constant_term == total


def written_lhs(identity, adj, x):
    """Numeric mode's float plethysms as they were written out by name
    before _lhs_value read them from IDENTITY_TABLE."""
    f1 = adj.value_at(x)
    f2 = adj.value_at(2 * x)
    if identity == S2_SYM:
        return 0.5 * (f1 * f1 + f2)
    if identity == A2_ANTISYM:
        return 0.5 * (f1 * f1 - f2)
    f3 = adj.value_at(3 * x)
    return (f1 ** 3 + 3 * f2 * f1 + 2 * f3) / 6.0


def float_outcome(evaluate, *args):
    """A float's bits, or the type of the exception raised instead."""
    try:
        return evaluate(*args).hex()
    except Exception as exc:  # noqa: BLE001  (the type is the outcome)
        return type(exc)


class TestFloatPlethysm:
    """Numeric mode's float plethysm (_lhs_value) reads IDENTITY_TABLE's
    plethysm; it agrees with the table evaluated from adj.value_at, and bit
    for bit with the formulas once written out by name."""

    @staticmethod
    def worst_drift(identity):
        from uqdim.universal import adjoint_product

        entry = identities.IDENTITY_TABLE[identity]
        rng = random.Random(41)
        worst = 0.0
        for v in sample_regular_points(41, 30, adjoint_product):
            adj = adjoint_product(v)
            x = rng.uniform(0.05, 1.0)
            table = 0.0
            for coefficient, dilations in entry.plethysm:
                term = float(coefficient)
                for m in dilations:
                    term *= adj.value_at(m * x)
                table += term
            table /= entry.divisor
            planned = identities._lhs_value(identities._lhs_plan(entry), adj, x)
            worst = max(worst, abs(planned - table) / max(abs(planned), abs(table)))
        return worst

    @pytest.mark.parametrize("identity", identities.IDENTITIES)
    def test_matches_table(self, identity):
        assert self.worst_drift(identity) <= 1e-12

    @pytest.mark.parametrize("identity", identities.IDENTITIES)
    def test_patched_coefficient_is_caught(self, monkeypatch, identity):
        # Numeric verify reads the plethysm from the table: one coefficient
        # more on its last term makes every point fail.
        entry = identities.IDENTITY_TABLE[identity]
        *head, (coefficient, dilations) = entry.plethysm
        patched = entry._replace(plethysm=(*head, (coefficient + 1, dilations)))
        monkeypatch.setitem(identities.IDENTITY_TABLE, identity, patched)
        report = verify_identity(identity, mode=NUMERIC, trials=20, seed=0)
        assert report.points_checked == len(report.failures) == 20
        assert report.max_abs_residual > 1e-3

    def test_bit_identical_to_written_formulas(self):
        # alpha, beta and gamma uniform in [-8, 8] and |x| <= 40, so that
        # value_at overflows (FloatEvaluationError) at some points and, at a
        # few, f(x) * f(x) overflows to inf where f ** 2 would raise.
        from uqdim.universal import adjoint_product

        rng = random.Random(3500)
        plans = {name: identities._lhs_plan(entry)
                 for name, entry in identities.IDENTITY_TABLE.items()}
        outcomes = collections.Counter()
        for _ in range(8000):
            abc = [rng.uniform(-8.0, 8.0) for _ in range(3)]
            x = rng.uniform(-40.0, 40.0)
            try:
                adj = adjoint_product(VogelParams(*abc))
            except identities.PoleAtParameters:
                continue
            for identity, plan in plans.items():
                planned = float_outcome(identities._lhs_value, plan, adj, x)
                assert planned == float_outcome(written_lhs, identity, adj, x), (abc, x)
                outcomes[planned if isinstance(planned, type) else
                         "finite" if planned.startswith(("0x", "-0x")) else planned] += 1
        assert outcomes["finite"] > 20000
        assert outcomes[FloatEvaluationError] > 2000 and outcomes["inf"] > 0


class TestIdentitySides:
    def test_s2_rhs_constant(self):
        rhs = identity_rhs(S2_SYM, vogel_params("sl6"), 2)
        assert rhs.constant_term == 630

    def test_a2_rhs_constant(self):
        rhs = identity_rhs(A2_ANTISYM, vogel_params("e7"), 2)
        assert rhs.constant_term == 133 * 132 // 2

    def test_s3_rhs_constant_with_signed_terms(self):
        # The f4 sum includes a negative contribution and two vanishing
        # mixed products, and still totals the symmetric-cube dimension.
        rhs = identity_rhs(S3_SYM_CUBE, vogel_params("f4"), 2)
        assert rhs.constant_term == 24804

    def test_sides_match_at_table_points(self):
        from uqdim import PoleAtParameters

        for name in ("sl6", "so7", "sp6", "so12", "g2", "f4", "e6", "e7", "e8"):
            v = vogel_params(name)
            for ident in (S2_SYM, A2_ANTISYM):
                assert identity_lhs(ident, v, 10) == identity_rhs(ident, v, 10), (name, ident)
            # one permuted cube term is 0/0-indeterminate at the so12 point;
            # the cube identity there holds by continuity, not evaluation
            if name == "so12":
                with pytest.raises(PoleAtParameters):
                    identity_rhs(S3_SYM_CUBE, v, 10)
            else:
                assert identity_lhs(S3_SYM_CUBE, v, 10) == identity_rhs(S3_SYM_CUBE, v, 10), name

    def test_lhs_equals_plethysm(self):
        v = VogelParams(F(3, 5), F(-7, 3), F(11, 4))
        assert identity_lhs(S3_SYM_CUBE, v, 10) == reference_lhs(S3_SYM_CUBE, v, 10)


class TestSideViews:
    """identity_lhs and identity_rhs read the integer vectors of the
    residual; each side expands only its own products, so it raises only
    its own poles.  The messages were captured before the sides moved to
    the integer vectors."""

    @pytest.mark.parametrize("order", [0, 1, 2, 17, 40])
    @pytest.mark.parametrize("identity", [S2_SYM, A2_ANTISYM, S3_SYM_CUBE])
    def test_sides_match_reference(self, identity, order):
        points = sample_regular_points(
            900 + order, 2 if order == 40 else 4,
            lambda v: identities._rhs_products(identities.IDENTITY_TABLE[identity], v))
        for v in points:
            lhs = identity_lhs(identity, v, order)
            rhs = identity_rhs(identity, v, order)
            assert lhs == reference_lhs(identity, v, order), v
            assert rhs == reference_rhs(identity, v, order), v
            assert lhs.order == rhs.order == order

    POLE_SPLIT = {
        ("so12", S2_SYM): (2211, 2211),
        ("so12", A2_ANTISYM): (2145, 2145),
        ("so12", S3_SYM_CUBE): (
            50116, "qdim_z(k=3, l=0): sinh denominator -2*alpha+gamma vanishes "
                   "at these parameters"),
        ("(-2, 2, 2)", S2_SYM): (
            6, "qdim_y2(beta): sinh denominator beta-gamma vanishes at these parameters"),
        ("(-2, 2, 2)", A2_ANTISYM): (3, 3),
        ("(-2, 2, 2)", S3_SYM_CUBE): (
            10, "qdim_z(k=3, l=0): sinh denominator -alpha+gamma vanishes at these parameters"),
    }

    @pytest.mark.parametrize("point, identity", sorted(POLE_SPLIT))
    def test_pole_split(self, point, identity):
        from uqdim import PoleAtParameters

        v = vogel_params("so12") if point == "so12" else VogelParams(-2, 2, 2)
        lhs_constant, rhs = self.POLE_SPLIT[(point, identity)]
        assert identity_lhs(identity, v, 2).constant_term == lhs_constant
        if isinstance(rhs, str):
            with pytest.raises(PoleAtParameters) as err:
                identity_rhs(identity, v, 2)
            assert str(err.value) == rhs
        else:
            assert identity_rhs(identity, v, 2).constant_term == rhs

    @pytest.mark.parametrize("side", [identity_lhs, identity_rhs])
    def test_unknown_identity(self, side):
        # (1, 0, 2) is a pole of the adjoint; the name is checked first.
        for v in (vogel_params("e8"), VogelParams(1, 0, 2)):
            with pytest.raises(ValueError) as err:
                side("s4", v, 2)
            assert str(err.value) == "unknown identity 's4'"


class TestVerifyIdentity:
    @pytest.mark.parametrize("ident", [S2_SYM, A2_ANTISYM])
    def test_series_mode(self, ident):
        report = verify_identity(ident, mode=SERIES, order=14, trials=25, seed=1)
        assert report.passed
        assert report.exact_zero is True
        assert report.points_checked == 25
        assert report.failures == ()

    def test_s3_series_mode(self):
        report = verify_identity(S3_SYM_CUBE, mode=SERIES, order=12, trials=10, seed=2)
        assert report.passed and report.exact_zero

    def test_numeric_mode(self):
        report = verify_identity(S3_SYM_CUBE, mode=NUMERIC, order=12,
                                 trials=300, seed=4)
        assert report.passed
        assert report.max_abs_residual is not None
        assert report.max_abs_residual <= 1e-9
        assert report.order_checked is None

    def test_series_mode_reports_order(self):
        report = verify_identity(S2_SYM, mode=SERIES, order=8, trials=3, seed=1)
        assert report.order_checked == 8

    # Largest relative residual, as float.hex(), and accepted points of
    # 200-trial numeric runs.  Products are built in exact arithmetic, so a
    # change to how they are built must leave every float passed to value_at,
    # and hence these residuals, bit for bit the same.
    NUMERIC_PINS = {
        (S2_SYM, 0): ("0x1.48854a0475d9dp-43", 200),
        (S2_SYM, 1): ("0x1.536f2185e721bp-42", 200),
        (S2_SYM, 2): ("0x1.7c77149934812p-43", 200),
        (A2_ANTISYM, 0): ("0x1.3d0e396310e01p-42", 200),
        (A2_ANTISYM, 1): ("0x1.cc7fbd6e03e46p-46", 200),
        (A2_ANTISYM, 2): ("0x1.147f25ff321ecp-46", 200),
        (S3_SYM_CUBE, 0): ("0x1.d793d1b76e325p-34", 200),
        (S3_SYM_CUBE, 1): ("0x1.23df4baf0ab6fp-39", 200),
        (S3_SYM_CUBE, 2): ("0x1.78be45605d432p-42", 200),
    }

    @pytest.mark.parametrize("ident, seed", sorted(NUMERIC_PINS))
    def test_numeric_residual_bit_identical(self, ident, seed):
        report = verify_identity(ident, mode=NUMERIC, trials=200, seed=seed)
        expected_hex, expected_points = self.NUMERIC_PINS[(ident, seed)]
        assert report.max_abs_residual.hex() == expected_hex
        assert report.points_checked == expected_points

    # The same at 1000 trials and seeds 3-5, also captured on the commit
    # before products kept integer arguments.
    NUMERIC_PINS_1000 = {
        (S2_SYM, 3): ("0x1.915fdc6a3dcb3p-39", 1000),
        (S2_SYM, 4): ("0x1.7fbb143a711ebp-38", 1000),
        (S2_SYM, 5): ("0x1.98c1726dd6863p-38", 1000),
        (A2_ANTISYM, 3): ("0x1.2ed08aa277411p-44", 1000),
        (A2_ANTISYM, 4): ("0x1.66e6f2f75a3dep-43", 1000),
        (A2_ANTISYM, 5): ("0x1.2bacda59d6bcep-44", 1000),
        (S3_SYM_CUBE, 3): ("0x1.1a8b657fcb067p-37", 1000),
        (S3_SYM_CUBE, 4): ("0x1.d1c1b30da1828p-39", 1000),
        (S3_SYM_CUBE, 5): ("0x1.2483dc022c461p-38", 1000),
    }

    @pytest.mark.parametrize("ident, seed", sorted(NUMERIC_PINS_1000))
    def test_numeric_residual_bit_identical_1000(self, ident, seed):
        report = verify_identity(ident, mode=NUMERIC, trials=1000, seed=seed)
        expected_hex, expected_points = self.NUMERIC_PINS_1000[(ident, seed)]
        assert report.max_abs_residual.hex() == expected_hex
        assert report.points_checked == expected_points

    # (identity, seed): the draws of a 1000-point run, the draws it rejects
    # and its max_abs_residual.
    POLE_MARGIN_PINS = {
        (S2_SYM, 11): (1002, [297, 945], "0x1.b7a3a89180321p-42"),
        (S3_SYM_CUBE, 0): (1003, [129, 142, 396], "0x1.d793d1b76e325p-34"),
    }

    @pytest.mark.parametrize("ident, seed", sorted(POLE_MARGIN_PINS))
    def test_numeric_pole_margin_rejections(self, monkeypatch, ident, seed):
        # Each numeric draw takes four uniform() calls (three coordinates and
        # x).  Each rejected draw has a product whose float(
        # min_abs_denominator()) < POLE_MARGIN; the rest give the 1000 points.
        draws_pinned, rejected, residual = self.POLE_MARGIN_PINS[(ident, seed)]

        class CountingRandom(random.Random):
            calls = 0

            def uniform(self, a, b):
                CountingRandom.calls += 1
                return super().uniform(a, b)

        accepted = []
        lhs_value = identities._lhs_value

        def recording_lhs(plan, adj, x):
            accepted.append(CountingRandom.calls // 4 - 1)
            return lhs_value(plan, adj, x)

        monkeypatch.setattr(identities.random, "Random", CountingRandom)
        monkeypatch.setattr(identities, "_lhs_value", recording_lhs)
        report = verify_identity(ident, mode=NUMERIC, trials=1000, seed=seed)
        draws = CountingRandom.calls // 4
        assert CountingRandom.calls == 4 * draws == 4 * draws_pinned
        assert sorted(set(range(draws)) - set(accepted)) == rejected
        assert report.points_checked == len(accepted) == 1000
        assert report.max_abs_residual.hex() == residual

    # (identity, seed, trials): the index of the one draw in a series run
    # that hits a pole and is drawn again, and the pole it hits.
    SERIES_POLE_PINS = {
        (S2_SYM, 23, 28): (27, (F(-32, 27), F(5, 3), F(5, 3)),
                           "qdim_y2(beta): sinh denominator beta-gamma vanishes "
                           "at these parameters"),
        (S3_SYM_CUBE, 18, 26): (25, (F(-2), F(-4), F(9, 17)),
                                "qdim_z(k=3, l=0): sinh denominator -2*alpha+beta "
                                "vanishes at these parameters"),
    }

    @pytest.mark.parametrize("ident, seed, trials", sorted(SERIES_POLE_PINS))
    def test_series_pole_is_drawn_again(self, monkeypatch, ident, seed, trials):
        rejected_index, point, message = self.SERIES_POLE_PINS[(ident, seed, trials)]
        indices, poles = [], []
        sample = identities.sample_params
        residual = identities._residual

        def counting_sample(seed_, index):
            indices.append(index)
            return sample(seed_, index)

        def recording_residual(identity, v, order):
            try:
                return residual(identity, v, order)
            except identities.PoleAtParameters as exc:
                poles.append((indices[-1], v.as_tuple(), str(exc)))
                raise

        monkeypatch.setattr(identities, "sample_params", counting_sample)
        monkeypatch.setattr(identities, "_residual", recording_residual)
        report = verify_identity(ident, mode=SERIES, order=4, trials=trials, seed=seed)
        assert indices == list(range(trials + 1))
        assert poles == [(rejected_index, point, message)]
        assert report.passed and report.exact_zero
        assert report.points_checked == trials

    def test_reproducible(self):
        a = verify_identity(S2_SYM, mode=SERIES, order=10, trials=10, seed=5)
        b = verify_identity(S2_SYM, mode=SERIES, order=10, trials=10, seed=5)
        assert a == b

    def test_different_seed_changes_nothing_about_outcome(self):
        a = verify_identity(A2_ANTISYM, mode=SERIES, order=10, trials=8, seed=6)
        b = verify_identity(A2_ANTISYM, mode=SERIES, order=10, trials=8, seed=7)
        assert a.passed and b.passed

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_identity("s5")
        with pytest.raises(ValueError):
            verify_identity(S2_SYM, mode="exact")
        with pytest.raises(ValueError):
            verify_identity(S2_SYM, order=0)
        with pytest.raises(ValueError):
            verify_identity(S2_SYM, mode=NUMERIC, trials=0)

    def test_numeric_mode_reads_no_order(self):
        report = verify_identity(S2_SYM, mode=NUMERIC, order=0, trials=3, seed=1)
        assert report == verify_identity(S2_SYM, mode=NUMERIC, order=20, trials=3, seed=1)


def exact_margin_rule(product):
    """The pole-margin rule on the exact smallest ratio |D| / q."""
    d = product.min_abs_denominator()
    return d is not None and float(d) < identities.POLE_MARGIN


class TestPoleMargin:
    """identities._near_pole rejects exactly the products the float of
    min_abs_denominator() puts below POLE_MARGIN."""

    @pytest.mark.parametrize("identity, seed", [(S2_SYM, 11), (A2_ANTISYM, 12),
                                                (S3_SYM_CUBE, 0)])
    def test_numeric_runs_agree_with_exact_rule(self, monkeypatch, identity, seed):
        near_pole = identities._near_pole
        outcomes = []

        def checked(product):
            outcome = near_pole(product)
            assert outcome == exact_margin_rule(product), product.factors
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(identities, "_near_pole", checked)
        report = verify_identity(identity, mode=NUMERIC, trials=1000, seed=seed)
        assert report.points_checked == 1000
        # a2's denominators are multiples of single coordinates, which the
        # coordinate margin screens first, so only s2 and s3 reject here
        assert len(outcomes) >= 2000 and any(outcomes) == (identity != A2_ANTISYM)

    def test_adjoint_passes_after_the_coordinate_screen(self):
        # Numeric mode screens no adjoint: its denominators are alpha, beta
        # and gamma, each the exact value of its float, so a draw that passes
        # the coordinate screen is at least POLE_MARGIN from the adjoint's
        # poles.  Draws put coordinates on and just outside +-POLE_MARGIN,
        # near 0, and at alpha = -beta, -gamma or beta = -gamma, where the
        # adjoint drops one ratio as identically 1.
        margin = identities.POLE_MARGIN
        edges = (margin, -margin, math.nextafter(margin, 1.0),
                 math.nextafter(-margin, -1.0), 2 * margin)
        rng = random.Random(2829)
        checked = dropped = 0
        for i in range(3000):
            xyz = [rng.uniform(-8.0, 8.0) for _ in range(3)]
            j = rng.randrange(3)
            if i % 4 == 1:
                xyz[j] = rng.choice(edges)
            elif i % 4 == 2:
                xyz[j] = -xyz[j - 1]
            elif i % 4 == 3:
                xyz[j] = rng.uniform(-0.01, 0.01)
            if any(-margin < x < margin for x in xyz):
                continue
            adj = identities.adjoint_product(VogelParams(*xyz))
            dropped += len(adj.factors) < 3
            assert identities._near_pole(adj) is False, xyz
            assert exact_margin_rule(adj) is False
            checked += 1
        assert checked > 2500 and dropped > 500

    @pytest.mark.parametrize("identity", [S2_SYM, A2_ANTISYM, S3_SYM_CUBE])
    def test_draws_near_the_pole_set(self, identity):
        # gamma within 0.003 of a linear form in alpha and beta, so many
        # products have a denominator near the margin
        rng = random.Random(2121)
        rejected = accepted = 0
        for _ in range(400):
            a, b = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
            c = rng.choice((1, -1)) * rng.choice((0.0, a, b, a - b, a + b, 2 * a))
            v = VogelParams(F(a), F(b), F(c + rng.uniform(-0.003, 0.003)))
            try:
                entry = identities.IDENTITY_TABLE[identity]
                products = [p for _, p in identities._rhs_products(entry, v)]
                products.append(identities.adjoint_product(v))
            except identities.PoleAtParameters:
                continue
            for product in products:
                outcome = identities._near_pole(product)
                assert outcome == exact_margin_rule(product), (v, product.factors)
                rejected += outcome
                accepted += not outcome
        assert rejected > 50 and accepted > 500

    @pytest.mark.parametrize("den, q, near", [
        (1, 1000, False),         # float(1/1000) == POLE_MARGIN: accepted
        (999, 10 ** 6, True),
        (-999, 10 ** 6, True),
        (10 ** 30 - 1, 10 ** 33, False),  # below 1/1000, but rounds to it
        (1001, 10 ** 6, False),
        (1, 2 ** 52, True),
        (2 ** 43, 2 ** 52, False),      # 2^-9, the largest |D| the screen passes on
        (2 ** 43 + 1, 2 ** 52, False),  # above it: no division
        (-(2 ** 43) - 1, 2 ** 52, False),
    ])
    def test_boundary_products(self, den, q, near):
        product = SinhProduct([(3 * q, 5 * q, "a"), (7, den, "b"), (q, None, "c")], q)
        assert identities._near_pole(product) is near
        assert exact_margin_rule(product) is near

    def test_no_sinh_denominator(self):
        for product in (SinhProduct([], 1), SinhProduct([(1, None, "c")], 10 ** 9)):
            assert identities._near_pole(product) is False
            assert product.min_abs_denominator() is None


class TestSampler:
    def test_deterministic(self):
        a = sample_params(1, 0)
        b = sample_params(1, 0)
        assert a == b
        assert sample_params(1, 1) != a

    def test_components_nonzero_and_bounded(self):
        for index in range(300):
            v = sample_params(11, index)
            for c in v.as_tuple():
                assert c != 0
                assert abs(c.numerator) <= 64 * 64 and 1 <= c.denominator <= 64


class TestSeriesPins:
    """Series-mode output captured before the residual moved to integer
    vectors; the integer path must reproduce it byte for byte."""

    # `verify IDENT --order K --seed S --mode series --trials 10 --json`
    # stdout, without the trailing newline.
    JSON_PINS = {
        (ident, order, seed): (
            '{"command": "verify", "inputs": {"identity": "%s", "mode": "series", '
            '"order": %d, "seed": %d, "trials": 10}, "results": {"exact_zero": true, '
            '"failures": [], "max_abs_residual": null, "order_checked": %d, '
            '"points_checked": 10}, "status": "pass"}' % (ident, order, seed, order))
        for ident, order in ((S2_SYM, 20), (A2_ANTISYM, 20), (S3_SYM_CUBE, 17),
                             (S3_SYM_CUBE, 20))
        for seed in (0, 7)
    }

    @pytest.mark.parametrize("ident, order, seed", sorted(JSON_PINS))
    def test_json_bytes(self, capsys, ident, order, seed):
        from uqdim import cli

        code = cli.main(["verify", ident, "--order", str(order), "--seed", str(seed),
                         "--mode", "series", "--trials", "10", "--json"])
        assert code == 0
        assert capsys.readouterr().out == self.JSON_PINS[(ident, order, seed)] + "\n"

    S3_ADJOINT_ONCE = (
        ((F(17, 27), F(-27, 17), F(15, 13)), "coefficient of x^0 is 15349064579/49028207553"),
        ((F(-10, 3), F(1, 16), F(31, 29)), "coefficient of x^0 is -3528402397/30033792"),
        ((F(-25, 6), F(-43, 47), F(-21, 40)),
         "coefficient of x^0 is -34786580372791/89762715000"),
    )

    @pytest.mark.parametrize("order", [4, 17])
    def test_s3_adjoint_multiplicity_one(self, monkeypatch, order):
        entry = identities.IDENTITY_TABLE[S3_SYM_CUBE]
        broken = tuple(t._replace(multiplicity=1) if t.kind == "adjoint" else t
                       for t in entry.terms)
        monkeypatch.setitem(identities.IDENTITY_TABLE, S3_SYM_CUBE,
                            entry._replace(terms=broken))
        report = verify_identity(S3_SYM_CUBE, mode=SERIES, order=order, trials=3, seed=0)
        assert report.failures == self.S3_ADJOINT_ONCE
        assert report.exact_zero is False

    def test_s2_constant_two(self, monkeypatch):
        entry = identities.IDENTITY_TABLE[S2_SYM]
        monkeypatch.setitem(identities.IDENTITY_TABLE, S2_SYM, entry._replace(constant=2))
        report = verify_identity(S2_SYM, mode=SERIES, order=6, trials=3, seed=1)
        assert report.failures == (
            ((F(17, 23), F(-1, 3), F(-1, 2)), "coefficient of x^0 is -1"),
            ((F(3), F(-25, 46), F(-11)), "coefficient of x^0 is -1"),
            ((F(3, 4), F(-44, 59), F(1, 8)), "coefficient of x^0 is -1"),
        )

    def test_first_bad_coefficient_above_constant(self, monkeypatch):
        # X2 times cosh(3u)/cosh(2u), u = x/4: the same dimension, so the
        # first nonzero residual coefficient is the one at x^2.
        from uqdim import SinhProduct
        from uqdim.universal import x2_product

        def bent(v):
            p = x2_product(v)
            q = p.q
            return SinhProduct(p.factors + ((6 * q, 3 * q, "bend"), (2 * q, 4 * q, "bend")),
                               q, p.sign)

        monkeypatch.setattr(identities, "x2_product", bent)
        report = verify_identity(A2_ANTISYM, mode=SERIES, order=6, trials=3, seed=2)
        assert report.failures == (
            ((F(5, 4), F(49, 5), F(8, 47)),
             "coefficient of x^2 is -1535867651764513201398849/2399460163788800000"),
            ((F(30), F(18, 17), F(-2)), "coefficient of x^2 is -10942387127840/60886809"),
            ((F(12, 25), F(11, 5), F(-7, 31)),
             "coefficient of x^2 is -23303155582637333/4525252900000"),
        )
        # At order 1 only x^0 is checked, and it still agrees.
        report = verify_identity(A2_ANTISYM, mode=SERIES, order=1, trials=2, seed=2)
        assert report.passed and report.exact_zero


class TestOverLcm:
    """_over_lcm against a Fraction sum of coefficient * nums[m] / den over
    random parts, with a zero coefficient, the constant part over 1 and
    negative coefficients among them."""

    @pytest.mark.parametrize("length", [1, 2, 11])
    def test_against_fraction_sum(self, length):
        rng = random.Random(3400 + length)
        for trial in range(30):
            parts = [(rng.randint(-6, 6), [rng.randint(-10 ** 6, 10 ** 6) for _ in range(length)],
                      rng.randint(1, 2000)) for _ in range(rng.randint(1, 9))]
            parts += [(0, [rng.randint(-9, 9) for _ in range(length)], rng.randint(1, 50)),
                      (rng.randint(-3, 3), [1] + [0] * (length - 1), 1),
                      (-rng.randint(1, 6), [rng.randint(-99, 99) for _ in range(length)], 6)]
            rng.shuffle(parts)
            total, common = identities._over_lcm(parts)
            assert common == math.lcm(*(den for _, _, den in parts)), trial
            assert len(total) == length and all(type(t) is int for t in total), trial
            assert [F(t, common) for t in total] == [
                sum(F(c * nums[m], den) for c, nums, den in parts) for m in range(length)], trial


class TestResidualExpansions:
    """_residual expands each distinct product at the point once, through
    SinhProduct.hurwitz: the adjoint serves the plethysm and an adjoint term
    alike, and no product is read in x."""

    @pytest.mark.parametrize("ident, count", [(S2_SYM, 4), (A2_ANTISYM, 2), (S3_SYM_CUBE, 8)])
    def test_each_product_expanded_once(self, monkeypatch, ident, count):
        expanded = []
        hurwitz = SinhProduct.hurwitz

        def counting(self, order):
            expanded.append(self.factors)
            return hurwitz(self, order)

        def refuse(self, order):
            raise AssertionError("a product was read in x")

        monkeypatch.setattr(SinhProduct, "hurwitz", counting)
        monkeypatch.setattr(SinhProduct, "even_coefficients", refuse)
        nums, den = identities._residual(ident, VogelParams(F(17, 23), F(-1, 3), F(-1, 2)), 20)
        assert nums == [0] * 11 and den == 1
        terms = identities.IDENTITY_TABLE[ident].terms
        assert count == 1 + sum(t.kind != "adjoint" for t in terms)
        assert len(expanded) == len(set(expanded)) == count


class TestNumericLimit:
    """`verify s3 --mode numeric --trials 200 --seed 420460257` fails at this
    point with a relative float residual of 2.56e-9 (beta - 2 gamma is
    -0.0033 there); series mode finds the identity exact at the same point."""

    POINT = (7.881790708473359, -2.484541148744471, -1.2406045323077386)

    def test_series_residual_is_zero(self):
        v = VogelParams(*self.POINT)
        assert v.point[3].bit_length() == 50
        assert identities._residual(S3_SYM_CUBE, v, 20) == ([0] * 11, 1)
