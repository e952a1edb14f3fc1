import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from uqdim import (
    EmptyOrthogonalSubsystem,
    InvalidRank,
    LengthMismatch,
    PowerSeries,
    build_root_system,
    compute_sigma,
    sinh_ratio_series,
    vogel_params,
    weight_from_dynkin,
    weyl_dim,
    weyl_qdim,
)
from uqdim.roots import weyl_qdim_product

NINE = [("A", 5), ("B", 3), ("C", 3), ("D", 6), ("G", 2), ("F", 4),
        ("E", 6), ("E", 7), ("E", 8)]


class TestConstruction:
    @pytest.mark.parametrize("family,rank,count", [
        ("A", 1, 1), ("A", 5, 15), ("B", 2, 4), ("B", 3, 9), ("C", 3, 9),
        ("D", 3, 6), ("D", 6, 30), ("G", 2, 6), ("F", 4, 24),
        ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
    ])
    def test_positive_root_count(self, family, rank, count):
        rs = build_root_system(family, rank)
        assert len(rs.positive_roots) == count

    @pytest.mark.parametrize("family,rank", [
        ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
        ("F", 3), ("G", 3), ("X", 2),
    ])
    def test_invalid_rank(self, family, rank):
        with pytest.raises(InvalidRank):
            build_root_system(family, rank)

    @pytest.mark.parametrize("family,rank", NINE)
    def test_long_root_normalisation(self, family, rank):
        rs = build_root_system(family, rank)
        assert rs.gram(rs.theta, rs.theta) == 2

    @pytest.mark.parametrize("family,rank", NINE)
    def test_rho_pairs_to_one_with_simple_coroots(self, family, rank):
        rs = build_root_system(family, rank)
        for mu in rs.simple_roots:
            assert rs.coroot_pairing(rs.rho, mu) == 1

    @pytest.mark.parametrize("family,rank", NINE)
    def test_rho_is_half_sum(self, family, rank):
        rs = build_root_system(family, rank)
        total = [F(0)] * len(rs.rho)
        for mu in rs.positive_roots:
            total = [a + b for a, b in zip(total, mu)]
        assert tuple(c / 2 for c in total) == rs.rho

    def test_a1_rho_is_half_theta(self):
        rs = build_root_system("A", 1)
        assert rs.rho == tuple(c / 2 for c in rs.theta)

    def test_g2_theta_in_simple_basis(self):
        rs = build_root_system("G", 2)
        a1, a2 = rs.simple_roots
        expected = tuple(3 * x + 2 * y for x, y in zip(a1, a2))
        assert rs.theta == expected

    def test_g2_root_lengths(self):
        rs = build_root_system("G", 2)
        a1, a2 = rs.simple_roots
        assert rs.gram(a1, a1) == F(2, 3)
        assert rs.gram(a2, a2) == 2
        assert rs.gram(a1, a2) == -1


class TestThetaStrings:
    def test_e7_profile(self):
        # 32 roots pair to 1 with theta, in strings of lengths 16, 10, 6
        # starting at heights 1, 4, 6.
        rs = build_root_system("E", 7)
        heights = [rs.gram(rs.rho, mu) for mu in rs.positive_roots
                   if rs.gram(rs.theta, mu) == 1]
        assert len(heights) == 32
        expected = Counter()
        for start, length in [(F(1), 16), (F(4), 10), (F(6), 6)]:
            for i in range(length):
                expected[start + i] += 1
        assert Counter(heights) == expected

    @pytest.mark.parametrize("name,family,rank", [
        ("sl6", "A", 5), ("so7", "B", 3), ("so12", "D", 6), ("f4", "F", 4),
        ("e6", "E", 6), ("e7", "E", 7), ("e8", "E", 8),
    ])
    def test_string_profile_matches_parameters(self, name, family, rank):
        rs = build_root_system(family, rank)
        v = vogel_params(name)
        lengths = [v.t - 2, v.gamma - 2, v.beta - 2]
        starts = [F(1), v.beta / 2, v.gamma / 2]
        assert all(x.denominator == 1 and x >= 0 for x in lengths)
        expected = Counter()
        for start, length in zip(starts, lengths):
            for i in range(int(length)):
                expected[start + i] += 1
        got = Counter(rs.gram(rs.rho, mu) for mu in rs.positive_roots
                      if rs.gram(rs.theta, mu) == 1)
        assert got == expected

    @pytest.mark.parametrize("name", ["sp6", "g2"])
    def test_three_string_split_does_not_apply(self, name):
        # The split needs non-negative integer string lengths, which fails
        # for these two algebras; the character formulas still hold there.
        v = vogel_params(name)
        lengths = [v.t - 2, v.gamma - 2, v.beta - 2]
        assert not all(x.denominator == 1 and x >= 0 for x in lengths)


class TestSigma:
    def test_a1_has_no_orthogonal_root(self):
        rs = build_root_system("A", 1)
        assert rs.sigma is None
        with pytest.raises(EmptyOrthogonalSubsystem):
            compute_sigma(rs)

    def test_g2_sigma_is_short_simple_root(self):
        rs = build_root_system("G", 2)
        sigma = compute_sigma(rs)
        assert sigma == rs.simple_roots[0]
        assert rs.gram(rs.theta, sigma) == 0

    def test_e7_sigma(self):
        rs = build_root_system("E", 7)
        sigma = compute_sigma(rs)
        assert rs.gram(rs.theta, sigma) == 0
        assert rs.gram(sigma, sigma) == 2

    def test_sigma_maximises_height(self):
        for family, rank in [("A", 5), ("D", 6), ("F", 4), ("E", 7)]:
            rs = build_root_system(family, rank)
            sigma = compute_sigma(rs)
            for mu in rs.positive_roots:
                if rs.gram(rs.theta, mu) == 0 and mu != sigma:
                    assert rs.gram(rs.rho, mu) < rs.gram(rs.rho, sigma)

    @pytest.mark.parametrize("name,family,rank,labels", [
        ("sl6", "A", 5, (1, 1, 0, 1, 1)),
        ("f4", "F", 4, (1, 0, 0, 2)),
        ("so12", "D", 6, (0, 1, 0, 1, 0, 0)),
    ])
    def test_two_theta_plus_sigma_labels(self, name, family, rank, labels):
        # Anchors the operational sigma against the tabulated Dynkin labels
        # of the mixed Cartan product's highest weight.
        rs = build_root_system(family, rank)
        vec = tuple(2 * t + s for t, s in zip(rs.theta, rs.sigma))
        assert rs.dynkin_labels(vec) == labels


class TestWeylFormula:
    def test_a1_adjoint_closed_form(self):
        rs = build_root_system("A", 1)
        lam = rs.weight(rs.theta)
        assert weyl_qdim(rs, lam, 16) == sinh_ratio_series(6, 2, 16)
        assert weyl_dim(rs, lam) == 3

    def test_trivial_weight(self):
        for family, rank in [("A", 3), ("G", 2), ("E", 6)]:
            rs = build_root_system(family, rank)
            zero = rs.weight([0] * len(rs.theta))
            assert weyl_qdim(rs, zero, 8) == PowerSeries.one(8)
            assert weyl_dim(rs, zero) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_g2_five_factor_product(self, n):
        # chi_{n*theta} for the rank-two exceptional algebra is the product
        # of five sinh ratios with arguments (n+1, 1), (n+4/3, 4/3),
        # (n+5/3, 5/3), (n+2, 2), (2n+3, 3), all scaled by x/2.
        rs = build_root_system("G", 2)
        lam = rs.weight(tuple(n * c for c in rs.theta))
        expected = PowerSeries.one(14)
        for num, den in [(n + 1, 1), (n + F(4, 3), F(4, 3)),
                         (n + F(5, 3), F(5, 3)), (n + 2, 2), (2 * n + 3, 3)]:
            expected = expected * sinh_ratio_series(2 * num, 2 * den, 14)
        assert weyl_qdim(rs, lam, 14) == expected

    @pytest.mark.parametrize("family,rank,labels,dim", [
        ("E", 7, None, 133),                       # adjoint
        ("E", 6, None, 78),
        ("E", 8, None, 248),
        ("A", 5, (1, 1, 0, 1, 1), 3675),
        ("A", 5, (1, 0, 0, 0, 1), 35),
        ("A", 5, (0, 0, 2, 0, 0), 175),
        ("A", 5, (2, 0, 0, 1, 0), 280),
        ("F", 4, (1, 0, 0, 2), 10829),
        ("F", 4, (0, 0, 1, 0), 273),
        ("F", 4, (0, 0, 0, 4), 16302),
        ("D", 6, (0, 3, 0, 0, 0, 0), 23100),
        ("D", 6, (0, 0, 0, 0, 2, 0), 462),
    ])
    def test_dimensions(self, family, rank, labels, dim):
        rs = build_root_system(family, rank)
        lam = (rs.weight(rs.theta) if labels is None
               else weight_from_dynkin(rs, labels))
        assert weyl_dim(rs, lam) == dim

    def test_weyl_dim_is_positive_integer_on_random_weights(self):
        rng = random.Random(17)
        for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4),
                             ("G", 2), ("F", 4)]:
            rs = build_root_system(family, rank)
            for _ in range(5):
                labels = [rng.randint(0, 3) for _ in range(rank)]
                value = weyl_dim(rs, weight_from_dynkin(rs, labels))
                assert value.denominator == 1 and value > 0

    def test_weyl_qdim_positive_on_weyl_line(self):
        rng = random.Random(19)
        rs = build_root_system("C", 3)
        for _ in range(5):
            labels = [rng.randint(0, 2) for _ in range(3)]
            series = weyl_qdim(rs, weight_from_dynkin(rs, labels), 24)
            for x in (0.1, 0.5, 1.0):
                assert series.eval_at(x) > 0

    def test_constant_term_equals_weyl_dim(self):
        rs = build_root_system("D", 4)
        lam = weight_from_dynkin(rs, (1, 0, 1, 1))
        assert weyl_qdim(rs, lam, 6).constant_term == weyl_dim(rs, lam)

    # weyl_qdim_product(rs, n*theta).value_at(x).hex() at x = 0.25, 0.5, 1.0,
    # captured on the commit before products kept integer arguments.  G2 has
    # diagram scale 1/3, F4 scale 1/2 and E8 scale 1.
    VALUE_PINS = {
        ("G", 2, 1): ("0x1.e67c4ede32bb3p+3", "0x1.3455323340c59p+4", "0x1.63306ff839a2ep+5"),
        ("G", 2, 2): ("0x1.79e4f2a6f16e6p+6", "0x1.4f7751ebeab91p+7", "0x1.1cb707553b023p+10"),
        ("G", 2, 3): ("0x1.891dae7397de0p+8", "0x1.09acf3ee5e187p+10", "0x1.84fde5753807fp+14"),
        ("F", 4, 1): ("0x1.380f68dfff9e6p+6", "0x1.c638c305168a2p+7", "0x1.508f2cb016705p+12"),
        ("F", 4, 2): ("0x1.41d7a531abb62p+11", "0x1.93800dbe21593p+14", "0x1.2915e4ac074b9p+24"),
        ("F", 4, 3): ("0x1.a1001e7f82cffp+15", "0x1.03b8f67e5e28ap+21", "0x1.cf0b61201e34ap+35"),
        ("E", 8, 1): ("0x1.1447b4127235fp+13", "0x1.45dc52d1c360dp+22", "0x1.6aecfd28e632ep+42"),
        ("E", 8, 2): ("0x1.35c09fbbea48cp+25", "0x1.f89b7a09fa0a1p+43", "0x1.7789acabf5fe6p+84"),
        ("E", 8, 3): ("0x1.e85d66f700189p+36", "0x1.398df468552b5p+65", "0x1.61654c09df0edp+126"),
    }

    @pytest.mark.parametrize("family,rank,n", sorted(VALUE_PINS))
    def test_value_at_bit_identical(self, family, rank, n):
        rs = build_root_system(family, rank)
        product = weyl_qdim_product(rs, rs.weight(tuple(n * c for c in rs.theta)))
        values = tuple(product.value_at(x).hex() for x in (0.25, 0.5, 1.0))
        assert values == self.VALUE_PINS[(family, rank, n)]


class TestWeights:
    def test_zero_labels_give_zero_weight(self):
        rs = build_root_system("B", 3)
        lam = weight_from_dynkin(rs, (0, 0, 0))
        assert lam == rs.weight((0, 0, 0))
        assert weyl_dim(rs, lam) == 1

    def test_dynkin_roundtrip(self):
        # n*theta + m*rho has labels n*(theta's tabulated labels) + m, since
        # rho pairs to 1 with every simple coroot.
        rng = random.Random(23)
        for family, rank, theta_labels in [
            ("A", 4, (1, 0, 0, 1)), ("C", 2, (2, 0)), ("D", 5, (0, 1, 0, 0, 0)),
            ("F", 4, (1, 0, 0, 0)),
        ]:
            rs = build_root_system(family, rank)
            n, m = rng.randint(0, 4), rng.randint(1, 4)
            vec = tuple(n * t + m * r for t, r in zip(rs.theta, rs.rho))
            labels = tuple(n * a + m for a in theta_labels)
            assert rs.dynkin_labels(vec) == labels
            assert weight_from_dynkin(rs, labels) == rs.weight(vec)
            assert rs.weight(vec).labels == labels

    def test_theta_labels(self):
        rs = build_root_system("A", 5)
        assert rs.dynkin_labels(rs.theta) == (1, 0, 0, 0, 1)
        rs = build_root_system("D", 6)
        three_theta = tuple(3 * c for c in rs.theta)
        assert weight_from_dynkin(rs, (0, 3, 0, 0, 0, 0)) == rs.weight(three_theta)
        two_theta_sigma = tuple(2 * t + s for t, s in zip(rs.theta, rs.sigma))
        assert weight_from_dynkin(rs, (0, 1, 0, 1, 0, 0)) == rs.weight(two_theta_sigma)

    def test_length_mismatch(self):
        rs = build_root_system("A", 5)
        with pytest.raises(LengthMismatch):
            weight_from_dynkin(rs, (1, 0, 0))

    @pytest.mark.parametrize("labels,message", [
        ((-1, 0, 0), "vector is not a dominant weight: Dynkin labels (-1, 0, 0)"),
        ((0.5, 0, 0), "vector is not an integral weight"),
        ((F(1, 2), 0, 0), "vector is not an integral weight"),
        ((1, -1, 0.5), "vector is not an integral weight"),
    ])
    def test_label_errors(self, labels, message):
        rs = build_root_system("B", 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            weight_from_dynkin(rs, labels)

    @pytest.mark.parametrize("vec", [(0, 1, 1, 5), (0, 1)])
    def test_dynkin_labels_reject_wrong_length(self, vec):
        rs = build_root_system("B", 3)
        with pytest.raises(ValueError, match="^weight vector has wrong dimension$"):
            rs.dynkin_labels(vec)

    @pytest.mark.parametrize("u, v", [
        ((1, 0, 0, 7), (1, 0, 0)),
        ((1, 0, 0), (1, 0, 0, 7)),
        ((1, 0), (1, 0, 0)),
        ((1, 0, 0), (1, 0)),
    ])
    def test_pairings_reject_wrong_length(self, u, v):
        # zip would drop the extra coordinate (both used to return 2 for
        # the first pair) or the form would fail on a missing one.
        rs = build_root_system("B", 3)
        for pairing in (rs.gram, rs.diagram.gram, rs.coroot_pairing):
            with pytest.raises(ValueError, match="^weight vector has wrong dimension$"):
                pairing(u, v)

    def test_integral_float_labels_are_accepted(self):
        rs = build_root_system("B", 3)
        assert weight_from_dynkin(rs, (1.0, 0, F(2))).labels == (1, 0, 2)

    def test_rejects_non_dominant(self):
        rs = build_root_system("A", 2)
        with pytest.raises(ValueError):
            rs.weight(tuple(-c for c in rs.theta))

    def test_accepts_fundamental_weight(self):
        # theta/2 is the fundamental weight of the rank-one algebra.
        rs = build_root_system("A", 1)
        assert rs.weight(tuple(c / 2 for c in rs.theta))

    def test_rejects_non_integral(self):
        rs = build_root_system("A", 1)
        with pytest.raises(ValueError):
            rs.weight(tuple(c / 3 for c in rs.theta))


# Basis-free invariants of the oracle for 29 root systems, recorded from the
# standard orthogonal-coordinate realisations (Bourbaki, ch. VI, plates), so
# they do not depend on the Dynkin-diagram construction.  Per system: the
# number of positive roots; the multisets of (rho, mu), (theta, mu) and
# (mu, mu) over the positive roots mu, as "value*count" words; the Dynkin
# labels of theta and of sigma; the Gram matrix of the simple roots, rows
# separated by "/"; and the dimensions of the fundamental modules.
PINNED = {
    "A1": (1,
           "1*1",
           "2*1",
           "2*1",
           (2,), None,
           "2",
           (2,)),
    "A2": (3,
           "1*2 2*1",
           "1*2 2*1",
           "2*3",
           (1, 1), None,
           "2 -1/-1 2",
           (3, 3)),
    "A3": (6,
           "1*3 2*2 3*1",
           "0*1 1*4 2*1",
           "2*6",
           (1, 0, 1), (-1, 2, -1),
           "2 -1 0/-1 2 -1/0 -1 2",
           (4, 6, 4)),
    "A4": (10,
           "1*4 2*3 3*2 4*1",
           "0*3 1*6 2*1",
           "2*10",
           (1, 0, 0, 1), (-1, 1, 1, -1),
           "2 -1 0 0/-1 2 -1 0/0 -1 2 -1/0 0 -1 2",
           (5, 10, 10, 5)),
    "A5": (15,
           "1*5 2*4 3*3 4*2 5*1",
           "0*6 1*8 2*1",
           "2*15",
           (1, 0, 0, 0, 1), (-1, 1, 0, 1, -1),
           "2 -1 0 0 0/-1 2 -1 0 0/0 -1 2 -1 0/0 0 -1 2 -1/0 0 0 -1 2",
           (6, 15, 20, 15, 6)),
    "A6": (21,
           "1*6 2*5 3*4 4*3 5*2 6*1",
           "0*10 1*10 2*1",
           "2*21",
           (1, 0, 0, 0, 0, 1), (-1, 1, 0, 0, 1, -1),
           ("2 -1 0 0 0 0/"
            "-1 2 -1 0 0 0/"
            "0 -1 2 -1 0 0/"
            "0 0 -1 2 -1 0/"
            "0 0 0 -1 2 -1/"
            "0 0 0 0 -1 2"),
           (7, 21, 35, 35, 21, 7)),
    "A7": (28,
           "1*7 2*6 3*5 4*4 5*3 6*2 7*1",
           "0*15 1*12 2*1",
           "2*28",
           (1, 0, 0, 0, 0, 0, 1), (-1, 1, 0, 0, 0, 1, -1),
           ("2 -1 0 0 0 0 0/"
            "-1 2 -1 0 0 0 0/"
            "0 -1 2 -1 0 0 0/"
            "0 0 -1 2 -1 0 0/"
            "0 0 0 -1 2 -1 0/"
            "0 0 0 0 -1 2 -1/"
            "0 0 0 0 0 -1 2"),
           (8, 28, 56, 70, 56, 28, 8)),
    "A8": (36,
           "1*8 2*7 3*6 4*5 5*4 6*3 7*2 8*1",
           "0*21 1*14 2*1",
           "2*36",
           (1, 0, 0, 0, 0, 0, 0, 1), (-1, 1, 0, 0, 0, 0, 1, -1),
           ("2 -1 0 0 0 0 0 0/"
            "-1 2 -1 0 0 0 0 0/"
            "0 -1 2 -1 0 0 0 0/"
            "0 0 -1 2 -1 0 0 0/"
            "0 0 0 -1 2 -1 0 0/"
            "0 0 0 0 -1 2 -1 0/"
            "0 0 0 0 0 -1 2 -1/"
            "0 0 0 0 0 0 -1 2"),
           (9, 36, 84, 126, 126, 84, 36, 9)),
    "B2": (4,
           "1/2*1 1*1 3/2*1 2*1",
           "0*1 1*2 2*1",
           "1*2 2*2",
           (0, 2), (2, -2),
           "2 -1/-1 1",
           (5, 4)),
    "B3": (9,
           "1/2*1 1*2 3/2*1 2*2 5/2*1 3*1 4*1",
           "0*2 1*6 2*1",
           "1*3 2*6",
           (0, 1, 0), (2, -1, 0),
           "2 -1 0/-1 2 -1/0 -1 1",
           (7, 21, 8)),
    "B4": (16,
           "1/2*1 1*3 3/2*1 2*3 5/2*1 3*2 7/2*1 4*2 5*1 6*1",
           "0*5 1*10 2*1",
           "1*4 2*12",
           (0, 1, 0, 0), (0, -1, 0, 2),
           "2 -1 0 0/-1 2 -1 0/0 -1 2 -1/0 0 -1 1",
           (9, 36, 84, 16)),
    "B5": (25,
           "1/2*1 1*4 3/2*1 2*4 5/2*1 3*3 7/2*1 4*3 9/2*1 5*2 6*2 7*1 8*1",
           "0*10 1*14 2*1",
           "1*5 2*20",
           (0, 1, 0, 0, 0), (0, -1, 0, 1, 0),
           "2 -1 0 0 0/-1 2 -1 0 0/0 -1 2 -1 0/0 0 -1 2 -1/0 0 0 -1 1",
           (11, 55, 165, 330, 32)),
    "B6": (36,
           ("1/2*1 1*5 3/2*1 2*5 5/2*1 3*4 7/2*1 4*4 9/2*1 5*3 11/2*1 6*3 7*2 "
            "8*2 9*1 10*1"),
           "0*17 1*18 2*1",
           "1*6 2*30",
           (0, 1, 0, 0, 0, 0), (0, -1, 0, 1, 0, 0),
           ("2 -1 0 0 0 0/"
            "-1 2 -1 0 0 0/"
            "0 -1 2 -1 0 0/"
            "0 0 -1 2 -1 0/"
            "0 0 0 -1 2 -1/"
            "0 0 0 0 -1 1"),
           (13, 78, 286, 715, 1287, 64)),
    "C2": (4,
           "1/2*1 1*1 3/2*1 2*1",
           "0*1 1*2 2*1",
           "1*2 2*2",
           (2, 0), (-2, 2),
           "1 -1/-1 2",
           (4, 5)),
    "C3": (9,
           "1/2*2 1*2 3/2*1 2*2 5/2*1 3*1",
           "0*4 1*4 2*1",
           "1*6 2*3",
           (2, 0, 0), (-2, 2, 0),
           "1 -1/2 0/-1/2 1 -1/0 -1 2",
           (6, 14, 14)),
    "C4": (16,
           "1/2*3 1*3 3/2*2 2*2 5/2*2 3*2 7/2*1 4*1",
           "0*9 1*6 2*1",
           "1*12 2*4",
           (2, 0, 0, 0), (-2, 2, 0, 0),
           "1 -1/2 0 0/-1/2 1 -1/2 0/0 -1/2 1 -1/0 0 -1 2",
           (8, 27, 48, 42)),
    "C5": (25,
           "1/2*4 1*4 3/2*3 2*3 5/2*2 3*3 7/2*2 4*2 9/2*1 5*1",
           "0*16 1*8 2*1",
           "1*20 2*5",
           (2, 0, 0, 0, 0), (-2, 2, 0, 0, 0),
           ("1 -1/2 0 0 0/"
            "-1/2 1 -1/2 0 0/"
            "0 -1/2 1 -1/2 0/"
            "0 0 -1/2 1 -1/"
            "0 0 0 -1 2"),
           (10, 44, 110, 165, 132)),
    "C6": (36,
           "1/2*5 1*5 3/2*4 2*4 5/2*3 3*3 7/2*3 4*3 9/2*2 5*2 11/2*1 6*1",
           "0*25 1*10 2*1",
           "1*30 2*6",
           (2, 0, 0, 0, 0, 0), (-2, 2, 0, 0, 0, 0),
           ("1 -1/2 0 0 0 0/"
            "-1/2 1 -1/2 0 0 0/"
            "0 -1/2 1 -1/2 0 0/"
            "0 0 -1/2 1 -1/2 0/"
            "0 0 0 -1/2 1 -1/"
            "0 0 0 0 -1 2"),
           (12, 65, 208, 429, 572, 429)),
    "D3": (6,
           "1*3 2*2 3*1",
           "0*1 1*4 2*1",
           "2*6",
           (0, 1, 1), (2, -1, -1),
           "2 -1 -1/-1 2 0/-1 0 2",
           (6, 4, 4)),
    "D4": (12,
           "1*4 2*3 3*3 4*1 5*1",
           "0*3 1*8 2*1",
           "2*12",
           (0, 1, 0, 0), (2, -1, 0, 0),
           "2 -1 0 0/-1 2 -1 -1/0 -1 2 0/0 -1 0 2",
           (8, 28, 8, 8)),
    "D5": (20,
           "1*5 2*4 3*4 4*3 5*2 6*1 7*1",
           "0*7 1*12 2*1",
           "2*20",
           (0, 1, 0, 0, 0), (0, -1, 0, 1, 1),
           "2 -1 0 0 0/-1 2 -1 0 0/0 -1 2 -1 -1/0 0 -1 2 0/0 0 -1 0 2",
           (10, 45, 120, 16, 16)),
    "D6": (30,
           "1*6 2*5 3*5 4*4 5*4 6*2 7*2 8*1 9*1",
           "0*13 1*16 2*1",
           "2*30",
           (0, 1, 0, 0, 0, 0), (0, -1, 0, 1, 0, 0),
           ("2 -1 0 0 0 0/"
            "-1 2 -1 0 0 0/"
            "0 -1 2 -1 0 0/"
            "0 0 -1 2 -1 -1/"
            "0 0 0 -1 2 0/"
            "0 0 0 -1 0 2"),
           (12, 66, 220, 495, 32, 32)),
    "D7": (42,
           "1*7 2*6 3*6 4*5 5*5 6*4 7*3 8*2 9*2 10*1 11*1",
           "0*21 1*20 2*1",
           "2*42",
           (0, 1, 0, 0, 0, 0, 0), (0, -1, 0, 1, 0, 0, 0),
           ("2 -1 0 0 0 0 0/"
            "-1 2 -1 0 0 0 0/"
            "0 -1 2 -1 0 0 0/"
            "0 0 -1 2 -1 0 0/"
            "0 0 0 -1 2 -1 -1/"
            "0 0 0 0 -1 2 0/"
            "0 0 0 0 -1 0 2"),
           (14, 91, 364, 1001, 2002, 64, 64)),
    "D8": (56,
           "1*8 2*7 3*7 4*6 5*6 6*5 7*5 8*3 9*3 10*2 11*2 12*1 13*1",
           "0*31 1*24 2*1",
           "2*56",
           (0, 1, 0, 0, 0, 0, 0, 0), (0, -1, 0, 1, 0, 0, 0, 0),
           ("2 -1 0 0 0 0 0 0/"
            "-1 2 -1 0 0 0 0 0/"
            "0 -1 2 -1 0 0 0 0/"
            "0 0 -1 2 -1 0 0 0/"
            "0 0 0 -1 2 -1 0 0/"
            "0 0 0 0 -1 2 -1 -1/"
            "0 0 0 0 0 -1 2 0/"
            "0 0 0 0 0 -1 0 2"),
           (16, 120, 560, 1820, 4368, 8008, 128, 128)),
    "E6": (36,
           "1*6 2*5 3*5 4*5 5*4 6*3 7*3 8*2 9*1 10*1 11*1",
           "0*15 1*20 2*1",
           "2*36",
           (0, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 1),
           ("2 0 -1 0 0 0/"
            "0 2 0 -1 0 0/"
            "-1 0 2 -1 0 0/"
            "0 -1 -1 2 -1 0/"
            "0 0 0 -1 2 -1/"
            "0 0 0 0 -1 2"),
           (27, 78, 351, 2925, 351, 27)),
    "E7": (63,
           ("1*7 2*6 3*6 4*6 5*6 6*5 7*5 8*4 9*4 10*3 11*3 12*2 13*2 14*1 15*1 "
            "16*1 17*1"),
           "0*30 1*32 2*1",
           "2*63",
           (1, 0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 1, 0),
           ("2 0 -1 0 0 0 0/"
            "0 2 0 -1 0 0 0/"
            "-1 0 2 -1 0 0 0/"
            "0 -1 -1 2 -1 0 0/"
            "0 0 0 -1 2 -1 0/"
            "0 0 0 0 -1 2 -1/"
            "0 0 0 0 0 -1 2"),
           (133, 912, 8645, 365750, 27664, 1539, 56)),
    "E8": (120,
           ("1*8 2*7 3*7 4*7 5*7 6*7 7*7 8*6 9*6 10*6 11*6 12*5 13*5 14*4 15*4 "
            "16*4 17*4 18*3 19*3 20*2 21*2 22*2 23*2 24*1 25*1 26*1 27*1 28*1 "
            "29*1"),
           "0*63 1*56 2*1",
           "2*120",
           (0, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, -1),
           ("2 0 -1 0 0 0 0 0/"
            "0 2 0 -1 0 0 0 0/"
            "-1 0 2 -1 0 0 0 0/"
            "0 -1 -1 2 -1 0 0 0/"
            "0 0 0 -1 2 -1 0 0/"
            "0 0 0 0 -1 2 -1 0/"
            "0 0 0 0 0 -1 2 -1/"
            "0 0 0 0 0 0 -1 2"),
           (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248)),
    "F4": (24,
           ("1/2*2 1*3 3/2*1 2*3 5/2*2 3*3 7/2*1 4*2 9/2*1 5*2 11/2*1 6*1 7*1 "
            "8*1"),
           "0*9 1*14 2*1",
           "1*12 2*12",
           (1, 0, 0, 0), (-1, 0, 0, 2),
           "2 -1 0 0/-1 2 -1 0/0 -1 1 -1/2/0 0 -1/2 1",
           (52, 1274, 273, 26)),
    "G2": (6,
           "1/3*1 1*1 4/3*1 5/3*1 2*1 3*1",
           "0*1 1*4 2*1",
           "2/3*3 2*3",
           (0, 1), (2, -1),
           "2/3 -1/-1 2",
           (7, 14)),
}


def _multiset(values) -> str:
    return " ".join(f"{v}*{c}" for v, c in sorted(Counter(values).items()))


def _build(name):
    return build_root_system(name[0], int(name[1:]))


class TestPinnedInvariants:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_orthogonal_realisation(self, name):
        count, rho, theta, norm, theta_labels, sigma_labels, gram, dims = PINNED[name]
        rs = _build(name)
        positive = rs.positive_roots
        assert len(positive) == count
        assert _multiset(rs.gram(rs.rho, mu) for mu in positive) == rho
        assert _multiset(rs.gram(rs.theta, mu) for mu in positive) == theta
        assert _multiset(rs.gram(mu, mu) for mu in positive) == norm
        assert rs.dynkin_labels(rs.theta) == theta_labels
        assert (None if rs.sigma is None else rs.dynkin_labels(rs.sigma)) == sigma_labels
        assert "/".join(" ".join(str(rs.gram(a, b)) for b in rs.simple_roots)
                        for a in rs.simple_roots) == gram
        fundamental = [weyl_dim(rs, weight_from_dynkin(rs, [int(i == j) for i in range(rs.rank)]))
                       for j in range(rs.rank)]
        assert tuple(fundamental) == dims


def _reference_factors(rs, vec):
    """The Weyl product's factors (N/q, D/q, label) worked out from the
    invariant form: 2 (mu, lam + rho) and 2 (mu, rho) for every positive
    root mu, dropping the ratios that are identically 1."""
    shifted = tuple(a + b for a, b in zip(vec, rs.rho))
    factors = [(2 * rs.gram(mu, shifted), 2 * rs.gram(mu, rs.rho), f"2*(rho, {mu})")
               for mu in rs.positive_roots]
    return [factor for factor in factors if factor[0] != factor[1]]


class TestWeylProductFactors:
    @pytest.mark.parametrize("name", sorted(set(PINNED) | {f"{f}{r}" for f, r in NINE}))
    def test_factors_match_invariant_form(self, name):
        rs = _build(name)
        vectors = [tuple(n * t for t in rs.theta) for n in range(4)]
        if rs.sigma is not None:
            vectors += [tuple((k + 1) * t + s for t, s in zip(rs.theta, rs.sigma))
                        for k in range(3)]
        for vec in vectors:
            product = weyl_qdim_product(rs, rs.weight(vec))
            assert product.sign == 1
            assert product.context == f"weyl[{name}]"
            got = [(F(n, product.q), F(d, product.q), label)
                   for n, d, label in product.factors]
            assert got == _reference_factors(rs, vec), vec


class TestRootProperties:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_simple_reflections_permute_other_positive_roots(self, name):
        rs = _build(name)
        for alpha in rs.simple_roots:
            others = {mu for mu in rs.positive_roots if mu != alpha}
            reflected = {
                tuple(m - rs.coroot_pairing(mu, alpha) * a for m, a in zip(mu, alpha))
                for mu in others
            }
            assert reflected == others

    @pytest.mark.parametrize("rank", [6, 7])
    def test_e_family_nests_in_e8(self, rank):
        e8 = build_root_system("E", 8).positive_roots
        padded = {mu + (0,) * (8 - rank) for mu in build_root_system("E", rank).positive_roots}
        assert padded == {mu for mu in e8 if not any(mu[rank:])}
