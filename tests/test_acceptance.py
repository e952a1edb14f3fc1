"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets and tolerances are pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from uqdim import (
    NUMERIC,
    S3_SYM_CUBE,
    A2_ANTISYM,
    S2_SYM,
    SERIES,
    InstantonParams,
    PoleAtParameters,
    build_root_system,
    dim_adjoint,
    exc_line_dim,
    one_instanton_term,
    parse_algebra,
    qdim_adjoint,
    qdim_cartan_adjoint,
    qdim_x2,
    qdim_y2,
    qdim_z,
    verify_identity,
    vogel_params,
    weight_from_dynkin,
    weyl_dim,
    weyl_qdim,
)
from uqdim.crosscheck import build_table_report
from uqdim.universal import (
    adjoint_product,
    x2_product,
    y2_product,
    z_product,
)

from conftest import rand_fraction, sample_regular_points


def report(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")


# Expected entries of the three symmetric-cube decomposition tables:
# (universal row value, per-irrep Weyl dimensions or None).
TABLE_EXPECTATIONS = {
    "s3-sl6": {
        "adjoint": ("35", ["35"]),
        "Y3(alpha)": ("2695", ["2695"]),
        "Y3(beta)": ("175", ["175"]),
        "Y3(gamma)": ("1", None),
        "X2": ("560", ["280", "280"]),
        "g.Y2(beta)(alpha,beta,gamma)": ("3675", ["3675"]),
        "g.Y2(beta)(alpha,gamma,beta)": ("405", ["405"]),
        "g.Y2(beta)(beta,gamma,alpha)": ("189", ["189"]),
    },
    "s3-f4": {
        "adjoint": ("52", ["52"]),
        "Y3(alpha)": ("12376", ["12376"]),
        "Y3(beta)": ("273", ["273"]),
        "Y3(gamma)": ("-52", None),
        "X2": ("1274", ["1274"]),
        "g.Y2(beta)(alpha,beta,gamma)": ("10829", ["10829"]),
        "g.Y2(beta)(alpha,gamma,beta)": ("0", None),
        "g.Y2(beta)(beta,gamma,alpha)": ("0", None),
    },
    "s3-so12": {
        "adjoint": ("66", ["66"]),
        "Y3(alpha)": ("23100", ["23100"]),
        "Y3(beta)": ("924", ["462", "462"]),
        "Y3(gamma)": ("0", None),
        "X2": ("2079", ["2079"]),
        "g.Y2(beta)(alpha,beta,gamma)": ("21021", ["21021"]),
        "g.Y2(beta)(alpha,gamma,beta)": ("2860", ["2860"]),
        "g.Y2(beta)(beta,gamma,alpha)": ("0", None),
    },
}

TABLE_SUMS = {"s3-sl6": "7770", "s3-f4": "24804", "s3-so12": "50116"}


def test_criterion_1_table_regeneration():
    start = time.monotonic()
    for which, expected in TABLE_EXPECTATIONS.items():
        table = build_table_report(which)
        assert table.pop("passed"), which
        assert table["universal_sum"] == TABLE_SUMS[which]
        assert table["sym_cube_dim"] == TABLE_SUMS[which]
        rows = {row["irrep"]: row for row in table["rows"]}
        assert set(rows) == set(expected)
        for irrep, (universal, weyl_dims) in expected.items():
            assert rows[irrep]["universal"] == universal, (which, irrep)
            assert rows[irrep]["weyl_dims"] == weyl_dims, (which, irrep)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, True, f"three decomposition tables regenerated exactly in {elapsed:.2f}s")


def test_criterion_2_symmetric_cube_identity():
    start = time.monotonic()
    series = verify_identity(S3_SYM_CUBE, mode=SERIES, order=17, trials=50, seed=7)
    assert series.passed and series.exact_zero
    assert series.points_checked == 50
    numeric = verify_identity(S3_SYM_CUBE, mode=NUMERIC, order=17,
                              trials=10_000, seed=7)
    assert numeric.passed
    assert numeric.max_abs_residual <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(2, True,
           f"cube identity: exact zero to order 17 at 50 rational points; "
           f"numeric residual {numeric.max_abs_residual:.2e} over 10000 points "
           f"({elapsed:.1f}s)")


def test_criterion_3_square_identities():
    start = time.monotonic()
    for ident in (S2_SYM, A2_ANTISYM):
        outcome = verify_identity(ident, mode=SERIES, order=20, trials=100, seed=5)
        assert outcome.passed and outcome.exact_zero, ident
        assert outcome.points_checked == 100
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, True,
           f"square identities exact to order 20 at 100 points each ({elapsed:.1f}s)")


SPECIALIZATION = ("sl6", "so7", "sp6", "so12", "g2", "f4", "e6", "e7", "e8")
Z11_LABELS = {"sl6": (1, 1, 0, 1, 1), "f4": (1, 0, 0, 2),
              "so12": (0, 1, 0, 1, 0, 0)}


def test_criterion_4_specialization():
    start = time.monotonic()
    for name in SPECIALIZATION:
        aid = parse_algebra(name)
        v = vogel_params(aid)
        rs = build_root_system(aid.family, aid.rank)
        for n in (1, 2, 3):
            lam = rs.weight(tuple(n * c for c in rs.theta))
            assert qdim_cartan_adjoint(v, n, 20) == weyl_qdim(rs, lam, 20), (name, n)
    for name, labels in Z11_LABELS.items():
        aid = parse_algebra(name)
        rs = build_root_system(aid.family, aid.rank)
        constant = z_product(vogel_params(aid), 1, 1).dim()
        assert constant == weyl_dim(rs, weight_from_dynkin(rs, labels)), name
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(4, True,
           f"nine algebras match the Weyl oracle exactly to order 20, n = 1..3; "
           f"mixed products match their Dynkin weights ({elapsed:.1f}s)")


def test_criterion_5_g2_vanishing():
    v = vogel_params("g2")
    rs = build_root_system("G", 2)
    for k in range(4):
        for p in (2, 3):
            assert qdim_z(v, k, p, 20).is_zero, (k, p)
    for k in range(4):
        vec = tuple((k + 1) * t + s for t, s in zip(rs.theta, rs.sigma))
        assert qdim_z(v, k, 1, 20) == weyl_qdim(rs, rs.weight(vec), 20), k
    report(5, True, "mixed products vanish identically at g2 for l = 2, 3 "
                    "and match the rank-two closed form for l = 1")


def _j_dim_formula(lam):
    lam = F(lam)
    num = (81 * (lam - 6) * (lam - 4) * (lam - 3) * (lam + 2) * (lam + 3)
           * (lam + 5) * (2 * lam - 5) * (2 * lam + 3))
    den = ((lam - 1) ** 2 * lam ** 2 * (2 * lam - 1) ** 2
           * (3 * lam - 2) * (3 * lam - 1))
    return num / den


def test_criterion_6_exceptional_line_closed_form():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        lam = F(rng.randint(-48, 48), rng.randint(1, 16))
        try:
            value = exc_line_dim(lam, 0, 2)
        except PoleAtParameters:
            continue
        assert value == _j_dim_formula(lam), lam
        checked += 1
    report(6, True, "exceptional-line dimension matches the closed-form "
                    "rational function at 20 sampled points")


def test_criterion_6_value_at_minus_two_thirds():
    # Stated expectation: the dimension vanishes at lam = -2/3.  The engine
    # and the independent Weyl oracle both give the nonzero value 16302
    # there: (-2/3, 5/3, 2) rescales to the f4 parameters (-2, 5, 6), and
    # the vanishing points of the closed form are the g2 points -3/2 and
    # 5/2 (test_universal.py::TestExceptionalLine).  Kept as stated rather
    # than silenced, so the discrepancy stays visible.
    value = exc_line_dim(F(-2, 3), 0, 2)
    passed = value == 0
    report(6, passed, f"value at lambda = -2/3 is {value}, expected 0")
    assert value == 0


def test_criterion_7_instanton_terms():
    rng = random.Random(29)
    v = vogel_params("e7")
    rs = build_root_system("E", 7)
    ip = InstantonParams(
        eps1=rng.uniform(-0.5, 0.5),
        eps2=rng.uniform(-0.5, 0.5),
        sigma_n=rng.uniform(-2.0, -0.5),
        x=rng.uniform(0.2, 0.45),
        n_max=5,
    )
    worst = 0.0
    for n in range(1, 6):
        term = one_instanton_term(v, ip, n)
        lam = rs.weight(tuple(n * c for c in rs.theta))
        oracle = (math.exp(n * ip.sigma_n * (ip.eps1 + ip.eps2))
                  * weyl_qdim(rs, lam, 128).eval_at(ip.x))
        rel = abs(term - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-9, (n, rel)
    first = one_instanton_term(v, ip, 1)
    closed = (math.exp(ip.sigma_n * (ip.eps1 + ip.eps2))
              * adjoint_product(v).value_at(ip.x))
    assert abs(first - closed) <= 1e-9 * abs(closed)
    report(7, True, f"instanton terms match the Weyl oracle for n <= 5 "
                    f"(worst relative deviation {worst:.2e})")


def test_criterion_8_invariance_suite():
    rng = random.Random(31)

    def all_formulas(v):
        adjoint_product(v)
        x2_product(v)
        z_product(v, 1, 1)
        z_product(v, 2, 0)
        z_product(v, 3, 0)
        for slot in ("alpha", "beta", "gamma"):
            y2_product(v, slot)
        dim_adjoint(v)

    points = sample_regular_points(37, 50, all_formulas)

    # scaling invariance at 50 points, exact
    for v in points:
        z = rand_fraction(rng, 8)
        scaled = v.scaled(z)
        for series_of in (
            lambda w: qdim_adjoint(w, 10),
            lambda w: qdim_x2(w, 10),
            lambda w: qdim_z(w, 1, 1, 10),
        ):
            assert series_of(scaled).scale_x(z) == series_of(v)

    # full permutation symmetry of the adjoint and X2 series, exact
    for v in points[:15]:
        adj = qdim_adjoint(v, 12)
        x2 = qdim_x2(v, 12)
        for perm in itertools.permutations(range(3)):
            assert qdim_adjoint(v.permuted(perm), 12) == adj
            assert qdim_x2(v.permuted(perm), 12) == x2

    # first-two-slot symmetry of the mixed product, exact
    for v in points[:15]:
        try:
            swapped = qdim_z(v.permuted((1, 0, 2)), 1, 1, 12)
        except PoleAtParameters:
            continue
        assert qdim_z(v, 1, 1, 12) == swapped

    # pure Cartan powers: the five-block product reduces exactly
    for v in points[:15]:
        for n in (1, 2, 3):
            assert qdim_z(v, n, 0, 12) == qdim_cartan_adjoint(v, n, 12)

    # symmetric-square sum rule, exact
    for v in points:
        d = dim_adjoint(v)
        total = 1 + sum(qdim_y2(v, slot, 0).constant_term
                        for slot in ("alpha", "beta", "gamma"))
        assert total == d * (d + 1) / 2

    report(8, True, "scaling, permutation, reduction and sum-rule "
                    "invariances hold exactly at sampled points")
