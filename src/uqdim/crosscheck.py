"""Cross-checks of the universal formulas against the Weyl oracle: the
``verify specialization`` and ``verify g2zero`` suites and the symmetric-cube
decomposition tables, which regenerate every constituent of the symmetric
cube in :data:`~uqdim.identities.IDENTITY_TABLE` at one algebra by both
routes, along :func:`~uqdim.universal.algebra_line` where a row is 0/0.

The suites compare a universal product with its Weyl product as functions of
x, by :meth:`~uqdim.series.SinhProduct.same_function`: for every series
order at once, with no expansion, so the two routes share no series kernel."""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtParameters
from .identities import IDENTITY_TABLE, S3_SYM_CUBE, Z_ARGS, term_product
from .roots import build_root_system, weight_from_dynkin, weyl_dim, weyl_qdim_product
from .universal import (
    algebra_line,
    cartan_power_product,
    dim_adjoint,
    parse_algebra,
    vogel_params,
    z_dim_along_line,
    z_product,
)

SPECIALIZATION_ALGEBRAS = ("sl6", "so7", "sp6", "so12", "g2", "f4", "e6", "e7", "e8")

#: Symmetric-cube decomposition tables: the algebra and the Dynkin labels
#: of the modules of each symmetric-cube constituent, in the order of the s3
#: terms of IDENTITY_TABLE (None where no module is compared).
TABLES = {
    "s3-sl6": ("sl6", (
        ((3, 0, 0, 0, 3),), ((0, 0, 2, 0, 0),), None,
        ((1, 1, 0, 1, 1),), ((2, 0, 0, 0, 2),), ((0, 1, 0, 1, 0),),
        ((2, 0, 0, 1, 0), (0, 1, 0, 0, 2)), ((1, 0, 0, 0, 1),),
    )),
    "s3-f4": ("f4", (
        ((3, 0, 0, 0),), ((0, 0, 1, 0),), None,
        ((1, 0, 0, 2),), None, None,
        ((0, 1, 0, 0),), ((1, 0, 0, 0),),
    )),
    "s3-so12": ("so12", (
        ((0, 3, 0, 0, 0, 0),), ((0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2)), None,
        ((0, 1, 0, 1, 0, 0),), ((2, 1, 0, 0, 0, 0),), None,
        ((1, 0, 1, 0, 0, 0),), ((0, 1, 0, 0, 0, 0),),
    )),
}

# Tables print their rows grouped by kind, in this order.
_ROW_KINDS = ("adjoint", "y3", "x2", "z11")


def run_specialization() -> dict:
    """Universal-vs-Weyl cross-check: Cartan powers n = 1..3 for the nine
    reference algebras, plus the adjoint*Y2(beta) dimension against its
    tabulated Dynkin weight for each table algebra."""
    checks = []
    systems = {}
    for name in SPECIALIZATION_ALGEBRAS:
        aid = parse_algebra(name)
        v = vogel_params(aid)
        rs = systems[name] = build_root_system(aid.family, aid.rank)
        for n in range(1, 4):
            lam = rs.weight(tuple(n * c for c in rs.theta))
            oracle = weyl_qdim_product(rs, lam)
            checks.append({
                "check": f"{name}: cartan power n={n} vs Weyl oracle",
                "ok": cartan_power_product(v, n).same_function(oracle),
            })
    # adjoint*Y2(beta) at the unpermuted point
    terms = IDENTITY_TABLE[S3_SYM_CUBE].terms
    z11 = next(i for i, t in enumerate(terms) if t.kind == "z11" and t.perm == (0, 1, 2))
    for name, labels in TABLES.values():
        (dynkin,) = labels[z11]
        rs = systems[name]
        constant = term_product(terms[z11], vogel_params(name)).dim()
        oracle = weyl_dim(rs, weight_from_dynkin(rs, dynkin))
        checks.append({
            "check": f"{name}: adjoint*Y2(beta) dimension vs Dynkin "
                     + "".join(str(x) for x in dynkin),
            "ok": constant == oracle,
            "universal": str(constant),
            "weyl": str(oracle),
        })
    return {"checks": checks, "passed": all(c["ok"] for c in checks)}


def run_g2_vanishing() -> dict:
    """At the g2 point the mixed Cartan products vanish identically for two
    or more Y2(beta) factors, and match the rank-two Weyl oracle for one."""
    v = vogel_params("g2")
    rs = build_root_system("G", 2)
    sigma = rs.sigma
    checks = []
    for k in range(4):
        for p in (2, 3):
            checks.append({
                "check": f"z(k={k}, l={p}) at g2 is the zero series",
                "ok": z_product(v, k, p).is_zero,
            })
    for k in range(4):
        vec = tuple((k + 1) * t + s for t, s in zip(rs.theta, sigma))
        oracle = weyl_qdim_product(rs, rs.weight(vec))
        checks.append({
            "check": f"z(k={k}, l=1) at g2 equals the Weyl-line closed form",
            "ok": z_product(v, k, 1).same_function(oracle),
        })
    return {"checks": checks, "passed": all(c["ok"] for c in checks)}


#: The cross-check suites of ``uqdim verify``, by name.
SUITES = {"specialization": run_specialization, "g2zero": run_g2_vanishing}


def build_table_report(which: str) -> dict:
    """Regenerate one symmetric-cube decomposition table from the universal
    formulas and, independently, from the Weyl oracle via Dynkin labels.
    A row whose product is 0/0-indeterminate at the point is evaluated
    exactly along the algebra's line (``via`` says which)."""
    name, labels = TABLES[which]
    cube = IDENTITY_TABLE[S3_SYM_CUBE]
    aid = parse_algebra(name)
    v = vogel_params(aid)
    line, value, line_perm = algebra_line(aid)
    rs = build_root_system(aid.family, aid.rank)
    rows = []
    total = Fraction(0)
    all_match = True
    for term, dynkin in sorted(zip(cube.terms, labels, strict=True),
                               key=lambda pair: _ROW_KINDS.index(pair[0].kind)):
        mult = term.multiplicity
        try:
            universal, via = term_product(term, v).dim(), "point"
        except PoleAtParameters:
            perm = tuple(line_perm[i] for i in term.perm)
            universal = z_dim_along_line(line, value, perm, *Z_ARGS[term.kind])
            via = "line-limit"
        row = {"irrep": term.irrep, "multiplicity": mult,
               "universal": str(universal), "via": via,
               "weyl_dims": None, "weyl_total": None, "match": None}
        if dynkin is not None:
            dims = [weyl_dim(rs, weight_from_dynkin(rs, lab)) for lab in dynkin]
            weyl_total = mult * sum(dims)
            row.update(weyl_dims=[str(d) for d in dims], weyl_total=str(weyl_total),
                       match=mult * universal == weyl_total)
            all_match = all_match and row["match"]
        rows.append(row)
        total += mult * universal
    # the plethysm at f(m x) = dim for every m
    d = dim_adjoint(v)
    sym_cube = sum(c * d ** len(dilations) for c, dilations in cube.plethysm) / cube.divisor
    sum_match = total == sym_cube
    return {
        "algebra": name,
        "rows": rows,
        "universal_sum": str(total),
        "sym_cube_dim": str(sym_cube),
        "sum_match": sum_match,
        "passed": all_match and sum_match,
    }
