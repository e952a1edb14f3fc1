"""The cross-check suites and the symmetric-cube decomposition tables."""

import ast
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from uqdim import cli
from uqdim.crosscheck import TABLES
from uqdim.errors import PoleAtParameters
from uqdim.identities import IDENTITY_TABLE, S3_SYM_CUBE, Z_ARGS, term_product
from uqdim.universal import algebra_line, vogel_params, z_dim_along_line

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def crosscheck_commands():
    """CROSSCHECK_COMMANDS of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "CROSSCHECK_COMMANDS":
            return ast.literal_eval(node.value)
    raise AssertionError("no CROSSCHECK_COMMANDS in perfbench/workloads.py")


@pytest.mark.parametrize("argv", crosscheck_commands(), ids="-".join)
def test_stdout_matches_golden(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    assert code == 0
    golden = (BENCH / "golden" / ("-".join(argv) + ".json")).read_bytes()
    assert out.getvalue().encode() == golden


@pytest.mark.parametrize("which", sorted(TABLES))
def test_line_agrees_with_point(which):
    """Each table's line passes through its algebra in the table's slot
    order: wherever a mixed Cartan product is regular at the point, its value
    along the line is the same number."""
    name, labels = TABLES[which]
    line, value, line_perm = algebra_line(name)
    terms = IDENTITY_TABLE[S3_SYM_CUBE].terms
    assert len(labels) == len(terms)
    v = vogel_params(name)
    resolved = 0
    for term in terms:
        if term.kind not in Z_ARGS:
            continue
        perm = tuple(line_perm[i] for i in term.perm)
        along = z_dim_along_line(line, value, perm, *Z_ARGS[term.kind])
        try:
            at_point = term_product(term, v).dim()
        except PoleAtParameters:
            continue
        assert along == at_point, term.irrep
        resolved += 1
    assert resolved >= 4

