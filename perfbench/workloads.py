"""The benchmark's workloads: the items of one pass, made from the workload
seed, and the check each item's output must pass.

An item is one timed public call.  A pass runs a workload's items once, in
order; every pass of a run repeats the same items, so passes are comparable
and the counts of a traced pass repeat exactly for one seed.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checkout import BENCH, OUT, ROOT

GOLDEN = BENCH / "golden"
LAUNCHER = BENCH / "launcher.py"
CHILD_TIMEOUT_S = 150

#: Workload name -> the one-line reason it was chosen (also in BENCHMARK.json).
WHY = {
    "identity-series": "exact Fraction series kernel at low order over many 3-30 factor products; where a faster series kernel must show",
    "identity-numeric": "float sampling that makes no series expansion; product building dominates, so a series-kernel change must leave it flat",
    "instanton": "few factors at series orders up to 256 through the adaptive evaluator; where a bounded float instanton path must show",
    "crosscheck": "one uqdim --json process per item with cold caches: the only workload that runs the Weyl oracle and the CLI start-up",
}

SERIES_ROTATION = (("s2", 20), ("a2", 20), ("s3", 17))
SERIES_TRIALS = 10
NUMERIC_ROTATION = ("s2", "a2", "s3")
NUMERIC_TRIALS = 200
NUMERIC_TOLERANCE = 1e-9
#: Identity items per pass: the rotation repeated, each item with its own seed.
IDENTITY_ROTATIONS = 4

#: (algebra, x, n_max) at eps1 = 0.1, eps2 = 0.2, sigma = -1.
INSTANTON_CASES = (("e7", 0.5, 8), ("sl6", 0.25, 10))
INSTANTON_EPS = (0.1, 0.2, -1.0)
INSTANTON_RTOL = 1e-9

CROSSCHECK_COMMANDS = (
    ("dim", "e8"),
    ("verify", "specialization"),
    ("verify", "g2zero"),
    ("table", "s3-sl6"),
    ("table", "s3-f4"),
    ("table", "s3-so12"),
)
#: The item whose latency is the floor of interpreter start plus import.
STARTUP_COMMAND = ("dim", "e8")


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    #: Returns None when the output is right, else what is wrong.
    check: Callable[[object], "str | None"]


def _item_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _series_items(api, seed: int) -> list[Item]:
    items = []
    rotation = SERIES_ROTATION * IDENTITY_ROTATIONS
    for (ident, order), s in zip(rotation, _item_seeds("identity-series", seed, len(rotation))):
        def run(ident=ident, order=order, s=s):
            return api.verify_identity(ident, mode="series", order=order,
                                       trials=SERIES_TRIALS, seed=s)

        def check(r):
            if r.passed and r.exact_zero is True and r.points_checked == SERIES_TRIALS:
                return None
            return (f"passed={r.passed} exact_zero={r.exact_zero} "
                    f"points_checked={r.points_checked}")

        items.append(Item(f"{ident}@{order} seed={s}", run, check))
    return items


def _numeric_items(api, seed: int) -> list[Item]:
    items = []
    rotation = NUMERIC_ROTATION * IDENTITY_ROTATIONS
    for ident, s in zip(rotation, _item_seeds("identity-numeric", seed, len(rotation))):
        def run(ident=ident, s=s):
            return api.verify_identity(ident, mode="numeric", trials=NUMERIC_TRIALS, seed=s)

        def check(r):
            if (r.passed and r.points_checked == NUMERIC_TRIALS
                    and r.max_abs_residual is not None
                    and r.max_abs_residual <= NUMERIC_TOLERANCE):
                return None
            return (f"passed={r.passed} points_checked={r.points_checked} "
                    f"max_abs_residual={r.max_abs_residual}")

        items.append(Item(f"{ident} numeric seed={s}", run, check))
    return items


def _instanton_items(api, seed: int) -> list[Item]:
    """Terms of the one-instanton sum, each checked against the Weyl-oracle
    float product at n*theta; the references are computed here, untimed."""
    eps1, eps2, sigma = INSTANTON_EPS
    items = []
    for name, x, n_max in INSTANTON_CASES:
        aid = api.parse_algebra(name)
        v = api.vogel_params(aid)
        rs = api.build_root_system(aid.family, aid.rank)
        ip = api.InstantonParams(eps1=eps1, eps2=eps2, sigma_n=sigma, x=x, n_max=n_max)
        for n in range(1, n_max + 1):
            lam = rs.weight(tuple(n * c for c in rs.theta))
            weight = math.exp(n * sigma * (eps1 + eps2))
            ref = weight * api.roots.weyl_qdim_product(rs, lam).value_at(x)

            def run(v=v, ip=ip, n=n):
                return api.one_instanton_term(v, ip, n)

            def check(value, ref=ref):
                if abs(value - ref) <= INSTANTON_RTOL * abs(ref):
                    return None
                return f"term {value!r} differs from the Weyl reference {ref!r}"

            items.append(Item(f"{name} n={n} x={x}", run, check))
    random.Random(f"instanton/{seed}").shuffle(items)
    return items


class CliRunner:
    """Runs one ``uqdim ... --json`` child at a time through the launcher.
    With ``spans`` set, each child records spans and the runner collects
    them in ``child_spans``."""

    def __init__(self):
        self.spans = False
        self.child_spans: list[list] = []

    def __call__(self, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(LAUNCHER)]
        spans_path = OUT / "child-spans.json"
        if self.spans:
            OUT.mkdir(exist_ok=True)
            cmd += ["--spans", str(spans_path)]
        cmd += ["--", *argv, "--json"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if self.spans:
            self.child_spans.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return done


def golden_path(argv: tuple[str, ...]) -> Path:
    return GOLDEN / ("-".join(argv) + ".json")


def _crosscheck_items(api, seed: int, runner: CliRunner) -> list[Item]:
    items = []
    for argv in CROSSCHECK_COMMANDS:
        golden = golden_path(argv).read_bytes()

        def run(argv=argv):
            return runner(argv)

        def check(done, golden=golden):
            if done.returncode != 0:
                return f"exit code {done.returncode}: {done.stderr.decode()[-300:]}"
            if done.stdout != golden:
                return "stdout differs from the golden output"
            return None

        items.append(Item(" ".join(argv), run, check))
    random.Random(f"crosscheck/{seed}").shuffle(items)
    return items


def build(workload: str, api, seed: int, runner: CliRunner) -> list[Item]:
    """The items of one pass of ``workload`` for ``seed``."""
    if workload == "identity-series":
        return _series_items(api, seed)
    if workload == "identity-numeric":
        return _numeric_items(api, seed)
    if workload == "instanton":
        return _instanton_items(api, seed)
    if workload == "crosscheck":
        return _crosscheck_items(api, seed, runner)
    raise ValueError(f"unknown workload {workload!r}")
