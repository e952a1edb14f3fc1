"""Self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py [--seed N]

Checks that
  * BENCHMARK.json names the workloads and metrics this harness prints;
  * the wrappers rebind every name that refers to a wrapped function, and
    the untraced state sees the original functions again afterwards;
  * every span fires on the workloads where it is expected, and
    ``series.expand_calls`` is 0 on identity-numeric;
  * the per-layer counts of a traced pass repeat exactly across two runs.
Exits 0 when everything holds, 1 otherwise.  Takes about a minute, most of
it in the instanton pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import tracing
import workloads
from checkout import ROOT, import_uqdim

#: Per-layer metrics that must be above 0 after one traced pass.
FIRES = {
    "identity-series": (
        "series.expand_calls", "series.factors_expanded", "series.order_max",
        "series.mul_calls", "series.div_calls", "series.ratio_calls",
        "universal.build_calls", "universal.factors_built",
        "identities.verify_self_s", "identities.lhs_self_s", "identities.rhs_self_s",
        "identities.points_drawn", "identities.points_accepted",
    ),
    "identity-numeric": (
        "series.value_at_calls", "series.value_at_self_s",
        "universal.build_calls", "universal.build_self_s", "universal.factors_built",
        "identities.verify_self_s", "identities.points_drawn", "identities.points_accepted",
    ),
    "instanton": (
        "series.expand_calls", "series.expand_self_s", "series.order_max",
        "series.mul_calls", "series.div_calls", "series.ratio_calls", "series.eval_at_calls",
        "universal.build_calls", "instanton.term_calls", "instanton.term_self_s",
        "instanton.expansions_per_term", "instanton.order_max",
    ),
    "crosscheck": (
        "series.expand_calls", "series.expand_self_s", "series.mul_calls",
        "series.div_calls", "series.ratio_calls", "universal.build_calls",
        "roots.build_calls", "roots.build_s", "roots.weyl_qdim_calls",
        "roots.weyl_qdim_self_s", "roots.weyl_dim_calls",
    ),
}
#: Per-layer metrics that must read exactly 0 after one traced pass.
SILENT = {
    "identity-series": ("series.value_at_calls", "roots.build_calls", "instanton.term_calls"),
    "identity-numeric": ("series.expand_calls", "series.ratio_calls", "roots.build_calls"),
    "instanton": ("series.value_at_calls", "identities.points_drawn", "roots.build_calls"),
    "crosscheck": ("identities.points_drawn", "instanton.term_calls"),
}
#: Bindings the wrappers must reach besides the defining modules:
#: (module, name) or (module, class, method).
REBOUND = (
    ("uqdim", "verify_identity"),
    ("uqdim.identities", "adjoint_product"),
    ("uqdim.identities", "VogelParams"),
    ("uqdim.instanton", "cartan_power_product"),
    ("uqdim.cli", "z_product"),
    ("uqdim.cli", "weyl_qdim"),
    ("uqdim.cli", "verify_identity"),
    ("uqdim.series", "SinhProduct", "series"),
    ("uqdim.series", "PowerSeries", "__mul__"),
)


def check_manifest(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WHY):
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for w in spec["workloads"]:
        if workloads.WHY.get(w["name"]) != w["why"]:
            problems.append(f"BENCHMARK.json why of {w['name']} differs from workloads.WHY")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(tracing.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def _binding(entry: tuple):
    obj = vars(sys.modules[entry[0]])[entry[1]]
    return vars(obj)[entry[2]] if len(entry) == 3 else obj


def check_rebinding(problems: list[str]) -> None:
    import uqdim.cli  # noqa: F401  (the CLI module binds most names)

    before = {entry: _binding(entry) for entry in REBOUND}
    if tracing.wrapped_names():
        problems.append(f"wrappers installed before tracing: {tracing.wrapped_names()}")
    with tracing.traced(tracing.Recorder()):
        for entry in REBOUND:
            if not hasattr(_binding(entry), "__perfbench_original__"):
                problems.append(f"{'.'.join(entry)} is not wrapped while tracing")
        if hasattr(_binding(("uqdim.universal", "VogelParams")), "__perfbench_original__"):
            problems.append("VogelParams is wrapped outside identities")
    for entry in REBOUND:
        if _binding(entry) is not before[entry]:
            problems.append(f"{'.'.join(entry)} is not the original after tracing")
    if tracing.wrapped_names():
        problems.append(f"wrappers left after tracing: {tracing.wrapped_names()}")


def traced_counts(workload: str, api, seed: int) -> dict:
    runner = workloads.CliRunner()
    items = workloads.build(workload, api, seed, runner)
    tally = run.Tally()
    with run.spans_on(runner) as rec:
        _, summary = run.traced_pass(tally, items, runner, rec)
    if tally.failed:
        raise AssertionError(f"{workload}: {tally.failed} items failed")
    return tracing.layer_metrics(summary, startup_s=0.0, exit_nonzero=0, overhead_ratio=1.0)


def check_workloads(api, seed: int, problems: list[str]) -> None:
    for workload in workloads.WHY:
        first = traced_counts(workload, api, seed)
        second = traced_counts(workload, api, seed)
        for name in FIRES[workload]:
            if not first[name] > 0:
                problems.append(f"{workload}: {name} did not fire")
        for name in SILENT[workload]:
            if first[name] != 0:
                problems.append(f"{workload}: {name} is {first[name]}, expected 0")
        for name in tracing.COUNTS:
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} read {first[name]} then {second[name]}")
        print(f"{workload}: checked", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark harness.")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    api = import_uqdim()
    problems: list[str] = []
    check_manifest(problems)
    check_rebinding(problems)
    check_workloads(api, args.seed, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
