"""Benchmark of uqdim's public API and CLI, driven from outside the package.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A single closed-loop client runs the items of a workload back to back in this
process (at most one CLI child at a time) and repeats the pass while the
next pass would end within ``--seconds`` reference seconds (see ``Clock``),
and at least twice.  Every output is checked; a wrong output or an exception counts
as a failed item.  ``--workload all`` runs each workload in its own fresh
process, one after another.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run spends half its time untraced and half with the span wrappers of
``tracing`` installed, and prints the per-layer metrics of the first traced
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import tracing
import workloads
from checkout import ROOT, CheckoutError, environment, import_uqdim

WORKLOADS = tuple(workloads.WHY)
#: Fresh processes timed from spawn to "ready"; setup_s is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
#: Passes per run at least, so that item latencies pool across passes.
MIN_PASSES = 2
#: A run stops after this many times --seconds of raw time at the latest.
RAW_CAP = 1.5
#: Time of the calibration kernel in seconds on an unloaded host (CPython
#: 3.11, the 2-core x86-64 host the benchmark was defined on); reported times
#: are in seconds of a host that runs the kernel this fast.
CAL_REF_S = 0.0185
#: The tail is the highest percentile with at least this many items beyond it.
TAIL_BEYOND = 10

#: (metric, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def kernel_s() -> float:
    """Seconds for one run of the calibration kernel.  Its two halves slow
    down differently on a loaded host, as uqdim's workloads do: an exact
    harmonic sum (big-integer work, like high-order series) and truncated
    series products and float conversions of small Fractions (object churn,
    like product building at sampled points)."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 2400):
        acc += Fraction(1, i)
    a = [Fraction((7 * i) % 129 - 64 or 1, i % 64 + 1) for i in range(14)]
    b = [Fraction((11 * i) % 129 - 64 or 1, (3 * i) % 64 + 1) for i in range(14)]
    for _ in range(18):
        out = [Fraction(0)] * 14
        for i, x in enumerate(a):
            for j in range(14 - i):
                out[i + j] += x * b[j]
        a = [c / 7 for c in out]
    for k in range(900):
        float(Fraction(math.sinh(k * 0.01) + 0.5) * Fraction(3, 7) + Fraction(k, 11))
    return perf_counter() - start


class Clock:
    """Converts raw seconds to reference seconds.

    The throughput of a shared host drifts by up to 2x with its neighbours'
    load, over seconds to minutes, which no number of repeats within one run
    averages out.  Timing the calibration kernel right before and right
    after each timed region gives the host's current speed; a time is
    reported as raw seconds times CAL_REF_S over the mean kernel time.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self._before = 0.0

    def start(self) -> None:
        self._before = kernel_s()

    def scale(self) -> float:
        """Call right after a timed region: the factor from its raw seconds
        to reference seconds.  The kernel run also starts the next region."""
        after = kernel_s()
        speed = CAL_REF_S / ((self._before + after) / 2)
        self._before = after
        self.speeds.append(speed)
        return speed


class Tally:
    """Latencies (in reference seconds) and failures of one phase of a run."""

    def __init__(self):
        self.clock = Clock()
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.latency_s: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, items) -> list:
        """Run every item once; return each item's output (None if it raised)."""
        outputs = []
        total = raw_total = 0.0
        self.clock.start()
        for item in items:
            start = perf_counter()
            try:
                out = item.run()
            except Exception:
                raw = perf_counter() - start
                out, problem = None, traceback.format_exc(limit=4)
            else:
                raw = perf_counter() - start
                problem = None
            elapsed = raw * self.clock.scale()
            if problem is None:
                problem = item.check(out)
            total += elapsed
            raw_total += raw
            self.latency_s.append(elapsed)
            self.by_label.setdefault(item.label, []).append(elapsed)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"FAILED {item.label}: {problem}", file=sys.stderr)
            outputs.append(out)
        self.pass_s.append(total)
        self.raw_pass_s.append(raw_total)
        return outputs

    def run_for(self, seconds: float, min_passes: int, one_pass) -> None:
        """Call ``one_pass`` (which runs a pass on this tally) at least
        ``min_passes`` times, and again while the next pass, judged by the
        last one, would end within ``seconds`` reference seconds.  A very
        slow host stops the run after RAW_CAP times ``seconds`` raw seconds.
        Judging by the last pass keeps the pass count of a run from
        flipping when a pass takes about a whole fraction of ``seconds``."""
        start = perf_counter()
        first = len(self.pass_s)
        while True:
            one_pass()
            done = self.pass_s[first:]
            if len(done) < min_passes:
                continue
            if (sum(done) + done[-1] > seconds
                    or perf_counter() - start >= RAW_CAP * seconds):
                return


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile that leaves at
    least TAIL_BEYOND items above it (nearest rank); the maximum when there
    are too few items."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return ordered[rank - 1], pct


def measure_setup(workload: str, seed: int) -> list[float]:
    """Reference seconds from spawning a fresh workload process until its
    first item is ready (interpreter, ``import uqdim`` and the generated
    inputs)."""
    times = []
    clock = Clock()
    cmd = [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        clock.start()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            raw = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        times.append(raw * clock.scale())
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {workload} failed (exit {proc.returncode})")
    return times


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of this process, or for crosscheck of the
    largest child (ru_maxrss is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if workload == "crosscheck" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_untraced(workload, items, seed, seconds) -> tuple[Tally, dict, list[str]]:
    if tracing.wrapped_names():
        raise RuntimeError(f"untraced run sees wrappers: {tracing.wrapped_names()}")
    setup = measure_setup(workload, seed)
    tally = Tally()
    tally.run_for(seconds, MIN_PASSES, lambda: tally.run_pass(items))
    tail_s, pct = tail(tally.latency_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(tally.pass_s),
        "item_p50_ms": statistics.median(tally.latency_s) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(tally.pass_s)} passes "
                  f"(raw {statistics.median(tally.raw_pass_s):.6g} s at host speed "
                  f"{statistics.median(tally.clock.speeds):.3g})",
        "item_tail_ms": f"p{pct} of {len(tally.latency_s)} items",
        "peak_rss_mb": "largest CLI child" if workload == "crosscheck" else "this process",
    }
    lines = [f"  {name:<14} {metrics[name]:<12.6g} {unit:<3} {notes.get(name, '')}"
             for name, unit in END_TO_END]
    lines.insert(4, f"  {'fail_ratio':<14} {tally.failed / tally.attempted:<12.6g} "
                    f"{'ratio':<3} {tally.failed} of {tally.attempted} items")
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}, lines


@contextmanager
def spans_on(runner: workloads.CliRunner):
    """Install the span wrappers here and in every CLI child."""
    rec = tracing.Recorder()
    runner.spans = True
    try:
        with tracing.traced(rec):
            yield rec
    finally:
        runner.spans = False


def traced_pass(tally: Tally, items, runner, rec) -> tuple[list, dict]:
    """One pass with spans on: its outputs and the merged summary of the
    spans of this process and of its CLI children."""
    outputs = tally.run_pass(items)
    summaries = [tracing.summarize(rec.take())]
    summaries += [tracing.summarize(spans) for spans in runner.child_spans]
    runner.child_spans = []
    return outputs, tracing.merge(summaries)


def run_traced(workload, items, runner, seconds) -> tuple[Tally, dict, list[str]]:
    """Half the time untraced, then traced passes; the per-layer metrics
    come from the first traced pass, so their counts repeat exactly."""
    plain = Tally()
    plain.run_for(seconds / 2, 1, lambda: plain.run_pass(items))
    startup = plain.by_label.get(" ".join(workloads.STARTUP_COMMAND))
    traced = Tally()
    first: list = []
    with spans_on(runner) as rec:
        def one_pass():
            result = traced_pass(traced, items, runner, rec)
            if not first:
                first.append(result)

        traced.run_for(seconds / 2, 1, one_pass)
    outputs, summary = first[0]
    metrics = tracing.layer_metrics(
        summary,
        startup_s=statistics.median(startup) if startup else 0.0,
        exit_nonzero=sum(getattr(out, "returncode", 0) != 0 for out in outputs),
        overhead_ratio=statistics.median(traced.pass_s) / statistics.median(plain.pass_s),
    )
    lines = [f"  {name:<30} {metrics[name]:<12.6g} {unit}"
             for name, unit, _ in tracing.PER_LAYER]
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return traced, {name: (value, units[name]) for name, value in metrics.items()}, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        api = import_uqdim()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner = workloads.CliRunner()
    items = workloads.build(workload, api, seed, runner)
    if trace:
        tally, metrics, lines = run_traced(workload, items, runner, seconds)
    else:
        tally, metrics, lines = run_untraced(workload, items, seed, seconds)
    env = environment(seed)
    env.update(workload=workload, items_per_pass=len(items), items_run=tally.attempted,
               trace=int(trace))
    print(f"workload {workload} ({'traced' if trace else 'untraced'})")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


def probe(workload: str, seed: int) -> int:
    """Set up like a measured run, report readiness and exit."""
    try:
        api = import_uqdim()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads.build(workload, api, seed, workloads.CliRunner())
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
