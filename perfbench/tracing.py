"""Spans around uqdim's public entry points, installed from outside the package.

uqdim binds names with ``from .universal import ...``, so wrapping a function
in its defining module alone would miss the calls made through the other
modules.  :func:`traced` therefore rebinds every name in every ``uqdim``
module that refers to the wrapped function, patches methods on their class,
and restores all of it on exit.  A span is ``(name, start, end, parent,
info)`` kept in memory; :func:`summarize` folds a list of spans into counts
and self times, and :func:`layer_metrics` turns merged summaries into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, name, span) -- functions wrapped in every uqdim module that binds them.
FUNCTIONS = (
    ("uqdim.series", "sinh_ratio_series", "series.ratio"),
    ("uqdim.universal", "adjoint_product", "universal.build"),
    ("uqdim.universal", "y2_product", "universal.build"),
    ("uqdim.universal", "x2_product", "universal.build"),
    ("uqdim.universal", "z_product", "universal.build"),
    ("uqdim.universal", "cartan_power_product", "universal.build"),
    ("uqdim.universal", "z_dim_along_family", "universal.build"),
    ("uqdim.roots", "build_root_system", "roots.build"),
    ("uqdim.roots", "weyl_qdim", "roots.weyl_qdim"),
    ("uqdim.roots", "weyl_qdim_product", "roots.product"),
    ("uqdim.roots", "weyl_dim", "roots.weyl_dim"),
    ("uqdim.identities", "verify_identity", "identities.verify"),
    ("uqdim.identities", "identity_lhs", "identities.lhs"),
    ("uqdim.identities", "identity_rhs", "identities.rhs"),
    ("uqdim.identities", "sample_params", "identities.sample"),
    ("uqdim.instanton", "one_instanton_term", "instanton.term"),
    ("uqdim.cli", "main", "cli.main"),
)

#: Numeric verification draws its points inline, so a drawn point is seen
#: where identities constructs a VogelParams (sample_params does the same
#: once per series-mode draw).  Rebound in identities only: other modules
#: use the class for more than construction.
DRAWS = ("uqdim.identities", "VogelParams", "identities.draw")

#: (module, class, method, span) -- patched on the class.
METHODS = (
    ("uqdim.series", "SinhProduct", "series", "series.expand"),
    ("uqdim.series", "SinhProduct", "value_at", "series.value_at"),
    ("uqdim.series", "PowerSeries", "__mul__", "series.mul"),
    ("uqdim.series", "PowerSeries", "__truediv__", "series.div"),
    ("uqdim.series", "PowerSeries", "eval_at", "series.eval_at"),
)

#: Spans whose self time is reported.  Time in a nested span of the same
#: layer counts towards the nearest such ancestor, so ``series.expand``
#: self time includes its ratio, multiply and divide spans, while
#: ``identities.verify`` excludes the product building and series work it
#: calls into.
OWNERS = frozenset({
    "series.expand", "series.value_at", "universal.build", "roots.weyl_qdim",
    "identities.verify", "identities.lhs", "identities.rhs", "instanton.term",
})

#: (metric, unit, better) in output order; BENCHMARK.json lists the same.
PER_LAYER = (
    ("series.expand_calls", "count", "lower"),
    ("series.expand_self_s", "s", "lower"),
    ("series.factors_expanded", "count", "lower"),
    ("series.order_max", "order", "lower"),
    ("series.mul_calls", "count", "lower"),
    ("series.div_calls", "count", "lower"),
    ("series.ratio_calls", "count", "lower"),
    ("series.value_at_calls", "count", "lower"),
    ("series.value_at_self_s", "s", "lower"),
    ("series.eval_at_calls", "count", "lower"),
    ("universal.build_calls", "count", "lower"),
    ("universal.build_self_s", "s", "lower"),
    ("universal.factors_built", "count", "lower"),
    ("roots.build_calls", "count", "lower"),
    ("roots.build_s", "s", "lower"),
    ("roots.weyl_qdim_calls", "count", "lower"),
    ("roots.weyl_qdim_self_s", "s", "lower"),
    ("roots.weyl_dim_calls", "count", "lower"),
    ("identities.verify_self_s", "s", "lower"),
    ("identities.lhs_self_s", "s", "lower"),
    ("identities.rhs_self_s", "s", "lower"),
    ("identities.points_drawn", "count", "lower"),
    ("identities.points_accepted", "count", "higher"),
    ("identities.accept_ratio", "ratio", "higher"),
    ("instanton.term_calls", "count", "lower"),
    ("instanton.term_self_s", "s", "lower"),
    ("instanton.expansions_per_term", "ratio", "lower"),
    ("instanton.order_max", "order", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Metrics that must repeat exactly for one seed (everything but times).
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "order")) + (
    "identities.accept_ratio", "instanton.expansions_per_term",
)


def _expand_info(args, kwargs, result):
    order = kwargs["order"] if "order" in kwargs else args[1]
    return (len(args[0].factors), order)


def _build_info(args, kwargs, result):
    return len(getattr(result, "factors", ()))


def _verify_info(args, kwargs, result):
    return result.points_checked


_INFO = {
    "series.expand": _expand_info,
    "universal.build": _build_info,
    "identities.verify": _verify_info,
}


class Recorder:
    """Spans of one process, in order of entry (a parent precedes its children)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        if self.stack:
            raise RuntimeError("spans taken while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _wrap(fn, name: str, rec: Recorder):
    info = _INFO.get(name)

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        spans, stack = rec.spans, rec.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, None)
        if info is not None:
            spans[idx] = (name, start, end, parent, info(args, kwargs, result))
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _uqdim_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "uqdim" or n.startswith("uqdim.")) and m is not None]


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    for modname in {entry[0] for entry in FUNCTIONS + METHODS}:
        importlib.import_module(modname)
    modules = _uqdim_modules()
    undo = []
    try:
        for modname, attr, name in FUNCTIONS + (DRAWS,):
            original = getattr(sys.modules[modname], attr)
            wrapper = _wrap(original, name, rec)
            targets = [sys.modules[modname]] if (modname, attr, name) == DRAWS else modules
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, cls, meth, name in METHODS:
            klass = getattr(sys.modules[modname], cls)
            original = klass.__dict__[meth]
            undo.append((klass, meth, original))
            setattr(klass, meth, _wrap(original, name, rec))
        yield rec
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def wrapped_names() -> list[str]:
    """Names in uqdim currently bound to a wrapper (empty when untraced)."""
    found = []
    for mod in _uqdim_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, "__perfbench_original__")]
    return found


def summarize(spans: list) -> dict:
    """Counts and self times of one process's spans, as mergeable sums
    (keys ending in ``order_max`` merge by maximum)."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    owner: list = []
    term: list = []
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, info) in enumerate(spans):
        layer = name.split(".")[0]
        if name in OWNERS:
            owner.append(name)
        elif parent >= 0 and spans[parent][0].split(".")[0] == layer:
            owner.append(owner[parent])
        else:
            owner.append(name)
        term.append(i if name == "instanton.term" else (term[parent] if parent >= 0 else -1))
        add(f"{name}.calls", 1)
        add(f"{name}.total_s", end - start)
        add(f"{owner[i]}.self_s", end - start - child_time[i])
        if info is None:  # the call raised
            continue
        if name == "series.expand":
            add("series.factors_expanded", info[0])
            out["series.order_max"] = max(out.get("series.order_max", 0), info[1])
            if term[i] >= 0:
                add("instanton.expansions", 1)
                out["instanton.order_max"] = max(out.get("instanton.order_max", 0), info[1])
        elif name == "universal.build":
            add("universal.factors_built", info)
        elif name == "identities.verify":
            add("identities.points_accepted", info)
    return out


def merge(summaries) -> dict:
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key.endswith("order_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(s: dict, startup_s: float, exit_nonzero: int,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics from a merged summary, in PER_LAYER order."""
    def get(key):
        return s.get(key, 0)

    drawn = get("identities.draw.calls")
    terms = get("instanton.term.calls")
    values = {
        "series.expand_calls": get("series.expand.calls"),
        "series.expand_self_s": get("series.expand.self_s"),
        "series.factors_expanded": get("series.factors_expanded"),
        "series.order_max": get("series.order_max"),
        "series.mul_calls": get("series.mul.calls"),
        "series.div_calls": get("series.div.calls"),
        "series.ratio_calls": get("series.ratio.calls"),
        "series.value_at_calls": get("series.value_at.calls"),
        "series.value_at_self_s": get("series.value_at.self_s"),
        "series.eval_at_calls": get("series.eval_at.calls"),
        "universal.build_calls": get("universal.build.calls"),
        "universal.build_self_s": get("universal.build.self_s"),
        "universal.factors_built": get("universal.factors_built"),
        "roots.build_calls": get("roots.build.calls"),
        "roots.build_s": get("roots.build.total_s"),
        "roots.weyl_qdim_calls": get("roots.weyl_qdim.calls"),
        "roots.weyl_qdim_self_s": get("roots.weyl_qdim.self_s"),
        "roots.weyl_dim_calls": get("roots.weyl_dim.calls"),
        "identities.verify_self_s": get("identities.verify.self_s"),
        "identities.lhs_self_s": get("identities.lhs.self_s"),
        "identities.rhs_self_s": get("identities.rhs.self_s"),
        "identities.points_drawn": drawn,
        "identities.points_accepted": get("identities.points_accepted"),
        "identities.accept_ratio": get("identities.points_accepted") / drawn if drawn else 0.0,
        "instanton.term_calls": terms,
        "instanton.term_self_s": get("instanton.term.self_s"),
        "instanton.expansions_per_term": get("instanton.expansions") / terms if terms else 0.0,
        "instanton.order_max": get("instanton.order_max"),
        "cli.startup_s": startup_s,
        "cli.exit_nonzero": exit_nonzero,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: values[name] for name, _, _ in PER_LAYER}
