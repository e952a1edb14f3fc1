"""The benchmark's tracing sees every product an identity builds.

``perfbench/tracing.py`` rebinds the module-level builder names
(``adjoint_product``, ``y2_product``, ``x2_product``, ``z_product``), so
``identities.term_product`` must look them up at call time.  A table that
held the function objects themselves would hide those calls, and
``universal.build`` would read 0 on both identity workloads.
"""

import pytest

from uqdim.identities import verify_identity

from test_bench_hooks import tracing  # noqa: F401  (the module fixture)

# (universal.build spans, factors built) of a 3-trial, seed-0 run at order
# 4: the right-hand side's constituents per point, plus one adjoint for
# the plethysm where they hold none (s2).  In both modes the adjoint
# constituent of a2 and s3 serves the plethysm too.
BUILDS = {
    "numeric": {"s2": (12, 63), "a2": (6, 36), "s3": (24, 207)},
    "series": {"s2": (12, 63), "a2": (6, 36), "s3": (24, 207)},
}


@pytest.mark.parametrize("mode", ["series", "numeric"])
@pytest.mark.parametrize("identity", ["a2", "s2", "s3"])
def test_build_spans(tracing, identity, mode):  # noqa: F811
    rec = tracing.Recorder()
    with tracing.traced(rec):
        report = verify_identity(identity, mode=mode, order=4, trials=3, seed=0)
    assert tracing.wrapped_names() == []
    summary = tracing.summarize(rec.take())
    assert report.points_checked == 3
    assert (summary["universal.build.calls"], summary["universal.factors_built"]) \
        == BUILDS[mode][identity]
