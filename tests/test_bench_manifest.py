"""The benchmark's manifest names what its harness prints.

``perfbench/selftest.py`` is loaded from its file, without writing bytecode
next to it, and with ``perfbench/`` on ``sys.path`` only while it imports
its sibling modules.  Its ``check_manifest`` then compares
``BENCHMARK.json`` with ``workloads.WHY``, ``run.END_TO_END`` and
``tracing.PER_LAYER``, so a metric or workload renamed on one side only
fails here.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIBLINGS = ("checkout", "run", "tracing", "workloads")


def _load_selftest():
    spec = importlib.util.spec_from_file_location("perfbench_selftest", BENCH / "selftest.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    loaded = {name: sys.modules.get(name) for name in SIBLINGS}
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
        for name, old in loaded.items():  # selftest keeps its own references
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    return module


def test_manifest_matches_harness():
    problems = []
    _load_selftest().check_manifest(problems)
    assert problems == []
