"""The benchmark's tracing wraps uqdim functions and methods by name.

``perfbench/tracing.py`` is loaded from its file, without writing bytecode
next to it, and every name it wraps must still resolve in ``uqdim``.  A
rename then fails here instead of crashing a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_functions_resolve(tracing):
    assert tracing.FUNCTIONS
    for modname, attr, _ in tracing.FUNCTIONS + (tracing.DRAWS,):
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_methods_resolve(tracing):
    assert tracing.METHODS
    for modname, cls, meth, _ in tracing.METHODS:
        klass = getattr(importlib.import_module(modname), cls, None)
        assert isinstance(klass, type), f"{modname}.{cls}"
        # tracing patches the method found in the class's own __dict__
        assert callable(klass.__dict__.get(meth)), f"{modname}.{cls}.{meth}"


def test_info_counts_factors(tracing):
    # The spans record a product's factor count; reading a renamed or
    # missing attribute must fail here, not in a traced run.
    from uqdim import vogel_params
    from uqdim.universal import cartan_power_product

    product = cartan_power_product(vogel_params("e8"), 2)
    assert len(product) > 0
    assert tracing._build_info((), {}, product) == len(product)
    assert tracing._expand_info((product, 6), {}, None) == (len(product), 6)
    assert tracing._expand_info((product,), {"order": 6}, None) == (len(product), 6)
