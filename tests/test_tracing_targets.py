"""The per-layer benchmark metrics come from wrappers that perfbench/tracing.py
installs around names looked up in symprox modules.  A name that a refactor
drops makes its metric vanish from traced runs; this test makes it fail here."""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    # tracing.py imports only the standard library, so it loads without perfbench's runner
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TR = _tracing()


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, n, _ in _TR.SPANS] + list(_TR.ROOT_SOLVERS),
)
def test_traced_name_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
