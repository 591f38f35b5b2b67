"""The per-layer benchmark metrics come from wrappers that perfbench/tracing.py
installs around names looked up in symprox modules.  A name that a refactor
drops, or stops calling, makes its metric vanish or read 0 in traced runs;
these tests make it fail here."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from symprox import write_matrix_csv
from symprox.cli import main

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


def test_traced_cli_runs_enter_every_span(tmp_path):
    tracer = _TR.Tracer()
    restore = tracer.install()
    try:
        ds, m = tmp_path / "ds", tmp_path / "m.csv"
        assert main(["gen", "--scenario", "cov", "--n", "6", "--blocks", "2,4", "--seed", "1",
                     "--out", str(ds)]) == 0
        assert main(["solve-cov", "--data", str(ds), "--max-iter", "30",
                     "--out", str(tmp_path / "cov")]) in (0, 4)
        assert main(["solve-glasso", "--n", "8", "--p", "0.1", "--nsamples", "40", "--outer-max", "2",
                     "--max-iter", "30", "--out", str(tmp_path / "glasso")]) in (0, 4)
        write_matrix_csv(np.diag([2.0, -1.0, 0.5]), m)
        assert main(["prox", "--matrix", str(m), "--kernel", "penalty=schatten mu=0.3 p=2.5",
                     "--out", str(tmp_path / "prox")]) == 0
    finally:
        restore()
    assert tracer.missing == set()
    assert sorted({name for _, _, name in _TR.SPANS} - set(tracer.names)) == []
    assert tracer.counts["root_calls"] > 0 and tracer.counts["root_evals"] > 0
