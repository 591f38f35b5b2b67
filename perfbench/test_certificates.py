"""Each certificate of the benchmark accepts a solver's answer and rejects a
wrong one.  Run with `PYTHONPATH=src python -m pytest perfbench`."""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import certificates as cert  # noqa: E402
import symprox as sp  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _noisy_data(n, n_samples, seed):
    y_star = sp.spd_inverse(sp.gen_sparse_precision(n, 0.02, seed))
    return sp.empirical_cov(sp.sample_gaussian(y_star, 0.2, n_samples, seed + 1))


def test_perturbed_glasso_estimate_fails_kkt():
    s = _noisy_data(30, 300, 3)
    rep = sp.glasso_solve(s, 0.05)
    ok, _ = cert.glasso_kkt(s.mat, 0.05, rep.c_final.mat, rep.c_sparse.mat)
    assert ok
    bad = rep.c_final.mat.copy()
    i, j = np.argwhere(np.triu(rep.c_sparse.mat != 0, k=1))[0]
    bad[i, j] += 1e-3
    bad[j, i] += 1e-3
    ok, detail = cert.glasso_kkt(s.mat, 0.05, bad, rep.c_sparse.mat)
    assert not ok, detail


def test_uphill_mm_trace_fails_descent():
    s = _noisy_data(20, 200, 5)
    prob = sp.NoisyGlassoProblem(s=s, sigma2=0.04, mu0=0.005, mu1=0.05)
    rep = sp.mm_solve(prob)
    args = (s.mat, 0.04, 0.005, 0.05)
    objs = list(rep.outer_objectives)
    assert len(objs) >= 3
    assert cert.mm_descent(*args, objs, rep.c_final.mat)[0]
    assert cert.mm_stationarity(*args, rep.c_final.mat, rep.c_sparse.mat)[0]
    uphill = objs[:1] + [objs[1] + 1e-3 * abs(objs[1])] + objs[2:]
    uphill[1], uphill[2] = uphill[2], uphill[1]  # descend, then climb back
    ok, detail = cert.mm_descent(*args, uphill, rep.c_final.mat)
    assert not ok and "rose" in detail, detail
    # a trace that ends somewhere else than the estimate fails too
    ok, _ = cert.mm_descent(*args, objs[:-1], rep.c_final.mat)
    assert not ok


@pytest.fixture(scope="module")
def cov_runs(tmp_path_factory):
    """solve-cov at its defaults on dataset seeds 0 and 4."""
    from symprox import cli

    base = tmp_path_factory.mktemp("cov")
    out = {}
    for ds in (0, 4):
        data, run = str(base / f"data{ds}"), str(base / f"run{ds}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "--scenario", "cov", "--seed", str(ds), "--out", data]) == 0
            assert cli.main(["solve-cov", "--data", data, "--out", run]) == 0
        wl = workloads.CovN100()
        wl.work = str(base)
        out[ds] = wl.certify(ds, 0)
    return out


def test_cov_duality_gap_accepts_converged_seed(cov_runs):
    ok, detail = cov_runs[0]
    assert ok, detail


def test_cov_seed4_early_stop_fails_duality_gap(cov_runs):
    ok, detail = cov_runs[4]
    assert not ok, detail


def test_catalog_non_minimizer_fails_each_row():
    wl = workloads.ProxCatalogN30()
    wl.setup(sp, None, 11, lambda fn, *a, **k: fn(*a, **k))
    cbar, t, anchor = wl.inputs[0]
    outs = wl._pass(wl.calls[0])
    assert len(outs) == len(wl.rows) == 46
    for row, x in zip(wl.rows, outs):
        center = cbar + row["gamma"] * t if row["kind"] == "kernel" else anchor
        ok, detail = cert.prox_row_check(row, x, center)
        assert ok, (row["span"], detail)
        # same eigenbasis, every eigenvalue moved by 1e-2: not a minimizer
        ok, detail = cert.prox_row_check(row, x + 1e-2 * np.eye(x.shape[0]), center)
        assert not ok, (row["span"], detail)


def test_self_times_add_up_and_missing_targets_are_reported():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.span("inner", leaf)
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    self_s, incl_s, calls, edges = tracer.summary()
    assert calls["inner"] == 3 and edges[("outer", "inner")] == 3
    assert sum(self_s.values()) == pytest.approx(incl_s["outer"], rel=1e-9)

    import tracing

    saved = tracing.SPANS
    tracing.SPANS = saved + (("symprox.splitting", "no_such_name", "ghost"),)
    try:
        restore = tracer.install()
        restore()
    finally:
        tracing.SPANS = saved
    assert tracer.missing == {"ghost"}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, unit, _, _ in run.PER_LAYER
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
