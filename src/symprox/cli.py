"""Command-line front end: proxes, solvers, data generation, benchmark sweeps.

Configuration precedence is flags > config file (plain key=value lines,
'#' comments) > built-in defaults; the effective configuration is echoed
into the output directory.  Exit codes: 0 success, 2 configuration
error, 3 numeric/domain error, 4 iteration budget exhausted (outputs are
still written).
"""

import argparse
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from .errors import ConfigurationError, NumericError, _check_count, _check_real
from .experiments import (
    BlockSpec,
    clipped_raw_estimator,
    empirical_cov,
    gen_block_lowrank_cov,
    gen_sparse_precision,
    metrics,
    read_dataset,
    sample_gaussian,
    write_dataset,
)
from .mm_glasso import (
    MMConfig,
    NoisyGlassoProblem,
    dr_noisy_baseline,
    glasso_solve,
    mm_solve,
)
from .scalarprox import Divergence, Penalty, ScalarKernel, parse_kernel
from .spectralprox import SpectralProxRequest, prox_spectral
from .splitting import DRConfig, ObjectiveSpec, dr_solve, objective_eval, write_trace_csv
from .symlin import (
    SymMatrix,
    atomic_write_text,
    format_float,
    fro_norm,
    read_kv,
    read_matrix_csv,
    spd_inverse,
    write_csv,
    write_kv,
    write_matrix_csv,
)

# The solver keys' reference defaults are the solvers' own: DRConfig's for
# solve-cov, MMConfig's for the MM commands.  The one exception is gap_tol,
# a solve-cov key only: off in the library, 1e-6 there.
_MM = MMConfig()
_MM_SOLVER = {
    **{k: v for k, v in asdict(_MM.inner).items() if k != "gap_tol"},
    "outer_eps": _MM.outer_eps, "outer_max": _MM.outer_max,
}

# Every key of a command is also its flag (max_iter <-> --max-iter).
_DEFAULTS = {
    "prox": {
        "kernel": None, "matrix": None, "t": None, "gamma": 1.0, "psd": False,
        "out": ".",
    },
    "gen": {
        "scenario": "cov", "n": 100, "blocks": "14,36,18,10,22", "p": 1e-3,
        "sigma": "0.1", "nsamples": None, "seed": 0, "out": ".",
    },
    "solve-cov": {
        "data": None, "n": 100, "blocks": "14,36,18,10,22", "sigma": "0.1",
        "nsamples": None, "mu0": 0.2, "mu1": 0.1, **asdict(DRConfig()), "gap_tol": 1e-6, "seed": 0,
        "support_tol": 1e-8, "out": ".",
    },
    "solve-glasso": {
        "data": None, "n": 100, "p": 1e-3, "sigma": "0.1", "nsamples": 1000,
        "mu0": 0.005, "mu1": 0.05, **_MM_SOLVER, "seed": 0, "support_tol": 1e-8,
        "out": ".",
    },
    "bench": {
        "n": 100, "p": 1e-3, "nsamples": 1000,
        "sigma": "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4", "reps": 20,
        "method": "mm,glasso,dr-noisy", "mu0": 0.005, "mu1": 0.05, **_MM_SOLVER,
        "seed": 0, "support_tol": 1e-8, "wall_times": False, "out": ".",
    },
}

# The keys that only describe how 'gen' draws a dataset; 'data' supplies one instead.
_GENERATING = ("n", "blocks", "p", "sigma", "nsamples", "seed")

# A key's kind is the type of its non-None defaults; keys without one are strings.
_KIND = {k: type(v) for cmd in _DEFAULTS.values() for k, v in cmd.items() if v is not None}

_HELP = {
    "config": "key=value config file",
    "out": "output directory",
    "seed": "base RNG seed",
    "matrix": "input matrix CSV",
    "kernel": "kernel spec, e.g. 'divergence=burg penalty=nuclear mu=0.2'",
    "t": "linear-term matrix CSV (default zero)",
    "psd": "constrain the prox to the PSD cone",
    "scenario": "cov or glasso",
    "blocks": "comma-separated block sizes (cov scenario)",
    "p": "precision density (glasso scenario)",
    "sigma": "noise standard deviation (bench: comma-separated noise levels)",
    "data": "dataset directory from 'gen'",
    "mu0": "spectral penalty weight",
    "mu1": "elementwise l1 weight",
    "gamma": "prox scale gamma",
    "alpha": "relaxation in (0, 2)",
    "eps": "relative-objective tolerance",
    "max_iter": "iteration cap (Douglas-Rachford map evaluations)",
    "anderson": "Anderson acceleration memory (0: plain Douglas-Rachford)",
    "gap_tol": "relative duality-gap tolerance, checked beside eps (0: eps alone)",
    "reps": "replications per sigma",
    "method": "comma-separated subset of mm,glasso,dr-noisy",
    "wall_times": "record wall-clock seconds (breaks byte-determinism of results.csv)",
    "n": "matrix dimension (cov: the sum of 'blocks')",
    "nsamples": "number of samples (gen and solve-cov default: 1000 for glasso, n for cov)",
    "outer_eps": "MM relative-objective tolerance",
    "outer_max": "MM outer-step cap",
    "support_tol": "magnitude above which an estimate entry counts as nonzero",
}


def _coerce(key, value):
    """Parse a flag or config-file value as its key's kind."""
    kind = _KIND.get(key, str)
    if kind is bool:
        v = str(value).lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"key '{key}' expects a boolean, got '{value}'")
    try:
        return kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigurationError(f"key '{key}' expects {noun}, got '{value}'") from None


def _effective(cmd, args):
    """Merge CLI flags, config file, and defaults for one subcommand."""
    if args.config and not os.path.exists(args.config):
        raise ConfigurationError(f"config file not found: {args.config}")
    cfgfile = read_kv(args.config) if args.config else {}
    defaults = _DEFAULTS[cmd]
    for key in cfgfile:
        if key not in defaults:
            raise ConfigurationError(f"unknown config key '{key}' for command '{cmd}'")
    eff = {}
    for key, dflt in defaults.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            eff[key] = _coerce(key, cli_val)
        elif key in cfgfile:
            eff[key] = _coerce(key, cfgfile[key])
        else:
            eff[key] = dflt
    for key in ("mu0", "mu1", "support_tol"):
        if key in eff:
            _check_real(key, eff[key], strict=False)
    if eff.get("data"):
        for key in _GENERATING:
            if key in defaults and (getattr(args, key) is not None or key in cfgfile):
                raise ConfigurationError(f"key '{key}' generates a dataset and cannot be combined with 'data'")
    return eff


def _echo_config(eff, outdir):
    os.makedirs(outdir, exist_ok=True)
    write_kv(os.path.join(outdir, "effective-config.txt"), eff)


def _coerce_list(key, kind, text):
    """Parse a comma-separated list key as a nonempty list of its kind, skipping blank tokens."""
    try:
        vals = [kind(tok.strip()) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        vals = []
    if not vals:
        noun = {float: "numbers", int: "integers", str: "names"}[kind]
        raise ConfigurationError(f"key '{key}' expects comma-separated {noun}, got '{text}'")
    return vals


def _sigma_list(text):
    vals = _coerce_list("sigma", float, text)
    for v in vals:
        _check_real("sigma", v, strict=False)
        _check_real("sigma*sigma", v * v, strict=False)  # the noise variance
    return vals


def _sigma_one(eff):
    """The single noise level of a dataset-generating command."""
    vals = _sigma_list(eff["sigma"])
    if len(vals) != 1:
        raise ConfigurationError(f"key 'sigma' takes one value here, got '{eff['sigma']}'")
    return vals[0]


# ---------------------------------------------------------------------------
# dataset helpers shared by gen / solve / bench


def _make_cov_dataset(eff):
    blocks = BlockSpec(_coerce_list("blocks", int, eff["blocks"]))
    if eff["n"] != blocks.n:
        raise ConfigurationError(
            f"key 'n' ({eff['n']}) disagrees with the sum of 'blocks' ({blocks.n})"
        )
    sigma = _sigma_one(eff)
    y_star = gen_block_lowrank_cov(blocks, eff["seed"])
    nsamples = blocks.n if eff["nsamples"] is None else eff["nsamples"]
    ds = sample_gaussian(y_star, sigma, nsamples, eff["seed"] + 1)
    extra = {"generator": "block_lowrank", "blocks": eff["blocks"]}
    return ds, None, extra


def _make_glasso_dataset(eff):
    sigma = _sigma_one(eff)
    c_star = gen_sparse_precision(eff["n"], eff["p"], eff["seed"])
    y_star = spd_inverse(c_star)
    nsamples = 1000 if eff["nsamples"] is None else eff["nsamples"]
    ds = sample_gaussian(y_star, sigma, nsamples, eff["seed"] + 1)
    extra = {"generator": "sparse_precision", "p": eff["p"]}
    return ds, c_star, extra


def _load_or_make(eff, maker):
    if not eff.get("data"):
        return maker(eff)
    ds, meta = read_dataset(eff["data"])
    c_star_path = os.path.join(eff["data"], "c_star.csv")
    return ds, read_matrix_csv(c_star_path) if os.path.exists(c_star_path) else None, meta


def _dr_config(eff):
    return DRConfig(**{f.name: eff[f.name] for f in fields(DRConfig) if f.name in eff})


def _mm_config(eff):
    return MMConfig(inner=_dr_config(eff), outer_eps=eff["outer_eps"], outer_max=eff["outer_max"])


def _write_run(eff, rep, inner, line):
    """Write a solve's run directory and print its metrics line; exit 4 on max_iter."""
    outdir = eff["out"]
    _echo_config(eff, outdir)
    write_matrix_csv(rep.c_final, os.path.join(outdir, "estimate.csv"))
    write_matrix_csv(rep.c_sparse, os.path.join(outdir, "estimate_sparse.csv"))
    write_trace_csv(inner, os.path.join(outdir, "trace.csv"))
    print(line)
    atomic_write_text(os.path.join(outdir, "metrics.txt"), line + "\n")
    return 4 if rep.stop_reason == "max_iter" else 0


def _precision_rmse(c_final, y_star):
    """Relative squared error of the covariance implied by a precision estimate."""
    cov_est = spd_inverse(c_final)
    return fro_norm(SymMatrix(cov_est.mat - y_star.mat, strict=False)) ** 2 / fro_norm(y_star) ** 2


# ---------------------------------------------------------------------------
# subcommands


def _cmd_prox(eff):
    if not eff["matrix"]:
        raise ConfigurationError("key 'matrix' is required (path to a matrix CSV)")
    if not eff["kernel"]:
        raise ConfigurationError("key 'kernel' is required (e.g. 'divergence=burg penalty=nuclear mu=0.2')")
    kernel = replace(parse_kernel(eff["kernel"]), psd=eff["psd"])
    c_bar = read_matrix_csv(eff["matrix"])
    if c_bar.asym_residual > 0:
        print(f"asymmetry residual of input: {format_float(c_bar.asym_residual)}")
    if eff["t"]:
        t = read_matrix_csv(eff["t"])
    else:
        t = SymMatrix(np.zeros((c_bar.n, c_bar.n)), strict=False)
    result = prox_spectral(SpectralProxRequest(kernel=kernel, gamma=eff["gamma"], t=t, c_bar=c_bar))
    outdir = eff["out"]
    _echo_config(eff, outdir)
    write_matrix_csv(result, os.path.join(outdir, "result.csv"))
    obj = objective_eval(ObjectiveSpec(kernel, t), result) + fro_norm(
        SymMatrix(result.mat - c_bar.mat, strict=False)
    ) ** 2 / (2.0 * eff["gamma"])
    print(f"objective={format_float(obj)}")
    return 0


def _cmd_gen(eff):
    if eff["scenario"] not in ("cov", "glasso"):
        raise ConfigurationError(f"key 'scenario' must be 'cov' or 'glasso', got '{eff['scenario']}'")
    maker = _make_cov_dataset if eff["scenario"] == "cov" else _make_glasso_dataset
    ds, c_star, extra = maker(eff)
    outdir = eff["out"]
    _echo_config(eff, outdir)
    write_dataset(ds, outdir, extra=extra)
    if c_star is not None:
        write_matrix_csv(c_star, os.path.join(outdir, "c_star.csv"))
    print(f"wrote dataset (n={ds.y_star.n}, N={ds.samples.shape[0]}) to {outdir}")
    return 0


def _cmd_solve_cov(eff):
    ds, _, _ = _load_or_make(eff, _make_cov_dataset)
    sigma = ds.sigma
    n = ds.y_star.n
    s = empirical_cov(ds)
    t = SymMatrix(s.mat - sigma * sigma * np.eye(n), strict=False)
    g0 = Penalty("nuclear", mu=eff["mu0"]) if eff["mu0"] > 0 else Penalty("none")
    spec = ObjectiveSpec(ScalarKernel(Divergence.half_square(), g0, psd=True), t, eff["mu1"])
    c0 = SymMatrix(s.mat + np.eye(n), strict=False)
    rep = dr_solve(spec, _dr_config(eff), c0)
    m = metrics(rep.c_sparse, ds.y_star, support_tol=eff["support_tol"])
    raw = metrics(clipped_raw_estimator(s, sigma), ds.y_star, support_tol=eff["support_tol"])
    line = (
        f"tpr={format_float(m.tpr)} fpr={format_float(m.fpr)} rmse={format_float(m.rmse)} "
        f"raw_rmse={format_float(raw.rmse)} iterations={rep.iterations} stop={rep.stop_reason} "
        f"gap={format_float(rep.gap)}"
    )
    return _write_run(eff, rep, rep, line)


def _cmd_solve_glasso(eff):
    ds, c_star, _ = _load_or_make(eff, _make_glasso_dataset)
    sigma = ds.sigma
    s = empirical_cov(ds)
    prob = NoisyGlassoProblem(s=s, sigma2=sigma * sigma, mu0=eff["mu0"], mu1=eff["mu1"])
    rep = mm_solve(prob, _mm_config(eff))
    parts = [
        f"outer_iterations={rep.outer_iterations}",
        f"inner_iterations={sum(rep.inner_iterations)}",
        f"stop={rep.stop_reason}",
        f"objective={format_float(rep.outer_objectives[-1])}",
    ]
    if c_star is not None:
        m = metrics(rep.c_sparse, c_star, support_tol=eff["support_tol"])
        rmse = _precision_rmse(rep.c_final, spd_inverse(c_star))
        parts = [
            f"tpr={format_float(m.tpr)}",
            f"fpr={format_float(m.fpr)}",
            f"rmse={format_float(rmse)}",
        ] + parts
    rc = _write_run(eff, rep, rep.last_inner, " ".join(parts))
    write_csv(os.path.join(eff["out"], "outer_trace.csv"), enumerate(rep.outer_objectives),
              header=("outer_iteration", "objective"))
    return rc


_METHODS = ("mm", "glasso", "dr-noisy")


def _bench_one(method, s, sigma, c_star, y_star, eff, cfg):
    if method == "mm":
        prob = NoisyGlassoProblem(s=s, sigma2=sigma ** 2, mu0=eff["mu0"], mu1=eff["mu1"])
        rep = mm_solve(prob, cfg)
    elif method == "glasso":
        rep = glasso_solve(s, eff["mu1"], cfg=cfg.inner)
    else:
        rep = dr_noisy_baseline(s, eff["mu0"], eff["mu1"], cfg=cfg.inner)
    iters = sum(rep.inner_iterations) if method == "mm" else rep.iterations
    m = metrics(rep.c_sparse, c_star, support_tol=eff["support_tol"])
    return _precision_rmse(rep.c_final, y_star), m.tpr, m.fpr, iters


def _cmd_bench(eff):
    sigmas = _sigma_list(eff["sigma"])
    methods = _coerce_list("method", str, eff["method"])
    for tok in methods:
        if tok not in _METHODS:
            raise ConfigurationError(f"key 'method' lists unknown method '{tok}' (choose from {_METHODS})")
    methods = [m for m in _METHODS if m in methods]  # canonical row order, each method once
    _check_count("reps", eff["reps"], 1)
    cfg = _mm_config(eff)  # every method: the MM outer keys are checked even when mm is not run
    c_star = gen_sparse_precision(eff["n"], eff["p"], eff["seed"])
    y_star = spd_inverse(c_star)

    rows = []
    for method in methods:
        for sigma in sigmas:
            for rep_i in range(eff["reps"]):
                sample_seed = eff["seed"] + 7919 * (rep_i + 1)
                ds = sample_gaussian(y_star, sigma, eff["nsamples"], sample_seed)
                s = empirical_cov(ds)
                t0 = time.perf_counter()
                rmse, tpr, fpr, iters = _bench_one(method, s, sigma, c_star, y_star, eff, cfg)
                elapsed = time.perf_counter() - t0 if eff["wall_times"] else 0.0
                rows.append((method, sigma, sample_seed, rmse, tpr, fpr, iters, elapsed))

    outdir = eff["out"]
    _echo_config(eff, outdir)
    write_csv(os.path.join(outdir, "results.csv"), rows,
              header=("method", "sigma", "seed", "rmse", "tpr", "fpr", "iterations", "seconds"))
    agg = []
    for method in methods:
        for sigma in sigmas:
            cell = [r[3:7] for r in rows if r[0] == method and r[1] == sigma]
            agg.append((method, sigma, *np.mean(cell, axis=0)))
    write_csv(os.path.join(outdir, "aggregate.csv"), agg,
              header=("method", "sigma", "mean_rmse", "mean_tpr", "mean_fpr", "mean_iterations"))
    print(f"wrote {len(rows)} rows to {os.path.join(outdir, 'results.csv')}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "prox": (_cmd_prox, "evaluate a spectral proximity operator"),
    "gen": (_cmd_gen, "generate a synthetic dataset"),
    "solve-cov": (_cmd_solve_cov, "sparse covariance estimation (quadratic model)"),
    "solve-glasso": (_cmd_solve_glasso, "noisy graphical lasso (MM solver)"),
    "bench": (_cmd_bench, "sigma sweep over methods, CSV reports"),
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="symprox", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, (_, text) in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=text)
        sp.add_argument("--config", help=_HELP["config"])
        for key in _DEFAULTS[cmd]:
            # no type=: flag values go through _coerce, as config-file values do
            kw = {"action": "store_const", "const": True} if _KIND.get(key) is bool else {}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key), **kw)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return _COMMANDS[args.command][0](_effective(args.command, args))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
