import importlib.util
import math
import os
import re

import numpy as np
import pytest

from symprox import read_matrix_csv, write_matrix_csv
from symprox.cli import _DEFAULTS, _HELP, _build_parser, _effective, main


def run(argv):
    return main(argv)


def test_prox_identity_half_square(tmp_path, capsys):
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(4), m)
    out = tmp_path / "out"
    rc = run([
        "prox", "--matrix", str(m),
        "--kernel", "divergence=half_square penalty=none",
        "--gamma", "1.0", "--out", str(out),
    ])
    assert rc == 0
    result = read_matrix_csv(out / "result.csv")
    assert np.allclose(result.mat, np.eye(4) / 2.0, atol=1e-15)
    captured = capsys.readouterr()
    assert "objective=" in captured.out
    assert (out / "effective-config.txt").exists()


def test_prox_unsupported_pairing_exit2(tmp_path, capsys):
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(3), m)
    rc = run([
        "prox", "--matrix", str(m),
        "--kernel", "divergence=shannon penalty=cauchy mu=0.5 eps=0.1",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "unsupported pairing" in capsys.readouterr().err


def test_prox_missing_matrix_exit2(tmp_path, capsys):
    rc = run(["prox", "--kernel", "penalty=none", "--out", str(tmp_path)])
    assert rc == 2
    assert "matrix" in capsys.readouterr().err


def test_prox_infinite_gamma_exit2(tmp_path, capsys):
    # gamma follows the solver's rule, 0 < gamma < inf, checked before anything is written
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), m)
    rc = run(["prox", "--matrix", str(m), "--kernel", "penalty=none", "--gamma", "inf",
              "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel, key", [
    ("penalty=nuclear mu=inf", "mu"), ("penalty=fro mu=inf", "mu"), ("penalty=cauchy mu=1 eps=inf", "eps"),
    ("penalty=schatten mu=1 p=inf", "p"), ("penalty=invschatten mu=1 p=inf", "p"),
    ("divergence=noisyburg sigma2=nan", "sigma2"), ("divergence=noisyburg sigma2=inf", "sigma2"),
])
def test_prox_non_finite_kernel_parameter_exit2(tmp_path, capsys, kernel, key):
    # a kernel parameter follows the one real-parameter rule: not a zero matrix
    # with objective=nan, a LinAlgError traceback or a root-solver exit 3
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), m)
    rc = run(["prox", "--matrix", str(m), "--kernel", kernel, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be finite and {key} " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel", ["penalty=cauchy mu=1e308 eps=1", "divergence=burg penalty=cauchy mu=1e308 eps=1"])
def test_prox_cauchy_coefficient_overflow_exit3(tmp_path, capsys, kernel):
    # mu = 1e308 is finite, but 2*gamma*mu in the Cauchy candidate polynomial
    # is not: a numeric error naming the row, not a LinAlgError traceback
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), m)
    rc = run(["prox", "--matrix", str(m), "--kernel", kernel, "--gamma", "2", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "-cauchy prox" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel, gamma, objective", [
    # Burg's closed form formed s + |b|, which overflowed to a prox of 0,
    # outside Burg's domain (objective=inf); the root is 1e-308, so the
    # objective is 2*(-log 1e-308) + 1e308*tr(d) + ||d - I||^2/2
    ("divergence=burg penalty=nuclear mu=1e308", "1", 2.0 * 308.0 * math.log(10.0) + 3.0),
    # lam - gamma*mu itself overflows: a numeric error naming the row
    ("divergence=burg penalty=nuclear mu=1e308", "2", None),
    # the prox of I is 0, so the objective is ||I||^2 / (2 gamma); the rescaled
    # projection (lam/(mu*gamma) on the unit l1 ball) gave 5.55e291 and NaN
    ("penalty=spectral mu=1e308", "1", 1.0),
    ("penalty=spectral mu=1e308", "2", 0.5),
    # 1 + 2*gamma*mu overflowed: a ValueError traceback for Shannon, a prox of 0
    # (objective=inf) for Burg.  Burg's prox is 1/sqrt(2 mu), so the objective is
    # log(2 mu) + 1 + 1/gamma; Shannon's is about 3.5e-306, so it is 1/gamma
    ("divergence=shannon penalty=frosq mu=1e308", "1", 1.0),
    ("divergence=shannon penalty=frosq mu=1e308", "2", 0.5),
    ("divergence=burg penalty=frosq mu=1e308", "1", math.log(2.0) + 308.0 * math.log(10.0) + 2.0),
    ("divergence=burg penalty=schatten p=2 mu=1e308", "2", math.log(2.0) + 308.0 * math.log(10.0) + 1.5),
])
def test_prox_at_extreme_weight(tmp_path, capsys, kernel, gamma, objective):
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), m)
    rc = run(["prox", "--matrix", str(m), "--kernel", kernel, "--gamma", gamma, "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    if objective is None:
        assert rc == 3
        assert err.startswith("numeric error: burg-nuclear prox: lam - gamma*mu overflows")
        assert not (tmp_path / "o").exists()
        return
    assert rc == 0
    assert float(re.search(r"objective=(\S+)", out).group(1)) == pytest.approx(objective, rel=1e-12)


@pytest.mark.parametrize("mu, objective", [("1e-20", 2.5), ("1e-15", 2.5000000000000018)])
def test_prox_spectral_norm_below_rounding(tmp_path, capsys, mu, objective):
    # at mu*gamma below the rounding unit of the largest eigenvalue 3 the
    # l1-ball projection kept no index and raised IndexError (exit 1); the
    # prox is diag(3, 1)/2 up to rounding, at objective 2.5
    m = tmp_path / "m.csv"
    write_matrix_csv(np.diag([3.0, 1.0]), m)
    rc = run(["prox", "--matrix", str(m), "--kernel", f"penalty=spectral mu={mu}", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(re.search(r"objective=(\S+)", out).group(1)) == objective


def test_unwritable_out_exit2(tmp_path, capsys):
    # an output directory that cannot be made (here: under a regular file)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = run(["gen", "--n", "8", "--blocks", "3,5", "--out", str(blocker / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(blocker / "o") in err


def test_prox_psd_is_the_constrained_prox(tmp_path, capsys):
    # fro_norm couples the eigenvalues: clipping the unconstrained prox
    # diag(1.2, -1.6) would give diag(1.2, 0) at objective 11.54
    m = tmp_path / "m.csv"
    write_matrix_csv(np.diag([3.0, -4.0]), m)
    out = tmp_path / "out"
    rc = run(["prox", "--matrix", str(m), "--kernel", "penalty=fro mu=1", "--psd",
              "--out", str(out)])
    assert rc == 0
    assert np.allclose(read_matrix_csv(out / "result.csv").mat, np.diag([1.0, 0.0]), atol=1e-15)
    obj = float(re.search(r"objective=(\S+)", capsys.readouterr().out).group(1))
    assert obj == pytest.approx(11.5, rel=1e-15)


def test_prox_output_roundtrips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    m = tmp_path / "m.csv"
    write_matrix_csv(a, m)
    out = tmp_path / "out"
    rc = run([
        "prox", "--matrix", str(m), "--kernel", "penalty=none", "--gamma", "0.5",
        "--out", str(out),
    ])
    assert rc == 0
    result = read_matrix_csv(out / "result.csv")
    # diagonalize/recompose keeps the value; CSV round trip is exact
    assert np.max(np.abs(result.mat - a / 1.5)) <= 1e-12
    rewritten = tmp_path / "again.csv"
    write_matrix_csv(result, rewritten)
    assert np.array_equal(read_matrix_csv(rewritten).mat, result.mat)


def test_gen_cov_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    rc = run([
        "gen", "--scenario", "cov", "--n", "8", "--blocks", "3,5",
        "--sigma", "0.1", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    for name in ("y_star.csv", "samples.csv", "meta.txt", "effective-config.txt"):
        assert (out / name).exists()


def test_gen_glasso_writes_precision(tmp_path):
    out = tmp_path / "ds"
    rc = run([
        "gen", "--scenario", "glasso", "--n", "12", "--p", "0.05",
        "--sigma", "0.2", "--nsamples", "50", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "c_star.csv").exists()


@pytest.mark.parametrize("argv, key", [
    (["--blocks", "0,3"], "blocks"), (["--blocks", "3", "--nsamples", "0"], "nsamples"),
])
def test_gen_cov_count_below_its_bound_exit2(tmp_path, capsys, argv, key):
    # a block size or sample count below 1 is a configuration error naming the
    # key (a block size of 0 was a numeric error, exit 3), before anything is written
    rc = run(["gen", "--scenario", "cov", "--n", "3", *argv, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gen_invalid_params_exit2(tmp_path, capsys):
    rc = run(["gen", "--scenario", "cov", "--n", "9", "--blocks", "3,5", "--out", str(tmp_path)])
    assert rc == 2
    assert "blocks" in capsys.readouterr().err
    rc = run(["gen", "--scenario", "glasso", "--n", "10", "--p", "2.0", "--out", str(tmp_path)])
    assert rc == 2  # density outside (0, 1) is a configuration error


@pytest.mark.parametrize("argv", [
    ["gen", "--scenario", "cov"], ["gen", "--scenario", "glasso"], ["solve-cov"], ["solve-glasso"],
])
def test_sigma_list_is_bench_only_exit2(tmp_path, capsys, argv):
    rc = run([*argv, "--sigma", "0.1,0.3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "key 'sigma' takes one value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_anderson_exit2(tmp_path, capsys):
    rc = run(["solve-cov", "--n", "8", "--blocks", "3,5", "--anderson", "-1",
              "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "anderson" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, key, value", [
    ("solve-cov", "mu0", "-0.5"),
    ("solve-glasso", "mu0", "-1"), ("solve-glasso", "mu1", "-1"),
    ("solve-glasso", "outer_eps", "0"), ("solve-glasso", "outer_max", "0"),
    ("bench", "mu0", "-1"), ("bench", "mu1", "-1"),
    ("bench", "outer_eps", "0"), ("bench", "outer_max", "0"),
    # the MM outer keys are checked also when the method list leaves out mm
    ("bench --method glasso", "outer_max", "0"), ("bench --method dr-noisy", "outer_eps", "-1"),
    # non-finite values, and a negative support threshold
    ("gen", "sigma", "nan"), ("gen --scenario glasso", "sigma", "inf"),
    ("solve-cov", "sigma", "nan"), ("solve-cov", "gamma", "inf"),
    ("solve-cov", "mu0", "inf"), ("solve-cov", "mu1", "inf"), ("solve-cov", "support_tol", "nan"),
    ("solve-glasso", "sigma", "inf"), ("solve-glasso", "gamma", "inf"),
    ("solve-glasso", "mu0", "nan"), ("solve-glasso", "mu1", "inf"), ("solve-glasso", "support_tol", "-1"),
    ("bench", "sigma", "0.1,nan"), ("bench", "gamma", "inf"),
    ("bench", "mu0", "inf"), ("bench", "mu1", "nan"), ("bench", "support_tol", "nan"),
    # infinite tolerances, which stopped after one or two evaluations and exited 0
    ("solve-cov", "eps", "inf"), ("solve-glasso", "outer_eps", "inf"),
    # a negative seed, and a noise level whose variance sigma*sigma overflows
    ("gen", "seed", "-1"), ("gen --scenario glasso", "seed", "-1"), ("solve-cov", "seed", "-1"),
    ("solve-glasso", "seed", "-1"), ("bench", "seed", "-1"),
    ("gen", "sigma", "1e200"), ("gen --scenario glasso", "sigma", "1e200"), ("solve-cov", "sigma", "1e200"),
    ("solve-glasso", "sigma", "1e200"), ("bench", "sigma", "0.1,1e200"),
    # counts below their bound and a density outside (0, 1), checked by the generators
    ("gen --scenario glasso", "n", "0"), ("solve-glasso", "n", "0"), ("bench", "n", "0"),
    ("gen", "nsamples", "0"), ("solve-cov", "nsamples", "0"), ("solve-glasso", "nsamples", "0"),
    ("bench", "nsamples", "0"), ("bench", "reps", "0"),
    ("gen --scenario glasso", "p", "2"), ("solve-glasso", "p", "2"), ("bench", "p", "2"),
    # list keys: a token that is not of the key's kind, no token at all, an unknown method
    ("gen", "sigma", "abc"), ("gen", "sigma", ","), ("gen", "blocks", "3,x"), ("gen", "blocks", "2.0,3"),
    ("gen", "blocks", ""), ("bench", "method", ""), ("bench", "method", "MM"),
    # the duality-gap tolerance
    ("solve-cov", "gap_tol", "nan"), ("solve-cov", "gap_tol", "-1"), ("solve-cov", "gap_tol", "inf"),
])
def test_bad_weight_or_outer_setting_exit2(tmp_path, capsys, cmd, key, value):
    # a negative or non-finite weight, tolerance, seed, noise level or support
    # threshold, a non-finite gamma or an MM outer setting below its range is
    # a configuration error naming the key, raised before anything is written:
    # not a traceback, an iteration-budget exit or a silently wrong metric
    small = {
        "gen": ["--n", "8", "--blocks", "3,5", "--p", "0.1"],  # either scenario
        "solve-cov": ["--n", "8", "--blocks", "3,5"],
        "solve-glasso": ["--n", "8", "--p", "0.1"],
        "bench": ["--n", "8", "--p", "0.1", "--reps", "1"],
    }[cmd.split()[0]]
    rc = run([*cmd.split(), *small, "--" + key.replace("_", "-"), value, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("sigma", "0.1,0.3"), ("seed", "3"), ("n", "8")])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_data_with_a_generating_key_exit2(tmp_path, capsys, key, value, where):
    ds = tmp_path / "ds"
    assert run(["gen", "--scenario", "cov", "--n", "8", "--blocks", "3,5", "--seed", "1",
                "--out", str(ds)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    given = ["--" + key, value] if where == "flag" else ["--config", str(cfg)]
    rc = run(["solve-cov", "--data", str(ds), *given, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"key '{key}' generates a dataset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_solve_cov_smoke(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run([
        "gen", "--scenario", "cov", "--n", "8", "--blocks", "3,5",
        "--sigma", "0.1", "--seed", "5", "--out", str(ds),
    ]) == 0
    out = tmp_path / "run"
    rc = run([
        "solve-cov", "--data", str(ds), "--mu0", "0.2", "--mu1", "0.1",
        "--eps", "1e-8", "--out", str(out),
    ])
    assert rc in (0, 4)
    text = capsys.readouterr().out
    assert "tpr=" in text and "rmse=" in text
    for name in ("estimate.csv", "estimate_sparse.csv", "trace.csv", "metrics.txt"):
        assert (out / name).exists()
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,objective,residual"
    fields = dict(tok.split("=") for tok in text.split() if "=" in tok)
    for key in ("tpr", "fpr", "rmse", "raw_rmse"):
        assert np.isfinite(float(fields[key]))


def test_solve_cov_budget_exhausted_exit4(tmp_path):
    ds = tmp_path / "ds"
    run(["gen", "--scenario", "cov", "--n", "8", "--blocks", "3,5", "--sigma", "0.1",
         "--seed", "6", "--out", str(ds)])
    out = tmp_path / "run"
    rc = run([
        "solve-cov", "--data", str(ds), "--max-iter", "3", "--eps", "1e-14",
        "--out", str(out),
    ])
    assert rc == 4
    assert (out / "estimate.csv").exists()  # outputs still written


_CERTIFICATES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "certificates.py")


def _certificates():
    # certificates.py imports numpy alone, so it loads without perfbench's runner
    spec = importlib.util.spec_from_file_location("perfbench_certificates", _CERTIFICATES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("max_iter, rc, stop", [("2000", 0, "gap"), ("20", 4, "max_iter")])
def test_solve_cov_gap_is_confirmed_by_an_independent_bound(tmp_path, capsys, max_iter, rc, stop):
    # the benchmark's certificate builds its own dual point (300 accelerated
    # ascent steps): it confirms a gap stop within 1e-6 and rejects a run
    # cut short, whose reported gap is above 1e-6
    ds = tmp_path / "ds"
    assert run(["gen", "--scenario", "cov", "--n", "30", "--blocks", "10,20", "--seed", "1",
                "--out", str(ds)]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(["solve-cov", "--data", str(ds), "--max-iter", max_iter, "--out", str(out)]) == rc
    line = capsys.readouterr().out
    assert (out / "metrics.txt").read_text() == line
    fields = dict(tok.split("=") for tok in line.split())
    assert fields["stop"] == stop
    samples = np.loadtxt(ds / "samples.csv", delimiter=",", ndmin=2)
    sigma = float(re.search(r"^sigma=(.*)$", (ds / "meta.txt").read_text(), re.M).group(1))
    estimates = [np.loadtxt(out / name, delimiter=",", ndmin=2) for name in ("estimate.csv", "estimate_sparse.csv")]
    ok, detail = _certificates().cov_duality_gap(samples, sigma, 0.2, 0.1, *estimates)
    assert ok == (stop == "gap"), detail
    assert (float(fields["gap"]) <= 1e-6) == (stop == "gap")


def test_solve_glasso_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run([
        "solve-glasso", "--n", "10", "--p", "0.05", "--sigma", "0.2",
        "--nsamples", "80", "--mu0", "0.01", "--mu1", "0.05", "--seed", "3",
        "--out", str(out),
    ])
    assert rc in (0, 4)
    text = capsys.readouterr().out
    assert "outer_iterations=" in text and "tpr=" in text
    assert (out / "outer_trace.csv").exists()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn=10\np=0.05\nsigma=0.2\nnsamples=40\nmu1=0.05\nmax_iter=300\n")
    out1 = tmp_path / "a"
    rc = run(["solve-glasso", "--config", str(cfg), "--out", str(out1)])
    assert rc in (0, 4)
    def _value(text, key):
        for line in text.splitlines():
            if line.startswith(key + "="):
                return line.split("=", 1)[1]
        raise AssertionError(f"{key} missing")

    eff = (out1 / "effective-config.txt").read_text()
    assert float(_value(eff, "mu1")) == 0.05
    # CLI flag overrides the config file
    out2 = tmp_path / "b"
    rc = run(["solve-glasso", "--config", str(cfg), "--mu1", "0.1", "--out", str(out2)])
    assert rc in (0, 4)
    eff2 = (out2 / "effective-config.txt").read_text()
    assert float(_value(eff2, "mu1")) == 0.1


def test_unknown_config_key_exit2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    rc = run(["solve-glasso", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "wibble" in capsys.readouterr().err


def test_bench_single_cell(tmp_path):
    out = tmp_path / "b"
    rc = run([
        "bench", "--n", "10", "--p", "0.05", "--nsamples", "60",
        "--sigma", "0.2", "--reps", "1", "--method", "glasso",
        "--max-iter", "400", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and len(agg) == 2
    assert rows[0] == "method,sigma,seed,rmse,tpr,fpr,iterations,seconds"


def test_bench_cardinality(tmp_path):
    out = tmp_path / "b"
    rc = run([
        "bench", "--n", "10", "--p", "0.05", "--nsamples", "60",
        "--sigma", "0.15,0.3", "--reps", "2", "--method", "glasso,dr-noisy",
        "--mu0", "0.02", "--max-iter", "400", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert len(agg) == 1 + 4


def test_bench_deterministic_bytes(tmp_path):
    args = [
        "bench", "--n", "10", "--p", "0.05", "--nsamples", "60",
        "--sigma", "0.2", "--reps", "2", "--method", "glasso",
        "--max-iter", "400", "--seed", "9",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_bench_reads_a_repeated_method_once(tmp_path):
    out = tmp_path / "b"
    rc = run(["bench", "--n", "10", "--p", "0.05", "--nsamples", "60", "--sigma", "0.2", "--reps", "1",
              "--method", "mm,,mm", "--max-iter", "400", "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("mm,")


@pytest.mark.parametrize("argv, message", [
    (["gen", "--sigma", "abc"], "key 'sigma' expects comma-separated numbers, got 'abc'"),
    (["gen", "--blocks", "3,x"], "key 'blocks' expects comma-separated integers, got '3,x'"),
    (["bench", "--method", " , "], "key 'method' expects comma-separated names, got ' , '"),
])
def test_list_key_expects_comma_separated_values_of_its_kind(tmp_path, capsys, argv, message):
    # sigma, blocks and method have one reader and one message, the list form of a scalar key's
    rc = run([*argv, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_unknown_method_exit2(tmp_path, capsys):
    rc = run(["bench", "--method", "turbo", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--nsamples", "0", "nsamples must be an integer >= 1, got 0", id="nsamples"),
    pytest.param("--p", "1.5", "p must lie in (0, 1), got 1.5", id="p"),
])
def test_bench_checks_data_keys_as_solve_glasso_does_exit2(tmp_path, capsys, flag, value, message):
    small = ["--n", "10", "--p", "0.05", "--sigma", "0.2", "--max-iter", "50"]
    for argv in (["bench", "--reps", "1", "--method", "glasso"], ["solve-glasso"]):
        rc = run([*argv, *small, flag, value, "--out", str(tmp_path / argv[0])])
        assert rc == 2, argv[0]
        assert message in capsys.readouterr().err, argv[0]


def test_numeric_error_exit3(tmp_path, capsys):
    # a dataset of all-zero samples makes S singular: the glasso PD
    # initialization cannot be formed, which is a numeric error (exit 3)
    ds = tmp_path / "ds"
    ds.mkdir()
    write_matrix_csv(np.zeros((4, 4)), ds / "y_star.csv")
    (ds / "samples.csv").write_text("\n".join(["0,0,0,0"] * 8) + "\n")
    (ds / "meta.txt").write_text("seed=0\nsigma=0\nn=4\nn_samples=8\n")
    rc = run(["solve-glasso", "--data", str(ds), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


# (file, edit) pairs that each break one file of a generated dataset
_MALFORMED = {
    "non_numeric_token": ("samples.csv", lambda t: re.sub(r"^[^,]+", "x", t)),
    "ragged_rows": ("samples.csv", lambda t: t.replace("\n", ",1\n", 1)),
    "narrower_than_y_star": ("samples.csv", lambda t: re.sub(r",[^,\n]+$", "", t, flags=re.M)),
    "sigma_not_a_number": ("meta.txt", lambda t: re.sub(r"^sigma=.*$", "sigma=x", t, flags=re.M)),
    "sigma_nan": ("meta.txt", lambda t: re.sub(r"^sigma=.*$", "sigma=nan", t, flags=re.M)),
    "sigma_negative": ("meta.txt", lambda t: re.sub(r"^sigma=.*$", "sigma=-0.1", t, flags=re.M)),
    "meta_line_without_equals": ("meta.txt", lambda t: t + "oops\n"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_dataset_file_exit3_names_the_file(tmp_path, capsys, case):
    ds = tmp_path / "ds"
    assert run(["gen", "--scenario", "cov", "--n", "6", "--blocks", "2,4", "--nsamples", "10",
                "--seed", "1", "--out", str(ds)]) == 0
    name, edit = _MALFORMED[case]
    (ds / name).write_text(edit((ds / name).read_text()))
    capsys.readouterr()
    rc = run(["solve-cov", "--data", str(ds), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert str(ds / name) in capsys.readouterr().err


def test_every_key_has_help():
    assert [k for keys in _DEFAULTS.values() for k in keys if k not in _HELP] == []


def test_reference_defaults():
    from symprox.cli import _DEFAULTS

    sc = _DEFAULTS["solve-cov"]
    assert sc["n"] == 100 and sc["blocks"] == "14,36,18,10,22"
    assert sc["mu0"] == 0.2 and sc["mu1"] == 0.1
    assert sc["sigma"] == "0.1" and sc["eps"] == 1e-10
    assert sc["alpha"] == 1.5 and sc["max_iter"] == 2000
    sg = _DEFAULTS["solve-glasso"]
    assert sg["n"] == 100 and sg["p"] == 1e-3 and sg["nsamples"] == 1000
    assert sg["eps"] == 1e-10 and sg["outer_eps"] == 1e-8
    assert sg["gamma"] == 1.0 and sg["alpha"] == 1.0
    assert sg["max_iter"] == 2000 and sg["outer_max"] == 20


def test_solve_cov_reference_scale(tmp_path):
    # default n=100 configuration runs end to end (iteration budget capped
    # to keep the test quick; exhausting it is the documented exit 4)
    out = tmp_path / "run"
    rc = run(["solve-cov", "--max-iter", "300", "--out", str(out)])
    assert rc in (0, 4)
    eff = (out / "effective-config.txt").read_text()
    assert "n=100" in eff and "blocks=14,36,18,10,22" in eff
    assert "mu0=0.2" in eff
    assert (out / "estimate.csv").exists()


# Reference kinds of the typed keys, written out apart from cli._KIND;
# every other key is a string.
_KINDS = {
    **dict.fromkeys(("gamma", "alpha", "eps", "gap_tol", "mu0", "mu1", "p", "outer_eps", "support_tol"), float),
    **dict.fromkeys(("n", "nsamples", "seed", "max_iter", "anderson", "outer_max", "reps"), int),
    **dict.fromkeys(("psd", "wall_times"), bool),
}
_SAMPLES = {float: ("0.25", 0.25), int: ("7", 7), bool: ("yes", True), str: ("x,y", "x,y")}


@pytest.mark.parametrize("cmd,key", [(c, k) for c, keys in _DEFAULTS.items() for k in keys])
def test_every_key_is_a_flag_and_a_config_line_of_its_kind(tmp_path, cmd, key):
    kind = _KINDS.get(key, str)
    default = _DEFAULTS[cmd][key]
    assert default is None or type(default) is kind
    text, value = _SAMPLES[kind]
    flag = ["--" + key.replace("_", "-")] + ([] if kind is bool else [text])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={text}\n")
    for argv in ([cmd] + flag, [cmd, "--config", str(cfg)]):
        eff = _effective(cmd, _build_parser().parse_args(argv))
        assert type(eff[key]) is kind and eff[key] == value, argv


def test_malformed_flag_value_is_a_configuration_error(tmp_path, capsys):
    rc = run(["solve-cov", "--gamma", "abc", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error: key 'gamma' expects a number, got 'abc'" in capsys.readouterr().err


def test_gen_unknown_scenario_exit2(tmp_path, capsys):
    rc = run(["gen", "--scenario", "bogus", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_prox_has_no_seed_flag(tmp_path):
    m = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), m)
    rc = run(["prox", "--seed", "1", "--matrix", str(m), "--kernel", "penalty=none",
              "--out", str(tmp_path / "o")])
    assert rc == 2
