import math

import numpy as np
import pytest

from symprox import (
    DRConfig,
    Divergence,
    InvalidInputError,
    ObjectiveSpec,
    Penalty,
    ScalarKernel,
    SymMatrix,
    dr_solve,
    format_summary,
    objective_eval,
    prox_l1_matrix,
    soft,
    write_trace_csv,
)
from symprox import ConfigurationError, MMConfig, NoisyGlassoProblem, splitting
from symprox.experiments import (
    BlockSpec,
    empirical_cov,
    gen_block_lowrank_cov,
    gen_sparse_precision,
    sample_gaussian,
)
from symprox.scalarprox import _PEN_PARAMS, kernel_prox, kernel_prox_vec
from symprox.spectralprox import SpectralProxRequest
from symprox.splitting import _objective_from_d
from symprox.symlin import _eigh_desc, _recompose_raw

from _oracles import phi_value, projected_subgradient_cov, psi_value, rand_sym

HS = Divergence.half_square()
BURG = Divergence.burg()


def _zeros(n):
    return SymMatrix(np.zeros((n, n)), strict=False)


def _cov_spec(n, sigma, seed, mu0=0.2, mu1=0.1, blocks=None):
    bs = BlockSpec(blocks or (n // 2, n - n // 2))
    y_star = gen_block_lowrank_cov(bs, seed)
    ds = sample_gaussian(y_star, sigma, n, seed + 1)
    s = empirical_cov(ds)
    tmat = s.mat - sigma * sigma * np.eye(n)
    g0 = Penalty.nuclear(mu0) if mu0 > 0 else Penalty.none()
    spec = ObjectiveSpec(ScalarKernel(HS, g0, psd=True), SymMatrix(tmat, strict=False), mu1)
    return spec, s, y_star


def test_prox_l1_examples():
    rng = np.random.default_rng(0)
    m = rand_sym(rng, 4)
    assert np.array_equal(prox_l1_matrix(0.0, m).mat, SymMatrix(m).mat)
    allhalf = SymMatrix(np.full((3, 3), 0.5), strict=False)
    assert np.all(prox_l1_matrix(1.0, allhalf).mat == 0.0)
    out = prox_l1_matrix(0.3, m).mat
    assert np.allclose(out, soft(0.3, SymMatrix(m).mat))
    assert np.array_equal(out, out.T)


def test_objective_eval_examples():
    spec = ObjectiveSpec(ScalarKernel(HS, Penalty.none()), _zeros(2))
    assert objective_eval(spec, np.eye(2)) == pytest.approx(1.0, abs=1e-14)
    spec_b = ObjectiveSpec(ScalarKernel(BURG, Penalty.none()), _zeros(3))
    assert objective_eval(spec_b, np.eye(3)) == pytest.approx(0.0, abs=1e-14)


def test_objective_eval_componentwise_oracle():
    # the Schatten and fro_squared value rows of kernel_eval_vec against the oracle
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = 4
        c = rand_sym(rng, n) + 2.5 * np.eye(n)
        tmat = rand_sym(rng, n, scale=0.4)
        mu1 = float(rng.uniform(0.0, 0.5))
        lam = np.linalg.eigvalsh(SymMatrix(c).mat)
        for pen in (Penalty.schatten(0.3, 3.0), Penalty.fro_squared(0.3)):
            spec = ObjectiveSpec(ScalarKernel(BURG, pen), SymMatrix(tmat, strict=False), mu1)
            expect = (
                float(np.sum(phi_value("burg", 0.0, lam)))
                + float(np.sum(psi_value(spec.kernel.penalty, lam)))
                - float(np.sum(tmat * SymMatrix(c).mat))
                + mu1 * float(np.abs(SymMatrix(c).mat).sum())
            )
            assert objective_eval(spec, c) == pytest.approx(expect, rel=1e-12)


def test_objective_eval_psd_indicator():
    spec = ObjectiveSpec(ScalarKernel(HS, Penalty.none(), psd=True), _zeros(2))
    assert objective_eval(spec, np.diag([1.0, -0.5])) == math.inf
    assert math.isfinite(objective_eval(spec, np.diag([1.0, 0.0])))


def test_dr_unregularized_quadratic():
    # min ||C||^2/2: the solution is zero and the first shadow is c0/(1+gamma)
    n = 4
    spec = ObjectiveSpec(ScalarKernel(HS, Penalty.none()), _zeros(n))
    c0 = SymMatrix(np.diag([4.0, 3.0, 2.0, 1.0]))
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-14, max_iter=500)
    rep = dr_solve(spec, cfg, c0)
    assert np.linalg.norm(rep.c_final.mat) <= 1e-6
    assert rep.objective_trace[0] == pytest.approx(
        0.5 * np.sum((c0.mat / 2.0) ** 2), rel=1e-12
    )


def test_dr_starts_outside_the_domain():
    # the first shadow iterate is a prox, so it lies in the domain of Burg's
    # -log det even from a start that does not: the run converges to the
    # solution it reaches from the identity; only the start's size is checked
    spec = ObjectiveSpec(ScalarKernel(BURG, Penalty.none()), _zeros(2), 0.1)
    out = dr_solve(spec, DRConfig(), np.diag([1.0, -1.0]))
    ref = dr_solve(spec, DRConfig(), np.eye(2))
    assert out.stop_reason == ref.stop_reason == "tolerance"
    assert math.isfinite(out.objective_trace[0])
    assert out.objective_trace[-1] == pytest.approx(ref.objective_trace[-1], rel=1e-9)
    with pytest.raises(InvalidInputError):
        dr_solve(spec, DRConfig(), np.eye(3))


def test_dr_deterministic_traces():
    spec, s, _ = _cov_spec(10, 0.1, seed=3)
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=300)
    c0 = SymMatrix(s.mat + np.eye(10), strict=False)
    r1 = dr_solve(spec, cfg, c0)
    r2 = dr_solve(spec, cfg, c0)
    assert r1.objective_trace == r2.objective_trace
    assert r1.fixed_point_residuals == r2.fixed_point_residuals
    assert np.array_equal(r1.c_final.mat, r2.c_final.mat)


def test_dr_trace_lengths_and_max_iter():
    spec, s, _ = _cov_spec(8, 0.1, seed=4)
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=0.0, max_iter=25)
    rep = dr_solve(spec, cfg, SymMatrix(s.mat + np.eye(8), strict=False))
    assert rep.stop_reason == "max_iter"
    assert rep.iterations == 25
    assert len(rep.objective_trace) == 25
    assert len(rep.fixed_point_residuals) == 25


def test_dr_output_properties_on_cov_instance():
    # residual decay speed is instance-dependent; this seed settles quickly
    spec, s, _ = _cov_spec(40, 0.1, seed=1, blocks=(6, 14, 8, 12))
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=2000)
    c0 = SymMatrix(s.mat + np.eye(40), strict=False)
    rep = dr_solve(spec, cfg, c0)
    assert rep.stop_reason == "tolerance"
    # symmetry and PSD within tolerance
    assert np.array_equal(rep.c_final.mat, rep.c_final.mat.T)
    assert np.linalg.eigvalsh(rep.c_final.mat)[0] >= -1e-10
    # fixed-point residual eventually small, within the iteration budget
    assert rep.iterations <= 2000
    assert rep.fixed_point_residuals[-1] <= 1e-6
    # final objective no worse than initialization and random feasible points
    f_final = rep.objective_trace[-1]
    assert f_final <= objective_eval(spec, c0) + 1e-12
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = rng.uniform(0.0, 2.0, size=40)
        q, _r = np.linalg.qr(rng.normal(size=(40, 40)))
        trial = (q * w) @ q.T
        assert f_final <= objective_eval(spec, trial) + 1e-8
    # optimality certificate: displacement of the final relaxed step
    assert rep.fixed_point_residuals[-1] / cfg.alpha <= 1e-4 * max(
        1.0, np.linalg.norm(rep.c_final.mat)
    )


def test_dr_matches_projected_subgradient_small():
    # light version of the acceptance check: n=5, 2e5 oracle iterations
    spec, s, _ = _cov_spec(5, 0.1, seed=7, blocks=(2, 3))
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-12, max_iter=5000)
    rep = dr_solve(spec, cfg, SymMatrix(s.mat + np.eye(5), strict=False))
    tmat = spec.t.mat
    ref = projected_subgradient_cov(tmat, 0.2, 0.1, 200000)
    f_dr = rep.objective_trace[-1] + 0.5 * float(np.sum(tmat * tmat))
    assert f_dr <= ref + 1e-9
    assert abs(f_dr - ref) <= 1e-3 * abs(ref)


def test_dr_sparse_shadow_has_exact_zeros():
    spec, s, y_star = _cov_spec(12, 0.1, seed=8)
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=2000)
    rep = dr_solve(spec, cfg, SymMatrix(s.mat + np.eye(12), strict=False))
    assert np.count_nonzero(rep.c_sparse.mat == 0.0) > 0
    # both shadows converge to the same solution
    assert np.linalg.norm(rep.c_sparse.mat - rep.c_final.mat) <= 1e-4


def test_dr_warm_start_state_resumes():
    spec, s, _ = _cov_spec(8, 0.1, seed=9)
    c0 = SymMatrix(s.mat + np.eye(8), strict=False)
    full = dr_solve(spec, DRConfig(1.0, 1.5, 1e-12, 400), c0)
    half1 = dr_solve(spec, DRConfig(1.0, 1.5, 0.0, 100), c0)
    half2 = dr_solve(spec, DRConfig(1.0, 1.5, 1e-12, 300), half1.c_state)
    assert half2.objective_trace[-1] == pytest.approx(full.objective_trace[-1], rel=1e-9)


def test_report_serialization(tmp_path):
    spec, s, _ = _cov_spec(6, 0.1, seed=10)
    rep = dr_solve(spec, DRConfig(1.0, 1.5, 1e-8, 200), SymMatrix(s.mat + np.eye(6), strict=False))
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,residual"
    assert len(lines) == rep.iterations + 1
    summary = format_summary(rep)
    assert "stop_reason: tolerance" in summary


def test_config_validation():
    with pytest.raises(Exception):
        DRConfig(gamma=0.0)
    with pytest.raises(Exception):
        DRConfig(alpha=2.0)
    with pytest.raises(Exception):
        DRConfig(max_iter=0)
    # counts are Python or numpy integers: a float or a bool is a configuration
    # error naming the key, not a TypeError inside the solve
    for bad in (50.0, True, 0):
        with pytest.raises(ConfigurationError, match="max_iter"):
            DRConfig(max_iter=bad)
    for bad in (3.0, False, 0):
        with pytest.raises(ConfigurationError, match="outer_max"):
            MMConfig(outer_max=bad)
    with pytest.raises(ConfigurationError, match="outer_eps"):
        MMConfig(outer_eps=0.0)
    cfg = MMConfig(inner=DRConfig(max_iter=np.int64(50), anderson=np.int32(2)), outer_max=np.int64(3))
    assert (cfg.inner.max_iter, cfg.inner.anderson, cfg.outer_max) == (50, 2, 3)
    with pytest.raises(ConfigurationError, match="unsupported pairing"):
        ObjectiveSpec(ScalarKernel(BURG, Penalty.rank(0.5)), _zeros(2))
    with pytest.raises(ConfigurationError, match="mu1"):
        ObjectiveSpec(ScalarKernel(HS, Penalty.none()), _zeros(2), math.nan)
    # one gamma rule for the solver and the three prox entry points
    k = ScalarKernel(BURG, Penalty.none())
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ConfigurationError, match="gamma"):
            DRConfig(gamma=bad)
        with pytest.raises(ConfigurationError, match="gamma"):
            kernel_prox(k, bad, 1.0)
        with pytest.raises(ConfigurationError, match="gamma"):
            kernel_prox_vec(k, bad, np.ones(2))
        with pytest.raises(ConfigurationError, match="gamma"):
            SpectralProxRequest(k, bad, _zeros(2), _zeros(2))


_BURG_NONE = ScalarKernel(BURG, Penalty.none())
# Every real parameter, where it is declared: (key, site, an accepted value
# at or just above the bound, a finite value outside the range).  Set bounds
# (eig_box, fro_ball, the l1-ball radius) may be infinite and are not here.
_REAL_PARAMS = [
    ("gamma", "DRConfig", lambda x: DRConfig(gamma=x), 1e-300, 0.0),
    ("gamma", "kernel_prox", lambda x: kernel_prox(_BURG_NONE, x, 1.0), 1e-300, -1.0),
    ("gamma", "kernel_prox_vec", lambda x: kernel_prox_vec(_BURG_NONE, x, np.ones(2)), 1e-300, 0.0),
    ("gamma", "SpectralProxRequest", lambda x: SpectralProxRequest(_BURG_NONE, x, _zeros(2), _zeros(2)),
     1e-300, -1.0),
    ("sigma2", "noisy_burg", Divergence.noisy_burg, 0.0, -1e-300),
    *[("mu", kind, lambda x, kind=kind: Penalty(kind, mu=x, p=1.0, eps=1.0), 1e-300, 0.0)
      for kind, params in _PEN_PARAMS.items() if "mu" in params],
    ("p", "schatten", lambda x: Penalty.schatten(1.0, x), 1.0, 1.0 - 1e-15),
    ("p", "inv_schatten", lambda x: Penalty.inv_schatten(1.0, x), 1e-300, 0.0),
    ("eps", "cauchy", lambda x: Penalty.cauchy(1.0, x), 1e-300, 0.0),
    ("mu1", "ObjectiveSpec", lambda x: ObjectiveSpec(_BURG_NONE, _zeros(2), x), 0.0, -1e-300),
    ("eps", "DRConfig", lambda x: DRConfig(eps=x), 0.0, -1e-300),
    ("tau", "prox_l1_matrix", lambda x: prox_l1_matrix(x, np.eye(2)), 0.0, -1e-300),
    ("outer_eps", "MMConfig", lambda x: MMConfig(outer_eps=x), 1e-300, 0.0),
    *[(key, "NoisyGlassoProblem", lambda x, key=key: NoisyGlassoProblem(s=_zeros(2), **{key: x}), 0.0, -1e-300)
      for key in ("sigma2", "mu0", "mu1")],
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "outside"])
@pytest.mark.parametrize(
    "key, make, least, outside",
    [pytest.param(key, make, least, out, id=f"{key}-{site}") for key, site, make, least, out in _REAL_PARAMS],
)
def test_real_parameter_is_finite_and_above_its_bound(key, make, least, outside, value):
    # one rule for every real parameter: a NaN, an infinity or a value outside
    # the range is a ConfigurationError in the rule's words, naming the key;
    # a value at or just above the bound passes
    make(least)
    x = outside if value == "outside" else float(value)
    with pytest.raises(ConfigurationError, match=rf"^{key} must be finite and {key} >=? "):
        make(x)


# Every count, where it is declared: (key, site, the least accepted value).
_COUNT_PARAMS = [
    ("max_iter", "DRConfig", lambda x: DRConfig(max_iter=x), 1),
    ("anderson", "DRConfig", lambda x: DRConfig(anderson=x), 0),
    ("outer_max", "MMConfig", lambda x: MMConfig(outer_max=x), 1),
    ("blocks", "BlockSpec", lambda x: BlockSpec((2, x)), 1),
    ("n", "gen_sparse_precision", lambda x: gen_sparse_precision(x, 0.5, 0), 1),
    ("nsamples", "sample_gaussian", lambda x: sample_gaussian(_zeros(2), 0.1, x, 0), 1),
    ("seed", "gen_block_lowrank_cov", lambda x: gen_block_lowrank_cov(BlockSpec((2,)), x), 0),
    ("seed", "gen_sparse_precision", lambda x: gen_sparse_precision(3, 0.5, x), 0),
    ("seed", "sample_gaussian", lambda x: sample_gaussian(_zeros(2), 0.1, 2, x), 0),
]


@pytest.mark.parametrize("value", ["bool", "float", "below"])
@pytest.mark.parametrize(
    "key, make, least",
    [pytest.param(key, make, least, id=f"{key}-{site}") for key, site, make, least in _COUNT_PARAMS],
)
def test_count_parameter_is_an_integer_at_least_its_bound(key, make, least, value):
    # one rule for every count: a bool, a float (even an integral one) or a
    # value below the bound is a ConfigurationError in the rule's words,
    # naming the key; the bound itself passes
    make(least)
    x = {"bool": True, "float": float(least), "below": least - 1}[value]
    with pytest.raises(ConfigurationError, match=rf"^{key} must be an integer >= {least}, got "):
        make(x)


def _plain_dr(spec, cfg, c0):
    # the plain Douglas-Rachford recurrence, written out apart from dr_solve
    kernel, g, c = spec.kernel, cfg.gamma, c0.mat.copy()
    objs, res, f_prev = [], [], None
    for _ in range(cfg.max_iter):
        u, lam = _eigh_desc(c + g * spec.t.mat)
        d = kernel_prox_vec(kernel, g, lam)
        chalf = _recompose_raw(u, d)
        f = _objective_from_d(spec, d, chalf)
        objs.append(f)
        sparse = soft(g * spec.mu1, 2.0 * chalf - c)
        c_next = c + cfg.alpha * (sparse - chalf)
        res.append(float(np.linalg.norm(c_next - c)))
        if f_prev is not None and abs(f - f_prev) <= cfg.eps * max(abs(f_prev), 1e-300):
            return chalf, sparse, c, objs, res, "tolerance"
        f_prev, c = f, c_next
    return chalf, sparse, c, objs, res, "max_iter"


@pytest.mark.parametrize("max_iter", [15, 2000])
def test_anderson_zero_is_the_plain_recurrence(max_iter):
    spec, s, _ = _cov_spec(8, 0.1, seed=4)
    c0 = SymMatrix(s.mat + np.eye(8), strict=False)
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=max_iter)
    rep = dr_solve(spec, cfg, c0)
    chalf, sparse, c, objs, res, stop = _plain_dr(spec, cfg, c0)
    assert rep.stop_reason == stop
    assert rep.objective_trace == objs and rep.fixed_point_residuals == res
    assert rep.iterations == len(objs) and rep.anderson_rejected == 0
    np.testing.assert_array_equal(rep.c_final.mat, SymMatrix(chalf, strict=False).mat)
    np.testing.assert_array_equal(rep.c_sparse.mat, SymMatrix(sparse, strict=False).mat)
    np.testing.assert_array_equal(rep.c_state.mat, SymMatrix(c, strict=False).mat)


@pytest.mark.parametrize("max_iter", [25, 2000])
def test_rejected_candidates_fall_back_to_plain_dr(monkeypatch, max_iter):
    # every Anderson candidate fails the safeguard (its evaluation reports an
    # infinite step), so the accepted iterates are plain DR's and the
    # rejected evaluations only add to the count
    spec, s, _ = _cov_spec(8, 0.1, seed=4)
    c0 = SymMatrix(s.mat + np.eye(8), strict=False)
    candidates = []
    make, step = splitting._Anderson.candidate, splitting._dr_step

    def candidate(self, p, r):
        candidates.append(make(self, p, r))
        return candidates[-1]

    def rejected_step(spec, cfg, c):
        out = step(spec, cfg, c)
        if any(c is cand for cand in candidates):
            return (*out[:5], np.full_like(out[5], np.inf))
        return out

    monkeypatch.setattr(splitting._Anderson, "candidate", candidate)
    monkeypatch.setattr(splitting, "_dr_step", rejected_step)
    cfg = DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=max_iter, anderson=3)
    rep = dr_solve(spec, cfg, c0)
    assert rep.anderson_rejected == len(candidates) > 0
    assert rep.iterations == len(rep.objective_trace) == len(rep.fixed_point_residuals) <= max_iter
    accepted = rep.iterations - rep.anderson_rejected
    plain = dr_solve(spec, DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=accepted), c0)
    assert rep.stop_reason == plain.stop_reason
    np.testing.assert_array_equal(rep.c_final.mat, plain.c_final.mat)
    np.testing.assert_array_equal(rep.c_sparse.mat, plain.c_sparse.mat)
    np.testing.assert_array_equal(rep.c_state.mat, plain.c_state.mat)
    assert plain.stop_reason == ("tolerance" if max_iter == 2000 else "max_iter")


@pytest.mark.parametrize("m", [3, 6])
def test_anderson_run_stops_only_after_a_plain_step(monkeypatch, m):
    # the stop test can hold at an accepted Anderson point; the run then takes
    # the plain step from that point and stops only if the test holds there
    # too, so a run that stops on tolerance ends on a plain evaluation
    spec, s, _ = _cov_spec(8, 0.1, seed=4)
    c0 = SymMatrix(s.mat + np.eye(8), strict=False)
    candidates, at_candidate = [], []
    make, step = splitting._Anderson.candidate, splitting._dr_step

    def candidate(self, p, r):
        candidates.append(make(self, p, r))
        return candidates[-1]

    def recorded_step(spec, cfg, c):
        at_candidate.append(any(c is cand for cand in candidates))
        return step(spec, cfg, c)

    monkeypatch.setattr(splitting._Anderson, "candidate", candidate)
    monkeypatch.setattr(splitting, "_dr_step", recorded_step)
    rep = dr_solve(spec, DRConfig(gamma=1.0, alpha=1.5, eps=1e-10, max_iter=2000, anderson=m), c0)
    assert rep.stop_reason == "tolerance"
    assert len(at_candidate) == rep.iterations and any(at_candidate)
    assert not at_candidate[-1]


def test_anderson_budget_counts_every_evaluation():
    spec, s, _ = _cov_spec(12, 0.1, seed=8)
    c0 = SymMatrix(s.mat + np.eye(12), strict=False)
    rep = dr_solve(spec, DRConfig(gamma=1.0, alpha=1.5, eps=0.0, max_iter=40, anderson=3), c0)
    assert rep.stop_reason == "max_iter"
    assert rep.iterations == len(rep.objective_trace) == len(rep.fixed_point_residuals) == 40
    # the budget's last evaluation is a plain step: the report comes from it
    assert rep.objective_trace[-1] == pytest.approx(objective_eval(spec, rep.c_final), rel=1e-12)


def test_anderson_config():
    assert DRConfig().anderson == 0 and MMConfig().inner.anderson == 6
    for bad in (-1, 1.5, 3.0, True):
        with pytest.raises(ConfigurationError, match="anderson"):
            DRConfig(anderson=bad)
