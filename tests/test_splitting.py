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
from symprox import ConfigurationError, MMConfig, splitting
from symprox.experiments import (
    BlockSpec,
    empirical_cov,
    gen_block_lowrank_cov,
    sample_gaussian,
)
from symprox.scalarprox import kernel_prox_vec
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
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = 4
        c = rand_sym(rng, n) + 2.5 * np.eye(n)
        tmat = rand_sym(rng, n, scale=0.4)
        mu1 = float(rng.uniform(0.0, 0.5))
        kernel = ScalarKernel(BURG, Penalty.schatten(0.3, 3.0))
        spec = ObjectiveSpec(kernel, SymMatrix(tmat, strict=False), mu1)
        lam = np.linalg.eigvalsh(SymMatrix(c).mat)
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
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ConfigurationError, match="gamma"):
            DRConfig(gamma=bad)


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


def test_anderson_budget_counts_every_evaluation():
    spec, s, _ = _cov_spec(12, 0.1, seed=8)
    c0 = SymMatrix(s.mat + np.eye(12), strict=False)
    rep = dr_solve(spec, DRConfig(gamma=1.0, alpha=1.5, eps=0.0, max_iter=40, anderson=3), c0)
    assert rep.stop_reason == "max_iter"
    assert rep.iterations == len(rep.objective_trace) == len(rep.fixed_point_residuals) == 40
    # the budget's last evaluation is a plain step: the report comes from it
    assert rep.objective_trace[-1] == pytest.approx(objective_eval(spec, rep.c_final), rel=1e-12)


def test_anderson_config():
    assert DRConfig().anderson == 0 and MMConfig().inner.anderson == 3
    for bad in (-1, 1.5, 3.0, True):
        with pytest.raises(ConfigurationError, match="anderson"):
            DRConfig(anderson=bad)
