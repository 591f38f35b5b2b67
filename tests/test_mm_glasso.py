import math

import numpy as np
import pytest

from symprox import (
    DomainError,
    DRConfig,
    EigenDecomp,
    InvalidInputError,
    MMConfig,
    NoisyGlassoProblem,
    NumericError,
    SymMatrix,
    dr_noisy_baseline,
    eig_sym,
    f_noisy,
    fro_norm,
    glasso_solve,
    grad_trace_term,
    inner,
    majorant_eval,
    mm_solve,
    objective_F,
    spd_inverse,
    trace_term,
)
from symprox import mm_glasso
from symprox.experiments import empirical_cov, gen_sparse_precision, sample_gaussian

from _oracles import rand_spd, rand_sym


def _problem(n=10, sigma=0.2, mu0=0.01, mu1=0.05, seed=0, nsamples=400):
    c_star = gen_sparse_precision(n, 0.02, seed)
    y_star = spd_inverse(c_star)
    ds = sample_gaussian(y_star, sigma, nsamples, seed + 1)
    s = empirical_cov(ds)
    return NoisyGlassoProblem(s=s, sigma2=sigma * sigma, mu0=mu0, mu1=mu1), c_star, y_star


def test_trace_term_reduces_to_plain_trace():
    rng = np.random.default_rng(0)
    c = rand_spd(rng, 5)
    s = rand_spd(rng, 5)
    prob = NoisyGlassoProblem(s=SymMatrix(s, strict=False), sigma2=0.0)
    assert trace_term(prob, c) == pytest.approx(float(np.trace(c @ s)), rel=1e-12)


def test_trace_term_identity_case():
    n = 6
    prob = NoisyGlassoProblem(s=SymMatrix(np.eye(n)), sigma2=1.0)
    assert trace_term(prob, np.eye(n)) == pytest.approx(n / 2.0, abs=1e-13)


def test_trace_term_dual_path_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = 7
        c = rand_spd(rng, n)
        s = rand_spd(rng, n)
        sigma2 = float(rng.uniform(0.0, 1.0))
        prob = NoisyGlassoProblem(s=SymMatrix(s, strict=False), sigma2=sigma2)
        # independent SPD-solve route: trace(B^-1 C S) and B^-1 S B^-1, B = I + sigma2 C
        b = np.eye(n) + sigma2 * c
        expect = float(np.trace(np.linalg.solve(b, c) @ prob.s.mat))
        assert trace_term(prob, c) == pytest.approx(expect, rel=1e-11)
        grad = np.linalg.solve(b, np.linalg.solve(b, prob.s.mat).T).T
        got = grad_trace_term(prob, c).mat
        assert np.abs(got - grad).max() <= 1e-11 * np.abs(grad).max()


def test_trace_term_rejects_non_psd():
    prob = NoisyGlassoProblem(s=SymMatrix(np.eye(3)), sigma2=0.5)
    with pytest.raises(DomainError):
        trace_term(prob, np.diag([1.0, 1.0, -0.5]))
    # a carried decomposition is checked whatever the order of its eigenvalues
    for lam in ([1.0, 1.0, -0.5], [-0.5, 1.0, 1.0]):
        with pytest.raises(DomainError):
            trace_term(prob, EigenDecomp(u=np.eye(3), lam=np.array(lam)))
        with pytest.raises(DomainError):
            grad_trace_term(prob, EigenDecomp(u=np.eye(3), lam=np.array(lam)))


@pytest.mark.parametrize("sigma2", [0.0, 0.3])
def test_matrix_and_decomposition_inputs_agree(sigma2):
    rng = np.random.default_rng(14)
    prob, _, _ = _problem(n=7, seed=14)
    prob = NoisyGlassoProblem(s=prob.s, sigma2=sigma2, mu0=prob.mu0, mu1=prob.mu1)
    for _ in range(5):
        c, anchor = rand_spd(rng, 7), rand_spd(rng, 7)
        ec, ea = eig_sym(c), eig_sym(anchor)
        for fn, args, eargs in (
            (trace_term, (c,), (ec,)),
            (objective_F, (c,), (ec,)),
            (majorant_eval, (c, anchor), (ec, ea)),
            (majorant_eval, (c, anchor), (c, ea)),
            (majorant_eval, (c, anchor), (ec, anchor)),
        ):
            assert fn(prob, *eargs) == pytest.approx(fn(prob, *args), rel=1e-12, abs=0.0)
        g, ge = grad_trace_term(prob, c).mat, grad_trace_term(prob, ec).mat
        assert np.abs(ge - g).max() <= 1e-12 * np.abs(g).max()
    # outside the positive definite cone F is +inf in both forms
    for bad in (np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0]), np.diag([1.0] * 6 + [-0.5])):
        assert objective_F(prob, bad) == math.inf
        assert objective_F(prob, eig_sym(bad)) == math.inf


def test_mm_outer_steps_make_no_decomposition_or_solve(monkeypatch):
    # one decomposition per DR iteration; the start adds its inverse and one
    # eigendecomposition, and the outer steps read the inner solve's eigenpairs
    prob, _, _ = _problem(n=10, sigma=0.25, seed=7)
    calls = {"decompositions": 0, "solves": 0}

    def counted(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("decompositions", getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "solve", counted("solves", np.linalg.solve))
    rep = mm_solve(prob)
    assert rep.outer_iterations >= 2
    assert calls["solves"] == 0
    assert calls["decompositions"] <= sum(rep.inner_iterations) + 2


def test_grad_trace_identity_case():
    n = 4
    prob = NoisyGlassoProblem(s=SymMatrix(np.eye(n)), sigma2=1.0)
    g = grad_trace_term(prob, np.eye(n))
    assert np.allclose(g.mat, np.eye(n) / 4.0, atol=1e-14)


def test_grad_trace_sigma_zero_is_data():
    rng = np.random.default_rng(2)
    s = rand_spd(rng, 5)
    prob = NoisyGlassoProblem(s=SymMatrix(s, strict=False), sigma2=0.0)
    g = grad_trace_term(prob, rand_spd(rng, 5))
    assert np.allclose(g.mat, prob.s.mat, atol=1e-13)


def test_grad_trace_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 6
        c = rand_spd(rng, n)
        s = rand_spd(rng, n)
        prob = NoisyGlassoProblem(s=SymMatrix(s, strict=False), sigma2=float(rng.uniform(0.1, 1.0)))
        g = grad_trace_term(prob, c)
        h = 1e-5 * max(1.0, np.linalg.norm(c))
        for _ in range(6):
            direction = rand_sym(rng, n)
            direction /= np.linalg.norm(direction)
            tp = trace_term(prob, c + h * direction)
            tm = trace_term(prob, c - h * direction)
            fd = (tp - tm) / (2.0 * h)
            an = float(np.sum(g.mat * direction))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_grad_trace_is_psd():
    rng = np.random.default_rng(4)
    prob = NoisyGlassoProblem(s=SymMatrix(rand_spd(rng, 5), strict=False), sigma2=0.3)
    g = grad_trace_term(prob, rand_spd(rng, 5))
    assert np.linalg.eigvalsh(g.mat)[0] >= -1e-12


def test_f_noisy_examples():
    prob0 = NoisyGlassoProblem(s=SymMatrix(np.eye(3)), sigma2=0.0)
    assert f_noisy(prob0, np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    prob1 = NoisyGlassoProblem(s=SymMatrix(np.eye(3)), sigma2=1.0)
    assert f_noisy(prob1, np.eye(3)) == pytest.approx(3.0 * math.log(2.0), rel=1e-13)
    assert f_noisy(prob1, np.diag([1.0, -1.0, 1.0])) == math.inf


def test_f_noisy_dual_path_determinant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 5
        c = rand_spd(rng, n)
        sigma2 = float(rng.uniform(0.0, 1.0))
        prob = NoisyGlassoProblem(s=SymMatrix(np.eye(n)), sigma2=sigma2)
        sign, logdet = np.linalg.slogdet(np.linalg.inv(c) + sigma2 * np.eye(n))
        assert sign > 0
        assert f_noisy(prob, c) == pytest.approx(logdet, rel=1e-8)


def test_objective_examples():
    n = 4
    s = SymMatrix(np.eye(n))
    prob = NoisyGlassoProblem(s=s, sigma2=0.0, mu0=1.0, mu1=0.0)
    assert objective_F(prob, np.eye(n)) == pytest.approx(2.0 * n, rel=1e-13)
    # classic negative log-likelihood when sigma = 0 and mu0 = 0
    rng = np.random.default_rng(6)
    c = rand_spd(rng, n)
    smat = rand_spd(rng, n)
    prob2 = NoisyGlassoProblem(s=SymMatrix(smat, strict=False), sigma2=0.0, mu0=0.0, mu1=0.3)
    sign, logdet = np.linalg.slogdet(c)
    expect = -logdet + float(np.trace(c @ prob2.s.mat)) + 0.3 * float(np.abs(c).sum())
    assert objective_F(prob2, c) == pytest.approx(expect, rel=1e-11)


def test_objective_componentwise_oracle():
    rng = np.random.default_rng(7)
    prob, _, _ = _problem(n=6, seed=3)
    c = rand_spd(rng, 6)
    expect = (
        f_noisy(prob, c)
        + trace_term(prob, c)
        + prob.mu0 * float((1.0 / np.linalg.eigvalsh(SymMatrix(c).mat)).sum())
        + prob.mu1 * float(np.abs(SymMatrix(c).mat).sum())
    )
    assert objective_F(prob, c) == pytest.approx(expect, rel=1e-12)


def test_majorant_tangency_exact():
    rng = np.random.default_rng(8)
    prob, _, _ = _problem(n=8, seed=4)
    for _ in range(5):
        c = SymMatrix(rand_spd(rng, 8), strict=False)
        assert majorant_eval(prob, c, c) == objective_F(prob, c)


def test_majorant_dominates():
    rng = np.random.default_rng(9)
    prob, _, _ = _problem(n=6, seed=5)
    for _ in range(100):
        c = rand_spd(rng, 6)
        anchor = rand_spd(rng, 6)
        assert majorant_eval(prob, c, anchor) >= objective_F(prob, c) - 1e-9


def test_majorant_equals_objective_when_noiseless():
    rng = np.random.default_rng(10)
    prob, _, _ = _problem(n=5, sigma=0.0, seed=6)
    c = rand_spd(rng, 5)
    anchor = rand_spd(rng, 5)
    assert majorant_eval(prob, c, anchor) == pytest.approx(objective_F(prob, c), rel=1e-12)


def test_mm_monotone_descent():
    prob, _, _ = _problem(n=10, sigma=0.25, seed=7)
    rep = mm_solve(prob)
    objs = rep.outer_objectives
    assert len(objs) >= 2
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))
    assert rep.stop_reason in ("tolerance", "stalled")
    # every outer iterate stays positive definite; check the final one
    assert np.linalg.eigvalsh(rep.c_final.mat)[0] > 0


def test_mm_invalid_start():
    prob, _, _ = _problem(n=5, seed=8)
    with pytest.raises(InvalidInputError):
        mm_solve(prob, c0=np.diag([1.0, 1.0, 1.0, 1.0, -1.0]))


def test_mm_reduces_to_glasso_when_noiseless():
    prob, _, _ = _problem(n=8, sigma=0.0, mu0=0.0, mu1=0.08, seed=9)
    rep = mm_solve(prob)
    base = glasso_solve(prob.s, 0.08)
    f_mm = rep.outer_objectives[-1]
    f_gl = base.objective_trace[-1]
    assert f_mm == pytest.approx(f_gl, rel=1e-7)
    # the surrogate is exact, so a single convex solve suffices
    assert rep.outer_iterations <= 2
    assert np.linalg.norm(rep.c_final.mat - base.c_final.mat) <= 1e-4


def test_mm_sigma_continuity():
    prob0, _, _ = _problem(n=8, sigma=0.0, mu0=0.0, mu1=0.05, seed=10)
    prob_eps = NoisyGlassoProblem(s=prob0.s, sigma2=1e-10, mu0=0.0, mu1=0.05)
    rep = mm_solve(prob_eps)
    base = glasso_solve(prob0.s, 0.05)
    assert fro_norm(SymMatrix(rep.c_final.mat - base.c_final.mat, strict=False)) <= 1e-3


def test_mm_warm_start_progresses():
    prob, _, _ = _problem(n=10, sigma=0.3, seed=11)
    cfg = MMConfig(inner=DRConfig(gamma=1.0, alpha=1.0, eps=1e-10, max_iter=2000))
    rep = mm_solve(prob, cfg)
    # warm starting keeps later inner solves cheap
    assert rep.outer_iterations >= 2
    assert rep.inner_iterations[-1] <= rep.inner_iterations[0]


def test_mm_beats_glasso_rmse_at_sigma_03():
    # paired runs on n=30 instances, averaged over 10 seeds, sigma = 0.3
    n = 30
    p = 10.0 / (n * n)
    c_star = gen_sparse_precision(n, p, 12345)
    y_star = spd_inverse(c_star)
    diffs = []
    for rep_i in range(10):
        ds = sample_gaussian(y_star, 0.3, 1000, 2000 + 7919 * rep_i)
        s = empirical_cov(ds)
        mm = mm_solve(NoisyGlassoProblem(s=s, sigma2=0.09, mu0=0.005, mu1=0.05))
        gl = glasso_solve(s, 0.05)
        rmse_mm = float(
            np.sum((spd_inverse(mm.c_final).mat - y_star.mat) ** 2) / np.sum(y_star.mat ** 2)
        )
        rmse_gl = float(
            np.sum((spd_inverse(gl.c_final).mat - y_star.mat) ** 2) / np.sum(y_star.mat ** 2)
        )
        diffs.append(rmse_mm - rmse_gl)
    assert np.mean(diffs) < 0.0


def test_mm_descent_guard_aborts_on_real_violation(monkeypatch):
    import symprox.mm_glasso as mm

    prob, _, _ = _problem(n=6, sigma=0.2, seed=20)
    real_dr = mm.dr_solve

    def bad_dr(spec, cfg, c0):
        rep = real_dr(spec, cfg, c0)
        # corrupt the inner result enough to push F up well past the stall band;
        # shifting the carried eigenvalues by 0.5 gives the same matrix C + 0.5 I
        rep.c_final = SymMatrix(rep.c_final.mat + 0.5 * np.eye(rep.c_final.n), strict=False)
        rep.c_final_eig = EigenDecomp(u=rep.c_final_eig.u, lam=rep.c_final_eig.lam + 0.5)
        return rep

    monkeypatch.setattr(mm, "dr_solve", bad_dr)
    with pytest.raises(NumericError, match="descent violated"):
        mm.mm_solve(prob)


def test_mm_sparse_shadow_comes_from_the_published_step(monkeypatch):
    import symprox.mm_glasso as mm

    prob, _, _ = _problem(n=6, sigma=0.2, seed=20)
    real_dr = mm.dr_solve
    reps = []

    def recording_dr(spec, cfg, c0):
        reps.append(real_dr(spec, cfg, c0))
        return reps[-1]

    monkeypatch.setattr(mm, "dr_solve", recording_dr)
    c0 = mm.default_init(prob)
    # F at the start, then per inner solve; the last step is a hair uphill,
    # inside the outer tolerance, so it is not published
    for values, published in (([10.0, 9.0, 9.0 + 1e-9], 1), ([10.0, 10.0 + 1e-9], 0)):
        reps.clear()
        monkeypatch.setattr(mm, "objective_F", lambda prob, c, it=iter(values): next(it))
        rep = mm.mm_solve(prob, c0=c0)
        assert rep.stop_reason == "tolerance" and len(reps) == published + 1
        assert rep.outer_objectives == values[: published + 1]
        if published:
            assert rep.c_final is reps[-2].c_final and rep.c_sparse is reps[-2].c_sparse
        else:
            assert rep.c_final is c0 and rep.c_sparse is c0


def test_mm_config_defaults():
    cfg = MMConfig()
    assert cfg.inner.eps == 1e-10
    assert cfg.inner.max_iter == 2000
    assert cfg.inner.gamma == 1.0
    assert cfg.inner.alpha == 1.0
    assert cfg.outer_eps == 1e-8
    assert cfg.outer_max == 20


def test_problem_validation():
    with pytest.raises(DomainError):
        NoisyGlassoProblem(s=SymMatrix(np.diag([1.0, -0.5])), sigma2=0.1)
    with pytest.raises(InvalidInputError):
        NoisyGlassoProblem(s=SymMatrix(np.eye(2)), sigma2=-0.1)
    # tiny negative eigenvalue dust is clipped to PSD
    s = np.diag([1.0, -1e-12])
    prob = NoisyGlassoProblem(s=SymMatrix(s, strict=False), sigma2=0.0)
    assert np.linalg.eigvalsh(prob.s.mat)[0] >= 0.0
    # the dust bound is relative to the largest eigenvalue: a rank-50 sample
    # covariance at scale 1e6 has dust near -1e-9 and is clipped, not rejected
    x = 1e3 * np.random.default_rng(0).standard_normal((50, 100))
    s = SymMatrix(x.T @ x / 50, strict=False)
    w, v = np.linalg.eigh(s.mat)
    assert w[0] < -1e-10 and w[-1] > 1e6
    prob = NoisyGlassoProblem(s=s, sigma2=0.0)
    # the clipped spectrum is nonnegative, so the recompose is the syrk form x x^T
    x = v * np.sqrt(np.maximum(w, 0.0))
    np.testing.assert_array_equal(prob.s.mat, x @ x.T)


def test_glasso_solve_beats_start():
    prob, _, _ = _problem(n=8, sigma=0.1, mu1=0.05, seed=12)
    rep = glasso_solve(prob.s, 0.05)
    assert rep.objective_trace[-1] <= rep.objective_trace[0]
    assert np.linalg.eigvalsh(rep.c_final.mat)[0] > 0


def test_dr_noisy_baseline_runs():
    prob, _, _ = _problem(n=8, sigma=0.2, mu0=0.05, mu1=0.05, seed=13)
    rep = dr_noisy_baseline(prob.s, 0.05, 0.05)
    assert rep.objective_trace[-1] <= rep.objective_trace[0]
    assert np.linalg.eigvalsh(rep.c_final.mat)[0] > 0


def _l1_violation(grad, c, mu1):
    # worst violation of grad + mu1*sign(C) = 0 on the support of c, |grad| <= mu1 off it
    on = c != 0.0
    return max(
        np.abs(grad[on] + mu1 * np.sign(c[on])).max(initial=0.0),
        (np.abs(grad[~on]) - mu1).max(initial=0.0),
    )


@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_glasso_solve_meets_kkt_beyond_n5(n, seed):
    # optimality of -log det C + tr(CS) + mu1*||C||_1: with G = S - C^-1,
    # G + mu1*sign(C) = 0 on the support of c_sparse and |G| <= mu1 off it
    mu1 = 0.05
    c_star = gen_sparse_precision(n, 0.02, seed)
    s = empirical_cov(sample_gaussian(spd_inverse(c_star), 0.0, 200, seed + 1))
    rep = glasso_solve(s, mu1, cfg=MMConfig().inner)
    assert rep.stop_reason == "tolerance"
    np.linalg.cholesky(rep.c_final.mat)
    grad = s.mat - np.linalg.inv(rep.c_final.mat)
    assert _l1_violation(grad, rep.c_sparse.mat, mu1) <= 1e-5 * mu1


def test_anderson_halves_the_evaluations_at_n100():
    # the benchmark's mm_n100 instance at sample seed 7919; at n = 30 and 40
    # the ratio sits near 1/2 (0.44-0.59 on seeds 0-5 of this file's
    # instances), so it is not asserted there
    mu0, mu1, sigma2 = 0.005, 0.05, 0.04
    s = empirical_cov(sample_gaussian(spd_inverse(gen_sparse_precision(100, 1e-3, 0)), 0.2, 1000, 7919))
    plain = DRConfig(gamma=1.0, alpha=1.0, eps=1e-10, max_iter=2000)

    gl, gl_plain = glasso_solve(s, mu1), glasso_solve(s, mu1, cfg=plain)
    assert gl.stop_reason == "tolerance" and 2 * gl.iterations <= gl_plain.iterations
    assert _l1_violation(s.mat - np.linalg.inv(gl.c_final.mat), gl.c_sparse.mat, mu1) <= 1e-5 * mu1
    assert gl.objective_trace[-1] <= gl_plain.objective_trace[-1] + 1e-10 * abs(gl_plain.objective_trace[-1])

    prob = NoisyGlassoProblem(s=s, sigma2=sigma2, mu0=mu0, mu1=mu1)
    mm, mm_plain = mm_solve(prob), mm_solve(prob, MMConfig(inner=plain))
    assert mm.stop_reason == "tolerance"
    assert 2 * sum(mm.inner_iterations) <= sum(mm_plain.inner_iterations)
    assert mm.outer_objectives[-1] <= mm_plain.outer_objectives[-1] + 1e-10 * abs(mm_plain.outer_objectives[-1])
    # first-order stationarity of F on the support of the sparse estimate
    c = mm.c_final.mat
    ci = np.linalg.inv(c)
    bi = np.linalg.inv(np.eye(100) + sigma2 * c)
    grad = -ci + sigma2 * bi + bi @ s.mat @ bi - mu0 * ci @ ci
    assert _l1_violation(grad, mm.c_sparse.mat, mu1) <= 1e-3 * mu1


def test_mm_report_records_every_inner_solve():
    # the mm_n100 instance at sample seed 7919: four inner solves, each
    # stopping on tolerance, no Anderson candidate rejected
    s = empirical_cov(sample_gaussian(spd_inverse(gen_sparse_precision(100, 1e-3, 0)), 0.2, 1000, 7919))
    rep = mm_solve(NoisyGlassoProblem(s=s, sigma2=0.04, mu0=0.005, mu1=0.05))
    assert rep.inner_stop_reasons == ["tolerance"] * 4
    assert len(rep.inner_iterations) == rep.outer_iterations == 4
    assert rep.anderson_rejected == 0
    assert rep.last_inner.stop_reason == rep.inner_stop_reasons[-1]


def test_mm_report_totals_the_inner_rejections(monkeypatch):
    prob, _, _ = _problem(n=10, seed=3)
    solve = mm_glasso.dr_solve

    def rejecting(*args, **kwargs):
        rep = solve(*args, **kwargs)
        rep.anderson_rejected, rep.stop_reason = 2, "max_iter"
        return rep

    monkeypatch.setattr(mm_glasso, "dr_solve", rejecting)
    rep = mm_solve(prob)
    assert rep.anderson_rejected == 2 * rep.outer_iterations > 0
    assert rep.inner_stop_reasons == ["max_iter"] * rep.outer_iterations
