"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them live)."""

import math
import time

import numpy as np

from symprox import (
    DRConfig,
    Divergence,
    NoisyGlassoProblem,
    ObjectiveSpec,
    Penalty,
    ScalarKernel,
    SpectralProxRequest,
    SymMatrix,
    dr_solve,
    glasso_solve,
    grad_trace_term,
    kernel_prox,
    kernel_prox_vec,
    lambert_w,
    majorant_eval,
    mm_solve,
    objective_F,
    project_l1_ball,
    prox_spectral,
    spd_inverse,
    trace_term,
)
from symprox.cli import main as cli_main
from symprox.experiments import (
    BlockSpec,
    clipped_raw_estimator,
    empirical_cov,
    gen_block_lowrank_cov,
    gen_sparse_precision,
    metrics,
    sample_gaussian,
)

from _oracles import (
    brute_force_2x2,
    brute_force_2x2_rank1,
    eig2,
    fro_ball_2x2_exact,
    l1_projection_kkt,
    phi_value,
    projected_subgradient_cov,
    psi_value,
    rand_spd,
    rand_sym,
    scalar_prox_oracle,
)

HS = Divergence.half_square()
BURG = Divergence.burg()
SHANNON = Divergence.shannon()


def _scalar_obj(k, gamma, lam, d):
    arr = np.array([float(d)])
    return float(
        0.5 * (d - lam) ** 2
        + gamma
        * (
            phi_value(k.divergence.kind, k.divergence.sigma2, arr)
            + psi_value(k.penalty, arr)
        )[0]
    )


def _kernel_catalog(rng):
    mu = float(rng.uniform(0.05, 1.5))
    eps = float(rng.uniform(0.05, 1.0))
    al = float(rng.uniform(-1.0, 0.5))
    be = al + float(rng.uniform(0.2, 2.0))
    alp = max(al, 0.0)
    s2 = float(rng.uniform(0.0, 0.8))
    return [
        ScalarKernel(HS, Penalty.none()),
        ScalarKernel(HS, Penalty.nuclear(mu)),
        ScalarKernel(HS, Penalty.fro_norm(mu)),
        ScalarKernel(HS, Penalty.fro_squared(mu)),
        ScalarKernel(HS, Penalty.schatten(mu, 3)),
        ScalarKernel(HS, Penalty.schatten(mu, 4)),
        ScalarKernel(HS, Penalty.schatten(mu, 4.0 / 3.0)),
        ScalarKernel(HS, Penalty.schatten(mu, 1.5)),
        ScalarKernel(HS, Penalty.schatten(mu, 2.6)),
        ScalarKernel(HS, Penalty.inv_schatten(mu, 1.0)),
        ScalarKernel(HS, Penalty.inv_schatten(mu, 2.3)),
        ScalarKernel(HS, Penalty.fro_ball(abs(al) + 0.3)),
        ScalarKernel(HS, Penalty.eig_box(al, be)),
        ScalarKernel(HS, Penalty.rank(mu)),
        ScalarKernel(HS, Penalty.cauchy(mu, eps)),
        ScalarKernel(HS, Penalty.spectral_norm(mu)),
        ScalarKernel(BURG, Penalty.none()),
        ScalarKernel(BURG, Penalty.nuclear(mu)),
        ScalarKernel(BURG, Penalty.fro_squared(mu)),
        ScalarKernel(BURG, Penalty.schatten(mu, 3)),
        ScalarKernel(BURG, Penalty.schatten(mu, 1.8)),
        ScalarKernel(BURG, Penalty.inv_schatten(mu, 1.0)),
        ScalarKernel(BURG, Penalty.inv_schatten(mu, 0.7)),
        ScalarKernel(BURG, Penalty.eig_box(alp, alp + be - al)),
        ScalarKernel(BURG, Penalty.cauchy(mu, eps)),
        ScalarKernel(SHANNON, Penalty.none()),
        ScalarKernel(SHANNON, Penalty.nuclear(mu)),
        ScalarKernel(SHANNON, Penalty.fro_squared(mu)),
        ScalarKernel(SHANNON, Penalty.schatten(mu, 3)),
        ScalarKernel(SHANNON, Penalty.eig_box(alp, alp + be - al)),
        ScalarKernel(SHANNON, Penalty.rank(mu)),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty.none()),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty.inv_schatten(mu, 1.0)),
    ]


def test_criterion_1_scalar_prox_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for draw in range(100):
        for k in _kernel_catalog(rng):
            lam = float(rng.uniform(-4.0, 4.0))
            gamma = float(rng.uniform(0.05, 3.0))
            ref = scalar_prox_oracle(
                k.divergence.kind, k.divergence.sigma2, k.penalty, gamma, lam
            )
            for d in kernel_prox(k, gamma, lam):
                gap = _scalar_obj(k, gamma, lam, d) - ref
                worst = max(worst, gap)
                assert gap <= 1e-6
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: {count} kernel/parameter draws, worst objective gap "
        f"{worst:.2e} <= 1e-6, runtime {elapsed:.1f}s < 60s"
    )


def test_kernel_prox_reads_kernel_prox_vec_on_criterion_1_rows():
    # kernel_prox is kernel_prox_vec read at one eigenvalue: the same bits on
    # every row.  On the separable rows it also equals the whole-vector call
    # element by element, bitwise: a root-solved element stops moving once it
    # has converged, whatever the other elements of its batch do (a root
    # near 1e12 takes more steps than the others).
    rng = np.random.default_rng(211)
    extremes = [0.0, 1e-8, -1e-8, 1e4, -1e4, 1e8, -1e8, 1e12]
    checked = 0
    for draw in range(4):
        for k in _kernel_catalog(rng):
            for gamma in (0.05, 1.0, 7.0):
                lam = np.concatenate([rng.uniform(-4.0, 4.0, 9), extremes])
                vec = kernel_prox_vec(k, gamma, lam)
                for i, x in enumerate(lam):
                    (first, *_) = kernel_prox(k, gamma, x)
                    assert first == kernel_prox_vec(k, gamma, lam[i:i + 1])[0], (k, gamma, x)
                    if k.penalty.kind in ("fro_norm", "fro_ball", "spectral_norm"):
                        continue
                    assert first == vec[i], (k, gamma, x)
                    checked += 1
    # the half-square rank threshold tie, and the Burg-Cauchy row with two
    # local minima whose global one is the larger
    g = 1.0
    k = ScalarKernel(HS, Penalty.rank(0.5))
    tie = math.sqrt(2.0 * 0.5 * g / (1.0 + g)) * (1.0 + g)
    assert kernel_prox(k, g, tie) == (0.0, tie / (1.0 + g))
    assert kernel_prox_vec(k, g, np.array([0.3, tie, 2.0]))[1] == 0.0
    k = ScalarKernel(BURG, Penalty.cauchy(3.0, 0.01))
    (d,) = kernel_prox(k, 0.1, 1.6)
    assert d > 1.0 and d == kernel_prox_vec(k, 0.1, np.array([0.2, 1.6, 5.0]))[1]
    assert checked > 3000


_FAMILIES_2X2 = [
    ("hs none", lambda mu, eps: ScalarKernel(HS, Penalty.none())),
    ("hs nuclear", lambda mu, eps: ScalarKernel(HS, Penalty.nuclear(mu))),
    ("hs fro_norm", lambda mu, eps: ScalarKernel(HS, Penalty.fro_norm(mu))),
    ("hs fro_squared", lambda mu, eps: ScalarKernel(HS, Penalty.fro_squared(mu))),
    ("hs schatten3", lambda mu, eps: ScalarKernel(HS, Penalty.schatten(mu, 3))),
    ("hs schatten4/3", lambda mu, eps: ScalarKernel(HS, Penalty.schatten(mu, 4.0 / 3.0))),
    ("hs inv_schatten", lambda mu, eps: ScalarKernel(HS, Penalty.inv_schatten(mu, 1.0))),
    ("hs fro_ball", lambda mu, eps: ScalarKernel(HS, Penalty.fro_ball(1.2))),
    ("hs eig_box", lambda mu, eps: ScalarKernel(HS, Penalty.eig_box(-0.5, 1.5))),
    ("hs rank", lambda mu, eps: ScalarKernel(HS, Penalty.rank(mu))),
    ("hs cauchy", lambda mu, eps: ScalarKernel(HS, Penalty.cauchy(mu, eps))),
    ("hs spectral", lambda mu, eps: ScalarKernel(HS, Penalty.spectral_norm(mu))),
    ("burg nuclear", lambda mu, eps: ScalarKernel(BURG, Penalty.nuclear(mu))),
    ("burg fro_squared", lambda mu, eps: ScalarKernel(BURG, Penalty.fro_squared(mu))),
    ("burg schatten3", lambda mu, eps: ScalarKernel(BURG, Penalty.schatten(mu, 3))),
    ("burg inv_schatten", lambda mu, eps: ScalarKernel(BURG, Penalty.inv_schatten(mu, 1.0))),
    ("burg eig_box", lambda mu, eps: ScalarKernel(BURG, Penalty.eig_box(0.1, 2.0))),
    ("burg cauchy", lambda mu, eps: ScalarKernel(BURG, Penalty.cauchy(mu, eps))),
    ("shannon nuclear", lambda mu, eps: ScalarKernel(SHANNON, Penalty.nuclear(mu))),
    ("shannon fro_squared", lambda mu, eps: ScalarKernel(SHANNON, Penalty.fro_squared(mu))),
    ("shannon schatten3", lambda mu, eps: ScalarKernel(SHANNON, Penalty.schatten(mu, 3))),
    ("shannon eig_box", lambda mu, eps: ScalarKernel(SHANNON, Penalty.eig_box(0.1, 2.0))),
    ("shannon rank", lambda mu, eps: ScalarKernel(SHANNON, Penalty.rank(mu))),
    ("noisy none", lambda mu, eps: ScalarKernel(Divergence.noisy_burg(0.3), Penalty.none())),
    ("noisy inv1", lambda mu, eps: ScalarKernel(Divergence.noisy_burg(0.2), Penalty.inv_schatten(mu, 1.0))),
]


def _matrix_objective(kernel, gamma, tmat, cmat, out):
    lam = np.linalg.eigvalsh(out)
    lam = np.where((lam < 0.0) & (lam > -1e-9), 0.0, lam)  # recomposition dust
    phi = float(np.sum(phi_value(kernel.divergence.kind, kernel.divergence.sigma2, lam)))
    psi_kind = kernel.penalty.kind
    if psi_kind == "fro_norm":
        psi = kernel.penalty.mu * float(np.linalg.norm(lam))
    elif psi_kind == "fro_ball":
        psi = 0.0 if np.linalg.norm(lam) <= kernel.penalty.alpha + 1e-9 else math.inf
    elif psi_kind == "spectral_norm":
        psi = kernel.penalty.mu * float(np.abs(lam).max())
    elif psi_kind == "eig_box":
        inside = (lam.min() >= kernel.penalty.alpha - 1e-9) and (
            lam.max() <= kernel.penalty.beta + 1e-9
        )
        psi = 0.0 if inside else math.inf
    elif psi_kind == "rank":
        # recomposition dust: count eigenvalues above the support threshold
        psi = kernel.penalty.mu * float((np.abs(lam) > 1e-8).sum())
    else:
        psi = float(np.sum(psi_value(kernel.penalty, lam)))
    return (
        phi
        + psi
        - float(np.sum(tmat * out))
        + float(np.sum((out - cmat) ** 2)) / (2.0 * gamma)
    )


def test_criterion_2_spectral_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    refines = refines_failed = 0
    for name, make in _FAMILIES_2X2:
        for _ in range(20):
            mu = float(rng.uniform(0.1, 1.0))
            eps = float(rng.uniform(0.1, 0.8))
            k = make(mu, eps)
            cbar = rand_sym(rng, 2) + 1.5 * np.eye(2)
            tmat = rand_sym(rng, 2, scale=0.3)
            gamma = float(rng.uniform(0.3, 1.8))
            req = SpectralProxRequest(
                kernel=k,
                gamma=gamma,
                t=SymMatrix(tmat, strict=False),
                c_bar=SymMatrix(cbar, strict=False),
            )
            out = prox_spectral(req).mat
            f_out = _matrix_objective(k, gamma, tmat, cbar, out)

            if k.penalty.kind == "fro_ball":
                # exact oracle: with the half-square divergence the objective is
                # a quadratic over a Frobenius ball, minimized by one projection
                assert k.divergence.kind == "half_square", (
                    f"{name}: the exact fro_ball oracle needs the half-square divergence"
                )
                f_exact = fro_ball_2x2_exact(tmat, cbar, gamma, k.penalty.alpha)
                gap = abs(f_out - f_exact)
                worst = max(worst, gap)
                assert gap <= 1e-6, f"{name}: gap {gap:.3e}"
                continue

            def obj3(x, y, z, k=k, cbar=cbar, tmat=tmat, gamma=gamma):
                l1, l2 = eig2(x, y, z)
                dk, s2 = k.divergence.kind, k.divergence.sigma2
                phis = phi_value(dk, s2, l1) + phi_value(dk, s2, l2)
                pk = k.penalty
                if pk.kind == "fro_norm":
                    psis = pk.mu * np.sqrt(l1 * l1 + l2 * l2)
                elif pk.kind == "spectral_norm":
                    psis = pk.mu * np.maximum(np.abs(l1), np.abs(l2))
                else:
                    psis = psi_value(pk, l1) + psi_value(pk, l2)
                tr = tmat[0, 0] * x + tmat[1, 1] * y + 2.0 * tmat[0, 1] * z
                quad = (
                    (x - cbar[0, 0]) ** 2
                    + (y - cbar[1, 1]) ** 2
                    + 2.0 * (z - cbar[0, 1]) ** 2
                ) / (2.0 * gamma)
                return phis + psis - tr + quad

            if k.penalty.kind == "rank":
                # the rank discount lives on the rank-deficient manifold:
                # search each rank stratum separately
                dk, s2v = k.divergence.kind, k.divergence.sigma2
                mu_r = k.penalty.mu

                def smooth3(x, y, z):
                    l1, l2 = eig2(x, y, z)
                    phis = phi_value(dk, s2v, l1) + phi_value(dk, s2v, l2)
                    tr = tmat[0, 0] * x + tmat[1, 1] * y + 2.0 * tmat[0, 1] * z
                    quad = (
                        (x - cbar[0, 0]) ** 2
                        + (y - cbar[1, 1]) ** 2
                        + 2.0 * (z - cbar[0, 1]) ** 2
                    ) / (2.0 * gamma)
                    return phis - tr + quad

                def smooth2(rho, theta):
                    c, s = np.cos(theta), np.sin(theta)
                    # phi(rho) + phi(0) with phi(0) = 0 for these divergences
                    return (
                        phi_value(dk, s2v, rho)
                        - (
                            tmat[0, 0] * rho * c * c
                            + tmat[1, 1] * rho * s * s
                            + 2.0 * tmat[0, 1] * rho * c * s
                        )
                        + (
                            (rho * c * c - cbar[0, 0]) ** 2
                            + (rho * s * s - cbar[1, 1]) ** 2
                            + 2.0 * (rho * c * s - cbar[0, 1]) ** 2
                        )
                        / (2.0 * gamma)
                    )

                f_zero = float(
                    (cbar[0, 0] ** 2 + cbar[1, 1] ** 2 + 2.0 * cbar[0, 1] ** 2)
                    / (2.0 * gamma)
                )
                nonneg = dk != "half_square"
                f_full = brute_force_2x2(smooth3, span=5.0, npts=41).value + 2.0 * mu_r
                f_rank1 = brute_force_2x2_rank1(smooth2, span=5.0, nonneg=nonneg) + mu_r
                f_brute = min(f_full, f_rank1, f_zero)
                gap = abs(f_out - f_brute)
                worst = max(worst, gap)
                assert gap <= 1e-6, f"{name}: gap {gap:.3e}"
                continue

            smooth_obj = box = None
            if k.penalty.kind == "eig_box":
                # indicator rows: refine inside the box over the eigenvalues and
                # the rotation (grid and simplex methods stall at the boundary)
                box = (k.penalty.alpha, k.penalty.beta)
                unboxed = ScalarKernel(k.divergence, Penalty.none())

                def smooth_obj(x, y, z, obj3=obj3, unboxed=unboxed):
                    return obj3(x, y, z, k=unboxed)

            f_brute, converged = brute_force_2x2(
                obj3, span=5.0, npts=41, rounds=80, smooth_obj=smooth_obj, box=box,
            )
            if converged is not None:
                refines += 1
                refines_failed += not converged
            gap = abs(f_out - f_brute)
            worst = max(worst, gap)
            assert gap <= 1e-6, f"{name}: gap {gap:.3e}"
    # n=3 random-search sanity bound
    for k in (ScalarKernel(HS, Penalty.nuclear(0.5)), ScalarKernel(BURG, Penalty.nuclear(0.3))):
        cbar = rand_sym(rng, 3) + 2.0 * np.eye(3)
        tmat = rand_sym(rng, 3, scale=0.4)
        out = prox_spectral(
            SpectralProxRequest(
                kernel=k, gamma=0.9, t=SymMatrix(tmat, strict=False),
                c_bar=SymMatrix(cbar, strict=False),
            )
        ).mat
        f_out = _matrix_objective(k, 0.9, tmat, cbar, out)
        for _ in range(10000):
            trial = out + rand_sym(rng, 3, scale=rng.uniform(0.001, 1.0))
            assert f_out <= _matrix_objective(k, 0.9, tmat, cbar, trial) + 1e-8
    print(
        f"ACCEPTANCE 2 PASS: 2x2 brute force over {len(_FAMILIES_2X2)} kernel families "
        f"(20 instances each), worst gap {worst:.2e} <= 1e-6; {refines_failed} of "
        f"{refines} eigenvalue-box L-BFGS-B refines did not converge; "
        f"n=3 random-search bound holds ({time.time()-t0:.1f}s)"
    )


def test_criterion_3_dr_vs_projected_subgradient():
    t0 = time.time()
    bs = BlockSpec((2, 3))
    y_star = gen_block_lowrank_cov(bs, 33)
    ds = sample_gaussian(y_star, 0.1, 5, 34)
    s = empirical_cov(ds)
    tmat = s.mat - 0.01 * np.eye(5)
    spec = ObjectiveSpec(
        divergence=HS,
        t=SymMatrix(tmat, strict=False),
        g0=Penalty.nuclear(0.2),
        mu1=0.1,
        psd=True,
    )
    rep = dr_solve(
        spec, DRConfig(gamma=1.0, alpha=1.5, eps=1e-13, max_iter=20000),
        SymMatrix(s.mat + np.eye(5), strict=False),
    )
    f_dr = rep.objective_trace[-1] + 0.5 * float(np.sum(tmat * tmat))
    ref = projected_subgradient_cov(tmat, 0.2, 0.1, 10 ** 6)
    rel = abs(f_dr - ref) / abs(ref)
    elapsed = time.time() - t0
    assert f_dr <= ref + 1e-9
    assert rel <= 1e-4
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 3 PASS: n=5 objective {f_dr:.10f} vs 1e6-step subgradient oracle "
        f"{ref:.10f}, relative gap {rel:.2e} <= 1e-4, runtime {elapsed:.0f}s < 300s"
    )


def test_criterion_4_scaled_covariance_reproduction():
    blocks = BlockSpec((6, 14, 8, 12))
    n = blocks.n
    sigma = 0.1
    rows = []
    for seed in range(10):
        y_star = gen_block_lowrank_cov(blocks, 100 + seed)
        ds = sample_gaussian(y_star, sigma, n, 200 + seed)
        s = empirical_cov(ds)
        spec = ObjectiveSpec(
            divergence=HS,
            t=SymMatrix(s.mat - sigma * sigma * np.eye(n), strict=False),
            g0=Penalty.nuclear(0.2),
            mu1=0.1,
            psd=True,
        )
        rep = dr_solve(
            spec, DRConfig(gamma=1.0, alpha=1.5, eps=1e-8, max_iter=2000),
            SymMatrix(s.mat + np.eye(n), strict=False),
        )
        m = metrics(rep.c_sparse, y_star)
        raw = metrics(clipped_raw_estimator(s, sigma), y_star)
        rows.append((rep.iterations, rep.stop_reason, m.tpr, m.fpr, m.rmse, raw.rmse))
    arr = np.array([(r[0], r[2], r[3], r[4], r[5]) for r in rows])
    mean_tpr, mean_fpr = arr[:, 1].mean(), arr[:, 2].mean()
    mean_rmse, mean_raw = arr[:, 3].mean(), arr[:, 4].mean()
    print(
        f"ACCEPTANCE 4 measured: iterations max {int(arr[:, 0].max())}, "
        f"mean tpr {mean_tpr:.3f}, mean fpr {mean_fpr:.3f}, "
        f"mean rmse {mean_rmse:.4f} vs raw {mean_raw:.4f} (10 seeds)"
    )
    assert all(r[1] == "tolerance" and r[0] < 2000 for r in rows), "iteration budget"
    assert mean_fpr <= 0.1, f"mean fpr {mean_fpr:.3f} > 0.1"
    assert mean_tpr >= 0.9, f"mean tpr {mean_tpr:.3f} < 0.9"
    assert mean_rmse < mean_raw, f"rmse {mean_rmse:.4f} not below raw {mean_raw:.4f}"
    print("ACCEPTANCE 4 PASS")


_MM_MU0 = 0.005
_MM_MU1 = 0.05


def test_criterion_5_mm_monotone_convergence():
    t0 = time.time()
    n = 30
    p = 10.0 / (n * n)
    converged = 0
    for seed in range(10):
        c_star = gen_sparse_precision(n, p, 300 + seed)
        y_star = spd_inverse(c_star)
        ds = sample_gaussian(y_star, 0.1, 1000, 400 + seed)
        prob = NoisyGlassoProblem(
            s=empirical_cov(ds), sigma2=0.01, mu0=_MM_MU0, mu1=_MM_MU1
        )
        rep = mm_solve(prob)
        objs = rep.outer_objectives
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a)), f"seed {seed}: {a} -> {b}"
        if rep.stop_reason == "tolerance" and rep.outer_iterations <= 20:
            converged += 1
    assert converged >= 8, f"only {converged}/10 seeds converged within 20 outer steps"
    print(
        f"ACCEPTANCE 5 PASS: outer objective nonincreasing (1e-12 slack) on 10/10 "
        f"seeds; {converged}/10 converged to 1e-8 within 20 outer iterations "
        f"({time.time()-t0:.0f}s)"
    )


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 16))
        c = rand_spd(rng, n)
        smat = rand_spd(rng, n)
        prob = NoisyGlassoProblem(
            s=SymMatrix(smat, strict=False), sigma2=float(rng.uniform(0.05, 1.0))
        )
        g = grad_trace_term(prob, c)
        h = 1e-5 * max(1.0, float(np.linalg.norm(c)))
        for _ in range(3):
            direction = rand_sym(rng, n)
            direction /= np.linalg.norm(direction)
            fd = (trace_term(prob, c + h * direction) - trace_term(prob, c - h * direction)) / (2 * h)
            an = float(np.sum(g.mat * direction))
            rel = abs(fd - an) / max(1.0, abs(an))
            worst = max(worst, rel)
            assert rel <= 1e-5
    print(f"ACCEPTANCE 6 PASS: gradient vs central differences on 20 PD instances, worst relative error {worst:.2e} <= 1e-5")


def test_criterion_7_majorization_witness():
    rng = np.random.default_rng(707)
    prob = NoisyGlassoProblem(
        s=SymMatrix(rand_spd(rng, 8), strict=False), sigma2=0.3, mu0=0.05, mu1=0.02
    )
    worst = math.inf
    for i in range(500):
        anchor = rand_spd(rng, 8)
        if i % 2:
            # near-anchor pairs probe the inequality where it is tightest
            c = anchor + rand_sym(rng, 8, scale=10.0 ** rng.uniform(-6, -2))
        else:
            c = rand_spd(rng, 8)
        gap = majorant_eval(prob, c, anchor) - objective_F(prob, c)
        worst = min(worst, gap)
        assert gap >= -1e-9
    for _ in range(20):
        c = SymMatrix(rand_spd(rng, 8), strict=False)
        assert majorant_eval(prob, c, c) == objective_F(prob, c)
    print(
        f"ACCEPTANCE 7 PASS: majorant dominates objective on 500 PD pairs "
        f"(smallest gap {worst:.2e} >= -1e-9); tangency exact on 20 anchors"
    )


def test_criterion_8_noise_sweep_trend():
    t0 = time.time()
    n = 30
    p = 10.0 / (n * n)
    c_star = gen_sparse_precision(n, p, 12345)
    y_star = spd_inverse(c_star)
    results = {}
    for sigma in (0.05, 0.4):
        rows = []
        for rep_i in range(10):
            ds = sample_gaussian(y_star, sigma, 1000, 1000 + 7919 * rep_i)
            s = empirical_cov(ds)
            mm = mm_solve(NoisyGlassoProblem(s=s, sigma2=sigma * sigma, mu0=_MM_MU0, mu1=_MM_MU1))
            gl = glasso_solve(s, _MM_MU1)
            rmse_mm = float(
                np.sum((spd_inverse(mm.c_final).mat - y_star.mat) ** 2)
                / np.sum(y_star.mat ** 2)
            )
            rmse_gl = float(
                np.sum((spd_inverse(gl.c_final).mat - y_star.mat) ** 2)
                / np.sum(y_star.mat ** 2)
            )
            m_mm = metrics(mm.c_sparse, c_star)
            m_gl = metrics(gl.c_sparse, c_star)
            rows.append((rmse_mm, rmse_gl, m_mm.fpr, m_gl.fpr))
        results[sigma] = np.array(rows).mean(axis=0)
    lo, hi = results[0.05], results[0.4]
    print(
        f"ACCEPTANCE 8 measured: sigma=0.05 rmse mm/gl {lo[0]:.4f}/{lo[1]:.4f} "
        f"fpr {lo[2]:.4f}/{lo[3]:.4f}; sigma=0.4 rmse {hi[0]:.4f}/{hi[1]:.4f} "
        f"fpr {hi[2]:.4f}/{hi[3]:.4f} ({time.time()-t0:.0f}s)"
    )
    assert hi[0] <= hi[1], "MM rmse must not exceed the noise-blind baseline at sigma=0.4"
    assert lo[2] <= lo[3] and hi[2] <= hi[3], "MM fpr must not exceed the baseline"
    print("ACCEPTANCE 8 PASS")


def test_criterion_9_lambert_and_l1_projection():
    xs = np.concatenate(
        [
            -np.exp(-1.0) + np.geomspace(1e-14, 0.36, 80),
            np.geomspace(1e-300, 1e300, 200),
            -np.geomspace(1e-12, 0.3678, 60),
        ]
    )
    worst = 0.0
    for x in xs:
        w = lambert_w(float(x))
        resid = abs(w * math.exp(w) - x)
        worst = max(worst, resid / max(1.0, abs(x)))
        assert resid <= 1e-12 * max(1.0, abs(x))
    rng = np.random.default_rng(909)
    worst_proj = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        v = rng.normal(size=size) * rng.uniform(0.2, 5.0)
        radius = float(rng.uniform(0.05, 6.0))
        got = project_l1_ball(v, radius)
        ref = l1_projection_kkt(v, radius)
        err = float(np.max(np.abs(got - ref)))
        worst_proj = max(worst_proj, err)
        assert err <= 1e-12
    print(
        f"ACCEPTANCE 9 PASS: Lambert W residual <= 1e-12 relative over "
        f"{xs.size} log-spaced points (worst {worst:.2e}); l1 projection matches "
        f"the KKT oracle on 1000 vectors (worst gap {worst_proj:.2e})"
    )


def test_criterion_10_bench_determinism(tmp_path):
    args = [
        "bench", "--n", "12", "--p", "0.07", "--nsamples", "80",
        "--sigma", "0.1,0.3", "--reps", "2", "--method", "mm,glasso,dr-noisy",
        "--mu0", "0.01", "--mu1", "0.05", "--max-iter", "600", "--seed", "77",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same_results = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    same_agg = (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    assert same_results and same_agg
    n_rows = len((out1 / "results.csv").read_text().strip().splitlines()) - 1
    print(
        f"ACCEPTANCE 10 PASS: two identical bench runs ({n_rows} rows each) produced "
        f"byte-identical results.csv and aggregate.csv"
    )
