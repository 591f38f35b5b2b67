import math

import numpy as np
import pytest

from symprox import (
    ConfigurationError,
    Divergence,
    DomainError,
    Penalty,
    ScalarKernel,
    SpectralProxRequest,
    SymMatrix,
    bregman_div,
    bregman_prox,
    eig_sym,
    kernel_eval_vec,
    kernel_prox,
    prox_spectral,
    soft,
)

from _oracles import golden_min, phi_value, psi_value, rand_sym, rand_spd

HS = Divergence.half_square()
BURG = Divergence.burg()
SHANNON = Divergence.shannon()


def _request(kernel, gamma, tmat, cmat):
    # a PSD constraint is part of the kernel (ScalarKernel(..., psd=True))
    return SpectralProxRequest(
        kernel=kernel,
        gamma=gamma,
        t=SymMatrix(tmat, strict=False),
        c_bar=SymMatrix(cmat, strict=False),
    )


def _matrix_objective(kernel, gamma, tmat, cmat, out):
    """Independent evaluation of phi + psi - tr(TC) + ||C - C_bar||^2/(2 gamma),
    with the whole-vector penalties on the eigenvalue vector.  The PSD cone
    of a PSD kernel is taken from kernel_eval_vec, +inf outside it."""
    lam = np.linalg.eigvalsh(out)
    if kernel.psd and math.isinf(kernel_eval_vec(kernel, lam)):
        return math.inf
    phi = float(np.sum(phi_value(kernel.divergence.kind, kernel.divergence.sigma2, lam)))
    pen = kernel.penalty
    if pen.kind == "fro_norm":
        psi = pen.mu * float(np.linalg.norm(lam))
    elif pen.kind == "fro_ball":
        psi = 0.0 if np.linalg.norm(lam) <= pen.alpha + 1e-9 else math.inf
    elif pen.kind == "spectral_norm":
        psi = pen.mu * float(np.abs(lam).max())
    elif pen.kind == "eig_box":
        # recomposition dust at a bound the prox sits on
        psi = 0.0 if lam.min() >= pen.alpha - 1e-9 and lam.max() <= pen.beta + 1e-9 else math.inf
    else:
        psi = float(np.sum(psi_value(pen, lam)))
    return (
        phi
        + psi
        - float(np.sum(tmat * out))
        + float(np.sum((out - cmat) ** 2)) / (2.0 * gamma)
    )


def test_unpenalized_half_square_scales():
    rng = np.random.default_rng(0)
    c = rand_sym(rng, 5)
    for g in (0.3, 1.0, 2.7):
        req = _request(ScalarKernel(HS, Penalty.none()), g, np.zeros((5, 5)), c)
        out = prox_spectral(req)
        assert np.allclose(out.mat, c / (1.0 + g), atol=1e-12)


def test_one_by_one_reduces_to_kernel_prox():
    rng = np.random.default_rng(1)
    kernels = [
        ScalarKernel(BURG, Penalty.nuclear(0.4)),
        ScalarKernel(HS, Penalty.schatten(0.3, 3)),
        ScalarKernel(SHANNON, Penalty.none()),
        ScalarKernel(Divergence.noisy_burg(0.2), Penalty.inv_schatten(0.1, 1.0)),
    ]
    for k in kernels:
        for _ in range(5):
            cbar = float(rng.uniform(-2, 3))
            t = float(rng.uniform(-1, 1))
            g = float(rng.uniform(0.2, 2.0))
            req = _request(k, g, np.array([[t]]), np.array([[cbar]]))
            out = prox_spectral(req)
            (expect,) = kernel_prox(k, g, cbar + g * t)
            assert out.mat[0, 0] == pytest.approx(expect, rel=1e-14, abs=1e-14)


def test_random_search_cannot_beat_prox_n3():
    rng = np.random.default_rng(2)
    kernels = [
        ScalarKernel(HS, Penalty.nuclear(0.5)),
        ScalarKernel(BURG, Penalty.nuclear(0.3)),
        ScalarKernel(SHANNON, Penalty.fro_squared(0.4)),
        ScalarKernel(HS, Penalty.nuclear(0.5), psd=True),
        ScalarKernel(HS, Penalty.fro_norm(0.5), psd=True),
        ScalarKernel(HS, Penalty.fro_ball(0.5), psd=True),
        ScalarKernel(HS, Penalty.spectral_norm(0.5), psd=True),
        ScalarKernel(HS, Penalty.eig_box(-0.5, 1.5), psd=True),
    ]
    for k in kernels:
        cbar = rand_sym(rng, 3) + 2.0 * np.eye(3)
        if k.psd:
            # mixed signs, the negative eigenvalue largest in magnitude: the
            # cone binds, and on the whole-vector rows it couples the eigenvalues
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cbar = (q * [1.0, -0.5, -2.0]) @ q.T
        tmat = rand_sym(rng, 3, scale=0.5)
        g = 0.9
        lam = np.linalg.eigvalsh(cbar + g * tmat)
        assert not k.psd or (lam[0] < -0.1 and 0.1 < lam[-1] < -lam[0])
        out = prox_spectral(_request(k, g, tmat, cbar)).mat
        f_out = _matrix_objective(k, g, tmat, cbar, out)
        for _ in range(10000):
            trial = out + rand_sym(rng, 3, scale=rng.uniform(0.001, 1.0))
            # a random step mostly leaves the cone; its projection stays in it
            w, v = np.linalg.eigh(trial)
            for x in (trial, (v * np.maximum(w, 0.0)) @ v.T) if k.psd else (trial,):
                assert f_out <= _matrix_objective(k, g, tmat, cbar, x) + 1e-8


def test_orthogonal_equivariance():
    rng = np.random.default_rng(3)
    k = ScalarKernel(HS, Penalty.schatten(0.4, 3))
    cbar = rand_sym(rng, 6)
    tmat = rand_sym(rng, 6, scale=0.3)
    out = prox_spectral(_request(k, 0.7, tmat, cbar)).mat
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    out_rot = prox_spectral(_request(k, 0.7, q @ tmat @ q.T, q @ cbar @ q.T)).mat
    assert np.linalg.norm(out_rot - q @ out @ q.T) <= 1e-8


def test_output_commutes_with_input():
    rng = np.random.default_rng(4)
    k = ScalarKernel(BURG, Penalty.fro_squared(0.2))
    cbar = rand_spd(rng, 5)
    tmat = rand_sym(rng, 5, scale=0.2)
    g = 1.1
    out = prox_spectral(_request(k, g, tmat, cbar)).mat
    m = cbar + g * tmat
    assert np.linalg.norm(out @ m - m @ out) <= 1e-8


def test_psd_clips_eigenvalues():
    rng = np.random.default_rng(5)
    cbar = rand_sym(rng, 6) - 2.0 * np.eye(6)
    req = _request(ScalarKernel(HS, Penalty.nuclear(0.2), psd=True), 1.0, np.zeros((6, 6)), cbar)
    out = prox_spectral(req)
    assert np.linalg.eigvalsh(out.mat)[0] >= -1e-12


def test_brute_force_2x2_sample():
    # light version; the full per-family sweep runs in the acceptance suite
    from _oracles import brute_force_2x2, eig2

    rng = np.random.default_rng(6)
    for k in (ScalarKernel(HS, Penalty.nuclear(0.5)), ScalarKernel(BURG, Penalty.none())):
        cbar = rand_sym(rng, 2) + 1.5 * np.eye(2)
        tmat = rand_sym(rng, 2, scale=0.4)
        g = 0.8
        out = prox_spectral(_request(k, g, tmat, cbar)).mat
        f_out = _matrix_objective(k, g, tmat, cbar, out)

        def obj3(x, y, z, k=k, cbar=cbar, tmat=tmat, g=g):
            l1, l2 = eig2(x, y, z)
            phis = phi_value(k.divergence.kind, k.divergence.sigma2, l1) + phi_value(
                k.divergence.kind, k.divergence.sigma2, l2
            )
            psis = psi_value(k.penalty, l1) + psi_value(k.penalty, l2)
            tr = tmat[0, 0] * x + tmat[1, 1] * y + 2.0 * tmat[0, 1] * z
            quad = (
                (x - cbar[0, 0]) ** 2 + (y - cbar[1, 1]) ** 2 + 2.0 * (z - cbar[0, 1]) ** 2
            ) / (2.0 * g)
            return phis + psis - tr + quad

        f_brute = brute_force_2x2(obj3, span=5.0).value
        assert abs(f_out - f_brute) <= 1e-6


# --- Bregman divergences -----------------------------------------------------


def test_bregman_zero_at_anchor():
    rng = np.random.default_rng(7)
    y = rand_spd(rng, 4)
    for div in (HS, BURG, SHANNON, Divergence.noisy_burg(0.4)):
        assert bregman_div(div, y, y) == pytest.approx(0.0, abs=1e-10)


def test_bregman_burg_example():
    d = bregman_div(BURG, 2.0 * np.eye(2), np.eye(2))
    assert d == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)


def test_bregman_half_square_unit_direction():
    c = np.eye(3)
    y = c.copy()
    y[0, 1] = y[1, 0] = 0.5 * math.sqrt(2.0) / 2.0  # ||C - Y||_F = 1... build directly
    e = np.zeros((3, 3))
    e[0, 1] = e[1, 0] = math.sqrt(0.5)
    assert np.linalg.norm(e) == pytest.approx(1.0)
    assert bregman_div(HS, c + e, c) == pytest.approx(0.5, abs=1e-12)


def test_bregman_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = rand_spd(rng, n)
        y = rand_spd(rng, n)
        for div in (BURG, SHANNON, HS):
            assert bregman_div(div, c, y) >= -1e-9


def test_bregman_domain_error():
    with pytest.raises(DomainError):
        bregman_div(BURG, np.eye(2), np.diag([1.0, -0.5]))
    # c outside the domain gives +inf, not an error
    assert bregman_div(BURG, np.diag([1.0, -1.0]), np.eye(2)) == math.inf


# --- Bregman proxes ----------------------------------------------------------


def test_bregman_prox_identity_when_unpenalized():
    rng = np.random.default_rng(9)
    y = rand_spd(rng, 4)
    for div in (HS, BURG, SHANNON):
        out = bregman_prox(div, Penalty.none(), y)
        assert np.allclose(out.mat, y, atol=1e-10)


def test_bregman_prox_half_square_nuclear_is_svt():
    rng = np.random.default_rng(10)
    y = rand_sym(rng, 5)
    mu = 0.6
    out = bregman_prox(HS, Penalty.nuclear(mu), y)
    e = eig_sym(y)
    svt = (e.u * soft(mu, e.lam)) @ e.u.T
    assert np.linalg.norm(out.mat - svt) <= 1e-10


def test_bregman_prox_burg_nuclear_matches_golden():
    y = np.diag([2.0, 3.0])
    mu = 0.7
    out = bregman_prox(BURG, Penalty.nuclear(mu), y)
    got = np.sort(np.diag(out.mat))
    for i, yv in enumerate([2.0, 3.0]):
        def breg_obj(d, yv=yv):
            if d <= 0:
                return math.inf
            return mu * d + (-math.log(d) + math.log(yv) + (d - yv) / yv)

        ref = golden_min(breg_obj, 1e-6, 10.0)
        assert got[i] == pytest.approx(ref, abs=1e-6)
        # closed form y/(1 + mu*y)
        assert got[i] == pytest.approx(yv / (1.0 + mu * yv), rel=1e-12)


@pytest.mark.parametrize("pen", [Penalty.nuclear(1e308), Penalty.schatten(1e308, 1.0)], ids=["nuclear", "schatten1"])
@pytest.mark.parametrize("y, expect", [
    # mu*y overflowed in y/(1 + mu*y), which gave 0, outside Burg's domain
    ([3.0, 0.5], [1e-308, 1e-308]),
    # 1/y overflows at a subnormal eigenvalue; the prox is y/(1 + 1e-2)
    ([1e-310, 2.0], [1e-310 / 1.01, 1e-308]),
], ids=["anchor", "subnormal_anchor"])
def test_bregman_prox_burg_linear_row_at_extreme_weight(pen, y, expect):
    out = bregman_prox(BURG, pen, np.diag(y))
    np.testing.assert_allclose(np.sort(np.diag(out.mat)), expect, rtol=1e-12, atol=0.0)


def test_bregman_prox_shannon_nuclear():
    y = np.diag([1.0, 4.0])
    out = bregman_prox(SHANNON, Penalty.nuclear(0.5), y)
    assert np.allclose(np.sort(np.diag(out.mat)), np.array([1.0, 4.0]) * math.exp(-0.5))


def test_bregman_prox_rejections():
    y = np.eye(3)
    with pytest.raises(ConfigurationError):
        bregman_prox(Divergence.noisy_burg(0.1), Penalty.none(), y)
    with pytest.raises(ConfigurationError):
        bregman_prox(HS, Penalty.rank(0.5), y)
    with pytest.raises(DomainError):
        bregman_prox(BURG, Penalty.nuclear(0.5), np.diag([1.0, -1.0]))


def test_bregman_prox_stays_in_domain():
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rand_spd(rng, 4)
        for div, pen in (
            (BURG, Penalty.fro_squared(0.4)),
            (BURG, Penalty.schatten(0.3, 3.0)),
            (BURG, Penalty.inv_schatten(0.2, 1.0)),
            (SHANNON, Penalty.fro_squared(0.4)),
            (SHANNON, Penalty.schatten(0.3, 2.5)),
        ):
            out = bregman_prox(div, pen, y)
            assert np.linalg.eigvalsh(out.mat)[0] > 0


def test_bregman_prox_scalar_oracle_sweep():
    # per-eigenvalue check: psi(d) + D_phi(d, y) minimized, via golden section
    rng = np.random.default_rng(12)
    cases = [
        (BURG, Penalty.fro_squared(0.5)),
        (BURG, Penalty.schatten(0.4, 3.0)),
        (BURG, Penalty.inv_schatten(0.3, 1.5)),
        (SHANNON, Penalty.fro_squared(0.3)),
        (SHANNON, Penalty.schatten(0.5, 3.0)),
        (HS, Penalty.schatten(0.5, 3.0)),
        (HS, Penalty.eig_box(0.2, 1.4)),
    ]
    for div, pen in cases:
        yv = float(rng.uniform(0.3, 4.0))
        out = bregman_prox(div, pen, np.array([[yv]]))
        d = out.mat[0, 0]

        def breg_obj(x):
            px = float(psi_value(pen, np.array([x]))[0])
            if math.isinf(px):
                return math.inf
            fx = float(phi_value(div.kind, div.sigma2, np.array([x]))[0])
            fy = float(phi_value(div.kind, div.sigma2, np.array([yv]))[0])
            if div.kind == "half_square":
                gy = yv
            elif div.kind == "burg":
                gy = -1.0 / yv
            else:
                gy = math.log(yv) + 1.0
            return px + fx - fy - gy * (x - yv)

        ref = golden_min(breg_obj, 1e-9, yv + 10.0)
        assert breg_obj(d) <= breg_obj(ref) + 1e-6
