import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from symprox import (
    ConfigurationError,
    Divergence,
    DomainError,
    Penalty,
    ScalarKernel,
    BracketingError,
    NumericError,
    bregman_prox,
    hard,
    kernel_eval,
    kernel_eval_vec,
    kernel_prox,
    kernel_prox_vec,
    lambert_w,
    parse_kernel,
    project_l1_ball,
    soft,
)
from symprox import scalarprox
from symprox.scalarprox import _PEN_PARAMS, _newton_bisect_vec, _stationarity, _w_exp

from _oracles import (
    golden_min,
    l1_projection_kkt,
    phi_slope,
    phi_value,
    psi_slope,
    psi_value,
    scalar_prox_oracle,
)

HS = Divergence.half_square()
BURG = Divergence.burg()
SHANNON = Divergence.shannon()


def _obj(k, gamma, lam, d):
    arr = np.array([d])
    return float(
        0.5 * (d - lam) ** 2
        + gamma
        * (
            phi_value(k.divergence.kind, k.divergence.sigma2, arr)
            + psi_value(k.penalty, arr)
        )[0]
    )


# --- thresholds -----------------------------------------------------------


def test_soft_examples():
    assert soft(1.0, 2.0) == 1.0
    assert soft(1.0, -0.5) == 0.0
    assert np.allclose(soft(0.5, np.array([2.0, -2.0, 0.1])), [1.5, -1.5, 0.0])


def test_hard_boundary_is_zero():
    assert hard(1.0, 1.0) == 0.0
    assert hard(1.0, -1.0) == 0.0
    assert hard(1.0, 1.0 + 1e-12) == 1.0 + 1e-12
    assert np.allclose(hard(0.5, np.array([0.4, 0.6])), [0.0, 0.6])


# --- Lambert W ------------------------------------------------------------


def test_lambert_trivial():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)


def test_lambert_residual_example():
    w = lambert_w(10.0)
    assert abs(w * math.exp(w) - 10.0) <= 1e-11


def test_lambert_domain_error():
    with pytest.raises(DomainError):
        lambert_w(-1.0)
    assert lambert_w(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_residual_sweep_and_scipy():
    xs = np.concatenate(
        [
            -np.exp(-1.0) + np.geomspace(1e-12, 0.3, 25),
            np.geomspace(1e-12, 1e12, 60),
            [-0.1, -0.25, -0.35, 0.5, 2.0],
        ]
    )
    for x in xs:
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        ref = float(scipy.special.lambertw(float(x)).real)
        assert w == pytest.approx(ref, abs=2e-9, rel=1e-9)


# --- l1-ball projection ----------------------------------------------------


def test_project_l1_inside_is_identity():
    v = np.array([0.2, -0.3, 0.1])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_project_l1_axis():
    assert np.allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])


def test_project_l1_matches_kkt_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.normal(size=20) * rng.uniform(0.5, 3.0)
        radius = rng.uniform(0.1, 4.0)
        got = project_l1_ball(v, radius)
        ref = l1_projection_kkt(v, radius)
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert np.abs(got).sum() <= radius + 1e-12


def test_project_l1_radius_below_rounding():
    # u[0] - radius rounds to u[0], so no index passes the sort-based test (it
    # raised IndexError); the projection, radius*e_1 up to rounding, rounds to 0
    radius = 1e-20
    got = project_l1_ball(np.array([3.0, -1.0]), radius)
    assert np.abs(got).sum() <= radius
    assert np.max(np.abs(got - [radius, 0.0])) <= radius


def test_project_l1_rejects_bad_radius():
    with pytest.raises(ConfigurationError):
        project_l1_ball(np.ones(3), 0.0)


# --- kernel evaluation ------------------------------------------------------


def test_kernel_eval_examples():
    assert kernel_eval(ScalarKernel(BURG, Penalty("none")), 1.0) == 0.0
    k = ScalarKernel(HS, Penalty("nuclear", mu=2.0))
    assert kernel_eval(k, -3.0) == pytest.approx(10.5, abs=1e-14)
    kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty("none"))
    assert kernel_eval(kn, 2.0) == -math.log(2.0)


# sigma2 = 0 parity grid: noisy Burg there is Burg, to the last bit
_PARITY_GAMMAS = (0.05, 0.3, 1.0, 2.0, 7.0)
_PARITY_MUS = (1e-3, 0.005, 0.3, 1.0, 20.0)
_PARITY_LAMS = np.concatenate([-np.logspace(12, -8, 1500), [0.0], np.logspace(-8, 12, 1500)])


def test_noisy_with_zero_sigma_matches_burg_exactly():
    kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty("none"))
    kb = ScalarKernel(BURG, Penalty("none"))
    for lam in (*_PARITY_LAMS, math.inf):
        assert kernel_eval(kn, lam) == kernel_eval(kb, lam)
    pos = _PARITY_LAMS[_PARITY_LAMS > 0]
    assert kernel_eval_vec(kn, pos) == kernel_eval_vec(kb, pos)
    for g in _PARITY_GAMMAS:
        np.testing.assert_array_equal(
            kernel_prox_vec(kn, g, _PARITY_LAMS), kernel_prox_vec(kb, g, _PARITY_LAMS)
        )


def test_kernel_eval_outside_domain_is_inf():
    assert kernel_eval(ScalarKernel(BURG, Penalty("none")), -1.0) == math.inf
    # an infinite eigenvalue is outside the Burg family's domain, without a warning
    assert kernel_eval(ScalarKernel(BURG, Penalty("none")), math.inf) == math.inf
    assert kernel_eval(ScalarKernel(Divergence.noisy_burg(0.5), Penalty("none")), math.inf) == math.inf
    assert kernel_eval(ScalarKernel(SHANNON, Penalty("none")), -0.1) == math.inf
    assert kernel_eval(ScalarKernel(SHANNON, Penalty("none")), 0.0) == 0.0
    k = ScalarKernel(HS, Penalty("inv_schatten", mu=1.0, p=1.0))
    assert kernel_eval(k, 0.0) == math.inf


# --- prox examples from closed forms ---------------------------------------


def test_prox_burg_unpenalized_at_zero():
    (d,) = kernel_prox(ScalarKernel(BURG, Penalty("none")), 1.0, 0.0)
    assert d == pytest.approx(1.0, abs=1e-14)


def test_prox_hs_nuclear_example():
    k = ScalarKernel(HS, Penalty("nuclear", mu=0.5))
    (d,) = kernel_prox(k, 0.7, 1.3)
    expect = soft(0.35 / 1.7, 1.3 / 1.7)
    assert d == pytest.approx(expect, abs=1e-15)
    assert d == pytest.approx(0.5588235, abs=1e-7)
    # cross-check by golden-section minimization (x-resolution ~ sqrt(eps))
    x = golden_min(lambda t: _obj(k, 0.7, 1.3, t), -5.0, 5.0)
    assert d == pytest.approx(x, abs=1e-6)


def test_prox_noisy_reduces_to_burg():
    k = ScalarKernel(Divergence.noisy_burg(0.0), Penalty("none"))
    for lam, g in ((0.0, 1.0), (2.0, 0.5), (-1.5, 2.0)):
        (d,) = kernel_prox(k, g, lam)
        assert d == pytest.approx(0.5 * (lam + math.sqrt(lam * lam + 4 * g)), rel=1e-14)


def test_prox_noisy_sigma_zero_matches_burg_inv_schatten():
    # with sigma2 = 0 and mu0 > 0 both kernels solve the same cubic with the same arithmetic
    for mu in _PARITY_MUS:
        kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty("inv_schatten", mu=mu, p=1.0))
        kb = ScalarKernel(BURG, Penalty("inv_schatten", mu=mu, p=1.0))
        for g in _PARITY_GAMMAS:
            np.testing.assert_array_equal(
                kernel_prox_vec(kn, g, _PARITY_LAMS), kernel_prox_vec(kb, g, _PARITY_LAMS)
            )


# --- root solver -----------------------------------------------------------


def _cubic(d):
    return d**3 - 2.0, 3 * d * d


def test_root_linear():
    x = _newton_bisect_vec(lambda d: (d - 1.0, np.ones_like(d)), np.array([2.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_root_cubic():
    # an unusable derivative leaves bisection alone to find the root
    x = _newton_bisect_vec(lambda d: (d**3 - 2.0, np.full_like(d, np.nan)), np.array([2.0]))
    assert x[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_root_with_derivative():
    x = _newton_bisect_vec(_cubic, np.array([2.0, 0.5]))
    assert np.allclose(x, 2.0 ** (1.0 / 3.0), rtol=1e-12, atol=0.0)


def test_root_hi_doubles():
    # roots at 10 and 1e5 lie above the starting upper end 1
    roots = np.array([10.0, 1e5, 0.5])
    x = _newton_bisect_vec(lambda d: (d - roots, np.ones_like(d)), np.ones(3))
    assert np.allclose(x, roots, rtol=1e-12, atol=0.0)


def test_root_bad_bracket():
    with pytest.raises(BracketingError):
        _newton_bisect_vec(lambda d: (d + 1.0, np.ones_like(d)), np.array([2.0]))
    # h < 0 on all of [0, inf): there is no upper end
    with pytest.raises(BracketingError):
        _newton_bisect_vec(lambda d: (-1.0 / (1.0 + d), (1.0 + d) ** -2), np.array([1.0]))


def test_root_unconverged_raises():
    with pytest.raises(NumericError, match="1 of 1 elements did not converge in 2 steps"):
        _newton_bisect_vec(_cubic, np.array([2.0]), max_iter=2)


def _counted(hdh, counter):
    def wrapped(d):
        counter.append(1)
        return hdh(d)

    return wrapped


@pytest.mark.parametrize("root, bracketing", [(0.7, 2), (10.0, 5)])
def test_root_linear_accepts_converged_newton_step(root, bracketing):
    # Newton is exact on a linear h: the first step lands on the root, and
    # the next step, which stays there, must be accepted although it lies
    # on an end of the bracket.  Bracketing evaluates h(0) and h(hi), with
    # hi doubled from 2 until h(hi) >= 0.
    evals = []
    x = _newton_bisect_vec(_counted(lambda d: (d - root, np.ones_like(d)), evals), np.array([2.0]))
    assert x[0] == pytest.approx(root, rel=1e-15)
    assert len(evals) - bracketing <= 3


def _route(monkeypatch):
    # count the monotone Newton's calls and evaluations; fail on a bracketed call
    evals, calls, bracketed = [], [], []
    up = scalarprox._newton_up_vec

    def counting(hdh, x, *args, **kwargs):
        calls.append(1)
        return up(_counted(hdh, evals), x, *args, **kwargs)

    monkeypatch.setattr(scalarprox, "_newton_up_vec", counting)
    monkeypatch.setattr(scalarprox, "_newton_bisect_vec", lambda *a, **kw: bracketed.append(1))
    return evals, calls, bracketed


def test_root_evaluations_on_the_mm_inner_row(monkeypatch):
    # the prox each majorize-minimize inner iteration root-solves, noisy
    # Burg plus inverse Schatten p = 1, runs the monotone Newton from the
    # shifted Burg root: no bracketed solve, at most 6 evaluations per call
    evals, calls, bracketed = _route(monkeypatch)
    k = ScalarKernel(Divergence.noisy_burg(0.04), Penalty("inv_schatten", mu=0.005, p=1.0))
    lam = np.random.default_rng(0).uniform(-1.0, 3.0, 100)
    kernel_prox_vec(k, 1.0, lam)
    assert not bracketed
    assert calls and len(evals) / len(calls) <= 6


def test_root_evaluations_on_the_moved_rows(monkeypatch):
    # the Bregman Burg inverse-Schatten row climbs from the anchor and the
    # unpenalized noisy-Burg kernel row from the shifted Burg root: no
    # bracketed solve, at most 7 and 4 evaluations per call (7 and 3 here;
    # 6 or 7 and 3 on seeds 0-5)
    rng = np.random.default_rng(0)
    evals, calls, bracketed = _route(monkeypatch)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    bregman_prox(BURG, Penalty("inv_schatten", mu=0.2, p=1.0), (q * rng.uniform(0.2, 3.0, 30)) @ q.T)
    assert not bracketed
    assert calls and len(evals) / len(calls) <= 7
    evals.clear()
    calls.clear()
    kernel_prox_vec(
        ScalarKernel(Divergence.noisy_burg(0.04), Penalty("none")), 1.0, rng.uniform(-2.5, 2.5, 30)
    )
    assert not bracketed
    assert calls and len(evals) / len(calls) <= 4


def test_monotone_newton_reports_failure():
    # concave increasing h = 2 - 1/d from below its root 0.5: unconverged
    # after two steps; a flat tangent sends the step out of the floats
    h = lambda d: (2.0 - 1.0 / d, 1.0 / (d * d))  # noqa: E731
    assert scalarprox._newton_up_vec(h, np.array([0.1]))[0] == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(NumericError, match="1 of 1 elements did not converge in 2 steps"):
        scalarprox._newton_up_vec(h, np.array([1e-3]), max_iter=2)
    with pytest.raises(NumericError, match="1 of 2 elements left the finite floats"):
        scalarprox._newton_up_vec(lambda d: (d - 1.0, np.where(d < 0.5, 0.0, 1.0)), np.array([0.0, 0.7]))


_MONOTONE_LAMS = np.concatenate([-np.logspace(8, -8, 9), [0.0], np.logspace(-8, 8, 9)])
_MONOTONE_ANCHORS = np.logspace(-8, 8, 17)


@pytest.mark.parametrize("s2", [0.0, 0.04, 1.0])
def test_monotone_newton_rows_match_the_bracketed_solver(monkeypatch, s2):
    # the Burg-family rows that _root_vec solves by Newton from the root of
    # the bound lin*d - (target - s2) - 1/d: the inverse-Schatten kernel rows
    # (Burg at s2 = 0), the unpenalized noisy-Burg kernel row (s2 > 0) and the
    # Bregman Burg inverse-Schatten row (s2 = 0; lin = 0, started at the
    # anchor).  No iterate passes the root, and the root agrees with the
    # bracketed solver's within 2e-15 relative
    div = Divergence.noisy_burg(s2) if s2 else BURG
    lam = _MONOTONE_LAMS
    rows = []  # (penalty, lin, target, hi)
    pens = [Penalty("inv_schatten", mu=mu, p=p) for p in (0.5, 1.0, 2.0) for mu in (1e-3, 1.0)]
    pens += [Penalty("none")] if s2 else []
    for g in (0.05, 1.0, 7.0):
        rows += [(pen, 1.0 / g, lam / g, np.maximum(lam, 0.0) + 1.0) for pen in pens]
    if not s2:
        y = _MONOTONE_ANCHORS
        pens = [Penalty("inv_schatten", mu=mu, p=p)
                for p in (0.5, 0.7, 1.0, 2.0, 2.2) for mu in (1e-8, 1e-3, 1.0, 1e4)]
        rows += [(pen, 0.0, -1.0 / y, y) for pen in pens]
    iterates = []
    up = scalarprox._newton_up_vec

    def recording(hdh, x, *args, **kwargs):
        def wrapped(d):
            iterates.append(d)
            return hdh(d)

        return up(wrapped, x, *args, **kwargs)

    monkeypatch.setattr(scalarprox, "_newton_up_vec", recording)
    for pen, lin, target, hi in rows:
        iterates.clear()
        d = scalarprox._root_vec(div, pen, lin, target, hi)
        ref = _newton_bisect_vec(_stationarity(div, pen, lin, target), hi)
        assert np.all(np.abs(d - ref) <= 2e-15 * ref), (pen, lin, d, ref)
        assert iterates and all(np.all(x <= d * (1.0 + 2e-15)) for x in iterates), (pen, lin)


def test_schatten3_implicit_matches_closed_form():
    mu, g = 0.5, 0.8
    k = ScalarKernel(HS, Penalty("schatten", mu=mu, p=3.0))
    for lam in (-2.5, -0.3, 0.0, 0.7, 3.1):
        (closed,) = kernel_prox(k, g, lam)
        al = abs(lam)
        t = scipy.optimize.brentq(
            lambda d: mu * g * 3 * d * d + (g + 1) * d - al, 0.0, al / (g + 1) + 1.0,
            xtol=1e-15, rtol=1e-15,
        )
        assert closed == pytest.approx(math.copysign(t, lam) if lam else 0.0, abs=1e-10)


# --- noisy-Burg quartic -----------------------------------------------------


def prox_noisy_burg_quartic(gamma, mu0, sigma2, lam):
    """The noisy-Burg row with penalty mu0/d (none when mu0 = 0) at one
    eigenvalue, through kernel_prox_vec."""
    pen = Penalty("inv_schatten", mu=mu0, p=1.0) if mu0 > 0 else Penalty("none")
    k = ScalarKernel(Divergence.noisy_burg(sigma2), pen)
    return float(kernel_prox_vec(k, gamma, [lam])[0])


def test_quartic_trivial_reductions():
    assert prox_noisy_burg_quartic(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for lam, g in ((1.7, 0.4), (-2.0, 1.3)):
        assert prox_noisy_burg_quartic(g, 0.0, 0.0, lam) == pytest.approx(
            0.5 * (lam + math.sqrt(lam * lam + 4 * g)), rel=1e-14
        )


def test_quartic_against_grid_oracle():
    g, mu0, s2, lam = 1.0, 0.1, 0.04, 2.0
    d = prox_noisy_burg_quartic(g, mu0, s2, lam)
    pen = Penalty("inv_schatten", mu=mu0, p=1.0)
    ref = scalar_prox_oracle("noisy_burg", s2, pen, g, lam)
    val = float(
        0.5 * (d - lam) ** 2
        + g * (phi_value("noisy_burg", s2, np.array([d]))[0] + mu0 / d)
    )
    assert abs(val - ref) <= 1e-6


def test_quartic_derivation_sweep():
    # the root must satisfy the degree-4 stationarity polynomial and beat a
    # dense-grid search, across a parameter sweep
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = float(rng.uniform(0.1, 2.5))
        mu0 = float(rng.uniform(0.0, 0.8))
        s2 = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(-3.0, 4.0))
        d = prox_noisy_burg_quartic(g, mu0, s2, lam)
        assert d > 0
        poly = (
            s2 * d**4
            + (1.0 - lam * s2) * d**3
            - lam * d**2
            - g * (1.0 + mu0 * s2) * d
            - g * mu0
        )
        scale = max(1.0, abs(lam) ** 3, g)
        assert abs(poly) <= 1e-8 * scale
        pen = Penalty("inv_schatten", mu=mu0, p=1.0) if mu0 > 0 else Penalty("none")
        ref = scalar_prox_oracle("noisy_burg", s2, pen, g, lam)
        val = float(
            0.5 * (d - lam) ** 2
            + g
            * (
                phi_value("noisy_burg", s2, np.array([d]))
                + psi_value(pen, np.array([d]))
            )[0]
        )
        assert val <= ref + 1e-6


# --- oracle equivalence across the kernel catalog ---------------------------


def _catalog(rng):
    mu = float(rng.uniform(0.05, 1.5))
    eps = float(rng.uniform(0.05, 1.0))
    al = float(rng.uniform(-1.0, 0.5))
    be = al + float(rng.uniform(0.2, 2.0))
    s2 = float(rng.uniform(0.0, 0.8))
    kernels = [
        ScalarKernel(HS, Penalty("none")),
        ScalarKernel(HS, Penalty("nuclear", mu=mu)),
        ScalarKernel(HS, Penalty("fro_squared", mu=mu)),
        ScalarKernel(HS, Penalty("schatten", mu=mu, p=3.0)),
        ScalarKernel(HS, Penalty("schatten", mu=mu, p=4.0)),
        ScalarKernel(HS, Penalty("schatten", mu=mu, p=4.0 / 3.0)),
        ScalarKernel(HS, Penalty("schatten", mu=mu, p=1.5)),
        ScalarKernel(HS, Penalty("schatten", mu=mu, p=2.7)),
        ScalarKernel(HS, Penalty("inv_schatten", mu=mu, p=1.0)),
        ScalarKernel(HS, Penalty("inv_schatten", mu=mu, p=2.2)),
        ScalarKernel(HS, Penalty("eig_box", alpha=al, beta=be)),
        ScalarKernel(HS, Penalty("rank", mu=mu)),
        ScalarKernel(HS, Penalty("cauchy", mu=mu, eps=eps)),
        ScalarKernel(BURG, Penalty("none")),
        ScalarKernel(BURG, Penalty("nuclear", mu=mu)),
        ScalarKernel(BURG, Penalty("fro_squared", mu=mu)),
        ScalarKernel(BURG, Penalty("schatten", mu=mu, p=3.0)),
        ScalarKernel(BURG, Penalty("schatten", mu=mu, p=1.8)),
        ScalarKernel(BURG, Penalty("inv_schatten", mu=mu, p=1.0)),
        ScalarKernel(BURG, Penalty("inv_schatten", mu=mu, p=0.7)),
        ScalarKernel(BURG, Penalty("eig_box", alpha=max(al, 0.0), beta=max(al, 0.0) + be - al)),
        ScalarKernel(BURG, Penalty("cauchy", mu=mu, eps=eps)),
        ScalarKernel(SHANNON, Penalty("none")),
        ScalarKernel(SHANNON, Penalty("nuclear", mu=mu)),
        ScalarKernel(SHANNON, Penalty("fro_squared", mu=mu)),
        ScalarKernel(SHANNON, Penalty("schatten", mu=mu, p=3.0)),
        ScalarKernel(SHANNON, Penalty("eig_box", alpha=max(al, 0.0), beta=max(al, 0.0) + be - al)),
        ScalarKernel(SHANNON, Penalty("rank", mu=mu)),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty("none")),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty("inv_schatten", mu=mu, p=1.0)),
    ]
    return kernels


def test_prox_oracle_equivalence_sample():
    rng = np.random.default_rng(17)
    for _ in range(12):
        for k in _catalog(rng):
            lam = float(rng.uniform(-4.0, 4.0))
            g = float(rng.uniform(0.05, 3.0))
            ref = scalar_prox_oracle(k.divergence.kind, k.divergence.sigma2, k.penalty, g, lam)
            for d in kernel_prox(k, g, lam):
                assert _obj(k, g, lam, d) <= ref + 1e-6


def test_firm_nonexpansive_and_monotone_convex_kernels():
    rng = np.random.default_rng(23)
    convex = [
        ScalarKernel(HS, Penalty("nuclear", mu=0.6)),
        ScalarKernel(HS, Penalty("schatten", mu=0.4, p=3.0)),
        ScalarKernel(HS, Penalty("eig_box", alpha=-0.4, beta=1.1)),
        ScalarKernel(BURG, Penalty("nuclear", mu=0.5)),
        ScalarKernel(BURG, Penalty("inv_schatten", mu=0.3, p=1.0)),
        ScalarKernel(SHANNON, Penalty("nuclear", mu=0.5)),
        ScalarKernel(Divergence.noisy_burg(0.3), Penalty("inv_schatten", mu=0.2, p=1.0)),
    ]
    for k in convex:
        for _ in range(40):
            a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
            g = float(rng.uniform(0.1, 2.0))
            (pa,) = kernel_prox(k, g, float(a))
            (pb,) = kernel_prox(k, g, float(b))
            assert pa <= pb + 1e-10
            assert abs(pa - pb) <= abs(a - b) + 1e-10


def test_schatten_1_and_2_are_the_nuclear_and_fro_squared_rows():
    # mu*|d|^1 and mu*|d|^2 are the nuclear and fro_squared penalties: the
    # same bits in the kernel prox and in the Bregman prox
    lam = np.concatenate([np.linspace(-5.0, 5.0, 41), [-1e8, -1e-8, 1e-8, 1e8]])
    y = np.diag(np.logspace(-6, 6, 13))
    for mu in (0.05, 1.0, 30.0):
        for p, same in ((1.0, Penalty("nuclear", mu=mu)), (2.0, Penalty("fro_squared", mu=mu))):
            sch = Penalty("schatten", mu=mu, p=p)
            for div in (HS, BURG, SHANNON):
                for g in (0.1, 1.0, 7.0):
                    a = kernel_prox_vec(ScalarKernel(div, sch), g, lam)
                    b = kernel_prox_vec(ScalarKernel(div, same), g, lam)
                    assert np.array_equal(a, b), (div, p, mu, g)
                a, b = bregman_prox(div, sch, y).mat, bregman_prox(div, same, y).mat
                assert np.array_equal(a, b), (div, p, mu)


def _no_penalty(mu):
    return Penalty("none")


def _weighted(kind, key="mu"):
    return lambda mu: Penalty(kind, **{key: mu})


def _schatten(p):
    return lambda mu: Penalty("schatten", mu=mu, p=p)


def _inv_schatten(p):
    return lambda mu: Penalty("inv_schatten", mu=mu, p=p)


def _box(lo, hi):
    return lambda mu: Penalty("eig_box", alpha=lo * mu, beta=hi * mu)


# every convex kernel row (all but rank and Cauchy), as a penalty of the weight mu
_CONVEX_ROWS = {
    f"{div.kind}-{name}": (div, pen)
    for div, rows in (
        (HS, {"none": _no_penalty, "nuclear": _weighted("nuclear"), "fro_norm": _weighted("fro_norm"),
              "fro_squared": _weighted("fro_squared"), "fro_ball": _weighted("fro_ball", "alpha"),
              "eig_box": _box(-1.0, 2.0), "spectral_norm": _weighted("spectral_norm"),
              **{f"schatten{p:.3g}": _schatten(p) for p in (1.0, 4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0)},
              **{f"inv_schatten{p:.3g}": _inv_schatten(p) for p in (1.0, 2.2)}}),
        (BURG, {"none": _no_penalty, "nuclear": _weighted("nuclear"),
                "fro_squared": _weighted("fro_squared"), "eig_box": _box(0.5, 2.0),
                **{f"schatten{p:.3g}": _schatten(p) for p in (1.0, 1.8, 2.0, 3.0)},
                **{f"inv_schatten{p:.3g}": _inv_schatten(p) for p in (0.7, 1.0)}}),
        (SHANNON, {"none": _no_penalty, "nuclear": _weighted("nuclear"),
                   "fro_squared": _weighted("fro_squared"), "eig_box": _box(0.5, 2.0),
                   **{f"schatten{p:.3g}": _schatten(p) for p in (1.0, 1.3, 2.0, 3.0)}}),
        (Divergence.noisy_burg(0.3), {"none": _no_penalty, "inv_schatten1": _inv_schatten(1.0)}),
    )
    for name, pen in rows.items()
}
# pairs (l, l + h) with a step h of at most 1 per entry, so that a local
# slope above 1 (a prox that is not firmly nonexpansive) shows
_LAM_PAIRS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
    )
)


@pytest.mark.parametrize("row", sorted(_CONVEX_ROWS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(lams=_LAM_PAIRS, log_g=st.floats(-1.3, 1.3), mu=st.floats(0.05, 5.0))
def test_convex_rows_are_monotone_and_firmly_nonexpansive(row, lams, log_g, mu):
    # the prox of a convex function is firmly nonexpansive:
    # (d1 - d2).(l1 - l2) >= |d1 - d2|^2, which also makes it monotone
    div, pen = _CONVEX_ROWS[row]
    k = ScalarKernel(div, pen(mu))
    g = 10.0 ** log_g
    l1 = np.array(lams[0])
    l2 = l1 + np.array(lams[1])
    dd = kernel_prox_vec(k, g, l1) - kernel_prox_vec(k, g, l2)
    scale = 1.0 + l1 @ l1 + l2 @ l2
    assert dd @ (l1 - l2) >= dd @ dd - 1e-10 * scale


def test_domain_respect():
    rng = np.random.default_rng(29)
    for _ in range(50):
        lam = float(rng.uniform(-5.0, 5.0))
        g = float(rng.uniform(0.1, 2.0))
        for k in (
            ScalarKernel(BURG, Penalty("nuclear", mu=0.4)),
            ScalarKernel(Divergence.noisy_burg(0.2), Penalty("none")),
        ):
            (d,) = kernel_prox(k, g, lam)
            assert d > 0
        for d in kernel_prox(ScalarKernel(SHANNON, Penalty("rank", mu=0.4)), g, lam):
            assert d >= 0


def test_noisy_log_composition_midpoint_convexity():
    # -log(u(lam)) with u(lam) = lam/(1 + s2*lam) is convex on (0, inf)
    rng = np.random.default_rng(31)
    s2 = 0.37

    def f(x):
        return -math.log(x / (1.0 + s2 * x))

    for _ in range(1000):
        a, b = rng.uniform(0.01, 10.0, size=2)
        t = float(rng.uniform(0.0, 1.0))
        mid = t * a + (1 - t) * b
        assert f(mid) <= t * f(a) + (1 - t) * f(b) + 1e-12


# --- separable rows at extreme parameters --------------------------------------

_EXTREME_LAMS = np.concatenate([-np.logspace(8, -8, 17), [0.0], np.logspace(-8, 8, 17)])
_EXTREME_SCALES = (1e-4, 1e-2, 1.0, 1e2, 1e4)


def _not_beaten_nearby(f, d):
    """f(d) is not above f at d(1 +- 1e-6) or d +- 1e-9, up to 1e-9 relative."""
    f0 = f(d)
    for near in (d * (1.0 + 1e-6), d * (1.0 - 1e-6), d + 1e-9, d - 1e-9):
        with np.errstate(all="ignore"):
            assert np.all(f(near) >= f0 - 1e-9 * np.abs(f0))


def _root_within(h, d):
    """The increasing stationarity function h changes sign across [d - t, d + t],
    t = 4e-12*max(|d|, 1e-12): a root lies within t of d.  Returns the
    indices where it does not."""
    t = 4e-12 * np.maximum(np.abs(d), 1e-12)
    with np.errstate(all="ignore"):
        ok = (h(d - t) <= 0.0) & (h(d + t) >= 0.0)
    return np.flatnonzero(~ok)


def test_root_solved_kernel_rows_extreme_grid():
    # every separable row, closed-form and root-solved: its value beats its
    # neighbours and has a root of (d - lam)/g + phi'(d) + psi'(d) within t
    lam = _EXTREME_LAMS
    for g in _EXTREME_SCALES:
        for mu in _EXTREME_SCALES:
            pens = [Penalty("none"), Penalty("nuclear", mu=mu), Penalty("fro_squared", mu=mu)]
            pens += [Penalty("schatten", mu=mu, p=p)
                     for p in (1.0, 1.3, 4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0)]
            rows = [ScalarKernel(div, pen) for div in (HS, BURG, SHANNON) for pen in pens]
            rows += [ScalarKernel(div, Penalty("inv_schatten", mu=mu, p=p))
                     for div in (HS, BURG) for p in (0.7, 2.2)]
            rows += [ScalarKernel(Divergence.noisy_burg(s2), pen) for s2 in (0.0, 0.3)
                     for pen in (Penalty("none"), Penalty("inv_schatten", mu=mu, p=1.0))]
            for k in rows:
                d = kernel_prox_vec(k, g, lam)
                assert np.all(np.isfinite(d)), (k, g)
                kind, s2 = k.divergence.kind, k.divergence.sigma2

                def f(x, k=k, g=g):
                    return 0.5 * (x - lam) ** 2 + g * (
                        phi_value(kind, s2, x) + psi_value(k.penalty, x)
                    )

                def h(x, k=k, g=g):
                    return (x - lam) / g + phi_slope(kind, s2, x) + psi_slope(k.penalty, x)

                _not_beaten_nearby(f, d)
                bad = _root_within(h, d)
                assert bad.size == 0, (k, g, lam[bad], d[bad])


@pytest.mark.parametrize("g", [1e-4, 1.0, 2.0])
@pytest.mark.parametrize(
    "pen", [Penalty("fro_squared", mu=1e308), Penalty("schatten", mu=1e308, p=2.0)], ids=["frosq", "schatten2"]
)
@pytest.mark.parametrize("div", [HS, BURG, SHANNON], ids=lambda d: d.kind)
def test_quadratic_rows_at_extreme_weight(div, pen, g):
    # 1 + 2*g*mu overflowed at mu = 1e308: a math domain error for Shannon and
    # a prox of 0, outside its domain, for Burg, whose prox at lam = 1 is 1/sqrt(2 mu)
    lam = np.array([-1.0, 0.0, 1.0, 1e300])
    d = kernel_prox_vec(ScalarKernel(div, pen), g, lam)
    assert np.all(np.isfinite(d))
    if div.kind == "burg":
        assert np.all(d > 0.0) and d[2] == pytest.approx(1e-154 / math.sqrt(2.0), rel=1e-15, abs=0.0)
    if div.kind == "shannon":
        assert np.all(d >= 0.0) and d[2] > 0.0

    def h(x):  # mu*(2x): psi_slope's 2*mu overflows
        return (x - lam) / g + phi_slope(div.kind, 0.0, x) + pen.mu * (2.0 * x)

    assert _root_within(h, d).size == 0, d


@pytest.mark.parametrize("div", [HS, BURG], ids=lambda d: d.kind)
def test_quadratic_rows_rescale_without_forming_lam_over_gamma(div):
    # lam/(1 + 2*g*mu) is 5 and so is the prox (the divergence term moves it by
    # about 1e-309), but lam/g overflows; Shannon's own closed form forms lam/g
    k = ScalarKernel(div, Penalty("fro_squared", mu=1e308))
    assert kernel_prox_vec(k, 1e-4, np.array([1e305]))[0] == pytest.approx(5.0, rel=1e-15)


def _bregman_value(div_kind, pen, d, y):
    """psi(d) + D_phi(d, y) for a scalar anchor y > 0; +inf outside the domain."""
    r = d / y
    if div_kind == "burg":
        # r - 1 - log r, without the cancellation of log1p near r = 0 or of log near r = 1
        div = (r - 1.0) - np.where(np.abs(r - 1.0) < 0.5, np.log1p(r - 1.0), np.log(r))
        return np.where(d > 0, psi_value(pen, d) + div, np.inf)
    # Shannon: D(0, y) = y
    div = np.where(d > 0, d * np.log(np.where(d > 0, r, 1.0)) - d + y, y)
    return np.where(d >= 0, psi_value(pen, d) + div, np.inf)


def test_root_solved_bregman_rows_extreme_grid():
    # the closed-form and root-solved Burg and Shannon rows: the value beats
    # its neighbours and has a root of phi'(d) + psi'(d) - phi'(y) within t
    ys = np.logspace(-8, 8, 17)
    for mu in _EXTREME_SCALES:
        pens = [Penalty("nuclear", mu=mu), Penalty("fro_squared", mu=mu)]
        pens += [Penalty("schatten", mu=mu, p=p) for p in (1.0, 1.3, 2.0, 2.7)]
        rows = [(div, pen) for div in (BURG, SHANNON) for pen in pens]
        rows += [(BURG, Penalty("inv_schatten", mu=mu, p=p)) for p in (0.7, 2.2)]
        for div, pen in rows:
            d = np.array([bregman_prox(div, pen, np.array([[y]])).mat[0, 0] for y in ys])
            assert np.all(np.isfinite(d)), (div, pen)
            for i, y in enumerate(ys):
                _not_beaten_nearby(lambda x: _bregman_value(div.kind, pen, x, y), d[i:i + 1])

            def h(x, div=div, pen=pen):
                return phi_slope(div.kind, 0.0, x) + psi_slope(pen, x) - phi_slope(div.kind, 0.0, ys)

            bad = _root_within(h, d)
            assert bad.size == 0, (div, pen, ys[bad], d[bad])


def test_burg_closed_forms_at_huge_eigenvalues():
    # each row reads the positive root of d^2 - b d - c, which is b + c/b + ...
    # for b > 0 and c/|b| - c^2/|b|^3 + ... for b < 0; at |b| >= 1e150 the
    # corrections are below 1e-290 relative
    lam = np.array([s * m for m in (1e154, 1e200, 1e300) for s in (-1.0, 1.0)])
    mu = 0.3
    for g in (1e-4, 1.0, 1e4):
        q = 1.0 + 2.0 * g * mu
        rows = [
            (ScalarKernel(BURG, Penalty("none")), lam, g),
            (ScalarKernel(BURG, Penalty("nuclear", mu=mu)), lam - g * mu, g),
            (ScalarKernel(BURG, Penalty("fro_squared", mu=mu)), lam / q, g / q),
            (ScalarKernel(BURG, Penalty("eig_box", alpha=-math.inf, beta=math.inf)), lam, g),
            (ScalarKernel(Divergence.noisy_burg(0.0), Penalty("none")), lam, g),
        ]
        for k, b, c in rows:
            d = kernel_prox_vec(k, g, lam)
            assert np.all(np.isfinite(d) & (d > 0.0)), (k, g, d)
            expect = np.where(b > 0.0, b, c / np.abs(b))
            np.testing.assert_allclose(d, expect, rtol=1e-15, atol=0.0, err_msg=f"{k} g={g}")


# --- set-valued rows ---------------------------------------------------------


def test_rank_prox_candidates():
    k = ScalarKernel(HS, Penalty("rank", mu=0.5))
    g = 1.0
    tau = math.sqrt(2 * 0.5 * g / (1 + g))
    lam_boundary = tau * (1 + g)
    cands = kernel_prox(k, g, lam_boundary)
    assert len(cands) == 2 and cands[0] == 0.0
    assert kernel_prox(k, g, lam_boundary + 0.2)[0] != 0.0
    assert kernel_prox(k, g, lam_boundary - 0.2) == (0.0,)


def test_cauchy_prox_candidates_minimize():
    k = ScalarKernel(HS, Penalty("cauchy", mu=0.8, eps=0.05))
    for lam in (-2.0, 0.0, 0.4, 2.0):
        cands = kernel_prox(k, 1.2, lam)
        ref = scalar_prox_oracle("half_square", 0.0, k.penalty, 1.2, lam)
        for d in cands:
            assert _obj(k, 1.2, lam, d) <= ref + 1e-6


def test_burg_cauchy_picks_the_global_of_two_local_minima():
    k = ScalarKernel(BURG, Penalty("cauchy", mu=3.0, eps=0.01))
    g, lam = 0.1, 1.6

    def obj(t):
        return _obj(k, g, lam, t)

    low = golden_min(obj, 0.01, 0.2)
    high = golden_min(obj, 0.8, 1.5)
    assert low == pytest.approx(0.074, abs=1e-3) and high == pytest.approx(1.18, abs=1e-2)
    assert obj(low) - obj(high) == pytest.approx(1.1e-3, abs=1e-4)
    (d,) = kernel_prox(k, g, lam)
    assert d == pytest.approx(high, abs=1e-6)
    ref = scalar_prox_oracle("burg", 0.0, k.penalty, g, lam)
    assert abs(obj(d) - ref) <= 1e-9


def _cauchy_by_np_roots(k, g, lam):
    """The per-element algorithm: real roots of the stationarity polynomial
    from np.roots, then the best of them by (objective, |d|, d), scored
    with the oracle's phi and psi."""
    mu, eps = k.penalty.mu, k.penalty.eps
    if k.divergence.kind == "half_square":
        coefs = (1.0 + g, -lam, eps * (1.0 + g) + 2.0 * g * mu, -lam * eps)
        cands = {0.0}
    else:
        coefs = (1.0, -lam, eps - g + 2.0 * g * mu, -lam * eps, -g * eps)
        cands = set()
    roots = np.roots(coefs)
    real = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real))
    cands.update(float(r) for r in roots.real[real])
    return min(cands, key=lambda d: (_obj(k, g, lam, d), abs(d), d))


@pytest.mark.parametrize("div", [HS, BURG], ids=["half_square", "burg"])
def test_cauchy_rows_match_per_element_np_roots(div):
    rng = np.random.default_rng(43)
    lam = np.concatenate([rng.uniform(-2.5, 2.5, 60), [0.0, 1.6, 1e4, -1e4]])
    for mu, eps, g in ((0.3, 0.5, 1.0), (3.0, 0.01, 0.1), (0.8, 0.05, 1.2)):
        k = ScalarKernel(div, Penalty("cauchy", mu=mu, eps=eps))
        ref = np.array([_cauchy_by_np_roots(k, g, x) for x in lam.tolist()])
        got = kernel_prox_vec(k, g, lam)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (mu, eps, g)


def _burg_cauchy_small_root(g, lam, mu, eps):
    """The root of ((d - lam)d - g)(d^2 + eps) + 2 g mu d^2 in
    [g/(2|lam|), 2g/|lam|] for lam < 0, to the float: bisection on floats
    with the sign taken in exact rational arithmetic."""
    gq, lq, mq, eq = map(Fraction, (g, lam, mu, eps))

    def h(d):
        d = Fraction(d)
        return ((d - lq) * d - gq) * (d * d + eq) + 2 * gq * mq * d * d

    a, b = g / (2.0 * abs(lam)), 2.0 * g / abs(lam)
    assert h(a) < 0 < h(b)
    while a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        a, b = (m, b) if h(m) < 0 else (a, m)
    return a


def test_burg_cauchy_small_root_at_large_negative_lambda():
    mu, eps = 0.346, 0.215
    k = ScalarKernel(BURG, Penalty("cauchy", mu=mu, eps=eps))
    for g, lam in ((1.0, -1e8), (1.0, -1e10), (1.0, -1e12), (0.05, -1e12)):
        root = _burg_cauchy_small_root(g, lam, mu, eps)
        (d,) = kernel_prox(k, g, lam)
        assert abs(d - root) <= 1e-12 * root, (g, lam, d, root)
        assert kernel_prox_vec(k, g, np.array([lam, 1.0]))[0] == d


# --- configuration ------------------------------------------------------------


def test_unsupported_pairing_rejected():
    with pytest.raises(ConfigurationError):
        ScalarKernel(SHANNON, Penalty("cauchy", mu=0.5, eps=0.1))
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty("rank", mu=0.5))
    with pytest.raises(ConfigurationError):
        ScalarKernel(Divergence.noisy_burg(0.1), Penalty("inv_schatten", mu=0.5, p=2.0))
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty("fro_norm", mu=0.5))


def test_eig_box_clipped_for_positive_divergences():
    k = ScalarKernel(BURG, Penalty("eig_box", alpha=-2.0, beta=3.0))
    assert k.penalty.alpha == 0.0
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty("eig_box", alpha=-2.0, beta=-1.0))
    # a PSD kernel clips the same way
    k = ScalarKernel(HS, Penalty("eig_box", alpha=-0.5, beta=1.5), psd=True)
    assert k.penalty.alpha == 0.0 and k.psd
    with pytest.raises(ConfigurationError):
        ScalarKernel(HS, Penalty("eig_box", alpha=-1.0, beta=-0.5), psd=True)


def test_psd_kernel_rule():
    # psd is off where the domain already forces d >= 0
    for div, pen in ((BURG, Penalty("none")), (SHANNON, Penalty("none")),
                     (Divergence.noisy_burg(0.2), Penalty("none")),
                     (HS, Penalty("inv_schatten", mu=0.5, p=1.0))):
        assert not ScalarKernel(div, pen, psd=True).psd
    lam = np.array([1.5, 0.2, -0.3, -2.0])
    for pen in (Penalty("nuclear", mu=0.4), Penalty("schatten", mu=0.3, p=3.0), Penalty("rank", mu=0.1),
                Penalty("cauchy", mu=0.5, eps=0.2), Penalty("fro_norm", mu=0.5),
                Penalty("spectral_norm", mu=0.5)):
        k = ScalarKernel(HS, pen, psd=True)
        d = kernel_prox_vec(k, 0.8, lam)
        assert np.array_equal(d, kernel_prox_vec(ScalarKernel(HS, pen), 0.8, np.maximum(lam, 0.0)))
        assert d.min() >= 0.0
        assert kernel_prox(k, 0.8, -2.0) == (0.0,)
        assert kernel_eval_vec(k, d) < math.inf
        assert kernel_eval_vec(k, np.array([1.0, -1e-3])) == math.inf


def test_penalty_validation():
    with pytest.raises(ConfigurationError):
        Penalty("nuclear", mu=0.0)
    with pytest.raises(ConfigurationError):
        Penalty("schatten", mu=0.5, p=0.5)
    with pytest.raises(ConfigurationError):
        Penalty("inv_schatten", mu=0.5, p=0.0)
    with pytest.raises(ConfigurationError):
        Penalty("eig_box", alpha=2.0, beta=1.0)
    with pytest.raises(ConfigurationError):
        Penalty("cauchy", mu=0.5, eps=0.0)
    with pytest.raises(ConfigurationError):
        Divergence.noisy_burg(-0.1)


# a value every kind accepts for each penalty parameter
_PARAM_VALUES = {"mu": 0.3, "p": 1.5, "eps": 0.1, "alpha": 0.5, "beta": 2.0}


@pytest.mark.parametrize("kind", sorted(_PEN_PARAMS))
def test_penalty_takes_only_its_own_parameters(kind):
    # _PEN_PARAMS is the one declaration of a kind's parameters: the kind builds
    # from them, the kernel spec builds the same penalty, and any other
    # parameter is an error naming it unless it is 0 (its unset value)
    own = {key: _PARAM_VALUES[key] for key in _PEN_PARAMS[kind]}
    pen = Penalty(kind, **own)
    spec = " ".join(f"{key}={val}" for key, val in own.items())
    assert parse_kernel(f"penalty={kind} {spec}").penalty == pen
    for key in sorted(set(_PARAM_VALUES) - set(own)):
        assert Penalty(kind, **own, **{key: 0.0}) == pen
        with pytest.raises(ConfigurationError, match=rf"^penalty '{kind}' takes no parameter '{key}'$"):
            Penalty(kind, **own, **{key: 1.0})


def test_parse_kernel():
    k = parse_kernel("divergence=burg penalty=nuclear mu=0.2")
    assert k.divergence.kind == "burg" and k.penalty.kind == "nuclear"
    assert k.penalty.mu == 0.2
    k = parse_kernel("penalty=schatten p=3 mu=0.1")
    assert k.divergence.kind == "half_square" and k.penalty.p == 3.0
    k = parse_kernel("penalty=eigbox alpha=0 beta=10")
    assert k.penalty.alpha == 0.0 and k.penalty.beta == 10.0
    k = parse_kernel("divergence=noisyburg sigma2=0.3 penalty=inv_schatten mu=0.1 p=1")
    assert k.divergence.sigma2 == 0.3


# Every spelling of each kind, written out by hand, and the kernel that the
# spec below must build with it.
_SPEC_PARAMS = "mu=0.3 p=1.5 eps=0.1 alpha=0.5 beta=2 sigma2=0.25"
_DIV_SPELLINGS = [
    (("half_square", "halfsquare", "hs"), Divergence.half_square()),
    (("burg",), Divergence.burg()),
    (("shannon",), Divergence.shannon()),
    (("noisy_burg", "noisyburg"), Divergence.noisy_burg(0.25)),
]
_PEN_SPELLINGS = [
    (("none",), Penalty("none")),
    (("nuclear",), Penalty("nuclear", mu=0.3)),
    (("fro_norm", "fro"), Penalty("fro_norm", mu=0.3)),
    (("fro_squared", "frosq"), Penalty("fro_squared", mu=0.3)),
    (("schatten",), Penalty("schatten", mu=0.3, p=1.5)),
    (("inv_schatten", "invschatten"), Penalty("inv_schatten", mu=0.3, p=1.5)),
    (("fro_ball", "froball"), Penalty("fro_ball", alpha=0.5)),
    (("eig_box", "eigbox"), Penalty("eig_box", alpha=0.5, beta=2.0)),
    (("rank",), Penalty("rank", mu=0.3)),
    (("cauchy",), Penalty("cauchy", mu=0.3, eps=0.1)),
    (("spectral_norm", "spectral"), Penalty("spectral_norm", mu=0.3)),
]


def test_parse_kernel_every_name_and_alias():
    # parameters a kind does not take, sigma2 included, are ignored
    for names, div in _DIV_SPELLINGS:
        for name in names + tuple(nm.upper() for nm in names):
            k = parse_kernel(f"divergence={name} penalty=none {_SPEC_PARAMS}")
            assert k == ScalarKernel(div, Penalty("none")), name
    for names, pen in _PEN_SPELLINGS:
        for name in names + tuple(nm.upper() for nm in names):
            k = parse_kernel(f"divergence=hs penalty={name} {_SPEC_PARAMS}")
            assert k == ScalarKernel(HS, pen), name


def test_parse_kernel_defaults():
    assert parse_kernel("") == ScalarKernel(HS, Penalty("none"))
    assert parse_kernel("divergence=noisy_burg") == ScalarKernel(
        Divergence.noisy_burg(0.0), Penalty("none")
    )
    assert parse_kernel("penalty=eig_box").penalty == Penalty("eig_box", alpha=-math.inf, beta=math.inf)
    assert parse_kernel("penalty=eigbox alpha=1").penalty == Penalty("eig_box", alpha=1.0, beta=math.inf)
    assert parse_kernel("penalty=eig_box beta=-1").penalty == Penalty("eig_box", alpha=-math.inf, beta=-1.0)
    assert parse_kernel("divergence=burg penalty=eig_box").penalty == Penalty("eig_box", alpha=0.0, beta=math.inf)
    assert parse_kernel("penalty=fro_ball").penalty == Penalty("fro_ball", alpha=0.0)
    with pytest.raises(ConfigurationError, match="mu > 0"):
        parse_kernel("penalty=nuclear")


def test_parse_kernel_names_offending_key():
    with pytest.raises(ConfigurationError, match="frobnicate"):
        parse_kernel("divergence=burg frobnicate=1")
    with pytest.raises(ConfigurationError, match="'mu'"):
        parse_kernel("penalty=nuclear mu=abc")
    with pytest.raises(ConfigurationError, match="penalty"):
        parse_kernel("penalty=unknown_thing")
    # an alias names a kind of its own key only
    with pytest.raises(ConfigurationError, match="'divergence': 'fro'"):
        parse_kernel("divergence=fro")
    with pytest.raises(ConfigurationError, match="'penalty': 'hs'"):
        parse_kernel("penalty=hs")
    with pytest.raises(ConfigurationError, match="'divergence': 'frobenius'"):
        parse_kernel("divergence=Frobenius")


def test_vector_kernels_match_scalar_on_singletons():
    for pen in (Penalty("fro_norm", mu=0.5), Penalty("fro_ball", alpha=1.2), Penalty("spectral_norm", mu=0.5)):
        k = ScalarKernel(HS, pen)
        for lam in (-2.0, 0.3, 4.0):
            (d,) = kernel_prox(k, 0.8, lam)
            ref = scalar_prox_oracle("half_square", 0.0, pen, 0.8, lam)
            assert _obj(k, 0.8, lam, d) <= ref + 1e-6


def test_fro_norm_vector_formula():
    k = ScalarKernel(HS, Penalty("fro_norm", mu=0.5))
    lam = np.array([3.0, 4.0])  # norm 5
    g = 1.0
    out = kernel_prox_vec(k, g, lam)
    expect = (1.0 - g * 0.5 / 5.0) * lam / (1.0 + g)
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(kernel_prox_vec(k, g, np.array([0.1, 0.0])), 0.0)


def test_fro_ball_vector_formula():
    k = ScalarKernel(HS, Penalty("fro_ball", alpha=1.0))
    lam = np.array([3.0, 4.0])
    out = kernel_prox_vec(k, 1.0, lam)
    assert np.allclose(out, lam / 5.0, atol=1e-14)
    small = np.array([0.4, 0.4])
    assert np.allclose(kernel_prox_vec(k, 1.0, small), small / 2.0, atol=1e-14)


def test_w_exp_matches_scipy_and_solves_its_equation():
    # W(exp(z)) through overflow (z > 709) and underflow (z < -745) of exp(z),
    # and across the z = -40 cut below which it returns exp(z)
    z = np.concatenate(
        [
            [-1e12, -745.0, -40.0 - 1e-9, -40.0 + 1e-9, -1.0, 0.0, 1.0, 700.0, 701.0, 1e6],
            -np.geomspace(1e-8, 1e3, 60),
            np.geomspace(1e-8, 1e14, 80),
        ]
    )
    w = _w_exp(z)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    fin = z < 709.0  # exp(z) is finite
    ref = scipy.special.lambertw(np.exp(z[fin])).real
    assert np.all(np.abs(w[fin] - ref) <= 1e-15 * ref)
    big = w[~fin]
    assert big.size >= 20
    assert np.all(np.abs(big + np.log(big) - z[~fin]) <= 1e-15 * z[~fin])
