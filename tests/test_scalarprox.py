import math

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
    kernel_prox,
    kernel_prox_vec,
    lambert_w,
    parse_kernel,
    project_l1_ball,
    soft,
)
from symprox.scalarprox import _newton_bisect_vec, _w_exp

from _oracles import golden_min, l1_projection_kkt, phi_value, psi_value, scalar_prox_oracle

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


def test_project_l1_rejects_bad_radius():
    with pytest.raises(ConfigurationError):
        project_l1_ball(np.ones(3), 0.0)


# --- kernel evaluation ------------------------------------------------------


def test_kernel_eval_examples():
    assert kernel_eval(ScalarKernel(BURG, Penalty.none()), 1.0) == 0.0
    k = ScalarKernel(HS, Penalty.nuclear(2.0))
    assert kernel_eval(k, -3.0) == pytest.approx(10.5, abs=1e-14)
    kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty.none())
    assert kernel_eval(kn, 2.0) == -math.log(2.0)


def test_noisy_with_zero_sigma_matches_burg_exactly():
    kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty.none())
    kb = ScalarKernel(BURG, Penalty.none())
    for lam in (0.3, 1.0, 2.5, 7.0):
        assert kernel_eval(kn, lam) == kernel_eval(kb, lam)


def test_kernel_eval_outside_domain_is_inf():
    assert kernel_eval(ScalarKernel(BURG, Penalty.none()), -1.0) == math.inf
    assert kernel_eval(ScalarKernel(SHANNON, Penalty.none()), -0.1) == math.inf
    assert kernel_eval(ScalarKernel(SHANNON, Penalty.none()), 0.0) == 0.0
    k = ScalarKernel(HS, Penalty.inv_schatten(1.0, 1.0))
    assert kernel_eval(k, 0.0) == math.inf


# --- prox examples from closed forms ---------------------------------------


def test_prox_burg_unpenalized_at_zero():
    (d,) = kernel_prox(ScalarKernel(BURG, Penalty.none()), 1.0, 0.0)
    assert d == pytest.approx(1.0, abs=1e-14)


def test_prox_hs_nuclear_example():
    k = ScalarKernel(HS, Penalty.nuclear(0.5))
    (d,) = kernel_prox(k, 0.7, 1.3)
    expect = soft(0.35 / 1.7, 1.3 / 1.7)
    assert d == pytest.approx(expect, abs=1e-15)
    assert d == pytest.approx(0.5588235, abs=1e-7)
    # cross-check by golden-section minimization (x-resolution ~ sqrt(eps))
    x = golden_min(lambda t: _obj(k, 0.7, 1.3, t), -5.0, 5.0)
    assert d == pytest.approx(x, abs=1e-6)


def test_prox_noisy_reduces_to_burg():
    k = ScalarKernel(Divergence.noisy_burg(0.0), Penalty.none())
    for lam, g in ((0.0, 1.0), (2.0, 0.5), (-1.5, 2.0)):
        (d,) = kernel_prox(k, g, lam)
        assert d == pytest.approx(0.5 * (lam + math.sqrt(lam * lam + 4 * g)), rel=1e-14)


def test_prox_noisy_sigma_zero_matches_burg_inv_schatten():
    # with sigma2 = 0 and mu0 > 0 the two code routes solve the same cubic
    kn = ScalarKernel(Divergence.noisy_burg(0.0), Penalty.inv_schatten(0.3, 1.0))
    kb = ScalarKernel(BURG, Penalty.inv_schatten(0.3, 1.0))
    for lam, g in ((0.0, 1.0), (2.3, 0.4), (-1.1, 1.7)):
        (dn,) = kernel_prox(kn, g, lam)
        (db,) = kernel_prox(kb, g, lam)
        assert dn == pytest.approx(db, rel=1e-12)


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


def test_schatten3_implicit_matches_closed_form():
    mu, g = 0.5, 0.8
    k = ScalarKernel(HS, Penalty.schatten(mu, 3))
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
    pen = Penalty.inv_schatten(mu0, 1.0) if mu0 > 0 else Penalty.none()
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
    pen = Penalty.inv_schatten(mu0, 1.0)
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
        pen = Penalty.inv_schatten(mu0, 1.0) if mu0 > 0 else Penalty.none()
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
        ScalarKernel(HS, Penalty.none()),
        ScalarKernel(HS, Penalty.nuclear(mu)),
        ScalarKernel(HS, Penalty.fro_squared(mu)),
        ScalarKernel(HS, Penalty.schatten(mu, 3)),
        ScalarKernel(HS, Penalty.schatten(mu, 4)),
        ScalarKernel(HS, Penalty.schatten(mu, 4.0 / 3.0)),
        ScalarKernel(HS, Penalty.schatten(mu, 1.5)),
        ScalarKernel(HS, Penalty.schatten(mu, 2.7)),
        ScalarKernel(HS, Penalty.inv_schatten(mu, 1.0)),
        ScalarKernel(HS, Penalty.inv_schatten(mu, 2.2)),
        ScalarKernel(HS, Penalty.eig_box(al, be)),
        ScalarKernel(HS, Penalty.rank(mu)),
        ScalarKernel(HS, Penalty.cauchy(mu, eps)),
        ScalarKernel(BURG, Penalty.none()),
        ScalarKernel(BURG, Penalty.nuclear(mu)),
        ScalarKernel(BURG, Penalty.fro_squared(mu)),
        ScalarKernel(BURG, Penalty.schatten(mu, 3)),
        ScalarKernel(BURG, Penalty.schatten(mu, 1.8)),
        ScalarKernel(BURG, Penalty.inv_schatten(mu, 1.0)),
        ScalarKernel(BURG, Penalty.inv_schatten(mu, 0.7)),
        ScalarKernel(BURG, Penalty.eig_box(max(al, 0.0), max(al, 0.0) + be - al)),
        ScalarKernel(BURG, Penalty.cauchy(mu, eps)),
        ScalarKernel(SHANNON, Penalty.none()),
        ScalarKernel(SHANNON, Penalty.nuclear(mu)),
        ScalarKernel(SHANNON, Penalty.fro_squared(mu)),
        ScalarKernel(SHANNON, Penalty.schatten(mu, 3)),
        ScalarKernel(SHANNON, Penalty.eig_box(max(al, 0.0), max(al, 0.0) + be - al)),
        ScalarKernel(SHANNON, Penalty.rank(mu)),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty.none()),
        ScalarKernel(Divergence.noisy_burg(s2), Penalty.inv_schatten(mu, 1.0)),
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
        ScalarKernel(HS, Penalty.nuclear(0.6)),
        ScalarKernel(HS, Penalty.schatten(0.4, 3)),
        ScalarKernel(HS, Penalty.eig_box(-0.4, 1.1)),
        ScalarKernel(BURG, Penalty.nuclear(0.5)),
        ScalarKernel(BURG, Penalty.inv_schatten(0.3, 1.0)),
        ScalarKernel(SHANNON, Penalty.nuclear(0.5)),
        ScalarKernel(Divergence.noisy_burg(0.3), Penalty.inv_schatten(0.2, 1.0)),
    ]
    for k in convex:
        for _ in range(40):
            a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
            g = float(rng.uniform(0.1, 2.0))
            (pa,) = kernel_prox(k, g, float(a))
            (pb,) = kernel_prox(k, g, float(b))
            assert pa <= pb + 1e-10
            assert abs(pa - pb) <= abs(a - b) + 1e-10


def _no_penalty(mu):
    return Penalty.none()


def _schatten(p):
    return lambda mu: Penalty.schatten(mu, p)


def _inv_schatten(p):
    return lambda mu: Penalty.inv_schatten(mu, p)


def _box(lo, hi):
    return lambda mu: Penalty.eig_box(lo * mu, hi * mu)


# every convex kernel row (all but rank and Cauchy), as a penalty of the weight mu
_CONVEX_ROWS = {
    f"{div.kind}-{name}": (div, pen)
    for div, rows in (
        (HS, {"none": _no_penalty, "nuclear": Penalty.nuclear, "fro_norm": Penalty.fro_norm,
              "fro_squared": Penalty.fro_squared, "fro_ball": Penalty.fro_ball,
              "eig_box": _box(-1.0, 2.0), "spectral_norm": Penalty.spectral_norm,
              **{f"schatten{p:.3g}": _schatten(p) for p in (1.0, 4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0)},
              **{f"inv_schatten{p:.3g}": _inv_schatten(p) for p in (1.0, 2.2)}}),
        (BURG, {"none": _no_penalty, "nuclear": Penalty.nuclear,
                "fro_squared": Penalty.fro_squared, "eig_box": _box(0.5, 2.0),
                **{f"schatten{p:.3g}": _schatten(p) for p in (1.0, 1.8, 2.0, 3.0)},
                **{f"inv_schatten{p:.3g}": _inv_schatten(p) for p in (0.7, 1.0)}}),
        (SHANNON, {"none": _no_penalty, "nuclear": Penalty.nuclear,
                   "fro_squared": Penalty.fro_squared, "eig_box": _box(0.5, 2.0),
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
            ScalarKernel(BURG, Penalty.nuclear(0.4)),
            ScalarKernel(Divergence.noisy_burg(0.2), Penalty.none()),
        ):
            (d,) = kernel_prox(k, g, lam)
            assert d > 0
        for d in kernel_prox(ScalarKernel(SHANNON, Penalty.rank(0.4)), g, lam):
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


# --- root-solved rows at extreme parameters ----------------------------------

_EXTREME_LAMS = np.concatenate([-np.logspace(8, -8, 17), [0.0], np.logspace(-8, 8, 17)])
_EXTREME_SCALES = (1e-4, 1e-2, 1.0, 1e2, 1e4)


def _not_beaten_nearby(f, d):
    """f(d) is not above f at d(1 +- 1e-6) or d +- 1e-9, up to 1e-9 relative."""
    f0 = f(d)
    for near in (d * (1.0 + 1e-6), d * (1.0 - 1e-6), d + 1e-9, d - 1e-9):
        with np.errstate(all="ignore"):
            assert np.all(f(near) >= f0 - 1e-9 * np.abs(f0))


def test_root_solved_kernel_rows_extreme_grid():
    lam = _EXTREME_LAMS
    for g in _EXTREME_SCALES:
        for mu in _EXTREME_SCALES:
            rows = [ScalarKernel(div, Penalty.schatten(mu, p))
                    for div in (HS, BURG, SHANNON) for p in (1.3, 2.7)]
            rows += [ScalarKernel(div, Penalty.inv_schatten(mu, p))
                     for div in (HS, BURG) for p in (0.7, 2.2)]
            rows += [ScalarKernel(Divergence.noisy_burg(0.3), pen)
                     for pen in (Penalty.none(), Penalty.inv_schatten(mu, 1.0))]
            for k in rows:
                d = kernel_prox_vec(k, g, lam)
                assert np.all(np.isfinite(d)), (k, g)

                def f(x, k=k, g=g):
                    kind, s2 = k.divergence.kind, k.divergence.sigma2
                    return 0.5 * (x - lam) ** 2 + g * (
                        phi_value(kind, s2, x) + psi_value(k.penalty, x)
                    )

                _not_beaten_nearby(f, d)


def _bregman_value(div_kind, pen, d, y):
    """psi(d) + D_phi(d, y) for a scalar anchor y > 0; +inf for d <= 0."""
    r = d / y
    if div_kind == "burg":
        # r - 1 - log r, without the cancellation of log1p near r = 0 or of log near r = 1
        div = (r - 1.0) - np.where(np.abs(r - 1.0) < 0.5, np.log1p(r - 1.0), np.log(r))
    else:
        div = d * np.log(r) - d + y
    return np.where(d > 0, psi_value(pen, d) + div, np.inf)


def test_root_solved_bregman_rows_extreme_grid():
    ys = np.logspace(-8, 8, 17)
    for mu in _EXTREME_SCALES:
        rows = [(BURG, Penalty.schatten(mu, p)) for p in (1.3, 2.7)]
        rows += [(BURG, Penalty.inv_schatten(mu, p)) for p in (0.7, 2.2)]
        rows += [(SHANNON, Penalty.schatten(mu, p)) for p in (1.3, 2.7)]
        for div, pen in rows:
            for y in ys:
                d = np.array([bregman_prox(div, pen, np.array([[y]])).mat[0, 0]])
                assert np.all(np.isfinite(d)), (div, pen, y)
                _not_beaten_nearby(lambda x: _bregman_value(div.kind, pen, x, y), d)


# --- set-valued rows ---------------------------------------------------------


def test_rank_prox_candidates():
    k = ScalarKernel(HS, Penalty.rank(0.5))
    g = 1.0
    tau = math.sqrt(2 * 0.5 * g / (1 + g))
    lam_boundary = tau * (1 + g)
    cands = kernel_prox(k, g, lam_boundary)
    assert len(cands) == 2 and cands[0] == 0.0
    assert kernel_prox(k, g, lam_boundary + 0.2)[0] != 0.0
    assert kernel_prox(k, g, lam_boundary - 0.2) == (0.0,)


def test_cauchy_prox_candidates_minimize():
    k = ScalarKernel(HS, Penalty.cauchy(0.8, 0.05))
    for lam in (-2.0, 0.0, 0.4, 2.0):
        cands = kernel_prox(k, 1.2, lam)
        ref = scalar_prox_oracle("half_square", 0.0, k.penalty, 1.2, lam)
        for d in cands:
            assert _obj(k, 1.2, lam, d) <= ref + 1e-6


def test_burg_cauchy_picks_the_global_of_two_local_minima():
    k = ScalarKernel(BURG, Penalty.cauchy(3.0, 0.01))
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
        k = ScalarKernel(div, Penalty.cauchy(mu, eps))
        ref = np.array([_cauchy_by_np_roots(k, g, x) for x in lam.tolist()])
        got = kernel_prox_vec(k, g, lam)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (mu, eps, g)


# --- configuration ------------------------------------------------------------


def test_unsupported_pairing_rejected():
    with pytest.raises(ConfigurationError):
        ScalarKernel(SHANNON, Penalty.cauchy(0.5, 0.1))
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty.rank(0.5))
    with pytest.raises(ConfigurationError):
        ScalarKernel(Divergence.noisy_burg(0.1), Penalty.inv_schatten(0.5, 2.0))
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty.fro_norm(0.5))


def test_eig_box_clipped_for_positive_divergences():
    k = ScalarKernel(BURG, Penalty.eig_box(-2.0, 3.0))
    assert k.penalty.alpha == 0.0
    with pytest.raises(ConfigurationError):
        ScalarKernel(BURG, Penalty.eig_box(-2.0, -1.0))


def test_penalty_validation():
    with pytest.raises(ConfigurationError):
        Penalty.nuclear(0.0)
    with pytest.raises(ConfigurationError):
        Penalty.schatten(0.5, 0.5)
    with pytest.raises(ConfigurationError):
        Penalty.inv_schatten(0.5, 0.0)
    with pytest.raises(ConfigurationError):
        Penalty.eig_box(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        Penalty.cauchy(0.5, 0.0)
    with pytest.raises(ConfigurationError):
        Divergence.noisy_burg(-0.1)


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


def test_parse_kernel_names_offending_key():
    with pytest.raises(ConfigurationError, match="frobnicate"):
        parse_kernel("divergence=burg frobnicate=1")
    with pytest.raises(ConfigurationError, match="'mu'"):
        parse_kernel("penalty=nuclear mu=abc")
    with pytest.raises(ConfigurationError, match="penalty"):
        parse_kernel("penalty=unknown_thing")


def test_vector_kernels_match_scalar_on_singletons():
    for pen in (Penalty.fro_norm(0.5), Penalty.fro_ball(1.2), Penalty.spectral_norm(0.5)):
        k = ScalarKernel(HS, pen)
        for lam in (-2.0, 0.3, 4.0):
            (d,) = kernel_prox(k, 0.8, lam)
            ref = scalar_prox_oracle("half_square", 0.0, pen, 0.8, lam)
            assert _obj(k, 0.8, lam, d) <= ref + 1e-6


def test_fro_norm_vector_formula():
    k = ScalarKernel(HS, Penalty.fro_norm(0.5))
    lam = np.array([3.0, 4.0])  # norm 5
    g = 1.0
    out = kernel_prox_vec(k, g, lam)
    expect = (1.0 - g * 0.5 / 5.0) * lam / (1.0 + g)
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(kernel_prox_vec(k, g, np.array([0.1, 0.0])), 0.0)


def test_fro_ball_vector_formula():
    k = ScalarKernel(HS, Penalty.fro_ball(1.0))
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
