"""Independent reference computations used as test oracles.

Everything here is written from the defining formulas, separately from
the package code paths it checks: vectorized 1-d grid + golden-section
minimization, a 2x2 brute-force matrix minimizer, an exact 2x2
Frobenius-ball minimizer, a projected subgradient solver, and an
exhaustive l1-ball projection.
"""

import math
from typing import NamedTuple

import numpy as np

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def phi_value(div_kind, sigma2, d):
    """Divergence value at points d (vectorized, +inf outside domain)."""
    d = np.asarray(d, float)
    out = np.full(d.shape, np.inf)
    if div_kind == "half_square":
        return 0.5 * d * d
    if div_kind == "burg":
        ok = d > 0
        out[ok] = -np.log(d[ok])
        return out
    if div_kind == "shannon":
        ok = d > 0
        out[ok] = d[ok] * np.log(d[ok])
        out[d == 0] = 0.0
        return out
    if div_kind == "noisy_burg":
        ok = d > 0
        out[ok] = -np.log(d[ok] / (1.0 + sigma2 * d[ok]))
        return out
    raise ValueError(div_kind)


def psi_value(pen, d):
    """Separable penalty value at points d (vectorized, +inf outside domain).

    Vector penalties evaluated on scalars coincide with their separable
    counterparts (norm of a 1-vector is the absolute value)."""
    d = np.asarray(d, float)
    k = pen.kind
    if k == "none":
        return np.zeros(d.shape)
    if k in ("nuclear", "fro_norm", "spectral_norm"):
        return pen.mu * np.abs(d)
    if k == "fro_squared":
        return pen.mu * d * d
    if k == "schatten":
        return pen.mu * np.abs(d) ** pen.p
    if k == "inv_schatten":
        out = np.full(d.shape, np.inf)
        ok = d > 0
        out[ok] = pen.mu * d[ok] ** (-pen.p)
        return out
    if k == "eig_box":
        out = np.zeros(d.shape)
        out[(d < pen.alpha) | (d > pen.beta)] = np.inf
        return out
    if k == "fro_ball":
        out = np.zeros(d.shape)
        out[np.abs(d) > pen.alpha] = np.inf
        return out
    if k == "rank":
        return pen.mu * (d != 0.0).astype(float)
    if k == "cauchy":
        return pen.mu * np.log(d * d + pen.eps)
    raise ValueError(k)


def phi_slope(div_kind, sigma2, d):
    """Divergence derivative at points d (vectorized); -inf at and left of 0
    for the divergences whose domain is [0, inf) or (0, inf)."""
    d = np.asarray(d, float)
    if div_kind == "half_square":
        return d.copy()
    out = np.full(d.shape, -np.inf)
    ok = d > 0
    x = d[ok]
    if div_kind == "burg":
        out[ok] = -1.0 / x
    elif div_kind == "shannon":
        out[ok] = np.log(x) + 1.0
    elif div_kind == "noisy_burg":
        out[ok] = -1.0 / x + sigma2 / (1.0 + sigma2 * x)
    else:
        raise ValueError(div_kind)
    return out


def psi_slope(pen, d):
    """Derivative of a smooth or |d|-type separable penalty at points d != 0
    (vectorized); -inf at and left of 0 for inv_schatten."""
    d = np.asarray(d, float)
    k = pen.kind
    if k == "none":
        return np.zeros(d.shape)
    if k == "nuclear":
        return pen.mu * np.sign(d)
    if k == "fro_squared":
        return 2.0 * pen.mu * d
    if k == "schatten":
        return pen.mu * pen.p * np.abs(d) ** (pen.p - 1.0) * np.sign(d)
    if k == "inv_schatten":
        out = np.full(d.shape, -np.inf)
        ok = d > 0
        out[ok] = -pen.mu * pen.p * d[ok] ** (-pen.p - 1.0)
        return out
    raise ValueError(k)


def golden_min(f, a, b, iters=140):
    """Golden-section minimization on [a, b]; returns the midpoint."""
    x1 = b - _GOLD * (b - a)
    x2 = a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLD * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def scalar_prox_oracle(div_kind, sigma2, pen, gamma, lam, npts=10000):
    """Best objective value of d -> (d-lam)^2/2 + gamma*(phi(d)+psi(d)),
    found by a dense grid of npts points plus golden-section refinement."""

    def obj_vec(d):
        return 0.5 * (d - lam) ** 2 + gamma * (
            phi_value(div_kind, sigma2, d) + psi_value(pen, d)
        )

    def obj(d):
        return float(obj_vec(np.array([d]))[0])

    if div_kind == "half_square":
        span = abs(lam) + 10.0
        if pen.kind == "eig_box":
            lo = pen.alpha if math.isfinite(pen.alpha) else -span
            hi = pen.beta if math.isfinite(pen.beta) else span
            grid = np.linspace(lo, hi, npts)
        else:
            grid = np.linspace(-span, span, npts)
    else:
        hi = max(lam, 0.0) + 10.0 * max(1.0, math.sqrt(gamma)) + 10.0
        half = npts // 2
        grid = np.unique(
            np.concatenate(
                [np.geomspace(1e-12, hi, half), np.linspace(1e-12, hi, npts - half)]
            )
        )
    vals = obj_vec(grid)
    i = int(np.argmin(vals))
    best = float(vals[i])
    a = grid[max(0, i - 1)]
    b = grid[min(len(grid) - 1, i + 1)]
    x = golden_min(obj, float(a), float(b))
    return min(best, obj(x))


def eig2(x, y, z):
    """Eigenvalues of [[x, z], [z, y]] (vectorized)."""
    m = 0.5 * (x + y)
    r = np.sqrt(0.25 * (x - y) ** 2 + z * z)
    return m + r, m - r


class BruteForce(NamedTuple):
    """Result of brute_force_2x2: the best value found, and whether the
    eigenvalue-box refine converged (None when no refine was asked for)."""

    value: float
    refine_converged: bool | None


def brute_force_2x2(obj3, span, npts=61, rounds=60, smooth_obj=None, box=None):
    """Minimize obj3(x, y, z) (vectorized over flat arrays) by a dense grid
    for globality plus Nelder-Mead and zoom-grid local refinement.

    For an eigenvalue-box indicator, pass box=(alpha, beta) and smooth_obj,
    the finite part of obj3 (same signature): an L-BFGS-B solve then refines
    over C = R(theta) diag(x1, x2) R(theta)^T with x1, x2 bounded to
    [alpha, beta], which is feasible by construction, where grid methods
    stall at the boundary.  The refine counts as converged when L-BFGS-B
    reports success.  Returns a BruteForce (best value, refine convergence)."""
    from scipy.optimize import minimize

    g = np.linspace(-span, span, npts)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    vals = obj3(xx.ravel(), yy.ravel(), zz.ravel())
    i = int(np.argmin(vals))
    best = float(vals[i])
    pt = np.array([xx.ravel()[i], yy.ravel()[i], zz.ravel()[i]])

    def scalar(v):
        return float(obj3(*[np.array([c]) for c in v])[0])

    res = minimize(
        scalar,
        pt,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 2000, "maxfev": 4000},
    )
    if np.isfinite(res.fun) and res.fun < best:
        best, pt = float(res.fun), np.asarray(res.x, float)
    # zoom grid: robust near indicator walls where simplex methods stall
    width = float(g[1] - g[0])
    zg = np.linspace(-1.0, 1.0, 21)
    zx, zy, zz = np.meshgrid(zg, zg, zg, indexing="ij")
    offsets = np.stack([zx.ravel(), zy.ravel(), zz.ravel()], axis=1)
    for _ in range(26):
        cand = pt + width * offsets
        vals = obj3(cand[:, 0], cand[:, 1], cand[:, 2])
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            pt = cand[j]
        width *= 0.5
    converged = None
    if box is not None:

        def rotated(v):
            c, s = math.cos(v[0]), math.sin(v[0])
            x1, x2 = v[1], v[2]
            return (
                np.array([x1 * c * c + x2 * s * s]),
                np.array([x1 * s * s + x2 * c * c]),
                np.array([(x1 - x2) * c * s]),
            )

        x, y, z = pt
        l1, l2 = eig2(x, y, z)
        start = [0.5 * math.atan2(2.0 * z, x - y), *np.clip([l1, l2], *box)]
        res = minimize(
            lambda v: float(smooth_obj(*rotated(v))[0]),
            start,
            method="L-BFGS-B",
            bounds=[(None, None), box, box],
            # finite-difference gradients are good to about 1e-8, so a smaller
            # gtol ends in a failed line search at an already optimal point
            options={"ftol": 1e-15, "gtol": 1e-6, "maxiter": 1000},
        )
        if np.isfinite(res.fun):
            best = min(best, float(res.fun))
        converged = bool(res.success)
    return BruteForce(best, converged)


def fro_ball_2x2_exact(tmat, cbar, gamma, alpha):
    """Exact minimum of ||C||_F^2/2 - <T, C> + ||C - Cbar||_F^2/(2 gamma)
    over 2x2 symmetric C with ||C||_F <= alpha.

    In the coordinates v = (x, y, sqrt(2) z) of C = [[x, z], [z, y]] the
    Frobenius inner product is the Euclidean one, so the objective is
    (1/2 + 1/(2 gamma))|v|^2 - <t + c/gamma, v> + const and its minimizer
    over the ball is the Euclidean projection of (t + c/gamma)/(1 + 1/gamma)
    onto the radius-alpha ball; no eigendecomposition is involved."""

    def coords(m):
        return np.array([m[0, 0], m[1, 1], math.sqrt(2.0) * m[0, 1]])

    t, c = coords(tmat), coords(cbar)
    v = (t + c / gamma) / (1.0 + 1.0 / gamma)
    norm = float(np.linalg.norm(v))
    if norm > alpha:
        v = v * (alpha / norm)
    return float(0.5 * v @ v - t @ v + (v - c) @ (v - c) / (2.0 * gamma))


def brute_force_2x2_rank1(smooth2, span, nonneg=False):
    """Minimize smooth2(rho, theta) over rank-one matrices rho*u(theta)u(theta)^T
    (vectorized grid + Nelder-Mead refinement).  Used for the rank penalty,
    whose discount lives on the measure-zero rank-deficient manifold that a
    full-dimensional grid cannot hit."""
    from scipy.optimize import minimize

    rhos = np.linspace(0.0 if nonneg else -span, span, 801)
    thetas = np.linspace(0.0, math.pi, 721, endpoint=False)
    rr, tt = np.meshgrid(rhos, thetas, indexing="ij")
    vals = smooth2(rr.ravel(), tt.ravel())
    i = int(np.argmin(vals))
    best = float(vals[i])
    pt = np.array([rr.ravel()[i], tt.ravel()[i]])

    def scalar(v):
        return float(smooth2(np.array([v[0]]), np.array([v[1]]))[0])

    res = minimize(
        scalar,
        pt,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    if np.isfinite(res.fun):
        best = min(best, float(res.fun))
    return best


def projected_subgradient_cov(tmat, mu0, mu1, iters):
    """Projected subgradient for min over PSD Y of
    0.5*||Y - T||_F^2 + mu0*||Y||_* + mu1*||Y||_1,
    with steps 2/(k+2) (unit strong convexity); returns the best value."""
    w, v = np.linalg.eigh(tmat)
    y = (v * np.maximum(w, 0.0)) @ v.T
    best = math.inf
    for k in range(iters):
        w, v = np.linalg.eigh(y)
        val = (
            0.5 * float(np.sum((y - tmat) ** 2))
            + mu0 * float(np.abs(w).sum())
            + mu1 * float(np.abs(y).sum())
        )
        if val < best:
            best = val
        g = (y - tmat) + mu0 * (v * np.sign(w)) @ v.T + mu1 * np.sign(y)
        y = y - (2.0 / (k + 2.0)) * g
        w2, v2 = np.linalg.eigh(0.5 * (y + y.T))
        y = (v2 * np.maximum(w2, 0.0)) @ v2.T
    return best


def l1_projection_kkt(v, radius):
    """Exhaustive KKT-threshold projection onto the l1 ball: try every
    candidate active-set size and keep the consistent threshold."""
    v = np.asarray(v, float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    best = None
    for k in range(1, v.size + 1):
        tau = (u[:k].sum() - radius) / k
        if tau < 0:
            continue
        x = np.maximum(a - tau, 0.0)
        # consistency: exactly the k largest stay active
        if (k == v.size or u[k] <= tau + 1e-15) and u[k - 1] >= tau - 1e-15:
            cand = np.sign(v) * x
            if best is None or abs(np.abs(cand).sum() - radius) < abs(
                np.abs(best).sum() - radius
            ):
                best = cand
    return best


def rand_sym(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.T)


def rand_spd(rng, n, lam_min=0.2, lam_max=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.uniform(lam_min, lam_max, size=n)
    return (q * w) @ q.T
