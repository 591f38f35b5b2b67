"""Optimality certificates for the benchmark's operations, in numpy alone.

Nothing here imports symprox: each check recomputes the problem from the
inputs the benchmark generated and judges the solver's output against
conditions that hold for the true solution, never against a stored copy
of an earlier output.  Every function returns (ok, detail), where detail
is a short measured figure for the log.
"""

import math

import numpy as np

# glasso KKT: violation allowed, as a share of mu1 (1.4e-8 measured at n=300)
GLASSO_KKT_TOL = 1e-5
# MM stationarity on the support, as a share of mu1 (5.2e-6 / 0.05 measured)
MM_STATIONARITY_TOL = 1e-3
# relative agreement between the solver's objective trace and numpy's F
MM_OBJECTIVE_RTOL = 1e-9
# covariance duality gap P(C) - D(Y), relative to max(1, |P(C)|); converged
# seeds measure <= 1e-7, the early stops 4.4e-6 (seed 3) and 2.8e-5 (seed 4)
COV_GAP_TOL = 1e-6
COV_DUAL_ITERS = 300
# prox rows: objective at the output may exceed the reference minimum by this
# share of max(1, |value|); the output must sit in the input's eigenbasis
PROX_OBJ_TOL = 1e-9
PROX_BASIS_TOL = 1e-8


def _sym(a):
    a = np.asarray(a, float)
    return 0.5 * (a + a.T)


def _psd_part(m):
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.T


def _support(c_sparse):
    return np.asarray(c_sparse) != 0.0


def _l1_kkt(grad, c_sparse, mu1):
    """Worst violation of the l1 optimality conditions, as a share of mu1:
    grad + mu1*sign(C) = 0 on the support, |grad| <= mu1 off it."""
    sup = _support(c_sparse)
    on = np.abs(grad[sup] + mu1 * np.sign(c_sparse[sup]))
    off = np.abs(grad[~sup]) - mu1
    worst = max(on.max(initial=0.0), off.max(initial=-math.inf), 0.0)
    return worst / mu1


# ---------------------------------------------------------------------------
# glasso and MM


def glasso_kkt(s, mu1, c_final, c_sparse):
    """KKT of -log det C + tr(CS) + mu1*||C||_1: the gradient is S - inv(C)."""
    c = _sym(c_final)
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return False, "estimate is not positive definite"
    viol = _l1_kkt(np.asarray(s) - np.linalg.inv(c), np.asarray(c_sparse), mu1)
    return viol <= GLASSO_KKT_TOL, f"kkt_violation/mu1={viol:.3e}"


def noisy_objective(s, sigma2, mu0, mu1, c):
    """F(C) = log det(C^-1 + sigma2 I) + tr((I + sigma2 C)^-1 C S)
    + mu0 tr(C^-1) + mu1 ||C||_1, +inf unless C is positive definite."""
    c = _sym(c)
    lam = np.linalg.eigvalsh(c)
    if lam[0] <= 0:
        return math.inf
    n = c.shape[0]
    m = np.linalg.solve(np.eye(n) + sigma2 * c, c)
    return float(
        np.sum(-np.log(lam) + np.log1p(sigma2 * lam))
        + np.sum(m * np.asarray(s).T)
        + mu0 * np.sum(1.0 / lam)
        + mu1 * np.abs(c).sum()
    )


def noisy_gradient(s, sigma2, mu0, c):
    """Gradient of the smooth part of F at a positive definite C."""
    c = _sym(c)
    n = c.shape[0]
    ci = np.linalg.inv(c)
    bi = np.linalg.inv(np.eye(n) + sigma2 * c)
    return -ci + sigma2 * bi + bi @ np.asarray(s) @ bi - mu0 * ci @ ci


def mm_descent(s, sigma2, mu0, mu1, outer_objectives, c_final):
    """The outer trace must not rise, must start at F of the data-driven
    start inv(S + (sigma2 + delta) I), delta = 1e-3 tr(S)/n, and must end
    at F(c_final); both ends are recomputed here."""
    s = np.asarray(s)
    n = s.shape[0]
    delta = 1e-3 * float(np.trace(s)) / n
    f0 = noisy_objective(s, sigma2, mu0, mu1, np.linalg.inv(s + (sigma2 + delta) * np.eye(n)))
    f_end = noisy_objective(s, sigma2, mu0, mu1, c_final)
    objs = [float(v) for v in outer_objectives]
    for a, b in zip(objs, objs[1:]):
        if b > a + 1e-12 * max(1.0, abs(a)):
            return False, f"outer objective rose from {a!r} to {b!r}"
    for label, mine, theirs in (("start", f0, objs[0]), ("end", f_end, objs[-1])):
        if not abs(mine - theirs) <= MM_OBJECTIVE_RTOL * max(1.0, abs(mine)):
            return False, f"{label} objective {theirs!r} disagrees with recomputed {mine!r}"
    if not f_end <= f0:
        return False, f"final objective {f_end!r} above the start {f0!r}"
    return True, f"F {f0:.6f} -> {f_end:.6f}"


def mm_stationarity(s, sigma2, mu0, mu1, c_final, c_sparse):
    if not math.isfinite(noisy_objective(s, sigma2, mu0, mu1, c_final)):
        return False, "estimate is not positive definite"
    viol = _l1_kkt(noisy_gradient(s, sigma2, mu0, c_final), np.asarray(c_sparse), mu1)
    return viol <= MM_STATIONARITY_TOL, f"stationarity/mu1={viol:.3e}"


# ---------------------------------------------------------------------------
# sparse covariance: duality gap


def cov_primal(a, mu1, c):
    """P(C) = 1/2 ||C||^2 - <A, C> + mu1 ||C||_1 at the PSD part of C,
    where A = T - mu0 I and the nuclear norm equals tr(C) on the PSD cone."""
    cp = _psd_part(_sym(c))
    return 0.5 * float(np.sum(cp * cp)) - float(np.sum(a * cp)) + mu1 * float(np.abs(cp).sum())


def cov_dual(a, y):
    """D(Y) = -1/2 ||Pi_PSD(A + Y)||^2, a lower bound on P for |Y_ij| <= mu1."""
    p = _psd_part(a + y)
    return -0.5 * float(np.sum(p * p))


def cov_dual_point(a, mu1, c_sparse, c, iters=COV_DUAL_ITERS):
    """A feasible dual point by accelerated projected gradient ascent on D,
    started from -mu1*sign(C) on the estimate's support and the clipped
    residual C - A off it.  Weak duality makes any feasible Y valid; the
    start only decides how tight the bound is."""
    sup = _support(c_sparse)
    y = np.clip(_sym(c) - a, -mu1, mu1)
    y[sup] = -mu1 * np.sign(np.asarray(c_sparse)[sup])
    y_prev = y
    for k in range(1, iters + 1):
        z = y + (k - 1.0) / (k + 2.0) * (y - y_prev)
        y_prev = y
        y = np.clip(z - _psd_part(a + z), -mu1, mu1)
    return y


def cov_duality_gap(samples, sigma, mu0, mu1, c_final, c_sparse):
    """Relative gap of the solve-cov problem: half-square divergence,
    nuclear weight mu0, l1 weight mu1, PSD, T = S - sigma^2 I."""
    x = np.asarray(samples)
    n = x.shape[1]
    a = x.T @ x / x.shape[0] - (sigma * sigma + mu0) * np.eye(n)
    p = cov_primal(a, mu1, c_final)
    d = cov_dual(a, cov_dual_point(a, mu1, c_sparse, c_final))
    rel = (p - d) / max(1.0, abs(p))
    return rel <= COV_GAP_TOL, f"P={p:.9f} gap/|P|={rel:.3e}"


# ---------------------------------------------------------------------------
# spectral and Bregman prox rows


def phi(kind, d, sigma2=0.0):
    """Per-eigenvalue divergence, +inf outside its domain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "half_square":
            return 0.5 * d * d
        if kind == "shannon":
            return np.where(d > 0, d * np.log(np.where(d > 0, d, 1.0)), np.where(d == 0, 0.0, np.inf))
        pos = np.where(d > 0, d, 1.0)
        val = -np.log(pos)
        if kind == "noisy_burg":
            val = val + np.log1p(sigma2 * pos)
        return np.where(d > 0, val, np.inf)


def dphi(kind, y):
    if kind == "half_square":
        return y
    if kind == "burg":
        return -1.0 / y
    return np.log(y) + 1.0  # shannon


def psi(pen, d):
    """Separable penalty value per eigenvalue; vector penalties give 0 here."""
    k, prm = pen
    with np.errstate(divide="ignore", invalid="ignore"):
        if k == "nuclear":
            return prm["mu"] * np.abs(d)
        if k == "fro_squared":
            return prm["mu"] * d * d
        if k == "schatten":
            return prm["mu"] * np.abs(d) ** prm["p"]
        if k == "inv_schatten":
            return np.where(d > 0, prm["mu"] * np.where(d > 0, d, 1.0) ** (-prm["p"]), np.inf)
        if k == "eig_box":
            return np.where((d >= prm["alpha"]) & (d <= prm["beta"]), 0.0, np.inf)
        if k == "rank":
            return prm["mu"] * (d != 0)
        if k == "cauchy":
            return prm["mu"] * np.log(d * d + prm["eps"])
    return np.zeros_like(d)


VECTOR_PENALTIES = ("fro_norm", "fro_ball", "spectral_norm")


def psi_vec(pen, d):
    """Whole-vector penalty over the last axis (0 for separable ones)."""
    k, prm = pen
    if k == "fro_norm":
        return prm["mu"] * np.linalg.norm(d, axis=-1)
    if k == "fro_ball":
        # the relative 1e-12 absorbs the rounding of a rescaled boundary point
        return np.where(np.linalg.norm(d, axis=-1) <= prm["alpha"] * (1.0 + 1e-12), 0.0, np.inf)
    if k == "spectral_norm":
        return prm["mu"] * np.abs(d).max(axis=-1)
    return np.zeros(d.shape[:-1])


def grid_argmin(h, lo, hi, n=4001, rounds=25):
    """Minimize h row by row over [lo_i, hi_i] by a dense grid and repeated
    zooms on the best cell.  h maps an (m, k) array of candidates to their
    values (+inf outside the domain).  Returns (argmin, min) per row."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    m = lo.size
    rows = np.arange(m)
    u = np.linspace(0.0, 1.0, n)
    pts = [lo[:, None] + (hi - lo)[:, None] * u]
    pos = lo >= 0
    if np.any(pos):
        geo = np.geomspace(1e-14, 1.0, n // 2)
        pts.append(np.where(pos[:, None], lo[:, None] + (hi - lo)[:, None] * geo, 0.0))
    pts.append(np.clip(np.zeros((m, 1)), lo[:, None], hi[:, None]))
    pts = np.sort(np.concatenate(pts, axis=1), axis=1)
    best_x = np.zeros(m)
    best_v = np.full(m, np.inf)
    for _ in range(rounds + 1):
        with np.errstate(all="ignore"):
            vals = h(pts)
        vals = np.where(np.isnan(vals), np.inf, vals)
        k = np.argmin(vals, axis=1)
        v = vals[rows, k]
        better = v < best_v
        best_v = np.where(better, v, best_v)
        best_x = np.where(better, pts[rows, k], best_x)
        last = pts.shape[1] - 1
        left = pts[rows, np.maximum(k - 1, 0)]
        right = pts[rows, np.minimum(k + 1, last)]
        pts = left[:, None] + (right - left)[:, None] * np.linspace(0.0, 1.0, 21)
    return best_x, best_v


def _into_domain(pen, d):
    """Move float dust of the output back into an indicator's set; points
    clearly outside stay outside and fail."""
    k, prm = pen
    if k == "eig_box":
        slack = 1e-9 * max(1.0, abs(prm["alpha"]), abs(prm["beta"]))
        inside = (d >= prm["alpha"] - slack) & (d <= prm["beta"] + slack)
        return np.where(inside, np.clip(d, prm["alpha"], prm["beta"]), d)
    if k == "fro_ball":
        nrm = float(np.linalg.norm(d))
        if prm["alpha"] < nrm <= prm["alpha"] * (1.0 + 1e-9):
            return d * (prm["alpha"] / nrm)
    if k == "rank":
        return np.where(np.abs(d) <= 1e-10, 0.0, d)
    return d


def _eigen_coords(x, u):
    """Coordinates of the output x in the eigenbasis u, and how far x is
    from being diagonal there."""
    e = u.T @ _sym(x) @ u
    d = np.diag(e).copy()
    off = float(np.linalg.norm(e - np.diag(d)))
    return d, off / max(1.0, float(np.linalg.norm(x)))


def prox_row_check(row, x, center):
    """Certificate for one catalog row.

    row: dict with 'kind' ('kernel' or 'bregman'), 'div', 'sigma2', 'pen'
    (kind, params) and, for kernel rows, 'gamma'.  center: the matrix
    whose eigenvalues the prox acts on (C_bar + gamma*T for kernel rows,
    the anchor for Bregman rows).

    Per eigenvalue (or over the whole vector, for the norm penalties) the
    objective at the output must not exceed the minimum found by
    grid_argmin by more than PROX_OBJ_TOL.
    """
    lam, u = np.linalg.eigh(_sym(center))
    d, off = _eigen_coords(x, u)
    if off > PROX_BASIS_TOL:
        return False, f"output leaves the eigenbasis (off-diagonal {off:.2e})"
    div, s2, pen = row["div"], row.get("sigma2", 0.0), row["pen"]
    if row["kind"] == "kernel":
        g = row["gamma"]

        def h_sep(dd, ll):
            return 0.5 * (dd - ll) ** 2 + g * (phi(div, dd, s2) + psi(pen, dd))

        weight, scale, c = 1.0 + g, g, lam / (1.0 + g)
    else:

        def h_sep(dd, ll):
            # D_phi(d, y) without its constant terms
            return phi(div, dd, s2) - dphi(div, ll) * dd + psi(pen, dd)

        weight, scale, c = 1.0, 1.0, lam
    d = _into_domain(pen, d)
    if pen[0] in VECTOR_PENALTIES:
        # the norm penalties have minimizers in a one-parameter family:
        # radial scalings of c (Frobenius norm and ball) or c clipped at
        # level t (spectral norm); search t, then compare whole objectives
        def total(dd):
            return 0.5 * weight * np.sum((dd - c) ** 2, axis=-1) + scale * psi_vec(pen, dd)

        cn = float(np.linalg.norm(c))
        if pen[0] == "spectral_norm":
            t_hi = float(np.abs(c).max())

            def family(t):
                return np.sign(c) * np.minimum(np.abs(c), t[..., None])
        else:
            t_hi = max(cn, pen[1].get("alpha", 0.0))

            def family(t):
                return t[..., None] * c / cn

        _, ref = grid_argmin(lambda t: total(family(t)), [0.0], [t_hi])
        ref = float(ref[0])
        got = float(total(d))
        gap = (got - ref) / max(1.0, abs(ref))
        return gap <= PROX_OBJ_TOL, f"excess={gap:.2e}"
    span = 4.0 * (1.0 + np.abs(lam)) * (1.0 + row.get("gamma", 1.0)) + 10.0
    lo = -span if div == "half_square" else np.zeros_like(lam)
    if pen[0] == "eig_box":
        lo = np.maximum(lo, pen[1]["alpha"])
        hi = np.full_like(lam, pen[1]["beta"])
    else:
        hi = span
    _, ref = grid_argmin(lambda dd: h_sep(dd, lam[:, None]), lo, hi)
    with np.errstate(all="ignore"):
        got = h_sep(d, lam)
    gap = (got - ref) / np.maximum(1.0, np.abs(ref))
    worst = float(np.max(np.where(np.isnan(gap), np.inf, gap)))
    return worst <= PROX_OBJ_TOL, f"excess={worst:.2e}"
