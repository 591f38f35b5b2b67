"""One-dimensional proximity kernels for spectral matrix objectives.

A ScalarKernel pairs a divergence phi (acting per eigenvalue) with a
penalty psi.  kernel_prox solves, per eigenvalue,

    argmin_d  (d - lam)^2 / 2 + gamma * (phi(d) + psi(d)),

in closed form where one exists and by safeguarded root solving
otherwise; a PSD kernel adds the constraint d >= 0.  Nonconvex penalties
(rank, Cauchy) may have several global minimizers; all are returned and
callers take the first (lowest objective, then smallest magnitude).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketingError, ConfigurationError, DomainError, NumericError, _check_real
from .symlin import _psd_ok

_DIV_KINDS = ("half_square", "burg", "shannon", "noisy_burg")
# The parameters each penalty kind takes; a kind that takes mu needs a finite mu > 0.
_PEN_PARAMS = {
    "none": (),
    "nuclear": ("mu",),
    "fro_norm": ("mu",),
    "fro_squared": ("mu",),
    "schatten": ("mu", "p"),
    "inv_schatten": ("mu", "p"),
    "fro_ball": ("alpha",),
    "eig_box": ("alpha", "beta"),
    "rank": ("mu",),
    "cauchy": ("mu", "eps"),
    "spectral_norm": ("mu",),
}
# Divergences whose domain forces nonnegative eigenvalues.
_NONNEG_DIVS = frozenset({"burg", "shannon", "noisy_burg"})

# Supported (divergence, penalty) pairings.
_SUPPORTED = {
    "half_square": frozenset(_PEN_PARAMS),
    "burg": frozenset(
        {"none", "nuclear", "fro_squared", "schatten", "inv_schatten", "eig_box", "cauchy"}
    ),
    "shannon": frozenset(
        {"none", "nuclear", "fro_squared", "schatten", "eig_box", "rank"}
    ),
    "noisy_burg": frozenset({"none", "inv_schatten"}),
}

_IND_SLACK = 1e-10  # float-dust slack when evaluating indicator penalties


@dataclass(frozen=True)
class Divergence:
    """Per-eigenvalue divergence phi.

    half_square: d^2/2 on R; burg: -log d on (0, inf);
    shannon: d log d on [0, inf); noisy_burg: -log(d / (1 + sigma2*d)).
    """

    kind: str
    sigma2: float = 0.0

    def __post_init__(self):
        if self.kind not in _DIV_KINDS:
            raise ConfigurationError(f"unknown divergence '{self.kind}'")
        _check_real("sigma2", self.sigma2, strict=False)
        if self.kind != "noisy_burg" and self.sigma2 != 0.0:
            raise ConfigurationError("sigma2 only applies to the noisy_burg divergence")

    @classmethod
    def half_square(cls):
        return cls("half_square")

    @classmethod
    def burg(cls):
        return cls("burg")

    @classmethod
    def shannon(cls):
        return cls("shannon")

    @classmethod
    def noisy_burg(cls, sigma2):
        return cls("noisy_burg", sigma2=float(sigma2))


@dataclass(frozen=True)
class Penalty:
    """Per-eigenvalue (or whole-vector) penalty psi with its parameters."""

    kind: str
    mu: float = 0.0
    p: float = 0.0
    eps: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        k = self.kind
        if k not in _PEN_PARAMS:
            raise ConfigurationError(f"unknown penalty '{k}'")
        if "mu" in _PEN_PARAMS[k]:
            _check_real("mu", self.mu)
        if k == "schatten":
            _check_real("p", self.p, 1.0, strict=False)
        if k == "inv_schatten":
            _check_real("p", self.p)
        if k == "cauchy":
            _check_real("eps", self.eps)
        if k == "fro_ball" and not self.alpha >= 0:
            raise ConfigurationError("fro_ball radius must be nonnegative")
        if k == "eig_box" and not self.alpha <= self.beta:
            raise ConfigurationError("eig_box requires alpha <= beta")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def nuclear(cls, mu):
        return cls("nuclear", mu=float(mu))

    @classmethod
    def fro_norm(cls, mu):
        return cls("fro_norm", mu=float(mu))

    @classmethod
    def fro_squared(cls, mu):
        return cls("fro_squared", mu=float(mu))

    @classmethod
    def schatten(cls, mu, p):
        return cls("schatten", mu=float(mu), p=float(p))

    @classmethod
    def inv_schatten(cls, mu, p):
        return cls("inv_schatten", mu=float(mu), p=float(p))

    @classmethod
    def fro_ball(cls, alpha):
        return cls("fro_ball", alpha=float(alpha))

    @classmethod
    def eig_box(cls, alpha, beta):
        return cls("eig_box", alpha=float(alpha), beta=float(beta))

    @classmethod
    def rank(cls, mu):
        return cls("rank", mu=float(mu))

    @classmethod
    def cauchy(cls, mu, eps):
        return cls("cauchy", mu=float(mu), eps=float(eps))

    @classmethod
    def spectral_norm(cls, mu):
        return cls("spectral_norm", mu=float(mu))


@dataclass(frozen=True)
class ScalarKernel:
    """A supported (divergence, penalty) pair, optionally constrained to
    the PSD cone (eigenvalues d >= 0).

    Unsupported pairings are rejected here, at configuration time.  Where
    the domain of phi + psi already forces d >= 0 (Burg, Shannon, noisy
    Burg, inv_schatten), psd is switched off.  Under a nonnegative domain
    or psd, eig_box bounds are clipped to [0, +inf].
    """

    divergence: Divergence
    penalty: Penalty
    psd: bool = False

    def __post_init__(self):
        d, p = self.divergence, self.penalty
        if p.kind not in _SUPPORTED[d.kind]:
            raise ConfigurationError(
                f"unsupported pairing: divergence '{d.kind}' with penalty '{p.kind}'"
            )
        if d.kind == "noisy_burg" and p.kind == "inv_schatten" and p.p != 1.0:
            raise ConfigurationError("noisy_burg supports inv_schatten only with p = 1")
        nonneg = d.kind in _NONNEG_DIVS or p.kind == "inv_schatten"
        if p.kind == "eig_box" and (nonneg or self.psd):
            if p.beta < 0:
                raise ConfigurationError(
                    f"eig_box upper bound {p.beta} is infeasible on d >= 0 ('{d.kind}')"
                )
            if p.alpha < 0:
                object.__setattr__(self, "penalty", Penalty.eig_box(0.0, p.beta))
        if nonneg:
            object.__setattr__(self, "psd", False)


def soft(mu, xi, out=None):
    """Soft threshold: shrink xi toward zero by mu, keeping the sign of xi
    (a zero result is -0.0 where xi < 0, or xi is -0.0).  With out (an
    array, which may be xi itself) the result is written there."""
    t = np.abs(xi)  # the one temporary: each step below writes into it
    if np.ndim(t) == 0:
        return float(np.copysign(np.maximum(t - mu, 0.0), xi))
    np.subtract(t, mu, out=t)
    np.maximum(t, 0.0, out=t)
    return np.copysign(t, xi, out=t if out is None else out)


def hard(mu, xi):
    """Hard threshold: zero out |xi| <= mu (boundary maps to zero)."""
    xi_arr = np.asarray(xi, float)
    out = np.where(np.abs(xi_arr) > mu, xi_arr, 0.0)
    return float(out) if np.ndim(xi) == 0 else out


_NEG_INV_E = -math.exp(-1.0)


def lambert_w(x):
    """Principal branch of the Lambert W function for real x >= -1/e.

    For x > 0 this is _w_exp(log x).  On [-1/e, 0): branch-aware
    initialization followed by Halley iterations (cap 50, tolerance 1e-14).
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("lambert_w received NaN")
    if x < _NEG_INV_E:
        raise DomainError(f"lambert_w requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf
    if x > 0.0:
        return float(_w_exp(math.log(x)))
    if x < -0.3268:
        # series around the branch point in powers of sqrt(2(e*x + 1))
        q = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0 + 11.0 * q ** 3 / 72.0
    else:
        w = math.log1p(x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        if f == 0.0 or w1 == 0.0:
            break
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-14 * (1.0 + abs(w)):
            break
    return w


def _w_exp(z):
    """W(exp(z)) elementwise, stable where exp(z) overflows or underflows.

    Halley steps on w + log(w) = z, started at z - log(z) for z > 1 (below
    the root, without forming exp(z)) and at log1p(exp(z)) otherwise.
    Below z = -40, W(x) = x - x^2 + ... rounds to x = exp(z).  An element
    stops moving once it has converged, so its value does not depend on the
    other elements of z.
    """
    z = np.asarray(z, float)
    zc = np.maximum(z, -40.0)
    big = zc > 1.0
    x = np.exp(np.minimum(zc, 1.0))
    w = np.where(big, zc - np.log(np.maximum(zc, 1.0)), np.log1p(x))
    open_ = np.ones(w.shape, bool)
    for _ in range(50):
        # log(w / x) for z <= 1: log(w) - z would cancel to an error of eps*|z|
        f = w + np.where(big, np.log(w) - zc, np.log(w / x))
        w1 = w + 1.0
        dw = np.where(open_, f * w / (w1 + 0.5 * f / w1), 0.0)
        w = w - dw
        open_ &= ~(np.abs(dw) <= 1e-14 * w)
        if not open_.any():
            return np.where(z < -40.0, np.exp(np.minimum(z, -40.0)), w)
    raise NumericError(f"W(exp(z)): {int(open_.sum())} elements did not converge in 50 steps")


def project_l1_ball(v, radius):
    """Euclidean projection onto the l1 ball of the given radius."""
    if not radius > 0:
        raise ConfigurationError("l1-ball radius must be positive")
    v = np.asarray(v, float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cssv = np.cumsum(u) - radius
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u > cssv / j)[0][-1]
    tau = cssv[rho] / (rho + 1.0)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def _newton_bisect_vec(hdh, hi, tol=1e-12, max_iter=200):
    """Vectorized safeguarded Newton-bisection for the root in [0, inf) of an
    elementwise-increasing h, where hdh(x) returns (h(x), h'(x)).

    The bracket is [0, hi] (hi > 0), with hi doubled until h(hi) >= 0.
    Steps stop below tol*max(|x|, tol): relative accuracy, so that roots far
    below 1 keep their digits, with an absolute floor of tol**2 that a root
    underflowing to 0 reaches within max_iter halvings.  An element stops
    moving once it has converged, so its root does not depend on the other
    elements of the call.  A Newton step is accepted anywhere in the closed
    bracket [a, b]: the end a (or b) has just been moved to x, so a
    converged step lands on xn == a (or b), and a strict test would reject
    it and bisect away from the root, some 40 halvings per call.  Raises
    BracketingError when h(0) > 0 or no finite upper end exists, and
    NumericError when elements are still unconverged after max_iter steps.
    """
    b = np.array(hi, float, copy=True)
    a = np.zeros_like(b)
    with np.errstate(all="ignore"):
        ha = hdh(a)[0]
        hb = hdh(b)[0]
        short = ~(hb >= 0.0)
        while short.any():
            b = np.where(short, 2.0 * b, b)
            if not np.isfinite(b).all():
                raise BracketingError(f"no upper bracket end for {int(short.sum())} elements")
            hb = hdh(b)[0]
            short = ~(hb >= 0.0)
    if not np.all(ha <= 0.0):
        raise BracketingError(f"h(0) > 0 for {int((~(ha <= 0.0)).sum())} elements")
    b = np.where(ha == 0.0, 0.0, b)  # a root at 0 is returned exactly
    x = 0.5 * (a + b)
    open_ = np.ones(x.shape, bool)
    for _ in range(max_iter):
        with np.errstate(all="ignore"):
            hx, dhx = hdh(x)
            xn = x - hx / dhx
        neg = hx < 0.0
        a = np.where(neg, x, a)
        b = np.where(neg, b, x)
        bad = ~np.isfinite(xn) | (xn < a) | (xn > b)
        xn = np.where(bad, 0.5 * (a + b), xn)
        moved = np.abs(xn - x) > tol * np.maximum(tol, np.abs(xn))
        x = np.where(open_, xn, x)
        open_ &= moved
        if not open_.any():
            return x
    raise NumericError(
        f"root solver: {int(open_.sum())} of {x.size} elements did not converge "
        f"in {max_iter} steps"
    )


def _newton_up_vec(hdh, x, tol=1e-12, max_iter=200):
    """Vectorized Newton's method for the root of an elementwise-increasing,
    concave h, started at x with h(x) <= 0, where hdh(x) returns (h(x), h'(x)).

    The tangent at x lies above a concave h, so the Newton step from below
    the root lands below it again: the iterates rise monotonically to the
    root, with no bracket and no bisection.  Steps stop as in
    _newton_bisect_vec (below tol*max(|x|, tol)), and an element stops
    moving once it has converged, so its root does not depend on the other
    elements of the call.  Raises NumericError when elements are still
    unconverged after max_iter steps or a step leaves the finite floats.
    """
    open_ = np.ones(x.shape, bool)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            hx, dhx = hdh(x)
            xn = x - hx / dhx
            moved = np.abs(xn - x) > tol * np.maximum(tol, np.abs(xn))
            x = np.where(open_, xn, x)
            open_ &= moved  # a step to inf or nan stops here, and fails below
            if not open_.any():
                break
    if open_.any():
        raise NumericError(
            f"monotone Newton: {int(open_.sum())} of {x.size} elements did not converge "
            f"in {max_iter} steps"
        )
    if not np.isfinite(x).all():
        raise NumericError(
            f"monotone Newton: {int((~np.isfinite(x)).sum())} of {x.size} elements "
            f"left the finite floats"
        )
    return x


# The noisy-Burg and inverse-Schatten derivatives share a factor between
# the first and second derivative, so each is a function that forms it once.
# Burg is noisy Burg at s2 = 0 (Divergence.burg() carries sigma2 = 0).
def _dphi_noisy_burg(s2, d):
    q = 1.0 / (d * (1.0 + s2 * d))
    return -q, (1.0 + 2.0 * s2 * d) * (q * q)


def _dpsi_inv_schatten(mu, p, d):
    w = mu * p * d ** (-p - 1.0)
    return -w, (p + 1.0) * w / d


# phi'(d), phi''(d) of each divergence on the interior of its domain
_DPHI = {
    "half_square": lambda s2, d: (d, 1.0),
    "burg": _dphi_noisy_burg,
    "shannon": lambda s2, d: (np.log(d) + 1.0, 1.0 / d),
    "noisy_burg": _dphi_noisy_burg,
}
# psi'(d), psi''(d) of each root-solved penalty on d >= 0
_DPSI = {
    "none": lambda mu, p, d: (0.0, 0.0),
    "schatten": lambda mu, p, d: (
        mu * p * d ** (p - 1.0),
        mu * p * (p - 1.0) * d ** (p - 2.0),
    ),
    "inv_schatten": _dpsi_inv_schatten,
}


def _stationarity(div, pen, lin, target):
    """hdh(d) = (h(d), h'(d)) for h(d) = lin*d - target + phi'(d) + psi'(d),
    increasing in d on every row (_root_vec gives the rows' arguments)."""
    if pen.kind not in _DPSI:
        raise ConfigurationError(f"penalty '{pen.kind}' has no root-solved {div.kind} prox")
    dphi, dpsi = _DPHI[div.kind], _DPSI[pen.kind]
    s2, mu, p = div.sigma2, pen.mu, pen.p

    def hdh(d):
        f1, f2 = dphi(s2, d)
        g1, g2 = dpsi(mu, p, d)
        return lin * d - target + f1 + g1, lin + f2 + g2

    return hdh


def _root_vec(div, pen, lin, target, hi):
    """The root of a _stationarity row (kernel rows: lin = 1/g, target =
    lam/g, hi = max(lam, 0) + 1; Bregman rows: lin = 0, target = phi'(y),
    hi = y).  On the Burg family with no penalty or mu*d^-p (noisy Burg
    with s2 = sigma2), h is increasing and concave on d > 0 and lies below
    lin*d - (target - s2) - 1/d.  That bound's positive root, the Burg prox
    at lam - g*s2 (for lin = 0 the anchor y, where h = -psi'(y) <= 0
    exactly), is a start with h <= 0, from which Newton rises to the root
    (_newton_up_vec).  Every other row is bracketed on [0, hi]."""
    hdh = _stationarity(div, pen, lin, target)
    if div.kind in ("burg", "noisy_burg") and pen.kind in ("none", "inv_schatten"):
        start = _burg_root((target - div.sigma2) / lin, 1.0 / lin) if lin else hi
        return _newton_up_vec(hdh, start)
    return _newton_bisect_vec(hdh, hi)


# ---------------------------------------------------------------------------
# evaluation


def _phi_sum(div, lam):
    """Total divergence value over an eigenvalue vector; +inf outside domain."""
    k = div.kind
    if k == "half_square":
        return 0.5 * float(lam @ lam)
    lo = lam.min()
    if lo < 0 or (lo == 0 and k != "shannon"):
        return math.inf
    if k == "shannon":
        pos = lam > 0
        vals = lam[pos]
        return float((vals * np.log(vals)).sum())
    # the Burg family (Burg is sigma2 = 0, where log1p(0) == 0 adds nothing);
    # an infinite eigenvalue is outside the domain (the sum below would be NaN)
    if lam.max() == math.inf:
        return math.inf
    return float((-np.log(lam) + np.log1p(div.sigma2 * lam)).sum())


def _psi_sum(pen, d):
    """Total penalty value over an eigenvalue vector; +inf outside domain."""
    k = pen.kind
    if k == "none":
        return 0.0
    if k == "nuclear":
        return pen.mu * float(np.abs(d).sum())
    if k == "fro_squared":
        return pen.mu * float(d @ d)
    if k == "schatten":
        return pen.mu * float((np.abs(d) ** pen.p).sum())
    if k == "inv_schatten":
        if d.min() <= 0:
            return math.inf
        return pen.mu * float((d ** (-pen.p)).sum())
    if k == "eig_box":
        slack = _IND_SLACK * max(
            1.0,
            abs(pen.alpha) if math.isfinite(pen.alpha) else 0.0,
            abs(pen.beta) if math.isfinite(pen.beta) else 0.0,
        )
        if np.any(d < pen.alpha - slack) or np.any(d > pen.beta + slack):
            return math.inf
        return 0.0
    if k == "rank":
        return pen.mu * float(np.count_nonzero(d))
    if k == "cauchy":
        return pen.mu * float(np.log(d * d + pen.eps).sum())
    if k == "fro_norm":
        return pen.mu * float(np.linalg.norm(d))
    if k == "fro_ball":
        if np.linalg.norm(d) > pen.alpha + _IND_SLACK * max(1.0, pen.alpha):
            return math.inf
        return 0.0
    # spectral_norm
    return pen.mu * float(np.abs(d).max())


def kernel_eval(k, lam):
    """phi(lam) + psi(lam) for a single eigenvalue; +inf outside the domain."""
    return kernel_eval_vec(k, np.array([float(lam)]))


def kernel_eval_vec(k, lam):
    """Total phi + psi over an eigenvalue vector; +inf outside the domain,
    which for a PSD kernel is the cone up to eigensolve dust (_psd_ok)."""
    lam = np.asarray(lam, float)
    if k.psd and not _psd_ok(lam):
        return math.inf
    v = _phi_sum(k.divergence, lam)
    if math.isinf(v):
        return math.inf
    w = _psi_sum(k.penalty, lam)
    return v + w if not math.isinf(w) else math.inf


# ---------------------------------------------------------------------------
# closed forms


def _burg_root(b, c):
    """The positive root of d^2 - b d - c (c > 0), without cancellation."""
    s = np.hypot(b, 2.0 * np.sqrt(c))  # sqrt(b^2 + 4c) without overflow
    # halves summed, not a sum halved: s + |b| overflows when both are near the float max
    return np.where(b >= 0.0, 0.5 * b + 0.5 * s, c / (0.5 * s + 0.5 * np.abs(b)))


# prox of g*phi at lam for each divergence with a closed form
_PROX_PHI = {
    "half_square": lambda g, lam: lam / (1.0 + g),
    "burg": lambda g, lam: _burg_root(lam, g),
    "shannon": lambda g, lam: g * _w_exp(lam / g - 1.0 - math.log(g)),
}


def _degree(pen):
    """1 for a linear penalty mu*|d| (nuclear, Schatten p = 1), 2 for a
    quadratic one mu*d^2 (fro_squared, Schatten p = 2), else 0."""
    if pen.kind == "schatten" and pen.p in (1.0, 2.0):
        return int(pen.p)
    return {"nuclear": 1, "fro_squared": 2}.get(pen.kind, 0)


# ---------------------------------------------------------------------------
# set-valued rows


def _rank_vec(div, pen, g, lam):
    """The rank rows' nonzero candidate x per element and its margin over
    the closed-form threshold (tau on |x| for half-square, chi on x for
    Shannon): the minimizer is x for a positive margin, 0 for a negative
    one, and both for a zero margin."""
    x = _PROX_PHI[div.kind](g, lam)
    if div.kind == "half_square":
        return x, np.abs(x) - math.sqrt(2.0 * pen.mu * g / (1.0 + g))
    return x, x - (math.sqrt(g * (g + 2.0 * pen.mu)) - g)


def _horner(p, dp, x):
    """np.polyval(p, x) and np.polyval(dp, x) in one loop over the
    coefficients (highest first along axis 0), with polyval's arithmetic."""
    y, dy = np.zeros_like(x), np.zeros_like(x)
    for i, c in enumerate(p):
        y = y * x + c
        if i < len(dp):
            dy = dy * x + dp[i]
    return y, dy


def _cauchy_scored(k, g, lam):
    """Candidates of the Cauchy rows per element of lam and their prox
    objectives, as (m, K) arrays with each row sorted by (objective, |d|, d).

    The candidates are the real roots of the stationarity condition
    multiplied out to a polynomial in d (plus d = 0 on the half-square row).
    The roots of all elements come from one batched eigenvalue solve of
    their companion matrices (the matrices np.roots would build one at a
    time).  Complex roots are NaN; they and roots outside the divergence's
    domain score +inf.
    """
    mu, eps = k.penalty.mu, k.penalty.eps
    hs = k.divergence.kind == "half_square"
    if hs:
        # ((1+g)d - lam)(d^2 + eps) + 2 g mu d = 0
        coefs = (1.0 + g, -lam, eps * (1.0 + g) + 2.0 * g * mu, -lam * eps)
    else:
        # burg: ((d - lam)d - g)(d^2 + eps) + 2 g mu d^2 = 0, on d > 0
        coefs = (1.0, -lam, eps - g + 2.0 * g * mu, -lam * eps, -g * eps)
    deg = len(coefs) - 1
    comp = np.zeros((lam.size, deg, deg))
    comp[:, 0, :] = -np.stack(np.broadcast_arrays(*coefs[1:]), axis=1) / coefs[0]
    if not np.isfinite(comp[:, 0, :]).all():
        raise NumericError(
            f"{k.divergence.kind}-cauchy prox: the candidate polynomial's coefficients overflow "
            f"(mu={mu!r}, eps={eps!r}, gamma={g!r})"
        )
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    # near-double real roots can come back as a pair with a tiny imaginary part
    real = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real))
    d = np.where(real, roots.real, np.nan)
    # companion eigenvalues carry an absolute error of about eps*|lam|, which
    # swamps a root near g/|lam|: polish each by Newton steps, kept where |p| drops
    p = np.stack(np.broadcast_arrays(*coefs))[:, :, None]
    dp = p[:-1] * np.arange(deg, 0, -1)[:, None, None]
    with np.errstate(all="ignore"):
        pd, dpd = _horner(p, dp, d)
        for _ in range(2):
            dn = d - pd / dpd
            pn, dpn = _horner(p, dp, dn)
            better = np.abs(pn) < np.abs(pd)
            d = np.where(better, dn, d)
            pd, dpd = np.where(better, pn, pd), np.where(better, dpn, dpd)
        if hs:
            d = np.concatenate([np.zeros((lam.size, 1)), d], axis=1)
            phi = 0.5 * (d * d)
        else:
            phi = np.where(d > 0.0, -np.log(d), np.inf)
        obj = 0.5 * (d - lam[:, None]) ** 2 + g * (phi + mu * np.log(d * d + eps))
    obj = np.where(np.isfinite(obj), obj, np.inf)
    order = np.lexsort((d, np.abs(d), obj))
    d, obj = np.take_along_axis(d, order, 1), np.take_along_axis(obj, order, 1)
    if not np.isfinite(obj[:, 0]).all():
        raise DomainError("prox candidate set is empty")
    return d, obj


# ---------------------------------------------------------------------------
# public prox entry points


def _prox_separable_vec(div, pen, g, lam):
    """The separable rows: changes of variable of _PROX_PHI where the penalty
    is none, a box, linear or quadratic, the root solver otherwise."""
    # noisy_burg with sigma2 = 0 is Burg
    kind = "burg" if div.kind == "noisy_burg" and div.sigma2 == 0.0 else div.kind
    prox_phi = _PROX_PHI.get(kind)
    deg = _degree(pen)
    if prox_phi is None or not (deg or pen.kind in ("none", "eig_box")):
        if div.kind == "half_square" and pen.kind == "schatten":
            # the prox is odd in lam: solve for |d| at |lam|
            a = np.abs(lam)
            return np.sign(lam) * _root_vec(div, pen, 1.0 / g, a / g, a + 1.0)
        return _root_vec(div, pen, 1.0 / g, lam / g, np.maximum(lam, 0.0) + 1.0)
    if deg == 2:
        # g*mu*d^2 merges into the quadratic term: gamma and lam scale by 1/(1 + 2*g*mu),
        # formed over m = max(g, 1) so that neither 2*g*mu nor lam/g can overflow
        m = max(g, 1.0)
        a = 0.5 / m + g / m * pen.mu
        return prox_phi(0.5 * g / m / a, 0.5 * lam / m / a)
    if deg == 1 and div.kind == "half_square":
        return soft(g * pen.mu / (g + 1.0), prox_phi(g, lam))
    if deg == 1:
        # g*mu*d on d >= 0 shifts lam
        b = lam - g * pen.mu
        if kind == "burg" and not np.isfinite(b).all():  # Burg's prox at -inf is 0, outside its domain
            raise NumericError(
                f"burg-{pen.kind} prox: lam - gamma*mu overflows (mu={pen.mu!r}, gamma={g!r})"
            )
        return prox_phi(g, b)
    d = prox_phi(g, lam)
    return np.clip(d, pen.alpha, pen.beta) if pen.kind == "eig_box" else d


def kernel_prox(k, gamma, lam):
    """All global minimizers of the per-eigenvalue prox problem, best first.

    Convex kernels return a singleton; rank and Cauchy rows may return two
    tied points (caller takes the first for determinism).
    """
    _check_real("gamma", gamma)
    lam = np.array([max(float(lam), 0.0) if k.psd else float(lam)])
    if k.penalty.kind == "rank":
        x, margin = _rank_vec(k.divergence, k.penalty, gamma, lam)
        if margin[0] == 0.0 and x[0] != 0.0:
            return (0.0, float(x[0]))
    elif k.penalty.kind == "cauchy":
        d, obj = _cauchy_scored(k, gamma, lam)
        best = obj[0, 0]
        tied = []
        for di, oi in zip(d[0].tolist(), obj[0].tolist()):
            if oi > best + 1e-11 * max(1.0, abs(best)):
                break
            if all(abs(di - t) > 1e-12 * max(1.0, abs(di)) for t in tied):
                tied.append(di)
        return tuple(tied)
    return (float(kernel_prox_vec(k, gamma, lam)[0]),)


def kernel_prox_vec(k, gamma, lam):
    """Prox applied to a whole eigenvalue vector (selection rule applied
    per coordinate for set-valued rows; vector formulas for non-separable
    penalties).

    A PSD kernel's prox over d >= 0 is the unconstrained prox at
    max(lam, 0): on every row that keeps psd, phi + psi is even and
    nondecreasing in each |d_i|, except eig_box, whose lower bound is then
    at least 0, so that it sends every lam <= 0 to the same point.
    """
    _check_real("gamma", gamma)
    lam = np.maximum(lam, 0.0) if k.psd else np.asarray(lam, float)
    pen = k.penalty
    if pen.kind == "fro_norm":
        nrm = float(np.linalg.norm(lam))
        if nrm > gamma * pen.mu:
            return (1.0 - gamma * pen.mu / nrm) * lam / (1.0 + gamma)
        return np.zeros_like(lam)
    if pen.kind == "fro_ball":
        nrm = float(np.linalg.norm(lam))
        if nrm > pen.alpha * (1.0 + gamma):
            return pen.alpha * lam / nrm
        return lam / (1.0 + gamma)
    if pen.kind == "spectral_norm":
        # Moreau: the prox of r*||.||_inf at lam is lam less its projection
        # on the l1 ball of radius r = mu*gamma, which may be infinite
        return (lam - project_l1_ball(lam, pen.mu * gamma)) / (1.0 + gamma)
    if pen.kind == "rank":
        x, margin = _rank_vec(k.divergence, pen, gamma, lam)
        return np.where(margin > 0.0, x, 0.0)
    if pen.kind == "cauchy":
        return _cauchy_scored(k, gamma, lam)[0][:, 0]
    return _prox_separable_vec(k.divergence, pen, gamma, lam)


def _bregman_prox_vec(div, pen, y):
    """Bregman prox on the anchor's eigenvalues: argmin_d psi(d) + D_phi(d, y)
    (the half-square rows include the whole-vector penalties)."""
    k = div.kind
    if k == "half_square":
        # D_phi(d, y) = (d - y)^2 / 2: the classical prox of psi at y, which
        # is the gamma = 1 spectral kernel at 2y with doubled penalty weight
        return kernel_prox_vec(ScalarKernel(div, replace(pen, mu=2.0 * pen.mu)), 1.0, 2.0 * y)
    if pen.kind == "none":
        return y.copy()
    if pen.kind == "eig_box":
        return np.clip(y, pen.alpha, pen.beta)
    deg = _degree(pen)
    if deg == 1 and k == "shannon":
        return y * math.exp(-pen.mu)
    if deg == 1:  # Burg: y / (1 + mu*y) over m = max(y, 1), where neither mu*y nor 1/y can overflow
        m = np.maximum(y, 1.0)
        return (y / m) / (1.0 / m + pen.mu * (y / m))
    target = _DPHI[k](div.sigma2, y)[0]
    if deg == 2:
        # mu*d^2 - phi'(y)*d + phi(d) is a prox of g*phi at g*phi'(y), g = 1/(2 mu)
        g = 0.5 / pen.mu
        return _PROX_PHI[k](g, g * target)
    # phi'(d) + psi'(d) = phi'(y), increasing in d
    return _root_vec(div, pen, 0.0, target, y)


# ---------------------------------------------------------------------------
# kernel mini-grammar


# Short spellings of divergence and penalty kinds; a kind's own name also parses.
_ALIASES = {
    "hs": "half_square", "halfsquare": "half_square", "noisyburg": "noisy_burg",
    "fro": "fro_norm", "frosq": "fro_squared", "invschatten": "inv_schatten",
    "froball": "fro_ball", "eigbox": "eig_box", "spectral": "spectral_norm",
}
_NUM_KEYS = ("mu", "p", "eps", "alpha", "beta", "sigma2")


def parse_kernel(text):
    """Parse a kernel spec like 'divergence=burg penalty=nuclear mu=0.2'."""
    kv = {}
    for tok in text.split():
        if "=" not in tok:
            raise ConfigurationError(f"kernel spec token '{tok}' is not key=value")
        key, val = tok.split("=", 1)
        kv[key] = val
    for key in kv:
        if key not in ("divergence", "penalty") + _NUM_KEYS:
            raise ConfigurationError(f"unknown kernel spec key '{key}'")
    nums = {}
    for key in _NUM_KEYS:
        if key in kv:
            try:
                nums[key] = float(kv[key])
            except ValueError:
                raise ConfigurationError(
                    f"kernel spec key '{key}' has non-numeric value '{kv[key]}'"
                ) from None
    dname = kv.get("divergence", "half_square").lower()
    dkind = _ALIASES.get(dname, dname)
    if dkind not in _DIV_KINDS:
        raise ConfigurationError(f"unknown value for key 'divergence': '{dname}'")
    div = Divergence(dkind, nums.get("sigma2", 0.0) if dkind == "noisy_burg" else 0.0)
    pname = kv.get("penalty", "none").lower()
    pkind = _ALIASES.get(pname, pname)
    if pkind not in _PEN_PARAMS:
        raise ConfigurationError(f"unknown value for key 'penalty': '{pname}'")
    if pkind == "eig_box":  # a bound left out is unbounded; any other parameter is 0
        nums = {"alpha": -math.inf, "beta": math.inf, **nums}
    pen = Penalty(pkind, **{key: nums.get(key, 0.0) for key in _PEN_PARAMS[pkind]})
    return ScalarKernel(div, pen)
