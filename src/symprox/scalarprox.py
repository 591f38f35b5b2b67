"""One-dimensional proximity kernels for spectral matrix objectives.

A ScalarKernel pairs a divergence phi (acting per eigenvalue) with a
penalty psi.  kernel_prox solves, per eigenvalue,

    argmin_d  (d - lam)^2 / 2 + gamma * (phi(d) + psi(d)),

in closed form where one exists and by safeguarded root solving
otherwise.  Nonconvex penalties (rank, Cauchy) may have several global
minimizers; all are returned and callers take the first (lowest
objective, then smallest magnitude).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ConfigurationError, DomainError, NumericError

_DIV_KINDS = ("half_square", "burg", "shannon", "noisy_burg")
_PEN_KINDS = (
    "none",
    "nuclear",
    "fro_norm",
    "fro_squared",
    "schatten",
    "inv_schatten",
    "fro_ball",
    "eig_box",
    "rank",
    "cauchy",
    "spectral_norm",
)
# Penalties that act on the whole eigenvalue vector (non-separable).
VECTOR_PENALTIES = frozenset({"fro_norm", "fro_ball", "spectral_norm"})

# Divergences whose domain forces nonnegative eigenvalues.
_NONNEG_DIVS = frozenset({"burg", "shannon", "noisy_burg"})

# Supported (divergence, penalty) pairings.
_SUPPORTED = {
    "half_square": frozenset(_PEN_KINDS),
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
        if self.sigma2 < 0:
            raise ConfigurationError("sigma2 must be nonnegative")
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
        if k not in _PEN_KINDS:
            raise ConfigurationError(f"unknown penalty '{k}'")
        if k in ("nuclear", "fro_norm", "fro_squared", "rank", "spectral_norm",
                 "schatten", "inv_schatten", "cauchy") and not self.mu > 0:
            raise ConfigurationError(f"penalty '{k}' requires weight mu > 0")
        if k == "schatten" and not self.p >= 1:
            raise ConfigurationError("schatten penalty requires p >= 1")
        if k == "inv_schatten" and not self.p > 0:
            raise ConfigurationError("inv_schatten penalty requires p > 0")
        if k == "cauchy" and not self.eps > 0:
            raise ConfigurationError("cauchy penalty requires eps > 0")
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
    """A supported (divergence, penalty) pair.

    Unsupported pairings are rejected here, at configuration time.  For
    divergences with nonnegative domain, eig_box bounds are clipped to
    [0, +inf].
    """

    divergence: Divergence
    penalty: Penalty

    def __post_init__(self):
        d, p = self.divergence, self.penalty
        if p.kind not in _SUPPORTED[d.kind]:
            raise ConfigurationError(
                f"unsupported pairing: divergence '{d.kind}' with penalty '{p.kind}'"
            )
        if d.kind == "noisy_burg" and p.kind == "inv_schatten" and p.p != 1.0:
            raise ConfigurationError("noisy_burg supports inv_schatten only with p = 1")
        if p.kind == "eig_box" and d.kind in _NONNEG_DIVS:
            if p.beta < 0:
                raise ConfigurationError(
                    f"eig_box upper bound {p.beta} is infeasible for '{d.kind}'"
                )
            if p.alpha < 0:
                object.__setattr__(self, "penalty", Penalty.eig_box(0.0, p.beta))


def soft(mu, xi):
    """Soft threshold: shrink xi toward zero by mu."""
    out = np.sign(xi) * np.maximum(np.abs(xi) - mu, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def hard(mu, xi):
    """Hard threshold: zero out |xi| <= mu (boundary maps to zero)."""
    xi_arr = np.asarray(xi, float)
    out = np.where(np.abs(xi_arr) > mu, xi_arr, 0.0)
    return float(out) if np.ndim(xi) == 0 else out


_NEG_INV_E = -math.exp(-1.0)


def lambert_w(x):
    """Principal branch of the Lambert W function for real x >= -1/e.

    Branch-aware initialization followed by Halley iterations (cap 50,
    tolerance 1e-14).
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
    if x < -0.3268:
        # series around the branch point in powers of sqrt(2(e*x + 1))
        q = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0 + 11.0 * q ** 3 / 72.0
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
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
    """W(exp(z)), stable for large z where exp(z) overflows."""
    if z > 700.0:
        w = z - math.log(z)
        for _ in range(50):
            # Newton on w + log(w) = z
            wn = w - (w + math.log(w) - z) * w / (w + 1.0)
            if abs(wn - w) <= 1e-14 * max(1.0, abs(wn)):
                return wn
            w = wn
        return w
    return lambert_w(math.exp(z))


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
    underflowing to 0 reaches within max_iter halvings.  Raises
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
    for _ in range(max_iter):
        with np.errstate(all="ignore"):
            hx, dhx = hdh(x)
            xn = x - hx / dhx
        neg = hx < 0.0
        a = np.where(neg, x, a)
        b = np.where(neg, b, x)
        bad = ~np.isfinite(xn) | (xn <= a) | (xn >= b)
        xn = np.where(bad, 0.5 * (a + b), xn)
        open_ = np.abs(xn - x) > tol * np.maximum(tol, np.abs(xn))
        if not open_.any():
            return xn
        x = xn
    raise NumericError(
        f"root solver: {int(open_.sum())} of {x.size} elements did not converge "
        f"in {max_iter} steps"
    )


# phi'(d), phi''(d) of each divergence on the interior of its domain
_DPHI = {
    "half_square": lambda s2, d: (d, 1.0),
    "burg": lambda s2, d: (-1.0 / d, 1.0 / (d * d)),
    "shannon": lambda s2, d: (np.log(d) + 1.0, 1.0 / d),
    "noisy_burg": lambda s2, d: (
        -1.0 / (d * (1.0 + s2 * d)),
        (1.0 + 2.0 * s2 * d) / (d * (1.0 + s2 * d)) ** 2,
    ),
}
# psi'(d), psi''(d) of each root-solved penalty on d >= 0
_DPSI = {
    "none": lambda mu, p, d: (0.0, 0.0),
    "schatten": lambda mu, p, d: (
        mu * p * d ** (p - 1.0),
        mu * p * (p - 1.0) * d ** (p - 2.0),
    ),
    "inv_schatten": lambda mu, p, d: (
        -mu * p * d ** (-p - 1.0),
        mu * p * (p + 1.0) * d ** (-p - 2.0),
    ),
}


def _stationarity(div, pen, lin, target):
    """hdh(d) = (h(d), h'(d)) for h(d) = lin*d - target + phi'(d) + psi'(d).

    Kernel rows use lin = 1/gamma, target = lam/gamma; Bregman rows use
    lin = 0, target = phi'(y).  h is increasing in d for every row.
    """
    if pen.kind not in _DPSI:
        raise ConfigurationError(f"penalty '{pen.kind}' has no root-solved {div.kind} prox")
    dphi, dpsi = _DPHI[div.kind], _DPSI[pen.kind]
    s2, mu, p = div.sigma2, pen.mu, pen.p

    def hdh(d):
        f1, f2 = dphi(s2, d)
        g1, g2 = dpsi(mu, p, d)
        return lin * d - target + f1 + g1, lin + f2 + g2

    return hdh


def _kernel_root_vec(div, pen, g, lam):
    """Root-solved kernel prox: (d - lam)/g + phi'(d) + psi'(d) = 0."""
    hdh = _stationarity(div, pen, 1.0 / g, lam / g)
    return _newton_bisect_vec(hdh, np.maximum(lam, 0.0) + 1.0)


# ---------------------------------------------------------------------------
# evaluation


def _phi_sum(div, lam):
    """Total divergence value over an eigenvalue vector; +inf outside domain."""
    k = div.kind
    if k == "half_square":
        return 0.5 * float(lam @ lam)
    if np.any(lam < 0) or (k != "shannon" and np.any(lam == 0)):
        return math.inf
    if k == "burg":
        return float(-np.log(lam).sum())
    if k == "shannon":
        pos = lam > 0
        vals = lam[pos]
        return float((vals * np.log(vals)).sum())
    # noisy_burg; sigma2 == 0 evaluates identically to burg since log1p(0) == 0
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
        if np.any(d <= 0):
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
    """Total phi + psi over an eigenvalue vector."""
    lam = np.asarray(lam, float)
    v = _phi_sum(k.divergence, lam)
    if math.isinf(v):
        return math.inf
    w = _psi_sum(k.penalty, lam)
    return v + w if not math.isinf(w) else math.inf


def _prox_obj(k, gamma, lam, d):
    val = kernel_eval_vec(k, np.array([float(d)]))
    if math.isinf(val):
        return math.inf
    return 0.5 * (d - lam) ** 2 + gamma * val


# ---------------------------------------------------------------------------
# prox: half-square divergence rows


def _hs_schatten_vec(div, pen, g, lam):
    mu, p = pen.mu, pen.p
    if p == 1.0:
        return soft(g * mu / (g + 1.0), lam / (g + 1.0))
    if p == 2.0:
        return lam / (1.0 + g * (1.0 + 2.0 * mu))
    if p == 3.0:
        # stationarity 3*mu*g*t^2 + (g+1)*t = |lam|; the closed form is odd in lam
        return np.sign(lam) * (
            np.sqrt((g + 1.0) ** 2 + 12.0 * np.abs(lam) * g * mu) - (g + 1.0)
        ) / (6.0 * g * mu)
    if p == 4.0:
        zeta = (g + 1.0) ** 3 / (27.0 * g * mu)
        s = np.sqrt(lam * lam + zeta)
        return (np.cbrt(lam + s) + np.cbrt(lam - s)) * (8.0 * g * mu) ** (-1.0 / 3.0)
    if abs(p - 4.0 / 3.0) < 1e-12:
        zeta = 256.0 * (g * mu) ** 3 / (729.0 * (1.0 + g))
        s = np.sqrt(lam * lam + zeta)
        corr = (4.0 * g * mu) / (3.0 * np.cbrt(2.0 * (1.0 + g)))
        return (lam + corr * (np.cbrt(s - lam) - np.cbrt(s + lam))) / (1.0 + g)
    if p == 1.5:
        w = 9.0 * g * g * mu * mu / (8.0 * (1.0 + g))
        r = np.sqrt(1.0 + 16.0 * (1.0 + g) * np.abs(lam) / (9.0 * g * g * mu * mu))
        return (lam + w * np.sign(lam) * (1.0 - r)) / (1.0 + g)
    # the prox is odd in lam: solve for |d| at |lam|
    return np.sign(lam) * _kernel_root_vec(div, pen, g, np.abs(lam))


def _prox_hs_vec(div, pen, g, lam):
    k = pen.kind
    if k == "none":
        return lam / (1.0 + g)
    if k == "nuclear":
        return soft(g * pen.mu / (g + 1.0), lam / (g + 1.0))
    if k == "fro_squared":
        return lam / (1.0 + g * (1.0 + 2.0 * pen.mu))
    if k == "eig_box":
        return np.clip(lam / (g + 1.0), pen.alpha, pen.beta)
    if k == "schatten":
        return _hs_schatten_vec(div, pen, g, lam)
    return _kernel_root_vec(div, pen, g, lam)


# ---------------------------------------------------------------------------
# prox: Burg divergence rows


def _burg_none_vec(g, lam):
    return 0.5 * (lam + np.sqrt(lam * lam + 4.0 * g))


def _prox_burg_vec(div, pen, g, lam):
    k = pen.kind
    if k == "none":
        return _burg_none_vec(g, lam)
    if k == "nuclear" or (k == "schatten" and pen.p == 1.0):
        shifted = lam - g * pen.mu
        return 0.5 * (shifted + np.sqrt(shifted * shifted + 4.0 * g))
    if k == "fro_squared" or (k == "schatten" and pen.p == 2.0):
        c = 2.0 * g * pen.mu + 1.0
        return (lam + np.sqrt(lam * lam + 4.0 * g * c)) / (2.0 * c)
    if k == "eig_box":
        return np.clip(_burg_none_vec(g, lam), pen.alpha, pen.beta)
    return _kernel_root_vec(div, pen, g, lam)


# ---------------------------------------------------------------------------
# prox: Shannon divergence rows


def _shannon_none_vec(g, lam):
    logg = math.log(g)
    return g * np.array([_w_exp(x / g - 1.0 - logg) for x in np.atleast_1d(lam)])


def _prox_shannon_vec(div, pen, g, lam):
    k = pen.kind
    logg = math.log(g)
    if k == "none":
        return _shannon_none_vec(g, lam)
    if k == "nuclear" or (k == "schatten" and pen.p == 1.0):
        return g * np.array([_w_exp(x / g - pen.mu - 1.0 - logg) for x in lam])
    if k == "fro_squared" or (k == "schatten" and pen.p == 2.0):
        c = 2.0 * pen.mu * g + 1.0
        z0 = math.log(c) - logg - 1.0
        return (g / c) * np.array([_w_exp(x / g + z0) for x in lam])
    if k == "eig_box":
        return np.clip(_shannon_none_vec(g, lam), pen.alpha, pen.beta)
    return _kernel_root_vec(div, pen, g, lam)


def prox_noisy_burg_quartic(gamma, mu0, sigma2, lam):
    """Unique positive minimizer of
    (d - lam)^2/2 + gamma*(-log(d/(1 + sigma2*d)) + mu0/d).

    First-order optimality multiplies out to a degree-4 polynomial in d;
    the root is isolated by safeguarded Newton-bisection on the strictly
    increasing stationarity function.
    """
    if not gamma > 0:
        raise ConfigurationError("gamma must be positive")
    if mu0 < 0 or sigma2 < 0:
        raise ConfigurationError("mu0 and sigma2 must be nonnegative")
    pen = Penalty.inv_schatten(mu0, 1.0) if mu0 > 0 else Penalty.none()
    lam = np.array([float(lam)])
    return float(_prox_separable_vec(Divergence.noisy_burg(sigma2), pen, gamma, lam)[0])


# ---------------------------------------------------------------------------
# set-valued rows


def _rank_candidates(div, pen, g, lam):
    if div.kind == "half_square":
        tau = math.sqrt(2.0 * pen.mu * g / (1.0 + g))
        x = lam / (1.0 + g)
        if abs(x) > tau:
            return (x,)
        if abs(x) == tau and x != 0.0:
            return (0.0, x)
        return (0.0,)
    # shannon
    rho = g * _w_exp(lam / g - 1.0 - math.log(g))
    chi = math.sqrt(g * (g + 2.0 * pen.mu)) - g
    if rho > chi:
        return (rho,)
    if rho == chi and rho > 0.0:
        return (0.0, rho)
    return (0.0,)


def _select_minimizers(k, gamma, lam, candidates):
    """Evaluate the prox objective at each candidate; keep the global set,
    ordered by (objective, |d|)."""
    scored = []
    for d in candidates:
        val = _prox_obj(k, gamma, lam, d)
        if math.isfinite(val):
            scored.append((val, abs(d), d))
    if not scored:
        raise DomainError("prox candidate set is empty")
    scored.sort()
    best = scored[0][0]
    tol = 1e-11 * max(1.0, abs(best))
    out = []
    for val, _, d in scored:
        if val > best + tol:
            break
        if all(abs(d - o) > 1e-12 * max(1.0, abs(d)) for o in out):
            out.append(d)
    return tuple(out)


def _cauchy_candidates(k, g, lam):
    """Per element of lam, the minimizers among the real roots of the
    stationarity condition multiplied out to a polynomial in d.  The roots
    of all elements come from one batched eigenvalue solve of their
    companion matrices (the matrices np.roots would build one at a time)."""
    mu, eps = k.penalty.mu, k.penalty.eps
    if k.divergence.kind == "half_square":
        # ((1+g)d - lam)(d^2 + eps) + 2 g mu d = 0
        coefs = (1.0 + g, -lam, eps * (1.0 + g) + 2.0 * g * mu, -lam * eps)
        extra = (0.0,)
    else:
        # burg: ((d - lam)d - g)(d^2 + eps) + 2 g mu d^2 = 0, on d > 0
        coefs = (1.0, -lam, eps - g + 2.0 * g * mu, -lam * eps, -g * eps)
        extra = ()
    deg = len(coefs) - 1
    comp = np.zeros((lam.size, deg, deg))
    comp[:, 0, :] = -np.stack(np.broadcast_arrays(*coefs[1:]), axis=1) / coefs[0]
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    # near-double real roots can come back as a pair with a tiny imaginary part
    real = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real))
    return [
        _select_minimizers(k, g, x, sorted({*extra, *r.real[ok].tolist()}, key=abs))
        for x, r, ok in zip(lam.tolist(), roots, real)
    ]


# ---------------------------------------------------------------------------
# public prox entry points


def _prox_separable_vec(div, pen, g, lam):
    if div.kind == "half_square":
        return _prox_hs_vec(div, pen, g, lam)
    if div.kind == "shannon":
        return _prox_shannon_vec(div, pen, g, lam)
    if div.kind == "burg" or div.sigma2 == 0.0:
        # noisy_burg with sigma2 = 0 is Burg, so the Burg closed forms apply
        return _prox_burg_vec(div, pen, g, lam)
    return _kernel_root_vec(div, pen, g, lam)


def kernel_prox(k, gamma, lam):
    """All global minimizers of the per-eigenvalue prox problem, best first.

    Convex kernels return a singleton; rank and Cauchy rows may return two
    tied points (caller takes the first for determinism).
    """
    if not gamma > 0:
        raise ConfigurationError("gamma must be positive")
    lam = float(lam)
    pen = k.penalty
    if pen.kind == "rank":
        return _rank_candidates(k.divergence, pen, gamma, lam)
    if pen.kind == "cauchy":
        return _cauchy_candidates(k, gamma, np.array([lam]))[0]
    if pen.kind in VECTOR_PENALTIES:
        return (float(kernel_prox_vec(k, gamma, np.array([lam]))[0]),)
    return (float(_prox_separable_vec(k.divergence, pen, gamma, np.array([lam]))[0]),)


def kernel_prox_vec(k, gamma, lam):
    """Prox applied to a whole eigenvalue vector (selection rule applied
    per coordinate for set-valued rows; vector formulas for non-separable
    penalties)."""
    if not gamma > 0:
        raise ConfigurationError("gamma must be positive")
    lam = np.asarray(lam, float)
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
        mg = pen.mu * gamma
        return (lam - mg * project_l1_ball(lam / mg, 1.0)) / (1.0 + gamma)
    if pen.kind == "rank":
        return np.array([kernel_prox(k, gamma, x)[0] for x in lam])
    if pen.kind == "cauchy":
        return np.array([c[0] for c in _cauchy_candidates(k, gamma, lam)])
    return _prox_separable_vec(k.divergence, pen, gamma, lam)


# ---------------------------------------------------------------------------
# kernel mini-grammar


_DIV_NAMES = {
    "half_square": "half_square",
    "halfsquare": "half_square",
    "hs": "half_square",
    "burg": "burg",
    "shannon": "shannon",
    "noisy_burg": "noisy_burg",
    "noisyburg": "noisy_burg",
}
_PEN_NAMES = {
    "none": "none",
    "nuclear": "nuclear",
    "fro_norm": "fro_norm",
    "fro": "fro_norm",
    "fro_squared": "fro_squared",
    "frosq": "fro_squared",
    "schatten": "schatten",
    "inv_schatten": "inv_schatten",
    "invschatten": "inv_schatten",
    "fro_ball": "fro_ball",
    "froball": "fro_ball",
    "eig_box": "eig_box",
    "eigbox": "eig_box",
    "rank": "rank",
    "cauchy": "cauchy",
    "spectral_norm": "spectral_norm",
    "spectral": "spectral_norm",
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
    if dname not in _DIV_NAMES:
        raise ConfigurationError(f"unknown value for key 'divergence': '{dname}'")
    dkind = _DIV_NAMES[dname]
    div = (
        Divergence.noisy_burg(nums.get("sigma2", 0.0))
        if dkind == "noisy_burg"
        else Divergence(dkind)
    )
    pname = kv.get("penalty", "none").lower()
    if pname not in _PEN_NAMES:
        raise ConfigurationError(f"unknown value for key 'penalty': '{pname}'")
    pkind = _PEN_NAMES[pname]
    if pkind == "none":
        pen = Penalty.none()
    elif pkind in ("nuclear", "fro_norm", "fro_squared", "rank", "spectral_norm"):
        pen = Penalty(pkind, mu=nums.get("mu", 0.0))
    elif pkind in ("schatten", "inv_schatten"):
        pen = Penalty(pkind, mu=nums.get("mu", 0.0), p=nums.get("p", 0.0))
    elif pkind == "fro_ball":
        pen = Penalty.fro_ball(nums.get("alpha", 0.0))
    elif pkind == "eig_box":
        pen = Penalty.eig_box(nums.get("alpha", -math.inf), nums.get("beta", math.inf))
    else:
        pen = Penalty.cauchy(nums.get("mu", 0.0), nums.get("eps", 0.0))
    return ScalarKernel(div, pen)
