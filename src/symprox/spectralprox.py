"""Lift scalar kernels to matrix proximity operators.

Given a kernel (phi, psi), the prox of gamma*(f - trace(T .) + g0) at
C_bar is obtained by diagonalizing C_bar + gamma*T and applying the
scalar prox to each eigenvalue; a PSD constraint clips the proxed
eigenvalues at zero.  Bregman proxes with respect to phi follow the same
diagonalize/solve/recompose route in the eigenbasis of the anchor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .scalarprox import (
    Penalty,
    ScalarKernel,
    _DPHI,
    _newton_bisect_vec,
    _phi_sum,
    _stationarity,
    _w_exp,
    kernel_prox_vec,
)
from .symlin import SymMatrix, _eigh_desc, _recompose_raw, as_sym, inner


@dataclass(frozen=True)
class SpectralProxRequest:
    """Prox of gamma*(f - trace(T .) + g0) at c_bar, optionally PSD-constrained."""

    kernel: ScalarKernel
    gamma: float
    t: SymMatrix
    c_bar: SymMatrix
    psd: bool = False

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigurationError("gamma must be positive")
        if self.t.n != self.c_bar.n:
            raise ConfigurationError("t and c_bar must share dimension")


def prox_spectral(req):
    """Evaluate the spectral proximity operator."""
    m = req.c_bar.mat + req.gamma * req.t.mat
    u, lam = _eigh_desc(m)
    d = kernel_prox_vec(req.kernel, req.gamma, lam)
    if req.psd:
        d = np.maximum(d, 0.0)
    return SymMatrix(_recompose_raw(u, d), strict=False)


def _check_interior(div, y):
    if div.kind != "half_square" and np.any(y <= 0):
        raise DomainError(
            f"anchor eigenvalues must be strictly positive for '{div.kind}' "
            f"(smallest is {y.min():.3e})"
        )


def bregman_div(div, c, y):
    """Bregman divergence D(c, y) = f(c) - f(y) - <grad f(y), c - y>."""
    c = as_sym(c)
    y = as_sym(y)
    uy, yl = _eigh_desc(y.mat)
    _check_interior(div, yl)
    fc = _phi_sum(div, np.linalg.eigvalsh(c.mat))
    if math.isinf(fc):
        return math.inf
    fy = _phi_sum(div, yl)
    grad = SymMatrix(_recompose_raw(uy, _DPHI[div.kind](div.sigma2, yl)[0]), strict=False)
    return fc - fy - inner(grad, SymMatrix(c.mat - y.mat, strict=False))


def _double_mu(pen):
    if pen.kind in ("none", "eig_box", "fro_ball"):
        return pen
    return Penalty(pen.kind, mu=2.0 * pen.mu, p=pen.p, eps=pen.eps,
                   alpha=pen.alpha, beta=pen.beta)


def _bregman_scalar_vec(div, pen, y):
    """Bregman prox on the anchor's eigenvalues: argmin_d psi(d) + D_phi(d, y)
    (the half-square rows include the whole-vector penalties)."""
    k = div.kind
    pk = pen.kind
    if k == "half_square":
        # D_phi(d, y) = (d - y)^2 / 2: the classical prox of psi at y, which
        # is the gamma = 1 spectral kernel at 2y with doubled penalty weight
        kern = ScalarKernel(div, _double_mu(pen))
        return kernel_prox_vec(kern, 1.0, 2.0 * y)
    if pk == "none":
        return y.copy()
    if pk == "eig_box":
        lo = max(pen.alpha, 0.0)
        return np.clip(y, lo, pen.beta)
    mu = pen.mu
    if k == "burg":
        if pk == "nuclear":
            return y / (1.0 + mu * y)
        if pk == "fro_squared":
            iy = 1.0 / y
            return (-iy + np.sqrt(iy * iy + 8.0 * mu)) / (4.0 * mu)
    if k == "shannon":
        if pk == "nuclear":
            return y * math.exp(-mu)
        if pk == "fro_squared":
            # 2*mu*d + log d = log y  =>  d = W(2*mu*y) / (2*mu)
            return _w_exp(math.log(2.0 * mu) + np.log(y)) / (2.0 * mu)
    # phi'(d) + psi'(d) = phi'(y), increasing in d
    hdh = _stationarity(div, pen, 0.0, _DPHI[k](div.sigma2, y)[0])
    return _newton_bisect_vec(hdh, y)


def bregman_prox(div, psi_kernel, y):
    """Bregman proximity operator of the spectral penalty psi at anchor y.

    The anchor's eigenvalues must lie in the interior of the divergence
    domain.  noisy_burg is excluded (it is reached only through the
    ordinary spectral prox); nonconvex penalties (rank, Cauchy) are
    rejected since the underlying result requires convex psi.
    """
    if div.kind == "noisy_burg":
        raise ConfigurationError("bregman prox does not support the noisy_burg divergence")
    if psi_kernel.kind in ("rank", "cauchy"):
        raise ConfigurationError(
            f"bregman prox requires a convex penalty, got '{psi_kernel.kind}'"
        )
    y = as_sym(y)
    uy, yl = _eigh_desc(y.mat)
    _check_interior(div, yl)
    ScalarKernel(div, psi_kernel)  # validate the pairing
    d = _bregman_scalar_vec(div, psi_kernel, yl)
    return SymMatrix(_recompose_raw(uy, d), strict=False)
