"""Lift scalar kernels to matrix proximity operators.

Given a kernel (phi, psi), the prox of gamma*(f - trace(T .) + g0) at
C_bar is obtained by diagonalizing C_bar + gamma*T and applying the
scalar prox to each eigenvalue; a PSD constraint clips the proxed
eigenvalues at zero.  Bregman proxes with respect to phi follow the same
diagonalize/solve/recompose route in the eigenbasis of the anchor.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .scalarprox import (
    ScalarKernel,
    _DPHI,
    _PROX_PHI,
    _degree,
    _newton_bisect_vec,
    _phi_sum,
    _stationarity,
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


def _bregman_scalar_vec(div, pen, y):
    """Bregman prox on the anchor's eigenvalues: argmin_d psi(d) + D_phi(d, y)
    (the half-square rows include the whole-vector penalties)."""
    k = div.kind
    if k == "half_square":
        # D_phi(d, y) = (d - y)^2 / 2: the classical prox of psi at y, which
        # is the gamma = 1 spectral kernel at 2y with doubled penalty weight
        kern = ScalarKernel(div, replace(pen, mu=2.0 * pen.mu))
        return kernel_prox_vec(kern, 1.0, 2.0 * y)
    if pen.kind == "none":
        return y.copy()
    if pen.kind == "eig_box":
        return np.clip(y, pen.alpha, pen.beta)
    mu = pen.mu
    deg = _degree(pen)
    if deg == 1:
        return y / (1.0 + mu * y) if k == "burg" else y * math.exp(-mu)
    target = _DPHI[k](div.sigma2, y)[0]
    if deg == 2:
        # mu*d^2 - phi'(y)*d + phi(d) is a prox of g*phi at g*phi'(y), g = 1/(2 mu)
        g = 0.5 / mu
        return _PROX_PHI[k](g, g * target)
    # phi'(d) + psi'(d) = phi'(y), increasing in d
    return _newton_bisect_vec(_stationarity(div, pen, 0.0, target), y)


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
    pen = ScalarKernel(div, psi_kernel).penalty  # validated, eig_box bounds clipped
    d = _bregman_scalar_vec(div, pen, yl)
    return SymMatrix(_recompose_raw(uy, d), strict=False)
