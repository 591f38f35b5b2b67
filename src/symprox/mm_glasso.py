"""Robust graphical lasso under additive observation noise.

The precision matrix C is estimated by minimizing

    F(C) = log det(C^-1 + sigma2*I) + trace((I + sigma2*C)^-1 C S)
           + mu0 * sum_i 1/lambda_i(C) + mu1 * ||C||_1

over positive definite C.  The trace term is concave, so F is handled by
a majorize-minimize outer loop: each step linearizes the trace term at
the current iterate and solves the resulting convex spectral problem
with the Douglas-Rachford solver, warm-starting its internal state
across outer iterations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, NumericError
from .scalarprox import Divergence, Penalty, _phi_sum, _psi_sum
from .splitting import DRConfig, ObjectiveSpec, SolveReport, dr_solve
from .symlin import SymMatrix, as_sym, inner, spd_inverse

_PSD_SLACK = 1e-10


@dataclass(frozen=True)
class NoisyGlassoProblem:
    """Data S (clipped to PSD on construction), noise variance sigma2,
    inverse-eigenvalue weight mu0, and l1 weight mu1."""

    s: SymMatrix
    sigma2: float = 0.0
    mu0: float = 0.0
    mu1: float = 0.0

    def __post_init__(self):
        if self.sigma2 < 0 or self.mu0 < 0 or self.mu1 < 0:
            raise InvalidInputError("sigma2, mu0, mu1 must be nonnegative")
        s = as_sym(self.s)
        w, v = np.linalg.eigh(s.mat)
        if w[0] < -_PSD_SLACK:
            raise DomainError(
                f"data matrix must be PSD (smallest eigenvalue {w[0]:.3e})"
            )
        if w[0] < 0:
            clipped = (v * np.maximum(w, 0.0)) @ v.T
            s = SymMatrix(0.5 * (clipped + clipped.T), strict=False)
        object.__setattr__(self, "s", s)

    @property
    def n(self):
        return self.s.n


@dataclass(frozen=True)
class MMConfig:
    inner: DRConfig = field(
        default_factory=lambda: DRConfig(gamma=1.0, alpha=1.0, eps=1e-10, max_iter=2000)
    )
    outer_eps: float = 1e-8
    outer_max: int = 20

    def __post_init__(self):
        if not self.outer_eps > 0 or not self.outer_max >= 1:
            raise InvalidInputError("outer tolerances must be positive")


@dataclass
class MMReport:
    """Outcome of one MM run: final precision estimate plus the outer
    objective trace.  c_sparse is the soft-threshold shadow of the last
    inner solve (exact zeros; the support estimate)."""

    c_final: SymMatrix
    c_sparse: SymMatrix
    outer_objectives: list
    inner_iterations: list
    outer_iterations: int
    stop_reason: str
    last_inner: SolveReport


def _psd_eigs(c):
    c = as_sym(c)
    lam = np.linalg.eigvalsh(c.mat)
    if lam[0] < -_PSD_SLACK * max(1.0, abs(lam[-1])):
        raise DomainError(f"matrix must be PSD (smallest eigenvalue {lam[0]:.3e})")
    return c, lam


def trace_term(prob, c):
    """trace((I + sigma2*C)^-1 C S) for PSD C, via an SPD solve."""
    c, _ = _psd_eigs(c)
    n = c.n
    m = np.linalg.solve(np.eye(n) + prob.sigma2 * c.mat, c.mat)
    return float(np.einsum("ij,ji->", m, prob.s.mat))


def grad_trace_term(prob, c):
    """(I + sigma2*C)^-1 S (I + sigma2*C)^-1, a PSD matrix."""
    c, _ = _psd_eigs(c)
    n = c.n
    b = np.eye(n) + prob.sigma2 * c.mat
    x = np.linalg.solve(b, prob.s.mat)
    grad = np.linalg.solve(b, x.T).T
    return SymMatrix(0.5 * (grad + grad.T), strict=False)


def f_noisy(prob, c):
    """log det(C^-1 + sigma2*I) through the eigenvalues of C; +inf unless PD."""
    return _phi_sum(Divergence.noisy_burg(prob.sigma2), np.linalg.eigvalsh(as_sym(c).mat))


def _g0_term(prob, c):
    if prob.mu0 == 0.0:
        return 0.0
    return _psi_sum(Penalty.inv_schatten(prob.mu0, 1.0), np.linalg.eigvalsh(as_sym(c).mat))


def _g1_term(prob, c):
    return prob.mu1 * float(np.abs(as_sym(c).mat).sum())


def objective_F(prob, c):
    """Full objective; +inf outside the positive definite cone."""
    f = f_noisy(prob, c)
    if math.isinf(f):
        return math.inf
    # term order mirrors majorant_eval so that tangency is exact
    return f + trace_term(prob, c) + _g0_term(prob, c) + _g1_term(prob, c)


def majorant_eval(prob, c, c_anchor):
    """Tangent majorant G(c | c_anchor): the trace term is linearized at
    the anchor; all other terms are shared with objective_F."""
    f = f_noisy(prob, c)
    if math.isinf(f):
        return math.inf
    c = as_sym(c)
    c_anchor = as_sym(c_anchor)
    lin = trace_term(prob, c_anchor) + inner(
        grad_trace_term(prob, c_anchor), SymMatrix(c.mat - c_anchor.mat, strict=False)
    )
    return f + lin + _g0_term(prob, c) + _g1_term(prob, c)


def default_init(prob):
    """Data-driven PD start: inverse of S + sigma2*I + delta*I with
    delta = 1e-3 * trace(S)/n."""
    n = prob.n
    delta = 1e-3 * float(np.trace(prob.s.mat)) / n
    return spd_inverse(SymMatrix(prob.s.mat + (prob.sigma2 + delta) * np.eye(n), strict=False))


def mm_solve(prob, cfg=None, c0=None):
    """Majorize-minimize outer loop with Douglas-Rachford inner solves.

    Each outer step solves the convex surrogate obtained by linearizing
    the trace term, using divergence noisy_burg(sigma2) and penalty
    mu0/lambda, with linear term T = -grad of the trace term.  The inner
    solver's governing iterate is carried over as the next warm start.
    The outer objective trace is checked for monotone descent at runtime.
    """
    cfg = cfg or MMConfig()
    c0 = as_sym(c0) if c0 is not None else default_init(prob)
    f_prev = objective_F(prob, c0)
    if not math.isfinite(f_prev):
        raise InvalidInputError("invalid start: objective is not finite at c0")
    div = Divergence.noisy_burg(prob.sigma2)
    pen = Penalty.inv_schatten(prob.mu0, 1.0) if prob.mu0 > 0 else Penalty.none()

    c = c0
    state = c0
    outer_objs = [f_prev]
    inner_iters = []
    stop_reason = "max_iter"
    rep = None
    for ell in range(cfg.outer_max):
        grad = grad_trace_term(prob, c)
        ospec = ObjectiveSpec(
            divergence=div,
            t=SymMatrix(-grad.mat, strict=False),
            g0=pen,
            mu1=prob.mu1,
            psd=False,
        )
        rep = dr_solve(ospec, cfg.inner, state, check_start=False)
        c_new = rep.c_final
        state = rep.c_state
        f_new = objective_F(prob, c_new)
        inner_iters.append(rep.iterations)
        if abs(f_new - f_prev) <= cfg.outer_eps * max(abs(f_prev), 1e-300):
            # converged; never publish an uphill step (finite inner-solver
            # resolution can wiggle F upward by less than the tolerance)
            if f_new <= f_prev:
                outer_objs.append(f_new)
                c = c_new
            stop_reason = "tolerance"
            break
        if f_new > f_prev + 1e-12 * max(1.0, abs(f_prev)):
            if f_new - f_prev <= 1e-6 * max(1.0, abs(f_prev)):
                # increase at the inner solver's resolution: a stall, not a bug
                stop_reason = "stalled"
                break
            raise NumericError(
                f"MM descent violated at outer iteration {ell + 1}: "
                f"{f_prev!r} -> {f_new!r}"
            )
        outer_objs.append(f_new)
        c = c_new
        f_prev = f_new
    return MMReport(
        c_final=c,
        c_sparse=rep.c_sparse,
        outer_objectives=outer_objs,
        inner_iterations=inner_iters,
        outer_iterations=len(inner_iters),
        stop_reason=stop_reason,
        last_inner=rep,
    )


def glasso_solve(s, mu1, cfg=None, c0=None):
    """Classical graphical lasso baseline: a single Douglas-Rachford solve
    of -log det(C) + trace(CS) + mu1*||C||_1 (the sigma2 = 0, mu0 = 0
    collapse of the noisy model)."""
    return dr_noisy_baseline(s, 0.0, mu1, cfg, c0)


def dr_noisy_baseline(s, mu0, mu1, cfg=None, c0=None):
    """Noise-blind Douglas-Rachford baseline: -log det(C) + trace(CS)
    + mu0*sum 1/lambda_i(C) + mu1*||C||_1 in a single convex solve."""
    s = as_sym(s)
    prob = NoisyGlassoProblem(s=s, sigma2=0.0, mu0=mu0, mu1=mu1)
    cfg = cfg or MMConfig().inner
    spec = ObjectiveSpec(
        divergence=Divergence.burg(),
        t=SymMatrix(-prob.s.mat, strict=False),
        g0=Penalty.inv_schatten(mu0, 1.0) if mu0 > 0 else Penalty.none(),
        mu1=mu1,
    )
    c0 = as_sym(c0) if c0 is not None else default_init(prob)
    return dr_solve(spec, cfg, c0)
