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

from .errors import DomainError, InvalidInputError, NumericError, _check_count, _check_real
from .scalarprox import Divergence, Penalty, ScalarKernel, _phi_sum, kernel_eval_vec
from .splitting import DRConfig, ObjectiveSpec, SolveReport, _rel_change_within, dr_solve
from .symlin import EigenDecomp, SymMatrix, _psd_ok, _recompose_raw, as_sym, eig_sym, inner, recompose, spd_inverse


@dataclass(frozen=True)
class NoisyGlassoProblem:
    """Data S (clipped to PSD on construction), noise variance sigma2,
    inverse-eigenvalue weight mu0, and l1 weight mu1.  kernel, built once,
    is the spectral part of F: divergence noisy_burg(sigma2) with penalty
    mu0 * sum 1/lambda_i."""

    s: SymMatrix
    sigma2: float = 0.0
    mu0: float = 0.0
    mu1: float = 0.0
    kernel: ScalarKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("sigma2", "mu0", "mu1"):
            _check_real(key, getattr(self, key), strict=False)
        s = as_sym(self.s)
        w = np.linalg.eigvalsh(s.mat)
        if not _psd_ok(w):
            raise DomainError(
                f"data matrix must be PSD (smallest eigenvalue {w[0]:.3e})"
            )
        if w[0] < 0:  # decompose only to clip
            w, v = np.linalg.eigh(s.mat)
            s = SymMatrix(_recompose_raw(v, np.maximum(w, 0.0)), strict=False)
        object.__setattr__(self, "s", s)
        pen = Penalty.inv_schatten(self.mu0, 1.0) if self.mu0 > 0 else Penalty.none()
        object.__setattr__(self, "kernel", ScalarKernel(Divergence.noisy_burg(self.sigma2), pen))

    @property
    def n(self):
        return self.s.n


@dataclass(frozen=True)
class MMConfig:
    inner: DRConfig = field(
        default_factory=lambda: DRConfig(gamma=1.0, alpha=1.0, eps=1e-10, max_iter=2000, anderson=6)
    )
    outer_eps: float = 1e-8
    outer_max: int = 20

    def __post_init__(self):
        _check_real("outer_eps", self.outer_eps)
        _check_count("outer_max", self.outer_max, 1)


@dataclass
class MMReport:
    """Outcome of one MM run: final precision estimate plus the outer
    objective trace.  c_sparse is the soft-threshold shadow of the inner
    solve that produced c_final (exact zeros; the support estimate), or
    the start when no step was published.  inner_iterations and
    inner_stop_reasons hold one entry per inner solve; anderson_rejected
    totals their rejected Anderson candidates."""

    c_final: SymMatrix
    c_sparse: SymMatrix
    outer_objectives: list
    inner_iterations: list
    outer_iterations: int
    stop_reason: str
    last_inner: SolveReport
    inner_stop_reasons: list
    anderson_rejected: int


def _eig(c):
    return c if isinstance(c, EigenDecomp) else eig_sym(c)


def _mat(c):
    return recompose(c).mat if isinstance(c, EigenDecomp) else as_sym(c).mat


def _psd_weights(prob, c):
    # eigenpairs of PSD c and b = 1/(1 + sigma2*d), the eigenvalues of (I + sigma2*C)^-1
    e = _eig(c)
    if not _psd_ok(e.lam):
        raise DomainError(f"matrix must be PSD (smallest eigenvalue {e.lam.min():.3e})")
    return e, 1.0 / (1.0 + prob.sigma2 * e.lam)


def trace_term(prob, c):
    """trace((I + sigma2*C)^-1 C S) for PSD C = U diag(d) U^T, given as a
    matrix or its EigenDecomp: sum_i d_i b_i u_i^T S u_i, b = 1/(1 + sigma2*d)."""
    e, b = _psd_weights(prob, c)
    return float(np.sum(e.lam * b * np.einsum("ij,ij->j", e.u, prob.s.mat @ e.u)))


def grad_trace_term(prob, c):
    """(I + sigma2*C)^-1 S (I + sigma2*C)^-1 = B S B with B = U diag(b) U^T,
    a PSD matrix; c is a matrix or its EigenDecomp."""
    e, b = _psd_weights(prob, c)
    bm = _recompose_raw(e.u, b)
    return SymMatrix(bm @ prob.s.mat @ bm, strict=False)


def f_noisy(prob, c):
    """log det(C^-1 + sigma2*I) from the eigenvalues of c, a matrix or its EigenDecomp; +inf unless PD."""
    return _phi_sum(prob.kernel.divergence, _eig(c).lam)


def _objective(prob, c, trace_part):
    # F and its majorant share every term but the trace term, in this order
    # and from the same eigenvalues, so that G(c | c) == F(c) bitwise
    e = _eig(c)
    v = kernel_eval_vec(prob.kernel, e.lam)
    if math.isinf(v):
        return math.inf
    cmat = _mat(c)
    return v + trace_part(e, cmat) + prob.mu1 * float(np.abs(cmat).sum())


def objective_F(prob, c):
    """Full objective at c, a matrix or its EigenDecomp; +inf outside the
    positive definite cone."""
    return _objective(prob, c, lambda e, _: trace_term(prob, e))


def majorant_eval(prob, c, c_anchor):
    """Tangent majorant G(c | c_anchor): the trace term is linearized at
    the anchor; all other terms are shared with objective_F.  Each
    argument is a matrix or its EigenDecomp."""
    a = _eig(c_anchor)
    return _objective(
        prob, c, lambda _, cmat: trace_term(prob, a) + inner(grad_trace_term(prob, a), cmat - _mat(c_anchor))
    )


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
    solver's governing iterate is carried over as the next warm start, and
    its eigenpairs (c_final_eig) give the next gradient and F without a new
    eigendecomposition.  The outer objective trace is checked for monotone
    descent at runtime.
    """
    cfg = cfg or MMConfig()
    c = as_sym(c0) if c0 is not None else default_init(prob)
    e = eig_sym(c)
    f_prev = objective_F(prob, e)
    if not math.isfinite(f_prev):
        raise InvalidInputError("invalid start: objective is not finite at c0")
    state = c
    sparse = c  # the published step's soft-threshold shadow; the start until one is published
    outer_objs = [f_prev]
    inner_iters, inner_stops, rejected = [], [], 0
    stop_reason = "max_iter"
    for ell in range(cfg.outer_max):
        t = SymMatrix(-grad_trace_term(prob, e).mat, strict=False)
        rep = dr_solve(ObjectiveSpec(prob.kernel, t, prob.mu1), cfg.inner, state)
        state = rep.c_state
        f_new = objective_F(prob, rep.c_final_eig)
        inner_iters.append(rep.iterations)
        inner_stops.append(rep.stop_reason)
        rejected += rep.anderson_rejected
        if _rel_change_within(f_new, f_prev, cfg.outer_eps):
            # converged; never publish an uphill step (finite inner-solver
            # resolution can wiggle F upward by less than the tolerance)
            if f_new <= f_prev:
                outer_objs.append(f_new)
                c, sparse = rep.c_final, rep.c_sparse
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
        c, e, sparse = rep.c_final, rep.c_final_eig, rep.c_sparse
        f_prev = f_new
    return MMReport(
        c_final=c,
        c_sparse=sparse,
        outer_objectives=outer_objs,
        inner_iterations=inner_iters,
        outer_iterations=len(inner_iters),
        stop_reason=stop_reason,
        last_inner=rep,
        inner_stop_reasons=inner_stops,
        anderson_rejected=rejected,
    )


def glasso_solve(s, mu1, cfg=None, c0=None):
    """Classical graphical lasso baseline: a single Douglas-Rachford solve
    of -log det(C) + trace(CS) + mu1*||C||_1 (the sigma2 = 0, mu0 = 0
    collapse of the noisy model)."""
    return dr_noisy_baseline(s, 0.0, mu1, cfg, c0)


def dr_noisy_baseline(s, mu0, mu1, cfg=None, c0=None):
    """Noise-blind Douglas-Rachford baseline: -log det(C) + trace(CS)
    + mu0*sum 1/lambda_i(C) + mu1*||C||_1 in a single convex solve, with
    the problem's kernel at sigma2 = 0 (noisy Burg there is Burg)."""
    prob = NoisyGlassoProblem(s=s, sigma2=0.0, mu0=mu0, mu1=mu1)
    cfg = cfg or MMConfig().inner
    t = SymMatrix(-prob.s.mat, strict=False)
    # the start is passed, not bound here, so that dr_solve can free it
    return dr_solve(ObjectiveSpec(prob.kernel, t, mu1), cfg, default_init(prob) if c0 is None else c0)
