"""Douglas-Rachford splitting for min f(C) - trace(TC) + g0(C) + g1(C).

f and g0 are spectral (a ScalarKernel pairing); g1 is mu1 times the
elementwise l1 norm of the matrix (diagonal included).  Each iteration
diagonalizes C + gamma*T, applies the scalar prox to the eigenvalues
(over d >= 0 under a PSD constraint), then takes the relaxed reflected
step through the elementwise soft threshold.

Convergence is monitored through the objective at the shadow sequence
C^(k+1/2), which is the sequence that converges to a solution; the run
stops when its relative change drops below the tolerance.  The iteration
can be accelerated by safeguarded type-II Anderson extrapolation
(DRConfig.anderson).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .scalarprox import ScalarKernel, kernel_eval_vec, kernel_prox_vec, soft
from .symlin import EigenDecomp, SymMatrix, _eigh_desc, _recompose_raw, as_sym, format_float, write_csv


@dataclass(frozen=True)
class ObjectiveSpec:
    """Full problem description: the spectral part f + g0 (one ScalarKernel,
    PSD-constrained when the kernel is), linear term T and l1 weight mu1."""

    kernel: ScalarKernel
    t: SymMatrix
    mu1: float = 0.0

    def __post_init__(self):
        if not self.mu1 >= 0:
            raise ConfigurationError("mu1 must be nonnegative")


@dataclass(frozen=True)
class DRConfig:
    """gamma: prox scale; alpha: constant relaxation in (0, 2);
    eps: relative-objective stopping tolerance; max_iter: cap on the
    evaluations of the DR map; anderson: Anderson history length m
    (0 runs plain Douglas-Rachford)."""

    gamma: float = 1.0
    alpha: float = 1.5
    eps: float = 1e-10
    max_iter: int = 2000
    anderson: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError("relaxation alpha must lie in (0, 2)")
        if not self.eps >= 0:
            raise ConfigurationError("eps must be nonnegative")
        _check_count("max_iter", self.max_iter, 1)
        _check_count("anderson", self.anderson, 0)


def _check_count(key, value, least):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{key} must be an integer >= {least}, got {value!r}")


@dataclass
class SolveReport:
    """Iteration record of one Douglas-Rachford run.

    c_final is the shadow iterate C^(k+1/2) (the convergent sequence);
    c_sparse is the matching soft-threshold shadow prox_{gamma*g1}(...),
    which carries exact zeros and is the natural support estimate;
    c_state is the governing iterate C^(k), the warm-start handle;
    c_final_eig is the EigenDecomp (u, d) c_final was recomposed from.
    The traces hold one entry per evaluation of the DR map (one
    eigendecomposition each), rejected Anderson candidates included;
    anderson_rejected counts those.
    """

    c_final: SymMatrix
    c_sparse: SymMatrix
    c_state: SymMatrix
    c_final_eig: EigenDecomp
    objective_trace: list = field(default_factory=list)
    fixed_point_residuals: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max_iter"
    anderson_rejected: int = 0


def prox_l1_matrix(tau, m):
    """Elementwise soft threshold of a symmetric matrix (symmetry preserved)."""
    if tau < 0:
        raise ConfigurationError("tau must be nonnegative")
    m = as_sym(m)
    return SymMatrix(soft(tau, m.mat), strict=False)


def objective_eval(spec, c):
    """f(C) - trace(TC) + g0(C) + mu1*||C||_1, +inf outside domains
    (the PSD cone included when spec.kernel.psd, as kernel_eval_vec checks it)."""
    c = as_sym(c)
    return _objective_from_d(spec, np.linalg.eigvalsh(c.mat), c.mat)


def _objective_from_d(spec, d, chalf):
    # objective at the matrix chalf, given its eigenvalues d
    v = kernel_eval_vec(spec.kernel, d)
    if math.isinf(v):
        return math.inf
    return v - float(np.vdot(spec.t.mat, chalf)) + spec.mu1 * float(np.abs(chalf).sum())


def _rel_change_within(f_new, f_prev, eps):
    """The DR and MM stop test: |f_new - f_prev| <= eps * |f_prev|."""
    return abs(f_new - f_prev) <= eps * max(abs(f_prev), 1e-300)


def _dr_step(spec, cfg, c):
    """One evaluation of the DR map at the governing iterate c, with one
    eigendecomposition: the eigenpairs (u, d) of the shadow chalf, its
    objective f, the soft-threshold shadow and the step r = T(c) - c.
    gamma*T is formed per evaluation: a copy held for the whole solve
    would add n x n floats to its peak memory."""
    g = cfg.gamma
    u, lam = _eigh_desc(c + g * spec.t.mat)
    d = kernel_prox_vec(spec.kernel, g, lam)
    chalf = _recompose_raw(u, d)
    f = _objective_from_d(spec, d, chalf)
    z = 2.0 * chalf
    z -= c
    sparse = soft(g * spec.mu1, z, out=z)
    r = sparse - chalf
    r *= cfg.alpha
    return u, d, chalf, f, sparse, r


class _Anderson:
    """Type-II Anderson extrapolation of the DR map (Fu, Zhang and Boyd,
    "Anderson accelerated Douglas-Rachford splitting", SIAM J. Sci. Comput.
    2020) over the last m accepted steps.

    With p = c + r the plain step from the last accepted point c, the
    candidate is p - dP^T w, where w minimizes ||r - dR^T w|| and the rows
    of dP and dR are the differences of p and r between consecutive
    accepted points.  The rows live in two preallocated float32 ring
    buffers, each difference taken in float64 and rounded once; the Gram
    matrix dR dR^T gains one row per accepted step.  Only the weights w and
    the correction dP^T w see float32 arithmetic: the candidate and every
    map evaluation stay float64.
    """

    def __init__(self, m, size):
        self.dp = np.empty((m, size), np.float32)
        self.dr = np.empty((m, size), np.float32)
        self.gram = np.empty((m, m))
        self.pushed = 0  # pairs stored since the last clear

    @property
    def size(self):
        return min(self.pushed, len(self.dp))

    def clear(self):
        self.pushed = 0

    def push(self, p, p_prev, r, r_prev):
        j = self.pushed % len(self.dp)
        np.subtract(p.ravel(), p_prev.ravel(), out=self.dp[j])
        np.subtract(r.ravel(), r_prev.ravel(), out=self.dr[j])
        self.pushed += 1
        k = self.size
        self.gram[:k, j] = self.gram[j, :k] = self.dr[:k] @ self.dr[j]

    def candidate(self, p, r):
        k = self.size
        rhs = self.dr[:k] @ r.ravel().astype(np.float32)
        w = np.linalg.lstsq(self.gram[:k, :k], rhs, rcond=None)[0]
        # p - correction, with the float32 correction widened first: the same
        # float64 values as the mixed-type difference, without its buffered casts
        out = (w.astype(np.float32) @ self.dp[:k]).astype(np.float64)
        return np.subtract(p.ravel(), out, out=out).reshape(p.shape)


def dr_solve(spec, cfg, c0):
    """Run the Douglas-Rachford iteration from c0, any symmetric matrix of
    the size of T: the first shadow iterate is a prox, so it lies in the
    domain even when c0 does not (a previous run's governing iterate, for
    a warm start).

    With cfg.anderson = m > 0 each step after the first tries the Anderson
    candidate built from the last m accepted steps and keeps it only if its
    fixed-point residual is no larger than the last accepted point's (the
    safeguard); otherwise the history is cleared and the plain step is taken
    from that point.  The budget's last evaluation is always a plain step.
    The stop rule compares consecutive accepted evaluations.  With m = 0
    every evaluation is accepted and the loop is plain Douglas-Rachford.
    """
    c0 = as_sym(c0)
    if c0.n != spec.t.n:
        raise InvalidInputError("c0 dimension does not match the linear term")
    hist = _Anderson(cfg.anderson, c0.mat.size) if cfg.anderson else None
    x = c0.mat.copy()

    obj_trace = []
    residuals = []
    f_prev = res_prev = p_prev = r_prev = None  # of the last accepted evaluation
    extrapolated = False
    rejected = 0
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        u, d, chalf, f, sparse, r = _dr_step(spec, cfg, x)
        p = x + r
        res = float(np.linalg.norm(p - x))
        obj_trace.append(f)
        residuals.append(res)
        if extrapolated and not res <= res_prev:
            rejected += 1
            hist.clear()
        else:
            if f_prev is not None and _rel_change_within(f, f_prev, cfg.eps):
                stop_reason = "tolerance"
                break  # x stays the pre-update governing iterate, the warm-start handle
            if hist is not None and p_prev is not None:
                hist.push(p, p_prev, r, r_prev)
            f_prev, res_prev, p_prev, r_prev = f, res, p, r
        extrapolated = hist is not None and hist.size > 0 and k < cfg.max_iter - 2
        x = hist.candidate(p_prev, r_prev) if extrapolated else p_prev
    del hist, p, r, p_prev, r_prev  # free the loop's storage before the report copies
    return SolveReport(
        c_final=SymMatrix(chalf, strict=False),
        c_sparse=SymMatrix(sparse, strict=False),
        c_state=SymMatrix(x, strict=False),
        c_final_eig=EigenDecomp(u=u, lam=d),
        objective_trace=obj_trace,
        fixed_point_residuals=residuals,
        iterations=len(obj_trace),
        stop_reason=stop_reason,
        anderson_rejected=rejected,
    )


def write_trace_csv(report, path):
    """Serialize (iteration, objective, residual) rows."""
    rows = zip(itertools.count(1), report.objective_trace, report.fixed_point_residuals)
    write_csv(path, rows, header=("iteration", "objective", "residual"))


def format_summary(report):
    """Plain-text run summary."""
    final = report.objective_trace[-1] if report.objective_trace else math.nan
    return (
        f"iterations: {report.iterations}\n"
        f"stop_reason: {report.stop_reason}\n"
        f"final_objective: {format_float(final)}\n"
        f"final_residual: {format_float(report.fixed_point_residuals[-1]) if report.fixed_point_residuals else 'nan'}\n"
    )
