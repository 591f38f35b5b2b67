"""Douglas-Rachford splitting for min f(C) - trace(TC) + g0(C) + g1(C).

f and g0 are spectral (a ScalarKernel pairing); g1 is mu1 times the
elementwise l1 norm of the matrix (diagonal included).  Each iteration
diagonalizes C + gamma*T, applies the scalar prox to the eigenvalues
(over d >= 0 under a PSD constraint), then takes the relaxed reflected
step through the elementwise soft threshold.

Convergence is monitored through the objective at the shadow sequence
C^(k+1/2), which is the sequence that converges to a solution; the run
stops when its relative change drops below the tolerance (the stall
test).  On the covariance row (half-square with a nuclear weight or none,
PSD-constrained) a run may also stop on a certified duality gap
(DRConfig.gap_tol), checked beside the stall test.  The iteration can be
accelerated by safeguarded type-II Anderson extrapolation
(DRConfig.anderson).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidInputError, _check_count, _check_real
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
        _check_real("mu1", self.mu1, strict=False)


@dataclass(frozen=True)
class DRConfig:
    """gamma: prox scale; alpha: constant relaxation in (0, 2);
    eps: relative-objective stopping tolerance; max_iter: cap on the
    evaluations of the DR map; anderson: Anderson history length m
    (0 runs plain Douglas-Rachford); gap_tol: duality-gap stopping
    tolerance, relative to max(1, |f|), on the covariance row only
    (0 turns the gap off)."""

    gamma: float = 1.0
    alpha: float = 1.5
    eps: float = 1e-10
    max_iter: int = 2000
    anderson: int = 0
    gap_tol: float = 0.0

    def __post_init__(self):
        _check_real("gamma", self.gamma)
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError("relaxation alpha must lie in (0, 2)")
        _check_real("eps", self.eps, strict=False)
        _check_count("max_iter", self.max_iter, 1)
        _check_count("anderson", self.anderson, 0)
        _check_real("gap_tol", self.gap_tol, strict=False)


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
    anderson_rejected counts those.  gap is the relative duality gap at
    the last evaluation when the run had a gap_tol, NaN otherwise.
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
    gap: float = math.nan


def prox_l1_matrix(tau, m):
    """Elementwise soft threshold of a symmetric matrix (symmetry preserved)."""
    _check_real("tau", tau, strict=False)
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


# the gap is checked at every _GAP_EVERY-th evaluation: one eigvalsh each
_GAP_EVERY = 10


def _cov_gap(spec, g, f, chalf, c, sparse):
    """Relative duality gap (f - D)/max(1, |f|) of the covariance row at one
    evaluation from the governing iterate c.  The soft threshold's residual
    V = clip((2*chalf - c - sparse)/gamma, -mu1, mu1) has |V_ij| <= mu1, so
    by weak duality D = -1/2 ||Pi_PSD(T - mu0 I - V)||^2 bounds the optimum
    from below; f, at the PSD shadow chalf, bounds it from above."""
    v = np.clip((2.0 * chalf - c - sparse) / g, -spec.mu1, spec.mu1)
    a = spec.t.mat - v
    a.flat[:: a.shape[0] + 1] -= spec.kernel.penalty.mu
    w = np.maximum(np.linalg.eigvalsh(a), 0.0)
    return (f + 0.5 * float(w @ w)) / max(1.0, abs(f))


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
    from that point.  The stop rule compares consecutive accepted
    evaluations, and a run stops only at a plain step: when it holds at an
    accepted Anderson point, the next evaluation is the plain step from that
    point, and the run stops if the rule holds there too.  The budget's last
    evaluation is also a plain step.  With m = 0 every evaluation is a
    plain, accepted one and the loop is plain Douglas-Rachford.

    With cfg.gap_tol > 0 (the covariance row only; any other row raises
    ConfigurationError) the accepted evaluations 11, 21, 31, ... and the
    budget's last one also check the relative duality gap, after the stall
    test, and the run stops with stop_reason "gap" once it is at most
    gap_tol, at a plain or an accepted Anderson point.  The check only
    reads the evaluation's arrays, so a run the stall test stops first is
    bitwise the run without it.  The gap at the last evaluation is reported
    in SolveReport.gap, computed once more there after a stall stop.

    The start is read, never written, and not kept: once the loop has moved
    off it, its storage is free unless the caller holds it.
    """
    x = as_sym(c0).mat
    del c0
    if x.shape != spec.t.mat.shape:
        raise InvalidInputError("c0 dimension does not match the linear term")
    hist = _Anderson(cfg.anderson, x.size) if cfg.anderson else None
    gap_on = cfg.gap_tol > 0
    kernel = spec.kernel
    if gap_on and not (kernel.divergence.kind == "half_square" and kernel.penalty.kind in ("nuclear", "none")
                       and kernel.psd):
        raise ConfigurationError(
            "gap_tol applies only to the covariance row (half_square with nuclear or none, psd)"
        )

    obj_trace = []
    residuals = []
    f_prev = res_prev = p_prev = r_prev = None  # of the last accepted evaluation
    extrapolated = stalled = False
    rejected = 0
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        u = chalf = sparse = p = r = None  # free the last evaluation's arrays before the next eigh
        u, d, chalf, f, sparse, r = _dr_step(spec, cfg, x)
        p = x + r
        due = gap_on and (k > 0 and k % _GAP_EVERY == 0 or k == cfg.max_iter - 1)
        # an extrapolated x is dead past this line unless the gap reads it: reuse it
        res = float(np.linalg.norm(np.subtract(p, x, out=x if extrapolated and not due else None)))
        obj_trace.append(f)
        residuals.append(res)
        if extrapolated and not res <= res_prev:
            rejected += 1
            hist.clear()
        else:
            # the last evaluation is always an accepted one, so this sets the reported gap
            gap = _cov_gap(spec, cfg.gamma, f, chalf, x, sparse) if due else math.nan
            stalled = f_prev is not None and _rel_change_within(f, f_prev, cfg.eps)
            if stalled and not extrapolated:
                stop_reason = "tolerance"
                break  # x stays the pre-update governing iterate, the warm-start handle
            if gap <= cfg.gap_tol:  # NaN when not checked here
                stop_reason = "gap"
                break
            if hist is not None and p_prev is not None:
                hist.push(p, p_prev, r, r_prev)
            f_prev, res_prev, p_prev, r_prev = f, res, p, r
        extrapolated = hist is not None and hist.size > 0 and not stalled and k < cfg.max_iter - 2
        x = hist.candidate(p_prev, r_prev) if extrapolated else p_prev
    if gap_on and math.isnan(gap):  # a stall stop: x is the evaluation's iterate
        gap = _cov_gap(spec, cfg.gamma, f, chalf, x, sparse)
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
        gap=gap,
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
