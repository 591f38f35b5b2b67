"""Douglas-Rachford splitting for min f(C) - trace(TC) + g0(C) + g1(C).

f and g0 are spectral (a ScalarKernel pairing); g1 is mu1 times the
elementwise l1 norm of the matrix (diagonal included).  Each iteration
diagonalizes C + gamma*T, applies the scalar prox to the eigenvalues
(clipped at zero under a PSD constraint), then takes the relaxed
reflected step through the elementwise soft threshold.

Convergence is monitored through the objective at the shadow sequence
C^(k+1/2), which is the sequence that converges to a solution; the run
stops when its relative change drops below the tolerance.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .scalarprox import Divergence, Penalty, ScalarKernel, _phi_sum, _psi_sum, kernel_prox_vec, soft
from .symlin import EigenDecomp, SymMatrix, _eigh_desc, _psd_ok, _recompose_raw, as_sym, format_float, write_csv


@dataclass(frozen=True)
class ObjectiveSpec:
    """Full problem description: divergence f, linear term T, spectral
    penalty g0, l1 weight mu1, optional PSD constraint."""

    divergence: Divergence
    t: SymMatrix
    g0: Penalty
    mu1: float = 0.0
    psd: bool = False

    def __post_init__(self):
        if self.mu1 < 0:
            raise ConfigurationError("mu1 must be nonnegative")
        ScalarKernel(self.divergence, self.g0)  # reject unsupported pairings early

    @property
    def kernel(self):
        return ScalarKernel(self.divergence, self.g0)


@dataclass(frozen=True)
class DRConfig:
    """gamma: prox scale; alpha: constant relaxation in (0, 2);
    eps: relative-objective stopping tolerance; max_iter: iteration cap."""

    gamma: float = 1.0
    alpha: float = 1.5
    eps: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigurationError("gamma must be positive")
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError("relaxation alpha must lie in (0, 2)")
        if not self.eps >= 0:
            raise ConfigurationError("eps must be nonnegative")
        if not self.max_iter >= 1:
            raise ConfigurationError("max_iter must be positive")


@dataclass
class SolveReport:
    """Iteration record of one Douglas-Rachford run.

    c_final is the shadow iterate C^(k+1/2) (the convergent sequence);
    c_sparse is the matching soft-threshold shadow prox_{gamma*g1}(...),
    which carries exact zeros and is the natural support estimate;
    c_state is the governing iterate C^(k), the warm-start handle;
    c_final_eig is the EigenDecomp (u, d) c_final was recomposed from.
    """

    c_final: SymMatrix
    c_sparse: SymMatrix
    c_state: SymMatrix
    c_final_eig: EigenDecomp
    objective_trace: list = field(default_factory=list)
    fixed_point_residuals: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max_iter"


def prox_l1_matrix(tau, m):
    """Elementwise soft threshold of a symmetric matrix (symmetry preserved)."""
    if tau < 0:
        raise ConfigurationError("tau must be nonnegative")
    m = as_sym(m)
    return SymMatrix(soft(tau, m.mat), strict=False)


def objective_eval(spec, c):
    """f(C) - trace(TC) + g0(C) + mu1*||C||_1, +inf outside domains.

    The PSD indicator (when spec.psd) tolerates eigenvalue dust down to
    -1e-10 relative, matching what the recomposition step can introduce.
    """
    c = as_sym(c)
    lam = np.linalg.eigvalsh(c.mat)
    if spec.psd and not _psd_ok(lam):
        return math.inf
    return _objective_from_d(spec, lam, c.mat)


def _objective_from_d(spec, d, chalf):
    # objective at the matrix chalf, given its eigenvalues d
    v = _phi_sum(spec.divergence, d)
    if math.isinf(v):
        return math.inf
    w = _psi_sum(spec.g0, d)
    if math.isinf(w):
        return math.inf
    return (
        v
        - float(np.sum(spec.t.mat * chalf))
        + w
        + spec.mu1 * float(np.abs(chalf).sum())
    )


def dr_solve(spec, cfg, c0, check_start=True):
    """Run the Douglas-Rachford iteration from c0.

    check_start validates that the objective is finite at c0; callers that
    warm-start from a previous run's governing iterate (which may sit
    outside the domain of f) disable it.
    """
    c0 = as_sym(c0)
    if c0.n != spec.t.n:
        raise InvalidInputError("c0 dimension does not match the linear term")
    if check_start and not math.isfinite(objective_eval(spec, c0)):
        raise InvalidInputError("invalid start: objective is not finite at c0")
    kernel = spec.kernel
    g = cfg.gamma
    tau = g * spec.mu1
    tmat = spec.t.mat
    c = c0.mat.copy()

    obj_trace = []
    residuals = []
    f_prev = None
    stop_reason = "max_iter"
    chalf = c
    sparse = c
    state = c
    for _ in range(cfg.max_iter):
        u, lam = _eigh_desc(c + g * tmat)
        d = kernel_prox_vec(kernel, g, lam)
        if spec.psd:
            d = np.maximum(d, 0.0)
        chalf = _recompose_raw(u, d)
        f_cur = _objective_from_d(spec, d, chalf)
        obj_trace.append(f_cur)
        sparse = soft(tau, 2.0 * chalf - c)
        c_next = c + cfg.alpha * (sparse - chalf)
        residuals.append(float(np.linalg.norm(c_next - c)))
        if f_prev is not None and abs(f_cur - f_prev) <= cfg.eps * max(
            abs(f_prev), 1e-300
        ):
            stop_reason = "tolerance"
            state = c  # pre-update governing iterate, the warm-start handle
            break
        f_prev = f_cur
        c = c_next
        state = c
    return SolveReport(
        c_final=SymMatrix(chalf, strict=False),
        c_sparse=SymMatrix(sparse, strict=False),
        c_state=SymMatrix(state, strict=False),
        c_final_eig=EigenDecomp(u=u, lam=d),
        objective_trace=obj_trace,
        fixed_point_residuals=residuals,
        iterations=len(obj_trace),
        stop_reason=stop_reason,
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
