"""symprox: spectral proximity operators and splitting solvers for
symmetric-matrix estimation problems (sparse covariance and noisy
graphical lasso)."""

from .errors import (
    BracketingError,
    ConditioningError,
    ConfigurationError,
    DomainError,
    InvalidInputError,
    NumericError,
    SymproxError,
)
from .experiments import (
    BlockSpec,
    Dataset,
    Metrics,
    clipped_raw_estimator,
    empirical_cov,
    gen_block_lowrank_cov,
    gen_sparse_precision,
    latent_cov,
    metrics,
    read_dataset,
    sample_gaussian,
    write_dataset,
)
from .mm_glasso import (
    MMConfig,
    MMReport,
    NoisyGlassoProblem,
    dr_noisy_baseline,
    f_noisy,
    glasso_solve,
    grad_trace_term,
    majorant_eval,
    mm_solve,
    objective_F,
    trace_term,
)
from .scalarprox import (
    Divergence,
    Penalty,
    ScalarKernel,
    hard,
    kernel_eval,
    kernel_eval_vec,
    kernel_prox,
    kernel_prox_vec,
    lambert_w,
    parse_kernel,
    project_l1_ball,
    soft,
)
from .spectralprox import SpectralProxRequest, bregman_div, bregman_prox, prox_spectral
from .splitting import (
    DRConfig,
    ObjectiveSpec,
    SolveReport,
    dr_solve,
    format_summary,
    objective_eval,
    prox_l1_matrix,
    write_trace_csv,
)
from .symlin import (
    EigenDecomp,
    SymMatrix,
    as_sym,
    eig_sym,
    fro_norm,
    inner,
    read_matrix_csv,
    recompose,
    spd_inverse,
    trace,
    write_matrix_csv,
)

__version__ = "0.1.0"
