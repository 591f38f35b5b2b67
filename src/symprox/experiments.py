"""Synthetic data generation, sampling, and estimation-quality metrics.

Generators are pure functions of (parameters, seed).  Randomness comes
from a PCG64 stream; Gaussian variates are produced by the Box-Muller
transform on its uniforms, so the sample streams are reproducible and
easy to restate in any environment.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericError, _check_count
from .symlin import (
    SymMatrix,
    _recompose_raw,
    as_sym,
    read_csv,
    read_kv,
    read_matrix_csv,
    write_csv,
    write_kv,
    write_matrix_csv,
)


def _rng(seed):
    _check_count("seed", seed, 0)
    return np.random.Generator(np.random.PCG64(int(seed)))


def _gauss(rng, shape):
    """Standard normal variates via Box-Muller on PCG64 uniforms."""
    size = int(np.prod(shape))
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]: keeps the log finite
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:size].reshape(shape)


@dataclass(frozen=True)
class BlockSpec:
    """Diagonal block sizes of the low-rank covariance scenario."""

    block_sizes: tuple

    def __post_init__(self):
        sizes = tuple(self.block_sizes)
        if not sizes:
            raise ConfigurationError("blocks must list at least one block size")
        for r in sizes:
            _check_count("blocks", r, 1)
        object.__setattr__(self, "block_sizes", tuple(int(r) for r in sizes))

    @property
    def n(self):
        return sum(self.block_sizes)


@dataclass
class Dataset:
    y_star: SymMatrix
    samples: np.ndarray
    seed: int
    sigma: float


def gen_block_lowrank_cov(spec, rng_seed):
    """Block-diagonal PSD covariance; block j is a_j a_j^T with the
    components of a_j drawn uniformly on [-1, 1] (rank one per block)."""
    rng = _rng(rng_seed)
    n = spec.n
    out = np.zeros((n, n))
    start = 0
    for r in spec.block_sizes:
        a = rng.uniform(-1.0, 1.0, size=r)
        out[start : start + r, start : start + r] = np.outer(a, a)
        start += r
    return SymMatrix(out, strict=False)


def latent_cov(a, p):
    """Covariance A P A^T of a latent-factor model (A defaults to the
    identity in the standard scenarios; general A is supported)."""
    a = np.asarray(a, float)
    p = as_sym(p)
    if a.ndim != 2 or a.shape[1] != p.n:
        raise InvalidInputError("factor loading shape does not match P")
    return SymMatrix(a @ p.mat @ a.T, strict=False)


def gen_sparse_precision(n, p, rng_seed):
    """Symmetric PD precision matrix with round(p*n^2) upper-triangle
    off-diagonal nonzeros (so twice that many off-diagonal entries).

    Off-diagonal values have magnitude uniform on [0.5, 1] with random
    sign; the diagonal starts at one and is shifted so the smallest
    eigenvalue is at least 0.1.
    """
    _check_count("n", n, 1)
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must lie in (0, 1), got {p!r}")
    rng = _rng(rng_seed)
    k = int(round(p * n * n))
    iu, ju = np.triu_indices(n, k=1)
    total = iu.size
    k = min(k, total)
    m = np.eye(n)
    if k > 0:
        chosen = rng.choice(total, size=k, replace=False)
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        mags = rng.uniform(0.5, 1.0, size=k)
        m[iu[chosen], ju[chosen]] = signs * mags
        m[ju[chosen], iu[chosen]] = signs * mags
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min < 0.1:
        m += (0.1 - lam_min) * np.eye(n)
    return SymMatrix(m, strict=False)


def sample_gaussian(y_star, sigma, nsamples, rng_seed):
    """Draw nsamples vectors from N(0, y_star + sigma^2 I) via the
    eigenvalue square root of the covariance."""
    y_star = as_sym(y_star)
    _check_count("nsamples", nsamples, 1)
    n = y_star.n
    cov = y_star.mat + sigma * sigma * np.eye(n)
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.maximum(w, 0.0))
    z = _gauss(_rng(rng_seed), (int(nsamples), n))
    return Dataset(
        y_star=y_star, samples=z @ root.T, seed=int(rng_seed), sigma=float(sigma)
    )


def empirical_cov(ds):
    """S = (1/N) sum_i x_i x_i^T; PSD by construction."""
    x = ds.samples
    return SymMatrix(x.T @ x / x.shape[0], strict=False)


@dataclass(frozen=True)
class Metrics:
    tpr: float
    fpr: float
    rmse: float


def metrics(estimate, truth, support_tol=1e-8):
    """Support recovery rates and relative squared Frobenius error.

    An entry is 'detected' when its magnitude exceeds support_tol; prox
    outputs carry exact zeros, so the tolerance only guards float dust.
    """
    e = as_sym(estimate).mat
    t = as_sym(truth).mat
    if e.shape != t.shape:
        raise InvalidInputError("estimate and truth dimensions differ")
    t_norm2 = float(np.sum(t * t))
    if t_norm2 == 0.0:
        raise NumericError("rmse undefined: truth matrix is identically zero")
    det = np.abs(e) > support_tol
    true_nz = np.abs(t) > support_tol
    n_true = int(true_nz.sum())
    n_zero = t.size - n_true
    tpr = float((det & true_nz).sum()) / n_true if n_true else 0.0
    fpr = float((det & ~true_nz).sum()) / n_zero if n_zero else 0.0
    rmse = float(np.sum((e - t) ** 2)) / t_norm2
    return Metrics(tpr=tpr, fpr=fpr, rmse=rmse)


def clipped_raw_estimator(s, sigma):
    """Eigenvalue-clipped raw estimate max_PSD(S - sigma^2 I): the
    no-regularization reference the solvers must beat."""
    s = as_sym(s)
    w, v = np.linalg.eigh(s.mat - sigma * sigma * np.eye(s.n))
    return SymMatrix(_recompose_raw(v, np.maximum(w, 0.0)), strict=False)


def write_dataset(ds, dirpath, extra=None):
    """Write y_star.csv, samples.csv, and a key=value metadata sidecar."""
    os.makedirs(dirpath, exist_ok=True)
    write_matrix_csv(ds.y_star, os.path.join(dirpath, "y_star.csv"))
    write_csv(os.path.join(dirpath, "samples.csv"), ds.samples)
    meta = {"seed": ds.seed, "sigma": ds.sigma, "n": ds.y_star.n, "n_samples": ds.samples.shape[0]}
    write_kv(os.path.join(dirpath, "meta.txt"), {**meta, **(extra or {})})


def read_dataset(dirpath):
    """Read a dataset directory back; returns (Dataset, metadata dict)."""
    meta_path, samples_path = (os.path.join(dirpath, f) for f in ("meta.txt", "samples.csv"))
    try:
        meta = read_kv(meta_path)
    except ConfigurationError as exc:  # a dataset file, not a config file: exit 3
        raise InvalidInputError(str(exc)) from None
    y_star = read_matrix_csv(os.path.join(dirpath, "y_star.csv"))
    samples = read_csv(samples_path)
    if samples.shape[1] != y_star.n:
        raise InvalidInputError(
            f"{samples_path}: {samples.shape[1]} columns, but y_star is {y_star.n}x{y_star.n}"
        )
    try:
        seed, sigma = int(meta.get("seed", "0")), float(meta.get("sigma", "0"))
    except ValueError as exc:
        raise InvalidInputError(f"{meta_path}: {exc}") from None
    if not 0.0 <= sigma < np.inf:
        raise InvalidInputError(f"{meta_path}: sigma must be finite and nonnegative, got {sigma}")
    return Dataset(y_star=y_star, samples=samples, seed=seed, sigma=sigma), meta
