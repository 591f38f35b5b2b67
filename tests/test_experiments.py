import numpy as np
import pytest

from symprox import (
    BlockSpec,
    ConfigurationError,
    InvalidInputError,
    NumericError,
    SymMatrix,
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


def test_block_spec_validation():
    assert BlockSpec((2, 3)).n == 5
    with pytest.raises(ConfigurationError, match="^blocks must list at least one"):
        BlockSpec(())
    with pytest.raises(ConfigurationError, match=r"^blocks must be an integer >= 1"):
        BlockSpec((2, 0))


def test_block_cov_single_block():
    m = gen_block_lowrank_cov(BlockSpec((1,)), 0)
    assert m.n == 1
    assert 0.0 <= m.mat[0, 0] <= 1.0  # a^2 with a drawn on [-1, 1]


def test_block_cov_reference_configuration():
    spec = BlockSpec((14, 36, 18, 10, 22))
    m = gen_block_lowrank_cov(spec, 42)
    assert m.n == 100
    w = np.linalg.eigvalsh(m.mat)
    assert w[0] >= -1e-12
    # one rank-one block each: exactly five eigenvalues above the dust level
    assert int((w > 1e-10).sum()) == 5
    # off-block entries are exactly zero
    assert m.mat[0, 99] == 0.0 and m.mat[13, 14] == 0.0


def test_block_cov_each_block_rank_one():
    spec = BlockSpec((4, 6, 5))
    m = gen_block_lowrank_cov(spec, 7)
    start = 0
    for r in spec.block_sizes:
        block = m.mat[start : start + r, start : start + r]
        w = np.linalg.eigvalsh(block)
        assert int((w > 1e-10).sum()) == 1
        start += r


def test_latent_cov():
    rng = np.random.default_rng(0)
    p = np.eye(3)
    assert np.allclose(latent_cov(np.eye(3), p).mat, p)
    a = rng.normal(size=(5, 3))
    out = latent_cov(a, p)
    assert np.allclose(out.mat, a @ a.T)
    with pytest.raises(InvalidInputError):
        latent_cov(np.ones((4, 2)), p)


def test_sparse_precision_reference_counts():
    m = gen_sparse_precision(100, 1e-3, 5)
    off = m.mat - np.diag(np.diag(m.mat))
    assert int((np.abs(off) > 0).sum()) == 20  # symmetric pairs of 10 positions
    assert np.linalg.eigvalsh(m.mat)[0] >= 0.1 - 1e-10


def test_sparse_precision_tiny_density_is_diagonal():
    m = gen_sparse_precision(30, 1e-6, 1)
    assert np.allclose(m.mat, np.diag(np.diag(m.mat)))
    assert np.linalg.eigvalsh(m.mat)[0] >= 0.1 - 1e-10


def test_sparse_precision_validation():
    with pytest.raises(ConfigurationError, match=r"^p must lie in \(0, 1\)"):
        gen_sparse_precision(10, 0.0, 0)
    with pytest.raises(ConfigurationError, match=r"^p must lie in \(0, 1\)"):
        gen_sparse_precision(10, 1.0, 0)


def test_sampling_zero_covariance():
    ds = sample_gaussian(SymMatrix(np.zeros((3, 3))), 0.0, 50, 0)
    assert np.all(ds.samples == 0.0)
    assert np.all(empirical_cov(ds).mat == 0.0)


def test_sampling_concentration():
    y = SymMatrix(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.7]]))
    sigma = 0.3
    n_samp = 100000
    ds = sample_gaussian(y, sigma, n_samp, 3)
    s = empirical_cov(ds)
    target = y.mat + sigma * sigma * np.eye(3)
    assert np.linalg.norm(s.mat - target) <= 5.0 / np.sqrt(n_samp) * np.linalg.norm(target)


def test_sampling_deterministic():
    y = SymMatrix(np.eye(4))
    a = sample_gaussian(y, 0.2, 100, 11)
    b = sample_gaussian(y, 0.2, 100, 11)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(empirical_cov(a).mat, empirical_cov(b).mat)


def test_empirical_cov_psd():
    rng = np.random.default_rng(4)
    y = SymMatrix(np.diag(rng.uniform(0.1, 2.0, size=5)))
    ds = sample_gaussian(y, 0.1, 3, 9)  # fewer samples than dimensions
    s = empirical_cov(ds)
    assert np.linalg.eigvalsh(s.mat)[0] >= -1e-12


def test_metrics_examples():
    t = np.diag([1.0, 2.0, 0.0])
    m = metrics(t, t)
    assert (m.tpr, m.fpr, m.rmse) == (1.0, 0.0, 0.0)
    z = metrics(np.zeros((3, 3)), t)
    assert (z.tpr, z.fpr, z.rmse) == (0.0, 0.0, 1.0)


def test_metrics_counting_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        e = rng.normal(size=(6, 6))
        e = np.where(rng.random((6, 6)) < 0.4, 0.0, e)
        e = 0.5 * (e + e.T)
        t = rng.normal(size=(6, 6))
        t = np.where(rng.random((6, 6)) < 0.5, 0.0, t)
        t = 0.5 * (t + t.T)
        if not np.any(t):
            continue
        tol = 1e-8
        m = metrics(e, t, support_tol=tol)
        tp = fp = nz = zz = 0
        for i in range(6):
            for j in range(6):
                truth_nz = abs(t[i, j]) > tol
                det = abs(e[i, j]) > tol
                nz += truth_nz
                zz += not truth_nz
                tp += det and truth_nz
                fp += det and not truth_nz
        assert m.tpr == pytest.approx(tp / nz if nz else 0.0)
        assert m.fpr == pytest.approx(fp / zz if zz else 0.0)
        assert m.rmse == pytest.approx(np.sum((e - t) ** 2) / np.sum(t * t), rel=1e-12)


def test_metrics_zero_truth_error():
    with pytest.raises(NumericError):
        metrics(np.eye(2), np.zeros((2, 2)))


def test_clipped_raw_estimator():
    s = SymMatrix(np.diag([2.0, 0.05]))
    out = clipped_raw_estimator(s, 0.3)  # subtracts 0.09 then clips
    assert np.allclose(np.diag(out.mat), [1.91, 0.0])
    assert np.linalg.eigvalsh(out.mat)[0] >= -1e-14


def test_dataset_roundtrip(tmp_path):
    y = gen_block_lowrank_cov(BlockSpec((2, 3)), 1)
    ds = sample_gaussian(y, 0.15, 12, 2)
    write_dataset(ds, tmp_path, extra={"generator": "block_lowrank", "blocks": "2,3"})
    back, meta = read_dataset(tmp_path)
    assert np.array_equal(back.y_star.mat, ds.y_star.mat)
    assert np.array_equal(back.samples, ds.samples)
    assert back.seed == 2 and back.sigma == 0.15
    assert meta["generator"] == "block_lowrank"
    assert meta["n"] == "5" and meta["n_samples"] == "12"
