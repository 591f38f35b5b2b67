import math

import numpy as np
import pytest

from symprox import (
    ConditioningError,
    ConfigurationError,
    EigenDecomp,
    InvalidInputError,
    SymMatrix,
    eig_sym,
    fro_norm,
    inner,
    read_matrix_csv,
    recompose,
    spd_inverse,
    trace,
    write_matrix_csv,
)
from symprox.symlin import _recompose_raw, read_csv, read_kv, write_csv, write_kv

from _oracles import rand_sym, rand_spd


def test_eig_identity():
    e = eig_sym(np.eye(4))
    assert np.allclose(e.lam, 1.0)
    assert np.linalg.norm(e.u.T @ e.u - np.eye(4)) <= 1e-10 * 2


def test_eig_diagonal_sorted():
    e = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(e.lam, [3.0, 1.0])
    # eigenvectors are a signed permutation
    assert np.allclose(np.abs(e.u), np.eye(2))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    a = rand_sym(rng, 8)
    e = eig_sym(a)
    back = (e.u * e.lam) @ e.u.T
    assert np.linalg.norm(back - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
    assert np.all(np.diff(e.lam) <= 0)


def test_eig_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(InvalidInputError):
        eig_sym(bad)


def test_eig_deterministic():
    rng = np.random.default_rng(3)
    a = rand_sym(rng, 12)
    e1, e2 = eig_sym(a), eig_sym(a)
    assert np.array_equal(e1.u, e2.u) and np.array_equal(e1.lam, e2.lam)


def test_recompose_diag():
    m = recompose(EigenDecomp(u=np.eye(2), lam=np.array([5.0, 2.0])))
    assert np.allclose(m.mat, np.diag([5.0, 2.0]))


def test_recompose_rotation_quarter_turn():
    c = s = math.sqrt(0.5)
    u = np.array([[c, s], [-s, c]])
    m = recompose(EigenDecomp(u=u, lam=np.array([1.0, -1.0])))
    # hand expansion: u1 u1' - u2 u2' with u1=(c,-s), u2=(s,c)
    assert np.allclose(m.mat, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)


def test_recompose_roundtrip():
    rng = np.random.default_rng(1)
    a = rand_sym(rng, 10)
    m = recompose(eig_sym(a))
    assert np.linalg.norm(m.mat - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


@pytest.mark.parametrize("n", [1, 7, 60])
def test_recompose_raw_nonnegative_is_exactly_symmetric(n):
    # d >= 0 (zeros included) takes the syrk form: exactly symmetric, within
    # 1e-15 max|d| of the symmetrized general product; a mixed-sign d keeps
    # that product bitwise
    rng = np.random.default_rng(n)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for d in (rng.uniform(0.0, 3.0, n), np.where(np.arange(n) % 3, rng.uniform(0.0, 3.0, n), 0.0)):
        m = _recompose_raw(u, d)
        np.testing.assert_array_equal(m, m.T)
        general = (u * d) @ u.T
        assert np.abs(m - 0.5 * (general + general.T)).max() <= 1e-15 * d.max()
    d = rng.uniform(-1.0, 3.0, n)
    d[0] = -0.5
    general = (u * d) @ u.T
    np.testing.assert_array_equal(_recompose_raw(u, d), 0.5 * (general + general.T))


def test_recompose_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        recompose(EigenDecomp(u=np.eye(3), lam=np.array([1.0, 2.0])))


def test_spd_inverse_examples():
    assert np.allclose(spd_inverse(np.eye(3)).mat, np.eye(3))
    assert np.allclose(spd_inverse(np.diag([2.0, 4.0])).mat, np.diag([0.5, 0.25]))


def test_spd_inverse_residual():
    rng = np.random.default_rng(2)
    a = rand_spd(rng, 6)
    inv = spd_inverse(a).mat
    assert np.linalg.norm(a @ inv - np.eye(6)) <= 1e-8


def test_spd_inverse_near_singular():
    a = np.diag([1.0, 1e-15])
    with pytest.raises(ConditioningError) as exc:
        spd_inverse(a)
    assert exc.value.smallest_eigenvalue == pytest.approx(1e-15, rel=1e-6)


def test_norms_and_traces():
    assert fro_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert trace(np.diag([1.0, 2.0, 3.0])) == 6.0
    rng = np.random.default_rng(4)
    a, b = rand_sym(rng, 5), rand_sym(rng, 5)
    # trace(ab) equals the elementwise-product sum for symmetric a, b
    assert inner(a, b) == pytest.approx(float(np.sum(a * b)), abs=1e-12)
    assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-12)


def test_inner_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        inner(np.eye(2), np.eye(3))


def test_roundtrip_up_to_50():
    rng = np.random.default_rng(5)
    for n in (3, 17, 50):
        a = rand_sym(rng, n, scale=2.0)
        e = eig_sym(a)
        assert np.linalg.norm(e.u.T @ e.u - np.eye(n)) <= 1e-10 * math.sqrt(n)
        back = recompose(e).mat
        assert np.linalg.norm(back - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_weyl_eigenvalue_continuity():
    rng = np.random.default_rng(6)
    a = rand_sym(rng, 9)
    pert = rand_sym(rng, 9, scale=0.05)
    la = np.sort(np.linalg.eigvalsh(a))
    lb = np.sort(np.linalg.eigvalsh(a + pert))
    assert np.max(np.abs(la - lb)) <= np.linalg.norm(pert) + 1e-10


def test_symmatrix_strict_constructor():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        SymMatrix(bad)
    loose = SymMatrix(bad, strict=False)
    assert loose.asym_residual == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert np.allclose(loose.mat, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InvalidInputError):
        SymMatrix(np.zeros((2, 3)))


def test_symmatrix_at_large_finite_magnitude():
    # 0.5*(m + m.T) overflowed and stored inf for this finite input
    m = SymMatrix(np.diag([1e308, 1.0]))
    assert m.mat[0, 0] == 1e308 and m.asym_residual == 0.0
    # both Frobenius norms overflowed, and inf > 1e-8 * inf is false: this
    # was accepted as symmetric with residual inf
    with pytest.raises(InvalidInputError, match="not symmetric"):
        SymMatrix(np.array([[1e200, 1e199], [0.0, 1.0]]))
    loose = SymMatrix(np.array([[1e200, 1e199], [0.0, 1.0]]), strict=False)
    assert loose.asym_residual == pytest.approx(5e198 * math.sqrt(2.0), rel=1e-12)


def test_symmatrix_immutable():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.mat[0, 0] = 5.0
    assert m.upper().tolist() == [1.0, 0.0, 1.0]


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    a = rand_sym(rng, 6, scale=3.7)
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    back = read_matrix_csv(path)
    assert np.array_equal(back.mat, SymMatrix(a).mat)


def test_matrix_csv_reports_asymmetry(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n0.0,1.0\n")
    m = read_matrix_csv(path)
    assert m.asym_residual > 1.0


def test_matrix_csv_rejects_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InvalidInputError):
        read_matrix_csv(path)


def test_write_csv_and_write_kv_format_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [(1, 0.1, np.float64(1 / 3), "a", True)], header=("i", "x", "y", "s", "b"))
    assert path.read_text() == "i,x,y,s,b\n1,0.10000000000000001,0.33333333333333331,a,True\n"
    path = tmp_path / "t.txt"
    write_kv(path, {"z": None, "a": 2.5, "m": 3})
    assert path.read_text() == "a=2.5\nm=3\nz=None\n"


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n1,2.5\n\n-3, 4e-1\n")
    assert read_csv(path).tolist() == [[1.0, 2.5], [-3.0, 0.4]]


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,x\n", ":2: could not convert string to float: 'x'"),
    ("1,2\n3\n", ": rows are empty or of unequal length"),
    ("\n\n", ": rows are empty or of unequal length"),
])
def test_read_csv_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as err:
        read_csv(path)
    assert str(err.value) == f"{path}{message}"


def test_read_kv_comments_dashes_and_error(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("# header\nmax-iter = 30  # inline\n\nout=a=b\n")
    assert read_kv(path) == {"max_iter": "30", "out": "a=b"}
    path.write_text("a=1\noops # no equals sign\n")
    with pytest.raises(ConfigurationError) as err:
        read_kv(path)
    assert str(err.value) == f"{path}:2: expected key=value, got 'oops'"
