"""Dense symmetric linear algebra: eigendecomposition, SPD inverses, norms.

All solvers in this package reduce matrix operations to eigenvalue
manipulations of real symmetric matrices; this module is the single home
for those primitives and for the two text formats, numeric CSV tables and
sorted key=value files.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, InvalidInputError

_STRICT_ASYM_TOL = 1e-8
_PSD_SLACK = 1e-10


class SymMatrix:
    """Immutable dense real symmetric matrix.

    Construction symmetrizes the input via (A + A.T)/2 and records the
    asymmetry residual ||A - (A + A.T)/2||_F.  Strict construction (the
    default) rejects inputs whose residual exceeds 1e-8 * ||A||_F.
    """

    __slots__ = ("mat", "asym_residual")

    def __init__(self, a, strict=True):
        m = np.asarray(a, dtype=float)  # only read: the stored matrix is a new array
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("SymMatrix requires a square 2-d array")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("SymMatrix entries must be finite")
        with np.errstate(over="ignore"):
            sym = 0.5 * (m + m.T)
            resid = float(np.linalg.norm(m - sym))
            size = float(np.linalg.norm(m)) if strict else 0.0
        if max(resid, size) == np.inf:  # squares overflow (above about 1.3e154): halve first, rescale
            s = float(np.abs(m).max())
            sym = 0.5 * m + 0.5 * m.T
            resid, size = s * float(np.linalg.norm((m - sym) / s)), s * float(np.linalg.norm(m / s))
        if strict and resid > _STRICT_ASYM_TOL * max(1e-300, size):
            raise InvalidInputError(f"input is not symmetric: asymmetry residual {resid:.3e}")
        sym.flags.writeable = False
        self.mat = sym
        self.asym_residual = resid

    @property
    def n(self):
        return self.mat.shape[0]

    def upper(self):
        """Packed upper triangle, length n*(n+1)/2."""
        return self.mat[np.triu_indices(self.n)]

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def as_sym(a):
    """Coerce an array-like into a strict SymMatrix (pass-through if it is one)."""
    if isinstance(a, SymMatrix):
        return a
    return SymMatrix(a)


@dataclass(frozen=True)
class EigenDecomp:
    """Orthogonal eigenbasis u (columns) and eigenvalues lam (eig_sym sorts them descending)."""

    u: np.ndarray
    lam: np.ndarray

    @property
    def n(self):
        return self.lam.shape[0]


def _eigh_desc(mat):
    """Eigendecomposition of a symmetric ndarray, eigenvalues descending.

    Eigenvector signs are LAPACK's: every use (U diag(d) U^T, u_i^T S u_i)
    is invariant under them.
    """
    w, v = np.linalg.eigh(mat)
    return np.ascontiguousarray(v[:, ::-1]), w[::-1].copy()


def eig_sym(a):
    """Diagonalize a symmetric matrix: a = u @ diag(lam) @ u.T."""
    a = as_sym(a)
    u, lam = _eigh_desc(a.mat)
    return EigenDecomp(u=u, lam=lam)


def _psd_ok(w):
    """Whether eigenvalues w, in any order, are those of a PSD matrix up to
    the dust an eigensolve leaves: min(w) >= -1e-10 * max(1, max|w|)."""
    return not w.min() < -_PSD_SLACK * max(1.0, float(np.abs(w).max()))


def _recompose_raw(u, lam):
    """u @ diag(lam) @ u.T, exactly symmetric.  For lam >= 0 it is x @ x.T
    with x = u*sqrt(lam), which BLAS forms as one symmetric rank-k update;
    a mixed-sign lam is symmetrized from the general product."""
    if lam.min() >= 0.0:
        x = u * np.sqrt(lam)
        return x @ x.T
    m = (u * lam) @ u.T
    return 0.5 * (m + m.T)


def recompose(e):
    """Rebuild the symmetric matrix u @ diag(lam) @ u.T from a decomposition."""
    u = np.asarray(e.u, float)
    lam = np.asarray(e.lam, float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or lam.shape != (u.shape[0],):
        raise InvalidInputError("eigendecomposition dimensions disagree")
    return SymMatrix(_recompose_raw(u, lam), strict=False)


def spd_inverse(a):
    """Inverse of a symmetric positive definite matrix via its eigenbasis."""
    a = as_sym(a)
    w, v = np.linalg.eigh(a.mat)
    if w[0] <= 1e-12 * max(1.0, w[-1]):
        raise ConditioningError(
            f"matrix is numerically singular (smallest eigenvalue {w[0]:.3e})",
            smallest_eigenvalue=float(w[0]),
        )
    inv = (v / w) @ v.T
    return SymMatrix(0.5 * (inv + inv.T), strict=False)


def fro_norm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(as_sym(a).mat))


def trace(a):
    return float(np.trace(as_sym(a).mat))


def inner(a, b):
    """Trace inner product trace(a @ b) of two symmetric matrices."""
    a = as_sym(a)
    b = as_sym(b)
    if a.n != b.n:
        raise InvalidInputError(f"dimension mismatch: {a.n} vs {b.n}")
    return float(np.sum(a.mat * b.mat))


def atomic_write_text(path, text):
    """Write a text file atomically (temp file + rename)."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x):
    """17 significant digits: guarantees float round-trip through text."""
    return f"{float(x):.17g}"


def _cell(x):
    return format_float(x) if isinstance(x, float) or isinstance(x, np.floating) else str(x)


def write_csv(path, rows, header=None):
    """Write a table as comma-separated lines, after an optional header row
    of column names: floats (numpy's included) with format_float, any other
    cell with str."""
    lines = [] if header is None else [",".join(header)]
    # Python floats format faster than numpy scalars
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    lines += [",".join(map(_cell, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Read a numeric table as a 2-d float array, skipping blank lines."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            try:
                if line:
                    rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInputError(f"{path}: rows are empty or of unequal length")
    return np.array(rows)


def write_kv(path, mapping):
    """Write sorted key=value lines, values formatted as write_csv's cells."""
    atomic_write_text(path, "".join(f"{k}={_cell(v)}\n" for k, v in sorted(mapping.items())))


def read_kv(path):
    """Read key=value lines into a dict of strings.  '#' starts a comment
    and dashes in keys read as underscores."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            k, eq, v = line.split("#", 1)[0].strip().partition("=")
            if eq:
                out[k.strip().replace("-", "_")] = v.strip()
            elif k:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got '{k}'")
    return out


def write_matrix_csv(a, path):
    """Write a matrix as n lines of n comma-separated decimals."""
    write_csv(path, as_sym(a).mat)


def read_matrix_csv(path):
    """Read a matrix CSV; the result is symmetrized (not strict) and the
    asymmetry residual is recorded on the returned SymMatrix."""
    m = read_csv(path)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"matrix in {path} is not square")
    return SymMatrix(m, strict=False)
