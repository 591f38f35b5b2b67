"""The benchmark's four workloads.

Each workload builds its inputs in setup() from the symprox module it is
handed, lists one round of operations in round(), and judges each
operation's output in certify() with the numpy certificates.  Every
round holds the same operations, so the share of failed operations is
the same in every run.  The workload seed only orders the operations of
a round (and, for the prox catalog, draws the input matrices).
"""

import contextlib
import hashlib
import io
import os
from functools import partial

import numpy as np

import certificates as cert


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class _NoisyGlasso:
    """Shared set-up of the two graphical-lasso workloads: a sparse
    precision matrix from generator seed 0 (density 1e-3), and 1000 noisy
    samples (sigma 0.2) per sample seed, as in the `bench` command."""

    root = "mm_glasso"
    known_faults = frozenset()
    n = 100
    sample_seeds = ()
    sigma = 0.2
    mu0 = 0.005
    mu1 = 0.05

    def setup(self, sp, work, seed, gen):
        c_star = gen(sp.gen_sparse_precision, self.n, 1e-3, 0)
        y_star = sp.spd_inverse(c_star)
        self.sp = sp
        self.s = {}
        for ss in self.sample_seeds:
            ds = gen(sp.sample_gaussian, y_star, self.sigma, 1000, ss)
            self.s[ss] = gen(sp.empirical_cov, ds)

    def fingerprint(self, key, out):
        return _digest(out.c_final.mat, out.c_sparse.mat)


class MMN100(_NoisyGlasso):
    """mm_solve at the `bench` reference settings (n=100, sigma=0.2,
    mu0=0.005, mu1=0.05, default MMConfig)."""

    name = "mm_n100"
    sample_seeds = (7919, 15838, 23757, 31676)

    def setup(self, sp, work, seed, gen):
        super().setup(sp, work, seed, gen)
        self.probs = {
            ss: sp.NoisyGlassoProblem(s=s, sigma2=self.sigma**2, mu0=self.mu0, mu1=self.mu1)
            for ss, s in self.s.items()
        }

    def round(self):
        return [(ss, partial(self.sp.mm_solve, prob)) for ss, prob in self.probs.items()]

    def certify(self, key, rep):
        s, s2 = self.s[key].mat, self.sigma**2
        ok1, d1 = cert.mm_descent(s, s2, self.mu0, self.mu1, rep.outer_objectives, rep.c_final.mat)
        ok2, d2 = cert.mm_stationarity(s, s2, self.mu0, self.mu1, rep.c_final.mat, rep.c_sparse.mat)
        return ok1 and ok2, f"{d1}; {d2}"

    def fingerprint(self, key, rep):
        return _digest(rep.c_final.mat, rep.c_sparse.mat, rep.outer_objectives)


class GlassoN300(_NoisyGlasso):
    """glasso_solve (Burg prox in closed form) at n=300, mu1=0.05."""

    name = "glasso_n300"
    n = 300
    sample_seeds = (7919, 15838, 23757)

    def round(self):
        return [(ss, partial(self.sp.glasso_solve, s, self.mu1)) for ss, s in self.s.items()]

    def certify(self, key, rep):
        return cert.glasso_kkt(self.s[key].mat, self.mu1, rep.c_final.mat, rep.c_sparse.mat)


class CovN100:
    """`symprox gen --scenario cov` then `symprox solve-cov --data` at the
    CLI defaults, on dataset seeds 0-4.  Seeds 3 and 4 stop early on the
    stalled-objective rule and fail their duality-gap check every time."""

    name = "cov_n100"
    root = "cli"
    dataset_seeds = (0, 1, 2, 3, 4)
    known_faults = frozenset({3, 4})
    mu0 = 0.2  # solve-cov defaults
    mu1 = 0.1

    def __init__(self):
        self.work = None
        self._inputs = {}  # dataset seed -> (samples, sigma), read once

    def setup(self, sp, work, seed, gen):
        from symprox import cli

        self.cli = cli
        self.work = work
        for ds in self.dataset_seeds:
            argv = ["gen", "--scenario", "cov", "--seed", str(ds), "--out", self._dir("data", ds)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gen(cli.main, argv)
            if rc != 0:
                raise RuntimeError(f"symprox gen exited {rc} for dataset seed {ds}")

    def _dir(self, kind, ds):
        return os.path.join(self.work, f"{kind}{ds}")

    def _solve(self, ds):
        argv = ["solve-cov", "--data", self._dir("data", ds), "--out", self._dir("run", ds)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def round(self):
        return [(ds, partial(self._solve, ds)) for ds in self.dataset_seeds]

    def _outputs(self, ds):
        run = self._dir("run", ds)
        return (
            np.loadtxt(os.path.join(run, "estimate.csv"), delimiter=",", ndmin=2),
            np.loadtxt(os.path.join(run, "estimate_sparse.csv"), delimiter=",", ndmin=2),
        )

    def fingerprint(self, ds, rc):
        return _digest([rc], *self._outputs(ds))

    def certify(self, ds, rc):
        if rc != 0:
            return False, f"solve-cov exited {rc}"
        if ds not in self._inputs:
            data = self._dir("data", ds)
            with open(os.path.join(data, "meta.txt")) as fh:
                meta = dict(line.strip().split("=", 1) for line in fh if "=" in line)
            samples = np.loadtxt(os.path.join(data, "samples.csv"), delimiter=",", ndmin=2)
            self._inputs[ds] = (samples, float(meta["sigma"]))
        samples, sigma = self._inputs[ds]
        c_final, c_sparse = self._outputs(ds)
        return cert.cov_duality_gap(samples, sigma, self.mu0, self.mu1, c_final, c_sparse)


# Catalog penalty parameters; schatten p=2.5 and inv_schatten take the
# root-solved paths, the rest are closed forms or set-valued rows.
PENALTIES = {
    "none": {},
    "nuclear": {"mu": 0.3},
    "fro_norm": {"mu": 0.5},
    "fro_squared": {"mu": 0.4},
    "schatten": {"mu": 0.3, "p": 2.5},
    "inv_schatten": {"mu": 0.2, "p": 1.0},
    "fro_ball": {"alpha": 2.0},
    "eig_box": {"alpha": 0.1, "beta": 1.5},
    "rank": {"mu": 0.2},
    "cauchy": {"mu": 0.3, "eps": 0.5},
    "spectral_norm": {"mu": 0.4},
}
KERNEL_ROWS = {
    "half_square": tuple(PENALTIES),
    "burg": ("none", "nuclear", "fro_squared", "schatten", "inv_schatten", "eig_box", "cauchy"),
    "shannon": ("none", "nuclear", "fro_squared", "schatten", "eig_box", "rank"),
    "noisy_burg": ("none", "inv_schatten"),
}
BREGMAN_ROWS = {
    "half_square": (
        "none", "nuclear", "fro_norm", "fro_squared", "schatten", "inv_schatten",
        "fro_ball", "eig_box", "spectral_norm",
    ),
    "burg": ("none", "nuclear", "fro_squared", "schatten", "inv_schatten", "eig_box"),
    "shannon": ("none", "nuclear", "fro_squared", "schatten", "eig_box"),
}
CATALOG_GAMMA = 1.0
NOISY_SIGMA2 = 0.04


def catalog_rows():
    """Every (divergence, penalty) row: kernel rows, then Bregman rows.
    Each is a dict that certificates.prox_row_check understands, plus the
    span name the traced run gives it."""
    rows = []
    for kind, table, prefix in (
        ("kernel", KERNEL_ROWS, "spectralprox"),
        ("bregman", BREGMAN_ROWS, "spectralprox.bregman"),
    ):
        for div, pens in table.items():
            for pen in pens:
                rows.append({
                    "kind": kind,
                    "div": div,
                    "sigma2": NOISY_SIGMA2 if div == "noisy_burg" else 0.0,
                    "pen": (pen, PENALTIES[pen]),
                    "gamma": CATALOG_GAMMA,
                    "span": f"{prefix}.{div}.{pen}",
                })
    return rows


class ProxCatalogN30:
    """One operation is one pass of prox_spectral over every kernel row and
    bregman_prox over every Bregman row, on one of four input sets drawn
    from the workload seed: C_bar with eigenvalues in about [-2.5, 2.5], a
    small linear term T, and a PD anchor with eigenvalues in [0.2, 3]."""

    name = "prox_catalog_n30"
    root = "perfbench"
    known_faults = frozenset()
    n = 30
    inputs_per_round = 4

    def __init__(self):
        self.rows = catalog_rows()
        self.tracer = None

    def setup(self, sp, work, seed, gen):
        rng = np.random.default_rng(seed)
        n = self.n
        self.sp = sp
        self.inputs = []
        for _ in range(self.inputs_per_round):
            g = rng.standard_normal((n, n))
            cbar = (g + g.T) * (2.5 / (2.0 * np.sqrt(2.0 * n)))
            g = rng.standard_normal((n, n))
            t = (g + g.T) * (0.1 / (2.0 * np.sqrt(2.0 * n)))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            anchor = (q * rng.uniform(0.2, 3.0, n)) @ q.T
            anchor = 0.5 * (anchor + anchor.T)
            self.inputs.append((cbar, t, anchor))
        self.calls = [gen(self._build, cbar, t, anchor) for cbar, t, anchor in self.inputs]

    def _build(self, cbar, t, anchor):
        """Bind each row to symprox objects: (span name, callable)."""
        sp = self.sp
        cbar_s, t_s, anchor_s = (sp.SymMatrix(m, strict=False) for m in (cbar, t, anchor))
        calls = []
        for row in self.rows:
            div = (
                sp.Divergence.noisy_burg(row["sigma2"]) if row["div"] == "noisy_burg"
                else sp.Divergence(row["div"])
            )
            pen = sp.Penalty(row["pen"][0], **row["pen"][1])
            if row["kind"] == "kernel":
                req = sp.SpectralProxRequest(
                    kernel=sp.ScalarKernel(div, pen), gamma=row["gamma"], t=t_s, c_bar=cbar_s
                )
                calls.append((row["span"], partial(sp.prox_spectral, req)))
            else:
                calls.append((row["span"], partial(sp.bregman_prox, div, pen, anchor_s)))
        return calls

    def _pass(self, calls):
        tr = self.tracer
        outs = []
        for span, call in calls:
            if tr is None:
                outs.append(call().mat)
            else:
                i = tr.open(span)
                outs.append(call().mat)
                tr.close(i)
        return outs

    def round(self):
        return [(k, partial(self._pass, calls)) for k, calls in enumerate(self.calls)]

    def fingerprint(self, key, outs):
        return _digest(*outs)

    def certify(self, key, outs):
        cbar, t, anchor = self.inputs[key]
        for row, x in zip(self.rows, outs):
            center = cbar + row["gamma"] * t if row["kind"] == "kernel" else anchor
            ok, detail = cert.prox_row_check(row, x, center)
            if not ok:
                return False, f"{row['span']}: {detail}"
        return True, f"{len(outs)} rows"


WORKLOADS = {w.name: w for w in (MMN100, GlassoN300, CovN100, ProxCatalogN30)}
