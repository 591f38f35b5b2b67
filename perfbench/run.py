#!/usr/bin/env python3
"""Benchmark of the symprox solvers: one workload per process.

    python3 perfbench/run.py --workload mm_n100 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; symprox is imported from ./src.
The run sets up the workload's inputs several times (set-up time is the
median), then runs whole rounds of the workload's operations, one after
another in this process, until the operations have taken --seconds.
Every operation's output is checked by a certificate outside the timed
region.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 the first half of the time is
measured untraced and the second half traced, and the JSON object holds
the per-layer metrics.  See perfbench/README.md.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, set before numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 15

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, span names or counters it reads, value from the summary).
# Times and counts are per operation of the traced half of the run.
PER_LAYER = (
    ("scalarprox.prox_s", "s", ("scalarprox.prox",), lambda t: t.self_s["scalarprox.prox"] / t.ops),
    ("scalarprox.prox_calls", "count", ("scalarprox.prox",), lambda t: t.calls["scalarprox.prox"] / t.ops),
    ("scalarprox.root_calls", "count", ("root_solver",), lambda t: t.counts["root_calls"] / t.ops),
    ("scalarprox.root_evals_per_call", "count", ("root_solver",),
     lambda t: _ratio(t.counts["root_evals"], t.counts["root_calls"])),
    ("scalarprox.soft_s", "s", ("scalarprox.soft",), lambda t: t.self_s["scalarprox.soft"] / t.ops),
    ("symlin.eigh_s", "s", ("symlin.eigh",), lambda t: t.self_s["symlin.eigh"] / t.ops),
    ("symlin.eigh_calls", "count", ("symlin.eigh",), lambda t: t.calls["symlin.eigh"] / t.ops),
    ("symlin.recompose_s", "s", ("symlin.recompose",), lambda t: t.self_s["symlin.recompose"] / t.ops),
    ("symlin.csv_write_s", "s", ("symlin.csv_write",), lambda t: t.self_s["symlin.csv_write"] / t.ops),
    ("splitting.dr_iters", "count", ("splitting", "symlin.eigh"),
     lambda t: t.edges[("splitting", "symlin.eigh")] / t.ops),
    ("splitting.iter_ms", "ms", ("splitting", "symlin.eigh"),
     lambda t: 1e3 * _ratio(t.incl_s["splitting"], t.edges[("splitting", "symlin.eigh")])),
    ("splitting.self_s", "s", ("splitting",), lambda t: t.self_s["splitting"] / t.ops),
    ("mm_glasso.outer_steps", "count", ("splitting",),
     lambda t: t.edges[("mm_glasso", "splitting")] / t.ops),
    ("mm_glasso.grad_s", "s", ("mm_glasso.grad",), lambda t: t.self_s["mm_glasso.grad"] / t.ops),
    ("mm_glasso.objective_s", "s", ("mm_glasso.objective",),
     lambda t: t.self_s["mm_glasso.objective"] / t.ops),
    ("mm_glasso.self_s", "s", (), lambda t: t.self_s["mm_glasso"] / t.ops),
    ("cli.self_s", "s", (), lambda t: t.self_s["cli"] / t.ops),
    ("experiments.read_s", "s", ("experiments.read",), lambda t: t.self_s["experiments.read"] / t.ops),
    ("experiments.metrics_s", "s", ("experiments.metrics",),
     lambda t: t.self_s["experiments.metrics"] / t.ops),
    ("experiments.gen_s", "s", (), lambda t: t.gen_s),
    ("spectralprox.self_s", "s", (),
     lambda t: sum(v for k, v in t.self_s.items() if k.startswith("spectralprox.")) / t.ops),
    ("perfbench.self_s", "s", (), lambda t: t.self_s["perfbench"] / t.ops),
    ("trace.op_s", "s", (), lambda t: t.op_s),
    ("trace.solve_s", "s", (), lambda t: t.solve_s),
    ("trace.overhead_s", "s", (), lambda t: t.solve_s - t.untraced_solve_s),
)


def _row_metrics():
    from workloads import catalog_rows

    return tuple(
        (row["span"] + "_ms", "ms", (), (lambda span: lambda t: t.row_ms(span))(row["span"]))
        for row in catalog_rows()
    )


PER_LAYER = PER_LAYER + _row_metrics()


def fresh_symprox():
    """Import symprox from ./src anew, so each set-up repetition pays the
    import as a user's process does."""
    for name in [m for m in sys.modules if m == "symprox" or m.startswith("symprox.")]:
        del sys.modules[name]
    sp = importlib.import_module("symprox")
    if os.path.dirname(os.path.abspath(sp.__file__)) != os.path.join(SRC, "symprox"):
        raise ImportError(f"symprox was imported from {sp.__file__}, not from {SRC}")
    return sp


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def set_up(wl, seed, work):
    """Set the workload up SETUP_REPS times; returns (median set-up seconds,
    median seconds of it spent generating inputs)."""
    totals, gens = [], []
    for _ in range(SETUP_REPS):
        gen_s = [0.0]

        def gen(fn, *args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                gen_s[0] += time.perf_counter() - t

        gc.collect()
        t0 = time.perf_counter()
        sp = fresh_symprox()
        wl.setup(sp, work, seed, gen)
        totals.append(time.perf_counter() - t0)
        gens.append(gen_s[0])
    return statistics.median(totals), statistics.median(gens)


def measure(wl, rng, budget, verdicts, tracer=None):
    """Whole rounds until the operations have taken `budget` seconds.
    Returns one record per operation: (key, seconds, ok, detail)."""
    records = []
    spent = 0.0
    while spent < budget:
        ops = wl.round()
        rng.shuffle(ops)
        gc.collect()
        for key, op in ops:
            root = tracer.open(wl.root) if tracer else None
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # the operation failed; counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
            spent += dt
            if isinstance(out, Exception):
                ok, detail = False, f"{type(out).__name__}: {out}"
            else:
                fp = (key, wl.fingerprint(key, out))
                if fp not in verdicts:
                    verdicts[fp] = wl.certify(key, out)
                ok, detail = verdicts[fp]
            records.append((key, dt, ok, detail))
    return records


def median_time(records):
    """Median seconds per operation; a failed one counts as slower than
    every success."""
    return statistics.median(dt if ok else float("inf") for _, dt, ok, _ in records)


class TraceSummary:
    def __init__(self, tracer, records, gen_s, untraced_solve_s):
        self.self_s, self.incl_s, self.calls, self.edges = tracer.summary()
        self.counts = tracer.counts
        self.ops = len(records)
        self.op_s = sum(dt for _, dt, _, _ in records) / self.ops
        self.solve_s = median_time(records)
        self.untraced_solve_s = untraced_solve_s
        self.gen_s = gen_s
        self._tracer = tracer

    def row_ms(self, span):
        d = self._tracer.durations(span)
        return 1e3 * statistics.median(d) if d else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "symprox")):
        print(f"error: no symprox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work):
    wl = WORKLOADS[args.workload]()
    env = environment()
    setup_s, gen_s = set_up(wl, args.seed, work)
    rng = random.Random(args.seed)
    verdicts = {}
    if not args.trace:
        records = measure(wl, rng, args.seconds, verdicts)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_records = records
        values = {"setup_s": setup_s, "solve_s": median_time(records), "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        missing = []
    else:
        untraced = measure(wl, rng, args.seconds / 2.0, verdicts)
        tracer = Tracer()
        restore = tracer.install()
        wl.tracer = tracer
        try:
            traced = measure(wl, rng, args.seconds / 2.0, verdicts, tracer)
        finally:
            wl.tracer = None
            restore()
        all_records = untraced + traced
        summary = TraceSummary(tracer, traced, gen_s, median_time(untraced))
        units, values, missing = {}, {}, []
        for name, unit, needs, fn in PER_LAYER:
            if any(n in tracer.missing for n in needs):
                missing.append(name)
                continue
            units[name] = unit
            values[name] = fn(summary)
        self_total = sum(summary.self_s.values()) / summary.ops
        print(f"trace: {len(tracer.names)} spans; self times sum to {self_total:.6f} s "
              f"of {summary.op_s:.6f} s per operation")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))

    failed = [r for r in all_records if not r[2]]
    unexpected = [r for r in failed if r[0] not in wl.known_faults]
    for key, _, _, detail in failed:
        tag = "known fault" if key in wl.known_faults else "FAILED"
        print(f"{tag}: {args.workload} op {key}: {detail}", file=sys.stderr)
    correct = not unexpected and all(np.isfinite(v) for v in values.values())
    if missing:
        print("missing per-layer metrics (wrapped name not found): " + ", ".join(missing))
    result = {
        "correct": bool(correct),
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {
            k: {"value": float(v) if np.isfinite(v) else None, "unit": units[k]}
            for k, v in values.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_reps": SETUP_REPS,
        "operations": [
            {"key": k, "seconds": dt, "ok": ok, "detail": d} for k, dt, ok, d in all_records
        ],
        "result": result,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
