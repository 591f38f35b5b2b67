"""Span recording around the calls one symprox module makes into another.

Nothing under src/ is changed: install() replaces, at run time, the names
a module looked up from another module (or its own entry points that a
caller enters) with wrappers that open and close a span.  Spans are kept
in memory as (name, start, end, parent) and written out at the end.  A
layer's self time is its spans' duration minus the part covered by their
child spans, so the self times of all layers add up to the root spans.
"""

import importlib
import time
from collections import Counter, defaultdict
from functools import partial

# (module, name looked up there, span name).  The span name is the layer
# the call enters; write_trace_csv counts with the matrix CSV writes.
SPANS = (
    ("symprox.splitting", "_eigh_desc", "symlin.eigh"),
    ("symprox.splitting", "kernel_prox_vec", "scalarprox.prox"),
    ("symprox.splitting", "_recompose_raw", "symlin.recompose"),
    ("symprox.splitting", "soft", "scalarprox.soft"),
    ("symprox.spectralprox", "_eigh_desc", "symlin.eigh"),
    ("symprox.spectralprox", "kernel_prox_vec", "scalarprox.prox"),
    ("symprox.spectralprox", "_recompose_raw", "symlin.recompose"),
    ("symprox.mm_glasso", "dr_solve", "splitting"),
    ("symprox.mm_glasso", "grad_trace_term", "mm_glasso.grad"),
    ("symprox.mm_glasso", "objective_F", "mm_glasso.objective"),
    ("symprox.cli", "dr_solve", "splitting"),
    ("symprox.cli", "read_dataset", "experiments.read"),
    ("symprox.cli", "empirical_cov", "experiments.read"),
    ("symprox.cli", "metrics", "experiments.metrics"),
    ("symprox.cli", "clipped_raw_estimator", "experiments.metrics"),
    ("symprox.cli", "write_matrix_csv", "symlin.csv_write"),
    ("symprox.cli", "write_trace_csv", "symlin.csv_write"),
)
# The vector root solver: the function it is handed is wrapped to count
# f-evaluations.  No span, so its time stays in scalarprox.prox.
ROOT_SOLVERS = (
    ("symprox.scalarprox", "_newton_bisect_vec"),
    ("symprox.spectralprox", "_newton_bisect_vec"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counts = Counter()
        self.missing = set()  # span names or counters whose target is gone

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        wrapped.__wrapped__ = fn
        return wrapped

    def root_counter(self, fn):
        counts = self.counts

        def wrapped(f, *args, **kwargs):
            counts["root_calls"] += 1

            def counted(x):
                counts["root_evals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        """Wrap every target that exists; record the ones that do not.
        Returns a function that restores the originals."""
        undo = []
        targets = [(m, a, n, partial(self.span, n)) for m, a, n in SPANS]
        targets += [(m, a, "root_solver", self.root_counter) for m, a in ROOT_SOLVERS]
        for mod_name, attr, name, wrap in targets:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.add(name)
                continue
            setattr(mod, attr, wrap(fn))
            undo.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

        return restore

    def summary(self):
        """Self seconds, inclusive seconds and call counts per span name, and
        call counts per (parent name, name)."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        child_time = defaultdict(float)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
        self_s, incl_s, calls, edges = Counter(), Counter(), Counter(), Counter()
        for i, (name, p) in enumerate(zip(names, parent)):
            dur = end[i] - start[i]
            self_s[name] += dur - child_time[i]
            incl_s[name] += dur
            calls[name] += 1
            edges[(names[p] if p >= 0 else None, name)] += 1
        return self_s, incl_s, calls, edges

    def durations(self, name):
        return [e - s for n, s, e in zip(self.names, self.start, self.end) if n == name]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent):
                fh.write(f"{n},{s - t0:.9f},{e - t0:.9f},{p}\n")
