"""Spans around rwsparse's public functions, for the traced run only.

A wrapper is bound where a function is imported and called:
``rwsparse.reweight``, ``rwsparse.bench`` and ``rwsparse.duality`` import
the solver and dual functions by name, and ``rwsparse.solvers`` calls its
own solvers through its module globals. Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

BP = "solvers.weighted_basis_pursuit"
FISTA = "solvers.weighted_lasso_fista"
CONSTRAINED = "solvers.constrained_weighted_l1"
MIN_L2 = "solvers.min_l2_solution"
RUN = "reweight.run_algorithm"
DUALITY = "duality"
GEN = "probgen.gen"
BENCH = "bench"

_DUALITY_NAMES = (
    "lambda_subgradient",
    "polyak_step_lasso",
    "polyak_step_nonoracle",
    "polyak_step_oracle",
    "project_nonneg",
    "subgradient_nonoracle",
    "subgradient_oracle",
)

# (module, attribute, span name)
MODULE_BINDINGS = tuple(
    [
        ("rwsparse.solvers", "weighted_basis_pursuit", BP),
        ("rwsparse.solvers", "weighted_lasso_fista", FISTA),
        ("rwsparse.solvers", "min_l2_solution", MIN_L2),
        ("rwsparse.reweight", "weighted_basis_pursuit", BP),
        ("rwsparse.reweight", "weighted_lasso_fista", FISTA),
        ("rwsparse.reweight", "constrained_weighted_l1", CONSTRAINED),
        ("rwsparse.reweight", "min_l2_solution", MIN_L2),
        ("rwsparse.duality", "weighted_basis_pursuit", BP),
        ("rwsparse.bench", "run_algorithm", RUN),
        ("rwsparse.bench", "constrained_weighted_l1", CONSTRAINED),
        ("rwsparse.bench", "gen_noiseless", GEN),
        ("rwsparse.bench", "gen_noisy", GEN),
    ]
    + [("rwsparse.reweight", name, DUALITY) for name in _DUALITY_NAMES]
)
# the benchmark's own calls into the harness
ROOT_BINDINGS = (
    ("rwsparse.bench", "run_recovery_sweep", BENCH),
    ("rwsparse.bench", "run_noisy_improvement", BENCH),
)
_REPORTS = (BP, FISTA)  # solvers whose report carries iterations and convergence
_INNER_SOLVES = (BP, FISTA, CONSTRAINED)

_NAME, _PARENT, _START, _END, _ITERS, _UNCONVERGED = range(6)


class Tracer:
    """In-memory spans: [name, parent index, start, end, iterations,
    unconverged]. Parent -1 marks a root span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        has_report = name in _REPORTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if has_report:
                span[_ITERS] = out.iterations
                span[_UNCONVERGED] = not out.converged
            return out

        return traced

    @contextlib.contextmanager
    def bound(self, bindings):
        """Bind a wrapper to each (module, attribute, span name) for the
        duration of the block, then restore the original functions."""
        saved = []
        try:
            for module_name, attr, span_name in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self, trials, child_cpu_s):
        """Per-module metrics, normalised per trial where they are totals."""
        self_s = self.self_times()
        calls, busy, iters, unconverged = {}, {}, {}, {}
        lasso_in_constrained = inner_in_runs = 0
        for span, own in zip(self.spans, self_s):
            name = span[_NAME]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + own
            iters[name] = iters.get(name, 0) + span[_ITERS]
            unconverged[name] = unconverged.get(name, 0) + span[_UNCONVERGED]
            parent = self.spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else None
            lasso_in_constrained += name == FISTA and parent == CONSTRAINED
            inner_in_runs += name in _INNER_SOLVES and parent == RUN

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name in (BP, FISTA):
            m[f"{name}.calls"] = calls.get(name, 0) / trials
            m[f"{name}.self_s"] = busy.get(name, 0.0) / trials
            m[f"{name}.iters"] = iters.get(name, 0) / trials
            m[f"{name}.us_per_iter"] = 1e6 * ratio(busy.get(name, 0.0), iters.get(name, 0))
            m[f"{name}.unconverged"] = unconverged.get(name, 0) / trials
        m[f"{CONSTRAINED}.calls"] = calls.get(CONSTRAINED, 0) / trials
        m[f"{CONSTRAINED}.self_s"] = busy.get(CONSTRAINED, 0.0) / trials
        m[f"{CONSTRAINED}.lasso_per_call"] = ratio(lasso_in_constrained, calls.get(CONSTRAINED, 0))
        for name in (MIN_L2, RUN, DUALITY, GEN):
            m[f"{name}.calls"] = calls.get(name, 0) / trials
            m[f"{name}.self_s"] = busy.get(name, 0.0) / trials
        m["reweight.inner_solves_per_run"] = ratio(inner_in_runs, calls.get(RUN, 0))
        m["bench.self_s"] = busy.get(BENCH, 0.0) / trials
        m["bench.pool.child_cpu_s"] = child_cpu_s / trials
        return m

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s[_NAME],
                            "parent": s[_PARENT],
                            "start_s": s[_START] - t0,
                            "end_s": s[_END] - t0,
                            "iters": s[_ITERS],
                            "unconverged": s[_UNCONVERGED],
                        }
                    )
                    + "\n"
                )
