"""Spans and counters around gaussbell's public functions.

The tracer wraps functions from outside the package: for each target it
rebinds the name in every loaded ``gaussbell`` module that holds the
original object (``from .bellman import bq_batch`` copies the name into
``verify``), so calls made inside the library go through the wrapper too.
Functions with a ``self_s`` metric get a span; the rest only count, so
their time stays in the caller's self time.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation that caused it.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = None
        self.weights_seen: set = set()
        self._fit = {}            # fd_hessian_batch span -> in_domain rows
        self._weight_depth = 0
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            rec = [label, time.perf_counter(), None, parent, self.op]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                rec[2] = time.perf_counter()
            if after is not None:
                after(idx, args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, before):
        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in [m for n, m in sys.modules.items()
                    if n == "gaussbell" or n.startswith("gaussbell.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _rebind_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    # -- per-target bookkeeping -------------------------------------------

    def _bq_done(self, idx, args, out):
        self.counts["bellman.bq_batch.rows"] += len(args[0])

    def _aux_raw(self, args):
        self.counts["bellman.aux_raw.calls"] += 1

    def _in_domain(self, args):
        self.counts["verify.in_domain_batch.rows"] += len(args[0])
        if self.stack and self.spans[self.stack[-1]][0] == "verify.fd_hessian_batch":
            self._fit.setdefault(self.stack[-1], []).append(len(args[0]))

    def _fd_done(self, idx, args, out):
        rows = self._fit.pop(idx, [])
        n = len(args[0])
        if rows and n:
            # the first domain test covers every row's full stencil
            per_row = rows[0] / n
            self.counts["fd.rows_tested"] += sum(rows) / per_row
            self.counts["fd.rows_fitted"] += int(np.count_nonzero(out[2]))

    def _q2_name(self, args):
        self.counts["q2.calls"] += 1
        self.weights_seen.add(args[0].to_string())
        return f"gauss.q2_characteristic.{args[0].kind}"

    def _hermite_done(self, idx, args, out):
        self.counts["gauss.hermite_design.calls"] += 1
        self.counts["gauss.hermite_design.points"] += int(np.size(args[1]))

    def _dumps_done(self, idx, args, out):
        self.counts["report.bytes"] += len(out)

    def _weight_call(self, fn):
        tracer = self

        def wrapper(self_, x):
            if tracer._weight_depth == 0:
                tracer.counts["gauss.weight_points"] += int(np.size(x))
            tracer._weight_depth += 1
            try:
                return fn(self_, x)
            finally:
                tracer._weight_depth -= 1
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer boundaries; the package must already be imported."""
        from gaussbell import bellman, cli, estimates, gauss, report, verify

        spans = [
            (bellman, "bq_batch", self._bq_done),
            (bellman, "pi_distance_batch", None),
            (verify, "fd_hessian_batch", self._fd_done),
            (verify, "hessian_margins", None),
            (verify, "sign_forward_diff_batch", None),
            (verify, "run_aux_grid", None),
            (verify, "sample_columns", None),
            (gauss, "laguerre_rule", None),
            (gauss, "flow_inequality_suite", None),
            (gauss, "discrete_poisson_kernel", None),
            (gauss, "poisson_step_quadrature", None),
            (gauss, "hermite_design", self._hermite_done),
            (estimates, "weighted_riesz_norm", None),
            (estimates, "bilinear_lhs", None),
            (estimates, "representation_check", None),
            (cli, "run", None),
        ]
        for module, attr, after in spans:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self._rebind(module, attr,
                         lambda fn, name=name, after=after: self._span(name, fn, after))
        self._rebind(gauss, "q2_characteristic",
                     lambda fn: self._span(self._q2_name, fn))
        self._rebind(bellman, "aux_raw",
                     lambda fn: self._counter(fn, self._aux_raw))
        self._rebind(verify, "in_domain_batch",
                     lambda fn: self._counter(fn, self._in_domain))
        self._rebind_method(report.VerificationReport, "dumps",
                            lambda fn: self._span("report.dumps", fn, self._dumps_done))
        self._rebind_method(gauss.WeightSpec, "__call__", self._weight_call)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self seconds per span name (duration minus direct children)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
