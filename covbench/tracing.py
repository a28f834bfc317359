"""In-memory spans and call counts around covglm's public functions.

The benchmark installs wrappers on module attributes the program calls
through, runs the traced operations, and removes the wrappers again; the
program itself is never edited. Spans stay in memory until ``write``.
"""

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

# Layer name -> (module, attribute path) the program looks the function up
# through at call time, so replacing the attribute sees every call.
TARGETS = {
    "model.bind": [("covglm.estimator", "bind")],
    "model.grouping_matrix": [("covglm.model", "grouping_matrix")],
    "covariance.build": [("covglm.covariance", "CovarianceModel.build")],
    "covariance.build_joint_c": [("covglm.covariance", "build_joint_c")],
    "covariance.derivatives": [("covglm.covariance", "CovarianceModel.derivatives")],
    "estimator.cross_blocks": [("covglm.estimator", "cross_blocks")],
    "kernels.pair_traces": [("covglm._kernels", "pair_traces")],
    "wald.wald_statistic": [
        ("covglm.tables", "wald_statistic"),
        ("covglm.multcomp", "wald_statistic"),
        ("covglm.wald", "wald_statistic"),
    ],
    "chisq.chisq_sf": [
        ("covglm.tables", "chisq_sf"),
        ("covglm.multcomp", "chisq_sf"),
        ("covglm.wald", "chisq_sf"),
    ],
}


def _resolve(module_name, path):
    """(owner, attribute, current value), or None when any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Spans as [name, start, end, parent index, op label], plus counts.

    ``op`` labels the operation (one fit, one analysis pass) the next spans
    belong to; counts are kept per (op, name).
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.op = None
        self.spans = []
        self.calls = Counter()
        self.missing = set()
        self._open = []
        self._installed = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self):
        for name, sites in TARGETS.items():
            for module_name, path in sites:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.add(name)
                    continue
                owner, attr, original = found
                setattr(owner, attr, self._wrap(name, original))
                self._installed.append((owner, attr, original))

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _wrap(self, name, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.calls[(self.op, name)] += 1
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    def totals(self):
        """Inclusive seconds per (op, span name)."""
        out = Counter()
        for name, start, end, _, op in self.spans:
            out[(op, name)] += end - start
        return out

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path):
        """Write every span as one JSON line, once, at the end of a run."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "op": op,
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                handle.write(json.dumps(record) + "\n")


def maybe_span(tracer, name):
    """A span on ``tracer``, or nothing when the operation is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)
