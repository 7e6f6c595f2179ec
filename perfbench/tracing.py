"""Spans recorded around calls into matmine's public functions.

Every hook replaces one attribute on the object its caller looks it up on
(a module global, a class method) with a wrapper that records a span: name,
start, end, parent span and a few counts taken from the call's arguments or
result.  The program itself is not modified; the wrappers are removed again
after each measured unit.  Spans stay in memory until the run ends.

Two hook levels exist.  Coarse hooks sit on calls made a handful of times per
unit (training, macro solve, oracle path) and supply the work and failure
counts every run needs, so they are installed in untraced runs too.  Fine
hooks sit on the inner layers and are installed only in traced units.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg

from matmine import data, fem, homogenization, macro, materials, mining
from matmine import surrogate, tensors, training

# spans whose children should be attributed to the solver that issued them
_SOLVER_SPANS = {"macro.solve_macro": "macro", "homogenization.solve": "homogenization"}


class Span:
    __slots__ = ("id", "name", "parent", "phase", "start", "end", "info")

    def __init__(self, span_id, name, parent, phase):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.info = {}

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "phase": self.phase, "start": self.start, "end": self.end,
                "info": self.info}


class Tracer:
    """Span store plus the attribute patches that feed it.

    Create it on the main thread.  Spans opened on a worker thread with no
    open span of its own take the innermost open main-thread span as parent,
    which is the call that started the worker pool.
    """

    def __init__(self):
        self.spans = []
        self.phase = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_solver(self):
        """Prefix of the innermost open solver span on this thread, if any."""
        for span in reversed(self._stack()):
            if span.name in _SOLVER_SPANS:
                return _SOLVER_SPANS[span.name]
        return None

    def call(self, name, fn, args, kwargs, info):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, parent.id if parent else None,
                    self.phase)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.info["failed"] = 1
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if info is not None:
            span.info.update(info(args, result))
        return result

    def patch(self, owner, attr, name, info=None):
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` is a span name or a callable taking the tracer and returning
        one at call time; ``info(args, result)`` returns counts to attach.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(tracer) if callable(name) else name
            return tracer.call(span_name, original, args, kwargs, info)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, fine):
        """Patch the coarse hooks, and the fine ones too when ``fine``."""
        for owner, attr, name, info, coarse in HOOKS:
            if coarse or fine:
                self.patch(owner, attr, name, info)

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def in_phases(self, phases):
        phases = set(phases)
        return [s for s in self.spans if s.phase in phases]


def _spsolve_name(tracer):
    solver = tracer.open_solver()
    return f"{solver}.spsolve" if solver else "spsolve"


def _solve_macro_info(args, state):
    mesh = args[0]
    n_qp = 8 * mesh.n_elements
    return {"dof": 3 * mesh.n_nodes, "qp_states": n_qp * (len(state.steps) - 1)}


def _train_info(args, result):
    restarts = result[1].restarts
    return {"restarts": len(restarts),
            "feasible": sum(bool(r["feasible"]) for r in restarts),
            "lbfgs_iters": sum(int(r["n_iterations"]) for r in restarts)}


def _points(C):
    return int(np.prod(np.shape(C)[:-2]))


# (owner, attribute, span name, info callable, coarse)
HOOKS = [
    (training, "train", "training.train", _train_info, True),
    (macro, "solve_macro", "macro.solve_macro", _solve_macro_info, True),
    # enrich prepends the undeformed state to every series it evaluates
    (mining.AnalyticOracle, "evaluate_path", "oracle.evaluate_path",
     lambda a, r: {"states": len(a[1]) - 1}, True),
    (mining.VoxelOracle, "evaluate_path", "oracle.evaluate_path",
     lambda a, r: {"states": len(a[1]) - 1}, True),
    (training, "stress_loss", "training.stress_loss", None, False),
    (fem, "tangent_matrix", "fem.tangent_matrix",
     lambda a, r: {"qp": int(a[0].shape[0] * a[0].shape[1])}, False),
    (fem, "nominal_stress_operator", "fem.nominal_stress_operator", None, False),
    (fem, "internal_forces", "fem.internal_forces", None, False),
    (surrogate, "model_stress", "surrogate.model_stress",
     lambda a, r: {"points": _points(a[1])}, False),
    (surrogate, "model_tangent", "surrogate.model_tangent", None, False),
    (tensors, "invariant_hessians", "tensors.invariant_hessians", None, False),
    (scipy.sparse.linalg, "spsolve", _spsolve_name, None, False),
    (mining, "detect_new_paths", "mining.detect_new_paths",
     lambda a, r: {"paths": len(a[1]), "hits": len(r)}, False),
    (mining, "distinct_mask", "mining.distinct_mask", None, False),
    (mining, "filter_candidates", "mining.filter_candidates",
     lambda a, r: {"candidates": len(np.atleast_2d(a[0])), "admitted": len(r)},
     False),
    (mining, "enrich", "mining.enrich", None, False),
    (mining, "write_artifacts", "mining.write_artifacts", None, False),
    (homogenization.VoxelHomogenizer, "solve", "homogenization.solve",
     lambda a, r: {"iterations": int(r.iterations), "dof": 3 * a[0].n_nodes},
     False),
    (homogenization, "drive_material_point",
     "homogenization.drive_material_point", None, False),
    (materials, "stress_tangent_fd", "materials.stress_tangent_fd", None, False),
    (data, "load_kbase", "data.load_kbase", None, False),
    (data, "save_kbase", "data.save_kbase",
     lambda a, r: {"bytes": os.path.getsize(a[1])}, False),
]


class Totals:
    """Sums over a set of spans, by span name."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            self.children[span.parent].append(span)

    def calls(self, name):
        return len(self.by_name[name])

    def seconds(self, name):
        return sum(s.end - s.start for s in self.by_name[name])

    def info(self, name, key):
        return sum(s.info.get(key, 0) for s in self.by_name[name])

    def info_max(self, name, key):
        return max((s.info.get(key, 0) for s in self.by_name[name]), default=0)

    def self_seconds(self, name):
        """Duration minus the part of it that child spans cover."""
        total = 0.0
        for span in self.by_name[name]:
            covered, reach = 0.0, span.start
            for child in sorted(self.children[span.id], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span.end - span.start - covered
        return total
