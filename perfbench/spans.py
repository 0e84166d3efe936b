"""Span tracing around doublemarkov's public functions, from outside the package.

Each wrapped call records one span (name, start, end, parent) in flat
in-memory arrays; nothing is written until ``save``.  A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans of one op add up to the op's root span exactly.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli"

# (module, function) wrapped as span "<module>.<function>".
SPANS = (
    ("graphs", "separates"),
    ("graphs", "all_paths"),
    ("graphs", "parse_pair_file"),
    ("ci", "relation_of_graph"),
    ("ci", "check_axioms"),
    ("ci", "canonical_form"),
    ("ci", "closure"),
    ("ci", "parse_relation"),
    ("matrices", "relation_of_matrix"),
    ("matrices", "det"),
    ("matrices", "inverse"),
    ("matrices", "is_pd"),
    ("matrices", "parse_matrix"),
    ("geometry", "find_model_point"),
    ("geometry", "stacked_jacobian"),
    ("geometry", "is_transverse_at"),
    ("geometry", "connectedness_certificate"),
    ("ideal", "unique_path_hypothesis"),
    ("ideal", "sci_monomial_generators"),
    ("classify", "classify_small_intersection"),
    ("classify", "enumerate_inequivalent"),
)

# relation_of_matrix runs two different algorithms; its spans say which.
SPLIT = {"matrices.relation_of_matrix": ("float", "exact")}

# Span counts reported as "<span>.calls".
CALL_COUNTS = ("graphs.separates", "ci.canonical_form", "matrices.det",
               "matrices.inverse", "matrices.is_pd")


def span_names():
    names = [ROOT]
    for mod, fn in SPANS:
        base = f"{mod}.{fn}"
        names += [f"{base}.{kind}" for kind in SPLIT[base]] if base in SPLIT else [base]
    return names


def self_metric(span: str) -> str:
    base, _, kind = span.rpartition(".")
    if base in SPLIT:
        return f"{base}.{kind}_self_ms"
    return f"{span}.self_ms"


def _is_exact(args, kw):
    a = args[0] if args else kw["a"]
    return np.asarray(a).dtype == object


def _after_hooks():
    """Counters read off a wrapped call's arguments and result."""
    def violations(c, args, kw, res):
        c["ci.check_axioms.violations"] += len(res)

    def added(c, args, kw, res):
        c["ci.closure.added"] += len(res) - len(args[0])

    def paths(c, args, kw, res):
        c["graphs.all_paths.paths"] += len(res)

    def point(c, args, kw, res):
        c["geometry.find_model_point.iterations"] += res.iterations
        c["geometry.find_model_point.restarts"] += res.restarts_used
        c["geometry.find_model_point.converged"] += bool(res.converged)

    return {"ci.check_axioms": violations, "ci.closure": added,
            "graphs.all_paths": paths, "geometry.find_model_point": point}


class Tracer:
    """Owns the span arrays and the patched module attributes."""

    def __init__(self):
        self.names = span_names()
        self._id = {name: t for t, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self._stack = [-1]
        self._undo = []

    def _open(self, nid):
        idx = len(self.parent)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def op(self, fn, *args):
        """Run one op under the root span."""
        idx = self._open(self._id[ROOT])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter())

    def _wrap(self, base, fn, after):
        if base in SPLIT:
            float_id, exact_id = (self._id[f"{base}.{k}"] for k in SPLIT[base])

            def pick(args, kw):
                return exact_id if _is_exact(args, kw) else float_id
        else:
            nid = self._id[base]

            def pick(args, kw):
                return nid
        counters = self.counters

        def wrapped(*args, **kw):
            idx = self._open(pick(args, kw))
            t0 = perf_counter()
            try:
                res = fn(*args, **kw)
            finally:
                self._close(idx, t0, perf_counter())
            if after is not None:
                after(counters, args, kw, res)
            return res

        return wrapped

    def install(self, package):
        """Replace every reference to a traced function in the package's modules."""
        modules = [package] + [getattr(package, m) for m in
                               ("graphs", "ci", "matrices", "geometry", "ideal",
                                "classify", "cli")]
        hooks = _after_hooks()
        for mod, fn_name in SPANS:
            base = f"{mod}.{fn_name}"
            orig = getattr(getattr(package, mod), fn_name)
            wrapped = self._wrap(base, orig, hooks.get(base))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_layer(self, ops: int) -> dict:
        """Per-op self times and counts, plus the traced op time they add up to."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_s = np.bincount(a["name_id"], weights=dur - child_sum,
                             minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        out = {self_metric(name): 1e3 * float(self_s[t]) / ops
               for t, name in enumerate(self.names)}
        out["trace.op_ms"] = 1e3 * float(dur[~child].sum()) / ops
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = float(calls[self._id[name]]) / ops
        c = self.counters
        closures = int(calls[self._id["ci.closure"]])
        points = int(calls[self._id["geometry.find_model_point"]])
        out["ci.check_axioms.violations"] = c["ci.check_axioms.violations"] / ops
        out["ci.closure.added"] = c["ci.closure.added"] / closures if closures else 0.0
        out["graphs.all_paths.paths"] = c["graphs.all_paths.paths"] / ops
        for key in ("iterations", "restarts"):
            total = c[f"geometry.find_model_point.{key}"]
            out[f"geometry.find_model_point.{key}"] = total / points if points else 0.0
        converged = c["geometry.find_model_point.converged"]
        out["geometry.find_model_point.converged_ratio"] = (
            converged / points if points else 0.0)
        return out
