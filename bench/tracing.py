"""Boundary tracing for the benchmark's traced runs.

The tracer measures arknit from outside: it wraps every function that one
arknit module imports from another, plus the boundaries that a per-layer
metric names, and rebinds each wrapped name in every ``arknit.*`` module and
in the package namespace.  Rebinding only the defining module is not enough:
``from .linalg import rref`` copies the function into the importing module.

A wrapper records a span (boundary, parent span, start, end) only while an
op is being traced, so untraced code and the benchmark's output checks pay a
single ``None`` test per call.  Self time is a span's duration minus the
durations of its direct children; inclusive time counts only the outermost
span of a boundary, so recursion is not counted twice.
"""

from __future__ import annotations

import ast
import functools
import importlib
import statistics
import sys
import time
import types
from pathlib import Path

# Boundaries that a per-layer metric names.  They are wrapped even where no
# other module imports them (``rref`` and ``end_profile`` are module-local).
NAMED = (
    "linalg.rref",
    "rep.end_profile",
    "rep.classify_membership",
    "hom.end_algebra",
    "hom.decompose_report",
    "hom._iso_indec",
    "hom.hom_space",
    "ext.ext_space",
    "presentations.min_proj_presentation",
    "presentations.min_inj_copresentation",
    "ar.almost_split_sequence",
    "ar.tau",
    "ar.tau_inv",
    "io.parse_rep",
    "io.emit_quiver",
    "io.emit_rep",
    "io.snapshot_rep",
    "io.component_json",
    "io.component_dot",
)
# Static methods named by a metric: (module, class, method).
NAMED_METHODS = (("quiver", "VertexSet", "make"),)

# Outermost spans of these together make ``io.emit_s``.
EMIT = ("io.emit_quiver", "io.emit_rep", "io.snapshot_rep",
        "io.component_json", "io.component_dot")
EMIT_GROUP = "io.emit"

# Repeats are counted per op: a matrix repeats when an equal matrix was
# already reduced; an object repeats when the same object was already passed.
REPEAT_BY_VALUE = ("linalg.rref",)
REPEAT_BY_IDENTITY = ("rep.classify_membership",
                      "presentations.min_proj_presentation")
# ``_iso_indec`` returns None when the two objects are not isomorphic.
MATCH = ("hom._iso_indec",)

# (metric, unit, boundary, statistic).  Statistics: calls, cells, self_s,
# incl_s, repeat_frac, match_frac.
LAYER_METRICS = (
    ("linalg.rref.calls", "count", "linalg.rref", "calls"),
    ("linalg.rref.cells", "count", "linalg.rref", "cells"),
    ("linalg.rref.self_s", "s", "linalg.rref", "self_s"),
    ("linalg.rref.repeat_frac", "ratio", "linalg.rref", "repeat_frac"),
    ("hom.end_algebra.calls", "count", "hom.end_algebra", "calls"),
    ("hom.end_algebra.incl_s", "s", "hom.end_algebra", "incl_s"),
    ("hom.end_algebra.self_s", "s", "hom.end_algebra", "self_s"),
    ("hom.decompose_report.incl_s", "s", "hom.decompose_report", "incl_s"),
    ("hom.iso.calls", "count", "hom._iso_indec", "calls"),
    ("hom.iso.incl_s", "s", "hom._iso_indec", "incl_s"),
    ("hom.iso.match_frac", "ratio", "hom._iso_indec", "match_frac"),
    ("rep.end_profile.calls", "count", "rep.end_profile", "calls"),
    ("rep.end_profile.self_s", "s", "rep.end_profile", "self_s"),
    ("rep.classify_membership.calls", "count", "rep.classify_membership",
     "calls"),
    ("rep.classify_membership.incl_s", "s", "rep.classify_membership",
     "incl_s"),
    ("rep.classify_membership.repeat_frac", "ratio",
     "rep.classify_membership", "repeat_frac"),
    ("quiver.VertexSet.make.calls", "count", "quiver.VertexSet.make", "calls"),
    ("presentations.min_proj_presentation.calls", "count",
     "presentations.min_proj_presentation", "calls"),
    ("presentations.min_proj_presentation.self_s", "s",
     "presentations.min_proj_presentation", "self_s"),
    ("presentations.min_proj_presentation.repeat_frac", "ratio",
     "presentations.min_proj_presentation", "repeat_frac"),
    ("presentations.min_inj_copresentation.calls", "count",
     "presentations.min_inj_copresentation", "calls"),
    ("presentations.min_inj_copresentation.self_s", "s",
     "presentations.min_inj_copresentation", "self_s"),
    ("hom.hom_space.calls", "count", "hom.hom_space", "calls"),
    ("hom.hom_space.incl_s", "s", "hom.hom_space", "incl_s"),
    ("hom.hom_space.self_s", "s", "hom.hom_space", "self_s"),
    ("ext.ext_space.calls", "count", "ext.ext_space", "calls"),
    ("ext.ext_space.incl_s", "s", "ext.ext_space", "incl_s"),
    ("ext.ext_space.self_s", "s", "ext.ext_space", "self_s"),
    ("ar.almost_split_sequence.calls", "count", "ar.almost_split_sequence",
     "calls"),
    ("ar.almost_split_sequence.incl_s", "s", "ar.almost_split_sequence",
     "incl_s"),
    ("ar.tau.calls", "count", "ar.tau", "calls"),
    ("ar.tau_inv.calls", "count", "ar.tau_inv", "calls"),
    ("io.parse_rep.self_s", "s", "io.parse_rep", "self_s"),
    ("io.emit_s", "s", EMIT_GROUP, "incl_s"),
)
# Timed by the CLI child itself, per verb: (metric, side-file key).
CLI_METRICS = (("cli.startup_s", "startup_s"), ("cli.import_s", "import_s"),
               ("cli.main_s", "main_s"))
OVERHEAD_METRIC = "trace.overhead_frac"

UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
UNITS.update({name: "s" for name, _ in CLI_METRICS})
UNITS[OVERHEAD_METRIC] = "ratio"


def _key(fn) -> str:
    return f"{fn.__module__.removeprefix('arknit.')}.{fn.__qualname__}"


def discover(src: Path) -> dict:
    """Boundary key -> function: every plain function that one arknit module
    imports from another (function-local imports included), plus NAMED."""
    found = {}
    for path in sorted((src / "arknit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module):
                continue
            mod = importlib.import_module(f"arknit.{node.module}")
            for alias in node.names:
                obj = getattr(mod, alias.name, None)
                if isinstance(obj, types.FunctionType):
                    found[_key(obj)] = obj
    for name in NAMED:
        mod, _, attr = name.partition(".")
        obj = getattr(importlib.import_module(f"arknit.{mod}"), attr, None)
        if isinstance(obj, types.FunctionType):
            found[name] = obj
    return found


def _static_method(mod, cls, meth):
    owner = getattr(importlib.import_module(f"arknit.{mod}"), cls, None)
    found = getattr(owner, "__dict__", {}).get(meth)
    return (owner, found) if isinstance(found, staticmethod) else (owner, None)


def missing_named(src: Path) -> list:
    """Named boundaries that the arknit under test does not define."""
    found = discover(src)
    return ([name for name in NAMED if name not in found]
            + [f"{m}.{c}.{f}" for m, c, f in NAMED_METHODS
               if _static_method(m, c, f)[1] is None])


class Tracer:
    """Spans of the op being traced; wrappers are inert between ops."""

    def __init__(self):
        self.spans = None
        self.current = -1
        self._undo = []

    def wrap(self, key: str, fn):
        tracer, clock = self, time.perf_counter
        keep_arg = key in REPEAT_BY_VALUE or key in REPEAT_BY_IDENTITY
        keep_match = key in MATCH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            if spans is None:
                return fn(*args, **kwargs)
            span = [key, tracer.current, 0.0, 0.0,
                    args[0] if keep_arg and args else None, False]
            tracer.current = len(spans)
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                tracer.current = span[1]
            if keep_match:
                span[5] = result is not None
            return result

        return traced

    def install(self, src: Path) -> list:
        """Wrap every boundary in every loaded arknit module namespace;
        return the wrapped boundary keys."""
        boundaries = discover(src)
        by_id = {id(fn): self.wrap(key, fn) for key, fn in boundaries.items()}
        for name, mod in list(sys.modules.items()):
            if name != "arknit" and not name.startswith("arknit."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapped = by_id.get(id(val))
                if wrapped is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped)
        keys = sorted(boundaries)
        for mod, cls, meth in NAMED_METHODS:
            owner, orig = _static_method(mod, cls, meth)
            if orig is not None:
                key = f"{mod}.{cls}.{meth}"
                self._undo.append((owner, meth, orig))
                wrapped = self.wrap(key, orig.__func__)
                setattr(owner, meth, staticmethod(wrapped))
                keys.append(key)
        return keys

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo = []

    def start(self):
        self.spans, self.current = [], -1

    def stop(self) -> dict:
        """End the op; return its per-boundary statistics."""
        spans, self.spans = self.spans, None
        return summarize(spans)


def _has_ancestor(spans, i, keys) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] in keys:
            return True
        parent = spans[parent][1]
    return False


def summarize(spans) -> dict:
    """Per-boundary calls, self and inclusive time, cells, repeats and
    matches of one op's spans (parents precede their children)."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats, seen = {}, {}
    emit = set(EMIT)
    for i, (key, _, t0, t1, arg, matched) in enumerate(spans):
        s = stats.setdefault(key, new_stat())
        s["calls"] += 1
        s["self_s"] += t1 - t0 - child[i]
        if not _has_ancestor(spans, i, (key,)):
            s["incl_s"] += t1 - t0
        if key in emit and not _has_ancestor(spans, i, emit):
            stats.setdefault(EMIT_GROUP, new_stat())["incl_s"] += t1 - t0
        if arg is not None:
            if key in REPEAT_BY_VALUE:
                s["cells"] += arg.rows * arg.cols
                mark = arg
            else:
                mark = id(arg)
            prior = seen.setdefault(key, {})
            if mark in prior:
                s["repeats"] += 1
            else:
                prior[mark] = arg  # keeps the object alive, so ids stay unique
        s["matches"] += matched
    return stats


def new_stat() -> dict:
    return {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "cells": 0,
            "repeats": 0, "matches": 0}


def merge(into: dict, stats: dict) -> dict:
    for key, s in stats.items():
        acc = into.setdefault(key, new_stat())
        for field, value in s.items():
            acc[field] += value
    return into


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values of one pass from its merged statistics."""
    out = {}
    for name, _, key, stat in LAYER_METRICS:
        s = stats.get(key, new_stat())
        if stat == "repeat_frac":
            out[name] = s["repeats"] / s["calls"] if s["calls"] else 0.0
        elif stat == "match_frac":
            out[name] = s["matches"] / s["calls"] if s["calls"] else 0.0
        else:
            out[name] = s[stat]
    return out


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
