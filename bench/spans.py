"""Tracing from outside the program: wrap the public functions of each
``f1zeta`` module, record one span per call, and derive per-layer metrics.

Nothing under ``src/`` changes.  :meth:`Tracer.install` looks up each target
and rebinds it wherever an ``f1zeta`` module or class holds the original
object, so ``class_of`` is traced whether it is reached as
``grothendieck.class_of``, ``oracle.class_of`` or ``cli.class_of``.
:meth:`Tracer.uninstall` puts every original back.

A span is ``(id, name, start, end, parent, invocation, size)``; spans stay
in memory until :meth:`Tracer.write` saves them.  Counters come from the
same wrappers, read off arguments and return values.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

def _edges(args, result):
    return len(args[0].edges)


def _cliques(tracer, args, result):
    tracer.count("loose_graph.cliques.count", len(result))


def _surgery(tracer, args, result):
    steps = result[1].steps
    tracer.count("grothendieck.surgery.steps", len(steps))
    tracer.count("grothendieck.surgery.ball_vertices", sum(len(s.ball) for s in steps))


def _enumerated(args):
    """Coordinate vectors ``enumerate_points(g, q)`` walks: q to the number
    of vertices plus loose edges (free loose edges add no coordinate)."""
    g, q = args[0], args[1]
    return q ** (len(g.vertices) + len(g.loose_edges))


def _points(tracer, args, result):
    g, q = args[0], args[1]
    tracer.count("oracle.enumerate_points.tuples", _enumerated(args))
    tracer.count("oracle.enumerate_points.points", result - (q - 1) * len(g.free_edges))


def _poly_op(tracer, args, result):
    tracer.count("poly.ops", 1)


#: (module, attribute path, span name or None for a counter only, size, counter)
TARGETS = (
    ("f1zeta.cli", "main", "cli.main", None, None),
    ("f1zeta.loose_graph", "LooseGraph.parse", "loose_graph.parse",
     lambda args, result: len(args[-1].splitlines()), None),
    ("f1zeta.loose_graph", "LooseGraph.__init__", "loose_graph.init", _edges, None),
    ("f1zeta.loose_graph", "LooseGraph.degree", "loose_graph.degree", _edges, None),
    ("f1zeta.loose_graph", "LooseGraph.cliques", "loose_graph.cliques", _edges, _cliques),
    ("f1zeta.loose_graph", "LooseGraph.ambient_completion",
     "loose_graph.ambient_completion", _edges, None),
    ("f1zeta.loose_graph", "LooseGraph.restrict", "loose_graph.restrict", _edges, None),
    ("f1zeta.loose_graph", "LooseGraph.components", "loose_graph.components", _edges, None),
    ("f1zeta.loose_graph", "LooseGraph.resolve_edge", "loose_graph.resolve_edge", _edges, None),
    ("f1zeta.grothendieck", "class_of", "grothendieck.class_of", _edges, None),
    ("f1zeta.grothendieck", "surgery", "grothendieck.surgery", _edges, _surgery),
    ("f1zeta.grothendieck", "tree_class", "grothendieck.tree_class", _edges, None),
    ("f1zeta.poly", "IntPolynomial.__add__", None, None, _poly_op),
    ("f1zeta.poly", "IntPolynomial.__sub__", None, None, _poly_op),
    ("f1zeta.poly", "IntPolynomial.__mul__", None, None, _poly_op),
    ("f1zeta.oracle", "enumerate_points", "oracle.enumerate_points",
     lambda args, result: _enumerated(args), _points),
    ("f1zeta.oracle", "interpolate", "oracle.interpolate", None, None),
    ("f1zeta.oracle", "cross_check", "oracle.cross_check", _edges, None),
    ("f1zeta.zeta", "local_zeta_series", "zeta.local_zeta_series", None, None),
    ("f1zeta.zeta", "counting_series", "zeta.counting_series", None, None),
    ("f1zeta.corpus", "exhaustive_loose_graphs", "corpus.generate", None, None),
    ("f1zeta.corpus", "random_loose_graph", "corpus.generate", None, None),
)

#: Span names reported as ``<name>.calls`` and ``<name>.self_s``.
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS if t[2]))


class Tracer:
    """Span and counter recorder for one traced run.

    ``invocation`` is set by the caller before each CLI call; spans and
    counts made meanwhile carry it.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (counter name, invocation) -> amount
        self.invocation = None
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def count(self, name, amount):
        self.counts[(name, self.invocation)] += amount

    def total(self, name, invocations=None):
        return sum(v for (n, inv), v in self.counts.items()
                   if n == name and (invocations is None or inv in invocations))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, size, count):
        tracer = self
        clock = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer, args, result)
                return result
            return counted

        def begin():
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            return sid, parent, clock()

        def end(sid, parent, start, args=None, result=None):
            stop = clock()
            tracer._stack.pop()
            n = size(args, result) if args is not None and size is not None else None
            tracer.spans.append((sid, name, start, stop, parent, tracer.invocation, n))

        if inspect.isgeneratorfunction(fn):
            # One span per resume: the generator does its work inside next().
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid, parent, start = begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        end(sid, parent, start)
                        return
                    except BaseException:
                        end(sid, parent, start)
                        raise
                    end(sid, parent, start)
                    yield item
            return generator

        def spanned(*args, **kwargs):
            sid, parent, start = begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(sid, parent, start)
                raise
            end(sid, parent, start, args, result)
            if count is not None:
                count(tracer, args, result)
            return result
        return spanned

    def install(self):
        """Rebind every target in every ``f1zeta`` module and class that
        holds it."""
        for module_name, path, name, size, count in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(original, classmethod)
            wrapper = self._wrap(original.__func__ if is_classmethod else original, name, size, count)
            if is_classmethod:
                wrapper = classmethod(wrapper)
            for holder, key in _holders(original):
                self._saved.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def write(self, path):
        """Save the spans, one JSON list per line, after the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            counts = [[n, inv, v] for (n, inv), v in sorted(self.counts.items(), key=str)]
            handle.write(json.dumps({"counts": counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _holders(original):
    """Every (module or class, attribute) in ``f1zeta`` bound to ``original``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "f1zeta" and not module_name.startswith("f1zeta."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
            elif isinstance(value, type) and value.__module__ == module_name:
                found.extend(
                    (value, k) for k, v in list(value.__dict__.items()) if v is original
                )
    return found


# -- metrics ----------------------------------------------------------------------


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap."""
    child_time = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, start, end, _, _, _ in spans}


def layer_metrics(tracer, size_class_of, doubling: bool) -> dict:
    """Per-layer metrics of one traced run.

    ``size_class_of`` maps each traced invocation id to its input's size
    class.  With ``doubling`` the classes form a doubling series (n, 2n, 4n)
    and each doubling exponent is log2 of the per-input time ratio between
    consecutive classes, averaged over the pairs; without one it reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls = Counter(s[1] for s in spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    self_by_class = defaultdict(lambda: defaultdict(float))
    total_by_class = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _, inv, _ in spans:
        self_s[name] += selfs[sid]
        total_s[name] += end - start
        self_by_class[name][size_class_of.get(inv)] += selfs[sid]
        total_by_class[name][size_class_of.get(inv)] += end - start

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    lines = sum(s[6] or 0 for s in spans if s[1] == "loose_graph.parse")
    out["loose_graph.parse.lines_per_s"] = _ratio(lines, total_s["loose_graph.parse"])
    out["loose_graph.cliques.count"] = tracer.total("loose_graph.cliques.count")

    in_surgery = sum(
        end - start for _, name, start, end, parent, _, _ in spans
        if name == "grothendieck.class_of" and _has_ancestor(by_id, parent, "grothendieck.surgery")
    )
    out["grothendieck.class_of.in_surgery_share"] = _ratio(in_surgery, total_s["grothendieck.class_of"])

    steps = tracer.total("grothendieck.surgery.steps")
    out["grothendieck.surgery.steps"] = steps
    out["grothendieck.surgery.ball_vertices"] = tracer.total("grothendieck.surgery.ball_vertices")
    out["grothendieck.surgery.s_per_step"] = _ratio(total_s["grothendieck.surgery"], steps)
    out["poly.ops"] = tracer.total("poly.ops")

    tuples = tracer.total("oracle.enumerate_points.tuples")
    out["oracle.enumerate_points.tuples"] = tuples
    out["oracle.enumerate_points.tuples_per_s"] = _ratio(tuples, total_s["oracle.enumerate_points"])
    out["oracle.enumerate_points.useful_ratio"] = _ratio(
        tracer.total("oracle.enumerate_points.points"), tuples)

    classes = sorted(set(size_class_of.values()))
    members = {k: {i for i, c in size_class_of.items() if c == k} for k in classes}
    for name in ("loose_graph.parse", "loose_graph.degree"):
        per_input = {k: self_by_class[name][k] / len(members[k]) for k in classes}
        out[f"{name}.doubling_exponent"] = _doubling(per_input) if doubling else 0.0
    per_step = {
        k: _ratio(total_by_class["grothendieck.surgery"][k],
                  tracer.total("grothendieck.surgery.steps", members[k]))
        for k in classes
    }
    out["grothendieck.surgery.step_doubling_exponent"] = _doubling(per_step) if doubling else 0.0
    return out


def _has_ancestor(by_id, sid, name) -> bool:
    while sid is not None:
        span = by_id[sid]
        if span[1] == name:
            return True
        sid = span[4]
    return False


def _doubling(values_by_class) -> float:
    keys = sorted(k for k, v in values_by_class.items() if v > 0)
    exps = [math.log2(values_by_class[b] / values_by_class[a]) for a, b in zip(keys, keys[1:])]
    return statistics.fmean(exps) if exps else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0
