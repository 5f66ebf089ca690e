"""Span tracer installed around odegeom's public calls from outside the program.

`Tracer.install()` wraps each function in TARGETS.  A module-level function
is rebound in every loaded `odegeom` module that holds it, because
`from .expr import diff` copies the binding: patching `odegeom.expr` alone
misses the calls made from `geom`, `pentad`, `so3`, `jet` and `radon`.
Methods are wrapped on their class.

Each call records a span (name, start, end, parent) in memory; `dump()`
returns them when the report has finished, and `aggregate()` turns them into
per-layer metrics.  Node counts are taken with the clock stopped, so they
add nothing to any span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from typing import Dict, List

# (span name, module, attribute or Class.method)
TARGETS = (
    ("cli.pentad_suite", "odegeom.cli", "pentad_suite"),
    ("cli.geom_suite", "odegeom.cli", "geom_suite"),
    ("cli.so3_suite", "odegeom.cli", "so3_suite"),
    ("cli.radon_suite", "odegeom.cli", "radon_suite"),
    ("report.to_json", "odegeom.report", "CheckReport.to_json"),
    ("jet.resolve_ode", "odegeom.jet", "resolve_ode"),
    ("jet.total_derivative", "odegeom.jet", "total_derivative"),
    ("expr.diff", "odegeom.expr", "diff"),
    ("expr.topo_order", "odegeom.expr", "topo_order"),
    ("expr.evaluator_build", "odegeom.expr", "Evaluator.__init__"),
    ("expr.eval_point", "odegeom.expr", "Evaluator.__call__"),
    ("expr.eval_points", "odegeom.expr", "Evaluator.eval_points"),
    ("expr.equiv", "odegeom.expr", "equiv"),
    ("expr.parse", "odegeom.expr", "parse"),
    ("catalog.expr", "odegeom.catalog", "expr"),
    ("pentad.solve_pentad", "odegeom.pentad", "solve_pentad"),
    ("geom.metric_from_frame", "odegeom.geom", "metric_from_frame"),
    # the first call on each MetricField is renamed geom.deriv_tables
    ("geom.derivatives_at", "odegeom.geom", "MetricField.derivatives_at"),
    ("geom.christoffel_at", "odegeom.geom", "MetricField.christoffel_at"),
    ("geom.curvature", "odegeom.geom", "curvature"),
    ("so3.build_G", "odegeom.so3", "build_G"),
    ("so3.g_identities", "odegeom.so3", "g_identities"),
    ("so3.expansion_check", "odegeom.so3", "expansion_check"),
    ("radon.radon_F", "odegeom.radon", "radon_F"),
    ("radon.verify_system", "odegeom.radon", "verify_system"),
    ("radon.numerics_checks", "odegeom.radon", "numerics_checks"),
    ("radon.integrate_ode", "odegeom.radon", "integrate_ode"),
)

# Per-layer metrics: (metric, kind, span or counter).  "self" is the span
# minus its children, "total" the whole span (outermost call only), "calls"
# the number of spans, "count" a counter.
METRICS = (
    ("cli.pentad_suite_s", "total", "cli.pentad_suite"),
    ("cli.geom_suite_s", "total", "cli.geom_suite"),
    ("cli.so3_suite_s", "total", "cli.so3_suite"),
    ("cli.radon_suite_s", "total", "cli.radon_suite"),
    ("report.to_json_s", "self", "report.to_json"),
    ("jet.resolve_ode_s", "self", "jet.resolve_ode"),
    ("jet.total_derivative_s", "total", "jet.total_derivative"),
    ("jet.total_derivative_calls", "calls", "jet.total_derivative"),
    ("expr.diff_s", "self", "expr.diff"),
    ("expr.diff_calls", "calls", "expr.diff"),
    ("expr.diff_nodes_visited", "count", "expr.diff_nodes_visited"),
    ("expr.topo_order_s", "self", "expr.topo_order"),
    ("expr.topo_order_calls", "calls", "expr.topo_order"),
    ("expr.evaluator_build_s", "self", "expr.evaluator_build"),
    ("expr.evaluator_builds", "calls", "expr.evaluator_build"),
    ("expr.evaluator_nodes", "count", "expr.evaluator_nodes"),
    ("expr.eval_point_s", "self", "expr.eval_point"),
    ("expr.eval_point_calls", "calls", "expr.eval_point"),
    ("expr.eval_points_s", "self", "expr.eval_points"),
    ("expr.eval_points_calls", "calls", "expr.eval_points"),
    ("expr.equiv_s", "self", "expr.equiv"),
    ("expr.equiv_calls", "calls", "expr.equiv"),
    ("expr.parse_s", "self", "expr.parse"),
    ("catalog.expr_s", "self", "catalog.expr"),
    ("pentad.solve_pentad_s", "total", "pentad.solve_pentad"),
    ("pentad.solve_pentad_calls", "calls", "pentad.solve_pentad"),
    ("pentad.coframe_nodes", "count", "pentad.coframe_nodes"),
    ("geom.metric_from_frame_s", "self", "geom.metric_from_frame"),
    ("geom.deriv_tables_s", "tables", "geom.deriv_tables"),
    ("geom.deriv_tables_builds", "calls", "geom.deriv_tables"),
    ("geom.ddg_nodes", "count", "geom.ddg_nodes"),
    ("geom.curvature_s", "total", "geom.curvature"),
    ("geom.curvature_calls", "calls", "geom.curvature"),
    ("geom.christoffel_at_calls", "calls", "geom.christoffel_at"),
    ("so3.build_G_s", "self", "so3.build_G"),
    ("so3.build_G_calls", "calls", "so3.build_G"),
    ("so3.g_identities_s", "total", "so3.g_identities"),
    ("so3.expansion_check_s", "total", "so3.expansion_check"),
    ("radon.radon_F_s", "self", "radon.radon_F"),
    ("radon.radon_F_calls", "calls", "radon.radon_F"),
    ("radon.verify_system_s", "total", "radon.verify_system"),
    ("radon.numerics_checks_s", "total", "radon.numerics_checks"),
    ("radon.integrate_ode_s", "self", "radon.integrate_ode"),
)


def distinct_nodes(roots) -> int:
    """Number of distinct expression nodes reachable from roots."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return len(seen)


def _flatten(table) -> list:
    if isinstance(table, (list, tuple)):
        return [leaf for item in table for leaf in _flatten(item)]
    return [table]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: list = []     # [name id, start ns, end ns, parent index or -1]
        self.counts: Dict[str, int] = {}
        self._stack: list = []    # (span index, name id) of the open spans
        self._paused = 0
        self._tables_built = weakref.WeakSet()

    def _clock(self) -> int:
        return time.perf_counter_ns() - self._paused

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count_nodes(self, counter: str, roots) -> None:
        """Keep the largest node count seen under counter; the span clock
        stops while counting."""
        t0 = time.perf_counter_ns()
        n = distinct_nodes(roots)
        self.counts[counter] = max(self.counts.get(counter, 0), n)
        self._paused += time.perf_counter_ns() - t0

    def wrap(self, name: str, fn, pick=None, after=None):
        """Wrap fn in a span.  pick(args) may return another span name;
        after(name, args, result) runs once the span has closed."""
        nid = self._id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own = self._id(pick(args)) if pick is not None else nid
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, own))
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (own, start, self._clock(), parent)
            if after is not None:
                after(self.names[own], args, result)
            return result

        return traced

    # -- hooks for the node counts ----------------------------------------

    def _pick_tables(self, args) -> str:
        metric = args[0]
        if metric in self._tables_built:
            return "geom.derivatives_at"
        self._tables_built.add(metric)
        return "geom.deriv_tables"

    def _after_tables(self, name, args, result) -> None:
        # (g, dg, ddg) is private to MetricField; without it the count reads 0
        cache = getattr(args[0], "_deriv_cache", None)
        if name == "geom.deriv_tables" and cache is not None:
            self._count_nodes("geom.ddg_nodes", _flatten(cache[2]))

    def _after_topo_order(self, name, args, result) -> None:
        # nodes visited by diff and compiled by Evaluator are the length of
        # the topological order each of them asks for
        if not self._stack:
            return
        parent = self.names[self._stack[-1][1]]
        if parent == "expr.diff":
            counter = "expr.diff_nodes_visited"
        elif parent == "expr.evaluator_build":
            counter = "expr.evaluator_nodes"
        else:
            return
        self.counts[counter] = self.counts.get(counter, 0) + len(result)

    def _after_solve_pentad(self, name, args, result) -> None:
        self._count_nodes("pentad.coframe_nodes", _flatten(result.coframe_rows))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "geom.derivatives_at": dict(pick=self._pick_tables, after=self._after_tables),
            "expr.topo_order": dict(after=self._after_topo_order),
            "pentad.solve_pentad": dict(after=self._after_solve_pentad),
        }
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), **hooks.get(name, {})))
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig, **hooks.get(name, {}))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "odegeom" or mod_name.startswith("odegeom.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def aggregate(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced report, from Tracer.dump()."""
    names = trace["names"]
    spans = trace["spans"]
    n = len(spans)
    child_ns = [0] * n
    eval_child_ns = [0] * n
    eval_point = names.index("expr.eval_point") if "expr.eval_point" in names else -1
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if nid == eval_point:
                eval_child_ns[parent] += end - start

    self_ns: Dict[str, int] = {}
    total_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    tables_ns = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if name == "geom.deriv_tables":
            tables_ns += dur - eval_child_ns[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            total_ns[name] = total_ns.get(name, 0) + dur

    out: Dict[str, float] = {}
    for metric, kind, key in METRICS:
        if kind == "self":
            out[metric] = self_ns.get(key, 0) / 1e9
        elif kind == "total":
            out[metric] = total_ns.get(key, 0) / 1e9
        elif kind == "tables":
            out[metric] = tables_ns / 1e9
        elif kind == "calls":
            out[metric] = calls.get(key, 0)
        else:
            out[metric] = trace["counts"].get(key, 0)
    return out
